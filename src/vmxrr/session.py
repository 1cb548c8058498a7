"""Run loop tying a guest VM to the hypervisor, plus snapshots and noise.

The session owns the cycle ledger. Per exit the virtual clock advances by
guest compute time, the exit's base cost, and (only while a recorder is
attached) the recording overhead. The hypervisor TSC advances by base cost
alone, so a replayed exit observes the same TSC the recorded one did.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .guest import GuestOp, GuestProgram, GuestVm, PROFILES, boot_prologue
from .hypervisor import (
    B_ASYNC_LAPIC_TIMER,
    B_ASYNC_PIC_RAISE,
    CrashInfo,
    DispatchResult,
    ExitOutcome,
    Hypervisor,
    recording_overhead,
)
from .rng import SplitMix64
from .vmx import (
    ExitReason,
    LaunchState,
    VM_EXIT_INTERRUPTION_INFO,
)

CYCLES_PER_SECOND = 3_500_000_000
REFERENCE_EXITS_PER_SECOND = 50_000

AUTO_BOOT_SEED_SALT = 0xB007
NOISE_SEED_SALT = 0x5EED_0F_A5A5


@dataclass
class SessionSnapshot:
    """Everything needed to resume a session, or to seed a dummy VM."""

    vmcs_values: dict[int, int]
    launch_state: int
    gprs: list[int]
    tsc: int
    coverage_union: int
    virtual_clock: int
    total_exits: int


@dataclass
class SessionResult:
    completed: int
    crash: CrashInfo | None

    @property
    def ok(self) -> bool:
        return self.crash is None


class NoiseInjector:
    """Asynchronous interrupt source active only on the recorded side.

    Each injection is a full extra exit. The injection path blocks are hit
    outside any handler, which is exactly why replay cannot reproduce them.
    """

    def __init__(self, seed: int, probability: float) -> None:
        self.rng = SplitMix64(seed ^ NOISE_SEED_SALT)
        self.probability = probability

    def poll(self) -> tuple[GuestOp, int] | None:
        if not self.rng.chance(self.probability):
            return None
        if self.rng.chance(0.5):
            vector, block = 0x20, B_ASYNC_LAPIC_TIMER
        else:
            vector, block = 0x21, B_ASYNC_PIC_RAISE
        op = GuestOp(
            ExitReason.EXTERNAL_INTERRUPT,
            0,
            exit_fields={VM_EXIT_INTERRUPTION_INFO: (1 << 31) | vector},
        )
        return op, block


class Session:
    def __init__(self) -> None:
        self.vm = GuestVm()
        self.hyp = Hypervisor(self.vm.vmcs, self.vm.gprs)
        self.virtual_clock = 0
        self.total_exits = 0
        self.recorder = None           # duck-typed; see recorder.Recorder.attach
        self.noise: NoiseInjector | None = None

    def power_on(self) -> None:
        self.vm.power_on()

    def auto_boot(self, seed: int) -> None:
        """Bring a non-boot workload's guest to protected-paged mode.

        Runs the boot prologue without a recorder; traces of such workloads
        start from the snapshot taken after this, never from the reset vector.
        """
        if self.recorder is not None:
            raise RuntimeError("auto_boot with a recorder attached")
        rng = SplitMix64(seed ^ AUTO_BOOT_SEED_SALT)
        result = self.run(boot_prologue(rng, (50, 200)))
        if not result.ok:
            raise RuntimeError(f"auto boot crashed: {result.crash.detail}")

    def drive(self, op: GuestOp, async_block: int | None = None) -> DispatchResult:
        self.vm.raise_exit(op)
        rec = self.recorder
        if rec is not None:
            rec.begin_exit()
        self.hyp.cov.begin_frame()
        if async_block is not None:
            self.hyp.cov.hit(async_block)
        result = self.hyp.handle_exit()
        frame_mask = self.hyp.cov.end_frame()
        overhead = recording_overhead(result.base_cost) if rec is not None else 0
        cycle_cost = op.compute_cycles + result.base_cost + overhead
        self.virtual_clock += cycle_cost
        self.total_exits += 1
        if rec is not None:
            rec.end_exit(result, frame_mask, cycle_cost)
        if result.outcome is ExitOutcome.RESUME:
            self.vm.apply_post(op)
        return result

    def run(self, ops: Iterable[GuestOp]) -> SessionResult:
        completed = 0
        for op in ops:
            if self.noise is not None:
                injected = self.noise.poll()
                if injected is not None:
                    noise_op, block = injected
                    result = self.drive(noise_op, block)
                    completed += 1
                    if result.outcome is not ExitOutcome.RESUME:
                        return SessionResult(completed, result.crash)
            result = self.drive(op)
            completed += 1
            if result.outcome is not ExitOutcome.RESUME:
                return SessionResult(completed, result.crash)
        return SessionResult(completed, None)

    # -- state capture ---------------------------------------------------------

    def snapshot(self) -> SessionSnapshot:
        return SessionSnapshot(
            vmcs_values=self.vm.vmcs.copy_values(),
            launch_state=int(self.vm.vmcs.launch_state),
            gprs=list(self.vm.gprs.regs),
            tsc=self.hyp.tsc,
            coverage_union=self.hyp.cov.union_mask,
            virtual_clock=self.virtual_clock,
            total_exits=self.total_exits,
        )

    def restore(self, snap: SessionSnapshot) -> None:
        self.vm.vmcs.values = dict(snap.vmcs_values)
        self.vm.vmcs.launch_state = LaunchState(snap.launch_state)
        self.vm.gprs.regs = list(snap.gprs)
        self.hyp.tsc = snap.tsc
        self.hyp.cov.union_mask = snap.coverage_union
        self.hyp.cov.frame_mask = 0
        self.virtual_clock = snap.virtual_clock
        self.total_exits = snap.total_exits


def prepare_session(profile_name: str, workload_seed: int, n_exits: int) -> tuple[Session, GuestProgram]:
    """Powered-on session at the point recording may begin, plus its script."""
    profile = PROFILES[profile_name]
    session = Session()
    session.power_on()
    if not profile.boot:
        session.auto_boot(workload_seed)
    program = GuestProgram(profile, workload_seed, n_exits)
    return session, program
