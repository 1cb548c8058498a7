"""The vCPU (a VMCS, a register file, the hypervisor), its exit loop, snapshots
and noise.

The session owns the cycle ledger. Per exit the virtual clock advances by
guest compute time, the exit's base cost, and (only while recording) the
recording overhead. The hypervisor TSC advances by base cost alone, so a
replayed exit observes the same TSC the recorded one did.

Recording is part of the exit loop: while `Session.capture` is a list, every
exit appends an ExitFrame built from the registers saved on exit, the VMCS
access logs of its handler, its coverage and its cycle cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .guest import (
    GuestOp,
    GuestProgram,
    PROFILES,
    apply_post,
    boot_prologue,
    power_on,
    raise_exit,
)
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
    GprFile,
    LaunchState,
    VM_EXIT_INTERRUPTION_INFO,
    Vmcs,
)

CYCLES_PER_SECOND = 3_500_000_000
REFERENCE_EXITS_PER_SECOND = 50_000

AUTO_BOOT_SEED_SALT = 0xB007
NOISE_SEED_SALT = 0x5EED_0F_A5A5


@dataclass
class ExitFrame:
    """One recorded exit: its seed (gprs, reads) and its metrics."""

    reason: int
    cycle_cost: int
    coverage_mask: int
    gprs: tuple[int, ...] = ()                      # indexed by GprId
    reads: tuple[tuple[int, int], ...] = ()         # (encoding, value), in order
    writes: tuple[tuple[int, int], ...] = ()


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
    """A powered-on vCPU at the reset vector, and its hypervisor."""

    def __init__(self) -> None:
        self.vmcs = Vmcs()
        self.gprs = GprFile()
        power_on(self.vmcs)
        self.hyp = Hypervisor(self.vmcs, self.gprs)
        self.virtual_clock = 0
        self.total_exits = 0
        self.capture: list[ExitFrame] | None = None   # recorded frames, or None
        self.noise: NoiseInjector | None = None

    def auto_boot(self, seed: int) -> None:
        """Bring a non-boot workload's guest to protected-paged mode.

        Runs the boot prologue unrecorded; traces of such workloads start
        from the snapshot taken after this, never from the reset vector.
        """
        if self.capture is not None:
            raise RuntimeError("auto_boot while recording")
        rng = SplitMix64(seed ^ AUTO_BOOT_SEED_SALT)
        result = self.run(boot_prologue(rng, (50, 200)))
        if not result.ok:
            raise RuntimeError(f"auto boot crashed: {result.crash.detail}")

    def drive(self, op: GuestOp, async_block: int | None = None) -> DispatchResult:
        vmcs, hyp = self.vmcs, self.hyp
        raise_exit(vmcs, self.gprs, op)
        capture = self.capture
        if capture is not None:
            gprs = tuple(self.gprs.regs)
            vmcs.reads, vmcs.writes = [], []
        hyp.begin_frame()
        if async_block is not None:
            hyp.hit(async_block)
        result = hyp.handle_exit()
        frame_mask = hyp.end_frame()
        overhead = recording_overhead(result.base_cost) if capture is not None else 0
        cycle_cost = op.compute_cycles + result.base_cost + overhead
        self.virtual_clock += cycle_cost
        self.total_exits += 1
        if capture is not None:
            capture.append(ExitFrame(result.reason, cycle_cost, frame_mask, gprs,
                                     tuple(vmcs.reads), tuple(vmcs.writes)))
            vmcs.reads = vmcs.writes = None
        if result.outcome is ExitOutcome.RESUME:
            apply_post(vmcs, op)
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
            vmcs_values=dict(self.vmcs.values),
            launch_state=int(self.vmcs.launch_state),
            gprs=list(self.gprs.regs),
            tsc=self.hyp.tsc,
            coverage_union=self.hyp.union_mask,
            virtual_clock=self.virtual_clock,
            total_exits=self.total_exits,
        )

    def restore(self, snap: SessionSnapshot) -> None:
        self.vmcs.values = dict(snap.vmcs_values)
        self.vmcs.launch_state = LaunchState(snap.launch_state)
        self.gprs.regs = list(snap.gprs)
        self.hyp.tsc = snap.tsc
        self.hyp.union_mask = snap.coverage_union
        self.virtual_clock = snap.virtual_clock
        self.total_exits = snap.total_exits


def prepare_session(profile_name: str, workload_seed: int, n_exits: int) -> tuple[Session, GuestProgram]:
    """Powered-on session at the point recording may begin, plus its script."""
    profile = PROFILES[profile_name]
    session = Session()
    if not profile.boot:
        session.auto_boot(workload_seed)
    program = GuestProgram(profile, workload_seed, n_exits)
    return session, program
