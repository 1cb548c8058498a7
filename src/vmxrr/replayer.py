"""Replay: drive recorded exits through a dummy VM and compare the results.

The dummy VM never runs a guest. Its preemption timer is armed at zero so,
conceptually, every entry exits immediately; each recorded frame is fed in by
writing the registers, loading read-write fields with their recorded values,
and queueing read-only values so the handler's vmreads pop them in order.
The handler then re-executes for real, and its writes, coverage, and crashes
are compared against what was recorded.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .guest import GuestOp
from .hypervisor import (
    ASYNC_BLOCKS,
    B_DISPATCH_ENTRY,
    B_DISPATCH_KNOWN,
    B_TIMER_ENTRY,
    B_TIMER_REARM,
    B_TIMER_ZERO,
    CrashInfo,
    DISPATCH_COST,
    DispatchResult,
    OTHER_HANDLER_COST,
)
from .recorder import ExitFrame, Trace, record
from .session import (
    CYCLES_PER_SECOND,
    REFERENCE_EXITS_PER_SECOND,
    Session,
    SessionSnapshot,
)
from .vmx import (
    FIELD_TABLE,
    FieldAccess,
    GPR_COUNT,
    GUEST_CR0,
    CpuMode,
    ExitReason,
    classify_cr0_mode,
    reason_name,
)

ASYNC_MASK = sum(1 << b for b in ASYNC_BLOCKS)
IDEAL_COVERAGE_MASK = (
    (1 << B_DISPATCH_ENTRY) | (1 << B_DISPATCH_KNOWN)
    | (1 << B_TIMER_ENTRY) | (1 << B_TIMER_ZERO) | (1 << B_TIMER_REARM)
)


class ReplayError(Exception):
    pass


class OverrideUnderflow(ReplayError):
    def __init__(self, encoding: int) -> None:
        name = FIELD_TABLE[encoding].name if encoding in FIELD_TABLE else str(encoding)
        super().__init__(f"vmread of {name} past the recorded reads")
        self.encoding = encoding


class InvalidSeed(ReplayError):
    pass


@dataclass(frozen=True)
class Divergence:
    frame_index: int
    kind: str        # read_underflow | read_leftover | write_value | write_count
    detail: str


@dataclass
class FrameReplay:
    result: DispatchResult | None   # None when a read underflow stopped the handler
    coverage_mask: int
    writes: list[tuple[int, int]]
    divergences: list[Divergence]
    matched_writes: int

    @property
    def crash(self) -> CrashInfo | None:
        return None if self.result is None else self.result.crash


@dataclass
class ReplayResult:
    crash: CrashInfo | None
    divergences: list[Divergence]
    recorded_union: int
    replay_clock: int
    matched_writes: int
    recorded_writes: int
    frame_masks: list[tuple[int, int, int]]   # (reason, recorded, replayed)
    final_writes: list[tuple[int, int]] = field(default_factory=list)

    @property
    def frames_completed(self) -> int:
        return len(self.frame_masks)

    @property
    def clean(self) -> bool:
        return not self.divergences and self.crash is None


class Replayer:
    def __init__(self, snapshot: SessionSnapshot | None = None) -> None:
        self.session = Session()
        self.session.power_on()
        if snapshot is not None:
            self.session.restore(snapshot)
        self.queues: dict[int, deque[int]] = {}
        self.replay_clock = 0
        self.session.vm.vmcs.read_override = self._override

    def _override(self, encoding: int) -> int:
        queue = self.queues.get(encoding)
        if not queue:
            raise OverrideUnderflow(encoding)
        return queue.popleft()

    def inject_seed(self, frame: ExitFrame) -> None:
        if len(frame.gprs) != GPR_COUNT:
            raise InvalidSeed(
                f"seed carries {len(frame.gprs)} registers, expected {GPR_COUNT}"
            )
        self.session.vm.gprs.regs = list(frame.gprs)
        self.queues.clear()
        vmcs = self.session.vm.vmcs
        for encoding, value in frame.reads:
            spec = FIELD_TABLE.get(encoding)
            if spec is None:
                raise InvalidSeed(f"read entry for unknown field {encoding}")
            if spec.access is FieldAccess.READ_ONLY:
                self.queues.setdefault(encoding, deque()).append(value)
            else:
                vmcs.hw_set(encoding, value)

    def replay_frame(self, frame: ExitFrame, index: int = 0) -> FrameReplay:
        self.inject_seed(frame)
        vmcs = self.session.vm.vmcs
        vmcs.writes = writes = []
        cov = self.session.hyp.cov
        cov.begin_frame()
        divergences: list[Divergence] = []
        result: DispatchResult | None = None
        try:
            result = self.session.hyp.handle_exit()
        except OverrideUnderflow as exc:
            divergences.append(Divergence(index, "read_underflow", str(exc)))
        vmcs.writes = None
        mask = cov.end_frame()
        if result is not None:
            self.replay_clock += result.base_cost
        leftover = sum(len(q) for q in self.queues.values() if q)
        if leftover:
            names = ", ".join(
                FIELD_TABLE[enc].name for enc, q in sorted(self.queues.items()) if q
            )
            divergences.append(
                Divergence(index, "read_leftover", f"{leftover} unread values: {names}")
            )
        self.queues.clear()
        self.session.total_exits += 1

        recorded = frame.writes
        matched = 0
        for pos, (rec, rep) in enumerate(zip(recorded, writes)):
            if rec == rep:
                matched += 1
            else:
                rec_name = FIELD_TABLE[rec[0]].name
                rep_name = FIELD_TABLE[rep[0]].name
                divergences.append(
                    Divergence(
                        index,
                        "write_value",
                        f"write {pos}: recorded {rec_name}={rec[1]:#x},"
                        f" replayed {rep_name}={rep[1]:#x}",
                    )
                )
        if len(recorded) != len(writes):
            divergences.append(
                Divergence(
                    index,
                    "write_count",
                    f"recorded {len(recorded)} writes, replayed {len(writes)}",
                )
            )
        return FrameReplay(result, mask, writes, divergences, matched)

    def replay_trace(self, trace: Trace) -> ReplayResult:
        """Replay the frames in order; stop after a frame that underflowed
        its reads or crashed."""
        divergences: list[Divergence] = []
        frame_masks: list[tuple[int, int, int]] = []
        all_writes: list[tuple[int, int]] = []
        matched_writes = 0
        recorded_writes = 0
        crash: CrashInfo | None = None
        for i, frame in enumerate(trace.frames):
            fr = self.replay_frame(frame, i)
            divergences.extend(fr.divergences)
            matched_writes += fr.matched_writes
            recorded_writes += len(frame.writes)
            frame_masks.append((frame.reason, frame.coverage_mask, fr.coverage_mask))
            all_writes.extend(fr.writes)
            crash = fr.crash
            if fr.result is None or crash is not None:
                break
        recorded_union = 0
        for frame in trace.frames:
            recorded_union |= frame.coverage_mask
        return ReplayResult(
            crash=crash,
            divergences=divergences,
            recorded_union=recorded_union,
            replay_clock=self.replay_clock,
            matched_writes=matched_writes,
            recorded_writes=recorded_writes,
            frame_masks=frame_masks,
            final_writes=all_writes,
        )


# ---------------------------------------------------------------------------
# Accuracy
# ---------------------------------------------------------------------------

@dataclass
class AccuracyReport:
    block_fitting: float            # percent of recorded blocks seen in replay
    write_exact_pct: float
    recorded_blocks: int
    replayed_blocks: int
    matched_writes: int
    recorded_writes: int
    diffs_total: int                # coverage diffs after noise filtering
    diffs_by_reason: dict[str, int]
    noise_filtered: int             # recorded-only bits attributed to injection
    fitting_curve: list[float]


def compute_accuracy(result: ReplayResult) -> AccuracyReport:
    write_pct = (
        100.0 * result.matched_writes / result.recorded_writes
        if result.recorded_writes
        else 100.0
    )
    diffs_total = 0
    noise_filtered = 0
    diffs_by_reason: dict[str, int] = {}
    curve: list[float] = []
    rec_cum = 0
    rep_cum = 0
    for reason, rec_mask, rep_mask in result.frame_masks:
        diff = rec_mask ^ rep_mask
        noise_bits = diff & ASYNC_MASK & rec_mask
        filtered = (diff & ~ASYNC_MASK).bit_count()
        noise_filtered += noise_bits.bit_count()
        diffs_total += filtered
        if filtered:
            name = reason_name(reason)
            diffs_by_reason[name] = diffs_by_reason.get(name, 0) + filtered
        rec_cum |= rec_mask
        rep_cum |= rep_mask
        denom = rec_cum.bit_count()
        curve.append(100.0 * rep_cum.bit_count() / denom if denom else 100.0)
    rec_count = result.recorded_union.bit_count()
    rep_count = rep_cum.bit_count()    # rep_cum is now the replayed union
    return AccuracyReport(
        block_fitting=100.0 * rep_count / rec_count if rec_count else 100.0,
        write_exact_pct=write_pct,
        recorded_blocks=rec_count,
        replayed_blocks=rep_count,
        matched_writes=result.matched_writes,
        recorded_writes=result.recorded_writes,
        diffs_total=diffs_total,
        diffs_by_reason=diffs_by_reason,
        noise_filtered=noise_filtered,
        fitting_curve=curve,
    )


# ---------------------------------------------------------------------------
# CR0 mode trajectory
# ---------------------------------------------------------------------------

def mode_timeline(initial_cr0: int, writes_per_frame) -> list[tuple[int, CpuMode]]:
    """(first exit index, mode) for each mode the guest CR0 view enters, given
    the initial view and each exit's (field, value) writes; consecutive
    duplicates collapse. Index -1 marks the mode held before the first exit.
    """
    mode = classify_cr0_mode(initial_cr0)
    timeline = [(-1, mode)]
    for i, writes in enumerate(writes_per_frame):
        for encoding, value in writes:
            if encoding != GUEST_CR0:
                continue
            nxt = classify_cr0_mode(value)
            if nxt is not mode:
                mode = nxt
                timeline.append((i, mode))
    return timeline


def trajectory_of_trace(trace: Trace) -> list[CpuMode]:
    writes = (frame.writes for frame in trace.frames)
    return [mode for _, mode in mode_timeline(trace.initial_cr0, writes)]


def trajectory_of_replay(trace: Trace, result: ReplayResult) -> list[CpuMode]:
    # The replayed writes are one flat stream, so its indexes are not exits.
    return [mode for _, mode in mode_timeline(trace.initial_cr0, [result.final_writes])]


# ---------------------------------------------------------------------------
# Throughput
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThroughputReport:
    exits: int
    total_cycles: int
    virtual_seconds: float
    exits_per_second: float
    speedup_vs_reference: float


def throughput(exits: int, cycles: int) -> ThroughputReport:
    """Virtual-clock rate of `exits` exits that took `cycles` cycles."""
    seconds = cycles / CYCLES_PER_SECOND
    per_second = exits / seconds if seconds else 0.0
    return ThroughputReport(
        exits, cycles, seconds, per_second, per_second / REFERENCE_EXITS_PER_SECOND
    )


def ideal_throughput(n_exits: int) -> ThroughputReport:
    """Replay floor: timer exits only, nothing but dispatch and the handler."""
    return throughput(n_exits, n_exits * (DISPATCH_COST + OTHER_HANDLER_COST))


def measure_throughput(n_exits: int) -> tuple[ThroughputReport, int]:
    """Actually drive n timer exits through an idle dummy VM and count cycles;
    also return the blocks they covered."""
    session = Session()
    session.power_on()
    op = GuestOp(ExitReason.PREEMPTION_TIMER, 0)
    for _ in range(n_exits):
        result = session.drive(op)
        if result.crash is not None:
            raise RuntimeError(f"dummy exit failed: {result.crash}")
    return throughput(n_exits, session.virtual_clock), session.hyp.cov.union_mask


def speedup(record_cycles: int, replay_cycles: int) -> float:
    """How many times fewer virtual cycles the replay took than the record."""
    return record_cycles / replay_cycles if replay_cycles else 0.0


@dataclass(frozen=True)
class SpeedupReport:
    profile: str
    exits: int
    record_cycles: int
    replay_cycles: int
    speedup: float


def measure_speedup(profile_name: str, workload_seed: int, n_exits: int) -> SpeedupReport:
    outcome = record(profile_name, workload_seed, n_exits)
    if not outcome.result.ok:
        raise RuntimeError(f"recording crashed: {outcome.result.crash.detail}")
    replayer = Replayer(outcome.start_snapshot)
    replay = replayer.replay_trace(outcome.trace)
    if not replay.clean:
        raise RuntimeError("replay diverged while measuring speedup")
    return SpeedupReport(
        profile_name,
        n_exits,
        outcome.record_cycles,
        replay.replay_clock,
        speedup(outcome.record_cycles, replay.replay_clock),
    )
