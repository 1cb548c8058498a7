"""Replay: drive recorded exits through a dummy VM and compare the results.

The dummy VM never runs a guest. Its preemption timer is armed at zero so,
conceptually, every entry exits immediately; each recorded frame is fed in by
writing the registers, loading read-write fields with their recorded values,
and queueing read-only values so the handler's vmreads pop them in order.
The handler then re-executes for real, and its writes, coverage, and crashes
are compared against what was recorded.

A trace replay keeps one FrameReplay per replayed exit, in order; its crash,
divergences, replay clock and accuracy figures are derived from those records
and the trace, never kept as running totals.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

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
    GPR_COUNT,
    GUEST_CR0,
    READ_ONLY_FIELDS,
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
        super().__init__(f"vmread of {FIELD_TABLE[encoding]} past the recorded reads")
        self.encoding = encoding


class InvalidSeed(ReplayError):
    pass


@dataclass(frozen=True)
class Divergence:
    kind: str        # read_underflow | read_leftover | write_value | write_count
    detail: str


@dataclass(slots=True)
class FrameReplay:
    result: DispatchResult | None   # None when a read underflow stopped the handler
    coverage_mask: int
    writes: tuple[tuple[int, int], ...]
    divergences: tuple[Divergence, ...]
    matched_writes: int

    @property
    def crash(self) -> CrashInfo | None:
        return None if self.result is None else self.result.crash


@dataclass
class ReplayResult:
    trace: Trace
    frames: list[FrameReplay]    # one per replayed exit: trace.frames[i] -> frames[i]

    @property
    def frames_completed(self) -> int:
        return len(self.frames)

    @property
    def crash(self) -> CrashInfo | None:
        return self.frames[-1].crash if self.frames else None

    @property
    def divergences(self) -> list[Divergence]:
        return [d for fr in self.frames for d in fr.divergences]

    @property
    def replay_clock(self) -> int:
        return sum(fr.result.base_cost for fr in self.frames if fr.result is not None)

    @property
    def clean(self) -> bool:
        return self.crash is None and not any(fr.divergences for fr in self.frames)


class Replayer:
    def __init__(self, snapshot: SessionSnapshot | None = None) -> None:
        self.session = Session()
        if snapshot is not None:
            self.session.restore(snapshot)
        self.queues: dict[int, deque[int]] = {}
        self.session.vmcs.read_override = self._override

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
        self.session.gprs.regs = list(frame.gprs)
        self.queues.clear()
        vmcs = self.session.vmcs
        for encoding, value in frame.reads:
            if encoding not in FIELD_TABLE:
                raise InvalidSeed(f"read entry for unknown field {encoding}")
            if encoding in READ_ONLY_FIELDS:
                self.queues.setdefault(encoding, deque()).append(value)
            else:
                vmcs.hw_set(encoding, value)

    def replay_frame(self, frame: ExitFrame) -> FrameReplay:
        self.inject_seed(frame)
        vmcs = self.session.vmcs
        vmcs.writes = writes = []
        hyp = self.session.hyp
        hyp.begin_frame()
        divergences: list[Divergence] = []
        result: DispatchResult | None = None
        try:
            result = hyp.handle_exit()
        except OverrideUnderflow as exc:
            divergences.append(Divergence("read_underflow", str(exc)))
        vmcs.writes = None
        mask = hyp.end_frame()
        leftover = sum(len(q) for q in self.queues.values() if q)
        if leftover:
            names = ", ".join(
                FIELD_TABLE[enc] for enc, q in sorted(self.queues.items()) if q
            )
            divergences.append(
                Divergence("read_leftover", f"{leftover} unread values: {names}")
            )
        self.queues.clear()
        self.session.total_exits += 1

        recorded = frame.writes
        matched = 0
        for pos, (rec, rep) in enumerate(zip(recorded, writes)):
            if rec == rep:
                matched += 1
            else:
                rec_name = FIELD_TABLE[rec[0]]
                rep_name = FIELD_TABLE[rep[0]]
                divergences.append(Divergence(
                    "write_value",
                    f"write {pos}: recorded {rec_name}={rec[1]:#x},"
                    f" replayed {rep_name}={rep[1]:#x}",
                ))
        if len(recorded) != len(writes):
            divergences.append(Divergence(
                "write_count", f"recorded {len(recorded)} writes, replayed {len(writes)}"
            ))
        return FrameReplay(result, mask, tuple(writes), tuple(divergences), matched)

    def replay_trace(self, trace: Trace) -> ReplayResult:
        """Replay the frames in order; stop after a frame that underflowed
        its reads or crashed."""
        frames: list[FrameReplay] = []
        for frame in trace.frames:
            fr = self.replay_frame(frame)
            frames.append(fr)
            if fr.result is None or fr.result.crash is not None:
                break
        return ReplayResult(trace, frames)


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
    """The recorded blocks cover the whole trace; every other figure covers
    the exits the replay completed."""
    matched_writes = recorded_writes = diffs_total = noise_filtered = 0
    diffs_by_reason: dict[str, int] = {}
    curve: list[float] = []
    rec_cum = rep_cum = 0
    for frame, fr in zip(result.trace.frames, result.frames):
        matched_writes += fr.matched_writes
        recorded_writes += len(frame.writes)
        rec_mask, rep_mask = frame.coverage_mask, fr.coverage_mask
        diff = rec_mask ^ rep_mask
        noise_bits = diff & ASYNC_MASK & rec_mask
        filtered = (diff & ~ASYNC_MASK).bit_count()
        noise_filtered += noise_bits.bit_count()
        diffs_total += filtered
        if filtered:
            name = reason_name(frame.reason)
            diffs_by_reason[name] = diffs_by_reason.get(name, 0) + filtered
        rec_cum |= rec_mask
        rep_cum |= rep_mask
        denom = rec_cum.bit_count()
        curve.append(100.0 * rep_cum.bit_count() / denom if denom else 100.0)
    recorded_union = 0
    for frame in result.trace.frames:
        recorded_union |= frame.coverage_mask
    rec_count = recorded_union.bit_count()
    rep_count = rep_cum.bit_count()    # rep_cum is now the replayed union
    return AccuracyReport(
        block_fitting=100.0 * rep_count / rec_count if rec_count else 100.0,
        write_exact_pct=(
            100.0 * matched_writes / recorded_writes if recorded_writes else 100.0
        ),
        recorded_blocks=rec_count,
        replayed_blocks=rep_count,
        matched_writes=matched_writes,
        recorded_writes=recorded_writes,
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


def trace_timeline(trace: Trace) -> list[tuple[int, CpuMode]]:
    """The recorded mode timeline: the trace's initial CR0 view plus each
    frame's writes."""
    return mode_timeline(trace.initial_cr0, (frame.writes for frame in trace.frames))


def trajectory_of_trace(trace: Trace) -> list[CpuMode]:
    return [mode for _, mode in trace_timeline(trace)]


def trajectory_of_replay(result: ReplayResult) -> list[CpuMode]:
    writes = (fr.writes for fr in result.frames)
    return [mode for _, mode in mode_timeline(result.trace.initial_cr0, writes)]


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
    op = GuestOp(ExitReason.PREEMPTION_TIMER, 0)
    for _ in range(n_exits):
        result = session.drive(op)
        if result.crash is not None:
            raise RuntimeError(f"dummy exit failed: {result.crash}")
    return throughput(n_exits, session.virtual_clock), session.hyp.union_mask


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
