"""Replay mechanics: seed injection, divergences, accuracy, throughput."""

from dataclasses import replace

import pytest

from vmxrr.hypervisor import DispatchResult, ExitOutcome, base_exit_cost
from vmxrr.recorder import ExitFrame, Trace, record
from vmxrr.replayer import (
    ASYNC_MASK,
    IDEAL_COVERAGE_MASK,
    AccuracyReport,
    Divergence,
    FrameReplay,
    InvalidSeed,
    OverrideUnderflow,
    Replayer,
    ReplayResult,
    compute_accuracy,
    ideal_throughput,
    measure_speedup,
    measure_throughput,
    mode_timeline,
    trajectory_of_replay,
    trajectory_of_trace,
)
from vmxrr.session import (
    CYCLES_PER_SECOND,
    REFERENCE_EXITS_PER_SECOND,
    prepare_session,
)
from vmxrr.vmx import (
    CR0_ET,
    CR0_PE,
    CR0_PG,
    EXIT_REASON,
    FIELD_TABLE,
    GUEST_CR0,
    GUEST_RIP,
    GUEST_RSP,
    CpuMode,
    ExitReason,
    reason_name,
)

_CACHE = {}


def _recorded(profile="CpuBound", seed=5, n=200, noise=0.0):
    key = (profile, seed, n, noise)
    if key not in _CACHE:
        outcome = record(profile, seed, n, noise_probability=noise)
        assert outcome.result.ok
        _CACHE[key] = outcome
    return _CACHE[key]


# ---------------------------------------------------------------------------
# Clean replay
# ---------------------------------------------------------------------------

def test_every_profile_replays_clean():
    for profile in ("OsBoot", "CpuBound", "MemBound", "IoBound", "Idle"):
        outcome = _recorded(profile, 7, 200)
        replay = Replayer(outcome.start_snapshot).replay_trace(outcome.trace)
        assert replay.clean, (profile, replay.divergences[:2])
        assert replay.frames_completed == len(outcome.trace.frames)
        recorded_union = replayed_union = 0
        for frame, fr in zip(outcome.trace.frames, replay.frames):
            recorded_union |= frame.coverage_mask
            replayed_union |= fr.coverage_mask
        assert replayed_union == recorded_union
        report = compute_accuracy(replay)
        assert report.block_fitting == 100.0
        assert report.write_exact_pct == 100.0
        assert report.diffs_total == 0


def test_replay_without_the_snapshot_crashes_in_real_mode():
    outcome = _recorded()
    replay = Replayer().replay_trace(outcome.trace)    # fresh dummy VM
    assert replay.crash is not None
    assert replay.crash.kind == "VmCrash"
    assert replay.crash.detail == "bad RIP for mode 0"
    assert replay.frames_completed == 1


def test_replay_clock_counts_base_costs_only():
    outcome = _recorded()
    replay = Replayer(outcome.start_snapshot).replay_trace(outcome.trace)
    assert replay.replay_clock == sum(
        base_exit_cost(f.reason) for f in outcome.trace.frames
    )
    assert replay.replay_clock < outcome.record_cycles


def test_nothing_is_logged_when_nothing_records():
    session, _ = prepare_session("CpuBound", 5, 10)    # auto_boot drives six exits
    assert session.total_exits == 6
    assert session.vmcs.reads is None and session.vmcs.writes is None
    outcome = _recorded()
    replayer = Replayer(outcome.start_snapshot)
    assert replayer.replay_trace(outcome.trace).clean
    assert replayer.session.vmcs.reads is None
    assert replayer.session.vmcs.writes is None


# ---------------------------------------------------------------------------
# Seed injection
# ---------------------------------------------------------------------------

def _gpr_seed():
    return tuple(i * 10 for i in range(15))


def test_inject_seed_routes_fields_by_access():
    rep = Replayer()
    frame = ExitFrame(
        int(ExitReason.RDTSC), 0, 0,
        _gpr_seed(),
        ((EXIT_REASON, 5), (EXIT_REASON, 7), (GUEST_RIP, 0x42)),
    )
    rep.inject_seed(frame)
    vmcs = rep.session.vmcs
    assert vmcs.hw_get(GUEST_RIP) == 0x42              # read-write: set now
    assert list(rep.queues[EXIT_REASON]) == [5, 7]     # read-only: queued
    assert vmcs.vmread(EXIT_REASON) == 5               # FIFO order
    assert vmcs.vmread(EXIT_REASON) == 7
    with pytest.raises(OverrideUnderflow, match="EXIT_REASON"):
        vmcs.vmread(EXIT_REASON)
    assert rep.session.gprs.read(3) == 30


def test_inject_seed_validates_the_register_block():
    rep = Replayer()
    with pytest.raises(InvalidSeed, match="expected 15"):
        rep.inject_seed(ExitFrame(16, 0, 0, _gpr_seed()[:14]))


def test_inject_seed_validates_the_reads():
    rep = Replayer()
    with pytest.raises(InvalidSeed, match="unknown field"):
        rep.inject_seed(ExitFrame(16, 0, 0, _gpr_seed(), ((146, 1),)))


# ---------------------------------------------------------------------------
# Divergences
# ---------------------------------------------------------------------------

def _first_rdtsc(trace):
    return next(f for f in trace.frames if f.reason == ExitReason.RDTSC)


def test_missing_read_aborts_with_underflow():
    outcome = _recorded()
    frame = _first_rdtsc(outcome.trace)
    *kept, (dropped, _) = frame.reads
    rep = Replayer(outcome.start_snapshot)
    fr = rep.replay_frame(replace(frame, reads=tuple(kept)))
    assert fr.result is None
    assert fr.crash is None
    assert fr.divergences[0] == Divergence(
        "read_underflow", f"vmread of {FIELD_TABLE[dropped]} past the recorded reads"
    )


def test_extra_read_reports_leftover():
    outcome = _recorded()
    frame = _first_rdtsc(outcome.trace)
    frame = replace(frame, reads=frame.reads + ((EXIT_REASON, 99),))
    rep = Replayer(outcome.start_snapshot)
    fr = rep.replay_frame(frame)
    assert fr.result is not None
    kinds = [d.kind for d in fr.divergences]
    assert "read_leftover" in kinds
    leftover = next(d for d in fr.divergences if d.kind == "read_leftover")
    assert "EXIT_REASON" in leftover.detail


def test_mismatched_write_value_is_reported():
    outcome = _recorded()
    frame = _first_rdtsc(outcome.trace)
    assert frame.writes, "rdtsc must advance the instruction pointer"
    (encoding, value), *rest = frame.writes
    frame = replace(frame, writes=((encoding, value ^ 1 << 4), *rest))
    rep = Replayer(outcome.start_snapshot)
    fr = rep.replay_frame(frame)
    div = next(d for d in fr.divergences if d.kind == "write_value")
    assert "write 0" in div.detail
    assert fr.matched_writes == len(frame.writes) - 1


def test_missing_write_is_a_count_divergence():
    outcome = _recorded()
    frame = _first_rdtsc(outcome.trace)
    *kept, dropped = frame.writes
    rep = Replayer(outcome.start_snapshot)
    fr = rep.replay_frame(replace(frame, writes=tuple(kept)))
    assert any(d.kind == "write_count" for d in fr.divergences)
    assert fr.writes[-1] == dropped


def test_doctored_trace_replays_unclean():
    outcome = _recorded()
    trace = outcome.trace
    first = trace.frames[0]
    doctored = replace(first, reads=first.reads + ((EXIT_REASON, 1),))
    frames = [doctored] + trace.frames[1:]
    bad = type(trace)(
        trace.profile, trace.workload_seed, trace.initial_cr0, frames,
    )
    replay = Replayer(outcome.start_snapshot).replay_trace(bad)
    assert not replay.clean
    # An exit's index is its position in the replay's frames.
    assert replay.frames[0].divergences[0].kind == "read_leftover"
    assert replay.divergences[0] == replay.frames[0].divergences[0]


# ---------------------------------------------------------------------------
# Accuracy math
# ---------------------------------------------------------------------------

def _result_with_masks(frame_masks):
    """A replay of one exit per (reason, recorded, replayed) mask triple; the
    first exit recorded ten writes, and seven of them replayed the same."""
    recorded = []
    replayed = []
    for i, (reason, rec, rep) in enumerate(frame_masks):
        writes = ((GUEST_RIP, 0),) * 10 if i == 0 else ()
        recorded.append(ExitFrame(reason, 0, rec, _gpr_seed(), (), writes))
        result = DispatchResult(ExitOutcome.RESUME, reason, 0)
        replayed.append(FrameReplay(result, rep, writes, (), 7 if i == 0 else 0))
    return ReplayResult(Trace("synthetic", 0, 0, recorded), replayed)


def test_accuracy_math_on_synthetic_masks():
    masks = [
        (int(ExitReason.RDTSC), 0b0111, 0b0101),
        (int(ExitReason.CR_ACCESS), 0b1000, 0b1000),
    ]
    report = compute_accuracy(_result_with_masks(masks))
    # union recorded 0b1111 (4 blocks), replayed 0b1101 (3 blocks)
    assert report.recorded_blocks == 4
    assert report.replayed_blocks == 3
    assert report.block_fitting == pytest.approx(75.0)
    assert report.write_exact_pct == pytest.approx(70.0)
    assert report.diffs_total == 1
    assert report.diffs_by_reason == {"RDTSC": 1}
    # curve: after frame 0, 2 of 3 blocks; after frame 1, 3 of 4.
    assert report.fitting_curve == pytest.approx([200 / 3, 75.0])


def test_accuracy_filters_recorded_async_bits():
    async_bit = ASYNC_MASK & -ASYNC_MASK    # lowest of the two async blocks
    masks = [(int(ExitReason.EXTERNAL_INTERRUPT), async_bit | 0b1, 0b1)]
    report = compute_accuracy(_result_with_masks(masks))
    assert report.diffs_total == 0
    assert report.noise_filtered == 1
    assert report.diffs_by_reason == {}
    assert report.block_fitting == pytest.approx(50.0)


def _reference_totals(snapshot, trace):
    """Replay frame by frame and keep every total as a running sum: the
    completed exits, the last crash, the divergences, the replay clock and
    each accuracy figure."""
    replayer = Replayer(snapshot)
    completed = clock = matched = recorded = diffs_total = noise = 0
    crash = None
    divergences = []
    by_reason = {}
    curve = []
    rec_cum = rep_cum = 0
    for i, frame in enumerate(trace.frames):
        fr = replayer.replay_frame(frame)
        completed += 1
        crash = fr.crash
        divergences.extend(fr.divergences)
        if fr.result is not None:
            clock += fr.result.base_cost
        matched += fr.matched_writes
        recorded += len(frame.writes)
        diff = frame.coverage_mask ^ fr.coverage_mask
        filtered = (diff & ~ASYNC_MASK).bit_count()
        noise += (diff & ASYNC_MASK & frame.coverage_mask).bit_count()
        diffs_total += filtered
        if filtered:
            name = reason_name(frame.reason)
            by_reason[name] = by_reason.get(name, 0) + filtered
        rec_cum |= frame.coverage_mask
        rep_cum |= fr.coverage_mask
        curve.append(100.0 * rep_cum.bit_count() / rec_cum.bit_count() if rec_cum else 100.0)
        if fr.result is None or crash is not None:
            break
    rec_union = 0
    for frame in trace.frames:
        rec_union |= frame.coverage_mask
    rec_blocks, rep_blocks = rec_union.bit_count(), rep_cum.bit_count()
    accuracy = AccuracyReport(
        block_fitting=100.0 * rep_blocks / rec_blocks if rec_blocks else 100.0,
        write_exact_pct=100.0 * matched / recorded if recorded else 100.0,
        recorded_blocks=rec_blocks,
        replayed_blocks=rep_blocks,
        matched_writes=matched,
        recorded_writes=recorded,
        diffs_total=diffs_total,
        diffs_by_reason=by_reason,
        noise_filtered=noise,
        fitting_curve=curve,
    )
    return completed, crash, divergences, clock, accuracy


def test_derived_totals_match_a_frame_by_frame_reference():
    boot = _recorded("OsBoot", 7, 200)
    noisy = _recorded("CpuBound", 7, 200, noise=0.05)
    idle = _recorded("Idle", 7, 200)
    cpu = _recorded()
    first = cpu.trace.frames[0]
    leftover = replace(first, reads=first.reads + ((EXIT_REASON, 1),))
    rdtsc = cpu.trace.frames.index(_first_rdtsc(cpu.trace))
    short = replace(cpu.trace.frames[rdtsc], reads=cpu.trace.frames[rdtsc].reads[:-1])

    def doctored(index, frame):
        frames = list(cpu.trace.frames)
        frames[index] = frame
        return replace(cpu.trace, frames=frames)

    cases = {
        "clean": (boot.start_snapshot, boot.trace),
        "noisy": (noisy.start_snapshot, noisy.trace),
        "fresh": (None, idle.trace),
        "leftover": (cpu.start_snapshot, doctored(0, leftover)),
        "underflow": (cpu.start_snapshot, doctored(rdtsc, short)),
    }
    results = {}
    for name, (snapshot, trace) in cases.items():
        results[name] = result = Replayer(snapshot).replay_trace(trace)
        derived = (
            result.frames_completed, result.crash, result.divergences,
            result.replay_clock, compute_accuracy(result),
        )
        assert derived == _reference_totals(snapshot, trace), name
    # Each case reaches the ending it is named after.
    assert results["clean"].clean
    assert compute_accuracy(results["noisy"]).noise_filtered > 0
    assert results["fresh"].crash is not None and results["fresh"].frames_completed == 1
    assert results["leftover"].divergences[0].kind == "read_leftover"
    assert results["leftover"].frames_completed == len(cpu.trace.frames)
    assert results["underflow"].divergences[0].kind == "read_underflow"
    assert results["underflow"].frames_completed == rdtsc + 1 < len(cpu.trace.frames)


def test_noise_filtering_end_to_end():
    outcome = _recorded("CpuBound", 11, 300, noise=0.2)
    replay = Replayer(outcome.start_snapshot).replay_trace(outcome.trace)
    assert replay.crash is None
    assert not replay.divergences
    report = compute_accuracy(replay)
    assert report.noise_filtered > 0
    assert report.diffs_total == 0
    assert report.write_exact_pct == 100.0
    assert 92.0 <= report.block_fitting < 100.0


# ---------------------------------------------------------------------------
# State capture
# ---------------------------------------------------------------------------

def test_restore_then_snapshot_is_identity():
    outcome = _recorded()
    snap = outcome.start_snapshot
    rep = Replayer(snap)
    again = rep.session.snapshot()
    assert again.vmcs_values == snap.vmcs_values
    assert again.gprs == snap.gprs
    assert again.tsc == snap.tsc
    assert again.virtual_clock == snap.virtual_clock
    assert again.total_exits == snap.total_exits
    assert again.coverage_union == snap.coverage_union


# ---------------------------------------------------------------------------
# Mode trajectory
# ---------------------------------------------------------------------------

def test_cr0_mode_trajectory_collapses_duplicates():
    writes = [
        (GUEST_RSP, 0),
        (GUEST_CR0, CR0_PE),
        (GUEST_CR0, CR0_PE),
        (GUEST_CR0, CR0_PE | CR0_PG),
    ]
    assert mode_timeline(CR0_ET, [writes[:2], [], writes[2:]]) == [
        (-1, CpuMode.MODE1), (0, CpuMode.MODE2), (2, CpuMode.MODE3),
    ]


def test_boot_trace_walks_the_first_three_modes():
    outcome = _recorded("OsBoot", 4, 100)
    expect = [CpuMode.MODE1, CpuMode.MODE2, CpuMode.MODE3]
    assert trajectory_of_trace(outcome.trace) == expect
    replay = Replayer(outcome.start_snapshot).replay_trace(outcome.trace)
    assert trajectory_of_replay(replay) == expect


def test_non_boot_trace_stays_in_paged_mode():
    outcome = _recorded()
    assert trajectory_of_trace(outcome.trace) == [CpuMode.MODE3]


# ---------------------------------------------------------------------------
# Throughput and speedup
# ---------------------------------------------------------------------------

def test_ideal_throughput_closed_form():
    report = ideal_throughput(5000)
    assert report.total_cycles == 25_000_000
    assert report.exits_per_second == pytest.approx(700_000.0)
    assert report.speedup_vs_reference == pytest.approx(14.0)
    assert report.virtual_seconds == pytest.approx(
        25_000_000 / CYCLES_PER_SECOND
    )
    assert REFERENCE_EXITS_PER_SECOND == 50_000


def test_measured_throughput_matches_the_ideal():
    ideal = ideal_throughput(400)
    measured, coverage_union = measure_throughput(400)
    assert measured.total_cycles == ideal.total_cycles
    assert measured.exits_per_second == pytest.approx(ideal.exits_per_second)
    assert coverage_union == IDEAL_COVERAGE_MASK
    assert IDEAL_COVERAGE_MASK.bit_count() == 5


def test_speedup_favors_idle_guests():
    cpu = measure_speedup("CpuBound", 3, 300)
    idle = measure_speedup("Idle", 3, 300)
    assert cpu.record_cycles > cpu.replay_cycles
    assert idle.record_cycles > idle.replay_cycles
    assert idle.speedup > cpu.speedup > 1.0
