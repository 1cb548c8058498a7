"""Top-level acceptance checklist.

One test per release criterion. Each criterion is asserted at its stated
tolerance and the conftest hook prints one PASS/FAIL line per test, so a
full run doubles as the sign-off sheet. The shared 5000-exit recordings
are cached at module level; everything downstream of them is a pure
function of (profile, seed, exits, noise), so the cache cannot leak state
between criteria.
"""

import struct
import time

from vmxrr.fuzzer import (
    AREA_GPR,
    AREA_VMCS,
    find_frame,
    replay_artifact,
    run_test_case,
)
from vmxrr.hypervisor import (
    DISPATCH_COST,
    HANDLER_COST,
    OTHER_HANDLER_COST,
    base_exit_cost,
    recording_overhead,
)
from vmxrr.recorder import (
    SEED_ENTRY_SIZE,
    BadMagic,
    BadVersion,
    ExitFrame,
    FieldTableMismatch,
    Trace,
    record,
    seal,
    seed_payload_bytes,
    trace_from_bytes,
    trace_to_bytes,
)
from vmxrr.replayer import (
    IDEAL_COVERAGE_MASK,
    Replayer,
    compute_accuracy,
    ideal_throughput,
    measure_speedup,
    measure_throughput,
    trajectory_of_replay,
    trajectory_of_trace,
)
from vmxrr.rng import SplitMix64
from vmxrr.session import REFERENCE_EXITS_PER_SECOND
from vmxrr.vmx import (
    EXIT_QUALIFICATION,
    FIELD_TABLE,
    GUEST_RIP,
    CpuMode,
    ExitReason,
)

import pytest

WORKLOAD_SEED = 7
EXITS = 5000

_CACHE: dict = {}


def _recorded(profile, noise=0.0):
    key = (profile, noise)
    if key not in _CACHE:
        _CACHE[key] = record(profile, WORKLOAD_SEED, EXITS, noise_probability=noise)
    return _CACHE[key]


def test_c01_seed_payload_size_law():
    t0 = time.monotonic()
    assert SEED_ENTRY_SIZE == 10
    gprs = tuple(i * 0x1111 for i in range(15))
    for k in range(1, 33):
        reads = tuple((GUEST_RIP, j) for j in range(k))
        frame = ExitFrame(16, 3500, 0, gprs, reads, ())
        payload = seed_payload_bytes(frame)
        assert len(payload) == 10 * (15 + k)
        if k == 32:
            assert len(payload) == 470
    # Recorded frames obey the same law: 15 GPRs plus one entry per VMREAD.
    for frame in _recorded("CpuBound").trace.frames[:50]:
        assert len(frame.gprs) == 15
        assert len(seed_payload_bytes(frame)) == 10 * (15 + len(frame.reads))
    assert time.monotonic() - t0 < 1.0


def test_c02_replay_accuracy():
    for profile in ("OsBoot", "CpuBound", "Idle"):
        t0 = time.monotonic()
        out = _recorded(profile)
        result = Replayer(out.start_snapshot).replay_trace(out.trace)
        acc = compute_accuracy(result)
        assert result.clean, profile
        assert acc.block_fitting == 100.0, profile
        assert acc.write_exact_pct == 100.0, profile

        noisy = _recorded(profile, noise=0.05)
        nresult = Replayer(noisy.start_snapshot).replay_trace(noisy.trace)
        nacc = compute_accuracy(nresult)
        assert nresult.frames_completed == len(noisy.trace.frames), profile
        assert nacc.block_fitting >= 92.0, (profile, nacc.block_fitting)
        # Injected interrupts perturb at most a few blocks per exit, never
        # a wholesale different handler path.
        worst = max(
            (frame.coverage_mask ^ fr.coverage_mask).bit_count()
            for frame, fr in zip(noisy.trace.frames, nresult.frames)
        )
        assert worst <= 30, (profile, worst)
        assert nacc.noise_filtered > 0, profile
        assert time.monotonic() - t0 < 30.0, profile


def test_c03_boot_mode_trajectory():
    out = _recorded("OsBoot")
    result = Replayer(out.start_snapshot).replay_trace(out.trace)
    recorded = trajectory_of_trace(out.trace)
    replayed = trajectory_of_replay(result)
    prefix = [CpuMode.MODE1, CpuMode.MODE2, CpuMode.MODE3]
    assert recorded[:3] == prefix
    assert replayed[:3] == prefix
    assert recorded == replayed
    acc = compute_accuracy(result)
    assert acc.matched_writes == acc.recorded_writes
    assert acc.write_exact_pct == 100.0


def test_c04_boot_prefix_dependency():
    out = _recorded("CpuBound")
    fresh = Replayer().replay_trace(out.trace)
    assert fresh.crash is not None
    assert fresh.crash.kind == "VmCrash"
    assert "bad RIP for mode 0" in fresh.crash.detail
    assert fresh.frames_completed < len(out.trace.frames)

    seeded = Replayer(out.start_snapshot).replay_trace(out.trace)
    assert seeded.crash is None
    assert seeded.frames_completed == EXITS


def test_c05_replay_efficiency_ordering():
    t0 = time.monotonic()
    speedups = {}
    for profile in ("OsBoot", "CpuBound", "MemBound", "IoBound", "Idle"):
        report = measure_speedup(profile, WORKLOAD_SEED, EXITS)
        assert report.replay_cycles < report.record_cycles, profile
        speedups[profile] = report.speedup
    assert speedups["Idle"] > speedups["CpuBound"] > speedups["OsBoot"]
    assert time.monotonic() - t0 < 60.0


def test_c06_ideal_throughput_harness():
    ideal = ideal_throughput(EXITS)
    assert ideal.total_cycles == EXITS * (DISPATCH_COST + OTHER_HANDLER_COST)
    assert ideal.total_cycles == 25_000_000
    assert ideal.exits_per_second == 700_000.0
    assert ideal.speedup_vs_reference == 14.0
    print(
        f"ideal replay rate {ideal.exits_per_second:,.0f} exits/s, "
        f"{ideal.speedup_vs_reference:.1f}x the {REFERENCE_EXITS_PER_SECOND:,}/s "
        f"reference"
    )
    measured, coverage_union = measure_throughput(EXITS)
    assert measured.total_cycles == ideal.total_cycles
    assert measured.exits_per_second == ideal.exits_per_second
    assert coverage_union & ~IDEAL_COVERAGE_MASK == 0
    assert coverage_union == IDEAL_COVERAGE_MASK


def test_c07_recording_overhead_band():
    for reason in ExitReason:
        base = base_exit_cost(reason)
        assert base == DISPATCH_COST + HANDLER_COST.get(reason, OTHER_HANDLER_COST)
        overhead = recording_overhead(base)
        assert overhead == base * 11 // 1000
        pct = 100.0 * overhead / base
        assert 1.02 <= pct <= 1.25, (reason.name, pct)


# Coverage-delta grid: one campaign per (workload, reason, area) cell that
# the workload actually produces. HLT only idles, VMCALL and RDTSC never
# appear during boot, and so on.
DELTA_CELLS = {
    "OsBoot": [
        "EXTERNAL_INTERRUPT",
        "INTERRUPT_WINDOW",
        "CPUID",
        "CR_ACCESS",
        "IO_INSTRUCTION",
        "EPT_VIOLATION",
    ],
    "CpuBound": [
        "EXTERNAL_INTERRUPT",
        "INTERRUPT_WINDOW",
        "CPUID",
        "RDTSC",
        "VMCALL",
    ],
    "Idle": [
        "EXTERNAL_INTERRUPT",
        "INTERRUPT_WINDOW",
        "HLT",
        "RDTSC",
    ],
}

CAMPAIGN_MUTANTS = 10_000


def test_c08_fuzzer_delta_positivity():
    deltas = {}
    for profile, reasons in DELTA_CELLS.items():
        out = _recorded(profile)
        for reason in reasons:
            index = find_frame(out.trace, {"first_of_reason": reason})
            assert index is not None, (profile, reason)
            for area in (AREA_VMCS, AREA_GPR):
                t0 = time.monotonic()
                result = run_test_case(
                    out.trace,
                    out.start_snapshot,
                    index,
                    area,
                    mutants=CAMPAIGN_MUTANTS,
                    rng_seed=0,
                )
                assert time.monotonic() - t0 < 300.0, (profile, reason, area)
                assert result.coverage_delta_pct > 0.0, (profile, reason, area)
                deltas[(profile, reason, area)] = result.coverage_delta_pct
    assert (
        deltas[("CpuBound", "RDTSC", AREA_VMCS)]
        > deltas[("CpuBound", "RDTSC", AREA_GPR)]
    )
    assert (
        deltas[("Idle", "RDTSC", AREA_VMCS)] > deltas[("Idle", "RDTSC", AREA_GPR)]
    )


def test_c09_fuzzer_crash_classes(tmp_path):
    out = _recorded("OsBoot")
    index = find_frame(out.trace, {"first_of_reason": "CR_ACCESS"})
    frame = out.trace.frames[index]
    qual_pos = next(
        i for i, (encoding, _) in enumerate(frame.reads)
        if encoding == EXIT_QUALIFICATION
    )
    result = run_test_case(
        out.trace,
        out.start_snapshot,
        index,
        AREA_VMCS,
        mutants=CAMPAIGN_MUTANTS,
        rng_seed=0,
        artifact_dir=tmp_path,
    )
    assert result.failures["VmCrash"] >= 1
    assert result.failures["HypCrash"] >= 1
    # Bit 11 of the qualification selects GPR index 8|4|2|1 = 15, which the
    # register file does not have; the dispatcher treats that as its own bug.
    designated = [
        c for c in result.crashes
        if c.mutation.entry_index == qual_pos and c.mutation.bit == 11
    ]
    assert designated
    assert designated[0].kind == "HypCrash"
    assert designated[0].detail == "cr access gpr index 15 out of range"
    assert all(c.revalidated for c in result.crashes)

    metas = sorted(tmp_path.glob("crash_*.json"))
    assert len(metas) == len(result.crashes)
    for meta in metas:
        check = replay_artifact(meta)
        assert check.matches, meta.name


def _random_trace(rng):
    encodings = sorted(FIELD_TABLE)
    letters = "abcdefghijklmnopqrstuvwxyz_0123456789"
    frames = []
    for _ in range(rng.below(8)):
        gprs = tuple(rng.next_u64() for _ in range(15))
        reads = tuple(
            (rng.choice(encodings), rng.next_u64()) for _ in range(rng.below(6))
        )
        writes = tuple(
            (rng.choice(encodings), rng.next_u64()) for _ in range(rng.below(4))
        )
        coverage = (
            rng.next_u64()
            | rng.next_u64() << 64
            | rng.next_u64() << 128
        ) & ((1 << 152) - 1)
        frames.append(
            ExitFrame(rng.below(1 << 16), rng.next_u64(), coverage, gprs, reads, writes)
        )
    name = "".join(rng.choice(letters) for _ in range(rng.below(20)))
    return Trace(name, rng.next_u64(), rng.next_u64(), frames)


def _rehashed(data: bytes) -> bytes:
    return seal(data[:-8])


def test_c10_trace_format_round_trip():
    t0 = time.monotonic()
    rng = SplitMix64(2026)
    for _ in range(100):
        trace = _random_trace(rng)
        data = trace_to_bytes(trace)
        assert trace_to_bytes(trace_from_bytes(data)) == data

    data = trace_to_bytes(_recorded("CpuBound").trace)
    with pytest.raises(BadMagic):
        trace_from_bytes(b"XRIS" + data[4:])
    bad_version = bytearray(data)
    struct.pack_into("<H", bad_version, 4, 9)
    with pytest.raises(BadVersion):
        trace_from_bytes(_rehashed(bytes(bad_version)))
    bad_table = bytearray(data)
    bad_table[6] ^= 0x01
    with pytest.raises(FieldTableMismatch):
        trace_from_bytes(_rehashed(bytes(bad_table)))
    assert time.monotonic() - t0 < 10.0
