"""Mutation campaigns: bit flips, crash signatures, artifacts, configs."""

import hashlib
import json

import pytest

from vmxrr.fuzzer import (
    AREA_GPR,
    AREA_VMCS,
    CampaignResult,
    CampaignSetupError,
    CrashRecord,
    EmptyArea,
    FuzzError,
    Mutation,
    apply_mutation,
    find_frame,
    mutate_random,
    replay_artifact,
    run_config,
    run_test_case,
)
from vmxrr.recorder import (
    SEED_ENTRY_SIZE,
    ExitFrame,
    record,
    save_snapshot,
    save_trace,
    seed_payload_bytes,
    snapshot_to_bytes,
    trace_to_bytes,
)
from vmxrr.replayer import Replayer
from vmxrr.rng import SplitMix64
from vmxrr.session import Session
from vmxrr.vmx import EXIT_QUALIFICATION, ExitReason

_CACHE = {}


def _recorded(profile="CpuBound", seed=5, n=200):
    key = (profile, seed, n)
    if key not in _CACHE:
        outcome = record(profile, seed, n)
        assert outcome.result.ok
        _CACHE[key] = outcome
    return _CACHE[key]


def _rdtsc_frame():
    trace = _recorded().trace
    idx = find_frame(trace, {"first_of_reason": "RDTSC"})
    return trace.frames[idx], idx


def _hamming(a: bytes, b: bytes) -> int:
    assert len(a) == len(b)
    return sum(bin(x ^ y).count("1") for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# Mutations
# ---------------------------------------------------------------------------

def test_mutation_flips_exactly_one_bit():
    frame, _ = _rdtsc_frame()
    rng = SplitMix64(0)
    for area in (AREA_VMCS, AREA_GPR):
        for _ in range(50):
            mutation = mutate_random(frame, area, rng)
            mutant = apply_mutation(frame, mutation)
            assert _hamming(seed_payload_bytes(frame),
                            seed_payload_bytes(mutant)) == 1


def test_mutation_is_an_involution():
    frame, _ = _rdtsc_frame()
    mutation = Mutation(AREA_VMCS, 0, 17)
    back = apply_mutation(apply_mutation(frame, mutation), mutation)
    assert seed_payload_bytes(back) == seed_payload_bytes(frame)
    assert back.writes == frame.writes


def test_mutation_never_touches_flags_or_encodings():
    frame, _ = _rdtsc_frame()
    mutant = apply_mutation(frame, Mutation(AREA_GPR, 4, 63))
    before, after = seed_payload_bytes(frame), seed_payload_bytes(mutant)
    for pos in range(0, len(before), SEED_ENTRY_SIZE):
        assert before[pos:pos + 2] == after[pos:pos + 2]    # flag, encoding
    changed = [
        i for i, (b, a) in enumerate(zip(frame.gprs, mutant.gprs)) if b != a
    ]
    assert changed == [4]
    assert mutant.gprs[4] == frame.gprs[4] ^ (1 << 63)


def test_mutation_areas_are_isolated():
    frame, _ = _rdtsc_frame()
    vmcs_mutant = apply_mutation(frame, Mutation(AREA_VMCS, 1, 3))
    assert vmcs_mutant.gprs is frame.gprs        # untouched tuples are shared
    gpr_mutant = apply_mutation(frame, Mutation(AREA_GPR, 0, 3))
    assert gpr_mutant.reads is frame.reads


def test_empty_area_is_an_error():
    bare = ExitFrame(16, 0, 0, (0,) * 15)
    with pytest.raises(EmptyArea):
        mutate_random(bare, AREA_VMCS, SplitMix64(1))
    with pytest.raises(EmptyArea):
        apply_mutation(bare, Mutation(AREA_VMCS, 0, 0))
    with pytest.raises(FuzzError):
        mutate_random(bare, "stack", SplitMix64(1))


# ---------------------------------------------------------------------------
# Campaigns
# ---------------------------------------------------------------------------

def test_campaigns_are_deterministic():
    outcome = _recorded()
    _, idx = _rdtsc_frame()
    a = run_test_case(outcome.trace, outcome.start_snapshot, idx, AREA_VMCS,
                      mutants=200, rng_seed=3)
    b = run_test_case(outcome.trace, outcome.start_snapshot, idx, AREA_VMCS,
                      mutants=200, rng_seed=3)
    assert a.to_json() == b.to_json()
    c = run_test_case(outcome.trace, outcome.start_snapshot, idx, AREA_VMCS,
                      mutants=200, rng_seed=4)
    assert a.to_json() != c.to_json()


# sha256 of the trace, the start snapshot and the campaign JSON for seed 7,
# 300 exits, 2000 mutants at rng seed 0. Any change to recording, the
# containers or the campaign loop that alters an output byte shows here.
_BYTE_IDENTITY = {
    ("OsBoot", "CR_ACCESS", AREA_VMCS): (
        "1556e54fe943e3ff6a544c6ceef4829c06ffe6fc0fc9f717186b2cd625cfa634",
        "cd999fde3a3796fd890e5dd09f963c074cf5b527ddf65604603b48e335ad3d84",
        "4ca777e8e921dd3a57b1930e5e148a3fe3e9a1049d288fcb5c144b639c4c3806",
    ),
    ("CpuBound", "RDTSC", AREA_GPR): (
        "05841b20dd99ec4edb42b36944b196bb1cf05eb21f95f440161a0494de11d3f9",
        "e669a50a6b3ef6f2df532aac6c3d8f680fb6ab040631ba41d417187173d780bd",
        "11cf69bbc2875a0654e7a4e4c3d60441ea8590e6d508346e1a0475fb0b3401c0",
    ),
}


@pytest.mark.parametrize("profile,reason,area", sorted(_BYTE_IDENTITY))
def test_outputs_are_byte_identical(profile, reason, area):
    outcome = _recorded(profile, 7, 300)
    idx = find_frame(outcome.trace, {"first_of_reason": reason})
    result = run_test_case(outcome.trace, outcome.start_snapshot, idx, area,
                           mutants=2000, rng_seed=0, artifact_dir=None)
    digests = tuple(
        hashlib.sha256(data).hexdigest()
        for data in (
            trace_to_bytes(outcome.trace),
            snapshot_to_bytes(outcome.start_snapshot),
            json.dumps(result.to_json(), sort_keys=True).encode(),
        )
    )
    assert digests == _BYTE_IDENTITY[(profile, reason, area)]


def _reference_campaign(trace, snapshot, frame_index, area, mutants, rng_seed):
    """run_test_case without reusing outcomes: restore and replay every mutant."""
    target = trace.frames[frame_index]
    replayer = Replayer(snapshot)
    for i in range(frame_index):
        replayer.replay_frame(trace.frames[i], i)
    session = replayer.session
    base_state = session.snapshot()
    baseline_mask = replayer.replay_frame(target, frame_index).coverage_mask
    result = CampaignResult(
        name="", profile=trace.profile, workload_seed=trace.workload_seed,
        frame_index=frame_index, reason=target.reason, area=area,
        mutants=mutants, rng_seed=rng_seed, baseline_mask=baseline_mask,
        campaign_mask=baseline_mask, failures={"VmCrash": 0, "HypCrash": 0},
    )

    rng = SplitMix64(rng_seed)
    seen = {}
    for m in range(mutants):
        session.restore(base_state)
        mutation = mutate_random(target, area, rng)
        fr = replayer.replay_frame(apply_mutation(target, mutation), frame_index)
        result.campaign_mask |= fr.coverage_mask
        crash = fr.result and fr.result.crash     # no result: the frame aborted
        if crash is not None:
            result.failures[crash.kind] += 1
            sig = (crash.kind, crash.detail)
            if sig in seen:
                seen[sig].count += 1
            else:
                seen[sig] = CrashRecord(crash.kind, crash.detail, m, mutation)
                result.crashes.append(seen[sig])
        elif fr.divergences:
            result.divergent += 1
            for d in fr.divergences:
                kinds = result.divergence_kinds
                kinds[d.kind] = kinds.get(d.kind, 0) + 1
        else:
            result.clean += 1
    result.coverage_delta_pct = (
        100.0 * (result.campaign_mask & ~baseline_mask).bit_count()
        / baseline_mask.bit_count()
    )
    for rec in result.crashes:
        session.restore(base_state)
        fr = replayer.replay_frame(apply_mutation(target, rec.mutation), frame_index)
        crash = fr.result and fr.result.crash
        rec.revalidated = crash is not None and (crash.kind, crash.detail) == (
            rec.kind, rec.detail
        )
    return result


@pytest.mark.parametrize(
    "profile,reason,area,character",
    [
        ("OsBoot", "CR_ACCESS", AREA_VMCS, "crashes"),
        ("CpuBound", "RDTSC", AREA_GPR, "clean"),
        ("OsBoot", "CR_ACCESS", AREA_GPR, "divergent"),
        ("OsBoot", "IO_INSTRUCTION", AREA_VMCS, "read_underflow"),
    ],
)
def test_reused_outcomes_match_replaying_every_mutant(profile, reason, area, character):
    outcome = _recorded(profile, 7, 300)
    idx = find_frame(outcome.trace, {"first_of_reason": reason})
    reference = _reference_campaign(outcome.trace, outcome.start_snapshot, idx,
                                    area, mutants=2000, rng_seed=0)
    result = run_test_case(outcome.trace, outcome.start_snapshot, idx, area,
                           mutants=2000, rng_seed=0)
    assert result.to_json() == reference.to_json()
    # Each cell exercises the outcome it was chosen for.
    if character == "crashes":
        assert sum(result.failures.values()) > 0 and result.crashes
    elif character == "clean":
        assert result.clean == result.mutants
    elif character == "divergent":
        assert result.divergent > 0 and not result.crashes
    else:
        assert result.divergence_kinds.get(character, 0) > 0


def test_each_distinct_mutation_is_replayed_once(monkeypatch):
    outcome = _recorded("OsBoot", 7, 300)
    idx = find_frame(outcome.trace, {"first_of_reason": "WRMSR"})
    target = outcome.trace.frames[idx]
    calls = {"restore": 0, "replay_frame": 0}
    restore, replay_frame = Session.restore, Replayer.replay_frame

    def counting_restore(self, snap):
        calls["restore"] += 1
        return restore(self, snap)

    def counting_replay_frame(self, frame, index=0):
        calls["replay_frame"] += 1
        return replay_frame(self, frame, index)

    monkeypatch.setattr(Session, "restore", counting_restore)
    monkeypatch.setattr(Replayer, "replay_frame", counting_replay_frame)
    counts = {}
    for mutants in (2000, 10000):
        rng = SplitMix64(0)
        drawn = [mutate_random(target, AREA_VMCS, rng) for _ in range(mutants)]
        distinct = len({(mu.entry_index, mu.bit) for mu in drawn})
        # Saturated: every single-bit mutation of the area is drawn.
        assert distinct == 64 * len(target.reads)
        calls.update(restore=0, replay_frame=0)
        result = run_test_case(outcome.trace, outcome.start_snapshot, idx,
                               AREA_VMCS, mutants=mutants, rng_seed=0)
        assert result.crashes
        revalidations = len(result.crashes)
        # Set-up: Replayer(snapshot) restores once; the prefix and the
        # baseline replay idx + 1 exits.
        assert calls["restore"] == 1 + distinct + revalidations
        assert calls["replay_frame"] == idx + 1 + distinct + revalidations
        counts[mutants] = dict(calls)
    assert counts[2000] == counts[10000]


def test_campaign_coverage_contains_the_baseline():
    outcome = _recorded()
    _, idx = _rdtsc_frame()
    result = run_test_case(outcome.trace, outcome.start_snapshot, idx, AREA_GPR,
                           mutants=300, rng_seed=0)
    assert result.campaign_mask & result.baseline_mask == result.baseline_mask
    expect = (
        100.0
        * (result.campaign_mask & ~result.baseline_mask).bit_count()
        / result.baseline_mask.bit_count()
    )
    assert result.coverage_delta_pct == pytest.approx(expect)
    assert result.mutants == result.clean + result.divergent + sum(
        result.failures.values()
    )


def test_rdtsc_seed_mutations_reach_more_via_the_vmcs():
    outcome = _recorded()
    _, idx = _rdtsc_frame()
    vmcs = run_test_case(outcome.trace, outcome.start_snapshot, idx, AREA_VMCS,
                         mutants=500, rng_seed=0)
    gpr = run_test_case(outcome.trace, outcome.start_snapshot, idx, AREA_GPR,
                        mutants=500, rng_seed=0)
    assert vmcs.coverage_delta_pct > gpr.coverage_delta_pct > 0.0
    assert vmcs.coverage_delta_pct == pytest.approx(800.0 / 7.0)
    assert gpr.coverage_delta_pct == pytest.approx(100.0 / 7.0)


def test_crash_signatures_are_deduplicated_and_revalidated():
    outcome = _recorded()
    _, idx = _rdtsc_frame()
    result = run_test_case(outcome.trace, outcome.start_snapshot, idx, AREA_VMCS,
                           mutants=500, rng_seed=0)
    assert result.failures["VmCrash"] > 0
    assert result.failures["HypCrash"] > 0
    by_kind = {"VmCrash": 0, "HypCrash": 0}
    for rec in result.crashes:
        by_kind[rec.kind] += rec.count
        assert rec.revalidated
    assert by_kind == result.failures
    signatures = [(c.kind, c.detail) for c in result.crashes]
    assert len(signatures) == len(set(signatures))
    indexes = [c.mutant_index for c in result.crashes]
    assert indexes == sorted(indexes)   # discovery order


def test_designated_cr_mutation_crashes_the_hypervisor():
    outcome = _recorded("OsBoot", 5, 100)
    trace = outcome.trace
    idx = find_frame(trace, {"first_of_reason": "CR_ACCESS"})
    frame = trace.frames[idx]
    qual_pos = next(
        i for i, (encoding, _) in enumerate(frame.reads)
        if encoding == EXIT_QUALIFICATION
    )
    assert frame.reads[qual_pos][1] == 0x700   # mov to cr0 from r8
    rep = Replayer(outcome.start_snapshot)
    for i in range(idx):
        fr = rep.replay_frame(trace.frames[i], i)
        assert not fr.divergences
    mutant = apply_mutation(frame, Mutation(AREA_VMCS, qual_pos, 11))
    fr = rep.replay_frame(mutant, idx)
    assert fr.crash.kind == "HypCrash"
    assert fr.result.crash.detail == "cr access gpr index 15 out of range"


def test_crash_artifacts_replay_identically(tmp_path):
    outcome = _recorded()
    _, idx = _rdtsc_frame()
    result = run_test_case(outcome.trace, outcome.start_snapshot, idx, AREA_VMCS,
                           mutants=300, rng_seed=0, artifact_dir=tmp_path)
    assert result.crashes
    for rec in result.crashes:
        assert rec.artifact is not None
        meta_path = tmp_path / rec.artifact.rsplit("/", 1)[-1]
        assert meta_path.exists()
        stem = meta_path.stem
        assert (tmp_path / f"{stem}.iris").exists()
        assert (tmp_path / f"{stem}.irisnap").exists()
        replayed = replay_artifact(meta_path)
        assert replayed.matches
        assert replayed.kind == rec.kind
        assert replayed.detail == rec.detail


# ---------------------------------------------------------------------------
# Target selection and validation
# ---------------------------------------------------------------------------

def test_find_frame_rules():
    trace = _recorded().trace
    assert find_frame(trace, {"index": 2}) == 2
    by_name = find_frame(trace, {"first_of_reason": "RDTSC"})
    by_code = find_frame(trace, {"first_of_reason": int(ExitReason.RDTSC)})
    assert by_name == by_code
    assert trace.frames[by_name].reason == ExitReason.RDTSC
    assert find_frame(trace, {"first_of_reason": "HLT"}) is None
    with pytest.raises(CampaignSetupError, match="unknown exit reason"):
        find_frame(trace, {"first_of_reason": "SMI"})
    with pytest.raises(CampaignSetupError):
        find_frame(trace, {"nth": 3})


def test_run_test_case_validates_its_arguments():
    outcome = _recorded()
    with pytest.raises(CampaignSetupError, match="outside trace"):
        run_test_case(outcome.trace, outcome.start_snapshot, 9999, AREA_VMCS,
                      mutants=10)
    with pytest.raises(CampaignSetupError, match="at least 1"):
        run_test_case(outcome.trace, outcome.start_snapshot, 0, AREA_VMCS,
                      mutants=0)


def test_mismatched_snapshot_fails_setup():
    outcome = _recorded()
    stranger = Session()
    stranger.power_on()
    with pytest.raises(CampaignSetupError, match="prefix replay"):
        run_test_case(outcome.trace, stranger.snapshot(), 5, AREA_VMCS,
                      mutants=10)


# ---------------------------------------------------------------------------
# Config-driven runs
# ---------------------------------------------------------------------------

def test_run_config_executes_and_skips(tmp_path):
    outcome = _recorded()
    save_trace(outcome.trace, tmp_path / "cpu.iris")
    save_snapshot(outcome.start_snapshot, tmp_path / "cpu.irisnap")
    config = {
        "campaigns": [
            {
                "name": "rdtsc-vmcs",
                "trace": "cpu.iris",
                "snapshot": "cpu.irisnap",
                "select": {"first_of_reason": "RDTSC"},
                "area": "vmcs",
                "mutants": 50,
            },
            {
                "name": "hlt-gpr",
                "trace": "cpu.iris",
                "snapshot": "cpu.irisnap",
                "select": {"first_of_reason": "HLT"},
                "area": "gpr",
            },
        ]
    }
    results = run_config(config, base_dir=tmp_path, default_rng_seed=7)
    assert len(results) == 2
    ran, skipped = results
    assert ran.name == "rdtsc-vmcs"
    assert ran.mutants == 50
    assert ran.rng_seed == 7
    assert not ran.skipped
    assert skipped.skipped
    assert skipped.frame_index == -1
    assert skipped.skip_note == "trace has no HLT exits"
    assert json.dumps([r.to_json() for r in results])   # serializable


def test_run_config_validates_jobs(tmp_path):
    with pytest.raises(CampaignSetupError, match="campaigns"):
        run_config({}, base_dir=tmp_path)
    job = {
        "name": "x",
        "trace": "t.iris",
        "snapshot": "s.irisnap",
        "select": {"index": 0},
    }
    with pytest.raises(CampaignSetupError, match="missing 'area'"):
        run_config({"campaigns": [job]}, base_dir=tmp_path)
    job["area"] = "stack"
    with pytest.raises(CampaignSetupError, match="unknown area"):
        run_config({"campaigns": [job]}, base_dir=tmp_path)


def test_campaign_json_names_the_reason():
    outcome = _recorded()
    _, idx = _rdtsc_frame()
    result = run_test_case(outcome.trace, outcome.start_snapshot, idx, AREA_GPR,
                           mutants=20, rng_seed=0, name="tiny")
    blob = result.to_json()
    assert blob["reason"] == "RDTSC"
    assert blob["name"] == "tiny"
    assert blob["baseline_blocks"] == result.baseline_mask.bit_count()
