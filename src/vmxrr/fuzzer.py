"""Single-bit-flip mutation campaigns over recorded exits.

A test case picks one exit of a trace, replays the prefix to reach the state
just before it, snapshots that state, and then evaluates M mutated copies of
the exit's seed from the same snapshot. Mutating the injected inputs instead
of the live guest means every mutant starts from bit-identical state, so a
crash found here is a crash of the handler logic, not of the harness.

A mutant's outcome depends only on the bit it flips. So one loop draws every
mutant and tallies each distinct mutation's first mutant index and draws, and
a second replays each distinct mutation once, in first-draw order, and adds
its outcome weighted by its draws: the results and artifacts of replaying
every mutant. A mutant crashed when its replayed exit reports a crash
(`FrameReplay.crash`); crashes with equal kind and detail are one crash.

A flip in a register the handler never reads cannot reach it. Replay is
deterministic from the snapshot and the seed, and handlers touch registers
only through `GprFile.read`/`write`, so such a mutant follows the baseline's
path to the same coverage, writes, crash and divergences. The baseline
replay logs the registers it reads (`GprFile.reads`), and a flip of any
other register takes the baseline's outcome without a restore or a replay.
CpuBound's first RDTSC reads only RCX, so a GPR campaign there replays 64
of its 960 distinct mutations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from .hypervisor import CrashInfo
from .recorder import (
    ExitFrame,
    Trace,
    load_snapshot,
    load_trace,
    save_trace,
    snapshot_to_bytes,
)
from .replayer import Replayer
from .rng import MASK64, SplitMix64
from .session import SessionSnapshot
from .vmx import ExitReason, guest_cr0_view, reason_name

AREA_VMCS = "vmcs"
AREA_GPR = "gpr"
AREAS = (AREA_VMCS, AREA_GPR)

DEFAULT_MUTANTS = 10000


class FuzzError(Exception):
    pass


class EmptyArea(FuzzError):
    pass


class CampaignSetupError(FuzzError):
    pass


class Mutation(NamedTuple):
    area: str
    entry_index: int
    bit: int


def _area_entries(frame: ExitFrame, area: str) -> tuple:
    if area == AREA_VMCS:
        return frame.reads
    if area == AREA_GPR:
        return frame.gprs
    raise FuzzError(f"unknown seed area {area!r}")


def mutate_random(frame: ExitFrame, area: str, rng: SplitMix64) -> Mutation:
    entries = _area_entries(frame, area)
    if not entries:
        raise EmptyArea(f"exit seed has no {area} entries to mutate")
    return Mutation(area, rng.below(len(entries)), rng.below(64))


def apply_mutation(frame: ExitFrame, mutation: Mutation) -> ExitFrame:
    """Copy the frame with one bit of one seed value flipped. Only the
    flipped area's tuple is new; the other tuples are shared with the frame.

    XOR, so applying the same mutation twice gives back the original.
    """
    values = list(_area_entries(frame, mutation.area))
    if not values:
        raise EmptyArea(f"exit seed has no {mutation.area} entries to mutate")
    i, flip = mutation.entry_index, 1 << mutation.bit
    if mutation.area == AREA_GPR:
        values[i] ^= flip
        return ExitFrame(frame.reason, frame.cycle_cost, frame.coverage_mask,
                         tuple(values), frame.reads, frame.writes)
    encoding, value = values[i]
    values[i] = (encoding, value ^ flip)
    return ExitFrame(frame.reason, frame.cycle_cost, frame.coverage_mask,
                     frame.gprs, tuple(values), frame.writes)


@dataclass
class CrashRecord:
    """First sighting of a distinct (kind, detail) crash in a campaign."""

    kind: str
    detail: str
    mutant_index: int
    mutation: Mutation
    count: int = 1
    revalidated: bool = False
    artifact: str | None = None


@dataclass
class CampaignResult:
    name: str
    profile: str
    workload_seed: int
    frame_index: int
    reason: int
    area: str
    mutants: int
    rng_seed: int
    skipped: bool = False
    skip_note: str = ""
    baseline_mask: int = 0
    campaign_mask: int = 0
    coverage_delta_pct: float = 0.0
    failures: dict[str, int] = field(default_factory=dict)
    divergent: int = 0
    clean: int = 0
    divergence_kinds: dict[str, int] = field(default_factory=dict)
    crashes: list[CrashRecord] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "profile": self.profile,
            "workload_seed": self.workload_seed,
            "frame_index": self.frame_index,
            "reason": reason_name(self.reason),
            "area": self.area,
            "mutants": self.mutants,
            "rng_seed": self.rng_seed,
            "skipped": self.skipped,
            "skip_note": self.skip_note,
            "baseline_blocks": self.baseline_mask.bit_count(),
            "campaign_blocks": self.campaign_mask.bit_count(),
            "new_blocks": (self.campaign_mask & ~self.baseline_mask).bit_count(),
            "coverage_delta_pct": self.coverage_delta_pct,
            "failures": dict(self.failures),
            "divergent": self.divergent,
            "clean": self.clean,
            "divergence_kinds": dict(self.divergence_kinds),
            "crashes": [
                {
                    "kind": c.kind,
                    "detail": c.detail,
                    "mutant_index": c.mutant_index,
                    "entry_index": c.mutation.entry_index,
                    "bit": c.mutation.bit,
                    "count": c.count,
                    "revalidated": c.revalidated,
                    "artifact": c.artifact,
                }
                for c in self.crashes
            ],
        }


def run_test_case(
    trace: Trace,
    snapshot: SessionSnapshot,
    frame_index: int,
    area: str,
    mutants: int = DEFAULT_MUTANTS,
    rng_seed: int = 0,
    artifact_dir: str | Path | None = None,
    name: str = "",
) -> CampaignResult:
    """Run one mutation campaign against a single recorded exit.

    The result is a pure function of (trace, snapshot, frame_index, area,
    mutants, rng_seed); artifact writing only adds files.
    """
    if not 0 <= frame_index < len(trace.frames):
        raise CampaignSetupError(
            f"exit index {frame_index} outside trace of {len(trace.frames)} exits"
        )
    if mutants < 1:
        raise CampaignSetupError("mutant count must be at least 1")
    target = trace.frames[frame_index]
    if not _area_entries(target, area):
        raise EmptyArea(f"exit {frame_index} has no {area} entries to mutate")

    replayer = Replayer(snapshot)
    for i in range(frame_index):
        fr = replayer.replay_frame(trace.frames[i])
        if fr.divergences or fr.crash is not None:    # an abort is a divergence
            raise CampaignSetupError(
                f"prefix replay diverged at exit {i}; trace does not match snapshot"
            )
    session = replayer.session
    base_state = session.snapshot()
    base_cr0_view = guest_cr0_view(session.vmcs)

    gprs = session.gprs
    gprs.reads = set()
    baseline = replayer.replay_frame(target)
    unread = set(range(len(target.gprs))) - gprs.reads if area == AREA_GPR else set()
    gprs.reads = None
    if baseline.divergences:
        raise CampaignSetupError(f"baseline replay of exit {frame_index} diverged")
    baseline_mask = baseline.coverage_mask    # never 0: dispatch.entry is always hit

    # mutation -> [first mutant index, draws], in first-draw order
    rng = SplitMix64(rng_seed)
    tally: dict[Mutation, list[int]] = {}
    for m in range(mutants):
        mutation = mutate_random(target, area, rng)
        drawn = tally.get(mutation)
        if drawn is None:
            tally[mutation] = [m, 1]
        else:
            drawn[1] += 1

    campaign_mask = baseline_mask
    failures = {"VmCrash": 0, "HypCrash": 0}
    divergent = 0
    clean = 0
    divergence_kinds: dict[str, int] = {}
    seen: dict[CrashInfo, CrashRecord] = {}
    for mutation, (first, count) in tally.items():
        if mutation.entry_index in unread:
            fr = baseline    # the handler never reads the flipped register
        else:
            session.restore(base_state)
            fr = replayer.replay_frame(apply_mutation(target, mutation))
        campaign_mask |= fr.coverage_mask
        crash = fr.crash
        if crash is not None:
            failures[crash.kind] += count
            if crash not in seen:
                seen[crash] = CrashRecord(crash.kind, crash.detail, first, mutation, 0)
            seen[crash].count += count
        elif fr.divergences:
            divergent += count
            for d in fr.divergences:
                divergence_kinds[d.kind] = divergence_kinds.get(d.kind, 0) + count
        else:
            clean += count
    crashes = list(seen.values())

    delta = 100.0 * (campaign_mask & ~baseline_mask).bit_count() / baseline_mask.bit_count()

    out_dir = Path(artifact_dir) if artifact_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        snapshot_bytes = snapshot_to_bytes(base_state)    # every artifact's state
    for rec in crashes:
        session.restore(base_state)
        mutant_frame = apply_mutation(target, rec.mutation)
        fr = replayer.replay_frame(mutant_frame)
        rec.revalidated = fr.crash == CrashInfo(rec.kind, rec.detail)
        if out_dir is not None:
            rec.artifact = _write_artifact(
                out_dir, trace, snapshot_bytes, base_cr0_view, rec, mutant_frame,
                frame_index,
            )

    return CampaignResult(
        name=name,
        profile=trace.profile,
        workload_seed=trace.workload_seed,
        frame_index=frame_index,
        reason=target.reason,
        area=area,
        mutants=mutants,
        rng_seed=rng_seed,
        baseline_mask=baseline_mask,
        campaign_mask=campaign_mask,
        coverage_delta_pct=delta,
        failures=failures,
        divergent=divergent,
        clean=clean,
        divergence_kinds=divergence_kinds,
        crashes=crashes,
    )


# ---------------------------------------------------------------------------
# Crash artifacts: a one-exit trace, the state it replays from, and metadata.
# Standalone, so triage needs neither the original trace nor the campaign.
# ---------------------------------------------------------------------------

def _write_artifact(
    out_dir: Path,
    trace: Trace,
    snapshot_bytes: bytes,
    base_cr0_view: int,
    rec: CrashRecord,
    mutant_frame: ExitFrame,
    frame_index: int,
) -> str:
    stem = f"crash_{rec.mutant_index:05d}"
    fragment = Trace(
        profile=trace.profile,
        workload_seed=trace.workload_seed,
        initial_cr0=base_cr0_view,
        frames=[mutant_frame],
    )
    save_trace(fragment, out_dir / f"{stem}.iris")
    (out_dir / f"{stem}.irisnap").write_bytes(snapshot_bytes)
    meta = {
        "kind": rec.kind,
        "detail": rec.detail,
        "frame_index": frame_index,
        "mutant_index": rec.mutant_index,
        "area": rec.mutation.area,
        "entry_index": rec.mutation.entry_index,
        "bit": rec.mutation.bit,
        "profile": trace.profile,
        "workload_seed": trace.workload_seed,
        "trace": f"{stem}.iris",
        "snapshot": f"{stem}.irisnap",
    }
    meta_path = out_dir / f"{stem}.json"
    meta_path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return str(meta_path)


@dataclass(frozen=True)
class ArtifactReplay:
    kind: str | None
    detail: str
    matches: bool


def replay_artifact(meta_path: str | Path) -> ArtifactReplay:
    """Re-run a saved crash standalone and compare against its metadata."""
    meta_path = Path(meta_path)
    meta = json.loads(meta_path.read_text())
    fragment = load_trace(meta_path.parent / meta["trace"])
    snap = load_snapshot(meta_path.parent / meta["snapshot"])
    replayer = Replayer(snap)
    crash = replayer.replay_frame(fragment.frames[0]).crash
    kind, detail = (crash.kind, crash.detail) if crash is not None else (None, "")
    return ArtifactReplay(
        kind, detail, kind == meta["kind"] and detail == meta["detail"]
    )


# ---------------------------------------------------------------------------
# Declarative campaign configs
# ---------------------------------------------------------------------------

def find_frame(trace: Trace, select: dict) -> int | None:
    """Resolve a target selection rule to an exit index.

    Rules: {"index": N} picks exit N, which must be in the trace;
    {"first_of_reason": name-or-code} picks the first exit of that reason,
    None when the trace has no such exit.
    """
    if not isinstance(select, dict):
        raise CampaignSetupError("'select' must be a JSON object")
    if "index" in select:
        index = _config_int(select, "index")
        if not 0 <= index < len(trace.frames):
            raise CampaignSetupError(
                f"exit index {select['index']!r} outside trace of {len(trace.frames)} exits"
            )
        return index
    if "first_of_reason" not in select:
        raise CampaignSetupError(
            "selection rule needs either 'index' or 'first_of_reason'"
        )
    reason = _target_reason(select)
    for i, frame in enumerate(trace.frames):
        if frame.reason == reason:
            return i
    return None


def _target_reason(select: dict) -> ExitReason:
    """The reason a {"first_of_reason": name-or-code} rule selects."""
    want = select["first_of_reason"]
    if isinstance(want, bool) or not isinstance(want, (str, int)):
        raise CampaignSetupError("'first_of_reason' must be a reason name or code")
    try:
        return ExitReason[want] if isinstance(want, str) else ExitReason(want)
    except (KeyError, ValueError):
        raise CampaignSetupError(f"unknown exit reason {want!r}") from None


def _config_int(job: dict, key: str, default: int = 0) -> int:
    """job[key] as an int, with int()'s leniency ("7" and 7.0 are accepted)
    but not for JSON booleans or numbers with a fractional part."""
    value = job.get(key, default)
    fraction = isinstance(value, float) and not value.is_integer()
    if not isinstance(value, bool) and not fraction:
        try:
            return int(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise CampaignSetupError(f"{key!r} must be an integer, not {value!r}")


def run_config(
    config: dict,
    base_dir: str | Path = ".",
    artifact_root: str | Path | None = None,
    default_rng_seed: int = 0,
) -> list[CampaignResult]:
    """Run every campaign in a config, in order.

    Trace and snapshot paths resolve against base_dir, artifact subdirs
    against artifact_root (base_dir when not given). A first_of_reason rule
    that matches nothing yields a skipped result, not an error: absent
    reasons are a property of the workload, not a config mistake.
    """
    base = Path(base_dir)
    art_root = Path(artifact_root) if artifact_root is not None else base
    if not isinstance(config, dict):
        raise CampaignSetupError("config must be a JSON object")
    campaigns = config.get("campaigns")
    if not isinstance(campaigns, list):
        raise CampaignSetupError("config needs a 'campaigns' list")
    traces: dict[str, Trace] = {}
    snaps: dict[str, SessionSnapshot] = {}
    results: list[CampaignResult] = []
    for i, job in enumerate(campaigns):
        if not isinstance(job, dict):
            raise CampaignSetupError(f"campaign {i} must be a JSON object")
        name = job.get("name", f"campaign{i}")
        if not isinstance(name, str):
            raise CampaignSetupError(f"campaign {i}: 'name' must be a string")
        for key in ("trace", "snapshot", "select", "area"):
            if key not in job:
                raise CampaignSetupError(f"campaign {name!r} is missing {key!r}")
        for key in ("trace", "snapshot", "artifacts"):
            if not isinstance(job.get(key, ""), str):
                raise CampaignSetupError(f"campaign {name!r}: {key!r} must be a string")
        area = job["area"]
        if area not in AREAS:
            raise CampaignSetupError(f"campaign {name!r}: unknown area {area!r}")
        try:
            mutants = _config_int(job, "mutants", DEFAULT_MUTANTS)
            if not 1 <= mutants < 1 << 32:
                value = job["mutants"]
                raise CampaignSetupError(f"'mutants' must be in [1, 2**32), not {value!r}")
            rng_seed = _config_int(job, "rng_seed", default_rng_seed)
            if not 0 <= rng_seed <= MASK64:
                value = job.get("rng_seed", default_rng_seed)
                raise CampaignSetupError(f"'rng_seed' must be in [0, 2**64), not {value!r}")
            trace_path = str(base / job["trace"])
            snap_path = str(base / job["snapshot"])
            if trace_path not in traces:
                traces[trace_path] = load_trace(trace_path)
            if snap_path not in snaps:
                snaps[snap_path] = load_snapshot(snap_path)
            trace = traces[trace_path]
            index = find_frame(trace, job["select"])
        except CampaignSetupError as exc:
            raise CampaignSetupError(f"campaign {name!r}: {exc}") from None
        if index is None:
            want = job["select"]["first_of_reason"]
            results.append(
                CampaignResult(
                    name=name,
                    profile=trace.profile,
                    workload_seed=trace.workload_seed,
                    frame_index=-1,
                    reason=_target_reason(job["select"]),
                    area=area,
                    mutants=mutants,
                    rng_seed=rng_seed,
                    skipped=True,
                    skip_note=f"trace has no {want} exits",
                )
            )
            continue
        artifact_dir = None
        if "artifacts" in job:
            artifact_dir = art_root / job["artifacts"]
        results.append(
            run_test_case(
                trace,
                snaps[snap_path],
                index,
                area,
                mutants=mutants,
                rng_seed=rng_seed,
                artifact_dir=artifact_dir,
                name=name,
            )
        )
    return results
