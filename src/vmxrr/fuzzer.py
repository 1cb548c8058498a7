"""Single-bit-flip mutation campaigns over recorded exits.

A test case picks one exit of a trace, replays the prefix to reach the state
just before it, snapshots that state, and then evaluates M mutated copies of
the exit's seed from the same snapshot. Mutating the injected inputs instead
of the live guest means every mutant starts from bit-identical state, so a
crash found here is a crash of the handler logic, not of the harness.

So a mutant's outcome depends only on the bit it flips: each distinct flip is
replayed once, and repeat draws are counted from its stored outcome. The
results and artifacts are those of replaying every mutant. A mutant crashed
when its replayed exit reports a crash (`FrameReplay.crash`, the hypervisor's
own `CrashInfo`); crashes with equal kind and detail are one crash.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

from .hypervisor import CrashInfo
from .recorder import (
    ExitFrame,
    Trace,
    load_snapshot,
    load_trace,
    save_snapshot,
    save_trace,
)
from .replayer import Replayer
from .rng import SplitMix64
from .session import SessionSnapshot
from .vmx import ExitReason, guest_cr0_view

AREA_VMCS = "vmcs"
AREA_GPR = "gpr"
AREAS = (AREA_VMCS, AREA_GPR)

DEFAULT_MUTANTS = 10000


class FuzzError(Exception):
    pass


class EmptyArea(FuzzError):
    pass


class EmptyBaseline(FuzzError):
    pass


class CampaignSetupError(FuzzError):
    pass


@dataclass(frozen=True)
class Mutation:
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
        return replace(frame, gprs=tuple(values))
    encoding, value = values[i]
    values[i] = (encoding, value ^ flip)
    return replace(frame, reads=tuple(values))


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
        try:
            reason_name = ExitReason(self.reason).name
        except ValueError:
            reason_name = str(self.reason)
        return {
            "name": self.name,
            "profile": self.profile,
            "workload_seed": self.workload_seed,
            "frame_index": self.frame_index,
            "reason": reason_name,
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
        fr = replayer.replay_frame(trace.frames[i], i)
        if fr.divergences or fr.crash is not None:    # an abort is a divergence
            raise CampaignSetupError(
                f"prefix replay diverged at exit {i}; trace does not match snapshot"
            )
    session = replayer.session
    base_state = session.snapshot()
    base_cr0_view = guest_cr0_view(session.vm.vmcs)

    baseline = replayer.replay_frame(target, frame_index)
    if baseline.divergences:
        raise CampaignSetupError(f"baseline replay of exit {frame_index} diverged")
    baseline_mask = baseline.coverage_mask
    if baseline_mask == 0:
        raise EmptyBaseline(f"exit {frame_index} covered no blocks")

    rng = SplitMix64(rng_seed)
    campaign_mask = baseline_mask
    failures = {"VmCrash": 0, "HypCrash": 0}
    divergent = 0
    clean = 0
    divergence_kinds: dict[str, int] = {}
    crashes: list[CrashRecord] = []
    seen: dict[CrashInfo, CrashRecord] = {}
    # (entry_index, bit) -> (coverage mask, crash, divergence kinds)
    outcomes: dict[tuple[int, int], tuple] = {}

    for m in range(mutants):
        mutation = mutate_random(target, area, rng)
        key = (mutation.entry_index, mutation.bit)
        outcome = outcomes.get(key)
        if outcome is None:
            session.restore(base_state)
            fr = replayer.replay_frame(apply_mutation(target, mutation), frame_index)
            outcome = outcomes[key] = (
                fr.coverage_mask, fr.crash, tuple(d.kind for d in fr.divergences),
            )
        mask, crash, kinds = outcome
        campaign_mask |= mask
        if crash is not None:
            failures[crash.kind] += 1
            rec = seen.get(crash)
            if rec is None:
                rec = seen[crash] = CrashRecord(crash.kind, crash.detail, m, mutation)
                crashes.append(rec)
            else:
                rec.count += 1
        elif kinds:
            divergent += 1
            for k in kinds:
                divergence_kinds[k] = divergence_kinds.get(k, 0) + 1
        else:
            clean += 1

    delta = 100.0 * (campaign_mask & ~baseline_mask).bit_count() / baseline_mask.bit_count()

    out_dir = Path(artifact_dir) if artifact_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    for rec in crashes:
        session.restore(base_state)
        mutant_frame = apply_mutation(target, rec.mutation)
        fr = replayer.replay_frame(mutant_frame, frame_index)
        rec.revalidated = fr.crash == CrashInfo(rec.kind, rec.detail)
        if out_dir is not None:
            rec.artifact = _write_artifact(
                out_dir, trace, base_state, base_cr0_view, rec, mutant_frame,
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
    base_state: SessionSnapshot,
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
    save_snapshot(base_state, out_dir / f"{stem}.irisnap")
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
    crash = replayer.replay_frame(fragment.frames[0], meta["frame_index"]).crash
    kind, detail = (crash.kind, crash.detail) if crash is not None else (None, "")
    return ArtifactReplay(
        kind, detail, kind == meta["kind"] and detail == meta["detail"]
    )


# ---------------------------------------------------------------------------
# Declarative campaign configs
# ---------------------------------------------------------------------------

def find_frame(trace: Trace, select: dict) -> int | None:
    """Resolve a target selection rule to an exit index.

    Rules: {"index": N} picks exit N; {"first_of_reason": name-or-code} picks
    the first exit of that reason, None when the trace has no such exit.
    """
    if not isinstance(select, dict):
        raise CampaignSetupError("'select' must be a JSON object")
    if "index" in select:
        return _config_int(select, "index")
    if "first_of_reason" not in select:
        raise CampaignSetupError(
            "selection rule needs either 'index' or 'first_of_reason'"
        )
    want = select["first_of_reason"]
    if isinstance(want, bool) or not isinstance(want, (str, int)):
        raise CampaignSetupError("'first_of_reason' must be a reason name or code")
    try:
        want = ExitReason[want] if isinstance(want, str) else ExitReason(want)
    except (KeyError, ValueError):
        raise CampaignSetupError(f"unknown exit reason {want!r}") from None
    for i, frame in enumerate(trace.frames):
        if frame.reason == want:
            return i
    return None


def _config_int(job: dict, key: str, default: int = 0) -> int:
    """job[key] as an int, with int()'s leniency ("7" and 7.0 are accepted)."""
    value = job.get(key, default)
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise CampaignSetupError(f"{key!r} must be an integer, not {value!r}") from None


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
            rng_seed = _config_int(job, "rng_seed", default_rng_seed)
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
                    reason=ExitReason[want].value if isinstance(want, str) else int(want),
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
