"""Host-time benchmark of vmxrr: record, save, load, replay and a bit-flip campaign.

One operation of a workload runs the whole IRIS flow on freshly generated
inputs, timing each stage on its own:

    record   recorder.record(profile, seed, exits)
    save     recorder.save_trace + recorder.save_snapshot
    load     recorder.load_trace + recorder.load_snapshot (integrity check included)
    replay   replayer.Replayer(snapshot).replay_trace + replayer.compute_accuracy
    fuzz     fuzzer.run_test_case on the workload's target exit and seed area

Every stage's output is checked after the operation, outside the timed
region; a failed check counts as a failed operation. Host time is measured.
The simulator's virtual cycles are a model output, unvalidated against
hardware: they are checked for exact equality, never reported as speed.

    python3 bench/run.py --workload osboot-cr-vmcs --seed 7 --seconds 45 --trace 0
    python3 bench/run.py --workload all --seconds 5

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
GOLDEN_PATH = BENCH_DIR / "golden.json"

sys.path.insert(0, str(SRC_DIR))

import vmxrr  # noqa: E402
from vmxrr import fuzzer, recorder, replayer  # noqa: E402

if Path(vmxrr.__file__).resolve().parent != SRC_DIR / "vmxrr":
    raise SystemExit(f"error: vmxrr imported from {vmxrr.__file__}, not from {SRC_DIR}")

import tracer as tracing  # noqa: E402

DEFAULT_SEED = 7          # ROADMAP item 1 and the acceptance suite
HELD_BACK_SEED = 12817    # with --rng-seed 1: confirm a claim on inputs not used to develop it
DEFAULT_EXITS = 5000      # the paper's recording length
DEFAULT_MUTANTS = fuzzer.DEFAULT_MUTANTS
SELF_TEST_EXITS = 300     # tiny sizes for bench/test_bench.py
SELF_TEST_MUTANTS = 200
SETUP_REPEATS = 5
TRACED_OPS = 3            # spans of one 5000-exit operation take about 10 MB
STAGES = ("record", "save", "load", "replay", "fuzz")


@dataclass(frozen=True)
class Workload:
    name: str
    profile: str
    target: str      # first exit of this reason is the campaign target
    area: str
    artifacts: bool
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "osboot-cr-vmcs", "OsBoot", "CR_ACCESS", "vmcs", True,
            "OsBoot has the widest handler mix (IO, CR, EPT, MSR, CPUID) and the most VMCS"
            " reads per exit, so guest, session.drive, the recorder's write and read paths"
            " and the replayer do the most work here. Its campaign on the first CR_ACCESS"
            " exit is crash-heavy (about 18% of mutants crash, 16 distinct crashes written"
            " as artifacts) over only 7x64 distinct mutations, so the crash path, entry"
            " checks, artifact writing and any memoising of repeats show here.",
        ),
        Workload(
            "cpubound-rdtsc-gpr", "CpuBound", "RDTSC", "gpr", False,
            "CpuBound is RDTSC-dominated with few VMCS reads per exit, so its trace is"
            " cheaper per exit and smaller. Its campaign on the first RDTSC exit is all"
            " clean over 15x64 distinct register mutations with the cheapest handler, so"
            " harness overhead dominates: clone, restore, inject and compare. A change"
            " that helps one workload at the other's cost shows up.",
        ),
    )
}


# ---------------------------------------------------------------------------
# One operation
# ---------------------------------------------------------------------------

@dataclass
class OpResult:
    seconds: dict[str, float]        # stage -> host seconds
    exits: int
    replayed: int
    io_bytes: int                    # .iris + .irisnap bytes saved and loaded
    mutants: int
    outputs: dict                    # values compared against the reference
    semantic_failures: set[str]      # stages whose own output check failed
    crash_ratio: float
    simulated: dict                  # simulated statistics, shown as checks


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_op(w: Workload, seed: int, rng_seed: int, exits: int, mutants: int,
           work: Path, tracer: tracing.Tracer | None = None, op_id: int = 0) -> OpResult:
    """Run and check one operation. Only the stage calls are timed and traced."""
    trace_path, snap_path = work / "trace.iris", work / "start.irisnap"
    art_dir = work / "artifacts" if w.artifacts else None
    if art_dir is not None:
        shutil.rmtree(art_dir, ignore_errors=True)
    t = {}

    @contextmanager
    def timed(name: str):
        with tracer.stage(f"bench.{name}") if tracer is not None else nullcontext():
            t0 = time.perf_counter()
            yield
            t[name] = time.perf_counter() - t0

    if tracer is not None:
        tracer.begin_op(op_id)
    with timed("record"):
        outcome = recorder.record(w.profile, seed, exits)
    with timed("save"):
        recorder.save_trace(outcome.trace, trace_path)
        recorder.save_snapshot(outcome.start_snapshot, snap_path)
    with timed("load"):
        trace = recorder.load_trace(trace_path)
        snap = recorder.load_snapshot(snap_path)
    with timed("replay"):
        replay = replayer.Replayer(snap).replay_trace(trace)
        accuracy = replayer.compute_accuracy(replay)
    index = fuzzer.find_frame(trace, {"first_of_reason": w.target})
    with timed("fuzz"):
        campaign = fuzzer.run_test_case(
            trace, snap, index, w.area, mutants, rng_seed, artifact_dir=art_dir
        )
    if tracer is not None:
        tracer.end_op()

    # -- output checks, untimed ------------------------------------------------
    trace_bytes, snap_bytes = trace_path.read_bytes(), snap_path.read_bytes()
    bad = set()
    if not outcome.result.ok or len(outcome.trace.frames) != exits:
        bad.add("record")
    if (recorder.trace_to_bytes(trace) != trace_bytes
            or recorder.snapshot_to_bytes(snap) != snap_bytes):
        bad.add("load")
    if not (replay.clean and replay.frames_completed == exits
            and accuracy.block_fitting == 100.0 and accuracy.write_exact_pct == 100.0):
        bad.add("replay")
    report = campaign.to_json()
    for crash in report["crashes"]:
        if not crash["revalidated"]:
            bad.add("fuzz")
        if art_dir is not None:
            if crash["artifact"] is None or not fuzzer.replay_artifact(crash["artifact"]).matches:
                bad.add("fuzz")
            else:
                crash["artifact"] = os.path.relpath(crash["artifact"], art_dir)
    failures = sum(campaign.failures.values())
    return OpResult(
        seconds=t,
        exits=len(outcome.trace.frames),
        replayed=replay.frames_completed,
        io_bytes=len(trace_bytes) + len(snap_bytes),
        mutants=mutants,
        outputs={
            "record_cycles": outcome.record_cycles,
            "trace_sha256": _sha256(trace_bytes),
            "snapshot_sha256": _sha256(snap_bytes),
            "replay_cycles": replay.replay_clock,
            "campaign_sha256": _sha256(json.dumps(report, sort_keys=True).encode()),
        },
        semantic_failures=bad,
        crash_ratio=failures / mutants,
        simulated={
            "record_cycles": outcome.record_cycles,
            "replay_cycles": replay.replay_clock,
            "coverage_delta_pct": campaign.coverage_delta_pct,
            "failures": dict(campaign.failures),
            "divergent": campaign.divergent,
            "clean": campaign.clean,
        },
    )


# Which reference value each stage's output is compared against.
STAGE_OUTPUTS = {
    "record": ("record_cycles",),
    "save": ("trace_sha256", "snapshot_sha256"),
    "load": (),
    "replay": ("replay_cycles",),
    "fuzz": ("campaign_sha256",),
}


def failed_stages(op: OpResult, reference: dict) -> set[str]:
    bad = set(op.semantic_failures)
    for stage, keys in STAGE_OUTPUTS.items():
        if any(op.outputs[k] != reference[k] for k in keys):
            bad.add(stage)
    return bad


def golden_key(workload: str, seed: int, rng_seed: int, exits: int, mutants: int) -> str:
    return f"{workload} seed={seed} rng={rng_seed} exits={exits} mutants={mutants}"


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def setup(args) -> tuple[dict | None, Path]:
    """Everything before the first timed operation: the program is already
    imported; read the reference outputs and make the scratch directory."""
    golden = json.loads(GOLDEN_PATH.read_text())
    reference = golden.get(
        golden_key(args.workload, args.seed, args.rng_seed, args.exits, args.mutants)
    )
    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT_DIR))
    return reference, work


_SETUP_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
import run, shutil
args = run.parse_args(sys.argv[2:])
reference, work = run.setup(args)
shutil.rmtree(work)
"""


def measure_setup(argv: list[str]) -> list[float]:
    """Wall time of fresh processes that start the interpreter, import the
    program and the benchmark, and do set-up, then exit."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        # No timeout: waiting with one polls in steps of up to 50 ms.
        subprocess.run([sys.executable, "-c", _SETUP_CHILD, str(BENCH_DIR), *argv], check=True)
        times.append(time.perf_counter() - t0)
    return times


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def run_loop(w, args, work, reference, budget_s, tracer=None, first_op=0, max_ops=None):
    """Run operations until budget_s seconds of stage time are measured,
    or max_ops operations have run."""
    ops, failed = [], 0
    measured = 0.0
    while not ops or (measured < budget_s and len(ops) != max_ops):
        gc.collect()
        op = run_op(w, args.seed, args.rng_seed, args.exits, args.mutants, work,
                    tracer, first_op + len(ops))
        if reference is None:
            reference = dict(op.outputs)
        failed += len(failed_stages(op, reference))
        ops.append(op)
        measured += sum(op.seconds.values())
    return ops, failed, reference


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def end_to_end(ops: list[OpResult], setup_times: list[float]) -> dict:
    """name -> (value, per-sample values, unit). A throughput is the run's
    total work over its total stage time; the machine's speed drifts over
    seconds, and the total uses every sample where a median of a dozen
    would not."""
    def rate(stage: str, work) -> tuple[float, list[float]]:
        return (sum(work(o) for o in ops) / sum(o.seconds[stage] for o in ops),
                [work(o) / o.seconds[stage] for o in ops])

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "record_exits_per_s": (*rate("record", lambda o: o.exits), "exits/s"),
        "save_mb_per_s": (*rate("save", lambda o: o.io_bytes / 1e6), "MB/s"),
        "load_mb_per_s": (*rate("load", lambda o: o.io_bytes / 1e6), "MB/s"),
        "replay_exits_per_s": (*rate("replay", lambda o: o.replayed), "exits/s"),
        "mutants_per_s": (*rate("fuzz", lambda o: o.mutants), "mutants/s"),
        "setup_s": (statistics.median(setup_times), setup_times, "s"),
        "peak_rss_mb": (rss_mb, [rss_mb], "MB"),
    }


PER_LAYER_SELF = (
    "guest.program", "session.drive", "session.restore", "session.snapshot",
    "recorder.begin_exit", "recorder.end_exit", "recorder.trace_to_bytes",
    "recorder.trace_from_bytes", "recorder.fnv1a64", "replayer.inject_seed",
    "replayer.replay_frame", "replayer.compute_accuracy", "hypervisor.handle_exit",
    "vmx.vm_entry_check", "fuzzer.mutate_random", "fuzzer.apply_mutation",
    "fuzzer.run_test_case", "fuzzer.artifact",
)
PER_LAYER_CALLS = (
    "session.drive", "session.restore", "replayer.inject_seed",
    "hypervisor.handle_exit", "vmx.vm_entry_check", "vmx.vmread", "vmx.vmwrite",
)
PER_LAYER_COUNTS = (
    "recorder.bytes_written", "recorder.bytes_read",
    "hypervisor.outcome.resume", "hypervisor.outcome.vm_crash", "hypervisor.outcome.hyp_crash",
)


def per_layer(tr: tracing.Tracer, table: dict, traced: list[OpResult],
              untraced: list[OpResult]) -> dict:
    """Per-operation medians over the traced operations."""
    op_ids = sorted(tr.op_counts)
    count = statistics.median_low

    def per_op(fn, pick=tracing.median):
        return pick([fn(op_id) for op_id in op_ids])

    out = {}
    for name in PER_LAYER_SELF:
        out[f"{name}.self_s"] = (per_op(lambda i: table[i][name][1] / 1e9 if name in table[i] else 0.0), "s")
    for name in PER_LAYER_CALLS:
        out[f"{name}.calls"] = (per_op(lambda i: table[i][name][0] if name in table[i] else 0, count), "count")
    for name in PER_LAYER_COUNTS:
        unit = "B" if name.startswith("recorder.") else "count"
        out[name] = (per_op(lambda i: tr.op_counts[i][name], count), unit)
    for layer in tracing.LAYERS:
        out[f"{layer}.self_s"] = (per_op(lambda i: sum(
            row[1] for n, row in table[i].items() if n.startswith(layer + ".")) / 1e9), "s")
        out[f"{layer}.calls"] = (per_op(lambda i: sum(
            row[0] for n, row in table[i].items() if n.startswith(layer + ".")), count), "count")
    frames = tr.durations_us("replayer.replay_frame")
    out["replayer.replay_frame.p50_us"] = (tracing.percentile(frames, 50), "us")
    out["replayer.replay_frame.p99_us"] = (tracing.percentile(frames, 99), "us")
    out["fuzzer.distinct_mutation_ratio"] = (
        per_op(lambda i: tr.op_mutations[i][0] / tr.op_mutations[i][1]), "ratio")
    out["fuzzer.crash_ratio"] = (tracing.median([o.crash_ratio for o in traced]), "ratio")
    traced_wall = tracing.median([sum(o.seconds.values()) for o in traced])
    untraced_wall = tracing.median([sum(o.seconds.values()) for o in untraced])
    out["tracing.overhead_s"] = (traced_wall - untraced_wall, "s")
    return out


def metadata(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "rng_seed": args.rng_seed,
        "exits": args.exits,
        "mutants": args.mutants,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "host": platform.node(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "time": "host wall clock (perf_counter); virtual cycles are a model output,"
                " unvalidated against hardware, checked for equality only",
    }


def run_workload(args) -> int:
    meta = metadata(args)
    setup_times = [] if args.trace else measure_setup(_child_argv(args))
    reference, work = setup(args)
    golden = reference is not None
    w = WORKLOADS[args.workload]
    try:
        if args.trace:
            half = args.seconds / 2
            untraced, failed_u, reference = run_loop(w, args, work, reference, half)
            tr = tracing.Tracer(w.name)
            tr.install()
            traced, failed_t, reference = run_loop(
                w, args, work, reference, half, tr, len(untraced), TRACED_OPS)
            ops, failed = untraced + traced, failed_u + failed_t
            layers = tr.layer_table()
            metrics = per_layer(tr, layers, traced, untraced)
            spans_path = OUT_DIR / f"spans-{w.name}-seed{args.seed}.csv.gz"
            tr.write(spans_path)
        else:
            ops, failed, reference = run_loop(w, args, work, reference, args.seconds)
            table = end_to_end(ops, setup_times)
            metrics = {name: (value, unit) for name, (value, _, unit) in table.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(ops) * len(STAGES)
    print(f"# vmxrr benchmark, workload {w.name}: {w.why}")
    print("# host time is measured; the virtual-cycle model is unvalidated against hardware,"
          " so its statistics are exact-equality checks, not performance")
    print("meta " + json.dumps(meta, sort_keys=True))
    if args.trace:
        print(f"traced run: {len(traced)} traced and {len(untraced)} untraced operations;"
              f" spans in {spans_path.relative_to(BENCH_DIR.parent)}")
        _print_layer_table(layers)
        for name, (value, unit) in metrics.items():
            print(f"  {name:40s} {value:>14.6g} {unit}")
    else:
        print(f"{'metric':22s} {'value':>12s} {'p25':>12s} {'median':>12s} {'p75':>12s} {'n':>3s} unit")
        for name, (value, samples, unit) in table.items():
            q1, med, q3 = _quartiles(samples)
            print(f"{name:22s} {value:12.4f} {q1:12.4f} {med:12.4f} {q3:12.4f} {len(samples):3d} {unit}")
        for name, (value, samples, unit) in table.items():
            print(f"samples {name} " + json.dumps(samples))
    print("checks (simulated statistics, exact equality): "
          + json.dumps(ops[0].simulated, sort_keys=True)
          + f"; reference {'golden table' if golden else 'first operation of this run'}")
    print(f"error_rate {failed / attempted:.6g} ({failed} of {attempted} operations failed)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def _print_layer_table(table: dict) -> None:
    """Every span and counter name, per-operation median calls and self time."""
    names = sorted({n for rows in table.values() for n in rows})
    print(f"  {'name':40s} {'calls/op':>10s} {'self_s/op':>12s}")
    for name in names:
        calls = tracing.median([table[i][name][0] if name in table[i] else 0 for i in table])
        self_s = tracing.median([table[i][name][1] if name in table[i] else 0 for i in table]) / 1e9
        print(f"  {name:40s} {calls:10.0f} {self_s:12.6f}")


def _child_argv(args) -> list[str]:
    return [
        "--workload", args.workload, "--seed", str(args.seed), "--rng-seed", str(args.rng_seed),
        "--exits", str(args.exits), "--mutants", str(args.mutants),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]


def run_all(args) -> int:
    """Each workload in a fresh process, one after the other."""
    status = 0
    for name in WORKLOADS:
        args.workload = name
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), *_child_argv(args)],
            stdout=subprocess.PIPE, text=True, timeout=600,
        )
        sys.stdout.write(proc.stdout)
        result = json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else None
        if result is None or not result["correct"]:
            status = 1
    return status


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="workload seed")
    p.add_argument("--rng-seed", type=int, default=0, help="fuzz campaign RNG seed")
    p.add_argument("--seconds", type=float, default=45.0, help="stage time to measure")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--exits", type=int, default=DEFAULT_EXITS, help="exits per recording")
    p.add_argument("--mutants", type=int, default=DEFAULT_MUTANTS, help="mutants per campaign")
    args = p.parse_args(argv)
    if args.seed < 0 or args.rng_seed < 0 or args.exits < 100 or args.mutants < 1 or args.seconds <= 0:
        p.error("seeds must be >= 0, --exits >= 100, --mutants >= 1, --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
