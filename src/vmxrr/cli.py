"""Command-line front end: record, replay, fuzz, report, gen-workload.

Every command is a one-shot batch operation and is deterministic given its
arguments, so reruns produce byte-identical files. Exit statuses are a
stable contract for scripting:

    0  success
    2  usage error
    3  validation or file format error
    4  the guest VM crashed
    5  the hypervisor crashed
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from enum import Enum
from pathlib import Path

from . import fuzzer, reports
from .guest import GuestProgram, PROFILES
from .recorder import (
    TraceFormatError,
    load_snapshot,
    load_trace,
    record,
    save_snapshot,
    save_trace,
)
from .replayer import (
    Replayer,
    compute_accuracy,
    speedup,
    throughput,
    trace_timeline,
    trajectory_of_replay,
)
from .vmx import FIELD_TABLE, GprId

ENV_OUT_DIR = "VMXRR_OUT_DIR"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_FORMAT = 3
EXIT_VM_CRASH = 4
EXIT_HYP_CRASH = 5

_CRASH_STATUS = {"VmCrash": EXIT_VM_CRASH, "HypCrash": EXIT_HYP_CRASH}


class ManagerMode(Enum):
    RECORD = "record"
    REPLAY = "replay"
    REPLAY_WITH_RECORD = "replay+record"


def _out_dir() -> Path:
    env = os.environ.get(ENV_OUT_DIR)
    return Path(env) if env else Path(".")


def _say(args: argparse.Namespace, text: str) -> None:
    if not args.quiet:
        print(text, end="" if text.endswith("\n") else "\n")


def _emit_json(args: argparse.Namespace, payload) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))


def _crash_status(crash) -> int:
    if crash is None:
        return EXIT_OK
    return _CRASH_STATUS.get(crash.kind, EXIT_FORMAT)


def _write_text(path: str | None, text: str, args: argparse.Namespace) -> None:
    if path:
        Path(path).write_text(text)
    else:
        _say(args, text)


# ---------------------------------------------------------------------------
# record
# ---------------------------------------------------------------------------

def cmd_record(args: argparse.Namespace) -> int:
    seed = args.seed if args.seed is not None else args.rng_seed
    out = record(args.profile, seed, args.exits, noise_probability=args.noise)
    base = Path(args.out) if args.out else _out_dir() / (
        f"{args.profile.lower()}_{seed}"
    )
    base.parent.mkdir(parents=True, exist_ok=True)
    # Plain concatenation: the basename may contain dots of its own.
    trace_path = Path(f"{base}.iris")
    snap_path = Path(f"{base}.irisnap")
    save_trace(out.trace, trace_path)
    save_snapshot(out.start_snapshot, snap_path)
    histogram = reports.reason_histogram(out.trace)
    _say(args, f"recorded {len(out.trace.frames)} exits to {trace_path}")
    _say(args, reports.render_histogram(histogram))
    if out.result.crash is not None:
        print(
            f"recording stopped by {out.result.crash.kind}: "
            f"{out.result.crash.detail}",
            file=sys.stderr,
        )
    _emit_json(
        args,
        {
            "mode": ManagerMode.RECORD.value,
            "profile": args.profile,
            "workload_seed": seed,
            "exits_requested": args.exits,
            "frames": len(out.trace.frames),
            "record_cycles": out.record_cycles,
            "noise_probability": args.noise,
            "crash": _crash_json(out.result.crash),
            "trace": str(trace_path),
            "snapshot": str(snap_path),
            "histogram": [[name, n] for name, n in histogram],
        },
    )
    return _crash_status(out.result.crash)


def _crash_json(crash):
    if crash is None:
        return None
    return {"kind": crash.kind, "detail": crash.detail}


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------

def cmd_replay(args: argparse.Namespace) -> int:
    trace = load_trace(args.trace)
    snapshot = load_snapshot(getattr(args, "from")) if getattr(args, "from") else None
    replayer = Replayer(snapshot)
    result = replayer.replay_trace(trace)
    with_metrics = args.with_metrics or args.report is not None
    mode = ManagerMode.REPLAY_WITH_RECORD if with_metrics else ManagerMode.REPLAY

    summary = {
        "mode": mode.value,
        "trace": args.trace,
        "snapshot": getattr(args, "from"),
        "profile": trace.profile,
        "workload_seed": trace.workload_seed,
        "frames": len(trace.frames),
        "completed": result.frames_completed,
        "crash": _crash_json(result.crash),
        "divergences": len(result.divergences),
    }
    if with_metrics:
        acc = compute_accuracy(result)
        cycles = result.replay_clock
        # Both sides cover the same exits, even when the replay stopped early.
        record_cycles = sum(f.cycle_cost for f in trace.frames[:result.frames_completed])
        timeline = trace_timeline(trace)
        summary.update(
            {
                "block_fitting": acc.block_fitting,
                "write_exact_pct": acc.write_exact_pct,
                "recorded_blocks": acc.recorded_blocks,
                "replayed_blocks": acc.replayed_blocks,
                "diffs_total": acc.diffs_total,
                "noise_filtered": acc.noise_filtered,
                "diffs_by_reason": acc.diffs_by_reason,
                "fitting_curve": acc.fitting_curve,
                "trajectory": [m.name for m in trajectory_of_replay(result)],
                "mode_timeline": [[i, mode.name] for i, mode in timeline],
                "record_cycles": record_cycles,
                "replay_cycles": cycles,
                "throughput": dataclasses.asdict(
                    throughput(result.frames_completed, cycles)
                ),
                "speedup": speedup(record_cycles, cycles),
            }
        )
        _say(
            args,
            f"block fitting {acc.block_fitting:.1f}%  "
            f"vmwrite fitting {acc.write_exact_pct:.1f}%  "
            f"diffs {acc.diffs_total}  speedup {summary['speedup']:.2f}x",
        )
    if result.crash is not None:
        print(
            f"replay stopped at exit {result.frames_completed - 1} by "
            f"{result.crash.kind}: {result.crash.detail}",
            file=sys.stderr,
        )
    else:
        _say(args, f"replayed {result.frames_completed} of {len(trace.frames)} exits")
    if args.report:
        Path(args.report).parent.mkdir(parents=True, exist_ok=True)
        Path(args.report).write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n"
        )
    _emit_json(args, summary)
    return _crash_status(result.crash)


# ---------------------------------------------------------------------------
# fuzz
# ---------------------------------------------------------------------------

def cmd_fuzz(args: argparse.Namespace) -> int:
    config_path = Path(args.config)
    config = _read_json(config_path)
    out_dir = Path(args.out_dir) if args.out_dir else _out_dir()
    out_dir.mkdir(parents=True, exist_ok=True)
    results = fuzzer.run_config(
        config,
        base_dir=config_path.parent,
        artifact_root=out_dir,
        default_rng_seed=args.rng_seed,
    )
    payload = [r.to_json() for r in results]
    (out_dir / "campaigns.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    _say(args, reports.render_deltas(payload))
    for r in results:
        if r.skipped:
            _say(args, f"{r.name}: skipped ({r.skip_note})")
        else:
            _say(
                args,
                f"{r.name}: delta +{r.coverage_delta_pct:.1f}%  "
                f"VmCrash {r.failures.get('VmCrash', 0)}  "
                f"HypCrash {r.failures.get('HypCrash', 0)}",
            )
    _emit_json(args, payload)
    return EXIT_OK


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

# The keys each report kind reads from a JSON object, and their types: [t] is
# a list of t, (t, u) a two-item list, {str: t} an object of t; float also
# admits int, and bool is never an int.
_REPORT_KEYS = {
    "trajectory": {"mode_timeline": [(int, str)], "frames": int},
    "fitting": {"fitting_curve": [float]},
    "diffs": {"diffs_by_reason": {str: int}},
    "deltas": {"profile": str, "area": str, "reason": str, "coverage_delta_pct": float},
    "speedups": {"profile": str, "completed": int, "record_cycles": int,
                 "replay_cycles": int},
}


def _matches(value, spec) -> bool:
    if isinstance(spec, list):
        return isinstance(value, list) and all(_matches(v, spec[0]) for v in value)
    if isinstance(spec, tuple):
        return (isinstance(value, list) and len(value) == len(spec)
                and all(map(_matches, value, spec)))
    if isinstance(spec, dict):
        return isinstance(value, dict) and all(
            _matches(v, spec[str]) for v in value.values()
        )
    if isinstance(value, bool) or not isinstance(value, (int, float) if spec is float else spec):
        return False
    if isinstance(value, (int, float)):
        try:
            return math.isfinite(value)    # the reports do float arithmetic on every number
        except OverflowError:
            return False
    return True


def _read_json(path):
    """The JSON in `path`. NaN and Infinity are not JSON, and read as errors."""
    def non_finite(name):
        raise ValueError(f"{path}: {name} is not a JSON number")

    try:
        return json.loads(Path(path).read_text(), parse_constant=non_finite)
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply to read") from None


def _load_json(path: str, kind: str, many: bool = False):
    """A --replay report is one JSON object; a --campaigns file (many) is a
    list of them. Any other shape, or a key the `kind` report reads that is
    missing or mistyped, is a format error that names the file."""
    data = _read_json(path)
    items = data if many else [data]
    if not (isinstance(items, list) and all(isinstance(x, dict) for x in items)):
        shape = "a list of JSON objects" if many else "a JSON object"
        raise ValueError(f"{path} is not {shape}")
    for item in items:
        for key, spec in _REPORT_KEYS[kind].items():
            if key not in item:
                raise ValueError(f"{path}: key {key!r} is missing")
            if not _matches(item[key], spec):
                raise ValueError(f"{path}: key {key!r} has the wrong type or is not finite")
    return data


def cmd_report(args: argparse.Namespace) -> int:
    kind = args.kind
    fmt = args.format
    if fmt == "svg" and kind != "fitting":
        args.parser.error("svg output is only available for the fitting curve")
    if kind == "histogram":
        if not args.trace:
            args.parser.error("histogram needs --trace")
        trace = load_trace(args.trace)
        text = reports.render_histogram(reports.reason_histogram(trace), fmt)
    elif kind == "trajectory":
        if args.trace:
            trace = load_trace(args.trace)
            timeline = [(i, m.name) for i, m in trace_timeline(trace)]
            total = len(trace.frames)
        elif args.replay:
            summary = _load_json(args.replay[0], kind)
            timeline = [(i, name) for i, name in summary["mode_timeline"]]
            total = summary["frames"]
        else:
            args.parser.error("trajectory needs --trace or --replay")
        text = reports.render_trajectory(timeline, total, fmt)
    elif kind == "fitting":
        if not args.replay:
            args.parser.error("fitting needs --replay")
        summary = _load_json(args.replay[0], kind)
        text = reports.render_fitting(summary["fitting_curve"], fmt)
    elif kind == "diffs":
        if not args.replay:
            args.parser.error("diffs needs --replay")
        summary = _load_json(args.replay[0], kind)
        text = reports.render_diffs(summary["diffs_by_reason"], fmt)
    elif kind == "deltas":
        if not args.campaigns:
            args.parser.error("deltas needs --campaigns")
        text = reports.render_deltas(_load_json(args.campaigns, kind, many=True), fmt)
    else:  # speedups
        if not args.replay:
            args.parser.error("speedups needs at least one --replay")
        text = reports.render_speedups([_load_json(p, kind) for p in args.replay], fmt)
    _write_text(args.out, text, args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# gen-workload
# ---------------------------------------------------------------------------

def cmd_gen_workload(args: argparse.Namespace) -> int:
    seed = args.seed if args.seed is not None else args.rng_seed
    program = GuestProgram(PROFILES[args.profile], seed, args.exits)
    rows = [
        [str(i), op.reason.name, str(op.compute_cycles)]
        for i, op in enumerate(program.ops)
    ]
    text = "index,reason,compute_cycles\n" + "".join(
        ",".join(row) + "\n" for row in rows
    )
    _write_text(args.out, text, args)
    _emit_json(
        args,
        [
            {
                "index": i,
                "reason": op.reason.name,
                "compute_cycles": op.compute_cycles,
                "exit_fields": {
                    FIELD_TABLE[enc]: value
                    for enc, value in sorted(op.exit_fields.items())
                },
                "gprs": {
                    GprId(reg).name: value
                    for reg, value in sorted(op.gpr_values.items())
                },
            }
            for i, op in enumerate(program.ops)
        ],
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _count(text: str) -> int:
    value = int(text)
    if not 0 <= value < 1 << 32:    # the .iris frame count is a u32
        raise argparse.ArgumentTypeError("exit count must be in [0, 2**32)")
    return value


def _seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError("seed must be in [0, 2**64)")
    return value


def _probability(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:    # also false for nan
        raise argparse.ArgumentTypeError("probability must be a finite value in [0, 1]")
    return value


def _add_common(parser: argparse.ArgumentParser, suppress: bool) -> None:
    # The same flags hang off the main parser and every subparser, so they
    # work on either side of the subcommand. Subparser copies default to
    # SUPPRESS; otherwise they would overwrite a value parsed up front.
    d = argparse.SUPPRESS if suppress else None
    parser.add_argument(
        "--rng-seed", type=_seed,
        default=d if suppress else 0,
        help="default seed for commands that take none explicitly",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        default=d if suppress else False,
        help="suppress chatter",
    )
    parser.add_argument(
        "--json", action="store_true",
        default=d if suppress else False,
        help="print a JSON summary to stdout",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vmxrr",
        description="Record, replay, and fuzz VM exits on a simulated vCPU.",
    )
    _add_common(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    profiles = sorted(PROFILES)

    p = sub.add_parser("record", help="run a workload and record its exits")
    _add_common(p, suppress=True)
    p.add_argument("profile", choices=profiles)
    p.add_argument("exits", type=_count)
    p.add_argument("--seed", type=_seed, help="workload seed (defaults to --rng-seed)")
    p.add_argument("--noise", type=_probability, default=0.0,
                   help="async interrupt injection probability")
    p.add_argument("--out", help="output basename for .iris and .irisnap")
    p.set_defaults(func=cmd_record)

    p = sub.add_parser("replay", help="replay a recorded trace on a dummy VM")
    _add_common(p, suppress=True)
    p.add_argument("trace")
    p.add_argument("--from", dest="from", metavar="SNAPSHOT",
                   help="session snapshot to start from (default: fresh VM)")
    p.add_argument("--with-metrics", action="store_true",
                   help="compute accuracy and throughput while replaying")
    p.add_argument("--report", help="write the metrics summary JSON here")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("fuzz", help="run mutation campaigns from a config file")
    _add_common(p, suppress=True)
    p.add_argument("config", help="campaign config JSON")
    p.add_argument("--out-dir", help="where campaigns.json and artifacts go")
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("report", help="render saved artifacts as tables or charts")
    _add_common(p, suppress=True)
    p.add_argument(
        "kind",
        choices=["histogram", "trajectory", "fitting", "diffs", "deltas", "speedups"],
    )
    p.add_argument("--trace", help=".iris input")
    p.add_argument("--replay", action="append", default=[],
                   help="replay metrics JSON (repeatable)")
    p.add_argument("--campaigns", help="campaigns.json input")
    p.add_argument("--format", choices=["text", "csv", "svg"], default="text")
    p.add_argument("--out", help="write here instead of stdout")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("gen-workload", help="print a workload's exit script")
    _add_common(p, suppress=True)
    p.add_argument("profile", choices=profiles)
    p.add_argument("exits", type=_count)
    p.add_argument("--seed", type=_seed, help="workload seed (defaults to --rng-seed)")
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.set_defaults(func=cmd_gen_workload)

    return parser


def entry(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.parser = parser
    try:
        return args.func(args)
    except (TraceFormatError, fuzzer.FuzzError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT


if __name__ == "__main__":
    sys.exit(entry())
