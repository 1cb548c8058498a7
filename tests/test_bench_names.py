"""The benchmark's per-layer names still name code in src.

bench/tracer.py wraps vmxrr's public functions and methods and names each
wrapper after what it wraps. If src renames or removes one, nothing fails:
the metric that names it just reads 0. So every span or call name that
BENCHMARK.json reports per layer, and every span an observer counts from,
must come out of the tracer's `_public_api()` plus `RENAMED`. The bench
files are only read here.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

import tracer  # noqa: E402

SPAN_SUFFIXES = ("self_s", "calls", "p50_us", "p99_us")

# The recorder's per-exit hooks were folded into Session.drive, so these two
# metrics read 0 already. Dropping them changes BENCHMARK.json, which waits
# for a change to the benchmark itself.
ALREADY_ZERO = {"recorder.begin_exit", "recorder.end_exit"}


def _produced_names() -> set[str]:
    """The names Tracer.install() would give its wrappers, without
    installing them."""
    api = list(tracer._public_api())    # imports the layer modules
    namespaces = [m for n, m in sys.modules.items() if n == "vmxrr" or n.startswith("vmxrr.")]
    names = set()
    for owner, _, member, name in api:
        if isinstance(owner, type):
            names.add(name)
            continue
        for ns in namespaces:
            for ref, value in vars(ns).items():
                if value is member:
                    names.add(tracer.RENAMED.get((tracer._short(ns.__name__), ref), name))
    return names


def _per_layer_span_names() -> set[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = set()
    for metric in spec["per_layer"]:
        base, _, suffix = metric["name"].rpartition(".")
        if suffix in SPAN_SUFFIXES and "." in base:    # not a whole-layer total
            names.add(base)
    return names


def test_every_per_layer_name_is_still_produced():
    wanted = _per_layer_span_names() | set(tracer.OBSERVERS)
    assert {"session.drive", "fuzzer.artifact", "vmx.vmread"} <= wanted    # the parse found them
    produced = _produced_names()
    assert sorted(wanted - produced - ALREADY_ZERO) == []
    # Once they come back or leave BENCHMARK.json, the allowance goes too.
    assert ALREADY_ZERO <= wanted - produced
