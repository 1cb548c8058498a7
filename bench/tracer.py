"""Spans and counters around vmxrr's public API, installed from outside src/.

`Tracer.install()` replaces every public function and method of the layer
modules with a wrapper, in every vmxrr namespace that holds a reference to
it, so calls between modules are seen too. Two kinds of wrapper exist:

* span wrappers record (name, start, end, parent, workload, operation id);
* count wrappers only count calls. They go on leaf accessors that run many
  times per exit (vmread, hw_set, coverage hits, ...), where a span would
  cost more than the work it measures. Their time stays in the caller's
  self time.

Spans are kept in flat arrays and written out when the run ends. The
per-layer table is derived from them afterwards: a span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import enum
import functools
import gzip
import importlib
import inspect
import statistics
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter_ns

LAYERS = ("guest", "session", "hypervisor", "vmx", "recorder", "replayer", "fuzzer")

# Leaf accessors: counted, not timed.
COUNT_ONLY = frozenset({
    "vmx.vmread", "vmx.vmwrite", "vmx.hw_set", "vmx.hw_get",
    "vmx.read", "vmx.write", "vmx.copy",
    "vmx.classify_cr0_mode", "vmx.guest_cr0_view",
    "hypervisor.hit", "hypervisor.begin_frame", "hypervisor.end_frame",
    "hypervisor.popcount", "hypervisor.base_exit_cost", "hypervisor.recording_overhead",
    "recorder.pack", "recorder.clone",
    "fuzzer.detect_failure",
    "session.poll",
})

# Names that differ from <defining module>.<name>, keyed by the namespace
# that holds the reference. fnv1a64 lives in vmx but at run time only the
# recorder's container trailer calls it; the fuzzer's save_* calls are the
# crash-artifact writes.
RENAMED = {
    ("recorder", "fnv1a64"): "recorder.fnv1a64",
    ("fuzzer", "save_trace"): "fuzzer.artifact",
    ("fuzzer", "save_snapshot"): "fuzzer.artifact",
}


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


def _public_api():
    """Yield (owner, attr, function, span name) for each public function and
    method defined in a layer module; owner is a module or a class."""
    for layer in LAYERS:
        mod = importlib.import_module(f"vmxrr.{layer}")
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                yield mod, name, obj, f"{layer}.{name}"
            elif inspect.isclass(obj) and not issubclass(obj, (enum.Enum, BaseException)):
                for attr, member in list(vars(obj).items()):
                    if attr.startswith("_") or not (
                        inspect.isfunction(member) or isinstance(member, staticmethod)
                    ):
                        continue
                    yield obj, attr, member, f"{layer}.{attr}"
    # Building a guest program is done by its constructor.
    guest = importlib.import_module("vmxrr.guest")
    yield guest.GuestProgram, "__init__", guest.GuestProgram.__init__, "guest.program"


class Tracer:
    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.active = False
        self.op_id = 0
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.op_counts: dict[int, Counter] = {}
        self.mutations: set = set()
        self.op_mutations: dict[int, tuple[int, int]] = {}

    # -- recording -------------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.counts = self.op_counts[op_id] = Counter()
        self.mutations = set()
        self.active = True

    def end_op(self) -> None:
        self.active = False
        self.op_mutations[self.op_id] = (len(self.mutations), self.counts["fuzzer.mutants"])

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.start.append(0)
        self.end.append(0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t0: int, t1: int) -> None:
        self._stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1

    def _nid(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, name: str, fn, observe=None):
        nid = self._nid(name)
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            idx = tr._open(nid)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                tr._close(idx, t0, t1)
            if observe is not None:
                observe(tr, args, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tr.active:
                tr.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def stage(self, name: str):
        """Root span around one benchmark stage, so time outside any
        wrapped call is still attributed."""
        return _Stage(self, self._nid(name))

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        namespaces = [m for n, m in sys.modules.items() if n == "vmxrr" or n.startswith("vmxrr.")]
        for owner, attr, member, name in _public_api():
            if isinstance(owner, type):
                is_static = isinstance(member, staticmethod)
                fn = member.__func__ if is_static else member
                wrapped = self._wrap(name, fn)
                setattr(owner, attr, staticmethod(wrapped) if is_static else wrapped)
                continue
            for ns in namespaces:
                for ref, value in list(vars(ns).items()):
                    if value is member:
                        setattr(ns, ref, self._wrap(RENAMED.get((_short(ns.__name__), ref), name), member))

    def _wrap(self, name: str, fn):
        if name in COUNT_ONLY:
            return self.counter(name, fn)
        return self.span(name, fn, OBSERVERS.get(name))

    # -- derivation ------------------------------------------------------------

    def self_times(self) -> list[int]:
        n = len(self.start)
        child = [0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        return [end[i] - start[i] - child[i] for i in range(n)]

    def layer_table(self) -> dict[int, dict[str, list[int]]]:
        """Per operation: name -> [calls, self_ns]. Count-only names carry
        calls and no time."""
        table: dict[int, dict[str, list[int]]] = defaultdict(lambda: defaultdict(lambda: [0, 0]))
        for i, self_ns in enumerate(self.self_times()):
            row = table[self.op[i]][self.names[self.name_id[i]]]
            row[0] += 1
            row[1] += self_ns
        for op_id, counts in self.op_counts.items():
            for name, calls in counts.items():
                if name in COUNT_ONLY:
                    table[op_id][name][0] += calls
        return table

    def durations_us(self, name: str) -> list[float]:
        nid = self._name_ids.get(name)
        return [
            (self.end[i] - self.start[i]) / 1e3
            for i in range(len(self.start)) if self.name_id[i] == nid
        ]

    def write(self, path) -> None:
        """Spans as gzip CSV: id,name,start_ns,end_ns,parent,workload,op."""
        with gzip.open(path, "wt", encoding="ascii", newline="") as fh:
            fh.write("id,name,start_ns,end_ns,parent,workload,op\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.names[self.name_id[i]]},{self.start[i]},{self.end[i]},"
                    f"{self.parent[i]},{self.workload},{self.op[i]}\n"
                )


class _Stage:
    def __init__(self, tracer: Tracer, nid: int) -> None:
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        tr = self.tracer
        if tr.active:
            self.idx = tr._open(self.nid)
            self.t0 = perf_counter_ns()
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        if tr.active:
            tr._close(self.idx, self.t0, perf_counter_ns())
        return False


# -- observers: counters derived from arguments or results ---------------------

def _outcome(tr: Tracer, args, result) -> None:
    tr.counts[f"hypervisor.outcome.{result.outcome.name.lower()}"] += 1


def _mutation(tr: Tracer, args, result) -> None:
    tr.counts["fuzzer.mutants"] += 1
    tr.mutations.add((result.entry_index, result.bit))


def _written(tr: Tracer, args, result) -> None:
    tr.counts["recorder.bytes_written"] += len(result)


def _read(tr: Tracer, args, result) -> None:
    tr.counts["recorder.bytes_read"] += len(args[0])


OBSERVERS = {
    "hypervisor.handle_exit": _outcome,
    "fuzzer.mutate_random": _mutation,
    "recorder.trace_to_bytes": _written,
    "recorder.snapshot_to_bytes": _written,
    "recorder.trace_from_bytes": _read,
    "recorder.snapshot_from_bytes": _read,
}


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]
