"""Regenerate bench/golden.json, the reference outputs the benchmark checks.

For each listed (workload, seed, rng seed, exits, mutants) it runs one
operation of bench/run.py and stores the digests of the saved trace,
snapshot and campaign report, and the record and replay virtual cycles.
Run it only at a commit whose outputs are known to be right: a change to
this file's output is a change to the program's outputs.

    python3 bench/make_golden.py
"""

from __future__ import annotations

import json
import shutil
import sys

import run

SEEDS = range(100)


def cases():
    for name in run.WORKLOADS:
        for seed in SEEDS:
            yield name, seed, 0, run.DEFAULT_EXITS, run.DEFAULT_MUTANTS
        yield name, run.HELD_BACK_SEED, 1, run.DEFAULT_EXITS, run.DEFAULT_MUTANTS
        yield name, run.DEFAULT_SEED, 0, run.SELF_TEST_EXITS, run.SELF_TEST_MUTANTS


def main() -> int:
    run.OUT_DIR.mkdir(exist_ok=True)
    work = run.OUT_DIR / "golden-work"
    work.mkdir(exist_ok=True)
    golden = {}
    try:
        for name, seed, rng_seed, exits, mutants in cases():
            op = run.run_op(run.WORKLOADS[name], seed, rng_seed, exits, mutants, work)
            if op.semantic_failures:
                print(f"error: {name} seed {seed}: checks failed in {sorted(op.semantic_failures)}")
                return 1
            golden[run.golden_key(name, seed, rng_seed, exits, mutants)] = op.outputs
            print(run.golden_key(name, seed, rng_seed, exits, mutants), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
