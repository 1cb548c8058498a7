"""Command-line behavior: flows, exit statuses, and file outputs."""

import contextlib
import hashlib
import json
import re
import signal
import struct
from pathlib import Path

import pytest

from vmxrr import cli
from vmxrr.cli import (
    ENV_OUT_DIR,
    EXIT_FORMAT,
    EXIT_HYP_CRASH,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VM_CRASH,
    ManagerMode,
    entry,
)
from vmxrr.fuzzer import Mutation, apply_mutation, run_test_case
from vmxrr.recorder import load_trace, record, save_trace, seal
from vmxrr.rng import SplitMix64
from vmxrr.vmx import GUEST_RIP


# JSON nested far past the decoder's recursion limit.
_TOO_DEEP = "[" * 200000


class _Hang(BaseException):
    """Past a deadline; no handler in the CLI catches a BaseException."""


@contextlib.contextmanager
def _deadline(seconds):
    def expire(signum, frame):
        raise _Hang(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One recorded CpuBound workload shared by the read-only CLI tests."""
    path = tmp_path_factory.mktemp("cli")
    status = entry([
        "record", "CpuBound", "150", "--seed", "5",
        "--out", str(path / "cpu"), "--quiet",
    ])
    assert status == EXIT_OK
    return path


def test_record_writes_both_containers(workdir, capsys):
    assert (workdir / "cpu.iris").exists()
    assert (workdir / "cpu.irisnap").exists()
    trace = load_trace(workdir / "cpu.iris")
    assert trace.profile == "CpuBound"
    assert len(trace.frames) == 150


def test_record_reruns_are_byte_identical(tmp_path):
    for name in ("a", "b"):
        status = entry([
            "record", "OsBoot", "80", "--seed", "3",
            "--out", str(tmp_path / name), "--quiet",
        ])
        assert status == EXIT_OK
    assert (tmp_path / "a.iris").read_bytes() == (tmp_path / "b.iris").read_bytes()
    assert (
        (tmp_path / "a.irisnap").read_bytes()
        == (tmp_path / "b.irisnap").read_bytes()
    )


def test_record_default_name_honors_the_out_dir_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(ENV_OUT_DIR, str(tmp_path))
    status = entry(["record", "Idle", "40", "--seed", "2", "--quiet"])
    assert status == EXIT_OK
    assert (tmp_path / "idle_2.iris").exists()
    assert (tmp_path / "idle_2.irisnap").exists()


def test_record_prints_a_histogram(tmp_path, capsys):
    status = entry(["record", "CpuBound", "60", "--seed", "1",
                    "--out", str(tmp_path / "h")])
    assert status == EXIT_OK
    out = capsys.readouterr().out
    assert "recorded 60 exits" in out
    assert "RDTSC" in out
    assert "#" in out    # histogram bars


def test_record_json_summary(tmp_path, capsys):
    status = entry(["record", "CpuBound", "50", "--seed", "8",
                    "--out", str(tmp_path / "j"), "--quiet", "--json"])
    assert status == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["mode"] == ManagerMode.RECORD.value
    assert payload["frames"] == 50
    assert payload["crash"] is None
    assert payload["record_cycles"] > 0


def test_quiet_works_on_either_side_of_the_subcommand(tmp_path, capsys):
    entry(["--quiet", "record", "CpuBound", "10", "--seed", "1",
           "--out", str(tmp_path / "q1")])
    first = capsys.readouterr().out
    entry(["record", "CpuBound", "10", "--seed", "1",
           "--out", str(tmp_path / "q2"), "--quiet"])
    second = capsys.readouterr().out
    assert first == ""
    assert second == ""


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------

def test_replay_from_snapshot_succeeds(workdir, capsys):
    status = entry([
        "replay", str(workdir / "cpu.iris"), "--from", str(workdir / "cpu.irisnap"),
    ])
    assert status == EXIT_OK
    assert "replayed 150 of 150 exits" in capsys.readouterr().out


def test_replay_metrics_line_and_report(workdir, capsys):
    report = workdir / "metrics.json"
    status = entry([
        "replay", str(workdir / "cpu.iris"),
        "--from", str(workdir / "cpu.irisnap"),
        "--with-metrics", "--report", str(report),
    ])
    assert status == EXIT_OK
    out = capsys.readouterr().out
    assert "block fitting 100.0%" in out
    assert "vmwrite fitting 100.0%" in out
    assert "diffs 0" in out
    summary = json.loads(report.read_text())
    assert summary["mode"] == ManagerMode.REPLAY_WITH_RECORD.value
    assert summary["block_fitting"] == 100.0
    assert summary["completed"] == 150
    assert summary["speedup"] > 1.0
    assert summary["trajectory"] == ["MODE3"]
    assert len(summary["fitting_curve"]) == 150


def test_replay_without_snapshot_exits_vm_crash(workdir, capsys):
    status = entry(["replay", str(workdir / "cpu.iris")])
    assert status == EXIT_VM_CRASH
    err = capsys.readouterr().err
    assert "replay stopped at exit 0 by VmCrash: bad RIP for mode 0" in err


def test_replay_of_a_hypervisor_crash_artifact_exits_5(workdir, capsys):
    outcome = record("CpuBound", 5, 150)
    result = run_test_case(
        outcome.trace, outcome.start_snapshot, 0, "vmcs",
        mutants=400, rng_seed=0, artifact_dir=workdir / "artifacts",
    )
    hyp = next(c for c in result.crashes if c.kind == "HypCrash")
    meta_path = Path(hyp.artifact)
    meta = json.loads(meta_path.read_text())
    status = entry([
        "replay", str(meta_path.parent / meta["trace"]),
        "--from", str(meta_path.parent / meta["snapshot"]),
    ])
    assert status == EXIT_HYP_CRASH
    assert "HypCrash" in capsys.readouterr().err


def test_replay_missing_file_is_a_format_error(capsys):
    status = entry(["replay", "/nonexistent/never.iris"])
    assert status == EXIT_FORMAT
    assert "error:" in capsys.readouterr().err


def test_replay_corrupt_file_is_a_format_error(workdir, tmp_path, capsys):
    data = bytearray((workdir / "cpu.iris").read_bytes())
    data[len(data) // 2] ^= 0xFF
    bad = tmp_path / "bad.iris"
    bad.write_bytes(bytes(data))
    status = entry(["replay", str(bad)])
    assert status == EXIT_FORMAT
    assert "integrity" in capsys.readouterr().err


def test_replay_rejects_a_foreign_rng_tag_and_a_repeated_snapshot_field(
    workdir, tmp_path, capsys
):
    trace = (workdir / "cpu.iris").read_bytes()
    tag = trace.index(b"splitmix64")
    (tmp_path / "mt.iris").write_bytes(
        seal(trace[:tag] + b"mersenne19" + trace[tag + 10:-8])
    )
    snap = (workdir / "cpu.irisnap").read_bytes()[:-8]
    count_at = 4 + 2 + 8 + 1 + 3 * 8 + 19 + 15 * 8    # the u16 field count
    count = struct.unpack_from("<H", snap, count_at)[0]
    assert len(snap) == count_at + 2 + 9 * count
    (tmp_path / "dup.irisnap").write_bytes(seal(
        snap[:count_at] + struct.pack("<H", count + 1) + snap[count_at + 2:]
        + struct.pack("<BQ", GUEST_RIP, 0xDEAD)
    ))
    for argv, needle in (
        (["replay", str(tmp_path / "mt.iris")], "mersenne19"),
        (["replay", str(workdir / "cpu.iris"), "--from", str(tmp_path / "dup.irisnap")],
         "GUEST_RIP"),
    ):
        assert entry(argv) == EXIT_FORMAT
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and needle in err[0], err


# sha256 of each replay-side output for 120-exit recordings at seed 7: the
# --report JSON from a snapshot (OsBoot, OsBoot with noise 0.05, Idle) and
# from a fresh VM (Idle, which crashes at exit 0), the OsBoot replay of a trace
# whose exit 10 carries a flipped GUEST_RIP read (it diverges and goes on), and
# the report renderings made from them. The reports embed the paths as given,
# so they are relative.
_REPLAY_OUTPUTS = {
    "boot.json":
        "ec111e276b1e94359ea064a35461c1c5ec585025616f51782a489c4830945b4d",
    "noisy.json":
        "2b8075c2d7fb941769bfd734c363123e7c0c153d411b951a993ebbc1c267b21f",
    "idle.json":
        "804142ff0d3b0a88ff8059e6d16249c234f83aa066560c0b7333e4485c0283d7",
    "idle-fresh.json":
        "f8fff61020b6925eab7e371cf6b0533e80805cab196a4d5394fb3c9067f473ed",
    "speedups.txt":
        "c7633a58d866535a4772ff1a115f45e988ce70d94009ca2657e15ffb86275064",
    "trajectory-trace.txt":
        "f8e7b73f6eb70f28437dfe7be34924a9c0b4439c52f6623ed8819d5d4413ffa2",
    "trajectory-replay.txt":
        "f8e7b73f6eb70f28437dfe7be34924a9c0b4439c52f6623ed8819d5d4413ffa2",
    "fitting.svg":
        "8908a3ee35afb943963c31e3a064dbd5fbc067b5cc1de660f0568c73d50d6283",
    "rip.json":
        "0cf9347f9fc9bb9a0561c33da62c8550eb296712224609dbf4a307ff06c2d769",
}


def test_replay_outputs_are_byte_identical(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, profile, noise in (
        ("boot", "OsBoot", "0"), ("noisy", "OsBoot", "0.05"), ("idle", "Idle", "0"),
    ):
        assert entry(["record", profile, "120", "--seed", "7", "--noise", noise,
                      "--out", name, "--quiet"]) == EXIT_OK
        assert entry(["replay", f"{name}.iris", "--from", f"{name}.irisnap",
                      "--with-metrics", "--report", f"{name}.json", "--quiet"]) == EXIT_OK
    assert entry(["replay", "idle.iris", "--with-metrics",
                  "--report", "idle-fresh.json", "--quiet"]) == EXIT_VM_CRASH
    # The fresh-VM replay stops at exit 0, so both cycle counts cover only it.
    fresh = json.loads((tmp_path / "idle-fresh.json").read_text())
    assert fresh["completed"] == 1
    assert fresh["record_cycles"] == load_trace(tmp_path / "idle.iris").frames[0].cycle_cost
    capsys.readouterr()
    assert entry(["report", "speedups", "--replay", "idle-fresh.json"]) == EXIT_OK
    header, _, row = capsys.readouterr().out.splitlines()
    assert header.split()[:2] == ["profile", "exits"]
    assert row.split()[:2] == ["Idle", "1"]
    trace = load_trace(tmp_path / "boot.iris")
    frame = trace.frames[10]
    k = next(i for i, (encoding, _) in enumerate(frame.reads) if encoding == GUEST_RIP)
    trace.frames[10] = apply_mutation(frame, Mutation("vmcs", k, 4))
    save_trace(trace, tmp_path / "rip.iris")
    assert entry(["replay", "rip.iris", "--from", "boot.irisnap", "--with-metrics",
                  "--report", "rip.json", "--quiet"]) == EXIT_OK
    rip = json.loads((tmp_path / "rip.json").read_text())
    assert rip["divergences"] == 1
    assert rip["completed"] == 120
    for argv in (
        ["speedups", "--replay", "boot.json", "--replay", "noisy.json",
         "--replay", "idle.json", "--out", "speedups.txt"],
        ["trajectory", "--trace", "boot.iris", "--out", "trajectory-trace.txt"],
        ["trajectory", "--replay", "boot.json", "--out", "trajectory-replay.txt"],
        ["fitting", "--replay", "noisy.json", "--format", "svg", "--out", "fitting.svg"],
    ):
        assert entry(["report", *argv]) == EXIT_OK
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in _REPLAY_OUTPUTS
    }
    assert digests == _REPLAY_OUTPUTS


# ---------------------------------------------------------------------------
# usage errors
# ---------------------------------------------------------------------------

def test_unknown_profile_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        entry(["record", "Quake", "100"])
    assert exc.value.code == EXIT_USAGE


def test_negative_exit_count_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        entry(["record", "CpuBound", "-5"])
    assert exc.value.code == EXIT_USAGE


@pytest.mark.parametrize("command", ["record", "gen-workload"])
def test_exit_count_past_the_u32_frame_count_is_a_usage_error(command, tmp_path,
                                                              monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("started a workload")

    monkeypatch.setattr(cli, "record", never)
    monkeypatch.setattr(cli, "GuestProgram", never)
    with pytest.raises(SystemExit) as exc:
        entry([command, "CpuBound", str(2**32), "--out", str(tmp_path / "cpu")])
    assert exc.value.code == EXIT_USAGE
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "exit count must be in [0, 2**32)" in errors[0]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("noise", ["1.5", "-1", "nan"])
def test_noise_outside_zero_to_one_is_a_usage_error(noise, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        entry(["record", "CpuBound", "10", "--noise", noise,
               "--out", str(tmp_path / "cpu")])
    assert exc.value.code == EXIT_USAGE
    assert "probability" in capsys.readouterr().err
    assert not (tmp_path / "cpu.iris").exists()


@pytest.mark.parametrize("flag", ["--seed", "--rng-seed"])
@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_seed_outside_64_bits_is_a_usage_error(flag, seed, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        entry(["record", "CpuBound", "10", flag, seed, "--out", str(tmp_path / "cpu")])
    assert exc.value.code == EXIT_USAGE
    assert "seed must be in [0, 2**64)" in capsys.readouterr().err
    assert not (tmp_path / "cpu.iris").exists()


def test_missing_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        entry([])
    assert exc.value.code == EXIT_USAGE


def test_svg_is_only_for_the_fitting_curve(workdir, capsys):
    with pytest.raises(SystemExit) as exc:
        entry(["report", "histogram", "--trace", str(workdir / "cpu.iris"),
               "--format", "svg"])
    assert exc.value.code == EXIT_USAGE


def test_report_kinds_check_their_inputs(capsys):
    for argv in (
        ["report", "histogram"],
        ["report", "trajectory"],
        ["report", "fitting"],
        ["report", "diffs"],
        ["report", "deltas"],
        ["report", "speedups"],
    ):
        with pytest.raises(SystemExit) as exc:
            entry(argv)
        assert exc.value.code == EXIT_USAGE


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def test_report_histogram_csv(workdir, capsys):
    status = entry(["report", "histogram", "--trace", str(workdir / "cpu.iris"),
                    "--format", "csv"])
    assert status == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "reason,count"
    assert sum(int(l.split(",")[1]) for l in lines[1:]) == 150


def test_report_fitting_svg(workdir, capsys):
    metrics = workdir / "metrics.json"
    if not metrics.exists():
        entry(["replay", str(workdir / "cpu.iris"),
               "--from", str(workdir / "cpu.irisnap"),
               "--quiet", "--report", str(metrics)])
    status = entry(["report", "fitting", "--replay", str(metrics),
                    "--format", "svg", "--out", str(workdir / "curve.svg")])
    assert status == EXIT_OK
    svg = (workdir / "curve.svg").read_text()
    assert svg.startswith("<svg")
    assert "polyline" in svg


def test_report_trajectory_text(tmp_path, capsys):
    entry(["record", "OsBoot", "40", "--seed", "1",
           "--out", str(tmp_path / "boot"), "--quiet"])
    status = entry(["report", "trajectory", "--trace", str(tmp_path / "boot.iris")])
    assert status == EXIT_OK
    out = capsys.readouterr().out
    assert "MODE1" in out
    assert "MODE3" in out


@pytest.mark.parametrize(
    "kind,flag,content",
    [
        ("fitting", "--replay", [{"name": "rdtsc-vmcs"}]),
        ("trajectory", "--replay", [{"name": "rdtsc-vmcs"}]),
        ("deltas", "--campaigns", {"mode": "replay", "frames": 150}),
        ("deltas", "--campaigns", [1, 2]),
        ("speedups", "--replay", [1, 2]),
    ],
    ids=["fitting-campaigns", "trajectory-campaigns", "deltas-replay-report",
         "deltas-list-of-ints", "speedups-list-of-ints"],
)
def test_report_input_of_the_wrong_shape_is_a_format_error(
    kind, flag, content, tmp_path, capsys
):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content))
    assert entry(["report", kind, flag, str(path)]) == EXIT_FORMAT
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: {path} is not ")


@pytest.mark.parametrize(
    "kind,content,key",
    [
        ("fitting", {"fitting_curve": 5}, "fitting_curve"),
        ("fitting", {"fitting_curve": [1.0, [2]]}, "fitting_curve"),
        ("trajectory", {"mode_timeline": 3, "frames": 2}, "mode_timeline"),
        ("trajectory", {"mode_timeline": [[-1, "MODE3"]], "frames": "2"}, "frames"),
        ("diffs", {"diffs_by_reason": [1]}, "diffs_by_reason"),
        ("diffs", {}, "diffs_by_reason"),
        ("speedups", {"profile": "a", "completed": 1, "record_cycles": "x",
                      "replay_cycles": 2}, "record_cycles"),
        ("deltas", [{"profile": "a", "area": "gpr", "reason": 16,
                     "coverage_delta_pct": 0.0}], "reason"),
        ("fitting", {"fitting_curve": [10**400]}, "fitting_curve"),
        ("deltas", [{"profile": "a", "area": "gpr", "reason": "RDTSC",
                     "coverage_delta_pct": 10**400}], "coverage_delta_pct"),
        ("speedups", {"profile": "a", "completed": 1, "record_cycles": 10**400,
                      "replay_cycles": 2}, "record_cycles"),
        ("fitting", _TOO_DEEP, None),
        ("deltas", _TOO_DEEP, None),
        # Text, since json.dumps writes inf as Infinity: 1e400 reads as inf.
        ("fitting", '{"fitting_curve": [1e400, 2]}', "fitting_curve"),
        ("deltas", '[{"profile": "a", "area": "gpr", "reason": "RDTSC",'
                   ' "coverage_delta_pct": -1e400}]', "coverage_delta_pct"),
    ],
    ids=["fitting-int", "fitting-nested-list", "trajectory-int", "trajectory-frames-str",
         "diffs-list", "diffs-missing", "speedups-str-cycles", "deltas-int-reason",
         "fitting-past-float", "deltas-past-float", "speedups-past-float",
         "replay-too-deep", "campaigns-too-deep", "fitting-inf", "deltas-minus-inf"],
)
def test_report_input_with_a_mistyped_key_is_a_format_error(
    kind, content, key, tmp_path, capsys
):
    path = tmp_path / "input.json"
    path.write_text(content if isinstance(content, str) else json.dumps(content))
    flag = "--campaigns" if kind == "deltas" else "--replay"
    detail = "JSON nested too deeply to read" if key is None else f"key {key!r} "
    for fmt in ("text", "csv", "svg") if kind == "fitting" else ("text", "csv"):
        assert entry(["report", kind, flag, str(path), "--format", fmt]) == EXIT_FORMAT
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: {path}: {detail}")


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_constants_are_not_json(constant, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(f'{{"fitting_curve": [1e400, {constant}]}}')
    for argv in (["report", "fitting", "--replay", str(path), "--format", "svg"],
                 ["fuzz", str(path), "--out-dir", str(tmp_path)]):
        assert entry(argv) == EXIT_FORMAT
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"error: {path}: {constant} is not a JSON number"]


# ---------------------------------------------------------------------------
# fuzz
# ---------------------------------------------------------------------------

def test_fuzz_runs_a_config(workdir, tmp_path, capsys):
    config = {
        "campaigns": [
            {
                "name": "rdtsc-vmcs",
                "trace": "cpu.iris",
                "snapshot": "cpu.irisnap",
                "select": {"first_of_reason": "RDTSC"},
                "area": "vmcs",
                "mutants": 60,
            },
            {
                "name": "no-hlt",
                "trace": "cpu.iris",
                "snapshot": "cpu.irisnap",
                "select": {"first_of_reason": "HLT"},
                "area": "gpr",
            },
        ]
    }
    config_path = workdir / "fuzz.json"
    config_path.write_text(json.dumps(config))
    out_dir = tmp_path / "campaign-out"
    status = entry(["fuzz", str(config_path), "--out-dir", str(out_dir)])
    assert status == EXIT_OK
    out = capsys.readouterr().out
    assert "rdtsc-vmcs" in out
    assert "no-hlt: skipped (trace has no HLT exits)" in out
    saved = json.loads((out_dir / "campaigns.json").read_text())
    assert [c["name"] for c in saved] == ["rdtsc-vmcs", "no-hlt"]
    assert saved[0]["coverage_delta_pct"] > 0
    assert saved[1]["skipped"] is True


def test_fuzz_bad_config_is_a_format_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert entry(["fuzz", str(bad)]) == EXIT_FORMAT
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    assert entry(["fuzz", str(empty), "--out-dir", str(tmp_path)]) == EXIT_FORMAT


@pytest.mark.parametrize(
    "config", [[], "campaigns", {"campaigns": [[]]}], ids=["list", "string", "list-item"],
)
def test_fuzz_config_that_is_not_an_object_is_a_format_error(config, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    status = entry(["fuzz", str(path), "--out-dir", str(tmp_path)])
    assert status == EXIT_FORMAT
    assert "must be a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key,value,named",
    [
        ("select", 5, "select"),
        ("select", {"first_of_reason": None}, "first_of_reason"),
        ("select", {"first_of_reason": [1]}, "first_of_reason"),
        ("mutants", [1], "mutants"),
        ("rng_seed", None, "rng_seed"),
        ("trace", 5, "trace"),
        ("artifacts", 7, "artifacts"),
        ("select", {"first_of_reason": 999}, 999),
        ("select", {"first_of_reason": -1}, -1),
        ("select", {"first_of_reason": True}, "first_of_reason"),
        ("name", [1], "name"),
        ("name", None, "name"),
        ("rng_seed", 2**64, "rng_seed"),
        ("rng_seed", -1, "rng_seed"),
        ("config", _TOO_DEEP, None),
        ("mutants", 1e300, "mutants"),
        ("mutants", 2**32, "mutants"),
        ("mutants", 0, "mutants"),
        ("select", {"index": 150}, 150),
        ("select", {"index": -1}, -1),
        ("select", {"index": 1e300}, 1e300),
        ("rng_seed", 1e300, 1e300),
        ("select", {"index": True}, "index"),
        ("mutants", True, "mutants"),
        ("rng_seed", False, "rng_seed"),
        ("select", {"index": 2.7}, 2.7),
        ("mutants", 5.9, 5.9),
        ("rng_seed", 1.5, 1.5),
    ],
    ids=["select-int", "reason-null", "reason-list", "mutants-list",
         "rng-seed-null", "trace-int", "artifacts-int", "reason-unknown-code",
         "reason-negative", "reason-bool", "name-list", "name-null",
         "rng-seed-2-64", "rng-seed-negative", "config-too-deep",
         "mutants-1e300", "mutants-2-32", "mutants-zero",
         "index-past-end", "index-negative", "index-1e300", "rng-seed-1e300",
         "index-bool", "mutants-bool", "rng-seed-bool", "index-fraction",
         "mutants-fraction", "rng-seed-fraction"],
)
def test_fuzz_mistyped_config_value_is_a_format_error(
    key, value, named, workdir, tmp_path, capsys
):
    job = {
        "name": "typed",
        "trace": "cpu.iris",
        "snapshot": "cpu.irisnap",
        "select": {"first_of_reason": "RDTSC"},
        "area": "gpr",
        "mutants": 5,
        key: value,
    }
    path = workdir / f"typed-{key}.json"
    deep = value is _TOO_DEEP    # the whole file: json.dumps cannot nest that deep
    path.write_text(value if deep else json.dumps({"campaigns": [job]}))
    with _deadline(10):    # an unbounded mutant count would never end
        status = entry(["fuzz", str(path), "--out-dir", str(tmp_path)])
    assert status == EXIT_FORMAT
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    if deep:
        assert lines[0] == f"error: {path}: JSON nested too deeply to read"
        return
    # A name that is no string cannot label its campaign; the index does.
    prefix = "campaign 0" if key == "name" else "campaign 'typed'"
    assert lines[0].startswith(f"error: {prefix}: ")
    assert repr(named) in lines[0]


def test_fuzz_config_accepts_int_like_values(workdir, tmp_path, capsys):
    job = {
        "name": "lenient",
        "trace": "cpu.iris",
        "snapshot": "cpu.irisnap",
        "select": {"index": "3"},
        "area": "gpr",
        "mutants": "5",
        "rng_seed": 2.0,
    }
    path = workdir / "lenient.json"
    path.write_text(json.dumps({"campaigns": [job]}))
    status = entry(["fuzz", str(path), "--out-dir", str(tmp_path), "--quiet"])
    assert status == EXIT_OK
    saved = json.loads((tmp_path / "campaigns.json").read_text())
    assert (saved[0]["frame_index"], saved[0]["mutants"], saved[0]["rng_seed"]) == (3, 5, 2)


def test_bit_flipped_inputs_end_in_a_documented_status(tmp_path, monkeypatch):
    """Self-fuzz: one bit flipped per run in the .iris, the .irisnap or the
    campaign config. The binary containers get a fresh trailer, so mutants
    get past the integrity hash into the parsers. Then one bit flipped per
    run in a --report JSON or a campaigns.json, read by every report kind."""
    monkeypatch.chdir(tmp_path)
    assert entry(["record", "OsBoot", "40", "--seed", "7",
                  "--out", "boot", "--quiet"]) == EXIT_OK
    config = {"campaigns": [{
        "name": "cr", "trace": "boot.iris", "snapshot": "boot.irisnap",
        "select": {"first_of_reason": "CR_ACCESS"}, "area": "vmcs",
        "mutants": 20, "artifacts": "art",
    }]}
    originals = {
        "boot.iris": (tmp_path / "boot.iris").read_bytes(),
        "boot.irisnap": (tmp_path / "boot.irisnap").read_bytes(),
        "fuzz.json": json.dumps(config).encode(),
    }
    names = sorted(originals)
    rng = SplitMix64(4)
    statuses = set()
    for _ in range(100):
        target = names[rng.below(len(names))]
        data = bytearray(originals[target])
        binary = target != "fuzz.json"
        bit = rng.below(8 * (len(data) - 8 if binary else len(data)))
        data[bit // 8] ^= 1 << (bit % 8)
        if binary:
            data = seal(data[:-8])
        for name, original in originals.items():
            (tmp_path / name).write_bytes(bytes(data) if name == target else original)
        for argv in (
            ["replay", "boot.iris", "--from", "boot.irisnap", "--with-metrics"],
            ["fuzz", "fuzz.json", "--out-dir", "out"],
        ):
            status = entry([*argv, "--quiet"])
            assert status in {EXIT_OK, EXIT_USAGE, EXIT_FORMAT, EXIT_VM_CRASH,
                              EXIT_HYP_CRASH}, (target, bit, argv)
            statuses.add(status)
    assert {EXIT_OK, EXIT_FORMAT} <= statuses

    for name, original in originals.items():
        (tmp_path / name).write_bytes(original)
    assert entry(["replay", "boot.iris", "--from", "boot.irisnap", "--with-metrics",
                  "--report", "report.json", "--quiet"]) == EXIT_OK
    assert entry(["fuzz", "fuzz.json", "--out-dir", "out", "--quiet"]) == EXIT_OK
    inputs = [(tmp_path / "report.json").read_bytes(),
              (tmp_path / "out" / "campaigns.json").read_bytes()]
    statuses = set()
    for _ in range(40):
        data = bytearray(inputs[rng.below(len(inputs))])
        bit = rng.below(8 * len(data))
        data[bit // 8] ^= 1 << (bit % 8)
        (tmp_path / "input.json").write_bytes(bytes(data))
        for kind, flag in _REPORT_INPUTS:
            status = entry(["report", kind, flag, "input.json", "--out", "report.txt"])
            assert status in {EXIT_OK, EXIT_FORMAT}, (bytes(data), kind)
            statuses.add(status)
    assert statuses == {EXIT_OK, EXIT_FORMAT}


_REPORT_INPUTS = (("histogram", "--trace"), ("trajectory", "--replay"),
                  ("fitting", "--replay"), ("diffs", "--replay"),
                  ("deltas", "--campaigns"), ("speedups", "--replay"))

# A JSON string, or a JSON number outside any string.
_JSON_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?')
_NOT_JSON = ("NaN", "Infinity", "-Infinity")
_NUMBER_TEXTS = (*_NOT_JSON, "1e400", "1e300")


def test_number_text_in_json_inputs_ends_in_a_documented_status(tmp_path, monkeypatch):
    """Self-fuzz: one number of a campaign config, a --report JSON or a
    campaigns.json replaced by NaN, Infinity, -Infinity, 1e400 or 1e300.
    The first three are not JSON, so they always end in status 3; the
    others end in 0 or 3. No run may hang."""
    monkeypatch.chdir(tmp_path)
    assert entry(["record", "OsBoot", "40", "--seed", "7",
                  "--out", "boot", "--quiet"]) == EXIT_OK
    job = {"trace": "boot.iris", "snapshot": "boot.irisnap", "area": "vmcs"}
    config = {"campaigns": [
        {**job, "name": "cr", "select": {"first_of_reason": "CR_ACCESS"},
         "mutants": 20, "rng_seed": 3},
        {**job, "name": "idx", "select": {"index": 5}, "mutants": 10},
    ]}
    config_text = json.dumps(config, indent=2)
    Path("fuzz.json").write_text(config_text)
    assert entry(["fuzz", "fuzz.json", "--out-dir", "out", "--quiet"]) == EXIT_OK
    assert entry(["replay", "boot.iris", "--from", "boot.irisnap", "--with-metrics",
                  "--report", "report.json", "--quiet"]) == EXIT_OK
    inputs = {
        "config": config_text,
        "report": Path("report.json").read_text(),
        "campaigns": Path("out/campaigns.json").read_text(),
    }
    rng = SplitMix64(11)
    runs = 0
    for name, text in inputs.items():
        spans = [m.span() for m in _JSON_TOKEN.finditer(text) if m.group()[0] != '"']
        for number in _NUMBER_TEXTS:
            # Every number of the config; four drawn numbers of each report.
            picked = spans if name == "config" else [
                spans[rng.below(len(spans))] for _ in range(4)
            ]
            for start, end in picked:
                mutated = text[:start] + number + text[end:]
                if name == "config":
                    Path("fuzz.json").write_text(mutated)
                    argvs = [["fuzz", "fuzz.json", "--out-dir", "out"]]
                else:
                    Path("input.json").write_text(mutated)
                    argvs = [["report", kind, flag, "input.json", "--out", "report.txt"]
                             for kind, flag in _REPORT_INPUTS]
                for argv in argvs:
                    with _deadline(10):
                        status = entry([*argv, "--quiet"])
                    expected = {EXIT_FORMAT} if number in _NOT_JSON else {EXIT_OK, EXIT_FORMAT}
                    assert status in expected, (name, number, text[start:end], argv)
                    runs += 1
    assert runs > 100


# ---------------------------------------------------------------------------
# gen-workload
# ---------------------------------------------------------------------------

def test_gen_workload_csv(capsys):
    status = entry(["gen-workload", "CpuBound", "25", "--seed", "5"])
    assert status == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "index,reason,compute_cycles"
    assert len(lines) == 26
    assert lines[1].startswith("0,")


def test_gen_workload_json_dumps_the_ops(capsys):
    status = entry(["gen-workload", "OsBoot", "8", "--seed", "1",
                    "--quiet", "--json"])
    assert status == EXIT_OK
    ops = json.loads(capsys.readouterr().out)
    assert len(ops) == 8
    assert ops[3]["reason"] == "CR_ACCESS"
    assert "EXIT_QUALIFICATION" in ops[3]["exit_fields"]
    assert "R8" in ops[3]["gprs"]


def test_gen_workload_matches_the_recorded_reasons(workdir, capsys):
    entry(["gen-workload", "CpuBound", "150", "--seed", "5"])
    lines = capsys.readouterr().out.splitlines()[1:]
    script = [line.split(",")[1] for line in lines]
    trace = load_trace(workdir / "cpu.iris")
    from vmxrr.vmx import ExitReason
    recorded = [ExitReason(f.reason).name for f in trace.frames]
    assert recorded == script
