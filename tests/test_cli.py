"""Command-line behavior: flows, exit statuses, and file outputs."""

import json
from pathlib import Path

import pytest

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
from vmxrr.fuzzer import run_test_case
from vmxrr.recorder import load_trace, record


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


@pytest.mark.parametrize("noise", ["1.5", "-1", "nan"])
def test_noise_outside_zero_to_one_is_a_usage_error(noise, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        entry(["record", "CpuBound", "10", "--noise", noise,
               "--out", str(tmp_path / "cpu")])
    assert exc.value.code == EXIT_USAGE
    assert "probability" in capsys.readouterr().err
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
    ],
    ids=["select-int", "reason-null", "reason-list", "mutants-list",
         "rng-seed-null", "trace-int", "artifacts-int"],
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
    path.write_text(json.dumps({"campaigns": [job]}))
    status = entry(["fuzz", str(path), "--out-dir", str(tmp_path)])
    assert status == EXIT_FORMAT
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: campaign 'typed': ")
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
