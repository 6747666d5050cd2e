import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ditplan
from ditplan.buckets import snap_bucket
from ditplan.cli import EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_OK, main
from ditplan.config import load_config
from ditplan.presets import reference_config_path
from ditplan.report import render, run_train_plan

SRC = Path(ditplan.__file__).resolve().parents[1]


def _python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports ditplan from this source tree."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )


@pytest.fixture()
def ref_config():
    return str(reference_config_path())


def test_plan_train_json(ref_config, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["plan", "train", "--config", ref_config, "--out", str(out)])
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["stages"]
    assert doc["input"]["model"]["fitted_fields"] == []  # raw file has no preset labels
    first = doc["stages"][0]["plans"][0]
    assert set(first) >= {"parallel", "recompute", "offload", "memory", "timing", "mfu"}


def test_plan_train_formats_agree_on_plan_count(ref_config, tmp_path):
    json_out = tmp_path / "r.json"
    csv_out = tmp_path / "r.csv"
    assert main(["plan", "train", "--config", ref_config, "--out", str(json_out)]) == EXIT_OK
    assert main(
        ["plan", "train", "--config", ref_config, "--out", str(csv_out), "--format", "csv"]
    ) == EXIT_OK
    doc = json.loads(json_out.read_text())
    plans = sum(len(s["plans"]) + len(s["infeasible"]) for s in doc["stages"])
    csv_rows = len(csv_out.read_text().splitlines()) - 1
    assert plans == csv_rows


def test_plan_train_byte_identical_runs(ref_config, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["plan", "train", "--config", ref_config, "--out", str(a)])
    main(["plan", "train", "--config", ref_config, "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_duplicate_stage_names_rejected(ref_config, tmp_path, capsys):
    doc = json.loads(Path(ref_config).read_text())
    doc["stages"].append(dict(doc["stages"][0]))
    config = _write_config(tmp_path, doc)
    last = len(doc["stages"]) - 1
    for argv in (["plan", "train"], ["simulate"]):
        assert main([*argv, "--config", config]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"stages[{last}].name: duplicate stage name 't2i-320'" in captured.err


def test_plan_train_infeasible_exit_code(tmp_path):
    config = json.loads(reference_config_path().read_text())
    config["cluster"]["device_mem"] = 1e6  # absurdly low
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "report.json"
    code = main(["plan", "train", "--config", str(path), "--out", str(out)])
    assert code == EXIT_INFEASIBLE
    doc = json.loads(out.read_text())  # report still emitted
    assert all(not s["plans"] for s in doc["stages"])
    assert doc["warnings"]


def test_plan_train_infeasible_message_names_infeasible_candidates(tmp_path, capsys):
    # The reference buckets' imbalance warnings come first in the report;
    # the exit-3 message skips them and names five infeasible candidates.
    doc = json.loads(reference_config_path().read_text())
    doc["cluster"]["device_mem"] = 1e9
    assert main(["plan", "train", "--config", _write_config(tmp_path, doc)]) == EXIT_INFEASIBLE
    captured = capsys.readouterr()
    warnings = json.loads(captured.out)["warnings"]
    assert warnings[0].startswith("bucket imbalance: ")
    reasons = [w for w in warnings if not w.startswith("bucket imbalance: ")]
    assert len(reasons) > 5
    assert captured.err == f"infeasible: no feasible plan; diagnostics: {'; '.join(reasons[:5])}\n"


def test_config_error_exit_code(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"model": {"hidden_size": 3072}, "cluster": {}, "quantum": 1}')
    assert main(["plan", "train", "--config", str(path)]) == EXIT_CONFIG


def test_missing_config_file_exit_code(tmp_path):
    assert main(["plan", "train", "--config", str(tmp_path / "absent.json")]) == EXIT_CONFIG


@pytest.mark.parametrize(
    "payload", [b"\xff\xfe{", b'{"model": ' + b"1" * 5000 + b"}"], ids=["bad-utf8", "long-int"]
)
def test_undecodable_config_exit_code(payload, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(payload)
    assert main(["plan", "train", "--config", str(path)]) == EXIT_CONFIG
    assert "invalid JSON" in capsys.readouterr().err


def test_unwritable_output_exit_code(ref_config, tmp_path):
    from ditplan.cli import EXIT_IO

    target = tmp_path / "somedir"
    target.mkdir()
    code = main(["plan", "train", "--config", ref_config, "--out", str(target)])
    assert code == EXIT_IO


def test_simulate_json_row_schema(ref_config, capsys):
    code = main(["simulate", "--config", ref_config, "--stage", "t2v-29x320"])
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    row = doc["stages"][0]
    # every key the benchmark's simulate check reads, plus the plan sections
    assert set(row) >= {"stage", "bucket_kind", "parallel", "recompute", "offload", "memory",
                        "timing", "mfu", "peak_gb", "tokens_per_batch"}
    assert row["timing"]["step_time_ms"] > 0


def test_plan_infer_schedule(capsys):
    code = main(["plan", "infer", "--steps", "50", "--warmup", "10", "--interval", "3"])
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["full_steps"] == 24
    assert doc["speedup"] == pytest.approx(1.639, abs=1e-3)


def test_plan_recompute_table(capsys):
    code = main(["plan", "recompute", "--required-mb", "400"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "gelu" in out and "gate" in out
    assert "feasible=True" in out


def test_plan_recompute_infeasible_exit(capsys):
    code = main(["plan", "recompute", "--required-mb", "99999"])
    assert code == EXIT_INFEASIBLE


def test_plan_windows(capsys):
    code = main(["plan", "windows", "--n-prime", "32", "--n", "8", "--stride", "4"])
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["num_clips"] == 7
    assert doc["clips"][0] == [0, 8]


def test_plan_windows_gap_rejected(capsys):
    assert main(["plan", "windows", "--n-prime", "32", "--n", "8", "--stride", "9"]) == EXIT_CONFIG


def test_plan_vae_tiles(capsys):
    code = main(
        [
            "plan",
            "vae-tiles",
            "--latent",
            "32,90,160",
            "--tile",
            "32,48,48",
            "--overlap",
            "0,8,8",
            "--devices",
            "8",
        ]
    )
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["num_tiles"] == len(doc["tiles"])
    assert doc["parallel_speedup"] > 1


def test_buckets_check(ref_config, capsys):
    code = main(["buckets", "check", "--config", ref_config, "--tolerance", "0.01"])
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert not doc["balanced"]  # the published batch-8 bucket is off by 2x
    labels = {tuple(b["bucket"]): b["tokens_per_batch"] for b in doc["buckets"]}
    assert labels[(1, 29, 640, 640)] == 12_800
    assert labels[(8, 29, 320, 320)] == 25_600
    snapped = {tuple(b["bucket"]): tuple(b["snapped"]) for b in doc["buckets"]}
    assert snapped[(1, 29, 480, 854)] == (1, 29, 480, 848)


def test_buckets_check_rejects_negative_tolerance(ref_config, capsys):
    argv = ["buckets", "check", "--config", ref_config, "--tolerance", "-1"]
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: --tolerance: must be >= 0, got -1.0\n"


def test_buckets_check_validates_config(tmp_path, capsys):
    doc = json.loads(reference_config_path().read_text())
    doc["model"]["num_heads"] = 7
    argv = ["buckets", "check", "--config", _write_config(tmp_path, doc)]
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "num_heads does not divide hidden_size" in captured.err


def test_simulate_stage_filter(ref_config, capsys):
    code = main(
        ["simulate", "--config", ref_config, "--stage", "joint-125x960", "--format", "csv"]
    )
    assert code == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("stage,")
    rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
    # image row first, then video in the 115,200-token regime
    assert [(r["stage"], r["bucket_kind"]) for r in rows] == [
        ("joint-125x960", "image"),
        ("joint-125x960", "video"),
    ]
    assert [int(r["tokens_per_batch"]) for r in rows] == [3600, 32 * 60 * 60]
    assert float(rows[1]["step_time_ms"]) > float(rows[0]["step_time_ms"])


def _write_config(tmp_path, doc, name="config.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
@pytest.mark.parametrize("stages", [True, False], ids=["reference", "stage-less"])
def test_simulate_matches_plan_train_at_same_layout(stages, fmt, tmp_path, capsys):
    doc = json.loads(reference_config_path().read_text())
    doc["parallel"].update(tp=8, cp=1, dp=2)
    if not stages:
        del doc["stages"]  # both subcommands plan each bucket as its own stage
    config = _write_config(tmp_path, doc)
    assert main(["simulate", "--config", config, "--format", fmt]) == EXIT_OK
    simulated = capsys.readouterr().out
    assert main(["plan", "train", "--config", config, "--format", fmt]) == EXIT_OK
    planned = capsys.readouterr().out
    if fmt != "json":
        # one renderer: the same bytes at the same layout
        assert simulated == planned
        return
    simulated, planned = json.loads(simulated), json.loads(planned)
    assert simulated["parallel"] == {"tp": 8, "cp": 1, "dp": 2}
    entries = {(s["stage"], s["bucket_kind"]): s["plans"] for s in planned["stages"]}
    assert len(simulated["stages"]) == len(entries)
    for row in simulated["stages"]:
        (entry,) = entries[(row["stage"], row["bucket_kind"])]
        assert row["timing"] == entry["timing"]
        assert row["memory"] == entry["memory"]
        assert row["recompute"]["selected"] == entry["recompute"]["selected"]
        assert row["offload"]["activation_set"] == entry["offload"]["activation_set"]
        assert (row["step_time_ms"], row["peak_gb"], row["mfu"]) == (
            entry["timing"]["step_time_ms"],
            entry["memory"]["peak_gb"],
            entry["mfu"],
        )


def test_simulate_default_tp_divides_the_head_count(tmp_path, capsys):
    # 12 heads rule out tp=8 on an 8-device node; simulate takes the largest
    # tp plan train enumerates (4) and reports plan train's tp=4/cp=1 entries.
    doc = json.loads(reference_config_path().read_text())
    doc["model"]["num_heads"] = 12
    config = _write_config(tmp_path, doc)
    assert main(["simulate", "--config", config]) == EXIT_OK
    simulated = json.loads(capsys.readouterr().out)
    devices = doc["cluster"]["num_nodes"] * doc["cluster"]["devices_per_node"]
    assert simulated["parallel"] == {"tp": 4, "cp": 1, "dp": devices // 4}
    assert main(["plan", "train", "--config", config]) == EXIT_OK
    planned = json.loads(capsys.readouterr().out)
    entries = {
        (s["stage"], s["bucket_kind"]): entry
        for s in planned["stages"]
        for entry in s["plans"]
        if (entry["parallel"]["tp"], entry["parallel"]["cp"]) == (4, 1)
    }
    assert len(simulated["stages"]) == len(entries) > 0
    for row in simulated["stages"]:
        entry = entries[(row["stage"], row["bucket_kind"])]
        assert {key: row[key] for key in entry} == entry


@pytest.mark.parametrize("command", [["simulate"], ["plan", "train"]])
def test_csv_quotes_stage_names(command, tmp_path, capsys):
    doc = json.loads(reference_config_path().read_text())
    doc["stages"] = [{**doc["stages"][0], "name": 't2i,"320"'}]
    argv = [*command, "--config", _write_config(tmp_path, doc), "--format", "csv"]
    assert main(argv) == EXIT_OK
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) >= 2
    assert {len(row) for row in rows} == {len(rows[0])}
    assert {row[0] for row in rows[1:]} == {'t2i,"320"'}


def test_simulate_validates_config(tmp_path, capsys):
    doc = json.loads(reference_config_path().read_text())
    doc["model"]["num_heads"] = 7
    assert main(["simulate", "--config", _write_config(tmp_path, doc)]) == EXIT_CONFIG
    assert "num_heads does not divide hidden_size" in capsys.readouterr().err


@pytest.mark.parametrize("tp, dp", [(3, 5), (6, 2)])
def test_pinned_tp_must_divide_devices_per_node(tp, dp, tmp_path, capsys):
    # Such a TP group would straddle two nodes while priced at intra_node_bw.
    doc = json.loads(reference_config_path().read_text())
    doc["parallel"].update(tp=tp, cp=1, dp=dp)
    assert main(["plan", "train", "--config", _write_config(tmp_path, doc)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"config: tp does not divide devices_per_node (8 % {tp} != 0)" in captured.err


def test_plan_train_rejects_empty_layer_stack(tmp_path, capsys):
    doc = json.loads(reference_config_path().read_text())
    doc["model"]["num_layers"] = 0
    assert main(["plan", "train", "--config", _write_config(tmp_path, doc)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "num_layers must be >= 1 to plan a step" in captured.err


def test_simulate_pinned_cp_below_gate_is_infeasible(tmp_path, capsys):
    doc = json.loads(reference_config_path().read_text())
    doc["parallel"].update(tp=8, cp=2, dp=1)
    argv = ["simulate", "--config", _write_config(tmp_path, doc), "--stage", "t2v-29x320"]
    assert main(argv) == EXIT_INFEASIBLE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "t2v-29x320/video 1x29x320x320: cp=2 rejected: 3200 tokens is below the 200000" in (
        captured.err
    )


def test_plan_train_stages_less_config_plans_snapped_buckets(tmp_path, capsys):
    doc = json.loads(reference_config_path().read_text())
    del doc["stages"]
    assert main(["plan", "train", "--config", _write_config(tmp_path, doc)]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert sum(len(s["plans"]) for s in report["stages"]) == 20
    by_name = {s["stage"]: s["bucket"] for s in report["stages"]}
    # the stage keeps the input label; the plan uses the snapped bucket
    assert by_name["bucket-{1,29,480,854}"] == [1, 29, 480, 848]


def test_stage_bucket_is_snapped_like_a_top_level_one(tmp_path, capsys):
    # A stage bucket is read as a top-level one: 854 snaps to 848 under
    # plan train and simulate alike, and plans as the 848 bucket would.
    doc = json.loads(reference_config_path().read_text())
    doc["stages"] = [{"name": "wide", "video_bucket": [1, 125, 480, 854]}]
    snapped = {**doc, "stages": [{"name": "wide", "video_bucket": [1, 125, 480, 848]}]}
    path = _write_config(tmp_path, doc)
    assert main(["plan", "train", "--config", path]) == EXIT_OK
    (stage,) = json.loads(capsys.readouterr().out)["stages"]
    assert stage["bucket"] == [1, 125, 480, 848]
    assert stage == run_train_plan(load_config(_write_config(tmp_path, snapped, "snapped.json")))[
        "stages"][0]
    assert main(["simulate", "--config", path]) == EXIT_OK
    (row,) = json.loads(capsys.readouterr().out)["stages"]
    assert row["bucket"] == [1, 125, 480, 848]


def test_reference_stage_buckets_are_already_snapped():
    config = load_config(reference_config_path())
    buckets = [bucket for stage in config.stages for _, bucket in stage.buckets()]
    assert len(buckets) == 14
    assert all(snap_bucket(bucket, config.model) is bucket for bucket in buckets)


@pytest.mark.parametrize(
    "keys, path",
    [(("stages", 2, "video_bucket"), "stages[2].video_bucket"), (("buckets", 1), "buckets[1]")],
)
def test_bucket_frames_the_vae_cannot_take_exit_2_at_their_path(keys, path, tmp_path, capsys):
    doc = json.loads(reference_config_path().read_text())
    node = doc
    for key in keys:
        node = node[key]
    node[1] = 30
    for argv in (["plan", "train"], ["simulate"], ["buckets", "check"]):
        assert main([*argv, "--config", _write_config(tmp_path, doc)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"config error: {path}: bucket.frames: frames-1 must be divisible "
                                "by the temporal ratio 4\n")


# sha256 prefixes of the reference report, pinned so that refactors of the
# planner cannot change a byte of it unnoticed.
REFERENCE_REPORT_SHA256 = {
    "json": "b24d4312d0737480",
    "csv": "2394011c2c62a02e",
    "table": "8d1126265f570187",
}


@pytest.mark.parametrize("fmt", sorted(REFERENCE_REPORT_SHA256))
def test_plan_train_reference_report_bytes(fmt):
    report = run_train_plan(load_config(reference_config_path()))
    digest = hashlib.sha256(render(report, fmt).encode()).hexdigest()
    assert digest.startswith(REFERENCE_REPORT_SHA256[fmt])


# sha256 prefixes of the other reference outputs, pinned the same way.
CLI_OUTPUT_SHA256 = {
    "simulate-json": (["simulate", "--config", "REF"], "b080c29c115971fc"),
    "simulate-csv": (["simulate", "--config", "REF", "--format", "csv"], "7b7d1d35a632c940"),
    "simulate-table": (["simulate", "--config", "REF", "--format", "table"], "c8572108e6fe878d"),
    "buckets-check": (["buckets", "check", "--config", "REF", "--tolerance", "0.01"], "b5721e04a1025678"),
    "plan-recompute": (["plan", "recompute", "--required-mb", "400"], "1f4bce15396049cc"),
}


@pytest.mark.parametrize("name", sorted(CLI_OUTPUT_SHA256))
def test_cli_reference_output_bytes(name, ref_config, capsys):
    argv, prefix = CLI_OUTPUT_SHA256[name]
    assert main([ref_config if a == "REF" else a for a in argv]) == EXIT_OK
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest.startswith(prefix)


# Valid calls of the subcommands that take neither --config nor --format,
# plus buckets check, which takes --config but always writes JSON.
_UNREAD_FLAG_CALLS = {
    "plan-infer": ["plan", "infer", "--steps", "10"],
    "plan-recompute": ["plan", "recompute", "--required-mb", "400"],
    "plan-windows": ["plan", "windows", "--n-prime", "32", "--n", "8", "--stride", "4"],
    "plan-vae-tiles": ["plan", "vae-tiles", "--latent", "8,64,64", "--tile", "4,32,32"],
    "buckets-check": ["buckets", "check", "--config", "REF"],
}


@pytest.mark.parametrize(
    "name, flag, value",
    [
        (name, flag, value)
        for name in sorted(_UNREAD_FLAG_CALLS)
        for flag, value in (("--config", "REF"), ("--format", "table"))
        if flag not in _UNREAD_FLAG_CALLS[name]
    ],
)
def test_unread_flags_are_usage_errors(name, flag, value, ref_config, capsys):
    argv = [*_UNREAD_FLAG_CALLS[name], flag, value]
    with pytest.raises(SystemExit) as exc:
        main([ref_config if a == "REF" else a for a in argv])
    assert exc.value.code == EXIT_CONFIG
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_simulate_unknown_stage(ref_config):
    assert main(["simulate", "--config", ref_config, "--stage", "nope"]) == EXIT_CONFIG


def test_emit_table_format(ref_config, capsys):
    code = main(["plan", "train", "--config", ref_config, "--format", "table"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "step_ms" in out and "mfu" in out


def test_emit_empty_report():
    empty = {"input": {}, "buckets": [], "stages": [], "warnings": []}
    parsed = json.loads(render(empty, "json"))
    assert parsed["stages"] == []
    csv_text = render(empty, "csv")
    assert csv_text.splitlines()[0].startswith("stage,")
    assert len(csv_text.splitlines()) == 1  # header only
    assert render(empty, "table")  # header lines, no rows


def test_python_m_runs_the_cli():
    proc = _python("-m", "ditplan.cli", "plan", "infer", "--steps", "10")
    assert proc.returncode == EXIT_OK, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["total_steps"] == 10
    assert doc["per_step_full"] == [1] * 10


# Modules no subcommand needs; each costs start-up time on every cold call.
_COLD_PROBE = """
import contextlib, io, json, sys
from ditplan.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
heavy = ("numpy", "concurrent.futures", "logging")
print(json.dumps({"code": code, "loaded": [m for m in heavy if m in sys.modules]}))
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["plan", "train", "--config", "REF"],
        ["plan", "infer", "--steps", "10"],
        ["plan", "recompute", "--required-mb", "400"],
        ["plan", "windows", "--n-prime", "32", "--n", "8", "--stride", "4"],
        ["plan", "vae-tiles", "--latent", "8,64,64", "--tile", "4,32,32", "--overlap", "0,8,8"],
        ["buckets", "check", "--config", "REF"],
        ["simulate", "--config", "REF", "--stage", "t2v-29x320"],
    ],
    ids=lambda argv: "-".join(a for a in argv[:2] if not a.startswith("-")),
)
def test_subcommands_load_no_numpy_or_thread_pool(argv, ref_config):
    argv = [ref_config if a == "REF" else a for a in argv]
    proc = _python("-c", _COLD_PROBE, *argv)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"code": EXIT_OK, "loaded": []}


# sys.modules is read before the probe imports json to print its answer.
_MODULES_PROBE = """
import contextlib, io, sys
from ditplan.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[2:])
loaded = set(sys.modules)
import json
ditplan = sorted(m for m in loaded if m == "ditplan" or m.startswith("ditplan."))
stdlib = {name: name in loaded for name in ("csv", "json", *sys.argv[1].split(","))}
print(json.dumps({"code": code, "ditplan": ditplan, **stdlib}))
"""
_CLI_CORE = ["ditplan", "ditplan.cli", "ditplan.emit", "ditplan.errors"]
# Standard-library modules no subcommand needs: the argument parser and the
# config records are built without argparse (and its gettext) or dataclasses
# (and its inspect).
_NEVER_LOADED = ["argparse", "gettext", "dataclasses", "inspect"]
_PLANNER = ["buckets", "comm", "config", "memory", "offload", "recompute", "report", "simulate"]


# Subcommand -> (argv, the ditplan modules it loads beyond _CLI_CORE).
_SUBCOMMAND_MODULES = {
    "plan-train": (["plan", "train", "--config", "REF"], _PLANNER),
    "plan-infer": (["plan", "infer", "--steps", "10"], ["inference"]),
    "plan-recompute": (["plan", "recompute", "--required-mb", "400"], ["memory", "recompute"]),
    "plan-windows": (["plan", "windows", "--n-prime", "32", "--n", "8", "--stride", "4"], ["inference"]),
    "plan-vae-tiles": (["plan", "vae-tiles", "--latent", "8,64,64", "--tile", "4,32,32"], ["inference"]),
    "buckets-check": (["buckets", "check", "--config", "REF"], ["buckets", "config"]),
    "simulate": (["simulate", "--config", "REF", "--stage", "t2v-29x320"], _PLANNER),
}


@pytest.mark.parametrize("subcommand", list(_SUBCOMMAND_MODULES))
def test_subcommands_import_only_their_modules(subcommand, ref_config):
    argv, modules = _SUBCOMMAND_MODULES[subcommand]
    argv = [ref_config if a == "REF" else a for a in argv]
    proc = _python("-c", _MODULES_PROBE, ",".join(_NEVER_LOADED), *argv)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["code"] == EXIT_OK
    assert result["ditplan"] == sorted(_CLI_CORE + [f"ditplan.{m}" for m in modules])
    assert result["csv"] == (modules == _PLANNER)
    # Only the subcommands that read a config file decode JSON.
    assert result["json"] == ("--config" in argv)
    assert {name: result[name] for name in _NEVER_LOADED} == dict.fromkeys(_NEVER_LOADED, False)


# numpy is a test-only dependency: with it unimportable, every exported
# name still resolves, every subcommand runs and the inference planners
# still give their weights and coverage.
_NO_NUMPY_PROBE = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
import ditplan
from ditplan.cli import main
unresolved = [name for name in ditplan.__all__ if getattr(ditplan, name, None) is None]
codes = {}
for name, argv in json.loads(sys.argv[1]).items():
    with contextlib.redirect_stdout(io.StringIO()):
        codes[name] = main(argv)
weights = ditplan.plan_vae_tiles((8, 64, 64), (4, 32, 32), (0, 8, 8)).blend_weights()
print(json.dumps({
    "unresolved": unresolved,
    "codes": codes,
    "weights": [len(axis) for axis in weights[0]],
    "coverage": ditplan.plan_temporal_windows(32, 8, 4).coverage,
}))
"""


def test_runs_without_numpy(ref_config):
    argvs = {
        name: [ref_config if a == "REF" else a for a in argv]
        for name, (argv, _) in _SUBCOMMAND_MODULES.items()
    }
    proc = _python("-c", _NO_NUMPY_PROBE, json.dumps(argvs))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "unresolved": [],
        "codes": dict.fromkeys(argvs, EXIT_OK),
        "weights": [4, 32, 32],
        "coverage": [1] * 4 + [2] * 24 + [1] * 4,
    }


_PACKAGE_PROBE = """
import json, sys
import ditplan
loaded = [m for m in sys.modules if m.startswith("ditplan.")]
star = {}
exec("from ditplan import *", star)
names = ditplan.__all__
homes = {name: sys.modules["ditplan." + ditplan._HOME[name]] for name in names}
try:
    ditplan.no_such_name
    missing = None
except AttributeError as exc:
    missing = str(exc)
print(json.dumps({
    "loaded_by_import": loaded,
    "names": len(names),
    "unique": len(set(names)) == len(names),
    "not_home": [n for n in names if getattr(ditplan, n) is not getattr(homes[n], n)],
    "not_starred": [n for n in names if star.get(n) is not getattr(homes[n], n)],
    "not_in_dir": sorted(set(names) - set(dir(ditplan))),
    "missing": missing,
}))
"""


def test_package_exports_are_lazy():
    proc = _python("-c", _PACKAGE_PROBE)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["loaded_by_import"] == []
    assert result["names"] == 65 and result["unique"]
    assert result["not_home"] == [] and result["not_starred"] == [] and result["not_in_dir"] == []
    assert "no_such_name" in result["missing"]


def test_plan_infer_steps_cap(capsys):
    from ditplan.inference import MAX_CACHE_STEPS

    assert main(["plan", "infer", "--steps", str(MAX_CACHE_STEPS + 1)]) == EXIT_CONFIG
    assert "cache.total_steps" in capsys.readouterr().err


def test_plan_windows_latent_cap(capsys):
    from ditplan.inference import MAX_WINDOW_LATENT

    argv = ["plan", "windows", "--n-prime", str(MAX_WINDOW_LATENT + 1), "--n", "8", "--stride", "4"]
    assert main(argv) == EXIT_CONFIG
    assert "windows.n_prime" in capsys.readouterr().err


def test_plan_vae_tiles_count_cap(capsys):
    from ditplan.inference import MAX_VAE_TILES

    argv = ["plan", "vae-tiles", "--latent", f"1,1,{MAX_VAE_TILES + 1}", "--tile", "1,1,1"]
    assert main(argv) == EXIT_CONFIG
    assert "vae.tile" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["plan", "train"], ["buckets", "check"], ["simulate"]],
                         ids=" ".join)
def test_bucket_count_cap(argv, tmp_path, capsys):
    from ditplan.buckets import MAX_BUCKETS

    doc = json.loads(reference_config_path().read_text())
    buckets = doc["buckets"] * (MAX_BUCKETS // len(doc["buckets"]) + 1)
    doc["buckets"] = buckets[:MAX_BUCKETS]
    assert main([*argv, "--config", _write_config(tmp_path, doc)]) == EXIT_OK
    capsys.readouterr()
    doc["buckets"] = buckets[:MAX_BUCKETS + 1]
    assert main([*argv, "--config", _write_config(tmp_path, doc)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"config error: buckets: {MAX_BUCKETS + 1} buckets exceed the cap "
                            f"of {MAX_BUCKETS}\n")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "argv, flag",
    [
        (["plan", "recompute"], "--required-mb"),
        (["buckets", "check", "--config", "REF"], "--tolerance"),
    ],
)
def test_non_finite_float_flags_rejected(argv, flag, value, ref_config, capsys):
    argv = [ref_config if a == "REF" else a for a in argv]
    assert main([*argv, f"{flag}={value}"]) == EXIT_CONFIG
    assert f"{flag}: expected a finite number" in capsys.readouterr().err


# The parser contract, leaf by leaf: leaf -> (a valid call, its required
# flags, every flag it takes, a flag with choices, an int or float flag).
_LEAF_CONTRACT = {
    "plan-train": (
        ["plan", "train", "--config", "REF"],
        ["--config"],
        ["--config", "--out", "--format", "--offload", "--chunk-table"],
        "--format",
        None,
    ),
    "plan-infer": (
        ["plan", "infer", "--steps", "10"],
        ["--steps"],
        ["--out", "--steps", "--warmup", "--interval", "--mode", "--cached-cost-fraction"],
        "--mode",
        ("--steps", "int"),
    ),
    "plan-recompute": (
        ["plan", "recompute", "--required-mb", "400"],
        ["--required-mb"],
        ["--out", "--required-mb", "--chunk-table"],
        None,
        ("--required-mb", "float"),
    ),
    "plan-windows": (
        ["plan", "windows", "--n-prime", "32", "--n", "8", "--stride", "4"],
        ["--n-prime", "--n", "--stride"],
        ["--out", "--n-prime", "--n", "--stride"],
        None,
        ("--n", "int"),
    ),
    "plan-vae-tiles": (
        ["plan", "vae-tiles", "--latent", "8,64,64", "--tile", "4,32,32"],
        ["--latent", "--tile"],
        ["--out", "--latent", "--tile", "--overlap", "--devices"],
        None,
        ("--devices", "int"),
    ),
    "buckets-check": (
        ["buckets", "check", "--config", "REF"],
        ["--config"],
        ["--config", "--out", "--tolerance"],
        None,
        ("--tolerance", "float"),
    ),
    "simulate": (
        ["simulate", "--config", "REF", "--stage", "t2v-29x320"],
        ["--config"],
        ["--config", "--out", "--format", "--stage", "--chunk-table"],
        "--format",
        None,
    ),
}


def _leaf_call(leaf, ref_config):
    return [ref_config if a == "REF" else a for a in _LEAF_CONTRACT[leaf][0]]


def _words(argv):
    return argv[: next(i for i, a in enumerate(argv) if a.startswith("-"))]


def _usage_error(argv, capsys) -> str:
    """stderr of a call that must be a usage error: SystemExit(2), usage and error lines."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: ")
    assert "error: " in captured.err
    return captured.err


@pytest.mark.parametrize(
    "leaf, flag",
    [(leaf, flag) for leaf, contract in _LEAF_CONTRACT.items() for flag in contract[1]],
)
def test_missing_required_flag_is_a_usage_error(leaf, flag, ref_config, capsys):
    argv = _leaf_call(leaf, ref_config)
    index = argv.index(flag)
    err = _usage_error(argv[:index] + argv[index + 2 :], capsys)
    assert "required" in err and flag in err


@pytest.mark.parametrize("leaf", list(_LEAF_CONTRACT))
def test_unknown_flag_is_a_usage_error(leaf, ref_config, capsys):
    err = _usage_error([*_leaf_call(leaf, ref_config), "--bogus", "1"], capsys)
    assert "unrecognized arguments: --bogus" in err


@pytest.mark.parametrize(
    "leaf", [leaf for leaf, contract in _LEAF_CONTRACT.items() if contract[4] is not None]
)
def test_bad_number_is_a_usage_error(leaf, ref_config, capsys):
    flag, kind = _LEAF_CONTRACT[leaf][4]
    err = _usage_error([*_leaf_call(leaf, ref_config), flag, "x"], capsys)
    assert f"argument {flag}: invalid {kind} value: 'x'" in err


@pytest.mark.parametrize(
    "leaf", [leaf for leaf, contract in _LEAF_CONTRACT.items() if contract[3] is not None]
)
def test_bad_choice_is_a_usage_error(leaf, ref_config, capsys):
    flag = _LEAF_CONTRACT[leaf][3]
    err = _usage_error([*_leaf_call(leaf, ref_config), flag, "bogus"], capsys)
    assert f"argument {flag}: invalid choice: 'bogus'" in err


@pytest.mark.parametrize("leaf", list(_LEAF_CONTRACT))
def test_equals_form_and_last_repeat_wins(leaf, ref_config, tmp_path, capsys):
    argv = _leaf_call(leaf, ref_config)
    assert main(argv) == EXIT_OK
    expected = capsys.readouterr().out
    joined = argv[:-2] + [f"{argv[-2]}={argv[-1]}"]
    assert main(joined) == EXIT_OK
    assert capsys.readouterr().out == expected
    first, last = tmp_path / "first.out", tmp_path / "last.out"
    assert main([*argv, "--out", str(first), f"--out={last}"]) == EXIT_OK
    assert capsys.readouterr().out == ""
    assert last.read_text() == expected
    assert not first.exists()


@pytest.mark.parametrize("leaf", list(_LEAF_CONTRACT))
@pytest.mark.parametrize("help_flag", ["-h", "--help"])
def test_leaf_help_names_every_flag(leaf, help_flag, ref_config, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*_words(_LEAF_CONTRACT[leaf][0]), help_flag])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for flag in _LEAF_CONTRACT[leaf][2]:
        assert flag in out


@pytest.mark.parametrize(
    "words, commands",
    [
        ([], ["plan", "buckets", "simulate"]),
        (["plan"], ["train", "infer", "recompute", "windows", "vae-tiles"]),
        (["buckets"], ["check"]),
    ],
    ids=["top", "plan", "buckets"],
)
def test_group_help_names_every_command(words, commands, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*words, "-h"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for command in commands:
        assert command in out


@pytest.mark.parametrize("argv", [[], ["plan"], ["buckets"], ["plan", "bogus"], ["bogus"]])
def test_missing_or_unknown_command_is_a_usage_error(argv, capsys):
    _usage_error(argv, capsys)


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--overlap", "-1,0,0", "vae.overlap[0]: need tile size > overlap >= 0"),
        ("--latent", "-8,64,64", "vae.latent[0]: latent dims must be >= 1"),
    ],
    ids=["overlap", "latent"],
)
def test_flag_value_may_start_with_a_dash(flag, value, message, capsys):
    values = {"--latent": "8,64,64", "--tile": "4,32,32", flag: value}
    argv = ["plan", "vae-tiles", *(token for pair in values.items() for token in pair)]
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {message}\n"
