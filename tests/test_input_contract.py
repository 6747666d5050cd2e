"""Malformed numbers in configs and chunk tables, chunk flags that are not
JSON bools and missing keys are config errors (exit 2)."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ditplan
from ditplan.cli import EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_OK, main
from ditplan.presets import reference_config_path

REFERENCE_PATH = reference_config_path()
REFERENCE = json.loads(REFERENCE_PATH.read_text())
CHUNK_TABLE = {"chunks": [{"name": "gelu", "coeff_bsh": 8, "fwd_latency_ms": 0.64}]}
# Every chunk-table key set, for the one-bad-field sweep.
FULL_CHUNK_TABLE = {
    "chunks": [
        {"name": "flash_attention", "coeff_bsh": 2, "coeff_bas": 64, "fwd_latency_ms": 127.5,
         "recomputable": True, "offloadable": True},
        {"name": "gelu", "coeff_bsh": 8, "coeff_bas": 0.0, "fwd_latency_ms": 0.64,
         "recomputable": True, "offloadable": False},
    ],
    "ref_batch": 1, "ref_seqlen": 115_200, "ref_hidden": 3072, "ref_heads": 24, "ref_tp": 8,
}
REMOVE = "<remove the key>"


def _replaced(doc, keys, value):
    """A copy of ``doc`` with the value at ``keys`` set to ``value``, or
    deleted when ``value`` is REMOVE."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in keys[:-1]:
        node = node[key]
    if value == REMOVE:
        del node[keys[-1]]
    else:
        node[keys[-1]] = value
    return doc


def _path(keys):
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys)[1:]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "keys, value",
    [
        (("cluster", "device_mem"), "x"),
        (("overlap", "efficiency"), None),
        (("stages", 0, "step_count"), "fast"),
        (("model", "param_count"), "big"),
        (("cluster", "device_mem"), math.inf),
        (("cluster", "inter_node_bw"), math.nan),
        (("overlap", "collective_latency_ms"), math.nan),
        (("cluster", "peak_flops_per_device"), math.inf),
        (("chunks", 0, "coeff_bsh"), "8"),
        (("chunks", 0, "coeff_bsh"), math.nan),
        (("ref_seqlen",), "long"),
        (("ref_seqlen",), 0),
        # A stage's name is read as any record key is, before the duplicate check.
        (("stages", 0, "name"), REMOVE),
        (("stages", 0, "name"), 7),
    ],
)
def test_malformed_number_is_config_error_naming_its_path(keys, value, tmp_path):
    path = tmp_path / "input.json"
    if keys[0] in ("chunks", "ref_seqlen"):
        path.write_text(json.dumps(_replaced(CHUNK_TABLE, keys, value)))
        argv = ["plan", "train", "--config", str(REFERENCE_PATH), "--chunk-table", str(path)]
    else:
        path.write_text(json.dumps(_replaced(REFERENCE, keys, value)))
        argv = ["plan", "train", "--config", str(path)]
    code, out, err = _run(argv)
    assert code == EXIT_CONFIG
    assert out == ""
    assert err.startswith(f"config error: {_path(keys)}: ")


@pytest.mark.parametrize("key", ["ref_seqlem", "chunk", "learning_rate"])
def test_chunk_table_unknown_top_level_key_is_config_error(key, tmp_path):
    """A chunk table holds ``chunks`` and the five ``ref_*`` keys; any other
    top-level key (a misspelt reference shape, say) is rejected at its name."""
    path = tmp_path / "chunks.json"
    path.write_text(json.dumps({**CHUNK_TABLE, key: 1000}))
    code, out, err = _run(["plan", "recompute", "--required-mb", "100", "--chunk-table", str(path)])
    assert code == EXIT_CONFIG
    assert out == ""
    assert err == f"config error: {key}: unknown key\n"


def test_stage_learning_rate_is_an_unknown_key(tmp_path):
    """Stages no longer take a learning rate: nothing read it."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_replaced(REFERENCE, ("stages", 3, "learning_rate"), 1e-4)))
    code, out, err = _run(["plan", "train", "--config", str(path)])
    assert code == EXIT_CONFIG
    assert out == ""
    assert err == "config error: stages[3].learning_rate: unknown key\n"


def test_extra_unpartitioned_layers_is_an_unknown_key(tmp_path):
    """The model no longer takes ``extra_unpartitioned_layers``: nothing but
    the input echo read it."""
    path = tmp_path / "config.json"
    doc = _replaced(REFERENCE, ("model", "extra_unpartitioned_layers"), ["patchify", "final_proj"])
    path.write_text(json.dumps(doc))
    code, out, err = _run(["plan", "train", "--config", str(path)])
    assert code == EXIT_CONFIG
    assert out == ""
    assert err == "config error: model.extra_unpartitioned_layers: unknown key\n"


@pytest.mark.parametrize("argv", [["plan", "recompute", "--required-mb", "100"],
                                  ["plan", "train", "--config", str(REFERENCE_PATH)]],
                         ids=["recompute", "train"])
def test_chunk_missing_required_key_is_config_error(argv, tmp_path):
    """A chunk without ``coeff_bsh`` is rejected at its path, not a traceback."""
    path = tmp_path / "chunks.json"
    path.write_text(json.dumps({"chunks": [{"name": "a"}]}))
    code, out, err = _run([*argv, "--chunk-table", str(path)])
    assert code == EXIT_CONFIG
    assert out == ""
    assert err == "config error: chunks[0].coeff_bsh: missing required key\n"


@pytest.mark.parametrize("key", ["recomputable", "offloadable"])
@pytest.mark.parametrize(
    "value", ["no", None, 0, 1, "true", [True]], ids=["no", "null", "0", "1", "string-true", "list"]
)
def test_chunk_flag_must_be_a_json_bool(key, value, tmp_path):
    """A chunk's recomputable/offloadable flag is true or false, never a
    value read by its truthiness."""
    path = tmp_path / "chunks.json"
    path.write_text(json.dumps(_replaced(CHUNK_TABLE, ("chunks", 0, key), value)))
    code, out, err = _run(["plan", "recompute", "--required-mb", "100", "--chunk-table", str(path)])
    assert code == EXIT_CONFIG
    assert out == ""
    assert err == f"config error: chunks[0].{key}: expected true or false\n"


@pytest.mark.parametrize(
    "key, value, code",
    [
        ("recomputable", True, EXIT_OK),
        ("recomputable", False, EXIT_INFEASIBLE),
        ("offloadable", True, EXIT_OK),
        ("offloadable", False, EXIT_OK),
    ],
)
def test_chunk_flag_bools_are_planned(key, value, code, tmp_path):
    path = tmp_path / "chunks.json"
    path.write_text(json.dumps(_replaced(CHUNK_TABLE, ("chunks", 0, key), value)))
    assert _run(["plan", "recompute", "--required-mb", "100", "--chunk-table", str(path)])[0] == code


@pytest.mark.parametrize(
    "keys, value, code",
    [
        (("cluster", "inter_node_bw"), 1e-300, EXIT_CONFIG),
        (("model", "param_count"), 1e308, EXIT_CONFIG),
        (("stages", 2, "video_bucket", 1), 4 * 10**160 + 1, EXIT_CONFIG),
        (("cluster", "devices_per_node"), 10**9, EXIT_OK),
    ],
    ids=["tiny-bandwidth", "huge-param-count", "huge-frames", "huge-node"],
)
def test_extreme_finite_input(keys, value, code, tmp_path):
    """Values far outside any real cluster or model are rejected at their
    path (they would overflow costs to Infinity or NaN, or overflow a
    float conversion), and a huge but accepted node size plans without
    walking every integer below it."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_replaced(REFERENCE, keys, value)))
    src = str(Path(ditplan.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "ditplan.cli", "plan", "train", "--config", str(path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
        timeout=60,
    )
    assert proc.returncode == code, proc.stderr
    assert "NaN" not in proc.stdout and "Infinity" not in proc.stdout
    if code == EXIT_CONFIG:
        assert proc.stdout == ""
        assert proc.stderr.startswith(f"config error: {_path(keys)}: ")


def _field_paths(node, prefix=()):
    """Every dict value and list element below the root, as key tuples."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _field_paths(value, prefix + (key,))


FIELD_PATHS = list(_field_paths(REFERENCE))
CHUNK_TABLE_PATHS = list(_field_paths(FULL_CHUNK_TABLE))


def _mutant(original, kind):
    """The replacement ``kind`` stands for, given the field's current value."""
    if not isinstance(kind, tuple):
        return kind
    if isinstance(original, bool) or not isinstance(original, (int, float)):
        return "x"
    scaled = original * kind[1]
    return round(scaled) if isinstance(original, int) and math.isfinite(scaled) else scaled


# A bad value, or ("scale", factor) for the field's own value times factor.
BAD_KINDS = st.one_of(
    st.sampled_from(["x", None, True, False, math.nan, math.inf, -math.inf, 0, -1]),
    st.one_of(
        st.floats(min_value=1e-3, max_value=1e3), st.sampled_from([1e-300, 1e300])
    ).map(lambda factor: ("scale", factor)),
)


def _mutated(doc, keys, kind):
    original = doc
    for key in keys:
        original = original[key]
    return _replaced(doc, keys, _mutant(original, kind))


@settings(max_examples=60, deadline=None)
@given(keys=st.sampled_from(FIELD_PATHS), kind=BAD_KINDS)
def test_one_bad_field_never_crashes_or_prints_non_finite(keys, kind):
    """Replace one field of the reference config with a string, null, bool,
    NaN, +-Infinity, 0, -1, or 1e-3..1e3, 1e-300 or 1e300 times its value
    (rounded for integers). ``plan train`` and ``simulate`` must exit 0,
    2, 3 or 4 and print no NaN or Infinity."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(_mutated(REFERENCE, keys, kind)))
        for argv in (["plan", "train"], ["simulate"]):
            code, out, _ = _run([*argv, "--config", str(path)])
            assert code in (0, 2, 3, 4)
            assert "NaN" not in out and "Infinity" not in out


@settings(max_examples=60, deadline=None)
@given(keys=st.sampled_from(CHUNK_TABLE_PATHS), kind=st.one_of(BAD_KINDS, st.just(REMOVE)))
def test_one_bad_chunk_table_field_never_crashes_or_prints_non_finite(keys, kind):
    """Replace one field of a chunk table as above, or remove it. ``plan
    recompute`` and ``plan train --chunk-table`` must exit 0, 2, 3 or 4 and
    print no NaN or Infinity."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "chunks.json"
        path.write_text(json.dumps(_mutated(FULL_CHUNK_TABLE, keys, kind)))
        for argv in (["plan", "recompute", "--required-mb", "400"],
                     ["plan", "train", "--config", str(REFERENCE_PATH)]):
            code, out, _ = _run([*argv, "--chunk-table", str(path)])
            assert code in (0, 2, 3, 4)
            assert "NaN" not in out and "Infinity" not in out
