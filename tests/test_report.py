"""Report emission: the JSON writer, rounding at build time,
whole-report digests over seeded sweeps, and the guarantees the
evaluator gives every plan it ranks."""

import hashlib
import importlib
import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from ditplan import ChunkSpec, ChunkTable, parse_config
from ditplan.config import load_config
from ditplan.memory import BUILTIN_CHUNKS
from ditplan.presets import reference_config_path
from ditplan.report import OFFLOAD_MODES, dump, render, run_train_plan

from helpers import random_chunk_table, sweep_config

class _Int(int):
    def __repr__(self):
        return "not json"


class _Str(str):
    def __str__(self):
        return "not json"


class _Float(float):
    def __repr__(self):
        return "not json"


# Subclass leaves (and bools, an int subclass) must take the emitter's
# isinstance path and keep json's bytes.
_scalars = (
    st.none()
    | st.booleans()
    | st.lists(st.booleans(), min_size=1, max_size=3)
    | st.integers(min_value=-(2**70), max_value=2**70).map(_Int)
    | st.text().map(_Str)
    | st.floats(allow_nan=True, allow_infinity=True).map(_Float)
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([0.0, -0.0, 1e-7, 1e16, math.nan, math.inf, -math.inf])
    | st.text()
    | st.sampled_from(["", "é€😀", 'say "hi"', "back\\slash", "\x00\x1f\t\n\r\x7f", " "])
)
_keys = st.text() | st.sampled_from(["", 'q"k', "\\", "\n", "ключ"])
_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_keys, inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=150, deadline=None)
@given(_values)
def test_dump_matches_json_dumps_indent_2(value):
    assert dump(value) == json.dumps(value, indent=2)


def test_dump_empty_containers():
    value = {"a": [], "b": {}, "c": (), "d": [[], {}, ()], "e": {"f": {}}}
    assert dump(value) == json.dumps(value, indent=2)
    assert dump([]) == "[]" and dump({}) == "{}" and dump(()) == "[]"


def _floats(value):
    if isinstance(value, float):
        yield value
    elif isinstance(value, dict):
        for item in value.values():
            yield from _floats(item)
    elif isinstance(value, list):
        for item in value:
            yield from _floats(item)


def _rounding_reports():
    configs = [load_config(reference_config_path())]
    configs += [parse_config(sweep_config(seed)) for seed in range(4)]
    for config in configs:
        for mode in OFFLOAD_MODES:
            yield run_train_plan(config, offload_mode=mode)


def test_document_floats_rounded_once_at_build():
    empty_sets = 0
    for report in _rounding_reports():
        for value in _floats(report.document):
            assert value == round(value, 3)
            assert repr(value) != "-0.0"
        for stage in report.document["stages"]:
            for entry in stage["plans"]:
                latency = entry["recompute"]["latency_ms_per_layer"]
                if entry["recompute"]["selected"]:
                    assert type(latency) is float
                else:
                    empty_sets += 1
                    assert type(latency) is int and latency == 0
    assert empty_sets > 0


# sha256 prefixes over 40 seeded sweep configs x 3 offload modes and 10
# seeded chunk tables x 3 modes, per format, pinned so that work on the
# warm planning path cannot change a byte of any of these reports.
SWEEP_SHA256 = {
    "json": "8dc0b05bffa34c61",
    "csv": "5a86fa24d0af7451",
    "table": "2d81dd436dc84165",
}
CHUNK_TABLE_SHA256 = {
    "json": "1a7c645660081e38",
    "csv": "859223019273bb13",
    "table": "ece54cbef347ced2",
}


def _digests(reports):
    hashes = {fmt: hashlib.sha256() for fmt in SWEEP_SHA256}
    for report in reports:
        for fmt, digest in hashes.items():
            digest.update(render(report, fmt).encode())
    return {fmt: digest.hexdigest()[:16] for fmt, digest in hashes.items()}


def test_sweep_report_digests():
    configs = [parse_config(sweep_config(seed)) for seed in range(40)]
    reports = (run_train_plan(c, offload_mode=m) for c in configs for m in OFFLOAD_MODES)
    assert _digests(reports) == SWEEP_SHA256


def test_chunk_table_report_digests():
    def reports():
        for seed in range(10):
            chunks, doc = random_chunk_table(seed)
            table = ChunkTable(chunks=tuple(ChunkSpec(**c) for c in chunks))
            config = parse_config(doc)
            for mode in OFFLOAD_MODES:
                yield run_train_plan(config, chunks=table, offload_mode=mode)

    assert _digests(reports()) == CHUNK_TABLE_SHA256


def test_feasible_plans_fit_device_memory_with_disjoint_sets():
    # The step costing checks neither capacity nor overlap: the evaluator's
    # deficit arithmetic and its offload-then-recompute split guarantee both.
    cases = [(load_config(reference_config_path()), None)]
    cases += [(parse_config(sweep_config(seed)), None) for seed in range(40)]
    for seed in range(10):
        chunks, doc = random_chunk_table(seed)
        cases.append((parse_config(doc), ChunkTable(chunks=tuple(ChunkSpec(**c) for c in chunks))))
    plans = mixed = 0
    for config, table in cases:
        capacity_gb = round(config.cluster.device_mem / 1e9, 3)
        for mode in OFFLOAD_MODES:
            report = run_train_plan(config, chunks=table, offload_mode=mode)
            for stage in report.document["stages"]:
                for entry in stage["plans"]:
                    recomputed = set(entry["recompute"]["selected"])
                    offloaded = set(entry["offload"]["activation_set"])
                    assert entry["memory"]["peak_gb"] <= capacity_gb
                    assert not recomputed & offloaded
                    plans += 1
                    mixed += bool(recomputed and offloaded)
    assert plans > 0 and mixed > 0


def _count_calls(monkeypatch, module_names, function_name):
    """Count calls of ``function_name`` through every listed ditplan module that binds it."""
    original = None
    calls = 0

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    for name in module_names:
        module = importlib.import_module(f"ditplan.{name}")
        if hasattr(module, function_name):
            original = original or getattr(module, function_name)
            monkeypatch.setattr(module, function_name, counted)
    return lambda: calls


def test_chunks_sized_once_per_candidate(monkeypatch):
    # Each chunk's byte numerator is computed at most once per (bucket, cp
    # shard); a candidate only divides it by its tp.
    numerators = _count_calls(
        monkeypatch, ("memory", "recompute", "offload", "report"), "chunk_bytes_numerator"
    )
    sized = _count_calls(
        monkeypatch, ("memory", "recompute", "offload", "report"), "chunk_retained_bytes"
    )
    report = run_train_plan(load_config(reference_config_path()))
    shards = {
        (stage["stage"], stage["bucket_kind"], entry["parallel"]["cp"])
        for stage in report.document["stages"]
        for entry in stage["plans"] + stage["infeasible"]
    }
    assert 0 < numerators() <= len(BUILTIN_CHUNKS.chunks) * len(shards)
    assert sized() == 0


def test_bucket_and_run_quantities_computed_once(monkeypatch):
    # The token shape and forward FLOPs are per bucket, the param count per
    # run: none of them is recomputed for each candidate layout.
    names = ("token_count", "flops_per_microstep", "resolved_param_count")
    counters = {name: _count_calls(monkeypatch, ("report",), name) for name in names}
    for seed in range(4):
        before = {name: count() for name, count in counters.items()}
        report = run_train_plan(parse_config(sweep_config(seed)))
        calls = {name: count() - before[name] for name, count in counters.items()}
        buckets = len(report.document["stages"])
        assert report.feasible_count + report.infeasible_count > buckets
        per_bucket = dict(token_count=buckets, flops_per_microstep=buckets)
        assert calls == {**per_bucket, "resolved_param_count": 1}
