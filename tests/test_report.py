"""Report emission: the JSON writer, rounding at build time,
whole-report digests over seeded sweeps, and the guarantees the
evaluator gives every plan it ranks."""

import hashlib
import importlib
import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ditplan import ChunkSpec, ChunkTable, parse_config
from ditplan.buckets import Bucket, token_count
from ditplan.cli import EXIT_CONFIG, EXIT_INFEASIBLE, main
from ditplan.comm import cp_gate_and_comm, enumerate_parallel_configs
from ditplan.config import LAYOUT_RULES, ParallelConfig, load_config, resolved_param_count
from ditplan.memory import BUILTIN_CHUNKS, model_states_bytes, resident_states
from ditplan.presets import reference_config_path
from ditplan.report import OFFLOAD_MODES, dump, render, run_train_plan

from helpers import DEFICIT_DIAGNOSTIC, random_chunk_table, sweep_config

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
        for value in _floats(report):
            assert value == round(value, 3)
            assert repr(value) != "-0.0"
        for stage in report["stages"]:
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
# warm planning path cannot change a byte of any of these reports. The
# per-report prefixes (one string per seed; offload modes in
# OFFLOAD_MODES order, each json, csv, table) name the first report
# whose bytes moved.
SWEEP_SHA256 = {
    "json": "9fa5f5b38a203582",
    "csv": "059b6cf501211708",
    "table": "2d81dd436dc84165",
}
SWEEP_REPORT_SHA256 = (
    "4875ef d4c3de 0bd6b6 8ec2aa e1aeb8 f8ee62 d37c10 49eeae ca3da6",
    "49afba 9caf6b e789fe fc9c78 145c13 2ce6af ae4d2a 36dc29 bfa1bf",
    "dfa109 fa5a3d 134bf8 024b28 1b22c0 01459c 24e06c 35e356 986dd2",
    "ca49c6 3f081c d65e74 d74aed 3c1503 00392d 8fa37a 0c41c7 a70fcf",
    "386c61 e9cc09 6b74f4 8b240c 33c675 604a17 b783e9 29d43d 34e137",
    "49cead 94b5fd a15951 37483a 3a3acc 7d40d9 0e09c3 9d7175 c30f73",
    "93803f a0aefc 621456 61651f 71ccd0 78945a 9b3adf 81b972 201b3d",
    "79506e 73d3e9 6a1dcf c09bfd 75e8cc 980114 ce7fb5 87536f 5049c8",
    "67aa67 48430b 02c6f2 430bcf 6e5068 1f2300 487049 4ee56e aaf5df",
    "ccf4d7 37163e 16345c c14605 67b432 ebe100 e2c173 ef7a25 a9b6e1",
    "dcbcdf 71eec8 395a69 bb8e56 8ace2a d03862 c5846d 51761d ba5192",
    "1d950a 1a3440 c91133 81e24f e9dcfe 796b21 4f00b8 c6e63c 14ed20",
    "e469f2 15bc75 ca04c7 9b78fc a21d10 fa8048 e837a7 da43ec e12311",
    "c7ff62 73dca3 214172 a5b49a e9240f bd8f1c e35c1f 556128 2d6ca1",
    "c8edcd 78419e cd6c60 b42119 d60ed9 ff29ec 8eef88 e3737b d9391a",
    "2300cd 642a26 2c64bc 747dc8 258302 c73e8d 86dbe6 50e19d 7c04af",
    "731063 d5c1a0 2b4edb d61947 90f628 c6945f 9d2ef1 e15262 9cd573",
    "478ad9 ba9b2c 884e08 7f0556 53f338 c8c814 fc9b67 5a8bd3 34870f",
    "2bd89d 26c5ee b779ca 31103d 6db5fe cec81e 867566 8a0c6b 38d148",
    "88343c bb1c8f 084008 b4ba46 c069ad 3ca672 fd9551 bf7f38 c5e5da",
    "2c3097 4c99e8 4dc24a 8e8b6e 85679f e5f473 0f0ba4 b75c10 799413",
    "fc2e32 65b3cc bde308 ad574d eb7313 308a2f c2f803 d68dab 337d8f",
    "c61c02 75e349 d13768 4797d6 f31238 bafed0 1c7a13 fd0cb3 1e86b6",
    "8213e3 77f729 247bd5 0423cb 81f5bd 56363a 8de256 c78ce8 5fe47c",
    "04f00a 7c10a3 14db87 4fe087 7b3fdb 46ba38 c4c7a6 b97134 d41c7c",
    "a26930 7c1421 c764c1 59cd08 26b4bb 11adba 7a4821 f5f7d6 4949de",
    "0f8ee7 e5bb0b e18a7f 9a38f3 2c03b0 5371c0 a35eed 39288c 690980",
    "2c7471 7a952c a11d6f dd2a0c 6bbe04 7eeb66 e7d77a c59fd2 41806c",
    "941142 18d3fb e8abae 73c6e3 9cb3d4 d80c42 6d13b3 fa1708 b38a50",
    "cec25f 6473d7 94f734 853b59 0ca5d5 65cfbc 212c00 a6602f b9af20",
    "eb2a97 755670 8d8727 38166c 0c54d8 32367d cc565e 76266b 9700b3",
    "b76730 cb7016 9c2298 3aaf71 dff95c ea16e4 1d8a70 767e9b bb999a",
    "a908d0 6d19c7 bc57c4 d5e95d 990b12 1984ea c4b16a a5d619 7fdb31",
    "7d27e6 1b2d1e 604639 dc24e9 680fc5 b55cf8 704f5e c9afbe e9a3c9",
    "aa41b3 2cc361 026745 1d762a 722e9e c03f2b 2d1ec7 b4586c 29744a",
    "76e9fe c5818e 0631d6 1bf3ef b07991 fa2830 535b83 78655a 10d650",
    "3226e1 1f213f 237c3a 6ee295 2ca1cd 368809 639629 da4248 b0e25c",
    "921723 874b86 340b4e e41de9 f4d06c 4fad96 eca0ad 571be5 4c1c04",
    "dc0ca0 f4ae6b d4caef 1cb54f 04f3b1 c68268 38d291 42aee5 2f3043",
    "627a1a a0225a 307806 474351 16e775 94227e 57395e 514d32 0d1d05",
)
CHUNK_TABLE_SHA256 = {
    "json": "4c7d3de5883be599",
    "csv": "ef403842978f60f2",
    "table": "c5a3520720ae3933",
}
CHUNK_TABLE_REPORT_SHA256 = (
    "5e4ecf 9df0be 13ad02 e9a78c 335bcf 7cd80e 134496 5fda92 2826a5",
    "fa5a21 dc8f93 708a70 b45be6 b04a05 00d360 cdd8d4 f91e44 2bcb5b",
    "f9e0dc a1ee4f 392ab7 982079 998b3d d2102d cb21a0 5e68d7 cf7011",
    "6448c9 46f2fc 6e2a99 824b61 61178d 47848f b6dee0 9f063d 55ece6",
    "13c423 571dd7 1cc450 0ce84c 708a7a 26a5a9 8091cf 4d8dfb 2fe3a9",
    "6416db 7f5ea2 06e2d0 958240 98aa51 37053d 586486 fe4a56 990a80",
    "49cc89 4ef602 48caa4 d97d88 62ada8 665837 868972 012b3d ba4814",
    "0555d1 1a873f 1c5cff 0e10f6 be49dc ad0c05 71d0f7 26f647 0c40f3",
    "82afa7 13bf15 f4d230 446e5e f17abc cce908 c4c8a7 b0bec6 9c1415",
    "14376d 9f7232 a98ba7 560037 f9f639 c32681 f2ee99 6fcbe0 f54470",
)


def _assert_digests(reports, pinned, pinned_each):
    """``reports`` yields ((seed, mode), report). Checks the pinned digests
    over all reports, and each report's own prefix per format; a mismatch
    names the first (seed, mode, format) whose bytes moved."""
    hashes = {fmt: hashlib.sha256() for fmt in pinned}
    keys, each = [], []
    for key, report in reports:
        for fmt, digest in hashes.items():
            text = render(report, fmt).encode()
            digest.update(text)
            keys.append((*key, fmt))
            each.append(hashlib.sha256(text).hexdigest()[:6])
    expected_each = " ".join(pinned_each).split()
    moved = next((k for k, got, want in zip(keys, each, expected_each) if got != want), None)
    where = f"first report whose bytes moved (seed, mode, format): {moved}"
    assert {fmt: digest.hexdigest()[:16] for fmt, digest in hashes.items()} == pinned, where
    assert each == expected_each, where


def _chunk_table_case(seed):
    chunks, doc = random_chunk_table(seed)
    return parse_config(doc), ChunkTable(chunks=tuple(ChunkSpec(**c) for c in chunks))


def test_sweep_report_digests():
    configs = [parse_config(sweep_config(seed)) for seed in range(40)]
    reports = (((seed, m), run_train_plan(c, offload_mode=m))
               for seed, c in enumerate(configs) for m in OFFLOAD_MODES)
    _assert_digests(reports, SWEEP_SHA256, SWEEP_REPORT_SHA256)


def test_chunk_table_report_digests():
    def reports():
        for seed in range(10):
            config, table = _chunk_table_case(seed)
            for mode in OFFLOAD_MODES:
                yield (seed, mode), run_train_plan(config, chunks=table, offload_mode=mode)

    _assert_digests(reports(), CHUNK_TABLE_SHA256, CHUNK_TABLE_REPORT_SHA256)


def test_uncovered_deficit_reads_alike_without_activation_offload():
    # off and optimizer-only pick their recompute sets through
    # balance_strategies too, so an uncovered deficit reads as in auto.
    deficits = 0
    for seed in range(10):
        config, table = _chunk_table_case(seed)
        for mode in ("off", "optimizer-only"):
            report = run_train_plan(config, chunks=table, offload_mode=mode)
            for stage in report["stages"]:
                for entry in stage["infeasible"]:
                    if "deficit" in entry["diagnostic"]:
                        assert re.match(DEFICIT_DIAGNOSTIC, entry["diagnostic"]), entry["diagnostic"]
                        deficits += 1
    assert deficits > 0


# Per mode, the model states (GB) each layout keeps on device at 20 GB of
# device memory, where those states alone exceed it.
STATES_EXCEED_GB = {
    "auto": {1: 53.6, 2: 26.8},
    "off": {1: 67.0, 2: 40.2, 4: 26.8, 8: 20.1},
    "optimizer-only": {1: 53.6, 2: 26.8},
}


@pytest.mark.parametrize("mode", OFFLOAD_MODES)
def test_states_exceeding_device_memory_name_their_resident_total(mode):
    # A layout whose resident model states alone overflow the device reads
    # their total under the mode's last attempt, which offloads the optimizer
    # in every mode but off, and warns with that diagnostic.
    doc = json.loads(reference_config_path().read_text())
    doc["cluster"]["device_mem"] = 20e9
    config = parse_config(doc)
    P = resolved_param_count(config.model)
    report = run_train_plan(config, offload_mode=mode)
    seen = {}
    for stage in report["stages"]:
        for entry in stage["infeasible"]:
            if "alone exceed" not in entry["diagnostic"]:
                continue
            par = ParallelConfig(**entry["parallel"])
            resident = resident_states(model_states_bytes(P, config.dtypes, par), mode != "off")
            assert entry["diagnostic"] == (f"model states ({resident.total / 1e9:.1f} GB) alone "
                                           "exceed device memory (20.0 GB)")
            assert (f"{stage['stage']}/{stage['bucket_kind']} tp={par.tp} cp={par.cp} "
                    f"dp={par.dp}: {entry['diagnostic']}") in report["warnings"]
            seen[par.tp] = round(resident.total / 1e9, 1)
    assert seen == STATES_EXCEED_GB[mode]


def test_feasible_plans_fit_device_memory_with_disjoint_sets():
    # The step costing checks neither capacity nor overlap: the evaluator's
    # deficit arithmetic and its offload-then-recompute split guarantee both.
    cases = [(load_config(reference_config_path()), None)]
    cases += [(parse_config(sweep_config(seed)), None) for seed in range(40)]
    cases += [_chunk_table_case(seed) for seed in range(10)]
    plans = mixed = 0
    for config, table in cases:
        capacity_gb = round(config.cluster.device_mem / 1e9, 3)
        for mode in OFFLOAD_MODES:
            report = run_train_plan(config, chunks=table, offload_mode=mode)
            for stage in report["stages"]:
                for entry in stage["plans"]:
                    recomputed = set(entry["recompute"]["selected"])
                    offloaded = set(entry["offload"]["activation_set"])
                    memory = entry["memory"]
                    assert memory["peak_gb"] <= capacity_gb
                    assert not recomputed & offloaded
                    # One residency rule: offloaded optimizer states leave
                    # the device, and the peak is the sum of what stays.
                    assert (memory["optimizer_gb"] == 0.0) == entry["offload"]["optimizer_offloaded"]
                    parts = (memory["params_gb"] + memory["grads_gb"] + memory["optimizer_gb"]
                             + memory["activations_gb"])
                    assert abs(memory["peak_gb"] - parts) <= 0.0025
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
        for stage in report["stages"]
        for entry in stage["plans"] + stage["infeasible"]
    }
    assert 0 < numerators() <= len(BUILTIN_CHUNKS.chunks) * len(shards)
    assert sized() == 0


def _shape_groups(config, report):
    """Stage docs by their bucket's (batch, tokens) shape, in report order."""
    groups = {}
    for doc in report["stages"]:
        shape = (doc["bucket"][0], token_count(Bucket(*doc["bucket"]), config.model).tokens)
        groups.setdefault(shape, []).append(doc)
    return groups


def test_bucket_and_run_quantities_computed_once(monkeypatch):
    # The token shape is per bucket, the forward FLOPs per distinct (batch,
    # tokens) shape, the model states per (tp, dp, zero_stage) layout and the
    # param count per run: none of them is recomputed for each candidate
    # layout, and the enumerator reads the evaluator's token count instead of
    # its own.
    names = ("token_count", "flops_per_microstep", "resolved_param_count", "model_states_bytes")
    counters = {name: _count_calls(monkeypatch, ("report", "comm"), name) for name in names}
    repeated = 0
    for seed in range(6):
        before = {name: count() for name, count in counters.items()}
        config = parse_config(sweep_config(seed))
        report = run_train_plan(config)
        calls = {name: count() - before[name] for name, count in counters.items()}
        buckets, shapes = len(report["stages"]), len(_shape_groups(config, report))
        layouts = len({(e["parallel"]["tp"], e["parallel"]["dp"], e["parallel"]["zero_stage"])
                       for s in report["stages"] for e in s["plans"] + s["infeasible"]})
        repeated += buckets - shapes
        assert sum(len(s["plans"]) + len(s["infeasible"]) for s in report["stages"]) > buckets
        assert calls == dict(token_count=buckets, flops_per_microstep=shapes, resolved_param_count=1,
                             model_states_bytes=layouts)
    assert repeated > 0  # the seeds include stages that share a shape


@pytest.mark.parametrize("mode", OFFLOAD_MODES)
def test_stage_planned_alone_reads_as_in_the_full_report(mode):
    # A stage whose shape an earlier stage had reuses that stage's entries;
    # planned alone, it evaluates them itself. Both must read alike: each
    # stage's docs and its infeasible warnings, byte for byte.
    configs = [load_config(reference_config_path())]
    configs += [parse_config(sweep_config(seed)) for seed in range(12)]
    repeated = 0
    for config in configs:
        full = run_train_plan(config, offload_mode=mode)
        repeated += sum(len(docs) - 1 for docs in _shape_groups(config, full).values())
        imbalance = [w for w in full["warnings"] if w.startswith("bucket imbalance:")]
        docs, warnings = [], list(imbalance)
        for stage in config.stages:
            alone = run_train_plan(config._replace(stages=(stage,)), offload_mode=mode)
            assert alone["warnings"][: len(imbalance)] == imbalance
            docs += alone["stages"]
            warnings += alone["warnings"][len(imbalance):]
        assert [dump(doc) for doc in full["stages"]] == [dump(doc) for doc in docs]
        assert full["warnings"] == warnings
    assert repeated > 0


def _scribble(value):
    """Change every dict and list inside ``value`` in place."""
    if isinstance(value, dict):
        for item in list(value.values()):
            _scribble(item)
        value["scribbled"] = True
    elif isinstance(value, list):
        for item in value:
            _scribble(item)
        value.append("scribbled")


def test_stages_of_one_shape_share_no_mutable_entry():
    config = load_config(reference_config_path())
    groups = [docs for docs in _shape_groups(config, run_train_plan(config)).values()
              if len(docs) > 1]
    assert groups
    for docs in groups:
        for i, doc in enumerate(docs):
            others = [dump(other) for other in docs if other is not doc]
            _scribble(doc["plans"])
            _scribble(doc["infeasible"])
            assert [dump(other) for other in docs if other is not doc] == others, i


def _entries(report):
    """Each (stage, bucket kind, (tp, cp, dp))'s entry, feasible or not."""
    return {
        (stage["stage"], stage["bucket_kind"], (e["parallel"]["tp"], e["parallel"]["cp"],
                                                e["parallel"]["dp"])): e
        for stage in report["stages"]
        for e in stage["plans"] + stage["infeasible"]
    }


def _reference_doc_with_long_stage(num_nodes):
    """The reference config on ``num_nodes`` nodes plus a 253-frame 720p stage,
    whose 230,400 tokens pass the CP gate at cp=2."""
    doc = json.loads(reference_config_path().read_text())
    doc["cluster"]["num_nodes"] = num_nodes
    doc["stages"].append({"name": "long-253x720", "video_bucket": [1, 253, 720, 1280]})
    return doc


@pytest.mark.parametrize("tp, dp", [(1, 16), (2, 8), (4, 4), (8, 2)])
def test_pinned_layout_reports_the_enumerated_entry(tp, dp):
    # Every layout the enumerator yields at this tp, on one node and on the
    # reference two (where cp=1 leaves ``dp``), pinned, gives plan train's
    # enumerated entry field for field, zero_stage included, in every bucket
    # it was enumerated for; elsewhere it fails the CP gate. The long stage
    # adds cp=2 layouts, tp=8/cp=2/dp=1 among them.
    for num_nodes in (1, 2):
        doc = _reference_doc_with_long_stage(num_nodes)
        enumerated = _entries(run_train_plan(parse_config(doc)))
        devices = 8 * num_nodes
        layouts = {layout for _, _, layout in enumerated if layout[0] == tp}
        assert layouts == {(tp, cp, devices // (tp * cp)) for cp in (1, 2) if tp * cp <= devices}
        assert num_nodes == 1 or (tp, 1, dp) in layouts
        for layout in layouts:
            doc["parallel"].update(zip(("tp", "cp", "dp"), layout))
            pinned = _entries(run_train_plan(parse_config(doc)))
            assert {key[:2] for key in pinned} == {key[:2] for key in enumerated}
            for key, entry in pinned.items():
                if key in enumerated:
                    assert entry == enumerated[key]
                    assert entry["parallel"]["zero_stage"] == "optimizer-partitioned"
                else:
                    assert entry["diagnostic"].startswith("cp=2 rejected: ")


def test_pinned_cp4_whose_shards_fall_below_the_gate_is_infeasible():
    # 230,400 tokens pass the gate at cp=2 but not at cp=4, whose two
    # cp=2-sized shards hold 115,200 tokens each; pinned, it is rejected
    # with the gate's diagnostic, as the enumerator never offers it.
    doc = _reference_doc_with_long_stage(2)
    doc["stages"] = doc["stages"][-1:]
    doc["parallel"].update(tp=4, cp=4, dp=1)
    (stage,) = run_train_plan(parse_config(doc))["stages"]
    assert stage["plans"] == []
    (entry,) = stage["infeasible"]
    assert entry["diagnostic"] == (
        "cp=4 rejected: 230400 tokens split 2 ways is below the 200000 "
        "ultra-long-sequence threshold"
    )
    assert entry["diagnostic"] == cp_gate_and_comm(230_400, 1, 230_400, 3072, 4, 2, 50e9, 0.02).violation


# For each of the LAYOUT_RULES in order, a pinned layout on the reference
# config that breaks that rule alone: (config section changes, the one
# stage's video bucket, (tp, cp, dp)). Only a model whose heads do not
# divide H, which the model check also names, breaks "tp divides H" without
# "tp divides num_heads". A cp that is not a power of two needs a bucket
# whose 230,400 tokens pass the CP gate, or the gate breaks too.
_SHORT, _LONG = [1, 29, 320, 320], [1, 253, 720, 1280]
_RULE_BREAKERS = (
    ({"model": {"hidden_size": 3076}}, _SHORT, (8, 1, 2)),
    ({"cluster": {"devices_per_node": 16}}, _SHORT, (16, 1, 2)),
    ({}, _SHORT, (3, 1, 5)),
    ({}, _SHORT, (8, 1, 4)),
    ({}, _LONG, (4, 3, 1)),
    ({}, _SHORT, (8, 2, 1)),
)


@pytest.mark.parametrize("rule", range(len(LAYOUT_RULES)))
def test_each_layout_rule_rejects_pinned_and_enumerated_alike(rule, tmp_path, capsys):
    # The enumerator never offers the layout. Pinned, a rule that needs no
    # bucket makes the config malformed (exit 2 naming the rule's message);
    # the CP gate, which reads the bucket, makes an infeasible entry.
    changes, bucket, layout = _RULE_BREAKERS[rule]
    doc = json.loads(reference_config_path().read_text())
    for section, values in changes.items():
        doc[section].update(values)
    doc["stages"] = [{"name": "one", "video_bucket": bucket}]
    config = parse_config(doc)
    arch, cluster = config.model, config.cluster
    tokens = token_count(config.stages[0].video_bucket, arch).tokens_batch

    def broken(tokens_batch):
        return [i for i, (passes, _) in enumerate(LAYOUT_RULES)
                if not passes(arch, cluster, *layout, tokens_batch)]

    assert broken(tokens) == [rule]
    message = LAYOUT_RULES[rule][1](arch, cluster, *layout, tokens)
    enumerated = enumerate_parallel_configs(arch, cluster, tokens, "optimizer-partitioned", 1)
    assert enumerated and layout not in {(p.tp, p.cp, p.dp) for p in enumerated}
    doc["parallel"].update(zip(("tp", "cp", "dp"), layout))
    path, out = tmp_path / "pinned.json", tmp_path / "report.json"
    path.write_text(json.dumps(doc))
    code = main(["plan", "train", "--config", str(path), "--out", str(out)])
    if broken(None):
        assert code == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()
    else:
        assert code == EXIT_INFEASIBLE
        (stage,) = json.loads(out.read_text())["stages"]
        assert stage["plans"] == []
        assert [entry["diagnostic"] for entry in stage["infeasible"]] == [message]
