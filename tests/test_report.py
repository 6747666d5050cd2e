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
from ditplan.config import LAYOUT_RULES, load_config
from ditplan.memory import BUILTIN_CHUNKS
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
    "json": "cbaaa7ae56fc6cd5",
    "csv": "059b6cf501211708",
    "table": "2d81dd436dc84165",
}
SWEEP_REPORT_SHA256 = (
    "85ec44 d4c3de 0bd6b6 5d41be e1aeb8 f8ee62 da792e 49eeae ca3da6",
    "418dab 9caf6b e789fe 84a234 145c13 2ce6af edf9b0 36dc29 bfa1bf",
    "996486 fa5a3d 134bf8 acb87e 1b22c0 01459c c6f88b 35e356 986dd2",
    "d1d2f7 3f081c d65e74 6259ce 3c1503 00392d cc10bc 0c41c7 a70fcf",
    "8e0245 e9cc09 6b74f4 44bf54 33c675 604a17 eb8dbd 29d43d 34e137",
    "f0fac7 94b5fd a15951 1be857 3a3acc 7d40d9 b5baa2 9d7175 c30f73",
    "9f24bb a0aefc 621456 700369 71ccd0 78945a 912fb0 81b972 201b3d",
    "0cbf2b 73d3e9 6a1dcf 5d9928 75e8cc 980114 5d51e7 87536f 5049c8",
    "1adcc3 48430b 02c6f2 e4a8d4 6e5068 1f2300 bdfb14 4ee56e aaf5df",
    "05627a 37163e 16345c 06f05e 67b432 ebe100 cab289 ef7a25 a9b6e1",
    "a7429e 71eec8 395a69 a6d904 8ace2a d03862 fffd1d 51761d ba5192",
    "d378c5 1a3440 c91133 279ec7 e9dcfe 796b21 70c274 c6e63c 14ed20",
    "84ff83 15bc75 ca04c7 851800 a21d10 fa8048 db9484 da43ec e12311",
    "404dd2 73dca3 214172 26c8ce e9240f bd8f1c 36e218 556128 2d6ca1",
    "92a384 78419e cd6c60 1b0ff0 d60ed9 ff29ec 2f4bd0 e3737b d9391a",
    "bc87b5 642a26 2c64bc fdec6a 258302 c73e8d 9c0f15 50e19d 7c04af",
    "0cd996 d5c1a0 2b4edb e25c97 90f628 c6945f 86e7df e15262 9cd573",
    "2838f2 ba9b2c 884e08 0b91b9 53f338 c8c814 287aa6 5a8bd3 34870f",
    "f5aba5 26c5ee b779ca 89b357 6db5fe cec81e c59026 8a0c6b 38d148",
    "43f2a4 bb1c8f 084008 f2f2a3 c069ad 3ca672 b5aca1 bf7f38 c5e5da",
    "54345c 4c99e8 4dc24a 3bed08 85679f e5f473 fc9749 b75c10 799413",
    "f9e5bb 65b3cc bde308 937ae7 eb7313 308a2f 956dad d68dab 337d8f",
    "b9b074 75e349 d13768 bb00ad f31238 bafed0 12ca80 fd0cb3 1e86b6",
    "d0f98c 77f729 247bd5 fe6136 81f5bd 56363a c858c3 c78ce8 5fe47c",
    "594119 7c10a3 14db87 0ba507 7b3fdb 46ba38 37f2d3 b97134 d41c7c",
    "565627 7c1421 c764c1 522cc6 26b4bb 11adba 7a9b2e f5f7d6 4949de",
    "8f1fe4 e5bb0b e18a7f 7730e5 2c03b0 5371c0 0ef300 39288c 690980",
    "8d4cf0 7a952c a11d6f 22c46a 6bbe04 7eeb66 d7e1b4 c59fd2 41806c",
    "865f00 18d3fb e8abae 70753e 9cb3d4 d80c42 c6bd80 fa1708 b38a50",
    "a24587 6473d7 94f734 63f527 0ca5d5 65cfbc 2b529d a6602f b9af20",
    "0ad001 755670 8d8727 926834 0c54d8 32367d 385253 76266b 9700b3",
    "701545 cb7016 9c2298 1b04a1 dff95c ea16e4 88809f 767e9b bb999a",
    "ea146e 6d19c7 bc57c4 ac0b3b 990b12 1984ea 988b87 a5d619 7fdb31",
    "c1e3dc 1b2d1e 604639 0eeb26 680fc5 b55cf8 49887d c9afbe e9a3c9",
    "f41986 2cc361 026745 127dcd 722e9e c03f2b 732774 b4586c 29744a",
    "0d698d c5818e 0631d6 43470f b07991 fa2830 9f9e5a 78655a 10d650",
    "e9a174 1f213f 237c3a a9e638 2ca1cd 368809 a4ce6d da4248 b0e25c",
    "5f87d2 874b86 340b4e 559eac f4d06c 4fad96 f2851f 571be5 4c1c04",
    "852c9d f4ae6b d4caef 640414 04f3b1 c68268 6e67e5 42aee5 2f3043",
    "ecd2b1 a0225a 307806 9a300a 16e775 94227e 2b18e0 514d32 0d1d05",
)
CHUNK_TABLE_SHA256 = {
    "json": "5828671bddaa4f4d",
    "csv": "ef403842978f60f2",
    "table": "c5a3520720ae3933",
}
CHUNK_TABLE_REPORT_SHA256 = (
    "419e6e 9df0be 13ad02 642349 335bcf 7cd80e 5b16e2 5fda92 2826a5",
    "b7218a dc8f93 708a70 e3b13b b04a05 00d360 878395 f91e44 2bcb5b",
    "645fa3 a1ee4f 392ab7 99a32c 998b3d d2102d 2afbfc 5e68d7 cf7011",
    "fe9308 46f2fc 6e2a99 202fa0 61178d 47848f 84f817 9f063d 55ece6",
    "47612c 571dd7 1cc450 72d8bb 708a7a 26a5a9 0d426a 4d8dfb 2fe3a9",
    "1db969 7f5ea2 06e2d0 3d00e9 98aa51 37053d 1b9e27 fe4a56 990a80",
    "6af0fb 4ef602 48caa4 0d1345 62ada8 665837 4069af 012b3d ba4814",
    "6f5005 1a873f 1c5cff f4c1bf be49dc ad0c05 b51aa3 26f647 0c40f3",
    "a632e7 13bf15 f4d230 97b069 f17abc cce908 6875bd b0bec6 9c1415",
    "206273 9f7232 a98ba7 2dd305 f9f639 c32681 403ea6 6fcbe0 f54470",
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
    # tokens) shape and the param count per run: none of them is recomputed
    # for each candidate layout, and the enumerator reads the evaluator's
    # token count instead of its own.
    names = ("token_count", "flops_per_microstep", "resolved_param_count")
    counters = {name: _count_calls(monkeypatch, ("report", "comm"), name) for name in names}
    repeated = 0
    for seed in range(4):
        before = {name: count() for name, count in counters.items()}
        config = parse_config(sweep_config(seed))
        report = run_train_plan(config)
        calls = {name: count() - before[name] for name, count in counters.items()}
        buckets, shapes = len(report["stages"]), len(_shape_groups(config, report))
        repeated += buckets - shapes
        assert sum(len(s["plans"]) + len(s["infeasible"]) for s in report["stages"]) > buckets
        assert calls == dict(token_count=buckets, flops_per_microstep=shapes, resolved_param_count=1)
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
# stage's video bucket of 3,200 tokens, (tp, cp, dp)). Only a model whose
# heads do not divide H, which the model check also names, breaks "tp
# divides H" without "tp divides num_heads".
_RULE_BREAKERS = (
    ({"model": {"hidden_size": 3076}}, (8, 1, 2)),
    ({"cluster": {"devices_per_node": 16}}, (16, 1, 2)),
    ({}, (3, 1, 5)),
    ({}, (8, 1, 4)),
    ({}, (8, 2, 1)),
)


@pytest.mark.parametrize("rule", range(len(LAYOUT_RULES)))
def test_each_layout_rule_rejects_pinned_and_enumerated_alike(rule, tmp_path, capsys):
    # The enumerator never offers the layout. Pinned, a rule that needs no
    # bucket makes the config malformed (exit 2 naming the rule's message);
    # the CP gate, which reads the bucket, makes an infeasible entry.
    changes, layout = _RULE_BREAKERS[rule]
    doc = json.loads(reference_config_path().read_text())
    for section, values in changes.items():
        doc[section].update(values)
    doc["stages"] = [{"name": "short", "video_bucket": [1, 29, 320, 320]}]
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
