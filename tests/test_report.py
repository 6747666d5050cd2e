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
from ditplan.comm import cp_gate_and_comm
from ditplan.config import load_config
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
# warm planning path cannot change a byte of any of these reports. The
# per-report prefixes (one string per seed; offload modes in
# OFFLOAD_MODES order, each json, csv, table) name the first report
# whose bytes moved.
SWEEP_SHA256 = {
    "json": "cbaaa7ae56fc6cd5",
    "csv": "d5811dd5f136d2f7",
    "table": "2d81dd436dc84165",
}
SWEEP_REPORT_SHA256 = (
    "85ec44 cd1fe3 0bd6b6 5d41be 5373ce f8ee62 da792e a056f2 ca3da6",
    "418dab 2f6ada e789fe 84a234 965b5b 2ce6af edf9b0 58f02d bfa1bf",
    "996486 ed569a 134bf8 acb87e 2d7463 01459c c6f88b 5e92f2 986dd2",
    "d1d2f7 4acd8d d65e74 6259ce 99008f 00392d cc10bc f61a49 a70fcf",
    "8e0245 add7dd 6b74f4 44bf54 1b469e 604a17 eb8dbd 78c1db 34e137",
    "f0fac7 5ad173 a15951 1be857 cfd757 7d40d9 b5baa2 ad2e70 c30f73",
    "9f24bb ce00f3 621456 700369 a35efa 78945a 912fb0 c2bbe9 201b3d",
    "0cbf2b 275999 6a1dcf 5d9928 196b95 980114 5d51e7 6e496c 5049c8",
    "1adcc3 deef08 02c6f2 e4a8d4 650e6d 1f2300 bdfb14 d3d164 aaf5df",
    "05627a 350347 16345c 06f05e e854b8 ebe100 cab289 68212c a9b6e1",
    "a7429e 1fa936 395a69 a6d904 2b02b9 d03862 fffd1d 240174 ba5192",
    "d378c5 58dfa3 c91133 279ec7 4203c6 796b21 70c274 b2dd93 14ed20",
    "84ff83 644adf ca04c7 851800 c60618 fa8048 db9484 87cdf0 e12311",
    "404dd2 5c33a1 214172 26c8ce c7876d bd8f1c 36e218 97e9a6 2d6ca1",
    "92a384 23d9d7 cd6c60 1b0ff0 d55101 ff29ec 2f4bd0 adb4d2 d9391a",
    "bc87b5 00d9f2 2c64bc fdec6a 2113cf c73e8d 9c0f15 b275d2 7c04af",
    "0cd996 130120 2b4edb e25c97 42935f c6945f 86e7df a2a825 9cd573",
    "2838f2 541d89 884e08 0b91b9 4ef0e9 c8c814 287aa6 3ee7ae 34870f",
    "f5aba5 d98863 b779ca 89b357 92315f cec81e c59026 da70e0 38d148",
    "43f2a4 837b16 084008 f2f2a3 22f24c 3ca672 b5aca1 678b2d c5e5da",
    "54345c 92731f 4dc24a 3bed08 73fbf3 e5f473 fc9749 a9153f 799413",
    "f9e5bb 4e3f92 bde308 937ae7 017079 308a2f 956dad 549ca7 337d8f",
    "b9b074 5e4e2d d13768 bb00ad f49464 bafed0 12ca80 6180dc 1e86b6",
    "d0f98c fcb147 247bd5 fe6136 35071c 56363a c858c3 939f31 5fe47c",
    "594119 28773c 14db87 0ba507 e775b7 46ba38 37f2d3 84d608 d41c7c",
    "565627 d263ed c764c1 522cc6 8f5ca8 11adba 7a9b2e 080cf0 4949de",
    "8f1fe4 100476 e18a7f 7730e5 83036d 5371c0 0ef300 d21199 690980",
    "8d4cf0 3f643e a11d6f 22c46a 55628e 7eeb66 d7e1b4 b4ba1a 41806c",
    "865f00 ddc826 e8abae 70753e 041548 d80c42 c6bd80 5ed694 b38a50",
    "a24587 91046d 94f734 63f527 2302de 65cfbc 2b529d 7531de b9af20",
    "0ad001 d3b477 8d8727 926834 36a2f8 32367d 385253 7ab27b 9700b3",
    "701545 9e7fd8 9c2298 1b04a1 b6fab6 ea16e4 88809f e9f8e0 bb999a",
    "ea146e c2073f bc57c4 ac0b3b 306602 1984ea 988b87 d70024 7fdb31",
    "c1e3dc ed235b 604639 0eeb26 702605 b55cf8 49887d 446646 e9a3c9",
    "f41986 29c3c8 026745 127dcd ffb38f c03f2b 732774 57d9e7 29744a",
    "0d698d 9f8b63 0631d6 43470f 6be7f6 fa2830 9f9e5a f58955 10d650",
    "e9a174 20f297 237c3a a9e638 6b05b6 368809 a4ce6d 733e30 b0e25c",
    "5f87d2 fc8c83 340b4e 559eac d30ec4 4fad96 f2851f dd774a 4c1c04",
    "852c9d f35d76 d4caef 640414 def132 c68268 6e67e5 4c125e 2f3043",
    "ecd2b1 34a033 307806 9a300a 91e54a 94227e 2b18e0 a501bc 0d1d05",
)
CHUNK_TABLE_SHA256 = {
    "json": "5828671bddaa4f4d",
    "csv": "9328ba5fe0881fb5",
    "table": "c5a3520720ae3933",
}
CHUNK_TABLE_REPORT_SHA256 = (
    "419e6e 178f5a 13ad02 642349 34577f 7cd80e 5b16e2 087265 2826a5",
    "b7218a df4d7b 708a70 e3b13b d917fe 00d360 878395 33e9af 2bcb5b",
    "645fa3 56c5a5 392ab7 99a32c 2cbfae d2102d 2afbfc 4f6022 cf7011",
    "fe9308 04fa26 6e2a99 202fa0 745438 47848f 84f817 478c82 55ece6",
    "47612c 50b789 1cc450 72d8bb 41132a 26a5a9 0d426a 69a0cb 2fe3a9",
    "1db969 de3375 06e2d0 3d00e9 e7aaef 37053d 1b9e27 d0b552 990a80",
    "6af0fb 8c340d 48caa4 0d1345 2583f4 665837 4069af c11791 ba4814",
    "6f5005 144e44 1c5cff f4c1bf 854a35 ad0c05 b51aa3 5a42b4 0c40f3",
    "a632e7 e4d0ec f4d230 97b069 761446 cce908 6875bd 636bf6 9c1415",
    "206273 33c988 a98ba7 2dd305 d5e257 c32681 403ea6 6511e6 f54470",
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
            for stage in report.document["stages"]:
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
    # run: none of them is recomputed for each candidate layout, and the
    # enumerator reads the evaluator's token count instead of its own.
    names = ("token_count", "flops_per_microstep", "resolved_param_count")
    counters = {name: _count_calls(monkeypatch, ("report", "comm"), name) for name in names}
    for seed in range(4):
        before = {name: count() for name, count in counters.items()}
        report = run_train_plan(parse_config(sweep_config(seed)))
        calls = {name: count() - before[name] for name, count in counters.items()}
        buckets = len(report.document["stages"])
        assert sum(len(s["plans"]) + len(s["infeasible"]) for s in report.document["stages"]) > buckets
        per_bucket = dict(token_count=buckets, flops_per_microstep=buckets)
        assert calls == {**per_bucket, "resolved_param_count": 1}


def _entries(report):
    """Each (stage, bucket kind, (tp, cp, dp))'s entry, feasible or not."""
    return {
        (stage["stage"], stage["bucket_kind"], (e["parallel"]["tp"], e["parallel"]["cp"],
                                                e["parallel"]["dp"])): e
        for stage in report.document["stages"]
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
    (stage,) = run_train_plan(parse_config(doc)).document["stages"]
    assert stage["plans"] == []
    (entry,) = stage["infeasible"]
    assert entry["diagnostic"] == (
        "cp=4 rejected: 230400 tokens split 2 ways is below the 200000 "
        "ultra-long-sequence threshold"
    )
    assert entry["diagnostic"] == cp_gate_and_comm(230_400, 1, 230_400, 3072, 4, 2, 50e9, 0.02).violation
