import copy
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ditplan.buckets import Bucket
from ditplan.config import (
    ClusterSpec,
    DTypePolicy,
    ModelArch,
    OverlapConfig,
    ParallelConfig,
    ParallelSection,
    PlanningConfig,
    StageScenario,
    estimate_param_count,
    load_config,
    parse_config,
    resolved_param_count,
    validate,
)
from ditplan.errors import ConfigError
from ditplan.presets import REFERENCE_CLUSTER, TABLE2_FIT, reference_config_path
from ditplan.report import run_train_plan


def test_validate_clean_config():
    arch = ModelArch(hidden_size=3072, num_heads=24, num_layers=54)
    par = ParallelConfig(tp=8, cp=1, dp=2)
    assert validate(arch, REFERENCE_CLUSTER, par) == []


def test_validate_tp_divisibility():
    arch = ModelArch(hidden_size=3072, num_heads=24, num_layers=54)
    par = ParallelConfig(tp=7, cp=1, dp=1)
    violations = validate(arch, REFERENCE_CLUSTER, par)
    assert any("tp does not divide H" in v for v in violations)


def test_validate_device_overcommit():
    arch = ModelArch(hidden_size=3072, num_heads=24, num_layers=54)
    cluster = ClusterSpec(
        num_nodes=4,
        devices_per_node=8,
        device_mem=64e9,
        peak_flops_per_device=312e12,
        intra_node_bw=200e9,
        inter_node_bw=50e9,
        pcie_bw_per_device=25e9,
        host_write_bw_per_numa=80e9,
        devices_per_numa=4,
        host_mem=2e12,
    )
    par = ParallelConfig(tp=8, cp=2, dp=4)  # 64 devices on a 32-device cluster
    violations = validate(arch, cluster, par)
    assert any("device overcommit" in v for v in violations)


def test_validate_deterministic_order():
    arch = ModelArch(hidden_size=3073, num_heads=24, num_layers=2)
    par = ParallelConfig(tp=7, cp=4, dp=4)
    first = validate(arch, REFERENCE_CLUSTER, par)
    second = validate(arch, REFERENCE_CLUSTER, par)
    assert first == second and len(first) >= 2


def test_validate_rejects_empty_layer_stack():
    # ModelArch accepts 0 layers (a parameter estimate of an empty stack is
    # meaningful); planning a step for one is not.
    arch = ModelArch(hidden_size=3072, num_heads=24, num_layers=0)
    par = ParallelConfig(tp=8, cp=1, dp=2)
    assert validate(arch, REFERENCE_CLUSTER, par) == ["num_layers must be >= 1 to plan a step"]


def test_adaln_subtotal_exceeds_3b_for_dedicated_mode():
    # 54 blocks x 6 x 3072^2 = 3.057e9 dedicated modulation parameters
    est = estimate_param_count(TABLE2_FIT)
    assert est.adaln == 54 * 6 * 3072**2
    assert est.adaln > 3e9


def test_adaln_shared_mode_is_single_module():
    arch = ModelArch(hidden_size=3072, num_heads=24, num_layers=54, adaln_mode="shared-weights")
    est = estimate_param_count(arch)
    assert est.adaln == 6 * 3072**2


def test_param_estimate_empty_stack():
    arch = ModelArch(hidden_size=3072, num_heads=24, num_layers=0)
    est = estimate_param_count(arch)
    assert est.transformer == 0
    assert est.total == est.adaln + est.embedding_head


def test_supplied_param_count_wins():
    assert resolved_param_count(TABLE2_FIT) == 13.4e9


@given(
    h=st.sampled_from([512, 1024, 2048, 3072]),
    layers=st.integers(min_value=0, max_value=80),
    mult=st.integers(min_value=1, max_value=8),
)
def test_param_estimate_monotone(h, layers, mult):
    base = ModelArch(hidden_size=h, num_heads=8, num_layers=layers, ffn_multiplier=mult)
    est = estimate_param_count(base)
    bigger_l = estimate_param_count(
        ModelArch(hidden_size=h, num_heads=8, num_layers=layers + 1, ffn_multiplier=mult)
    )
    bigger_h = estimate_param_count(
        ModelArch(hidden_size=2 * h, num_heads=8, num_layers=layers, ffn_multiplier=mult)
    )
    bigger_m = estimate_param_count(
        ModelArch(hidden_size=h, num_heads=8, num_layers=layers, ffn_multiplier=mult + 1)
    )
    assert bigger_l.total > est.total
    assert bigger_h.total > est.total
    assert bigger_m.total >= est.total  # equal only when layers == 0


def _minimal_doc():
    return {
        "model": {"hidden_size": 3072, "num_heads": 24, "num_layers": 54},
        "cluster": {
            "num_nodes": 2,
            "devices_per_node": 8,
            "device_mem": 64e9,
            "peak_flops_per_device": 312e12,
            "intra_node_bw": 200e9,
            "inter_node_bw": 50e9,
            "pcie_bw_per_device": 25e9,
            "host_write_bw_per_numa": 80e9,
            "devices_per_numa": 4,
            "host_mem": 2e12,
        },
    }


def test_parse_minimal_config():
    config = parse_config(_minimal_doc())
    assert config.model.hidden_size == 3072
    assert config.dtypes == DTypePolicy()


def test_unknown_top_level_key_rejected_with_path():
    doc = _minimal_doc()
    doc["experiments"] = {}
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert "experiments" in str(err.value)


def test_unknown_nested_key_rejected_with_path():
    doc = _minimal_doc()
    doc["cluster"]["hbm_bw"] = 1e12
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert "cluster.hbm_bw" in str(err.value)


def test_unknown_stage_key_names_index():
    doc = _minimal_doc()
    doc["stages"] = [
        {"name": "s", "image_bucket": [1, 1, 320, 320], "warmup": 3},
    ]
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert "stages[0].warmup" in str(err.value)


def test_bucket_parse_shape_checked():
    doc = _minimal_doc()
    doc["buckets"] = [[1, 29, 640]]
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert "buckets[0]" in str(err.value)


def test_mapping_proxy_sections_parse_like_dicts():
    # Any Mapping is a JSON object: a read-only view of each object parses
    # to the records the plain dicts give.
    from types import MappingProxyType

    def frozen(value):
        if isinstance(value, dict):
            return MappingProxyType({key: frozen(item) for key, item in value.items()})
        if isinstance(value, list):
            return [frozen(item) for item in value]
        return value

    doc = json.loads(reference_config_path().read_text())
    assert parse_config(frozen(doc)) == parse_config(doc)
    assert parse_config(frozen(_minimal_doc())) == parse_config(_minimal_doc())


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_minimal_doc()))
    config = load_config(path)
    assert config.cluster.total_devices == 16


def test_dtype_policy_rejects_odd_widths():
    with pytest.raises(ConfigError):
        DTypePolicy(param_bytes=3)


def test_partial_parallel_pinning_rejected():
    doc = _minimal_doc()
    doc["parallel"] = {"tp": 8}
    config = parse_config(doc)
    with pytest.raises(ConfigError):
        _ = config.parallel.pinned


REFERENCE = json.loads(reference_config_path().read_text())
SECTIONS = {
    "model": ModelArch,
    "cluster": ClusterSpec,
    "dtypes": DTypePolicy,
    "overlap": OverlapConfig,
}
# Every field whose reference value (or default, where the reference
# leaves it out) is a number.
NUMERIC_FIELDS = [
    (section, name)
    for section, cls in SECTIONS.items()
    for name in cls._fields
    if type(REFERENCE[section].get(name, cls._field_defaults.get(name))) in (int, float)
]


def test_numeric_fields_span_every_section():
    counts = {section: sum(s == section for s, _ in NUMERIC_FIELDS) for section in SECTIONS}
    assert counts == {"model": 8, "cluster": 10, "dtypes": 6, "overlap": 3}


@pytest.mark.parametrize("section, name", NUMERIC_FIELDS, ids=lambda v: v)
def test_string_in_numeric_field_names_its_path(section, name):
    doc = copy.deepcopy(REFERENCE)
    doc[section][name] = "x"
    with pytest.raises(ConfigError, match=rf"^{section}\.{name}: expected a"):
        parse_config(doc)


@pytest.mark.parametrize(
    "section, name",
    [("cluster", name) for name in ClusterSpec._fields]
    + [("model", name) for name in ("hidden_size", "num_heads", "num_layers")],
    ids=lambda v: v,
)
def test_missing_required_key_names_its_path(section, name):
    doc = copy.deepcopy(REFERENCE)
    del doc[section][name]
    with pytest.raises(ConfigError, match=rf"^{section}\.{name}: missing required key$"):
        parse_config(doc)


# The config-key audit: for every key a planning config can set, an edit of
# the reference config to another valid value in a direction that binds,
# as (the edits both sides share, the edit under audit); an edit is
# {path into the JSON document: value}, DROP deleting the key. Each must
# change what run_train_plan plans or warns, not only its input echo, so a
# key that changes no output fails here.
DROP = object()
_PIN = {("parallel", "tp"): 8, ("parallel", "cp"): 1, ("parallel", "dp"): 2}
AUDIT = {
    "model.hidden_size": ({}, {("model", "hidden_size"): 2304}),
    "model.num_heads": ({}, {("model", "num_heads"): 16}),
    "model.num_layers": ({}, {("model", "num_layers"): 40}),
    "model.ffn_multiplier": ({}, {("model", "ffn_multiplier"): 2}),
    "model.adaln_mode": ({("model", "param_count"): DROP}, {("model", "adaln_mode"): "shared-weights"}),
    "model.patch_t": ({}, {("model", "patch_t"): 2}),
    "model.patch_h": ({}, {("model", "patch_h"): 4}),
    "model.patch_w": ({}, {("model", "patch_w"): 4}),
    "model.param_count": ({}, {("model", "param_count"): 10e9}),
    "cluster.num_nodes": ({}, {("cluster", "num_nodes"): 4}),
    "cluster.devices_per_node": ({}, {("cluster", "devices_per_node"): 4}),
    "cluster.device_mem": ({}, {("cluster", "device_mem"): 40e9}),
    "cluster.peak_flops_per_device": ({}, {("cluster", "peak_flops_per_device"): 400e12}),
    "cluster.intra_node_bw": ({}, {("cluster", "intra_node_bw"): 100e9}),
    "cluster.inter_node_bw": ({}, {("cluster", "inter_node_bw"): 25e9}),
    # below the 80e9 / 4 = 20e9 share of the NUMA domain's host write bandwidth
    "cluster.pcie_bw_per_device": ({}, {("cluster", "pcie_bw_per_device"): 10e9}),
    "cluster.host_write_bw_per_numa": ({}, {("cluster", "host_write_bw_per_numa"): 40e9}),
    "cluster.devices_per_numa": ({}, {("cluster", "devices_per_numa"): 8}),
    "cluster.host_mem": ({}, {("cluster", "host_mem"): 1e11}),
    "dtypes.param_bytes": ({}, {("dtypes", "param_bytes"): 4}),
    "dtypes.grad_bytes": ({}, {("dtypes", "grad_bytes"): 4}),
    "dtypes.master_bytes": ({}, {("dtypes", "master_bytes"): 8}),
    "dtypes.moment_bytes": ({}, {("dtypes", "moment_bytes"): 8}),
    "dtypes.ema_bytes": ({}, {("dtypes", "ema_bytes"): 8}),
    "dtypes.act_bytes": ({}, {("dtypes", "act_bytes"): 4}),
    # tp, cp and dp are pinned together, so each is audited at a pinned layout
    "parallel.tp": (_PIN, {("parallel", "tp"): 4, ("parallel", "dp"): 4}),
    "parallel.cp": (_PIN, {("parallel", "cp"): 2, ("parallel", "dp"): 1}),
    "parallel.dp": (_PIN, {("parallel", "dp"): 1}),
    "parallel.zero_stage": ({}, {("parallel", "zero_stage"): "none"}),
    "parallel.grad_accum": ({}, {("parallel", "grad_accum"): 2}),
    "overlap.tp_sp_fraction": ({}, {("overlap", "tp_sp_fraction"): 0.5}),
    "overlap.collective_latency_ms": ({}, {("overlap", "collective_latency_ms"): 1.0}),
    "overlap.efficiency": ({}, {("overlap", "efficiency"): 0.4}),
    "stages.name": ({}, {("stages", 0, "name"): "t2i-320px"}),
    "stages.image_bucket": ({}, {("stages", 0, "image_bucket"): [1, 1, 480, 480]}),
    "stages.video_bucket": ({}, {("stages", 2, "video_bucket"): [1, 29, 480, 480]}),
    "bucket.batch": ({}, {("stages", 2, "video_bucket", 0): 2}),
    "bucket.frames": ({}, {("stages", 2, "video_bucket", 1): 33}),
    "bucket.height": ({}, {("stages", 2, "video_bucket", 2): 480}),
    "bucket.width": ({}, {("stages", 2, "video_bucket", 3): 480}),
    "buckets": ({}, {("buckets", 4): [1, 29, 320, 320]}),
}
# Parsed and read by nothing yet: ROADMAP item 1 plans the run with them.
AUDIT_WAITING = {"stages.global_batch", "stages.step_count"}
_AUDITED_RECORDS = (ModelArch, ClusterSpec, DTypePolicy, ParallelSection, OverlapConfig,
                    StageScenario, Bucket)


def _edited(doc, edits):
    doc = copy.deepcopy(doc)
    for path, value in edits.items():
        node = doc
        for key in path[:-1]:
            node = node[key]
        if value is DROP:
            del node[path[-1]]
        else:
            node[path[-1]] = value
    return doc


def test_audit_covers_every_config_key():
    sections = {cls.__name__ for cls in _AUDITED_RECORDS} | {"stages", "buckets"}
    assert set(PlanningConfig._kinds.values()) <= sections
    keys = {f"{cls._schema[0]}.{key}" for cls in _AUDITED_RECORDS for key in cls._kinds}
    assert set(AUDIT) | AUDIT_WAITING == keys | {"buckets"}


@pytest.mark.parametrize("key", sorted(AUDIT))
def test_every_config_key_changes_the_plan(key):
    given, change = AUDIT[key]
    before = run_train_plan(parse_config(_edited(REFERENCE, given)))
    after = run_train_plan(parse_config(_edited(REFERENCE, {**given, **change})))
    assert (after["stages"], after["warnings"]) != (before["stages"], before["warnings"])
