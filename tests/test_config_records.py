"""The construction contract of the records: the config sections, buckets,
chunk specs and tables, and timeline events.

Each record keeps its field names, order and defaults under positional
and keyword construction, compares and hashes by value, refuses field
assignment, prints as ``Name(field=value, ...)`` and survives copy and
pickle. ``_fields``, ``_asdict()`` and ``_replace()`` expose the fields,
and ``_replace()`` runs the same checks as construction.
"""

import copy
import inspect
import pickle

import pytest

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
)
from ditplan.errors import ConfigError
from ditplan.memory import ChunkSpec, ChunkTable, TimelineEvent
from ditplan.presets import REFERENCE_CLUSTER, TABLE2_FIT

BUCKET = Bucket(1, 29, 480, 848)
STAGE = StageScenario("t2i", image_bucket=Bucket(8, 1, 320, 320))
GELU = ChunkSpec("gelu", coeff_bsh=8, fwd_latency_ms=0.64)

# record -> (every field in declaration order with a sample value,
#            the fields left to their defaults, with those defaults)
CONTRACT = {
    ModelArch: (
        dict(hidden_size=1024, num_heads=16, num_layers=8, ffn_multiplier=2,
             adaln_mode="shared-weights", patch_t=2, patch_h=1, patch_w=1, param_count=1e9),
        dict(ffn_multiplier=4, adaln_mode="per-block-dedicated", patch_t=1, patch_h=2, patch_w=2,
             param_count=None),
    ),
    ClusterSpec: (
        dict(num_nodes=2, devices_per_node=8, device_mem=64e9, peak_flops_per_device=312e12,
             intra_node_bw=200e9, inter_node_bw=50e9, pcie_bw_per_device=25e9,
             host_write_bw_per_numa=80e9, devices_per_numa=4, host_mem=2e12),
        {},
    ),
    DTypePolicy: (
        dict(param_bytes=4, grad_bytes=4, master_bytes=8, moment_bytes=8, ema_bytes=8, act_bytes=1),
        dict(param_bytes=2, grad_bytes=2, master_bytes=4, moment_bytes=4, ema_bytes=4, act_bytes=2),
    ),
    ParallelConfig: (
        dict(tp=2, cp=2, dp=4, zero_stage="none", grad_accum=2),
        dict(tp=1, cp=1, dp=1, zero_stage="optimizer-partitioned", grad_accum=1),
    ),
    StageScenario: (
        dict(name="joint", image_bucket=BUCKET, video_bucket=Bucket(1, 61, 640, 640),
             global_batch=8, step_count=100),
        dict(video_bucket=None, global_batch=1, step_count=1),
    ),
    OverlapConfig: (
        dict(tp_sp_fraction=0.5, collective_latency_ms=0.1, efficiency=0.9),
        dict(tp_sp_fraction=0.8, collective_latency_ms=0.02, efficiency=0.5),
    ),
    ParallelSection: (
        dict(tp=8, cp=1, dp=2, zero_stage="none", grad_accum=4),
        dict(tp=None, cp=None, dp=None, zero_stage="optimizer-partitioned", grad_accum=1),
    ),
    PlanningConfig: (
        dict(model=TABLE2_FIT, cluster=REFERENCE_CLUSTER, dtypes=DTypePolicy(act_bytes=4),
             parallel=ParallelSection(tp=8, cp=1, dp=2), overlap=OverlapConfig(efficiency=0.9),
             stages=(STAGE,), buckets=(BUCKET,), fitted_fields=("hidden_size",)),
        dict(dtypes=DTypePolicy(), parallel=ParallelSection(), overlap=OverlapConfig(),
             stages=(), buckets=(), fitted_fields=()),
    ),
    Bucket: (dict(batch=2, frames=29, height=480, width=848), {}),
    ChunkSpec: (
        dict(name="gate", coeff_bsh=2, coeff_bas=1.5, fwd_latency_ms=0.36, recomputable=False,
             offloadable=False),
        dict(coeff_bas=0.0, fwd_latency_ms=1.0, recomputable=True, offloadable=True),
    ),
    ChunkTable: (
        dict(chunks=(GELU,), ref_batch=2, ref_seqlen=1024, ref_hidden=64, ref_heads=4, ref_tp=2),
        dict(ref_batch=1, ref_seqlen=115_200, ref_hidden=3072, ref_heads=24, ref_tp=8),
    ),
    TimelineEvent: (
        dict(time=3, kind="free", name="x", bytes=8, tag="merged-redundant", last_consumer_time=1),
        dict(tag=None, last_consumer_time=None),
    ),
}
RECORDS = list(CONTRACT)


def _ids(cls):
    return cls.__name__


@pytest.mark.parametrize("cls", RECORDS, ids=_ids)
def test_field_names_order_and_defaults(cls):
    values, defaults = CONTRACT[cls]
    parameters = inspect.signature(cls).parameters
    assert list(parameters) == list(values)
    for name, parameter in parameters.items():
        if name in defaults:
            assert parameter.default == defaults[name], name
        elif (cls, name) == (StageScenario, "image_bucket"):
            assert parameter.default is None  # the contract passes it: a stage needs a bucket
        else:
            assert parameter.default is inspect.Parameter.empty, name


@pytest.mark.parametrize("cls", RECORDS, ids=_ids)
def test_keyword_and_positional_construction(cls):
    values, defaults = CONTRACT[cls]
    by_keyword = cls(**values)
    for name, value in values.items():
        assert getattr(by_keyword, name) == value, name
    assert cls(*values.values()) == by_keyword
    given = {name: value for name, value in values.items() if name not in defaults}
    instance = cls(**given)
    for name, default in defaults.items():
        assert getattr(instance, name) == default, name
    if given:
        missing = dict(given)
        missing.pop(next(iter(given)))
        with pytest.raises(TypeError):
            cls(**missing)
    with pytest.raises(TypeError):
        cls(**values, no_such_field=1)


@pytest.mark.parametrize("cls", RECORDS, ids=_ids)
def test_equality_hash_and_repr_by_value(cls):
    values, defaults = CONTRACT[cls]
    instance = cls(**values)
    assert instance == cls(**values)
    assert hash(instance) == hash(cls(**values))
    if defaults:
        other = cls(**{name: value for name, value in values.items() if name not in defaults})
    else:
        other = cls(**{**values, next(iter(values)): 1})
    assert other != instance
    assert instance != tuple(values.values())
    fields = ", ".join(f"{name}={value!r}" for name, value in values.items())
    assert repr(instance) == f"{cls.__name__}({fields})"


@pytest.mark.parametrize("cls", RECORDS, ids=_ids)
def test_immutable(cls):
    values, _ = CONTRACT[cls]
    instance = cls(**values)
    for name, value in values.items():
        with pytest.raises(AttributeError):
            setattr(instance, name, value)
        with pytest.raises(AttributeError):
            delattr(instance, name)
    with pytest.raises(AttributeError):
        instance.no_such_field = 1


@pytest.mark.parametrize("cls", RECORDS, ids=_ids)
def test_copy_and_pickle_round_trip(cls):
    instance = cls(**CONTRACT[cls][0])
    for clone in (copy.copy(instance), copy.deepcopy(instance), pickle.loads(pickle.dumps(instance))):
        assert clone == instance and type(clone) is cls


@pytest.mark.parametrize("cls", RECORDS, ids=_ids)
def test_asdict_and_replace(cls):
    values, _ = CONTRACT[cls]
    instance = cls(**values)
    assert cls._fields == tuple(values)
    assert instance._asdict() == values
    assert list(instance._asdict()) == list(values)
    assert instance._replace() == instance
    name, value = next(iter(values.items()))
    changed = instance._replace(**{name: value})
    assert changed == instance and type(changed) is cls
    with pytest.raises(TypeError):
        instance._replace(no_such_field=1)


def test_replace_changes_one_field():
    par = ParallelConfig(tp=2, cp=1, dp=8)._replace(dp=4)
    assert par == ParallelConfig(tp=2, cp=1, dp=4)
    assert REFERENCE_CLUSTER._replace(host_mem=1e9).host_mem == 1e9


# record, changes that break one check, the error that check raises
CHECK_CASES = [
    (REFERENCE_CLUSTER, dict(num_nodes=0), r"^cluster\.num_nodes: must be positive"),
    (REFERENCE_CLUSTER, dict(devices_per_numa=16), r"^cluster\.devices_per_numa: devices_per_numa cannot exceed"),
    (TABLE2_FIT, dict(num_heads=0), r"^model: hidden_size and num_heads must be >= 1"),
    (TABLE2_FIT, dict(num_layers=-1), r"^model\.num_layers: must be a non-negative integer"),
    (TABLE2_FIT, dict(patch_h=0), r"^model\.patch_h: patch dims must be >= 1"),
    (TABLE2_FIT, dict(adaln_mode="x"), r"^model\.adaln_mode: adaln_mode must be one of"),
    (TABLE2_FIT, dict(param_count=0), r"^model\.param_count: param_count must be positive"),
    (DTypePolicy(), dict(act_bytes=3), r"^dtypes\.act_bytes: must be one of \(1, 2, 4, 8\)"),
    (ParallelConfig(), dict(cp=0), r"^parallel\.cp: degree must be >= 1"),
    (ParallelConfig(), dict(zero_stage="x"), r"^parallel\.zero_stage: zero_stage must be one of"),
    (ParallelSection(), dict(grad_accum=0), r"^parallel\.grad_accum: must be >= 1"),
    (OverlapConfig(), dict(tp_sp_fraction=1.5), r"^overlap\.tp_sp_fraction: must be in \[0, 1\]"),
    (OverlapConfig(), dict(collective_latency_ms=-1), r"^overlap\.collective_latency_ms: must be >= 0"),
    (OverlapConfig(), dict(efficiency=0), r"^overlap\.efficiency: must be in \(0, 1\]"),
    (STAGE, dict(image_bucket=None), r"^stages\.t2i: stage needs at least one bucket"),
    (STAGE, dict(step_count=0), r"^stages\.t2i: batch and step counts must be >= 1"),
    (BUCKET, dict(height=0), r"^bucket\.height: must be >= 1"),
    (BUCKET, dict(frames=30), r"^bucket\.frames: frames-1 must be divisible by the temporal ratio 4"),
]


@pytest.mark.parametrize(
    "record, changes, match",
    CHECK_CASES,
    ids=[f"{type(record).__name__}-{next(iter(changes))}" for record, changes, _ in CHECK_CASES],
)
def test_replace_runs_the_checks(record, changes, match):
    with pytest.raises(ConfigError, match=match):
        record._replace(**changes)
    with pytest.raises(ConfigError, match=match):
        type(record)(**{**record._asdict(), **changes})
