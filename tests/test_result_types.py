"""The construction contract of the planner's result types.

Each type keeps its field names, order and defaults under positional and
keyword construction, compares and hashes by value, and refuses field
assignment; the three validated types reject bad values at construction.
Nothing here depends on how a type is implemented.
"""

import pytest

from ditplan.buckets import Bucket, BucketBalanceEntry, BucketBalanceReport, LatentShape
from ditplan.comm import CommPlan, CpGateResult
from ditplan.config import ParamCountEstimate
from ditplan.errors import ConfigError
from ditplan.inference import CacheSchedule, Tile, TilePlan, WindowPlan, plan_temporal_windows
from ditplan.memory import ChunkSpec, ChunkTable, MemoryBreakdown, TimelineEvent
from ditplan.offload import ActivationOffloadPlan, OffloadPlan
from ditplan.recompute import RecomputePlan
from ditplan.simulate import StepEstimate

GELU = ChunkSpec("gelu", coeff_bsh=8, fwd_latency_ms=0.64)
TILE = Tile(start=(0, 0, 0), size=(4, 32, 32), device=0)
BREAKDOWN = MemoryBreakdown(1.0, 2.0, 3.0, 4.0, 5.0)
BUCKET = Bucket(1, 29, 480, 848)

# type -> (every field in declaration order with a sample value,
#          the fields that have defaults, with those defaults)
CONTRACT = {
    CacheSchedule: (
        dict(total_steps=4, warmup=1, interval=2, mode="dit-layer-cache",
             cached_cost_fraction=0.25, per_step_full=(True, True, False, True), speedup=1.23),
        {},
    ),
    Tile: (dict(start=(0, 0, 0), size=(4, 32, 32), device=1), {}),
    TilePlan: (
        dict(latent=(4, 32, 32), tiles=(TILE,), overlap=(0, 0, 0), devices=1, parallel_speedup=1.0),
        {},
    ),
    WindowPlan: (dict(n_prime=8, window=4, stride=4, clips=((0, 4), (4, 8)), coverage=(1,) * 8), {}),
    ChunkSpec: (
        dict(name="gate", coeff_bsh=2.0, coeff_bas=1.0, fwd_latency_ms=0.5,
             recomputable=False, offloadable=False),
        dict(coeff_bas=0.0, fwd_latency_ms=1.0, recomputable=True, offloadable=True),
    ),
    ChunkTable: (
        dict(chunks=(GELU,), ref_batch=2, ref_seqlen=1024, ref_hidden=64, ref_heads=4, ref_tp=2),
        dict(ref_batch=1, ref_seqlen=115_200, ref_hidden=3072, ref_heads=24, ref_tp=8),
    ),
    MemoryBreakdown: (
        dict(params=1.0, grads=2.0, master=3.0, moments=4.0, ema=5.0, activations_peak=6.0),
        dict(activations_peak=0.0),
    ),
    TimelineEvent: (
        dict(time=3, kind="free", name="x", bytes=8, tag="shared-storage", last_consumer_time=1),
        dict(tag=None, last_consumer_time=None),
    ),
    RecomputePlan: (
        dict(selected=("gelu",), bytes_saved_per_layer=8, latency_added_per_layer_ms=0.64,
             feasible=True),
        {},
    ),
    LatentShape: (dict(t_lat=8, h_lat=60, w_lat=106, tokens=12720, tokens_batch=25440), {}),
    BucketBalanceEntry: (dict(bucket=BUCKET, snapped=BUCKET, tokens=10, tokens_batch=10), {}),
    BucketBalanceReport: (
        dict(entries=(), tolerance=0.01, max_deviation=0.5, flagged=(("a", "b", 0.5),)),
        {},
    ),
    CpGateResult: (dict(time_ms=0.0, violation="below the gate"), dict(violation=None)),
    CommPlan: (
        dict(tp_sp_raw_ms_per_layer=1.0, tp_sp_exposed_ms_per_layer=0.2, cp_ms_per_layer=0.0,
             dp_raw_ms_per_step=3.0, dp_exposed_ms_per_step=0.5),
        {},
    ),
    ActivationOffloadPlan: (
        dict(selected=("gelu",), bytes_per_layer=64, exposed_ms_per_layer=0.2),
        {},
    ),
    OffloadPlan: (
        dict(optimizer_offloaded=True, optimizer_exposed_ms=1.5, activation_offload_set=("gelu",),
             activation_exposed_ms_per_microstep=0.4),
        {},
    ),
    StepEstimate: (
        dict(t_compute_ms=10.0, t_recompute_ms=1.0, t_exposed_comm_ms=2.0, t_exposed_offload_ms=0.5,
             step_time_ms=13.5, peak_mem_bytes=15.0, memory=BREAKDOWN, mfu=0.4),
        {},
    ),
    ParamCountEstimate: (dict(total=10.0, transformer=7.0, adaln=2.0, embedding_head=1.0), {}),
}
TYPES = list(CONTRACT)


def _ids(cls):
    return cls.__name__


@pytest.mark.parametrize("cls", TYPES, ids=_ids)
def test_fields_and_order_under_keyword_and_positional_construction(cls):
    values, _ = CONTRACT[cls]
    by_keyword = cls(**values)
    for name, value in values.items():
        assert getattr(by_keyword, name) == value, name
    assert cls(*values.values()) == by_keyword
    with pytest.raises(TypeError):
        cls(**values, no_such_field=1)


@pytest.mark.parametrize("cls", TYPES, ids=_ids)
def test_defaults_under_keyword_construction(cls):
    values, defaults = CONTRACT[cls]
    required = {name: value for name, value in values.items() if name not in defaults}
    instance = cls(**required)
    for name, default in defaults.items():
        assert getattr(instance, name) == default, name
    if required:
        missing = dict(required)
        missing.pop(next(iter(required)))
        with pytest.raises(TypeError):
            cls(**missing)


@pytest.mark.parametrize("cls", TYPES, ids=_ids)
def test_equality_by_value(cls):
    values, defaults = CONTRACT[cls]
    assert cls(**values) == cls(**values)
    if defaults:
        other = {name: value for name, value in values.items() if name not in defaults}
    else:
        other = {**values, list(values)[-1]: "different"}
    assert cls(**values) != cls(**other)


@pytest.mark.parametrize("cls", TYPES, ids=_ids)
def test_frozen_and_hashable_by_value(cls):
    values, _ = CONTRACT[cls]
    instance = cls(**values)
    for name, value in values.items():
        with pytest.raises(AttributeError):
            setattr(instance, name, value)
    assert hash(instance) == hash(cls(**values))


def test_window_plan_coverage_is_computed_once():
    plan = plan_temporal_windows(8, 4, 2)
    assert plan.clips == ((0, 4), (2, 6), (4, 8))
    assert plan.coverage == (1, 1, 2, 2, 2, 2, 1, 1)
    assert plan.coverage is plan.coverage


@pytest.mark.parametrize(
    "kwargs",
    [dict(coeff_bsh=-1.0), dict(coeff_bsh=1.0, coeff_bas=-0.5)],
    ids=["bsh", "bas"],
)
def test_chunk_spec_rejects_negative_coefficient(kwargs):
    with pytest.raises(ConfigError, match=r"^chunk\.bad: coefficients must be >= 0"):
        ChunkSpec("bad", **kwargs)


@pytest.mark.parametrize("latency", [0.0, -1.0])
def test_chunk_spec_rejects_non_positive_latency(latency):
    with pytest.raises(ConfigError, match=r"^chunk\.bad: fwd_latency_ms must be positive"):
        ChunkSpec("bad", coeff_bsh=1.0, fwd_latency_ms=latency)


def test_chunk_table_rejects_duplicate_names():
    with pytest.raises(ConfigError, match=r"^chunks: duplicate chunk names"):
        ChunkTable(chunks=(GELU, ChunkSpec("gelu", coeff_bsh=1.0)))


@pytest.mark.parametrize(
    "ref", ["ref_batch", "ref_seqlen", "ref_hidden", "ref_heads", "ref_tp"]
)
@pytest.mark.parametrize("value", [0, -1])
def test_chunk_table_rejects_reference_shape_below_one(ref, value):
    with pytest.raises(ConfigError, match=rf"^{ref}: must be >= 1"):
        ChunkTable(chunks=(GELU,), **{ref: value})


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(kind="release"), "event kind must be 'alloc' or 'free'"),
        (dict(bytes=-1), "event bytes must be >= 0"),
        (dict(tag="aliased"), "tag must be one of"),
    ],
    ids=["kind", "bytes", "tag"],
)
def test_timeline_event_rejects_bad_values(kwargs, message):
    event = {**dict(time=0, kind="free", name="buf", bytes=8), **kwargs}
    with pytest.raises(ConfigError, match=rf"^timeline\.buf: {message}"):
        TimelineEvent(**event)


def test_replace_runs_the_checks():
    with pytest.raises(ConfigError, match=r"^chunk\.a: fwd_latency_ms must be positive"):
        ChunkSpec("a", 1.0)._replace(fwd_latency_ms=0)
    with pytest.raises(ConfigError, match=r"^timeline\.x: event bytes must be >= 0"):
        TimelineEvent(0, "alloc", "x", 5)._replace(bytes=-1)
    with pytest.raises(ConfigError, match=r"^chunks: duplicate chunk names"):
        ChunkTable(chunks=(GELU,))._replace(chunks=(GELU, GELU))


@pytest.mark.parametrize("cls", [ChunkSpec, ChunkTable, TimelineEvent], ids=_ids)
def test_make_validates_and_round_trips(cls):
    values, _ = CONTRACT[cls]
    instance = cls(**values)
    assert cls._make(instance) == instance
    assert type(cls._make(instance)) is cls
    assert instance._replace() == instance
