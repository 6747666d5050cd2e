import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ditplan.config import DTypePolicy, ParallelConfig
from ditplan.errors import ConfigError, MalformedTimelineError
from ditplan.memory import (
    BUILTIN_CHUNKS,
    MIB,
    TimelineEvent,
    activation_per_layer,
    chunk_retained_bytes,
    load_chunk_table,
    model_states_bytes,
    peak_memory,
)

from helpers import BUILTIN, make_random_timeline, prefix_max_peak

REF = dict(B=1, S=115_200, H=3072, A=24, tp=8)

# Printed reference column: (chunk name, MB, forward ms, ratio)
REFERENCE_TABLE = {
    "flash_attention": (106, 127.5, 0.8),
    "out_linear_reduce_scatter": (84, 13.4, 6.3),
    "ffn_linear2_reduce_scatter": (84, 8.9, 9.4),
    "all_gather_ffn_linear1": (337, 8.6, 39.2),
    "all_gather_qkv_linear": (252, 7.7, 32.7),
    "fused_qknorm": (168, 1.9, 88.4),
    "gate": (84, 0.36, 233.3),
    "layernorm_scale_shift": (168, 0.58, 289.6),
    "gelu": (337, 0.64, 526.6),
}


def test_flash_attention_retained_bytes():
    chunk = BUILTIN["flash_attention"]
    # (2*1*115200*3072 + 64*1*24*115200) / 8 computed by hand
    assert chunk_retained_bytes(chunk, **REF) == 110_592_000
    assert chunk_retained_bytes(chunk, **REF) / MIB == pytest.approx(105.46875)


def test_gelu_retained_bytes():
    chunk = BUILTIN["gelu"]
    assert chunk_retained_bytes(chunk, **REF) == 353_894_400
    assert chunk_retained_bytes(chunk, **REF) / MIB == 337.5


def test_zero_batch_retains_nothing():
    for chunk in BUILTIN_CHUNKS.chunks:
        assert chunk_retained_bytes(chunk, 0, 115_200, 3072, 24, 8) == 0


def test_all_reference_rows_within_2mb():
    for name, (printed_mb, _, _) in REFERENCE_TABLE.items():
        chunk = BUILTIN[name]
        mib = chunk_retained_bytes(chunk, **REF) / MIB
        assert abs(mib - printed_mb) <= 2.0, name


@given(
    b=st.integers(min_value=0, max_value=64),
    s=st.integers(min_value=0, max_value=1 << 18),
    k=st.integers(min_value=2, max_value=5),
)
def test_retained_linear_in_b_and_s(b, s, k):
    chunk = BUILTIN["flash_attention"]
    base_b = chunk_retained_bytes(chunk, b, 1 << 12, 3072, 24, 8)
    assert chunk_retained_bytes(chunk, k * b, 1 << 12, 3072, 24, 8) == k * base_b
    base_s = chunk_retained_bytes(chunk, 2, s, 3072, 24, 8)
    assert chunk_retained_bytes(chunk, 2, k * s, 3072, 24, 8) == k * base_s


def test_model_states_unsharded_total():
    # 13.4e9 * (2 + 2 + 4 + 2*4 + 4) bytes = 268 GB
    states = model_states_bytes(13.4e9, DTypePolicy(), ParallelConfig(tp=1, cp=1, dp=1, zero_stage="none"))
    assert states.total == pytest.approx(268e9)
    assert 250e9 <= states.total <= 310e9


def test_model_states_sharded():
    par = ParallelConfig(tp=8, cp=1, dp=16, zero_stage="optimizer-partitioned")
    states = model_states_bytes(13.4e9, DTypePolicy(), par)
    assert states.params == pytest.approx(3.35e9)
    assert states.grads == pytest.approx(3.35e9)
    assert states.optimizer == pytest.approx(1.675e9)


def test_model_states_zero_params():
    states = model_states_bytes(0, DTypePolicy(), ParallelConfig())
    assert states.total == 0


def test_model_states_zero_stage_none_keeps_optimizer_replicated():
    par_none = ParallelConfig(tp=2, cp=1, dp=4, zero_stage="none")
    par_part = ParallelConfig(tp=2, cp=1, dp=4, zero_stage="optimizer-partitioned")
    none = model_states_bytes(1e9, DTypePolicy(), par_none)
    part = model_states_bytes(1e9, DTypePolicy(), par_part)
    assert none.optimizer == pytest.approx(4 * part.optimizer)
    assert none.params == part.params


def test_activation_sum_all_nine_rows():
    # independent hand sum: (38*B*S*H + 64*B*A*S)/8 bytes
    expected = (38 * 1 * 115_200 * 3072 + 64 * 1 * 24 * 115_200) // 8
    total = activation_per_layer(BUILTIN_CHUNKS, **REF)
    assert total == expected == 1_703_116_800
    # within a few MB of the printed column sum (1620 MB); each printed row
    # is itself rounded, so the drift compounds to ~4 MiB
    assert abs(total / MIB - 1620) <= 9 * 2


def test_activation_full_recompute_retains_nothing():
    assert activation_per_layer(BUILTIN_CHUNKS, **REF, recompute_set=BUILTIN_CHUNKS.names()) == 0


def test_activation_recompute_gelu_only():
    total = activation_per_layer(BUILTIN_CHUNKS, **REF)
    without_gelu = activation_per_layer(BUILTIN_CHUNKS, **REF, recompute_set=("gelu",))
    assert total - without_gelu == 353_894_400


def test_activation_unknown_chunk_rejected():
    # The error names the set the unknown chunk came from.
    for path in ("recompute_set", "offload_set"):
        with pytest.raises(ConfigError, match=rf"^{path}: unknown chunk name\(s\) in plan: \['nope'\]$"):
            activation_per_layer(BUILTIN_CHUNKS, **REF, **{path: ("gelu", "nope")})


def test_chunk_table_json_roundtrip(tmp_path):
    path = tmp_path / "chunks.json"
    path.write_text(
        '{"chunks": [{"name": "a", "coeff_bsh": 2, "fwd_latency_ms": 1.5}], "ref_seqlen": 1000}'
    )
    table = load_chunk_table(path)
    assert table.names() == ("a",)
    assert table.chunks[0].coeff_bsh == 2
    assert table.ref_seqlen == 1000


def test_chunk_table_rejects_unknown_key(tmp_path):
    path = tmp_path / "chunks.json"
    path.write_text('{"chunks": [{"name": "a", "coeff_bsh": 2, "color": "red"}]}')
    with pytest.raises(ConfigError) as err:
        load_chunk_table(path)
    assert "color" in str(err.value)


# ---------------------------------------------------------------------------
# Peak-memory sweep
# ---------------------------------------------------------------------------


def test_peak_simple_hand_sweep():
    events = [
        TimelineEvent(0, "alloc", "a", 100),
        TimelineEvent(1, "alloc", "b", 50),
        TimelineEvent(2, "free", "a", 100),
        TimelineEvent(3, "free", "b", 50),
    ]
    assert peak_memory(events) == 150


def test_peak_empty_timeline():
    assert peak_memory([]) == 0


def test_peak_free_before_alloc_rejected():
    events = [TimelineEvent(0, "free", "a", 10), TimelineEvent(1, "alloc", "a", 10)]
    with pytest.raises(MalformedTimelineError):
        peak_memory(events)


def test_peak_unfreed_alloc_rejected():
    with pytest.raises(MalformedTimelineError):
        peak_memory([TimelineEvent(0, "alloc", "a", 10)])


def test_qkv_shared_storage_pattern():
    # QKV buffer is consumed by attention early, but its recorded free is
    # delayed until the MLP input is released; moving it back to the last
    # true consumer strictly lowers the peak.
    events = [
        TimelineEvent(0, "alloc", "qkv", 100),
        TimelineEvent(1, "alloc", "attn_out", 50),
        TimelineEvent(2, "alloc", "mlp_in", 80),
        TimelineEvent(3, "free", "qkv", 100, tag="shared-storage", last_consumer_time=1),
        TimelineEvent(4, "free", "attn_out", 50),
        TimelineEvent(5, "free", "mlp_in", 80),
    ]
    delayed = peak_memory(events, lifecycle_optimized=False)
    optimized = peak_memory(events, lifecycle_optimized=True)
    assert delayed == 230
    assert optimized == 150
    assert optimized < delayed


def test_untagged_frees_unmoved_by_optimization():
    events = [
        TimelineEvent(0, "alloc", "a", 10),
        TimelineEvent(1, "alloc", "b", 20),
        TimelineEvent(2, "free", "a", 10),
        TimelineEvent(3, "free", "b", 20),
    ]
    assert peak_memory(events, True) == peak_memory(events, False) == 30


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_sweep_matches_prefix_max_oracle(seed):
    rng = np.random.default_rng(seed)
    events = make_random_timeline(rng, max_pairs=40)
    assert peak_memory(events) == prefix_max_peak(events)
    assert peak_memory(events, lifecycle_optimized=True) <= peak_memory(events)
    # The sweep sorts by time itself (ties keep their input order), so a
    # shuffled sequence reads as its stable sort by time, errors included.
    shuffled = list(events)
    rng.shuffle(shuffled)
    by_time = sorted(shuffled, key=lambda e: e.time)
    for optimized in (False, True):
        assert _peak_or_error(shuffled, optimized) == _peak_or_error(by_time, optimized)


def _peak_or_error(events, lifecycle_optimized):
    try:
        return peak_memory(events, lifecycle_optimized)
    except MalformedTimelineError as exc:
        return str(exc)
