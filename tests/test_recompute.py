import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ditplan.errors import ConfigError
from ditplan.memory import BUILTIN_CHUNKS, MIB, ChunkSpec
from ditplan.recompute import cover, memory_latency_ratio, plan_recompute

from helpers import brute_force_recompute, reference_cover

REF = dict(B=1, S=115_200, H=3072, A=24, tp=8)


def test_gelu_ratio():
    ratio = memory_latency_ratio(BUILTIN_CHUNKS.by_name("gelu"), **REF)
    assert ratio == pytest.approx(337.5 / 0.64)
    assert ratio == pytest.approx(526.6, abs=1.0)


def test_flash_attention_ratio_lowest():
    ratios = {c.name: memory_latency_ratio(c, **REF) for c in BUILTIN_CHUNKS.chunks}
    assert ratios["flash_attention"] == pytest.approx(105.46875 / 127.5)
    # every memory-bound row outranks attention recomputation
    assert all(r > ratios["flash_attention"] for n, r in ratios.items() if n != "flash_attention")


def test_zero_retained_zero_ratio():
    chunk = ChunkSpec("empty", coeff_bsh=0, fwd_latency_ms=1.0)
    assert memory_latency_ratio(chunk, **REF) == 0.0


def test_ratio_ranking_matches_reference_column():
    expected_order = [
        "gelu",
        "layernorm_scale_shift",
        "gate",
        "fused_qknorm",
        "all_gather_ffn_linear1",
        "all_gather_qkv_linear",
        "ffn_linear2_reduce_scatter",
        "out_linear_reduce_scatter",
        "flash_attention",
    ]
    ranked = sorted(
        BUILTIN_CHUNKS.chunks, key=lambda c: -memory_latency_ratio(c, **REF)
    )
    assert [c.name for c in ranked] == expected_order


def test_plan_zero_required_selects_nothing():
    plan = plan_recompute(BUILTIN_CHUNKS, 0, **REF)
    assert plan.selected == ()
    assert plan.latency_added_per_layer_ms == 0.0
    assert plan.feasible


def test_plan_exhaustion_infeasible():
    total = sum(
        memory_latency_ratio(c, **REF) * c.fwd_latency_ms for c in BUILTIN_CHUNKS.chunks
    )
    plan = plan_recompute(BUILTIN_CHUNKS, int((total + 10) * MIB), **REF)
    assert not plan.feasible
    assert set(plan.selected) == set(BUILTIN_CHUNKS.names())


def test_plan_400mib_matches_oracle():
    # brute force over all 512 subsets: {gate, gelu} saves 421.9 MiB at
    # 1.00 ms, beating the pure ratio prefix {gelu, layernorm} at 1.22 ms
    required = 400 * MIB
    greedy = plan_recompute(BUILTIN_CHUNKS, required, **REF)
    oracle = brute_force_recompute(BUILTIN_CHUNKS, required, **REF)
    assert oracle.selected == ("gate", "gelu")
    assert oracle.latency_added_per_layer_ms == pytest.approx(1.0)
    assert greedy.selected == oracle.selected
    assert greedy.bytes_saved_per_layer >= required


def test_plan_two_chunk_dominance():
    chunks = (
        ChunkSpec("cheap", coeff_bsh=2, fwd_latency_ms=1.0),
        ChunkSpec("dear", coeff_bsh=2, fwd_latency_ms=2.0),
    )
    saved = 2 * 1 * 1024 * 8 // 1  # coeff*B*S*H at the shape below
    oracle = brute_force_recompute(chunks, saved, B=1, S=1024, H=8, A=1, tp=1)
    assert oracle.selected == ("cheap",)


def test_brute_force_size_guard():
    chunks = tuple(ChunkSpec(f"c{i}", coeff_bsh=1) for i in range(21))
    with pytest.raises(ConfigError):
        brute_force_recompute(chunks, 1, B=1, S=8, H=8, A=1, tp=1)


def test_greedy_within_10pct_of_oracle_across_sweep():
    for required_mib in range(50, 1401, 50):
        required = required_mib * MIB
        greedy = plan_recompute(BUILTIN_CHUNKS, required, **REF)
        oracle = brute_force_recompute(BUILTIN_CHUNKS, required, **REF)
        assert greedy.feasible and oracle.feasible
        assert greedy.bytes_saved_per_layer >= required
        assert greedy.latency_added_per_layer_ms >= oracle.latency_added_per_layer_ms - 1e-9
        assert (
            greedy.latency_added_per_layer_ms
            <= 1.10 * oracle.latency_added_per_layer_ms + 1e-9
        )


def test_plan_excludes_offloaded_chunks():
    plan = plan_recompute(BUILTIN_CHUNKS, 300 * MIB, **REF, exclude=("gelu",))
    assert "gelu" not in plan.selected
    assert plan.feasible


def test_plan_deterministic():
    a = plan_recompute(BUILTIN_CHUNKS, 700 * MIB, **REF)
    b = plan_recompute(BUILTIN_CHUNKS, 700 * MIB, **REF)
    assert a == b


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n=st.integers(min_value=1, max_value=8),
    required_kib=st.integers(min_value=0, max_value=4000),
)
def test_greedy_feasible_iff_oracle_feasible(seed, n, required_kib):
    import random

    rng = random.Random(seed)
    chunks = tuple(
        ChunkSpec(
            f"c{i}",
            coeff_bsh=rng.choice([1, 2, 4, 8]),
            fwd_latency_ms=round(rng.uniform(0.1, 50.0), 2),
        )
        for i in range(n)
    )
    required = required_kib * 1024
    shape = dict(B=1, S=4096, H=64, A=4, tp=1)
    greedy = plan_recompute(chunks, required, **shape)
    oracle = brute_force_recompute(chunks, required, **shape)
    assert greedy.feasible == oracle.feasible
    if greedy.feasible:
        assert greedy.bytes_saved_per_layer >= required
        assert greedy.latency_added_per_layer_ms >= oracle.latency_added_per_layer_ms - 1e-9


def _assert_cover_matches_reference(entries, required):
    """The tuple cover and the record-based reference pick the same plan,
    field types included, on a pool of (bytes, latency) entries."""
    chunks = [ChunkSpec(f"c{i:02d}", 1, fwd_latency_ms=lat) for i, (_, lat) in enumerate(entries)]
    saved = {c.name: size for c, (size, _) in zip(chunks, entries)}
    got = cover([(saved[c.name], c.fwd_latency_ms, c.name) for c in chunks], required)
    expected = reference_cover(chunks, saved, required)
    assert got == expected
    assert [type(v) for v in got] == [type(v) for v in expected]


def _required_choices(entries, share):
    """Zero, a share of the total, the total, one past it (infeasible) and
    each entry's bytes (a single-chunk cover)."""
    total = sum(size for size, _ in entries)
    return [0, round(total * share), total, total + 1, *(size for size, _ in entries)]


# Pools whose bytes and latencies come from small sets, so that ratios,
# latencies and single-chunk covers tie often.
_pool_entries = st.lists(
    st.tuples(
        st.sampled_from([0, 1, 2, 3, 4, 6, 8, 12]).map(lambda k: k * MIB // 4)
        | st.integers(min_value=0, max_value=2**40),
        st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, 3.0])
        | st.floats(min_value=1e-3, max_value=500.0, allow_nan=False),
    ),
    max_size=12,
)


@settings(max_examples=400, deadline=None)
@given(entries=_pool_entries, share=st.floats(min_value=0.0, max_value=1.2), data=st.data())
def test_cover_matches_record_based_reference(entries, share, data):
    required = data.draw(st.sampled_from(_required_choices(entries, share)))
    _assert_cover_matches_reference(entries, required)


def test_cover_matches_record_based_reference_on_seeded_pools():
    # Orders that differ only where prune or swap choices interact show up
    # in about one pool in 400, so sweep many seeded pools as well.
    import random

    rng = random.Random("cover")
    for _ in range(20_000):
        entries = [
            (
                rng.choice([0, 1, 2, 3, 4, 6, 8, 12]) * MIB // 4
                if rng.random() < 0.5 else rng.randint(0, 2**30),
                rng.choice([0.25, 0.5, 1.0, 1.5, 2.0, 3.0])
                if rng.random() < 0.5 else rng.uniform(1e-3, 500.0),
            )
            for _ in range(rng.randint(1, 8))
        ]
        required = rng.choice(_required_choices(entries, rng.random()))
        _assert_cover_matches_reference(entries, required)
