import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ditplan.errors import ConfigError
from ditplan.inference import (
    MAX_CACHE_STEPS,
    MAX_VAE_TILES,
    MAX_WINDOW_LATENT,
    _axis_ramp,
    plan_cache,
    plan_temporal_windows,
    plan_vae_tiles,
)

from helpers import VAE_GRID_CASES, numpy_axis_ramp, numpy_blend_weights, tile_slices


def test_cache_reference_schedule():
    schedule = plan_cache(50, warmup=10, interval=3, cached_cost_fraction=0.25)
    assert schedule.full_steps == 24
    assert schedule.cached_steps == 26
    assert schedule.speedup == pytest.approx(50 / 30.5)
    # within 5% of the observed 1.67x rear-layer caching gain
    assert abs(schedule.speedup - 1.67) / 1.67 < 0.05


def test_cache_interval_one_all_full():
    schedule = plan_cache(50, warmup=10, interval=1)
    assert schedule.full_steps == 50
    assert schedule.speedup == 1.0


def test_cache_warmup_equals_total():
    schedule = plan_cache(50, warmup=50, interval=3)
    assert schedule.speedup == 1.0
    assert all(schedule.per_step_full)


def test_cache_warmup_steps_always_full():
    schedule = plan_cache(30, warmup=10, interval=4)
    assert all(schedule.per_step_full[:10])
    assert schedule.per_step_full[10]  # first post-warmup step refreshes


def test_cache_bad_fraction_rejected():
    with pytest.raises(ConfigError):
        plan_cache(50, 10, 3, cached_cost_fraction=0.0)
    with pytest.raises(ConfigError):
        plan_cache(50, 10, 3, cached_cost_fraction=1.5)


def test_cache_bad_warmup_rejected():
    with pytest.raises(ConfigError):
        plan_cache(50, warmup=51)


@given(steps=st.integers(min_value=1, max_value=200), warmup=st.integers(min_value=0, max_value=50))
def test_cache_speedup_monotone_in_interval(steps, warmup):
    warmup = min(warmup, steps)
    speedups = [plan_cache(steps, warmup, k).speedup for k in range(1, 11)]
    assert all(b >= a - 1e-12 for a, b in zip(speedups, speedups[1:]))


@given(steps=st.integers(min_value=2, max_value=120))
def test_cache_speedup_non_increasing_in_warmup(steps):
    speedups = [plan_cache(steps, w, 3).speedup for w in range(0, steps + 1)]
    assert all(b <= a + 1e-12 for a, b in zip(speedups, speedups[1:]))


def test_cache_steps_cap_accepted():
    assert plan_cache(MAX_CACHE_STEPS).total_steps == MAX_CACHE_STEPS


def test_cache_steps_above_cap_rejected():
    with pytest.raises(ConfigError) as info:
        plan_cache(MAX_CACHE_STEPS + 1)
    assert info.value.path == "cache.total_steps"


# ---------------------------------------------------------------------------
# VAE tiles
# ---------------------------------------------------------------------------


def _weight_map(weights):
    """A tile's 3-D blend weights: the outer product of its per-axis weights."""
    wt, wh, ww = weights
    return np.multiply.outer(np.multiply.outer(wt, wh), ww)


def _assert_cover_and_unit_weights(plan):
    coverage = np.zeros(plan.latent, dtype=np.int64)
    total = np.zeros(plan.latent, dtype=np.float64)
    for tile, weights in zip(plan.tiles, plan.blend_weights()):
        coverage[tile_slices(tile)] += 1
        total[tile_slices(tile)] += _weight_map(weights)
    assert coverage.min() >= 1
    assert np.allclose(total, 1.0, atol=1e-12)


def test_tiles_reference_latent():
    plan = plan_vae_tiles((32, 90, 160), (32, 48, 48), (0, 8, 8), devices=8)
    _assert_cover_and_unit_weights(plan)
    assert len(plan.tiles) > 1
    assert plan.parallel_speedup == len(plan.tiles) / math.ceil(len(plan.tiles) / 8)


def test_tiles_single_device_no_speedup():
    plan = plan_vae_tiles((8, 64, 64), (8, 32, 32), (0, 8, 8), devices=1)
    assert plan.parallel_speedup == 1.0


def test_tiles_zero_overlap_disjoint_cover():
    plan = plan_vae_tiles((8, 64, 64), (4, 32, 32), (0, 0, 0), devices=4)
    coverage = np.zeros(plan.latent, dtype=np.int64)
    for tile in plan.tiles:
        coverage[tile_slices(tile)] += 1
    assert coverage.min() == coverage.max() == 1
    for weights in plan.blend_weights():
        assert all(w == 1.0 for axis in weights for w in axis)


def test_tiles_oversized_tile_degenerates():
    plan = plan_vae_tiles((4, 16, 16), (8, 64, 64), (0, 4, 4), devices=4)
    assert len(plan.tiles) == 1
    assert plan.tiles[0].size == (4, 16, 16)
    _assert_cover_and_unit_weights(plan)


def test_blend_weights_match_the_numpy_oracle():
    """On criterion 8's grid, each tile's outer product of per-axis weights
    equals the whole-latent ``profile / total`` computation to 1e-15."""
    for latent, tile, overlap in VAE_GRID_CASES:
        plan = plan_vae_tiles(latent, tile, overlap, devices=4)
        weights = plan.blend_weights()
        assert len(weights) == len(plan.tiles)
        for got, expected in zip(weights, numpy_blend_weights(plan)):
            assert np.abs(_weight_map(got) - expected).max() <= 1e-15, (latent, tile, overlap)


def test_blend_weights_zero_overlap_divide_shared_indices_evenly():
    # the end-aligned last tile overlaps its neighbour even with no overlap
    plan = plan_vae_tiles((1, 1, 10), (1, 1, 4), (0, 0, 0))
    assert [t.start[2] for t in plan.tiles] == [0, 4, 6]
    assert [w[2] for w in plan.blend_weights()] == [
        (1.0, 1.0, 1.0, 1.0),
        (1.0, 1.0, 0.5, 0.5),
        (0.5, 0.5, 1.0, 1.0),
    ]


def test_axis_ramp_matches_numpy_bit_for_bit():
    for size in range(1, 60):
        for overlap in range(size):
            assert _axis_ramp(size, overlap) == numpy_axis_ramp(size, overlap).tolist()


def test_tiles_round_robin_devices():
    plan = plan_vae_tiles((1, 96, 96), (1, 48, 48), (0, 8, 8), devices=3)
    devices = [t.device for t in plan.tiles]
    assert devices == [i % 3 for i in range(len(devices))]


def test_tiles_overlap_must_be_smaller_than_tile():
    with pytest.raises(ConfigError):
        plan_vae_tiles((8, 64, 64), (4, 32, 32), (4, 0, 0))


def test_tiles_count_capped_before_tiles_are_built():
    plan = plan_vae_tiles((1, 1, MAX_VAE_TILES), (1, 1, 1), (0, 0, 0))
    assert len(plan.tiles) == MAX_VAE_TILES
    with pytest.raises(ConfigError) as info:
        plan_vae_tiles((1, 1, MAX_VAE_TILES + 1), (1, 1, 1), (0, 0, 0))
    assert info.value.path == "vae.tile"


# ---------------------------------------------------------------------------
# Temporal windows
# ---------------------------------------------------------------------------


def test_windows_reference_case():
    plan = plan_temporal_windows(32, 8, 4)
    assert plan.num_clips == math.ceil((32 - 8) / 4) + 1 == 7
    mult = plan.coverage
    assert list(mult[:4]) == [1, 1, 1, 1]
    assert list(mult[-4:]) == [1, 1, 1, 1]
    assert set(mult[4:-4]) == {2}


def test_windows_degenerate_single_clip():
    plan = plan_temporal_windows(16, 16, 4)
    assert plan.num_clips == 1
    assert plan.clips == ((0, 16),)
    assert set(plan.coverage) == {1}


def test_windows_end_clamped():
    plan = plan_temporal_windows(33, 8, 4)
    assert plan.num_clips == math.ceil(25 / 4) + 1 == 8
    assert plan.clips[-1] == (25, 33)


def test_windows_stride_beyond_window_rejected():
    with pytest.raises(ConfigError):
        plan_temporal_windows(32, 8, 9)


def test_windows_latent_capped():
    with pytest.raises(ConfigError) as info:
        plan_temporal_windows(MAX_WINDOW_LATENT + 1, 1, 1)
    assert info.value.path == "windows.n_prime"


def test_windows_averaging_weights():
    # Each clip covering index i is weighted 1/|S(i)| = 1/coverage[i].
    plan = plan_temporal_windows(32, 8, 4)
    assert plan.coverage[0] == 1 and 1 / plan.coverage[0] == 1.0
    assert plan.coverage[10] == 2 and 1 / plan.coverage[10] == 0.5


def test_windows_constant_clip_average_equals_mean():
    # assign each clip a constant value; the 1/|S(i)| update must equal
    # the arithmetic mean of covering clips at every index
    plan = plan_temporal_windows(23, 6, 3)
    values = np.arange(1.0, plan.num_clips + 1.0)
    acc = np.zeros(plan.n_prime)
    for k, (start, end) in enumerate(plan.clips):
        acc[start:end] += values[k]
    mult = np.array(plan.coverage, dtype=float)
    averaged = acc / mult
    for i in range(plan.n_prime):
        covering = [values[k] for k, (s, e) in enumerate(plan.clips) if s <= i < e]
        assert averaged[i] == pytest.approx(sum(covering) / len(covering))


def test_windows_exhaustive_small_sweep():
    for n_prime in range(1, 33):
        for n in range(1, n_prime + 1):
            for s in range(1, n + 1):
                plan = plan_temporal_windows(n_prime, n, s)
                assert plan.num_clips == math.ceil((n_prime - n) / s) + 1
                mult = list(plan.coverage)
                expected = [
                    sum(1 for start, end in plan.clips if start <= i < end)
                    for i in range(n_prime)
                ]
                assert mult == expected
                assert min(mult) >= 1
                covered = np.zeros(n_prime, dtype=bool)
                for start, end in plan.clips:
                    assert 0 <= start <= end <= n_prime
                    assert end - start == n
                    covered[start:end] = True
                assert covered.all()
