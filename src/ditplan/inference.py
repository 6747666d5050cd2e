"""Inference-side schedules: diffusion cache, VAE tiling, temporal windows.

All planners here are pure schedule builders; nothing is executed. The
cache planner trades refresh steps against cheap cached steps after a
quality-preserving warmup. The VAE tiler cuts a latent into overlapping
tiles whose linear blend weights sum to one everywhere. The temporal
window planner slides a fixed-length window over a long latent, clamping
the last window to the end so every index belongs to at least one clip;
the plan's ``coverage`` counts the clips that share each index.
"""

from __future__ import annotations

import math
from itertools import accumulate, product
from typing import NamedTuple

from .errors import ConfigError

CACHE_MODES = ("dit-layer-cache", "attention-cache")

# Input size caps: per-step flags, coverage lists and tile lists grow
# linearly with them, so an unbounded value would exhaust memory before any
# output is written.
MAX_CACHE_STEPS = 2**16
MAX_WINDOW_LATENT = 2**16
MAX_VAE_TILES = 2**16

# Fraction of a full step a cached step still costs. 0.25 reproduces the
# observed ~1.67x speedup of rear-layer caching at 50 steps / warmup 10 /
# refresh interval 3; it is a fitted default, not a measured constant.
DEFAULT_CACHED_COST_FRACTION = 0.25


class CacheSchedule(NamedTuple):
    total_steps: int
    warmup: int
    interval: int
    mode: str
    cached_cost_fraction: float
    per_step_full: tuple[bool, ...]
    speedup: float

    @property
    def full_steps(self) -> int:
        return sum(self.per_step_full)

    @property
    def cached_steps(self) -> int:
        return self.total_steps - self.full_steps


def plan_cache(
    total_steps: int,
    warmup: int = 10,
    interval: int = 3,
    cached_cost_fraction: float = DEFAULT_CACHED_COST_FRACTION,
    mode: str = "dit-layer-cache",
) -> CacheSchedule:
    """Build a denoising schedule: full warmup, then refresh every ``interval`` steps.

    The first post-warmup step refreshes the cache; the next
    ``interval - 1`` steps reuse it at ``cached_cost_fraction`` of a full
    step. Speedup is total_steps over the summed per-step cost. Schedules
    of more than ``MAX_CACHE_STEPS`` steps are rejected.
    """
    if mode not in CACHE_MODES:
        raise ConfigError(f"mode must be one of {CACHE_MODES}", "cache.mode")
    if total_steps < 1:
        raise ConfigError("total_steps must be >= 1", "cache.total_steps")
    if total_steps > MAX_CACHE_STEPS:
        raise ConfigError(f"{total_steps} exceeds the cap of {MAX_CACHE_STEPS}", "cache.total_steps")
    if not 0 <= warmup <= total_steps:
        raise ConfigError("warmup must be in [0, total_steps]", "cache.warmup")
    if interval < 1:
        raise ConfigError("interval must be >= 1", "cache.interval")
    if not 0.0 < cached_cost_fraction <= 1.0:
        raise ConfigError("cached_cost_fraction must be in (0, 1]", "cache.cached_cost_fraction")
    flags = []
    for step in range(1, total_steps + 1):
        if step <= warmup:
            flags.append(True)
        else:
            flags.append((step - warmup - 1) % interval == 0)
    cost = sum(1.0 if full else cached_cost_fraction for full in flags)
    return CacheSchedule(
        total_steps=total_steps,
        warmup=warmup,
        interval=interval,
        mode=mode,
        cached_cost_fraction=cached_cost_fraction,
        per_step_full=tuple(flags),
        speedup=total_steps / cost,
    )


class Tile(NamedTuple):
    start: tuple[int, int, int]
    size: tuple[int, int, int]
    device: int


class TilePlan(NamedTuple):
    latent: tuple[int, int, int]
    tiles: tuple[Tile, ...]
    overlap: tuple[int, int, int]
    devices: int
    parallel_speedup: float

    def blend_weights(self) -> tuple[tuple[tuple[float, ...], ...], ...]:
        """Each tile's (t, h, w) blend weights, in ``tiles`` order.

        The tiles form a grid, so the weights are separable: along each
        axis a tile's weight is its linear ramp divided by the summed ramps
        of the tiles covering that index, and the outer product of the
        three is the tile's 3-D weight map. Those maps sum to one at every
        latent position.
        """
        per_axis = []
        for a in range(3):
            size = self.tiles[0].size[a]
            ramp = _axis_ramp(size, self.overlap[a])
            starts = sorted({tile.start[a] for tile in self.tiles})
            total = [0.0] * self.latent[a]
            for start in starts:
                for k, r in enumerate(ramp):
                    total[start + k] += r
            per_axis.append(
                {s: tuple(r / total[s + k] for k, r in enumerate(ramp)) for s in starts}
            )
        return tuple(
            tuple(per_axis[a][tile.start[a]] for a in range(3)) for tile in self.tiles
        )


def _axis_ramp(size: int, overlap: int) -> list[float]:
    """Linear ramp up across the overlap with the previous tile and down
    across the next; (k+1)/(edge+1) keeps the ends strictly positive so two
    adjoining ramps sum exactly to 1 across the shared region."""
    edge = min(overlap, size)
    return [min(1.0, (k + 1) / (edge + 1), (size - k) / (edge + 1)) for k in range(size)]


def _axis_count(extent: int, size: int, stride: int) -> int:
    """Spans of ``size`` every ``stride`` that cover ``extent``, the last end-aligned."""
    if size >= extent:
        return 1
    return -(-(extent - size) // stride) + 1


def _axis_starts(extent: int, size: int, stride: int) -> list[int]:
    return [min(k * stride, extent - size) for k in range(_axis_count(extent, size, stride))]


def plan_vae_tiles(
    latent: tuple[int, int, int],
    tile: tuple[int, int, int],
    overlap: tuple[int, int, int],
    devices: int = 1,
) -> TilePlan:
    """Tile a latent volume for parallel VAE decode.

    Tiles advance by (size - overlap) per axis, the last tile per axis is
    end-aligned, and tiles round-robin across devices. Speedup is
    num_tiles / ceil(num_tiles / devices), linear while tiles spread
    evenly. A tile larger than the latent degenerates to a single tile.
    Plans of more than ``MAX_VAE_TILES`` tiles are rejected before any
    tile is built.
    """
    if devices < 1:
        raise ConfigError("devices must be >= 1", "vae.devices")
    for axis in range(3):
        if tile[axis] < 1:
            raise ConfigError("tile size must be >= 1", f"vae.tile[{axis}]")
        if overlap[axis] < 0 or overlap[axis] >= tile[axis]:
            raise ConfigError("need tile size > overlap >= 0", f"vae.overlap[{axis}]")
        if latent[axis] < 1:
            raise ConfigError("latent dims must be >= 1", f"vae.latent[{axis}]")
    clamped = tuple(min(tile[a], latent[a]) for a in range(3))
    strides = [clamped[a] - overlap[a] for a in range(3)]
    num_tiles = math.prod(_axis_count(latent[a], clamped[a], strides[a]) for a in range(3))
    if num_tiles > MAX_VAE_TILES:
        raise ConfigError(f"{num_tiles} tiles exceed the cap of {MAX_VAE_TILES}", "vae.tile")
    starts = product(*(_axis_starts(latent[a], clamped[a], strides[a]) for a in range(3)))
    tiles = tuple(Tile(start, clamped, index % devices) for index, start in enumerate(starts))
    speedup = num_tiles / math.ceil(num_tiles / devices)
    return TilePlan(
        latent=latent,
        tiles=tiles,
        overlap=overlap,
        devices=devices,
        parallel_speedup=speedup,
    )


class WindowPlan(NamedTuple):
    """``coverage[i]`` is how many clips cover latent index ``i``."""

    n_prime: int
    window: int
    stride: int
    clips: tuple[tuple[int, int], ...]
    coverage: tuple[int, ...]

    @property
    def num_clips(self) -> int:
        return len(self.clips)


def plan_temporal_windows(n_prime: int, n: int, s: int) -> WindowPlan:
    """Slide a length-``n`` window by ``s`` over an ``n_prime``-long latent.

    Clip k covers [k*s, k*s + n); the final clip is clamped to end at
    n_prime so the whole latent is covered. The clip count is
    ceil((n_prime - n) / s) + 1. Strides past the window length would
    leave uncovered gaps and are rejected, as are latents longer than
    ``MAX_WINDOW_LATENT``. Coverage comes from a difference array over the
    clips: O(n_prime + clips).
    """
    if n_prime < 1 or n < 1:
        raise ConfigError("lengths must be >= 1", "windows")
    if n_prime > MAX_WINDOW_LATENT:
        raise ConfigError(f"{n_prime} exceeds the cap of {MAX_WINDOW_LATENT}", "windows.n_prime")
    if n > n_prime:
        raise ConfigError(f"window {n} longer than latent {n_prime}", "windows.n")
    if s < 1:
        raise ConfigError("stride must be >= 1", "windows.stride")
    if s > n:
        raise ConfigError(
            f"stride {s} exceeds window {n}: indices between clips would go uncovered",
            "windows.stride",
        )
    clips = tuple((start, start + n) for start in _axis_starts(n_prime, n, s))
    delta = [0] * (n_prime + 1)
    for start, end in clips:
        delta[start] += 1
        delta[end] -= 1
    coverage = tuple(accumulate(delta[:-1]))
    return WindowPlan(n_prime=n_prime, window=n, stride=s, clips=clips, coverage=coverage)
