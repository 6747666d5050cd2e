"""Bucketed dataset geometry: latent shapes, token counts, token balance.

A bucket is a ``{batch, frames, height, width}`` quadruple. Buckets are
chosen so that different shape classes carry (near-)equal token counts
per batch and can run side by side under plain data parallelism.
"""

from __future__ import annotations

import math
from typing import NamedTuple

# Bucket is re-exported here, as ditplan.buckets.Bucket.
from .config import VAE_SPATIAL_RATIO, VAE_TEMPORAL_RATIO, Bucket, ModelArch
from .errors import ConfigError, DimensionError

# Input size cap, like the inference planners' caps: check_token_balance compares
# every pair of buckets, and plan train writes a warning per flagged pair, so an
# unbounded count would exhaust memory. 256 buckets give at most 32,640 pairs.
MAX_BUCKETS = 256


class LatentShape(NamedTuple):
    """Latent geometry of one sample plus its post-patchify token counts."""

    t_lat: int
    h_lat: int
    w_lat: int
    tokens: int
    tokens_batch: int


def latent_shape(frames: int, height: int, width: int) -> tuple[int, int, int]:
    """Pre-patchify latent dims of a (frames, height, width) video.

    The leading frame is kept whole, the remaining frames compress by
    ``VAE_TEMPORAL_RATIO``; spatial dims must divide by ``VAE_SPATIAL_RATIO``.
    """
    if frames < 1:
        raise DimensionError("frames must be >= 1", "frames")
    if (frames - 1) % VAE_TEMPORAL_RATIO != 0:
        raise DimensionError(
            f"frames-1 must be divisible by the temporal ratio {VAE_TEMPORAL_RATIO}", "frames"
        )
    if height % VAE_SPATIAL_RATIO != 0:
        raise DimensionError(
            f"height {height} not divisible by spatial ratio {VAE_SPATIAL_RATIO}", "height"
        )
    if width % VAE_SPATIAL_RATIO != 0:
        raise DimensionError(
            f"width {width} not divisible by spatial ratio {VAE_SPATIAL_RATIO}", "width"
        )
    t_lat = 1 + (frames - 1) // VAE_TEMPORAL_RATIO
    return (t_lat, height // VAE_SPATIAL_RATIO, width // VAE_SPATIAL_RATIO)


def token_count(bucket: Bucket, arch: ModelArch) -> LatentShape:
    """Tokens per sample (post-patchify by ``arch``'s patch, ceiling division) and per batch."""
    t_lat, h_lat, w_lat = latent_shape(bucket.frames, bucket.height, bucket.width)
    tokens = (
        math.ceil(t_lat / arch.patch_t) * math.ceil(h_lat / arch.patch_h)
        * math.ceil(w_lat / arch.patch_w)
    )
    return LatentShape(
        t_lat=t_lat, h_lat=h_lat, w_lat=w_lat, tokens=tokens, tokens_batch=bucket.batch * tokens
    )


def snap_to_multiple(value: int, multiple: int) -> int:
    """Round to the nearest positive multiple (ties round up)."""
    snapped = int(multiple * math.floor(value / multiple + 0.5))
    return max(multiple, snapped)


def snap_bucket(bucket: Bucket, arch: ModelArch) -> Bucket:
    """Round bucket height/width to the nearest size the VAE and ``arch``'s patch can ingest.

    Published bucket lists include entries such as 480x854 that no 8x
    spatial VAE plus 2x2 patchify can ingest directly; real pipelines
    snap them (854 -> 848 with a 16-pixel grain).
    """
    height = snap_to_multiple(bucket.height, VAE_SPATIAL_RATIO * arch.patch_h)
    width = snap_to_multiple(bucket.width, VAE_SPATIAL_RATIO * arch.patch_w)
    if (height, width) == (bucket.height, bucket.width):
        return bucket
    return Bucket(bucket.batch, bucket.frames, height, width)


class BucketBalanceEntry(NamedTuple):
    bucket: Bucket
    snapped: Bucket
    tokens: int
    tokens_batch: int


class BucketBalanceReport(NamedTuple):
    """Per-bucket token totals plus the worst pairwise relative deviation."""

    entries: tuple[BucketBalanceEntry, ...]
    tolerance: float
    max_deviation: float
    flagged: tuple[tuple[str, str, float], ...]

    @property
    def balanced(self) -> bool:
        return not self.flagged


def check_token_balance(
    buckets: list[Bucket] | tuple[Bucket, ...],
    arch: ModelArch,
    tolerance: float = 0.01,
) -> BucketBalanceReport:
    """Flag bucket pairs whose per-batch token counts diverge beyond tolerance.

    Relative deviation of a pair is |a-b| / min(a,b), so ``tolerance``
    must be >= 0. Non-divisible spatial dims are snapped to the nearest
    compatible size first (the snapped shape is reported next to the
    original). More than ``MAX_BUCKETS`` buckets are rejected.
    """
    if tolerance < 0:
        raise ConfigError(f"must be >= 0, got {tolerance}", "tolerance")
    if len(buckets) > MAX_BUCKETS:
        raise ConfigError(f"{len(buckets)} buckets exceed the cap of {MAX_BUCKETS}", "buckets")
    entries = []
    for bucket in buckets:
        snapped = snap_bucket(bucket, arch)
        shape = token_count(snapped, arch)
        entries.append(
            BucketBalanceEntry(
                bucket=bucket, snapped=snapped, tokens=shape.tokens, tokens_batch=shape.tokens_batch
            )
        )
    flagged = []
    max_dev = 0.0
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            a, b = entries[i].tokens_batch, entries[j].tokens_batch
            dev = abs(a - b) / min(a, b)
            max_dev = max(max_dev, dev)
            if dev > tolerance:
                flagged.append((entries[i].bucket.label(), entries[j].bucket.label(), dev))
    return BucketBalanceReport(
        entries=tuple(entries),
        tolerance=tolerance,
        max_deviation=max_dev,
        flagged=tuple(flagged),
    )
