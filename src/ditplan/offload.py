"""Optimizer-state and activation offloading plans, and strategy balancing.

Offloading trades PCIe traffic for device memory. Transfers only pay off
when they hide under computation: optimizer shards ride the first forward
and last backward micro-steps, per-block activations ride the adjacent
block's compute. All devices of one NUMA domain offload at once and share
its host DDR write bandwidth, capping the per-device PCIe rate.

:func:`balance_strategies` is the planner's one keep/recompute/offload
selector: every offload attempt of every candidate, with or without
activation offload, turns its per-layer deficit into a recompute set and
an activation-offload set there.
"""

from __future__ import annotations

from typing import NamedTuple

from .config import ClusterSpec
from .errors import ConfigError, InfeasibleError
from .memory import MIB, ChunkTable
from .recompute import _NOTHING, RecomputePlan, cover

# Tensors below this size are not worth an offload round trip.
OFFLOAD_THRESHOLD_BYTES = 64 * MIB


def plan_optimizer_offload(
    opt_bytes_per_rank: float,
    pcie_bw: float,
    first_fwd_window_ms: float,
    last_bwd_window_ms: float,
) -> float:
    """Exposed optimizer-state staging time per step in ms.

    States move device-to-host after the update and back before the next
    one; the D2H leg hides under the first forward micro-step, the H2D
    leg under the last backward micro-step.
    """
    if first_fwd_window_ms < 0 or last_bwd_window_ms < 0:
        raise ConfigError("overlap windows must be >= 0", "offload.windows")
    if opt_bytes_per_rank <= 0:
        return 0.0
    leg_ms = opt_bytes_per_rank / pcie_bw * 1e3
    return max(0.0, leg_ms - first_fwd_window_ms) + max(0.0, leg_ms - last_bwd_window_ms)


def effective_pcie_bw(cluster: ClusterSpec) -> float:
    """Per-device transfer bandwidth once the ``devices_per_numa`` devices of
    one NUMA domain saturate its host writes."""
    return min(cluster.pcie_bw_per_device, cluster.host_write_bw_per_numa / cluster.devices_per_numa)


class ActivationOffloadPlan(NamedTuple):
    """``exposed_ms_per_layer`` counts both directions (offload and reload)."""

    selected: tuple[str, ...]
    bytes_per_layer: int
    exposed_ms_per_layer: float


class OffloadPlan(NamedTuple):
    """Combined optimizer + activation offload outcome for one layout."""

    optimizer_offloaded: bool
    optimizer_exposed_ms: float
    activation_offload_set: tuple[str, ...]
    activation_exposed_ms_per_microstep: float


NO_OFFLOAD = OffloadPlan(
    optimizer_offloaded=False,
    optimizer_exposed_ms=0.0,
    activation_offload_set=(),
    activation_exposed_ms_per_microstep=0.0,
)


def balance_strategies(
    deficit: int,
    chunks: ChunkTable,
    sizes: dict[str, int],
    cluster: ClusterSpec,
    block_compute_ms: float,
    num_layers: int,
    *,
    offload_activations: bool = True,
) -> tuple[RecomputePlan, ActivationOffloadPlan]:
    """Decide which chunks to keep, offload and recompute to cover a
    per-layer memory deficit: offload first, then recompute.

    (1) Offload, when ``offload_activations`` is true, attention-class
    chunks first (their recomputation is the costliest), then by bytes,
    until the deficit is covered. A chunk is eligible when it is
    offloadable, at least ``OFFLOAD_THRESHOLD_BYTES`` and its own transfer
    fits under one block's compute. The test is per chunk, but the
    selected chunks' transfers are summed: whatever of that sum exceeds
    ``block_compute_ms`` is exposed per layer in each direction, and the
    plan reports both directions together.
    (2) Recompute whatever deficit remains; with nothing offloaded that
    is the whole deficit.

    ``sizes`` maps every chunk name to the bytes it retains per layer per
    rank at the candidate's shape (its context-parallel shard included).
    Returns ``(recompute, offload)``. Raises :class:`InfeasibleError` when
    the offloaded activations of all layers exceed host memory or the
    deficit exceeds what offload and recompute can save together.
    """
    if deficit <= 0:
        return _NOTHING, ActivationOffloadPlan((), 0, 0.0)
    offloaded: set[str] = set()
    offload_bytes = 0
    exposed_ms = 0.0
    if offload_activations:
        bw = effective_pcie_bw(cluster)
        # Attention-class chunks first, then by bytes, then by name.
        overlappable = sorted(
            (not c.is_attention_class, -sizes[c.name], c.name)
            for c in chunks.chunks
            if c.offloadable
            and sizes[c.name] >= OFFLOAD_THRESHOLD_BYTES
            and sizes[c.name] / bw * 1e3 <= block_compute_ms
        )
        for _, neg_size, name in overlappable:
            if offload_bytes >= deficit:
                break
            offloaded.add(name)
            offload_bytes -= neg_size
        exposed_ms = 2 * max(0.0, offload_bytes / bw * 1e3 - block_compute_ms)

    remaining = deficit - offload_bytes  # none left: any pool's cover is _NOTHING
    recompute = _NOTHING if remaining <= 0 else cover(
        [(sizes[c.name], c.fwd_latency_ms, c.name)
         for c in chunks.chunks if c.recomputable and c.name not in offloaded], remaining)
    host_needed = offload_bytes * num_layers
    if host_needed > cluster.host_mem:
        raise InfeasibleError(
            f"offloaded activations ({host_needed / 1e9:.1f} GB) "
            f"exceed host memory ({cluster.host_mem / 1e9:.1f} GB)"
        )
    if not recompute.feasible:
        raise InfeasibleError(
            f"deficit {deficit / MIB:.0f} MiB/layer exceeds offloadable "
            f"+ recomputable savings {(offload_bytes + recompute.bytes_saved_per_layer) / MIB:.0f} MiB/layer"
        )
    return recompute, ActivationOffloadPlan(tuple(sorted(offloaded)), offload_bytes, exposed_ms)
