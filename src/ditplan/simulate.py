"""Analytical step-time, peak-memory and MFU estimation.

Compute is costed from model FLOPs: attention's 4*B*S^2*H score/value
matmuls per layer dominate the 2*B*S*params linear term once S grows past
H. :func:`forward_ms_per_microstep` is the one compute-time rule; backward
counts ``BACKWARD_FLOPS_FACTOR`` times the forward. Recomputation re-runs
selected chunk forwards using the reference latency table, rescaled S^2
for attention-class chunks and S for the rest. MFU counts only the
model's forward+backward FLOPs in the numerator (recompute FLOPs are
overhead, not model throughput).

One function, ``_cost_step``, costs a step: arithmetic over the chosen
recompute and offload sets that reports the peak and checks nothing about
capacity, and the one place where per-layer, per-micro-step and per-step
terms add up. The plan evaluator sizes and rescales each chunk once per
(shape, cp shard), covers the memory deficit with offload and recompute
and calls it directly, so the plans it ranks fit device memory by
construction. Public ``estimate_step`` derives the forward ms, rescaled
chunk latencies, resident model states and retained bytes from its
arguments and hands them on.
"""

from __future__ import annotations

from typing import NamedTuple

from .buckets import Bucket, token_count
from .comm import CommPlan
from .config import (
    ClusterSpec,
    DTypePolicy,
    ModelArch,
    ParallelConfig,
    estimate_param_count,
    resolved_param_count,
)
from .errors import ConfigError
from .memory import (BUILTIN_CHUNKS, ChunkTable, MemoryBreakdown, activation_per_layer,
                     model_states_bytes, resident_states)
from .offload import NO_OFFLOAD, OffloadPlan
from .recompute import RecomputePlan

BACKWARD_FLOPS_FACTOR = 2.0  # backward = 2x forward, standard

# Backward mirrors the forward collectives (all-gather and reduce-scatter
# swap roles), so one micro-step carries two forward-sized comm legs.
FWD_BWD_COMM_LEGS = 2.0


class StepEstimate(NamedTuple):
    t_compute_ms: float
    t_recompute_ms: float
    t_exposed_comm_ms: float
    t_exposed_offload_ms: float
    step_time_ms: float  # the four terms above, summed once
    peak_mem_bytes: float
    memory: MemoryBreakdown
    mfu: float


def flops_per_microstep(arch: ModelArch, B: int, S: int) -> float:
    """Forward FLOPs of one micro-batch.

    Per layer: 4*B*S^2*H for the two attention matmuls plus 2*B*S*p for
    the token-processing linears (p = 4H^2 attention projections +
    2*ffn_multiplier*H^2 FFN; modulation layers act per sample, not per
    token, and are negligible here). Patchify/head projections add the
    small tail term.
    """
    H = arch.hidden_size
    params_per_layer = 4 * H**2 + 2 * arch.ffn_multiplier * H**2
    per_layer = 4 * B * S**2 * H + 2 * B * S * params_per_layer
    head = 2 * B * S * estimate_param_count(arch).embedding_head
    return arch.num_layers * per_layer + head


def forward_ms_per_microstep(
    fwd_flops: float, cluster: ClusterSpec, par: ParallelConfig, efficiency: float
) -> float:
    """Forward ms of one micro-batch split over its ``tp * cp`` devices,
    each sustaining ``efficiency`` of its peak FLOP rate."""
    return fwd_flops / (efficiency * cluster.peak_flops_per_device * par.tp * par.cp) * 1e3


def recompute_ms_per_chunk(chunks: ChunkTable, B: int, s_shard: int) -> dict[str, float]:
    """Each chunk's forward latency rescaled from the table's shape to
    ``(B, s_shard)``: by ``S^2`` for attention-class chunks, by ``S`` for the rest."""
    scale = B / chunks.ref_batch
    ratio = s_shard / chunks.ref_seqlen
    return {
        c.name: c.fwd_latency_ms * (scale * ratio**2 if c.is_attention_class else scale * ratio)
        for c in chunks.chunks
    }


def _cost_step(
    arch: ModelArch,
    par: ParallelConfig,
    recompute_costs: dict[str, float],
    fwd_ms: float,
    resident: MemoryBreakdown,
    retained_per_layer: int,
    recompute: RecomputePlan,
    activation_exposed_ms_per_microstep: float,
    optimizer_exposed_ms: float,
    comm: CommPlan | None,
    efficiency: float,
) -> StepEstimate:
    """Cost one step from the candidate's precomputed numbers: one
    micro-batch's forward ms, each chunk's rescaled recompute latency, the
    model states resident on device (:func:`ditplan.memory.resident_states`),
    the bytes a layer retains and the exposed offload times.
    ``estimate_step`` and the plan evaluator both end here."""
    t_compute = par.grad_accum * (1 + BACKWARD_FLOPS_FACTOR) * fwd_ms
    recompute_ms = 0.0
    for name in recompute.selected:
        recompute_ms += recompute_costs[name]
    t_recompute = par.grad_accum * (recompute_ms * arch.num_layers)
    # TP-SP and CP: both legs of every layer of every micro-step; DP once a step.
    t_comm = 0.0 if comm is None else (
        (comm.tp_sp_exposed_ms_per_layer + comm.cp_ms_per_layer) * FWD_BWD_COMM_LEGS
        * arch.num_layers * par.grad_accum + comm.dp_exposed_ms_per_step)
    t_offload = par.grad_accum * activation_exposed_ms_per_microstep + optimizer_exposed_ms
    memory = MemoryBreakdown(resident.params, resident.grads, resident.master, resident.moments,
                             resident.ema, float(retained_per_layer * arch.num_layers))

    step_ms = t_compute + t_recompute + t_comm + t_offload
    # MFU = model-FLOP throughput over aggregate peak = the compute time at
    # peak over the step time, which keeps the identity case exactly 1.0.
    mfu = t_compute * efficiency / step_ms if step_ms > 0 else 0.0
    return StepEstimate(t_compute, t_recompute, t_comm, t_offload, step_ms, memory.total, memory,
                        mfu)


def estimate_step(
    arch: ModelArch,
    bucket: Bucket,
    par: ParallelConfig,
    cluster: ClusterSpec,
    dtypes: DTypePolicy = DTypePolicy(),
    recompute: RecomputePlan | None = None,
    offload: OffloadPlan = NO_OFFLOAD,
    comm: CommPlan | None = None,
    chunks: ChunkTable | None = None,
    efficiency: float = 0.5,
) -> StepEstimate:
    """Simulate one optimizer step of one bucket under a full strategy.

    ``peak_mem_bytes`` is reported, never checked: comparing it with
    ``cluster.device_mem`` is the caller's call.
    """
    if not 0.0 < efficiency <= 1.0:
        raise ConfigError("efficiency must be in (0, 1]", "overlap.efficiency")
    chunks = chunks or BUILTIN_CHUNKS
    if recompute is None:
        recompute = RecomputePlan((), 0, 0.0, True)
    B, S = bucket.batch, token_count(bucket, arch).tokens
    s_shard = S // par.cp
    retained = activation_per_layer(
        chunks, B, s_shard, arch.hidden_size, arch.num_heads, par.tp,
        recompute_set=recompute.selected, offload_set=offload.activation_offload_set,
    )
    states = model_states_bytes(resolved_param_count(arch), dtypes, par)
    return _cost_step(
        arch, par, recompute_ms_per_chunk(chunks, B, s_shard),
        forward_ms_per_microstep(flops_per_microstep(arch, B, S), cluster, par, efficiency),
        resident_states(states, offload.optimizer_offloaded), retained, recompute,
        offload.activation_exposed_ms_per_microstep, offload.optimizer_exposed_ms, comm, efficiency,
    )
