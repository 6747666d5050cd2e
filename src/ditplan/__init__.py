"""ditplan: planning and what-if simulation for long-context video DiT
training and inference.

The package is a pure-Python analytical toolkit, not a runtime: it
accounts memory, selects recomputation/offload strategies, costs
communication, estimates step time and MFU, and plans inference-side
schedules (diffusion cache, VAE tiling, temporal windows). It needs
nothing beyond the standard library.

``import ditplan`` loads no submodule: each exported name imports its
home module on first use (PEP 562), and each CLI subcommand imports only
the modules it runs.
"""

from importlib import import_module

# Home module -> the names the package exports from it.
_EXPORTS = {
    "buckets": "BucketBalanceReport LatentShape check_token_balance latent_shape snap_bucket "
    "token_count",
    "comm": "CP_TOKEN_GATE CommPlan CpGateResult build_comm_plan cp_gate_and_comm "
    "enumerate_parallel_configs",
    "config": "Bucket ClusterSpec DTypePolicy ModelArch OverlapConfig ParallelConfig "
    "ParamCountEstimate PlanningConfig StageScenario estimate_param_count load_config parse_config "
    "resolved_param_count validate",
    "errors": "ConfigError DimensionError InfeasibleError MalformedTimelineError PlanningError",
    "inference": "CacheSchedule TilePlan WindowPlan plan_cache plan_temporal_windows plan_vae_tiles",
    "memory": "BUILTIN_CHUNKS MIB ChunkSpec ChunkTable MemoryBreakdown TimelineEvent "
    "activation_per_layer chunk_retained_bytes load_chunk_table model_states_bytes peak_memory",
    "offload": "ActivationOffloadPlan OffloadPlan balance_strategies effective_pcie_bw "
    "plan_optimizer_offload",
    "presets": "REFERENCE_CLUSTER TABLE2_FIT load_reference_config reference_config_path",
    "recompute": "RecomputePlan memory_latency_ratio plan_recompute",
    "report": "render run_train_plan",
    "simulate": "StepEstimate estimate_step flops_per_microstep",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
