"""ditplan: planning and what-if simulation for long-context video DiT
training and inference.

The package is a pure-Python analytical toolkit, not a runtime: it
accounts memory, selects recomputation/offload strategies, costs
communication, estimates step time and MFU, and plans inference-side
schedules (diffusion cache, VAE tiling, temporal windows). numpy is
imported only when a caller asks for an array (VAE blend weights,
window multiplicity).
"""

from .buckets import (
    Bucket,
    BucketBalanceReport,
    LatentShape,
    check_token_balance,
    latent_shape,
    snap_bucket,
    token_count,
)
from .comm import (
    CP_TOKEN_GATE,
    CommPlan,
    CpGateResult,
    SyncAuditReport,
    build_comm_plan,
    cp_gate_and_comm,
    dp_comm,
    enumerate_parallel_configs,
    sync_audit,
    tp_sp_layer_comm,
)
from .config import (
    ClusterSpec,
    DTypePolicy,
    ModelArch,
    OverlapConfig,
    ParallelConfig,
    ParamCountEstimate,
    PlanningConfig,
    StageScenario,
    estimate_param_count,
    load_config,
    parse_config,
    resolved_param_count,
    validate,
)
from .errors import (
    ConfigError,
    DimensionError,
    InfeasibleError,
    MalformedTimelineError,
    PlanningError,
)
from .inference import (
    CacheSchedule,
    TilePlan,
    WindowPlan,
    plan_cache,
    plan_temporal_windows,
    plan_vae_tiles,
)
from .memory import (
    BUILTIN_CHUNKS,
    MIB,
    ActivationTimeline,
    ChunkSpec,
    ChunkTable,
    MemoryBreakdown,
    TimelineEvent,
    activation_per_layer,
    chunk_retained_bytes,
    load_chunk_table,
    model_states_bytes,
    peak_memory,
)
from .offload import (
    ActivationOffloadPlan,
    OffloadPlan,
    balance_strategies,
    effective_pcie_bw,
    plan_optimizer_offload,
)
from .presets import REFERENCE_CLUSTER, TABLE2_FIT, load_reference_config, reference_config_path
from .recompute import (
    RecomputePlan,
    memory_latency_ratio,
    plan_recompute,
)
from .report import PlanReport, render, run_train_plan
from .simulate import StepEstimate, estimate_step, flops_per_microstep

__version__ = "0.1.0"
