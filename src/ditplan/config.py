"""Static input descriptions: model, cluster, dtype policy, parallel layout, stages.

Everything here is an immutable value object. Construction enforces only
local sanity (positive counts, known enum values); cross-object rules such
as "tp divides the hidden size" are checked by :func:`validate`, which
returns violations as data instead of raising, so that a report can list
every problem at once.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import Any, Iterable, Mapping, NamedTuple

from .errors import MAX_INTEGER, MAX_MAGNITUDE, MIN_MAGNITUDE, ConfigError, finite_number, integer_value

ADALN_MODES = ("shared-weights", "per-block-dedicated")
ZERO_STAGES = ("none", "optimizer-partitioned")

_DTYPE_WIDTHS = (1, 2, 4, 8)

# The causal video VAE every planned model sits behind: the leading frame
# stays whole and the rest compress by the temporal ratio, height and width
# divide by the spatial ratio, and each latent pixel carries this many
# channels.
VAE_TEMPORAL_RATIO = 4
VAE_SPATIAL_RATIO = 8
VAE_LATENT_CHANNELS = 8


@dataclass(frozen=True)
class ModelArch:
    """Transformer shape description.

    ``param_count`` may be supplied directly when the true total is known
    (preferred); :func:`estimate_param_count` is a convenience for models
    where only the dims are known.
    """

    hidden_size: int
    num_heads: int
    num_layers: int
    ffn_multiplier: int = 4
    adaln_mode: str = "per-block-dedicated"
    patch_t: int = 1
    patch_h: int = 2
    patch_w: int = 2
    param_count: float | None = None
    extra_unpartitioned_layers: tuple[str, ...] = ("patchify", "final_proj")

    def __post_init__(self):
        for name in ("hidden_size", "num_heads", "num_layers", "ffn_multiplier"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 0:
                raise ConfigError("must be a non-negative integer", f"model.{name}")
        if self.hidden_size < 1 or self.num_heads < 1:
            raise ConfigError("hidden_size and num_heads must be >= 1", "model")
        for name in ("patch_t", "patch_h", "patch_w"):
            if getattr(self, name) < 1:
                raise ConfigError("patch dims must be >= 1", f"model.{name}")
        if self.adaln_mode not in ADALN_MODES:
            raise ConfigError(f"adaln_mode must be one of {ADALN_MODES}", "model.adaln_mode")
        if self.param_count is not None and self.param_count <= 0:
            raise ConfigError("param_count must be positive when supplied", "model.param_count")
        object.__setattr__(
            self, "extra_unpartitioned_layers", tuple(self.extra_unpartitioned_layers)
        )

    @property
    def patch_volume(self) -> int:
        return self.patch_t * self.patch_h * self.patch_w


@dataclass(frozen=True)
class ClusterSpec:
    """Hardware description. Bandwidths in bytes/s, memory in bytes, FLOPs in FLOP/s."""

    num_nodes: int
    devices_per_node: int
    device_mem: float
    peak_flops_per_device: float
    intra_node_bw: float
    inter_node_bw: float
    pcie_bw_per_device: float
    host_write_bw_per_numa: float
    devices_per_numa: int
    host_mem: float

    def __post_init__(self):
        for field in fields(self):
            if getattr(self, field.name) <= 0:
                raise ConfigError("must be positive", f"cluster.{field.name}")
        if self.devices_per_numa > self.devices_per_node:
            raise ConfigError(
                "devices_per_numa cannot exceed devices_per_node", "cluster.devices_per_numa"
            )

    @property
    def total_devices(self) -> int:
        return self.num_nodes * self.devices_per_node


@dataclass(frozen=True)
class DTypePolicy:
    """Bytes per element for each model-state class.

    The default (2-byte params/grads/activations, 4-byte master weights,
    AdamW moments and EMA) puts a 13.4B model at 268 GB of model states.
    """

    param_bytes: int = 2
    grad_bytes: int = 2
    master_bytes: int = 4
    moment_bytes: int = 4
    ema_bytes: int = 4
    act_bytes: int = 2

    def __post_init__(self):
        for field in fields(self):
            if getattr(self, field.name) not in _DTYPE_WIDTHS:
                raise ConfigError(f"must be one of {_DTYPE_WIDTHS}", f"dtypes.{field.name}")


@dataclass(frozen=True)
class ParallelConfig:
    """One candidate parallel layout: tensor/context/data degrees plus options."""

    tp: int = 1
    cp: int = 1
    dp: int = 1
    zero_stage: str = "optimizer-partitioned"
    grad_accum: int = 1

    def __post_init__(self):
        for name in ("tp", "cp", "dp", "grad_accum"):
            if getattr(self, name) < 1:
                raise ConfigError("degree must be >= 1", f"parallel.{name}")
        if self.zero_stage not in ZERO_STAGES:
            raise ConfigError(f"zero_stage must be one of {ZERO_STAGES}", "parallel.zero_stage")

    @property
    def devices_used(self) -> int:
        return self.tp * self.cp * self.dp


@dataclass(frozen=True)
class StageScenario:
    """One training-stage row: which bucket(s) it runs and at what batch size."""

    name: str
    image_bucket: "Bucket | None" = None
    video_bucket: "Bucket | None" = None
    global_batch: int = 1
    step_count: int = 1

    def __post_init__(self):
        if self.image_bucket is None and self.video_bucket is None:
            raise ConfigError("stage needs at least one bucket", f"stages.{self.name}")
        if self.global_batch < 1 or self.step_count < 1:
            raise ConfigError("batch and step counts must be >= 1", f"stages.{self.name}")

    def buckets(self) -> list[tuple[str, "Bucket"]]:
        out = []
        if self.image_bucket is not None:
            out.append(("image", self.image_bucket))
        if self.video_bucket is not None:
            out.append(("video", self.video_bucket))
        return out


def validate(arch: ModelArch, cluster: ClusterSpec, par: ParallelConfig) -> list[str]:
    """Cross-check a (model, cluster, parallel) triple.

    Returns a deterministic, order-stable list of violation strings;
    empty means valid. Violations are data, not failures.
    """
    violations: list[str] = []
    if arch.num_layers < 1:
        violations.append("num_layers must be >= 1 to plan a step")
    if arch.hidden_size % arch.num_heads != 0:
        violations.append(
            f"num_heads does not divide hidden_size ({arch.hidden_size} % {arch.num_heads} != 0)"
        )
    if arch.hidden_size % par.tp != 0:
        violations.append(
            f"tp does not divide H ({arch.hidden_size} % {par.tp} != 0)"
        )
    if par.tp > cluster.devices_per_node:
        violations.append(
            f"tp {par.tp} exceeds devices_per_node {cluster.devices_per_node}"
        )
    if par.devices_used > cluster.total_devices:
        violations.append(
            f"device overcommit: tp*cp*dp = {par.devices_used} "
            f"exceeds cluster total {cluster.total_devices}"
        )
    return violations


class ParamCountEstimate(NamedTuple):
    """Parameter-count breakdown; AdaLN is reported separately because
    per-block modulation layers alone can add multiple billions."""

    total: float
    transformer: float
    adaln: float
    embedding_head: float


def estimate_param_count(arch: ModelArch) -> ParamCountEstimate:
    """Estimate parameters from dims when the true count is not supplied.

    Per transformer block: 4*H^2 attention (QKV + output projection) plus
    2*ffn_multiplier*H^2 FFN. Per-block-dedicated AdaLN adds 6*H^2 per
    block (one Linear regressing scale/shift/gate pairs); shared mode
    amortizes to a single 6*H^2 module. Patchify embedding and the final
    projection contribute the (small) embedding/head term.
    """
    h2 = arch.hidden_size**2
    per_layer = 4 * h2 + 2 * arch.ffn_multiplier * h2
    transformer = arch.num_layers * per_layer
    if arch.adaln_mode == "per-block-dedicated":
        adaln = arch.num_layers * 6 * h2
    else:
        adaln = 6 * h2
    in_features = arch.patch_volume * VAE_LATENT_CHANNELS
    embedding_head = 2 * in_features * arch.hidden_size
    return ParamCountEstimate(
        total=float(transformer + adaln + embedding_head),
        transformer=float(transformer),
        adaln=float(adaln),
        embedding_head=float(embedding_head),
    )


def resolved_param_count(arch: ModelArch) -> float:
    """Supplied count when present, estimate otherwise."""
    if arch.param_count is not None:
        return float(arch.param_count)
    return estimate_param_count(arch).total


@dataclass(frozen=True)
class OverlapConfig:
    """Overlap and collective-cost knobs.

    ``tp_sp_fraction`` is the fraction of TP-SP collective time hidden by
    fused matmul pipelining. No measured value is available for it, so it
    is an explicit assumption (default 0.8) and is echoed in reports.
    """

    tp_sp_fraction: float = 0.8
    collective_latency_ms: float = 0.02
    efficiency: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.tp_sp_fraction <= 1.0:
            raise ConfigError("must be in [0, 1]", "overlap.tp_sp_fraction")
        if self.collective_latency_ms < 0:
            raise ConfigError("must be >= 0", "overlap.collective_latency_ms")
        if not 0.0 < self.efficiency <= 1.0:
            raise ConfigError("must be in (0, 1]", "overlap.efficiency")


@dataclass(frozen=True)
class ParallelSection:
    """The ``parallel`` config block: degrees may be left null to enumerate."""

    tp: int | None = None
    cp: int | None = None
    dp: int | None = None
    zero_stage: str = "optimizer-partitioned"
    grad_accum: int = 1

    def __post_init__(self):
        if self.zero_stage not in ZERO_STAGES:
            raise ConfigError(f"zero_stage must be one of {ZERO_STAGES}", "parallel.zero_stage")
        if self.grad_accum < 1:
            raise ConfigError("must be >= 1", "parallel.grad_accum")

    @property
    def pinned(self) -> ParallelConfig | None:
        if self.tp is None and self.cp is None and self.dp is None:
            return None
        if self.tp is None or self.cp is None or self.dp is None:
            raise ConfigError("pin all of tp, cp, dp or none of them", "parallel")
        return ParallelConfig(
            tp=self.tp,
            cp=self.cp,
            dp=self.dp,
            zero_stage=self.zero_stage,
            grad_accum=self.grad_accum,
        )


@dataclass(frozen=True)
class PlanningConfig:
    """Everything one planning run needs, as parsed from a single JSON document."""

    model: ModelArch
    cluster: ClusterSpec
    dtypes: DTypePolicy = DTypePolicy()
    parallel: ParallelSection = ParallelSection()
    overlap: OverlapConfig = OverlapConfig()
    stages: tuple[StageScenario, ...] = ()
    buckets: tuple["Bucket", ...] = ()
    fitted_fields: tuple[str, ...] = ()


def require_valid(config: PlanningConfig) -> None:
    """Raise :class:`ConfigError` listing every :func:`validate` violation of
    the config's pinned layout, or of tp=cp=dp=1 when none is pinned."""
    violations = validate(config.model, config.cluster, config.parallel.pinned or ParallelConfig())
    if violations:
        raise ConfigError("; ".join(violations), "config")


# ---------------------------------------------------------------------------
# Strict JSON ingestion. Unknown keys are rejected with the offending path.
# ---------------------------------------------------------------------------

_TOP_LEVEL_KEYS = ("model", "cluster", "dtypes", "parallel", "stages", "buckets", "overlap")

def _require_mapping(obj: Any, path: str) -> Mapping[str, Any]:
    if not isinstance(obj, Mapping):
        raise ConfigError("expected a JSON object", path)
    return obj


def _field_names(cls: type) -> tuple[str, ...]:
    return tuple(field.name for field in fields(cls))


def _reject_unknown(obj: Mapping[str, Any], allowed: Iterable[str], path: str) -> None:
    allowed = set(allowed)
    for key in obj:
        if key not in allowed:
            raise ConfigError("unknown key", f"{path}.{key}" if path else key)


def _require_fields(obj: Mapping[str, Any], cls: type, path: str) -> None:
    """Reject ``obj`` when it lacks a field of dataclass ``cls`` that has no default."""
    for field in fields(cls):
        if field.default is MISSING and field.name not in obj:
            raise ConfigError("missing required key", f"{path}.{field.name}")


# Parsers for the scalar field annotations of the config dataclasses, keyed
# by annotation string (``from __future__ import annotations`` keeps them
# strings).
_SCALAR_PARSERS = {
    "int": integer_value,
    "float": lambda value, path: float(finite_number(value, path)),
    "str": lambda value, path: value,
}


def _scalar_fields(obj: Mapping[str, Any], cls: type, path: str) -> dict[str, Any]:
    """The int, float and str fields of dataclass ``cls`` present in ``obj``,
    each parsed by its annotation. A null in an optional field keeps the
    default; other fields (buckets, name lists) are left to the caller."""
    kwargs: dict[str, Any] = {}
    for field in fields(cls):
        kind = field.type.removesuffix(" | None")
        if field.name not in obj or kind not in _SCALAR_PARSERS:
            continue
        if obj[field.name] is None and kind != field.type:
            continue
        kwargs[field.name] = _SCALAR_PARSERS[kind](obj[field.name], f"{path}.{field.name}")
    return kwargs


def _parse_bucket(entry: Any, path: str) -> "Bucket":
    from .buckets import Bucket

    if not isinstance(entry, (list, tuple)) or len(entry) != 4:
        raise ConfigError("bucket must be [batch, frames, height, width]", path)
    values = [integer_value(v, f"{path}[{i}]") for i, v in enumerate(entry)]
    try:
        return Bucket(*values)
    except ConfigError as exc:
        raise ConfigError(str(exc), path) from exc


def parse_config(doc: Mapping[str, Any]) -> PlanningConfig:
    """Build a :class:`PlanningConfig` from a parsed JSON document."""
    doc = _require_mapping(doc, "<root>")
    _reject_unknown(doc, _TOP_LEVEL_KEYS, "")
    for required in ("model", "cluster"):
        if required not in doc:
            raise ConfigError("missing required section", required)

    model_doc = _require_mapping(doc["model"], "model")
    _reject_unknown(model_doc, _field_names(ModelArch), "model")
    _require_fields(model_doc, ModelArch, "model")
    model_kwargs = _scalar_fields(model_doc, ModelArch, "model")
    if "extra_unpartitioned_layers" in model_doc:
        layers = model_doc["extra_unpartitioned_layers"]
        if not isinstance(layers, (list, tuple)) or not all(isinstance(x, str) for x in layers):
            raise ConfigError("expected a list of layer names", "model.extra_unpartitioned_layers")
        model_kwargs["extra_unpartitioned_layers"] = tuple(layers)
    model = ModelArch(**model_kwargs)

    cluster_doc = _require_mapping(doc["cluster"], "cluster")
    _reject_unknown(cluster_doc, _field_names(ClusterSpec), "cluster")
    _require_fields(cluster_doc, ClusterSpec, "cluster")
    cluster = ClusterSpec(**_scalar_fields(cluster_doc, ClusterSpec, "cluster"))

    sections: dict[str, Any] = {}
    for key, cls in (
        ("dtypes", DTypePolicy),
        ("parallel", ParallelSection),
        ("overlap", OverlapConfig),
    ):
        if key in doc:
            section = _require_mapping(doc[key], key)
            _reject_unknown(section, _field_names(cls), key)
            sections[key] = cls(**_scalar_fields(section, cls, key))

    buckets: list[Any] = []
    if "buckets" in doc:
        if not isinstance(doc["buckets"], (list, tuple)):
            raise ConfigError("expected an array of buckets", "buckets")
        buckets = [
            _parse_bucket(entry, f"buckets[{i}]") for i, entry in enumerate(doc["buckets"])
        ]

    stages: list[StageScenario] = []
    if "stages" in doc:
        if not isinstance(doc["stages"], (list, tuple)):
            raise ConfigError("expected an array of stages", "stages")
        for i, entry in enumerate(doc["stages"]):
            path = f"stages[{i}]"
            stage_doc = _require_mapping(entry, path)
            _reject_unknown(stage_doc, _field_names(StageScenario), path)
            if not isinstance(stage_doc.get("name"), str):
                raise ConfigError("stage needs a string name", f"{path}.name")
            if any(stage.name == stage_doc["name"] for stage in stages):
                raise ConfigError(f"duplicate stage name {stage_doc['name']!r}", f"{path}.name")
            buckets_kwargs = {
                which: _parse_bucket(stage_doc[which], f"{path}.{which}")
                for which in ("image_bucket", "video_bucket")
                if stage_doc.get(which) is not None
            }
            stages.append(
                StageScenario(**buckets_kwargs, **_scalar_fields(stage_doc, StageScenario, path))
            )

    return PlanningConfig(
        model=model, cluster=cluster, **sections, stages=tuple(stages), buckets=tuple(buckets)
    )


def load_config(path: str | Path) -> PlanningConfig:
    """Parse a planning config from a JSON file."""
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", str(path)) from exc
    except ValueError as exc:  # bad JSON, bad UTF-8, or an int too long to convert
        raise ConfigError(f"invalid JSON: {exc}", str(path)) from exc
    return parse_config(doc)
