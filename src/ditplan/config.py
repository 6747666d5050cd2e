"""Static input descriptions: model, cluster, dtype policy, parallel layout, stages.

Every config record (the classes below and ``buckets.Bucket``) is an
immutable ``__slots__`` value object whose fields come from one table,
``_SCHEMA``: per field its key, JSON kind, default and the checks that
construction enforces (positive counts, known enum values). The same rows
drive JSON parsing (unknown-key, missing-key and type errors). Records
compare and hash by value and offer ``_fields``, ``_asdict()`` and
``_replace()``, which re-runs the checks. Cross-object rules such as "tp
divides the hidden size" are checked by :func:`validate`, which returns
violations as data instead of raising, so that a report can list every
problem at once.
"""

from __future__ import annotations

import json
from operator import attrgetter
from pathlib import Path
from typing import Any, Mapping, NamedTuple

from .errors import ConfigError, finite_number, integer_value

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

# ---------------------------------------------------------------------------
# The schema: record -> (section, rows). A row is (keys, kind, default,
# *checks) and gives each of its space-separated keys, in order, one field.
# ``kind`` names the JSON parser in ``_PARSERS`` (a trailing "?" lets a null
# keep the default; None marks a field JSON cannot set); _REQUIRED marks a key
# the JSON object must carry. A check is (condition, message[, path]):
# construction raises ConfigError(message, path) unless the condition holds,
# where ``v`` is the field's value and the record's other fields are in
# scope; ``path`` is an f-string template, ``section.key`` by default.
# ---------------------------------------------------------------------------

_REQUIRED = object()
_NON_NEGATIVE = ("isinstance(v, int) and v >= 0", "must be a non-negative integer")
_PATCH = ("v >= 1", "patch dims must be >= 1")
_POSITIVE = ("v > 0", "must be positive")
_WIDTH = ("v in _DTYPE_WIDTHS", f"must be one of {_DTYPE_WIDTHS}")
_DEGREE = ("v >= 1", "degree must be >= 1")
_ZERO = ("v in ZERO_STAGES", f"zero_stage must be one of {ZERO_STAGES}")
_AT_LEAST_ONE = ("v >= 1", "must be >= 1")

_SCHEMA = {
    "ModelArch": ("model", (
        ("hidden_size num_heads", "int", _REQUIRED, _NON_NEGATIVE,
         ("v >= 1", "hidden_size and num_heads must be >= 1", "model")),
        ("num_layers", "int", _REQUIRED, _NON_NEGATIVE),
        ("ffn_multiplier", "int", 4, _NON_NEGATIVE),
        ("adaln_mode", "str", "per-block-dedicated",
         ("v in ADALN_MODES", f"adaln_mode must be one of {ADALN_MODES}")),
        ("patch_t", "int", 1, _PATCH),
        ("patch_h patch_w", "int", 2, _PATCH),
        ("param_count", "float?", None,
         ("v is None or v > 0", "param_count must be positive when supplied")),
        ("extra_unpartitioned_layers", "names", ("patchify", "final_proj")),
    )),
    "ClusterSpec": ("cluster", (
        ("num_nodes devices_per_node", "int", _REQUIRED, _POSITIVE),
        ("device_mem peak_flops_per_device intra_node_bw inter_node_bw pcie_bw_per_device "
         "host_write_bw_per_numa", "float", _REQUIRED, _POSITIVE),
        ("devices_per_numa", "int", _REQUIRED, _POSITIVE,
         ("v <= devices_per_node", "devices_per_numa cannot exceed devices_per_node")),
        ("host_mem", "float", _REQUIRED, _POSITIVE),
    )),
    "DTypePolicy": ("dtypes", (
        ("param_bytes grad_bytes", "int", 2, _WIDTH),
        ("master_bytes moment_bytes ema_bytes", "int", 4, _WIDTH),
        ("act_bytes", "int", 2, _WIDTH),
    )),
    "ParallelConfig": ("parallel", (
        ("tp cp dp", "int", 1, _DEGREE),
        ("zero_stage", "str", "optimizer-partitioned", _ZERO),
        ("grad_accum", "int", 1, _DEGREE),
    )),
    "ParallelSection": ("parallel", (
        ("tp cp dp", "int?", None),
        ("zero_stage", "str", "optimizer-partitioned", _ZERO),
        ("grad_accum", "int", 1, _AT_LEAST_ONE),
    )),
    "OverlapConfig": ("overlap", (
        ("tp_sp_fraction", "float", 0.8, ("0.0 <= v <= 1.0", "must be in [0, 1]")),
        ("collective_latency_ms", "float", 0.02, ("v >= 0", "must be >= 0")),
        ("efficiency", "float", 0.5, ("0.0 < v <= 1.0", "must be in (0, 1]")),
    )),
    "StageScenario": ("stages", (
        ("name", "str", _REQUIRED),
        ("image_bucket", "bucket?", None),
        ("video_bucket", "bucket?", None,
         ("image_bucket is not None or v is not None", "stage needs at least one bucket",
          "stages.{name}")),
        ("global_batch step_count", "int", 1,
         ("v >= 1", "batch and step counts must be >= 1", "stages.{name}")),
    )),
    "Bucket": ("bucket", (("batch frames height width", "int", _REQUIRED, _AT_LEAST_ONE),)),
    # The whole JSON document. A callable default is called once, when the
    # record class is built: the section records exist only then.
    "PlanningConfig": ("", (
        ("model", "ModelArch", _REQUIRED),
        ("cluster", "ClusterSpec", _REQUIRED),
        ("dtypes", "DTypePolicy", lambda: DTypePolicy()),
        ("parallel", "ParallelSection", lambda: ParallelSection()),
        ("overlap", "OverlapConfig", lambda: OverlapConfig()),
        ("stages", "stages", ()),
        ("buckets", "buckets", ()),
        ("fitted_fields", None, ()),
    )),
}


def _rows(record: str) -> list[tuple]:
    """``record``'s schema rows, one per field."""
    return [(key, *rest) for keys, *rest in _SCHEMA[record][1] for key in keys.split()]


def _field_names(record: str) -> tuple[str, ...]:
    return tuple(row[0] for row in _rows(record))


# JSON parsers by schema kind: each takes the raw value and its path. Strict:
# unknown keys are rejected with the offending path.


def _require_mapping(obj: Any, path: str) -> Mapping[str, Any]:
    if not isinstance(obj, Mapping):
        raise ConfigError("expected a JSON object", path)
    return obj


def _parse_record(cls: type, doc: Any, path: str) -> Any:
    """Build record ``cls`` from JSON object ``doc`` found at ``path`` ("" for the root)."""
    doc = _require_mapping(doc, path or "<root>")
    prefix = f"{path}." if path else ""
    kinds = cls._kinds
    for key in doc:
        if key not in kinds:
            raise ConfigError("unknown key", prefix + key)
    for key in cls._required:
        if key not in doc:
            raise ConfigError(f"missing required {'key' if path else 'section'}", prefix + key)
    kwargs = {}
    for key, kind in kinds.items():
        if key in doc:
            value = doc[key]
            if value is not None or kind[-1] != "?":
                kwargs[key] = _PARSERS[kind.rstrip("?")](value, prefix + key)
    return cls(**kwargs)


def _parse_names(value: Any, path: str) -> tuple[str, ...]:
    if not isinstance(value, (list, tuple)) or not all(isinstance(x, str) for x in value):
        raise ConfigError("expected a list of layer names", path)
    return tuple(value)


def _parse_bucket(entry: Any, path: str) -> "Bucket":
    from .buckets import Bucket

    if not isinstance(entry, (list, tuple)) or len(entry) != 4:
        raise ConfigError("bucket must be [batch, frames, height, width]", path)
    values = [integer_value(v, f"{path}[{i}]") for i, v in enumerate(entry)]
    try:
        return Bucket(*values)
    except ConfigError as exc:
        raise ConfigError(str(exc), path) from exc


def _parse_buckets(entries: Any, path: str) -> tuple["Bucket", ...]:
    if not isinstance(entries, (list, tuple)):
        raise ConfigError("expected an array of buckets", path)
    return tuple(_parse_bucket(entry, f"{path}[{i}]") for i, entry in enumerate(entries))


def _parse_stages(entries: Any, path: str) -> tuple[StageScenario, ...]:
    if not isinstance(entries, (list, tuple)):
        raise ConfigError("expected an array of stages", path)
    stages: list[StageScenario] = []
    for i, entry in enumerate(entries):
        where = f"{path}[{i}]"
        name = _require_mapping(entry, where).get("name")
        if not isinstance(name, str):
            raise ConfigError("stage needs a string name", f"{where}.name")
        if any(stage.name == name for stage in stages):
            raise ConfigError(f"duplicate stage name {name!r}", f"{where}.name")
        stages.append(_parse_record(StageScenario, entry, where))
    return tuple(stages)


_PARSERS = {
    "int": integer_value,
    "float": lambda value, path: float(finite_number(value, path)),
    "str": lambda value, path: value,
    "names": _parse_names,
    "bucket": _parse_bucket,
    "buckets": _parse_buckets,
    "stages": _parse_stages,
}  # plus one entry per record class, added as each class is built


_set_field = object.__setattr__


class _Record:
    """Base of the config records: value equality, hashing, immutability,
    ``repr`` and the ``_fields``/``_asdict``/``_replace`` helpers.

    A subclass declares ``__slots__ = _field_names(<its name>)``. Its
    ``__init__`` is generated once from its ``_SCHEMA`` rows: one inline
    test per check and one store per field, with no per-field loop, so a
    record costs no more to build than a hand-written class.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        section, rows = _SCHEMA[cls.__name__][0], _rows(cls.__name__)
        cls._fields = tuple(row[0] for row in rows)
        cls._values = attrgetter(*cls._fields)
        cls._kinds = {key: kind for key, kind, *_ in rows if kind is not None}
        cls._required = tuple(key for key, _, default, *_ in rows if default is _REQUIRED)
        cls._field_defaults = {key: default() if callable(default) else default
                               for key, _, default, *_ in rows if default is not _REQUIRED}
        lines = []
        for key, kind, _, *checks in rows:
            if checks:
                lines.append(f"v = {key}")
            for condition, message, *path in checks:
                where = path[0] if path else f"{section}.{key}"
                lines.append(f"if not ({condition}): raise ConfigError({message!r}, f{where!r})")
        for key, kind, *_ in rows:
            lines.append(f"_set_field(self, {key!r}, {f'tuple({key})' if kind == 'names' else key})")
        namespace: dict[str, Any] = {}
        exec(f"def __init__(self, {', '.join(cls._fields)}):\n    " + "\n    ".join(lines),
             globals(), namespace)
        init = namespace["__init__"]
        init.__defaults__ = tuple(cls._field_defaults.values()) or None
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__ = init
        _PARSERS[cls.__name__] = lambda value, path: _parse_record(cls, value, path)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self._asdict().items())
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value: Any = None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._values(self)

    def _asdict(self) -> dict[str, Any]:
        return dict(zip(self._fields, self._values(self)))

    def _replace(self, **changes: Any):
        """A copy with ``changes`` applied, checked like a new record."""
        return type(self)(**{**self._asdict(), **changes})


class ModelArch(_Record):
    """Transformer shape description.

    ``param_count`` may be supplied directly when the true total is known
    (preferred); :func:`estimate_param_count` is a convenience for models
    where only the dims are known.
    """

    __slots__ = _field_names("ModelArch")

    @property
    def patch_volume(self) -> int:
        return self.patch_t * self.patch_h * self.patch_w


class ClusterSpec(_Record):
    """Hardware description. Bandwidths in bytes/s, memory in bytes, FLOPs in FLOP/s."""

    __slots__ = _field_names("ClusterSpec")

    @property
    def total_devices(self) -> int:
        return self.num_nodes * self.devices_per_node


class DTypePolicy(_Record):
    """Bytes per element for each model-state class.

    The default (2-byte params/grads/activations, 4-byte master weights,
    AdamW moments and EMA) puts a 13.4B model at 268 GB of model states.
    """

    __slots__ = _field_names("DTypePolicy")


class ParallelConfig(_Record):
    """One candidate parallel layout: tensor/context/data degrees plus options."""

    __slots__ = _field_names("ParallelConfig")

    @property
    def devices_used(self) -> int:
        return self.tp * self.cp * self.dp


class StageScenario(_Record):
    """One training-stage row: which bucket(s) it runs and at what batch size."""

    __slots__ = _field_names("StageScenario")

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


class OverlapConfig(_Record):
    """Overlap and collective-cost knobs.

    ``tp_sp_fraction`` is the fraction of TP-SP collective time hidden by
    fused matmul pipelining. No measured value is available for it, so it
    is an explicit assumption (default 0.8) and is echoed in reports.
    """

    __slots__ = _field_names("OverlapConfig")


class ParallelSection(_Record):
    """The ``parallel`` config block: degrees may be left null to enumerate."""

    __slots__ = _field_names("ParallelSection")

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


class PlanningConfig(_Record):
    """Everything one planning run needs, as parsed from a single JSON document."""

    __slots__ = _field_names("PlanningConfig")


def require_valid(config: PlanningConfig) -> None:
    """Raise :class:`ConfigError` listing every :func:`validate` violation of
    the config's pinned layout, or of tp=cp=dp=1 when none is pinned."""
    violations = validate(config.model, config.cluster, config.parallel.pinned or ParallelConfig())
    if violations:
        raise ConfigError("; ".join(violations), "config")


def parse_config(doc: Mapping[str, Any]) -> PlanningConfig:
    """Build a :class:`PlanningConfig` from a parsed JSON document."""
    return _parse_record(PlanningConfig, doc, "")


def load_config(path: str | Path) -> PlanningConfig:
    """Parse a planning config from a JSON file."""
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", str(path)) from exc
    except ValueError as exc:  # bad JSON, bad UTF-8, or an int too long to convert
        raise ConfigError(f"invalid JSON: {exc}", str(path)) from exc
    return parse_config(doc)
