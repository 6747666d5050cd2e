"""Named presets and the shipped reference configuration.

The shipped reference config is the one source of the presets:
``TABLE2_FIT`` is its model and ``REFERENCE_CLUSTER`` (the two-node
desk-scale cluster the demos use) its cluster. Both are read on first
use (PEP 562), so importing this module opens no file. The "table2-fit"
model carries dims inferred from the reference per-layer accounting
(hidden 3072, 24 heads) and a layer count fitted so that per-block
modulation layers add just over 3B parameters. These are inferred
values, not published ones; reports label them fitted.
"""

from __future__ import annotations

from functools import cache
from importlib import resources
from pathlib import Path
from typing import Any

from .config import PlanningConfig, load_config

TABLE2_FIT_FITTED_FIELDS = ("hidden_size", "num_heads", "num_layers")

# Preset name -> the reference config section it is.
_SECTIONS = {"TABLE2_FIT": "model", "REFERENCE_CLUSTER": "cluster"}


def reference_config_path() -> Path:
    """Filesystem path of the shipped reference config JSON."""
    with resources.as_file(
        resources.files("ditplan.data").joinpath("reference_config.json")
    ) as path:
        return Path(path)


@cache
def load_reference_config() -> PlanningConfig:
    """The shipped reference planning config with fitted fields labeled,
    parsed once; config records are immutable, so callers share it."""
    return load_config(reference_config_path())._replace(fitted_fields=TABLE2_FIT_FITTED_FIELDS)


def __getattr__(name: str) -> Any:
    section = _SECTIONS.get(name)
    if section is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(load_reference_config(), section)
