"""The benchmark's tracer wraps ditplan functions by name: each
``benchmarks/tracing.py`` target must still resolve to a function, or its
per-layer metrics silently read 0."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"

# Two targets name functions ditplan no longer has; the benchmark still
# lists them until its target table is mended (ROADMAP item 5). Mending it
# shrinks the absent set, which this check allows.
KNOWN_ABSENT = {"ditplan.offload.plan_activation_offload", "ditplan.simulate.simulate_stages"}


def _load_tracing():
    spec = importlib.util.spec_from_file_location("ditplan_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    targets = _load_tracing().TARGETS
    assert targets
    absent = {
        f"{home}.{function}"
        for _, home, function in targets
        if not callable(getattr(importlib.import_module(home), function, None))
    }
    assert absent <= KNOWN_ABSENT
