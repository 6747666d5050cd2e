from pathlib import Path

import pytest

from test_cli import _python

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    proc = _python(str(demo))
    assert proc.returncode == 0, proc.stderr
