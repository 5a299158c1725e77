"""Smoke test: the demos run as scripts and print what they claim."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import implicurve

DEMOS = Path(__file__).resolve().parents[1] / "demos"
HYPERBOLA_LINE = "2 - 3*y - x + 2*x*y"


@pytest.mark.parametrize(
    "demo",
    ["hyperbola_three_ways", "resultant_determinants", "structured_solver_kernels",
     "cost_scaling"],
)
def test_demo_runs(demo):
    src = str(Path(implicurve.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(DEMOS / f"{demo}.py")],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    if demo == "hyperbola_three_ways":
        assert f"the same canonical equation: {HYPERBOLA_LINE} = 0" in proc.stdout
        assert proc.stdout.count(f"-> F(x, y) = {HYPERBOLA_LINE}") == 3
    if demo == "cost_scaling":
        assert [line.split()[0] for line in proc.stdout.splitlines()[2:7]] == list("23456")
        assert "the same canonical F, each verified" in proc.stdout
