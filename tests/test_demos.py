"""Smoke test: the demos run as scripts and print what they claim, byte for
byte: each demo is deterministic, and its stdout is pinned by a SHA-256
digest in the way ``IDENTITY_DIGEST`` pins results."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import implicurve

DEMOS = Path(__file__).resolve().parents[1] / "demos"
HYPERBOLA_LINE = "2 - 3*y - x + 2*x*y"
STDOUT_DIGESTS = {
    "cost_scaling": "a7a2c0e30215499399d2129c5d5a27262dca2e8c371676b6f7e87f8dbae178f8",
    "hyperbola_three_ways": "727e083262f7fc6c52f974206ca2029b9f7a13a3b252a7a33b58903afeede14f",
    "resultant_determinants": "50d66594b57f8bb7c83c4aaaba32e78b069f9916e8562fc4f218b2257f1bd81f",
    "structured_solver_kernels": "9a6e851425873c557fb9a5765c940cd8f1849202fc482c5e6d1d9e24dda437e3",
}


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
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == STDOUT_DIGESTS[demo]
    if demo == "hyperbola_three_ways":
        assert f"the same canonical equation: {HYPERBOLA_LINE} = 0" in proc.stdout
        assert proc.stdout.count(f"-> F(x, y) = {HYPERBOLA_LINE}") == 3
    if demo == "cost_scaling":
        assert [line.split()[0] for line in proc.stdout.splitlines()[2:7]] == list("23456")
        assert "the same canonical F, each verified" in proc.stdout
