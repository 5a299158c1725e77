"""The trajectory script records the counts ``implicitize`` reports, and
leaves the pipeline as it found it."""

import importlib.util
from pathlib import Path

from implicurve import METHODS, MethodConfig, implicitize, pipeline
from implicurve.cli import canonical_digest

from util import CUBIC, HYPERBOLA

SCRIPT = Path(__file__).resolve().parents[1] / "demos" / "trajectory.py"


def _trajectory():
    spec = importlib.util.spec_from_file_location("trajectory", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trajectory_counts_are_the_results_counts():
    trajectory = _trajectory()
    before = dict(vars(pipeline))
    for name, P in (("HYPERBOLA", HYPERBOLA), ("CUBIC", CUBIC)):
        for method in METHODS:
            record = trajectory.run_record(name, P, method, 2)
            r = implicitize(P, MethodConfig(method=method))
            for stage, c in (("data", r.data_counter), ("solve", r.solve_counter)):
                assert record["counts"][stage] == dict(
                    adds=c.adds, muls=c.muls, divs=c.divs, max_bits=c.max_bits)
            assert (record["m"], record["n"]) == (r.bounds.m, r.bounds.n)
            assert (record["det_evals"], record["primes"]) == (r.det_evals, r.primes)
            assert record["hash"] == canonical_digest(r.F)[:12]
            assert set(record["stages_ms"]) == set(trajectory.STAGES)
            assert all(ms > 0 for ms in record["stages_ms"].values()), (name, method)
    assert vars(pipeline) == before
