"""The trajectory script records the counts ``implicitize`` reports, and
leaves the pipeline as it found it; the newest committed row still holds."""

import importlib.util
import json
from pathlib import Path

import pytest

from implicurve import METHODS, MethodConfig, implicitize, pipeline
from implicurve.cli import canonical_digest

from util import CUBIC, HYPERBOLA

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "demos" / "trajectory.py"


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


def test_the_newest_bench_row_is_recomputed_exactly():
    """The gate: every record of the newest row of ``BENCH_1.json``, run
    again untimed, gives the same counts, ``max_bits``, ``det_evals``,
    ``primes`` and F.  A change that moves one appends a row that says so."""
    trajectory = _trajectory()
    newest = json.loads((ROOT / "BENCH_1.json").read_text())["rows"][-1]
    cases = list(trajectory.cases())
    assert [(r["curve"], r["method"]) for r in newest["runs"]] == [(n, m) for n, _, m in cases]
    for record, (name, P, method) in zip(newest["runs"], cases):
        r = implicitize(P, MethodConfig(method=method))
        assert (record["m"], record["n"]) == (r.bounds.m, r.bounds.n), (name, method)
        fresh = trajectory.exact_fields(r)
        assert {key: record[key] for key in fresh} == fresh, (name, method)


def test_trajectory_refuses_fewer_than_one_run(capsys):
    with pytest.raises(SystemExit) as exc:
        _trajectory().main(["--label", "x", "--k", "0"])
    assert exc.value.code == 2
    assert "--k must be at least 1" in capsys.readouterr().err
