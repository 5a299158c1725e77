"""Tests of the benchmark itself: its output check, counts and guards.

Run with ``python -m pytest perfbench -q`` from the repository root.
sympy is used here only, as an independent oracle for the check.
"""

from __future__ import annotations

import math
import shutil
import subprocess
import sys
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest
import sympy

import check
import corpus
import worker
from tracing import Tracer

#: Requests per workload in the default-seed sample; on ``cli-dualvand`` it
#: covers every special case.
SAMPLE = {"kron-d5": 6, "unstructured-d4": 6, "cli-dualvand": 26}
COUNTS = (
    "structmat.data_muldivs",
    "structmat.solve_muldivs",
    "structmat.data_max_bits",
    "implicitize.det_evals",
    "structmat.nullspace.calls",
)


@pytest.fixture(scope="module")
def program():
    return worker.load_program()


@pytest.fixture(scope="module")
def answers(program):
    """(curve, F or None) for the default-seed sample of every workload."""
    out = []
    for name, count in SAMPLE.items():
        bench = worker.Bench(program, corpus.WORKLOADS[name], corpus.DEFAULT_SEED, count)
        outputs, *_ = bench.serve(math.inf)
        out += [(c, bench.answer(o)) for c, o in zip(bench.curves, outputs)]
    return out


def _perturbed(F, i, j):
    G = [list(row) for row in F]
    G[i][j] += 1
    return G


def test_check_accepts_answers_and_rejects_every_one_coefficient_perturbation(answers):
    proper = [(c, F) for c, F in answers if c.bidegree is not None and c.r == 1]
    assert len(proper) >= 30
    for curve, F in proper:
        assert check.is_implicit_equation(F, curve)
        for i in range(len(F)):
            for j in range(len(F[0])):
                G = _perturbed(F, i, j)
                assert not check.vanishes(G, curve)
                assert not check.is_implicit_equation(G, curve)


def test_improper_answers_are_the_resultant_and_fail_the_check(answers):
    improper = [(c, F) for c, F in answers if c.r > 1]
    assert len(improper) == 2
    for curve, F in improper:
        assert check.vanishes(F, curve)
        assert not check.is_implicit_equation(F, curve)
    # the true equation of x = y = t^2 is y - x, canonically [[0, 1], [-1, 0]]
    assert check.is_implicit_equation([[0, 1], [-1, 0]], corpus.DOUBLE_LINE)


def _sympy_resultant(curve: corpus.Curve) -> list[list[int]]:
    """Canonical grid of Res_t(u1 - x v1, u2 - y v2) on the reduced curve."""
    t, x, y = sympy.symbols("t x y")

    def ratfun(num, den):
        poly = lambda cs: sum(sympy.Rational(c.numerator, c.denominator) * t**k for k, c in enumerate(cs))
        return sympy.fraction(sympy.cancel(poly(num) / poly(den)))

    n1, d1 = ratfun(curve.u1, curve.v1)
    n2, d2 = ratfun(curve.u2, curve.v2)
    terms = sympy.Poly(sympy.resultant(n1 - x * d1, n2 - y * d2, t), x, y).as_dict()
    m = max(i for i, _ in terms)
    n = max(j for _, j in terms)
    grid = [[Fraction(0)] * (n + 1) for _ in range(m + 1)]
    for (i, j), c in terms.items():
        grid[i][j] = Fraction(int(c.p), int(c.q))
    scale = lcm(*(c.denominator for row in grid for c in row))
    ints = [[int(c * scale) for c in row] for row in grid]
    content = gcd(*(v for row in ints for v in row))
    if next(v for row in ints for v in row if v) < 0:
        content = -content
    return [[v // content for v in row] for row in ints]


def test_check_agrees_with_sympy_resultant(answers):
    for curve, F in answers:
        if curve.bidegree is None:
            continue
        R = _sympy_resultant(curve)
        assert R == [[int(c) for c in row] for row in F]
        assert check.is_implicit_equation(R, curve) == (curve.r == 1)


def test_exact_counts_repeat_across_runs(program):
    for name, count in SAMPLE.items():
        workload = corpus.WORKLOADS[name]
        runs = [worker.run(program, workload, corpus.DEFAULT_SEED, math.inf, True, count) for _ in range(2)]
        first, second = ({k: r["metrics"][k]["value"] for k in COUNTS} for r in runs)
        assert first == second
        calls = {k: v["value"] for k, v in runs[0]["metrics"].items() if k.endswith(".calls")}
        assert (calls["cli.main.calls"] > 0) == workload.cli
        assert (calls["structmat.nullspace.calls"] > 0) == (workload.method == "unstructured")
        assert (calls["structmat.eval_polymat.calls"] > 0) == (workload.method != "unstructured")
        assert (calls["structmat.det_bareiss.calls"] > 0) == (workload.method != "unstructured")


def test_default_seed_fails_only_on_improper_curves(program):
    for name, count in SAMPLE.items():
        summary = worker.run(program, corpus.WORKLOADS[name], corpus.DEFAULT_SEED, math.inf, False, count)
        improper = 2 if corpus.WORKLOADS[name].cli else 0
        assert summary["correct"] and summary["failed"] == improper
        assert summary["metrics"]["ok_share"]["value"] == 1 - improper / count


def test_every_block_of_requests_has_every_pair_of_numerator_degrees(program):
    workload = corpus.WORKLOADS["kron-d5"]
    block = (workload.degree + 1) ** 2
    _, curves = corpus.build(workload, corpus.DEFAULT_SEED, 2 * block, program)
    degrees = [(len(c.u1) - 1, len(c.u2) - 1) for c in curves]
    every_pair = sorted((a, b) for a in range(workload.degree + 1) for b in range(workload.degree + 1))
    assert sorted(degrees[:block]) == sorted(degrees[block:]) == every_pair


def test_tracer_skips_a_stage_the_program_no_longer_has(program, monkeypatch):
    monkeypatch.delattr(program.structmat, "eval_polymat")
    tracer = Tracer()
    tracer.install()
    try:
        assert all(attr != "eval_polymat" for _, attr, _ in tracer._bound)
        assert any(attr == "det_bareiss" for _, attr, _ in tracer._bound)
    finally:
        tracer.uninstall()
    assert tracer.calls["structmat.eval_polymat"] == 0


def test_fails_without_a_result_where_the_program_is_missing(tmp_path):
    here = Path(__file__).resolve().parent
    shutil.copytree(here, tmp_path / here.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(here.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{here.name}/run.py", "--workload", "kron-d5", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
