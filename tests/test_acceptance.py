"""Acceptance suite: one test per release criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; any assertion failure marks the criterion failed.
"""

import random
import time
from fractions import Fraction

from implicurve import (
    BiPoly,
    OpCounter,
    UniPoly,
    bipoly_canonicalize,
    build_parametric_sylvester,
    degree_bounds,
    kron_solve,
    method_dual_vandermonde,
    method_kronecker,
    method_unstructured,
    nodes_on_curve,
    substitute_check,
    sylvester_line_dets,
    vandermonde_solve_dual,
    vandermonde_solve_primal,
)
from implicurve.cli import format_ratfun, parse_rational_function
from implicurve.polycore import resultant

from util import (
    CUBIC,
    CUBIC_F_RAW,
    CUBIC_GRID_DATA,
    HYPERBOLA,
    HYPERBOLA_F,
    cofactor_det,
    fit_loglog_slope,
    kron,
    matvec,
    rand_frac,
    rand_ratparam,
    poly_mul,
    rand_unipoly,
    sylvester_rows,
    transpose,
    vandermonde_rows,
)

CUBIC_F = bipoly_canonicalize(CUBIC_F_RAW)
ALL_METHODS = (method_unstructured, method_dual_vandermonde, method_kronecker)


def _ok(num: int, label: str) -> None:
    print(f"criterion {num}: PASS — {label}")


def test_criterion_1_hyperbola_end_to_end():
    t0 = time.perf_counter()
    for fn in ALL_METHODS:
        r = fn(HYPERBOLA)
        assert r.F == HYPERBOLA_F, fn.__name__
        assert r.F.coeffs == ((Fraction(2), Fraction(-3)), (Fraction(-1), Fraction(2)))
        assert r.verified and r.degree_tight
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _ok(1, "hyperbola: all three methods give 2 - 3y - x + 2xy exactly")


def test_criterion_2_dense_cubic_end_to_end():
    t0 = time.perf_counter()
    for fn in ALL_METHODS:
        r = fn(CUBIC)
        assert r.F == CUBIC_F, fn.__name__
        assert r.verified and r.degree_tight
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    _ok(2, "degree-(3,3) curve: all three methods agree up to canonical sign")


def test_criterion_3_pinned_values_reproduced():
    # unstructured: collocation entry x0^3 y0^3 at row 15, col 16 (1-indexed)
    x0, y0 = nodes_on_curve(CUBIC, 16)[14]
    assert x0**3 * y0**3 == Fraction(761421163154846949, 149346877368718693)

    # dual-vandermonde: largest matrix entry and datum
    S = build_parametric_sylvester(CUBIC)
    alpha_last = Fraction(2**3 * 3**3)
    assert alpha_last**15 == 103945637534048876111514866313854976
    b_last = sylvester_line_dets(S, 2**15, [3**15], OpCounter())
    assert b_last == [-207995995871362988895940143529893921]

    # kronecker: full grid data vector
    grid_data = [sylvester_line_dets(S, i, [j], OpCounter())[0] for i in range(4) for j in range(4)]
    assert grid_data == CUBIC_GRID_DATA

    # hyperbola data for both determinant methods
    Sh = build_parametric_sylvester(HYPERBOLA)
    prime_nodes = [(2**k, 3**k) for k in range(4)]
    assert prime_nodes == [(1, 1), (2, 3), (4, 9), (8, 27)]
    hyp_dual = [sylvester_line_dets(Sh, x0, [y0], OpCounter())[0] for x0, y0 in prime_nodes]
    assert hyp_dual == [0, 3, 43, 345]
    hyp_grid = [sylvester_line_dets(Sh, i, [j], OpCounter())[0] for i in range(2) for j in range(2)]
    assert hyp_grid == [2, -1, 1, 0]
    _ok(3, "all pinned matrix entries and data vectors reproduced exactly")


def test_criterion_4_structured_solvers_match_general_solver():
    # V is invertible on distinct nodes, so a zero residual proves that a
    # solve returned the one solution any general solver finds
    rng = random.Random(101)
    pool = sorted({Fraction(a, b) for a in range(-24, 25) for b in (1, 2, 3, 5)})
    systems = 0
    while systems < 200:
        s = rng.randint(2, 8)
        nodes = rng.sample(pool, s)
        rhs = [rand_frac(rng) for _ in range(s)]
        V = vandermonde_rows(nodes)
        primal = vandermonde_solve_primal(nodes, rhs, OpCounter())
        assert matvec(V, primal) == rhs
        dual = vandermonde_solve_dual(nodes, rhs, OpCounter())
        assert matvec(transpose(V), dual) == rhs
        systems += 1
    for mx in range(4):
        for ny in range(4):
            xs = rng.sample(range(-9, 10), mx + 1)
            ys = rng.sample(range(-9, 10), ny + 1)
            b = [rand_frac(rng) for _ in range((mx + 1) * (ny + 1))]
            c = kron_solve(xs, ys, b, OpCounter())
            K = kron(vandermonde_rows(xs), vandermonde_rows(ys))
            residual = [got - want for got, want in zip(matvec(K, c), b)]
            assert residual == [0] * len(b)
    _ok(4, f"{systems} primal and dual Vandermonde residuals zero; kron residuals zero")


def test_criterion_5_cross_method_agreement_random():
    rng = random.Random(202)
    t0 = time.perf_counter()
    for trial in range(50):
        P = rand_ratparam(rng, 4)
        b = degree_bounds(P)
        results = [fn(P) for fn in ALL_METHODS]
        assert results[0].F == results[1].F == results[2].F, trial
        F = results[0].F
        for r in results:
            assert r.verified
        assert substitute_check(F, P)
        assert F.deg_x <= b.m and F.deg_y <= b.n
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"took {elapsed:.2f}s"
    _ok(5, f"50 random parametrizations agree across methods ({elapsed:.1f}s)")


def test_criterion_6_determinant_oracle():
    rng = random.Random(303)
    for trial in range(120):
        n = rng.randint(2, 5)  # the Sylvester order d1 + d2
        d1 = rng.randint(1, n - 1)
        bound = 20 if trial % 2 else 10**6
        p, q = ([rng.randint(-bound, bound) for _ in range(d + 1)] for d in (d1, n - d1))
        p[0], q[0] = p[0] or bound, q[0] or bound
        # resultant checks the exactness of each internal division itself
        assert resultant(p, q, OpCounter()) == cofactor_det(sylvester_rows(p, q))
    _ok(6, "120 PRS resultants equal cofactor expansion of the Sylvester matrix, divisions exact")


def test_criterion_7_complexity_scaling():
    rng = random.Random(404)
    sizes, unstr_ops, dual_ops, kron_ops = [], [], [], []
    for d in range(2, 7):
        P = rand_ratparam(rng, d, exact=True)
        b = degree_bounds(P)
        assert (b.m, b.n) == (d, d)
        r1 = method_unstructured(P)
        r2 = method_dual_vandermonde(P)
        r3 = method_kronecker(P)
        assert r2.det_evals == b.N and r3.det_evals == b.N
        assert r3.solve_counter.muldivs == b.N * (b.m + b.n)  # (m+1)+(n+1) BP solves
        sizes.append(b.N)
        unstr_ops.append(r1.solve_counter.muldivs)
        dual_ops.append(r2.solve_counter.muldivs)
        kron_ops.append(r3.solve_counter.muldivs)
    s_unstr = fit_loglog_slope(sizes, unstr_ops)
    s_dual = fit_loglog_slope(sizes, dual_ops)
    s_kron = fit_loglog_slope(sizes, kron_ops)
    assert abs(s_unstr - 3.0) <= 0.4, s_unstr
    assert abs(s_dual - 2.0) <= 0.4, s_dual
    assert abs(s_kron - 1.5) <= 0.4, s_kron
    _ok(
        7,
        f"solve-cost slopes {s_unstr:.2f}/{s_dual:.2f}/{s_kron:.2f} "
        "within 3.0/2.0/1.5 ± 0.4; det count N for both data methods",
    )


def test_criterion_8_data_bit_sizes():
    dual = method_dual_vandermonde(CUBIC)
    kron_r = method_kronecker(CUBIC)
    assert dual.data_counter.max_bits >= 100, dual.data_counter.max_bits
    assert kron_r.data_counter.max_bits <= 20, kron_r.data_counter.max_bits
    _ok(
        8,
        f"data sizes: dual-vandermonde {dual.data_counter.max_bits} bits "
        f"vs kronecker {kron_r.data_counter.max_bits} bits",
    )


def test_criterion_9_parser_round_trip():
    rng = random.Random(505)
    for _ in range(110):
        num = rand_unipoly(rng, rng.randint(0, 5))
        den = rand_unipoly(rng, rng.randint(0, 5))
        text = format_ratfun(num, den)
        got_num, got_den = parse_rational_function(text)
        assert poly_mul(got_num, den) == poly_mul(num, got_den)  # equal as rational functions
    x1 = parse_rational_function("(1+t)/(2+t)")
    assert x1 == (UniPoly([1, 1]), UniPoly([2, 1]))
    y1 = parse_rational_function("(3+t)/(4+t)")
    assert y1 == (UniPoly([3, 1]), UniPoly([4, 1]))
    x2 = parse_rational_function("(2*t^2+2*t+1)/(t^3+5)")
    assert x2 == (UniPoly([1, 2, 2]), UniPoly([5, 0, 0, 1]))
    y2 = parse_rational_function("(t^3-3*t^2+t-1)/(t^2-3)")
    assert y2 == (UniPoly([-1, 1, -3, 1]), UniPoly([-3, 0, 1]))
    _ok(9, "110 random round-trips plus both reference parametrizations")
