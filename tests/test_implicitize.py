import dataclasses
import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import implicurve

from implicurve import (
    METHOD_UNSTRUCTURED,
    BiPoly,
    DegenerateInputError,
    DegenerateParametrizationError,
    InternalConsistencyError,
    MethodConfig,
    ModEchelon,
    OpCounter,
    RatParam,
    UniPoly,
    bipoly_canonicalize,
    build_parametric_sylvester,
    degree_bounds,
    implicitize,
    method_dual_vandermonde,
    method_kronecker,
    method_unstructured,
    nodes_on_curve,
    substitute_check,
    sylvester_line_dets,
)
from implicurve import pipeline, structmat
from implicurve.cli import main, parse_rational_function
from implicurve.pipeline import (
    _counted_point,
    _observe_node_powers,
    _rational_reconstruction,
    _residue_row,
    _scaled_reconstruction,
    curve_points,
)
from implicurve.polycore import COPRIME_PRIME, _miller_rabin, modular_primes

from util import (
    CUBIC,
    CUBIC_F_RAW,
    HYPERBOLA,
    HYPERBOLA_F,
    euclid_gcd,
    poly_mul,
    rand_ratparam,
    rational_reconstruction,
    reconstructed_vector,
    scaled,
    unpack_slots,
)

CUBIC_F = bipoly_canonicalize(CUBIC_F_RAW)


def _at(p, t):
    """The value of the polynomial ``p`` at ``t``, from the definition."""
    return sum(c * t**k for k, c in enumerate(p.coeffs))


def test_degree_bounds_cross_over():
    b = degree_bounds(HYPERBOLA)
    assert (b.m, b.n, b.N) == (1, 1, 4)
    b = degree_bounds(CUBIC)
    assert (b.m, b.n, b.N) == (3, 3, 16)
    # x of degree 2 bounds deg_y, y of degree 1 bounds deg_x
    P = RatParam(UniPoly([0, 0, 1]), UniPoly.one(), UniPoly([0, 1]), UniPoly.one())
    b = degree_bounds(P)
    assert (b.m, b.n, b.N) == (1, 2, 6)


def test_nodes_on_curve_plain_sweep():
    pts = nodes_on_curve(HYPERBOLA, 4)
    assert pts == [
        (Fraction(1, 2), Fraction(3, 4)),
        (Fraction(2, 3), Fraction(4, 5)),
        (Fraction(3, 4), Fraction(5, 6)),
        (Fraction(4, 5), Fraction(6, 7)),
    ]


def test_nodes_on_curve_skips_poles():
    # y = 1/t has a pole at the very first sweep value t = 0
    P = RatParam(UniPoly([1]), UniPoly([1]), UniPoly([1]), UniPoly([0, 1]))
    pts = nodes_on_curve(P, 3)
    assert pts == [
        (Fraction(1), Fraction(1)),
        (Fraction(1), Fraction(1, 2)),
        (Fraction(1), Fraction(1, 3)),
    ]


def test_sweep_poles_at_the_first_values_agree_across_methods():
    # denominators that vanish at t = 0, 1 and 2: the sweep starts at t = 3,
    # and the three methods give the same canonical F, which vanishes there
    one = UniPoly.one()
    poles = UniPoly([0, 2, -3, 1])  # t (t - 1) (t - 2)
    curves = [
        RatParam(UniPoly([1, 0, 1]), UniPoly([0, -1, 1]), UniPoly([5, 1]), UniPoly([-2, 1])),
        RatParam(one, poles, UniPoly([0, 0, 1]), one),
        RatParam(UniPoly([1, 2]), poles, UniPoly([1, 0, 0, 1]), poles),
    ]
    for P in curves:
        (u1, v1), (u2, v2) = (P.u1, P.v1), (P.u2, P.v2)
        first = next(curve_points(P))
        want = (Fraction(_at(u1, 3), _at(v1, 3)), Fraction(_at(u2, 3), _at(v2, 3)))
        assert (Fraction(first[0], first[1]), Fraction(first[2], first[3])) == want
        Fs = [fn(P).F for fn in (method_unstructured, method_dual_vandermonde, method_kronecker)]
        assert Fs[0] == Fs[1] == Fs[2]
        for t0 in (3, 4, 7):
            x0, y0 = Fraction(_at(u1, t0), _at(v1, t0)), Fraction(_at(u2, t0), _at(v2, t0))
            assert sum(c * x0**i * y0**j for i, row in enumerate(Fs[0].coeffs)
                       for j, c in enumerate(row)) == 0


@pytest.mark.parametrize("texts, nodes, want", [
    # p's lead 2 - x vanishes on the Kronecker line x0 = 2
    (("(2*t+1)/(t+3)", "(t^2+1)/(t^2+t+2)"), [(2, None)], None),
    # the leads 4 - x of p and 9 - y of q both vanish at the dual node (2^2, 3^2)
    (("(4*t^2+1)/(t^2+t+1)", "(9*t^2+2)/(t^2+t+5)"), [(4, 9)], None),
    # p's lead 1 - x vanishes on the Kronecker line x0 = 1; t = 1/(y - 1)
    # gives 1 - x (y^2 - 2y + 2)
    (("t^2/(t^2+1)", "(t+1)/t"), [(1, None)], BiPoly([[1, 0, 0], [-2, 2, -1]])),
], ids=["kronecker-line-2", "dual-node-4-9", "kronecker-line-1"])
def test_a_vanishing_lead_on_a_node_gives_the_same_F_from_every_method(texts, nodes, want):
    P = RatParam(*parse_rational_function(texts[0]), *parse_rational_function(texts[1]))
    b = degree_bounds(P)
    (u1, v1), (u2, v2) = P.int_pairs
    for x0, y0 in nodes:  # the node lies on the grid of its method
        assert u1[b.n] - x0 * v1[b.n] == 0
        if y0 is None:
            assert x0 <= b.m
        else:
            assert u2[b.m] - y0 * v2[b.m] == 0 and (x0, y0) in [(2**k, 3**k) for k in range(b.N)]
    rs = [method_unstructured(P), method_dual_vandermonde(P), method_kronecker(P)]
    assert rs[0].F == rs[1].F == rs[2].F and substitute_check(rs[0].F, P)
    assert want is None or rs[0].F == want


def test_nodes_on_curve_skips_duplicate_points():
    # x = y = t^2 - 3t + 2 revisits the same point at t = 2 and t = 3
    q = UniPoly([2, -3, 1])
    P = RatParam(q, UniPoly.one(), q, UniPoly.one())
    pts = nodes_on_curve(P, 4)
    assert pts == [
        (Fraction(2), Fraction(2)),
        (Fraction(0), Fraction(0)),
        (Fraction(6), Fraction(6)),
        (Fraction(12), Fraction(12)),
    ]


def test_nodes_on_curve_rejects_nonpositive_count():
    with pytest.raises(ValueError):
        nodes_on_curve(HYPERBOLA, 0)


def _row_slots(point, m, n, p):
    """The packed residue row at ``point``, slot by slot, at the slot width
    of the ``ModEchelon`` it is built for."""
    N = (m + 1) * (n + 1)
    slot = ModEchelon(p, N, OpCounter()).slot
    return unpack_slots(_residue_row(point, m, n, p, slot), slot, N)


def test_collocation_row_is_monomial_basis():
    # entry (i, j), i-major, is x0^i y0^j times b^m e^n, (x0, y0) = (a/b, c/e),
    # kept mod p in slot i(n+1) + j of the packed row; the point alone gives
    # the data count, the widest entry and the row's 1-norm
    assert nodes_on_curve(HYPERBOLA, 3)[2] == (Fraction(3, 4), Fraction(5, 6))
    pts = list(itertools.islice(curve_points(HYPERBOLA), 4))
    assert pts[0] == (1, 2, 3, 4) and pts[2] == (3, 4, 5, 6)
    assert _row_slots(pts[0], 1, 1, COPRIME_PRIME) == [8, 6, 4, 3]  # 8 * (1, 3/4, 1/2, 3/8)
    assert [v % 7 for v in _row_slots(pts[2], 1, 1, 7)] == [v % 7 for v in (24, 20, 18, 15)]
    rng = random.Random(3)
    for m, n in ((1, 1), (2, 3), (3, 2), (4, 4)):
        for _ in range(5):
            x0, y0 = (Fraction(rng.randint(-2**40, 2**40), rng.randint(1, 2**40)) for _ in "xy")
            scale = x0.denominator**m * y0.denominator**n
            want = [x0**i * y0**j * scale for i in range(m + 1) for j in range(n + 1)]
            assert all(v.denominator == 1 for v in want)
            point = (x0.numerator, x0.denominator, y0.numerator, y0.denominator)
            for p in (7, COPRIME_PRIME):
                row = _row_slots(point, m, n, p)  # nothing carried past the last slot
                assert all(0 <= v < p * p for v in row)
                assert [v % p for v in row] == [int(v) % p for v in want]
            c = OpCounter()
            assert _counted_point(point, m, n, c) == point
            assert c.muls == m + n + len(want)
            assert c.max_bits == max(abs(int(v)) for v in want).bit_length()


def test_method_unstructured_hyperbola():
    r = method_unstructured(HYPERBOLA)
    assert r.F == HYPERBOLA_F
    assert r.verified and r.degree_tight
    assert r.det_evals == 0
    assert r.bounds.N == 4


def test_method_unstructured_parabola():
    P = RatParam(UniPoly([0, 1]), UniPoly.one(), UniPoly([0, 0, 1]), UniPoly.one())
    r = method_unstructured(P)
    assert r.F == BiPoly([[0, 1], [0, 0], [-1, 0]])  # y - x^2
    assert r.verified and r.degree_tight


def test_method_dual_vandermonde_hyperbola():
    r = method_dual_vandermonde(HYPERBOLA)
    assert r.F == HYPERBOLA_F
    assert r.verified and r.degree_tight
    assert r.det_evals == 4


def test_method_kronecker_hyperbola():
    r = method_kronecker(HYPERBOLA)
    assert r.F == HYPERBOLA_F
    assert r.verified and r.degree_tight
    assert r.det_evals == 4


def test_methods_agree_on_cubic():
    for fn in (method_unstructured, method_dual_vandermonde, method_kronecker):
        r = fn(CUBIC)
        assert r.F == CUBIC_F
        assert r.verified and r.degree_tight


def test_kronecker_runs_one_vandermonde_solve_per_grid_line():
    r = method_kronecker(CUBIC)
    b = r.bounds
    # (m+1) solves of size (n+1) and (n+1) of size (m+1), each s(s-1) mul+div
    expected = (b.m + 1) * (b.n + 1) * b.n + (b.n + 1) * (b.m + 1) * b.m
    assert r.solve_counter.muldivs == expected == b.N * (b.m + b.n)
    assert r.det_evals == b.N


def test_method_config_validation():
    with pytest.raises(ValueError):
        MethodConfig(method="resultant")


def test_method_config_cannot_be_changed_past_its_check():
    cfg = MethodConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.method = "bogus"
    assert implicitize(HYPERBOLA, cfg).F == HYPERBOLA_F


def test_node_primality_agrees_with_trial_division():
    # _miller_rabin decides the modular primes; its contract is odd q > 37
    def is_prime(p):
        return all(p % d for d in range(2, math.isqrt(p) + 1))

    assert [q for q in range(39, 20000, 2) if _miller_rabin(q) != is_prime(q)] == []
    # 2047 and 3215031751 are strong pseudoprimes to the bases 2 and 2, 3, 5, 7;
    # 4294967291 is the largest prime below 2^32
    for q in (2047, 3215031751, 4294967291):
        assert _miller_rabin(q) == is_prime(q) == (q == 4294967291)


def test_implicitize_dispatch_and_merged_counter():
    r = implicitize(HYPERBOLA)  # default method: kronecker
    assert r.F == HYPERBOLA_F and r.det_evals == 4
    r = implicitize(HYPERBOLA, MethodConfig(method=METHOD_UNSTRUCTURED))
    assert r.F == HYPERBOLA_F and r.det_evals == 0
    merged = r.counter
    assert merged.adds == r.data_counter.adds + r.solve_counter.adds
    assert merged.muls == r.data_counter.muls + r.solve_counter.muls
    assert merged.max_bits == max(r.data_counter.max_bits, r.solve_counter.max_bits)


def test_cross_method_agreement_random():
    rng = random.Random(23)
    for _ in range(10):
        P = rand_ratparam(rng, 3)
        rs = [method_unstructured(P), method_dual_vandermonde(P), method_kronecker(P)]
        assert rs[0].F == rs[1].F == rs[2].F
        for r in rs:
            assert r.verified
            assert substitute_check(r.F, P)


def test_interpolation_data_is_determinant_of_final_polynomial():
    # Theorem behind the determinant methods: the datum at a node is the
    # implicit polynomial (up to the canonical scale) evaluated there.
    r = method_kronecker(CUBIC)
    for i in range(4):
        for j in range(4):
            val = sum(c * i**a * j**b for a, row in enumerate(r.F.coeffs) for b, c in enumerate(row))
            want = sum(c * i**a * j**b for a, row in enumerate(CUBIC_F.coeffs) for b, c in enumerate(row))
            assert val == want


def test_degenerate_multiple_tracing_detected():
    # x = y = t^2 traces the line y = x twice; every polynomial divisible by
    # (x - y) inside the degree box vanishes on all curve points, so the
    # unstructured method cannot isolate one equation.
    P = RatParam(UniPoly([0, 0, 1]), UniPoly.one(), UniPoly([0, 0, 1]), UniPoly.one())
    with pytest.raises(DegenerateInputError):
        method_unstructured(P)
    # the determinant methods return the resultant (x - y)^2 instead
    for fn in (method_dual_vandermonde, method_kronecker):
        r = fn(P)
        assert r.F == BiPoly([[0, 0, 1], [0, -2, 0], [1, 0, 0]])
        assert r.verified


def test_improper_inputs_raise_from_one_elimination(monkeypatch, capsys):
    # both trace their curve several times; every null vector of the 3N
    # points is a multiple of the true equation, and two of them are proven
    eliminations = []

    def counted(*args):
        eliminations.append(args[0])
        return structmat.ModEchelon(*args)

    monkeypatch.setattr(pipeline, "ModEchelon", counted)
    t2, t3, one = UniPoly([0, 0, 1]), UniPoly([0, 0, 0, 1]), UniPoly.one()
    for x, y, texts in ((t2, t2, ("t^2", "t^2")),
                        (t3, UniPoly([1, 0, 0, -1, 0, 0, 1]), ("t^3", "t^6-t^3+1"))):
        eliminations.clear()
        with pytest.raises(DegenerateInputError, match="two independent equations"):
            method_unstructured(RatParam(x, one, y, one))
        assert eliminations == [COPRIME_PRIME]
        argv = ["implicitize", "--method", "unstructured", "--x", texts[0], "--y", texts[1]]
        assert main(argv) == 2
        assert "Traceback" not in capsys.readouterr().err


def test_unlucky_first_primes_give_the_same_F(monkeypatch):
    # mod 2 and mod 3 the rank drops or the free column moves; the CRT
    # restarts on the first prime with a later free column
    monkeypatch.setattr(
        pipeline, "modular_primes", lambda: itertools.chain([2, 3], modular_primes())
    )
    rng = random.Random(31)
    for P in [HYPERBOLA, CUBIC] + [rand_ratparam(rng, d) for d in (2, 3, 3, 4)]:
        r = method_unstructured(P)
        assert r.F == method_kronecker(P).F and r.verified and r.primes >= 2


def test_wide_coefficients_need_several_primes():
    rng = random.Random(41)

    def wide(degree):
        cs = [Fraction(rng.randint(-2**32, 2**32), rng.randint(1, 2**32)) for _ in range(degree)]
        return UniPoly(cs + [Fraction(rng.randint(1, 2**32), rng.randint(1, 2**32))])

    P = RatParam(wide(2), wide(3), wide(1), wide(3))
    r = method_unstructured(P)
    assert r.primes >= 2 and r.verified
    assert r.F == method_kronecker(P).F


def _sylvester_cap(P):
    """B = (|u1|_1 + |v1|_1)**m * (|u2|_1 + |v2|_1)**n, the product of the
    Sylvester rows' 1-norms on the cleared pairs."""
    b = degree_bounds(P)
    (u1, v1), (u2, v2) = P.int_pairs
    return sum(map(abs, u1 + v1)) ** b.m * sum(map(abs, u2 + v2)) ** b.n


def test_proper_curves_have_F_within_the_sylvester_cap():
    # the premise of the unstructured cap: |F_ij| <= B, as F = +-R/cont(R)
    # and B bounds sum |R_ij|; rational coefficients only where the cleared
    # pairs keep the unstructured run short
    rng = random.Random(45)

    def poly(degree, bits, rational):
        top = 2**bits
        cs = [rng.randint(-top, top) for _ in range(degree)] + [rng.randint(1, top)]
        return UniPoly([Fraction(c, rng.randint(1, top)) for c in cs] if rational else cs)

    for d, bits, rational in itertools.product(range(1, 7), (4, 8, 16, 32), (False, True)):
        if rational and d * bits > 64:
            continue
        P = RatParam(*(poly(rng.randint(0, d), bits, rational) if k % 2 == 0
                       else poly(d, bits, rational) for k in range(4)))
        Fs = [fn(P).F for fn in (method_unstructured, method_dual_vandermonde, method_kronecker)]
        assert Fs[0] == Fs[1] == Fs[2]
        assert max(abs(c) for c in Fs[0].flat()) <= _sylvester_cap(P), (d, bits, rational)


def test_a_candidate_that_fails_the_proof_is_never_returned(monkeypatch):
    real = pipeline._scaled_reconstruction

    def skewed(vec, modulus):
        ints = real(vec, modulus)
        return [v + 1 for v in ints] if ints is not None and modulus == COPRIME_PRIME else ints

    monkeypatch.setattr(pipeline, "_scaled_reconstruction", skewed)
    r = method_unstructured(CUBIC)
    assert r.F == CUBIC_F and r.primes == 2
    monkeypatch.setattr(pipeline, "substitute_check", lambda F, P: False)
    with pytest.raises(InternalConsistencyError, match="Hadamard"):
        method_unstructured(CUBIC)
    for fn in (method_kronecker, method_dual_vandermonde):
        with pytest.raises(InternalConsistencyError, match="does not vanish"):
            fn(CUBIC)


def test_the_unstructured_run_gives_up_at_the_sylvester_cap(monkeypatch):
    # with every proof failing, the run raises once the modulus passes
    # 2 * B**2 with two primes or more; each prime exceeds 2**60
    primes = []

    def spy(p, width, counter):
        primes.append(p)
        return structmat.ModEchelon(p, width, counter)

    monkeypatch.setattr(pipeline, "ModEchelon", spy)
    monkeypatch.setattr(pipeline, "substitute_check", lambda F, P: False)
    with pytest.raises(InternalConsistencyError, match="Hadamard"):
        method_unstructured(CUBIC)
    assert (2 * _sylvester_cap(CUBIC) ** 2).bit_length() == 42 and len(primes) == 2
    # the census's wide rational curve
    wide = RatParam(*(UniPoly([Fraction(7**k + 3, 2**31 - k) for k in range(d + 1)])
                      for d in (2, 3, 1, 3)))
    primes.clear()
    with pytest.raises(InternalConsistencyError, match="Hadamard"):
        method_unstructured(wide)
    assert 2 < len(primes) <= -(-(2 * _sylvester_cap(wide) ** 2).bit_length() // 60) + 1


def test_improper_input_error_names_its_point_count():
    # x = t^2, y = t^4 + t^2: m = 4, n = 2, so N = 15 points and 2N extra
    t2, one = UniPoly([0, 0, 1]), UniPoly.one()
    with pytest.raises(DegenerateInputError) as exc:
        method_unstructured(RatParam(t2, one, UniPoly([0, 0, 1, 0, 1]), one))
    assert str(exc.value) == "two independent equations vanish on the curve at 45 points"


def test_a_zero_interpolant_is_an_internal_failure(monkeypatch, capsys):
    # zero data solve to the zero polynomial, which vanishes everywhere and
    # is never an implicit equation
    monkeypatch.setattr(pipeline, "sylvester_line_dets", lambda S, x0, ys, c: [0] * len(ys))
    for fn in (method_kronecker, method_dual_vandermonde):
        with pytest.raises(InternalConsistencyError, match="zero polynomial"):
            fn(CUBIC)
    for method in ("kron", "dualvand"):
        argv = ["implicitize", "--method", method, "--x", "(1+t)/(2+t)", "--y", "(3+t)/(4+t)"]
        assert main(argv) == 5
        err = capsys.readouterr().err
        assert err == ("error: internal consistency failure: "
                       "interpolation produced the zero polynomial\n")


def test_points_off_the_curve_give_full_rank(monkeypatch):
    # F vanishes at every curve point, so only points off the curve can
    # leave the unstructured system without a null vector
    rng = random.Random(43)

    def off_curve(P):
        while True:
            yield (rng.randint(-99, 99), rng.randint(1, 99),
                   rng.randint(-99, 99), rng.randint(1, 99))

    monkeypatch.setattr(pipeline, "curve_points", off_curve)
    for P in (HYPERBOLA, CUBIC):
        with pytest.raises(InternalConsistencyError, match="full rank mod p"):
            method_unstructured(P)


def test_constant_component_degenerate_for_determinant_methods():
    # every method rejects a constant x(t) or y(t), the unstructured one too
    const, line = (UniPoly([7]), UniPoly([2])), (UniPoly([0, 1]), UniPoly.one())
    for P in (RatParam(*const, *line), RatParam(*line, *const)):
        for fn in (method_kronecker, method_dual_vandermonde, method_unstructured):
            with pytest.raises(DegenerateParametrizationError):
                fn(P)


def test_curve_points_generator_is_lazy_and_deduplicated():
    gen = curve_points(HYPERBOLA)
    first = next(gen)
    assert first == (1, 2, 3, 4)
    seen = {first}
    for _ in range(10):
        pt = next(gen)
        assert pt not in seen
        seen.add(pt)


def test_curve_points_matches_the_rational_sweep():
    def oracle(P, stop=41):
        """The sweep in Fraction arithmetic, as it was first written."""
        pts = []
        for t in range(stop):
            u1, v1, u2, v2 = (_at(p, t) for p in (P.u1, P.v1, P.u2, P.v2))
            if v1 != 0 and v2 != 0:
                pt = (Fraction(u1) / v1, Fraction(u2) / v2)
                if pt not in pts:
                    pts.append(pt)
        return pts

    third, half = Fraction(1, 3), Fraction(1, 2)
    q = UniPoly([0, -9, 1])  # q(t) = q(9 - t): t = 0..9 meet each point twice
    curves = [
        # x has poles at t = 2 and 5, y at t = 7
        RatParam(UniPoly([third, half]), scaled(UniPoly([10, -7, 1]), third),
                 UniPoly([1, 0, Fraction(2, 5)]), scaled(UniPoly([-7, 1]), half)),
        # functions of q: repeated points, and y has poles at t = 3 and 6
        RatParam(scaled(q, third), UniPoly.one(), scaled(poly_mul(q, q), half),
                 scaled(UniPoly([18, -9, 1]), Fraction(5, 7))),  # q + 18
        RatParam(UniPoly([1]), UniPoly([1]), UniPoly([1]), UniPoly([0, 1])),
        # x's denominator vanishes at t = 0, 1 and is negative beyond, y's
        # vanishes at t = 2, 5 and is negative at t = 3, 4
        RatParam(UniPoly([-3, 1]), UniPoly([0, 1, -1]), UniPoly([5, 0, 1]),
                 poly_mul(UniPoly([-2, 1]), UniPoly([-5, 1]))),
        # s = t - 2: x = (s^2 + s - 1)/(s^2 + 2s - 1) takes (1, 2) at t = 3 and
        # (-1, -2) at t = 1, y = s^2 as well: one point, produced once
        RatParam(UniPoly([1, -3, 1]), UniPoly([-1, -2, 1]), UniPoly([4, -4, 1]), UniPoly.one()),
    ]
    rng = random.Random(41)
    curves += [rand_ratparam(rng, 3, rational=True) for _ in range(6)]
    for P in curves:
        want = oracle(P)
        got = list(itertools.islice(curve_points(P), len(want)))
        assert all(math.gcd(a, b) == 1 == math.gcd(c, e) and b > 0 < e for a, b, c, e in got)
        assert [(Fraction(a, b), Fraction(c, e)) for a, b, c, e in got] == want
        assert nodes_on_curve(P, len(want)) == want
    assert len(oracle(curves[1])) == 35  # t = 0..40 less 2 poles and 4 repeats
    assert len(oracle(curves[3])) == 37  # t = 0..40 less 4 poles
    (u, v), _ = curves[4].int_pairs
    assert (_at(UniPoly(u), 3), _at(UniPoly(v), 3)) == (1, 2)
    assert (_at(UniPoly(u), 1), _at(UniPoly(v), 1)) == (-1, -2)
    assert oracle(curves[4])[:3] == [(-1, 4), (Fraction(1, 2), 1), (1, 0)]  # t = 3 repeats t = 1


@pytest.mark.parametrize("x", [(UniPoly([1]), UniPoly([1])), (UniPoly([0, 2]), UniPoly([0, 1]))])
def test_curve_points_rejects_a_single_point(x):
    # both components constant (the second x = 2t/t only after reduction):
    # the sweep can never find a second point
    P = RatParam(*x, UniPoly([2]), UniPoly([3]))
    with pytest.raises(DegenerateParametrizationError, match="single point"):
        nodes_on_curve(P, 2)


def test_node_power_bits_match_the_multiplied_out_powers():
    def old_loop(nodes, count):
        c = OpCounter()
        for t in nodes:
            power = Fraction(1)
            for _ in range(count):
                c.observe(power)
                power *= t
        return c.max_bits

    for d in range(1, 9):
        grid = [Fraction(i) for i in range(d + 1)]
        schemes = [grid] + [
            [Fraction(p1**i * p2**j) for i in range(d + 1) for j in range(d + 1)]
            for p1, p2 in ((2, 3), (5, 11))
        ]
        for nodes in schemes:
            c = OpCounter()
            _observe_node_powers(c, nodes)
            assert c.max_bits == old_loop(nodes, len(nodes)), (d, nodes[-1])


def _perturbing(k, change, seen):
    """``sylvester_line_dets`` with datum ``k`` of the run, counted across
    the grid lines, replaced by ``change`` of it; every datum it returns is
    appended to ``seen``."""

    def dets(S, x0, ys, counter):
        out = sylvester_line_dets(S, x0, ys, counter)
        if len(seen) <= k < len(seen) + len(out):
            out[k - len(seen)] = change(out[k - len(seen)])
        seen.extend(out)
        return out

    return dets


def _every_perturbation_fails(monkeypatch, P):
    """Run both determinant solvers on ``P``, first unchanged and then with
    each datum moved by +1, -1, *2 (where nonzero) and +1/7, and assert that
    every moved run ends in the vanishing proof's error."""
    changes = (lambda v: v + 1, lambda v: v - 1, lambda v: 2 * v, lambda v: v + Fraction(1, 7))
    want = method_unstructured(P).F
    for fn in (method_kronecker, method_dual_vandermonde):
        data = []
        with monkeypatch.context() as mp:
            mp.setattr(pipeline, "sylvester_line_dets", _perturbing(0, lambda v: v, data))
            assert fn(P).F == want
        assert len(data) == degree_bounds(P).N
        for k, datum in enumerate(data):
            for change in changes:
                if change(datum) == datum:  # doubling a zero
                    continue
                with monkeypatch.context() as mp:
                    mp.setattr(pipeline, "sylvester_line_dets", _perturbing(k, change, []))
                    with pytest.raises(InternalConsistencyError, match="does not vanish"):
                        fn(P)


def test_interpolation_check_compares_exactly_on_integer_nodes(monkeypatch):
    # the determinant run's only check of its interpolant is the exact
    # vanishing proof: on CUBIC's integer nodes a datum off by 1/7 is caught,
    # and data scaled by 1/3 as a whole give the same canonical F
    third = Fraction(1, 3)
    for fn in (method_kronecker, method_dual_vandermonde):
        with monkeypatch.context() as mp:
            mp.setattr(pipeline, "sylvester_line_dets",
                       lambda S, x0, ys, c: [v * third for v in sylvester_line_dets(S, x0, ys, c)])
            r = fn(CUBIC)
        assert r.F == method_unstructured(CUBIC).F and r.verified
    _every_perturbation_fails(monkeypatch, CUBIC)


def test_every_perturbed_datum_fails_the_interpolation_check(monkeypatch):
    # the vanishing proof is the whole certificate of a determinant run: a
    # moved datum interpolates another polynomial, and the proof rejects it
    _every_perturbation_fails(monkeypatch, rand_ratparam(random.Random(37), 4, exact=True))


def test_rational_curves_interpolate_the_cleared_data():
    # the bands are cleared once, so the data (and the raw F) carry the
    # constant L1**d2 * L2**d1; the canonical F does not
    rng = random.Random(29)
    half, third = Fraction(1, 2), Fraction(1, 3)
    curves = [RatParam(UniPoly([1, half]), UniPoly([third, 1]), UniPoly([0, 1]), UniPoly([2, 1]))]
    curves += [rand_ratparam(rng, 3, rational=True) for _ in range(6)]
    for P in curves:
        want = method_unstructured(P).F
        for fn in (method_kronecker, method_dual_vandermonde):
            r = fn(P)
            assert r.F == want and r.verified


def _fraction_callers(P, cfg):
    """The code objects that construct a ``Fraction`` while ``P`` is
    implicitized, one entry per construction."""
    callers = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is Fraction.__new__.__code__:
            callers.append(frame.f_back.f_code)

    sys.setprofile(profile)
    try:
        implicitize(P, cfg)
    finally:
        sys.setprofile(None)
    return callers


def test_no_method_constructs_a_fraction():
    # every datum, node and canonical F of the determinant schemes is an
    # int, and the unstructured scheme rebuilds F as the ints S * v
    rng = random.Random(404)
    curves = [rand_ratparam(rng, d, exact=True) for d in range(2, 7)] + [CUBIC, HYPERBOLA]
    for method in implicurve.METHODS:
        callers = [c for P in curves for c in _fraction_callers(P, MethodConfig(method=method))]
        assert callers == [], method


def _assert_reconstructs_like_the_oracle(vec, modulus):
    """``_scaled_reconstruction`` of ``vec`` is the oracle's vector times the
    lcm of its denominators, or None with it; returns the oracle's vector."""
    want = reconstructed_vector(vec, modulus)
    got = _scaled_reconstruction(vec, modulus)
    if want is None:
        assert got is None
    else:
        scale = math.lcm(*(v.denominator for v in want))
        assert got == [v * scale for v in want]
        assert all(type(v) is int for v in got)
    return want


def test_scaled_reconstruction_matches_the_per_entry_oracle():
    # the running denominator S must give each entry's value exactly where
    # its fast path applies, and defer to Euclid (or reject) where not
    for modulus in (COPRIME_PRIME, math.prod(itertools.islice(modular_primes(), 2))):
        bound = math.isqrt(modulus // 2)

        def residues(*values):
            return [Fraction(v).numerator * pow(Fraction(v).denominator, -1, modulus) % modulus
                    for v in values]

        shared = residues(1, Fraction(-5, 7919), Fraction(12, 7919), Fraction(7918, 7919), 0)
        assert _assert_reconstructs_like_the_oracle(shared, modulus)[1] == Fraction(-5, 7919)
        mixed = residues(Fraction(1, 3), Fraction(5, 7), Fraction(-2, 21), Fraction(11, 13), 4)
        assert _assert_reconstructs_like_the_oracle(mixed, modulus)[3] == Fraction(11, 13)
        # two coprime denominators whose product S passes the bound: r/d1 is
        # found at u * S, while 1/(d1 d2) has u * S = 1 but no
        # reconstruction within the bound, so Euclid must run and reject it
        d1, d2 = math.isqrt(bound) + 3, math.isqrt(bound) + 4
        assert math.gcd(d1, d2) == 1 and d1 * d2 > bound
        wide = residues(Fraction(1, d1), Fraction(1, d2), Fraction(-3, d1))
        assert _assert_reconstructs_like_the_oracle(wide, modulus)[2] == Fraction(-3, d1)
        assert _assert_reconstructs_like_the_oracle(
            wide + residues(Fraction(1, d1 * d2)), modulus) is None
        # an entry with no reconstruction rejects the whole vector
        draws = random.Random(modulus)
        lost = next(u for u in (draws.randrange(modulus) for _ in range(50))
                    if rational_reconstruction(u, modulus) is None)
        assert _assert_reconstructs_like_the_oracle(shared[:2] + [lost], modulus) is None
        # entries at +-bound, and just past it
        edge = residues(bound, -bound, Fraction(1, bound), Fraction(-bound, bound - 1))
        assert _assert_reconstructs_like_the_oracle(edge, modulus) == [
            bound, -bound, Fraction(1, bound), Fraction(-bound, bound - 1)]
        for values in ([bound + 1], [1, Fraction(1, bound + 1)], [Fraction(bound, 2), bound + 1]):
            _assert_reconstructs_like_the_oracle(residues(*values), modulus)
    rng = random.Random(29)
    for _ in range(200):
        u = rng.randrange(COPRIME_PRIME)
        want = rational_reconstruction(u, COPRIME_PRIME)
        got = _rational_reconstruction(u, COPRIME_PRIME)
        assert got == (None if want is None else (want.numerator, want.denominator))


def test_pipeline_checks_still_run_under_python_O():
    code = (
        "from fractions import Fraction\n"
        "from implicurve import InternalConsistencyError\n"
        "from implicurve.polycore import OpCounter, resultant\n"
        "from implicurve import RatParam, UniPoly, pipeline, polycore\n"
        "pipeline.substitute_check = lambda F, P: False  # every proof fails\n"
        "hyperbola = RatParam(*(UniPoly(c) for c in ([1, 1], [2, 1], [3, 1], [4, 1])))\n"
        "calls = (lambda: resultant([1, 0, 0, 8], [Fraction(1, 2), 0], OpCounter()),\n"
        "         lambda: resultant([1, 0, 0], [1, Fraction(1, 2)], OpCounter()),\n"
        "         lambda: polycore._divide([0, 1], [1, 2]),  # a nonexact gcd division\n"
        "         lambda: polycore._divide([1, 0, 1], [1, 1]),  # a gcd leaving a remainder\n"
        "         lambda: pipeline.method_unstructured(hyperbola),\n"
        "         lambda: pipeline.method_kronecker(hyperbola),\n"
        "         lambda: pipeline.method_dual_vandermonde(hyperbola))\n"
        "for call in calls:\n"
        "    try:\n"
        "        call()\n"
        "    except InternalConsistencyError:\n"
        "        print('raised')\n"
    )
    src = str(Path(implicurve.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["raised"] * 7


@pytest.mark.parametrize("constant", ["x", "y"])
def test_degree_rule_raises_one_error_class_from_both_callers(constant):
    t, one = UniPoly([0, 1]), UniPoly.one()
    x, y = (UniPoly([3]), t) if constant == "x" else (t, UniPoly([3]))
    P = RatParam(x, one, y, one)
    for fn in (degree_bounds, build_parametric_sylvester):
        with pytest.raises(DegenerateParametrizationError, match="constant component") as exc:
            fn(P)
        assert type(exc.value) is DegenerateParametrizationError


def _proven_proper(P):
    """True when the tracing index of ``P`` (degrees <= 3) is proven to be 1.

    At a parameter t0 that is no pole, the fibre polynomials
    u(t)v(t0) - u(t0)v(t) of both components have gcd (t - t0) times the
    other parameters of the point P(t0).  An improper P = Q(phi(t)) with
    deg phi = r shares phi's fibre, of degree r, at every t0 except at most
    r - 1 of them, and r divides the degree of x(t), so r <= 3.  A gcd of
    degree 1 at three values of t0 therefore proves r = 1.  A proper curve
    is rejected only if its poles and the parameters of its multiple points
    take all but two of t0 = 0..11.
    """
    proper = 0
    for t0 in range(12):
        if _at(P.v1, t0) and _at(P.v2, t0):
            fibres = (UniPoly(a * _at(v, t0) - b * _at(u, t0)
                              for a, b in itertools.zip_longest(u.coeffs, v.coeffs, fillvalue=0))
                      for u, v in ((P.u1, P.v1), (P.u2, P.v2)))
            proper += len(euclid_gcd(*fibres).coeffs) - 1 == 1
    return proper >= 3


_coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def _rational_curves(draw):
    parts = []
    for _ in range(2):
        d = draw(st.integers(1, 3))
        parts.append(UniPoly(draw(st.lists(_coeffs, min_size=1, max_size=d + 1).filter(any))))
        parts.append(UniPoly(draw(st.lists(_coeffs, min_size=d + 1, max_size=d + 1)
                                  .filter(lambda c: c[-1]))))
    return RatParam(*parts)


@settings(max_examples=100, deadline=None)
@given(_rational_curves())
def test_rational_curves_agree_across_methods_and_perturbations_fail(P):
    try:
        degree_bounds(P)
    except DegenerateParametrizationError:  # a component reduced to a constant
        assume(False)
    # an improper curve gives F^r from the determinant methods (ROADMAP item 1)
    assume(_proven_proper(P))
    F = method_unstructured(P).F
    for fn in (method_unstructured, method_dual_vandermonde, method_kronecker):
        r = fn(P)
        assert r.F == F and r.verified
    for i in range(F.m + 1):
        for j in range(F.n + 1):
            grid = [list(row) for row in F.coeffs]
            grid[i][j] += 1
            assert not substitute_check(BiPoly(grid), P), (i, j)
