import random
from fractions import Fraction

import pytest

from implicurve import (
    BiPoly,
    RatParam,
    UniPoly,
    bipoly_canonicalize,
    implicitize,
    substitute_check,
)
from implicurve import polycore
from implicurve.cli import main
from implicurve.polycore import (
    COPRIME_PRIME,
    REFUTE_POINT,
    REFUTE_PRIME,
    OpCounter,
    _cleared,
    _miller_rabin,
    _prs,
    lowest_terms,
    refutes,
    resultant,
)

from util import (
    CUBIC,
    CUBIC_F_RAW,
    HYPERBOLA,
    HYPERBOLA_F,
    euclid_gcd,
    euclid_lowest_terms,
    poly_divmod,
    poly_mul,
    rand_frac,
    rand_ratparam,
    rand_unipoly,
    scaled,
)


def test_rat_is_exact_and_reduced():
    rng = random.Random(1)
    for _ in range(200):
        a, b, c = (rand_frac(rng, max_den=9) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        r = a * b + c
        from math import gcd

        assert gcd(r.numerator, r.denominator) == 1
        assert r.denominator > 0


def test_unipoly_normalization_and_degree():
    assert UniPoly([1, 2, 0, 0]).coeffs == (Fraction(1), Fraction(2))
    assert UniPoly([0, 0]).is_zero
    assert UniPoly().coeffs == ()
    assert len(UniPoly([5]).coeffs) - 1 == 0
    assert len(UniPoly([0, 0, 3]).coeffs) - 1 == 2


def _at(p, t):
    """The value of the polynomial ``p`` at ``t``, from the definition."""
    return sum(c * t**k for k, c in enumerate(p.coeffs))


def test_unipoly_arithmetic_is_ring_homomorphism():
    # the helpers that build test inputs, checked against evaluation
    rng = random.Random(2)
    for _ in range(50):
        p = rand_unipoly(rng, rng.randint(0, 4))
        q = rand_unipoly(rng, rng.randint(0, 4))
        t0 = rand_frac(rng)
        assert _at(scaled(p, t0), t0) == _at(p, t0) * t0
        assert _at(poly_mul(p, q), t0) == _at(p, t0) * _at(q, t0)


def test_coefficients_keep_their_type_and_refuse_others():
    p = UniPoly([1, Fraction(1, 2), Fraction(4, 2)])
    assert [type(c) for c in p.coeffs] == [int, Fraction, Fraction]
    assert [type(c) for c in BiPoly([[3, Fraction(1, 3)]]).coeffs[0]] == [int, Fraction]
    for bad in (0.5, 2.0, True, "1", None):
        with pytest.raises(ValueError):
            UniPoly([1, bad])
        with pytest.raises(ValueError):
            BiPoly([[bad]])
    with pytest.raises(ValueError):
        RatParam(UniPoly([0.5, 1.0]), UniPoly([1.0, 2.0]), UniPoly([0, 1]), UniPoly([1]))


def test_poly_gcd_examples():
    # the last nonzero remainder of the PRS is the gcd up to a constant
    cases = [([1, 1], [2, 1], [1]), ([-1, 0, 1], [-1, 1], [-1, 1]),
             ([1, 2, 2], [5, 0, 0, 1], [1]), ([2, 3, 1], [4, 4, 1], [2, 1])]
    for u, v, g in cases:
        rem = _prs(u[::-1], v[::-1], OpCounter())[1]
        assert scaled(UniPoly(rem[::-1]), Fraction(1, rem[0])) == UniPoly(g)
    # lowest_terms divides the pair by the monic gcd
    assert lowest_terms(UniPoly([1, 1]), UniPoly([2, 1])) == (
        UniPoly([1, 1]), UniPoly([2, 1]), False, [[1, 1], [2, 1]])
    u, v, reduced, ints = lowest_terms(UniPoly([-1, 0, 1]), UniPoly([-1, 1]))
    assert (u, v, reduced, ints) == (UniPoly([1, 1]), UniPoly.one(), True, [[1, 1], [1]])
    assert all(type(c) is int for c in u.coeffs + v.coeffs)
    assert not lowest_terms(CUBIC.u1, CUBIC.v1)[2]
    # (t - 1/2) / (2t^2 - t) = 1 / (2t): the monic gcd is t - 1/2
    half = Fraction(1, 2)
    assert lowest_terms(UniPoly([-half, 1]), UniPoly([0, -1, 2]))[:3] == (
        UniPoly.one(), UniPoly([0, 2]), True)


def test_poly_gcd_divides_both_and_is_monic():
    rng = random.Random(4)
    for trial in range(40):
        common = rand_unipoly(rng, rng.randint(1, 2), rational=trial % 2 == 1)
        p = poly_mul(rand_unipoly(rng, rng.randint(0, 3)), common)
        q = poly_mul(rand_unipoly(rng, rng.randint(0, 3)), common)
        g = euclid_gcd(p, q)
        assert g.coeffs[-1] == 1 and len(g.coeffs) >= len(common.coeffs)
        assert poly_divmod(p, g)[1].is_zero and poly_divmod(q, g)[1].is_zero
        u, v, reduced, ints = lowest_terms(p, q)
        assert (u, v, reduced) == euclid_lowest_terms(p, q) and reduced
        assert ints == _cleared((u.coeffs, v.coeffs))


def test_poly_gcd_of_two_zeros_rejected():
    # lowest_terms refuses a zero denominator, so the gcd is always defined
    for u in (UniPoly(), UniPoly([0, 1])):
        with pytest.raises(ValueError, match="nonzero"):
            lowest_terms(u, UniPoly())


def test_bipoly_grid_validation():
    with pytest.raises(ValueError):
        BiPoly([])
    with pytest.raises(ValueError):
        BiPoly([[1, 2], [3]])
    with pytest.raises(ValueError):
        BiPoly.from_flat([1, 2, 3], 1, 1)


def test_bipoly_equality_ignores_padding():
    padded = BiPoly([[2, -3, 0], [-1, 2, 0], [0, 0, 0]])
    assert padded == HYPERBOLA_F
    assert padded.deg_x == 1 and padded.deg_y == 1


def test_canonicalize_examples():
    assert bipoly_canonicalize(BiPoly([[Fraction(-1, 2), Fraction(3, 4)]])) == BiPoly(
        [[2, -3]]
    )
    assert bipoly_canonicalize(BiPoly([[4, -6], [-2, 4]])) == BiPoly([[2, -3], [-1, 2]])
    # trailing zero rows and columns are trimmed
    assert bipoly_canonicalize(BiPoly([[0, -1, 0], [0, 0, 0], [0, 0, 0]])).coeffs == (
        (Fraction(0), Fraction(1)),
    )


def test_canonicalize_idempotent_and_scale_invariant():
    rng = random.Random(5)
    for _ in range(40):
        grid = [
            [rand_frac(rng) for _ in range(rng.randint(1, 3))]
        ]
        width = len(grid[0])
        for _ in range(rng.randint(0, 2)):
            grid.append([rand_frac(rng) for _ in range(width)])
        F = BiPoly(grid)
        if F.is_zero:
            continue
        c1 = bipoly_canonicalize(F)
        assert bipoly_canonicalize(c1) == c1
        lam = rand_frac(rng)
        if lam:
            assert bipoly_canonicalize(scaled(F, lam)) == c1
        first = next(v for row in c1.coeffs for v in row if v)
        assert first > 0
        assert all(type(c) is int for row in c1.coeffs for c in row)


def test_canonicalize_rejects_zero():
    with pytest.raises(ValueError):
        bipoly_canonicalize(BiPoly([[0, 0, 0], [0, 0, 0], [0, 0, 0]]))


def test_ratparam_reduces_common_factors():
    # x = (1+t)(2+t) / (2+t)^2 should collapse to (1+t)/(2+t)
    u = UniPoly([2, 3, 1])  # (1+t)(2+t)
    v = UniPoly([4, 4, 1])  # (2+t)^2
    P = RatParam(u, v, UniPoly([3, 1]), UniPoly([4, 1]))
    assert P.was_reduced
    assert Fraction(_at(P.u1, 0), _at(P.v1, 0)) == Fraction(1, 2)
    assert max(len(P.u1.coeffs), len(P.v1.coeffs)) - 1 == 1
    Q = RatParam(UniPoly([1, 1]), UniPoly([2, 1]), UniPoly([3, 1]), UniPoly([4, 1]))
    assert not Q.was_reduced


def test_ratparam_rejects_zero_denominator():
    with pytest.raises(ValueError):
        RatParam(UniPoly([1]), UniPoly(), UniPoly([1]), UniPoly([1]))


def test_substitute_check_accepts_true_equations():
    assert substitute_check(HYPERBOLA_F, HYPERBOLA)
    assert substitute_check(CUBIC_F_RAW, CUBIC)
    assert substitute_check(scaled(CUBIC_F_RAW, Fraction(-7, 3)), CUBIC)


def test_substitute_check_rejects_wrong_equations():
    assert not substitute_check(BiPoly([[0], [1]]), HYPERBOLA)  # F = x
    assert not substitute_check(BiPoly([[1, 1], [1, 1]]), HYPERBOLA)
    assert not substitute_check(HYPERBOLA_F, CUBIC)


def test_refutes_is_a_disproof_that_never_accepts():
    # q is prime and above every modular prime, so it divides no modulus of theirs
    assert _miller_rabin(REFUTE_PRIME) and REFUTE_PRIME > COPRIME_PRIME
    for F, P in ((HYPERBOLA_F, HYPERBOLA), (CUBIC_F_RAW, CUBIC)):
        assert not refutes(F, P) and substitute_check(F, P)
    assert refutes(BiPoly([[0], [1]]), HYPERBOLA) and refutes(HYPERBOLA_F, CUBIC)
    # v1(t0) x - u1(t0) vanishes at the point P(t0), so N(t0) = 0 and only
    # the proof can reject it
    t0 = REFUTE_POINT
    for P in (HYPERBOLA, CUBIC):
        u1, v1 = P.int_pairs[0]
        F = BiPoly([[-polycore._horner(u1, t0)], [polycore._horner(v1, t0)]])
        assert not refutes(F, P) and not substitute_check(F, P)


def test_substitute_check_rejects_zero_polynomial():
    with pytest.raises(ValueError):
        substitute_check(BiPoly([[0, 0], [0, 0]]), HYPERBOLA)


# --- the one-point proof against the D+1-point proof ------------------------------


def _checked_verdict(F, P):
    """``substitute_check``, which must agree with the D+1-point proof: the
    cleared numerator N has degree <= D, so it is 0 iff it vanishes at the
    integers 0..D."""
    grid = polycore._cleared(F.coeffs)
    comps = [*polycore._cleared((P.u1.coeffs, P.v1.coeffs)),
             *polycore._cleared((P.u2.coeffs, P.v2.coeffs))]
    D = F.m * (max(map(len, comps[:2])) - 1) + F.n * (max(map(len, comps[2:])) - 1)
    points = ([polycore._horner(c, t) for c in comps] for t in range(D + 1))
    verdict = substitute_check(F, P)
    assert verdict == (not any(polycore._numerator(grid, pt) for pt in points)), (F, P)
    assert not (verdict and refutes(F, P)), (F, P)  # the disproof never refutes a true F
    return verdict


def _seeded_corpus():
    """Exact-degree curves d = 2..6 with integer and rational coefficients."""
    rng = random.Random(606)
    return [
        rand_ratparam(rng, d, exact=True, rational=rational)
        for d in range(2, 7)
        for rational in (False, True)
    ]


def _assert_only_the_equation_vanishes(F, P):
    """F vanishes along P, and no +1 perturbation of one coefficient does,
    by both proofs."""
    assert _checked_verdict(F, P)
    for i in range(F.m + 1):
        for j in range(F.n + 1):
            rows = [list(row) for row in F.coeffs]
            rows[i][j] += 1
            assert not _checked_verdict(BiPoly(rows), P), (P, i, j)
            assert refutes(BiPoly(rows), P), (P, i, j)


def test_substitute_check_rejects_every_one_coefficient_perturbation():
    for P in _seeded_corpus():
        _assert_only_the_equation_vanishes(implicitize(P).F, P)


def _wide_curve(rng, d, bits):
    """Degree-d curve whose coefficients are ``bits``-bit numerators over
    ``bits``-bit denominators."""
    def poly(degree):
        coeffs = [Fraction(rng.getrandbits(bits) - 2 ** (bits - 1), rng.getrandbits(bits) | 1)
                  for _ in range(degree)]
        return UniPoly(coeffs + [Fraction(rng.getrandbits(bits) | 1, rng.getrandbits(bits) | 1)])
    return RatParam(poly(d - 1), poly(d), poly(d), poly(d - 1))


def test_substitute_check_on_wide_coefficient_curves():
    rng = random.Random(909)
    for d in (2, 3):
        P = _wide_curve(rng, d, 32)
        _assert_only_the_equation_vanishes(implicitize(P).F, P)


def test_substitute_check_with_a_zero_numerator():
    P = RatParam(UniPoly(), UniPoly([3, 1]), UniPoly([0, 1]), UniPoly([2, 0, 1]))
    assert P.u1.is_zero
    assert _checked_verdict(BiPoly([[0], [1]]), P)  # x
    assert _checked_verdict(BiPoly([[0, 0], [1, 5], [2, 0]]), P)  # x + 5xy + 2x^2
    assert not _checked_verdict(BiPoly([[-1], [1]]), P)  # x - 1
    assert not _checked_verdict(BiPoly([[0, 1], [1, 0]]), P)  # y + x


def test_substitute_check_at_the_edge_of_its_bound():
    # along x = y = t, F = x - c gives N(t) = t - c, B = c + 1 and
    # T = 2**bitlen(c + 1) > c: a T one bit short of that would be a root
    P = RatParam(UniPoly([0, 1]), UniPoly.one(), UniPoly([0, 1]), UniPoly.one())
    for c in [*range(1, 40), *(2**k + e for k in range(6, 80) for e in (-1, 0, 1))]:
        assert not _checked_verdict(BiPoly([[-c], [1]]), P), c
    assert _checked_verdict(BiPoly([[0, -1], [1, 0]]), P)  # x - y


def test_verify_a_constant_component_through_main(capsys):
    assert main(["verify", "--x", "1", "--y", "t", "--poly", "x - 1"]) == 0
    assert capsys.readouterr().out.startswith("PASS")


def _sympy_vanishes(F: BiPoly, P: RatParam) -> bool:
    """Oracle: substitute x(t), y(t) into F with sympy and cancel."""
    import sympy

    t = sympy.symbols("t")

    def poly(p):
        return sum(sympy.Rational(c.numerator, c.denominator) * t**k for k, c in enumerate(p.coeffs))

    x, y = poly(P.u1) / poly(P.v1), poly(P.u2) / poly(P.v2)
    expr = sum(
        sympy.Rational(c.numerator, c.denominator) * x**i * y**j
        for i, row in enumerate(F.coeffs)
        for j, c in enumerate(row)
        if c
    )
    return sympy.cancel(sympy.together(expr)) == 0


def test_substitute_check_agrees_with_sympy_substitution():
    pytest.importorskip("sympy")
    rng = random.Random(707)
    cases = [(HYPERBOLA_F, HYPERBOLA), (CUBIC_F_RAW, CUBIC), (HYPERBOLA_F, CUBIC)]
    for d in (2, 3):
        for rational in (False, True):
            P = rand_ratparam(rng, d, rational=rational)
            F = implicitize(P).F
            times_x = BiPoly([[0] * (F.n + 1)] + [list(row) for row in F.coeffs])
            grid = [[rng.randint(-3, 3) for _ in range(F.n + 1)] for _ in range(F.m + 1)]
            grid[0][0] = rng.randint(1, 3)
            cases += [(F, P), (times_x, P), (BiPoly(grid), P)]
    verdicts = []
    for F, P in cases:
        verdicts.append(_checked_verdict(F, P))
        assert verdicts[-1] == _sympy_vanishes(F, P), (F, P)
    assert True in verdicts and False in verdicts


# --- coprimality ------------------------------------------------------------------


def _rand_pair(rng: random.Random, rational: bool):
    u = rand_unipoly(rng, rng.randint(0, 4), rational=rational)
    v = rand_unipoly(rng, rng.randint(0, 4), rational=rational)
    if rng.random() < 0.4:
        common = rand_unipoly(rng, rng.randint(1, 2), rational=rational)
        u, v = poly_mul(u, common), poly_mul(v, common)
    return u, v


def test_coprime_fast_path_agrees_with_exact_euclid():
    rng = random.Random(808)
    reduced = 0
    for trial in range(300):
        u, v = _rand_pair(rng, rational=trial % 2 == 1)
        exact = euclid_lowest_terms(u, v)
        assert lowest_terms(u, v)[:3] == exact
        if not u.is_zero:  # a nonzero resultant exactly when the gcd is constant
            cu, cv = _cleared((u.coeffs, v.coeffs))
            assert (resultant(cu[::-1], cv[::-1], OpCounter()) != 0) == (not exact[2])
        reduced += exact[2]
        P = RatParam(u, v, UniPoly([3, 1]), UniPoly([4, 1]))
        assert (P.u1, P.v1, P.was_reduced) == exact
        assert P.int_pairs[0] == _cleared((P.u1.coeffs, P.v1.coeffs))
    assert 50 < reduced < 250


def test_coprime_mod_prime_leaves_unprovable_pairs_to_euclid():
    # pairs that a coprimality check mod p = COPRIME_PRIME cannot prove
    # (a zero numerator, a denominator or a lead divisible by p, a common
    # factor, t + 1 against t + 1 + p: a root shared mod p only) and a
    # constant against t; then rational pairs with a zero numerator, a
    # squared common factor and a gcd whose primitive lead is 15; lowest_terms
    # decides each exactly, as Euclid does
    p, t = COPRIME_PRIME, UniPoly([0, 1])
    square = UniPoly([Fraction(1, 4), 1, 1])  # (t + 1/2)^2
    lead15 = UniPoly([Fraction(1, 5), Fraction(3, 2)])
    pairs = [
        (UniPoly(), UniPoly([2, 2])),
        (UniPoly([1, Fraction(1, p)]), UniPoly([2, 1])),
        (UniPoly([1, p]), UniPoly([2, 1])),
        (UniPoly([-1, 0, 1]), UniPoly([-1, 1])),
        (UniPoly([1, 1]), UniPoly([1 + p, 1])),
        (UniPoly([5]), t),
        (UniPoly(), UniPoly([Fraction(2, 3), Fraction(1, 7)])),
        (poly_mul(square, UniPoly([Fraction(-1, 3), 1])),
         poly_mul(square, UniPoly([Fraction(3, 5), Fraction(2, 5)]))),
        (poly_mul(lead15, UniPoly([1, 1])), poly_mul(lead15, UniPoly([Fraction(-2, 7), 0, 1]))),
    ]
    for u, v in pairs:
        assert lowest_terms(u, v)[:3] == euclid_lowest_terms(u, v)
    assert lowest_terms(*pairs[0])[:3] == (UniPoly(), UniPoly([2]), True)
    assert lowest_terms(*pairs[3])[:3] == (UniPoly([1, 1]), UniPoly.one(), True)
    assert lowest_terms(*pairs[4])[:3] == (*pairs[4], False)
    assert lowest_terms(*pairs[6])[:3] == (UniPoly(), UniPoly([Fraction(1, 7)]), True)
    assert [len(lowest_terms(*pair)[1].coeffs) - 1 for pair in pairs[7:]] == [1, 2]
