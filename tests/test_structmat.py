import itertools
import math
import operator
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings, strategies as st

import implicurve
from implicurve import pipeline, structmat
from implicurve.pipeline import _residue_row, nodes_on_curve
from implicurve.polycore import COPRIME_PRIME, _cleared, resultant
from implicurve.structmat import InternalConsistencyError
from implicurve import (
    DegenerateParametrizationError,
    DuplicateNodeError,
    ModEchelon,
    OpCounter,
    PolyMat,
    RatParam,
    UniPoly,
    build_parametric_sylvester,
    degree_bounds,
    kron_solve,
    sylvester_line_dets,
    vandermonde_solve_dual,
    vandermonde_solve_primal,
)

from util import (
    CUBIC,
    CUBIC_F_RAW,
    CUBIC_GRID_DATA,
    HYPERBOLA,
    ListEchelon,
    cofactor_det,
    gauss_det,
    kron,
    matvec,
    rand_frac,
    rand_ratparam,
    rand_unipoly,
    sylvester_rows,
    transpose,
    unpack_slots,
    vandermonde_rows,
)


# --- OpCounter ---------------------------------------------------------------


def test_opcounter_counts_and_merges():
    a = OpCounter()
    a.count(adds=3, muls=2)
    a.observe(Fraction(255, 7))  # 8-bit numerator
    b = OpCounter()
    b.count(divs=5)
    b.observe(Fraction(-3, 1024))  # 11-bit denominator
    m = a.merged(b)
    assert (m.adds, m.muls, m.divs) == (3, 2, 5)
    assert a.max_bits == 8 and b.max_bits == 11 and m.max_bits == 11
    assert m.muldivs == 7
    # merging is commutative
    m2 = b.merged(a)
    assert (m2.adds, m2.muls, m2.divs, m2.max_bits) == (m.adds, m.muls, m.divs, m.max_bits)


def test_opcounter_observes_an_int_as_its_fraction():
    for v in (0, 1, -1, 2, 255, -256, 3**200, -(2**300)):
        a, b = OpCounter(), OpCounter()
        a.observe(v)
        b.observe(Fraction(v))
        assert a.max_bits == b.max_bits == max(abs(v).bit_length(), 1), v


# --- Sylvester construction ---------------------------------------------------


def test_sylvester_hyperbola_entries():
    S = build_parametric_sylvester(HYPERBOLA)
    assert S.order == 2
    assert S.p_band == ((1, 1), (1, 2))  # row 0: (1 - x, 1 - 2x)
    assert S.q_band == ((1, 1), (3, 4))  # row 1: (1 - y, 3 - 4y)


def test_sylvester_cubic_entries():
    S = build_parametric_sylvester(CUBIC)
    assert S.order == 6
    # row 0: (-x, 2, 2, 1-5x, 0, 0), shifted right in rows 1-2
    assert S.p_band == ((0, 1), (2, 0), (2, 0), (1, 5))
    # row 3: (1, -3-y, 1, -1+3y, 0, 0), shifted right in rows 4-5
    assert S.q_band == ((1, 0), (-3, 1), (1, 0), (-1, -3))


def test_sylvester_mixed_degrees():
    # x = t, y = t^2 gives a 3x3 matrix with one p-row block of height 2
    P = RatParam(UniPoly([0, 1]), UniPoly.one(), UniPoly([0, 0, 1]), UniPoly.one())
    S = build_parametric_sylvester(P)
    assert S.order == 3
    assert S.p_band == ((1, 0), (0, 1))  # rows (1, -x, 0) and (0, 1, -x)
    assert S.q_band == ((1, 0), (0, 0), (0, 1))  # row (1, 0, -y)


def test_sylvester_rejects_constant_components():
    with pytest.raises(DegenerateParametrizationError):
        build_parametric_sylvester(
            RatParam(UniPoly([1]), UniPoly([1]), UniPoly([0, 1]), UniPoly.one())
        )
    with pytest.raises(DegenerateParametrizationError):
        build_parametric_sylvester(
            RatParam(UniPoly([0, 1]), UniPoly.one(), UniPoly([7]), UniPoly([2]))
        )


def test_polymat_det_agrees_with_cofactor_after_evaluation():
    rng = random.Random(11)
    for P in (HYPERBOLA, CUBIC):
        S = build_parametric_sylvester(P)
        for _ in range(5):
            x0, y0 = rng.randint(-9, 9), rng.randint(-9, 9)
            rows = sylvester_rows([u - x0 * v for u, v in S.p_band],
                                   [u - y0 * v for u, v in S.q_band])
            assert sylvester_line_dets(S, x0, [y0], OpCounter()) == [cofactor_det(rows)]


def test_gauss_det_agrees_with_cofactor_expansion():
    # the elimination oracle of the line-kernel tests, on matrices that need
    # row swaps (zero leading columns) and on singular ones
    rng = random.Random(13)
    for n in range(1, 6):
        for _ in range(20):
            rows = [[rand_frac(rng, -3, 3) if rng.random() < 0.6 else 0 for _ in range(n)]
                    for _ in range(n)]
            if n > 1 and rng.random() < 0.3:
                rows[-1] = list(rows[0])
            assert gauss_det(rows) == cofactor_det(rows)


# --- resultants by the subresultant PRS ------------------------------------------


def _res(p, q):
    """``resultant`` of the descending coefficient lists ``p`` and ``q``."""
    return resultant(p, q, OpCounter())


def test_det_examples():
    # Res(a, b) = lc(a)**deg b * the product of b over the roots of a
    examples = [
        ([1, -3], [1, -5], -2),  # b(3)
        ([1, 0, -2], [1, -1], -1),  # (sqrt 2 - 1)(-sqrt 2 - 1)
        ([1, -1], [1, 0, -2], -1),  # (-1)**(1*2) times the line above
        ([1, 0], [1, 0, 0, 2], 2),  # b(0)
        ([1, 0, 0, 2], [1, 0], -2),  # deg 3 * deg 1 is odd: the swap's sign
        ([1, 0, 0, 0, 1], [1, 0, 0, 0], 1),  # remainder 1: a degree drop of 3
        ([1, 0, 0, 0, 1], [1, 0, 0, -3], 82),  # remainder 3t + 1: a drop of 2
        # degrees 5, 4, 2, 1, 0: the drop of 2 comes after h = 2, so the
        # scale becomes g**2 / h, not g**2
        ([-3, -2, 0, 1, 0, -3], [2, 0, 0, 3, 0], -8073),
        ([3], [1, 0, 1], 9),  # a constant c gives c**deg
        ([1, 0, 1], [3], 9),
        ([3], [5], 1),  # the empty Sylvester matrix
    ]
    for p, q, want in examples:
        assert _res(p, q) == want == sympy.Matrix(sylvester_rows(p, q)).det(), (p, q)


def _rand_coeffs(rng, d, bound):
    """d + 1 descending coefficients in [-bound, bound], a nonzero lead;
    half the draws keep each lower coefficient with probability 1/3 only,
    so that degree drops above 1 (non-normal sequences) are common."""
    sparse = rng.random() < 0.5
    cs = [rng.randint(-bound, bound) if not sparse or rng.random() < 1 / 3 else 0
          for _ in range(d + 1)]
    cs[0] = cs[0] or bound
    return cs


def test_det_matches_cofactor_expansion():
    rng = random.Random(12)
    for trial in range(120):
        m = rng.randint(0, 4)
        n = rng.randint(0, 6 - m)
        bound = 9 if trial % 2 else 999
        p, q = _rand_coeffs(rng, m, bound), _rand_coeffs(rng, n, bound)
        if trial % 5 == 0 and m and n:  # a common root: p(1) = q(1) = 0
            p[-1] -= sum(p)
            q[-1] -= sum(q)
        want = cofactor_det(sylvester_rows(p, q)) if m + n else 1
        assert _res(p, q) == want, (p, q)
        assert _res(q, p) == (-1) ** (m * n) * want


def test_det_triangular_is_diagonal_product():
    # q = c at y0 with d2 vanishing formal leads: the Sylvester matrix is
    # upper triangular, det = a**d2 * c**d1 (the kernel's rule a**f * Res,
    # no sign).  p = c at x0 with d1 vanishing leads: a row permutation of
    # a triangular matrix, det = (-1)**(d1*d2) * q_0**d1 * c**d2.
    rng = random.Random(13)
    for _ in range(20):
        d1, d2 = rng.randint(1, 5), rng.randint(1, 5)
        x0, y0, c = rng.randint(-5, 5), rng.randint(-5, 5), rng.choice([-3, -1, 2, 7])

        def band(d, at, lead):
            vs = [rng.randint(-4, 4) for _ in range(d + 1)]
            pairs = [(at * v + rng.randint(-9, 9), v) for v in vs]
            if lead:
                pairs[0] = (at * vs[0] + lead, vs[0])
            return pairs

        def vanishing(d, at):
            vs = [rng.randint(-4, 4) for _ in range(d + 1)]
            return [(at * v, v) for v in vs[:-1]] + [(at * vs[-1] + c, vs[-1])]

        for p_band, q_band in ((band(d1, x0, rng.choice([-2, 1, 5])), vanishing(d2, y0)),
                               (vanishing(d1, x0), band(d2, y0, 0))):
            rows = sylvester_rows([u - x0 * v for u, v in p_band],
                                  [u - y0 * v for u, v in q_band])
            a, q0 = rows[0][0], rows[d2][0]
            if p_band[0][0] != x0 * p_band[0][1]:
                assert all(rows[i][j] == 0 for i in range(d1 + d2) for j in range(i))
                want = a**d2 * c**d1
            else:
                want = (-1) ** (d1 * d2) * q0**d1 * c**d2
            got = sylvester_line_dets(PolyMat(p_band, q_band), x0, [y0], OpCounter())
            assert got == [want] == [cofactor_det(rows)]
            _assert_line_matches_reference(PolyMat(p_band, q_band), (p_band, q_band), x0,
                                           [y0, y0 + 1, 0])


def test_det_zero_column_and_zero_row():
    # a zero polynomial gives zero rows, a common root dependent columns
    assert _res([], [1, 2]) == _res([1, 2], []) == _res([], []) == 0
    assert _res([1, 0, -1], [1, -1]) == 0  # t**2 - 1 and t - 1
    assert _res([2, 3, -2], [2, 5, 2]) == 0  # (2t - 1)(t + 2) and (2t + 1)(t + 2)
    # the kernel: q = 0 at y0 = 2, under a nonconstant p and under a
    # constant p[e:] (its zero leads leave a zero first column)
    q_band = [(4, 2), (-2, -1), (6, 3)]
    for p_band in ([(1, 0), (3, 1), (-2, 5)], [(3, 1), (6, 2), (-5, 1)]):
        S = PolyMat(p_band, q_band)
        assert sylvester_line_dets(S, 3, [2], OpCounter()) == [0]
        _assert_line_matches_reference(S, (p_band, q_band), 3, [2])
        _assert_line_matches_reference(S, (p_band, q_band), 3, [-1, 2, 4])


# --- nullspace mod p --------------------------------------------------------------


def _mod_p(values, p=COPRIME_PRIME):
    return [Fraction(v).numerator * pow(Fraction(v).denominator, -1, p) % p for v in values]


def _mod_echelon(p, width, counter, rows):
    """``ModEchelon`` of the int ``rows``, each entering through ``pack``."""
    ech = ModEchelon(p, width, counter)
    for row in rows:
        ech.add(ech.pack(row))
    return ech


def _echelon(rows, p=COPRIME_PRIME, counter=None):
    """``ModEchelon`` of rational ``rows``, each cleared to integers first."""
    return _mod_echelon(p, len(rows[0]), counter or OpCounter(), [_cleared([r])[0] for r in rows])


def test_nullspace_of_collocation_matrix():
    A = [
        [1, Fraction(3, 4), Fraction(1, 2), Fraction(3, 8)],
        [1, Fraction(4, 5), Fraction(2, 3), Fraction(8, 15)],
        [1, Fraction(5, 6), Fraction(3, 4), Fraction(5, 8)],
        [1, Fraction(6, 7), Fraction(4, 5), Fraction(24, 35)],
    ]
    ech = _echelon(A)
    assert ech.free == (3,)
    # proportional to (2, -3, -1, 2), normalized at the free column
    assert ech.null_vectors() == [_mod_p(Fraction(w, 2) for w in (2, -3, -1, 2))]


def test_nullspace_dimensions_and_residual():
    p = COPRIME_PRIME
    assert _echelon([[int(i == j) for j in range(3)] for i in range(3)]).null_vectors() == []
    assert _echelon([[1, 1]]).null_vectors() == [[p - 1, 1]]
    rng = random.Random(15)
    for _ in range(25):
        rows_n = rng.randint(1, 4)
        cols_n = rng.randint(1, 5)
        rows = [[rand_frac(rng, -3, 3, 2) for _ in range(cols_n)] for _ in range(rows_n)]
        ech = _echelon(rows)
        basis = ech.null_vectors()
        for v in basis:
            assert all(sum(map(operator.mul, _mod_p(r), v)) % p == 0 for r in rows)
        # rank-nullity: pivot count + basis size = column count
        assert len(ech.rows) + len(basis) == cols_n and len(ech.free) == len(basis)


def test_mod_echelon_counts_each_reduction():
    c = OpCounter()
    ech = _mod_echelon(7, 3, c, [[1, 2, 3], [4, 5, 6]])
    # the second row is reduced once, over all 3 columns; each pivot row is
    # scaled by its inverse pivot (3 muls, 1 div)
    assert (c.adds, c.muls, c.divs) == (3, 3 + 2 * 3, 2)
    ech.null_vectors()  # back-substitution: tails of length 1 and 2
    assert (c.adds, c.muls, c.divs) == (6, 12, 2)


def _same_echelon(rows, p, width):
    """``ModEchelon`` of ``rows``, after checking that it agrees with the
    list-based oracle on free columns, stored rows, null vectors and counts."""
    got_c, want_c = OpCounter(), OpCounter()
    got = _mod_echelon(p, width, got_c, rows)
    want = ListEchelon(p, width, want_c, rows)
    assert got.free == want.free and got.rows == want.rows
    # columns left of ``_first`` are reduced by the slot-dropping loop
    assert got._first == (got.free + (width,))[0]
    assert got.null_vectors() == want.null_vectors()
    assert (got_c.adds, got_c.muls, got_c.divs) == (want_c.adds, want_c.muls, want_c.divs)
    return got


def test_packed_echelon_matches_the_list_oracle():
    # at the 61-bit prime a slot is 128 bits at width 25 and 136 at 81 and 121
    rng = random.Random(26)
    slots = {(7, 25): 16, (7, 81): 16, (7, 121): 16,
             (COPRIME_PRIME, 25): 128, (COPRIME_PRIME, 81): 136, (COPRIME_PRIME, 121): 136}
    for (p, width), slot in slots.items():
        # independent rows with leading zeros, so that the pivots skip
        # columns, entries outside [0, p), then dependent rows and a zero row
        rank = width + 3 if width == 25 else width // 4
        rows = [[0] * rng.randrange(width // 2) for _ in range(rank)]
        rows = [r + [rng.randrange(-p * p, p * p) for _ in range(width - len(r))] for r in rows]
        for _ in range(3):
            a, b, f = rng.choice(rows), rng.choice(rows), rng.randrange(p)
            rows.append([x + f * y for x, y in zip(a, b)])
        rows.append([0] * width)
        rng.shuffle(rows)
        assert _same_echelon(rows, p, width).slot == slot


def test_packed_echelon_worst_case_fills_its_slots():
    # stored rows e_k - (e_(k+1) + ... ): every stored entry right of a pivot
    # is p - 1, and the row (1 - j mod p)_j meets the multiplier p - 1 at
    # every pivot, so its slot j grows to x_j + j (p - 1)**2
    for p, width in ((7, 25), (COPRIME_PRIME, 81), (COPRIME_PRIME, 121)):
        stored = [[0] * k + [1] + [p - 1] * (width - k - 1) for k in range(width - 1)]
        row = [(1 - j) % p for j in range(width)]
        c = OpCounter()
        ech = _mod_echelon(p, width, c, stored)
        assert c.adds == 0
        ech.add(ech.pack(row))
        assert c.adds == sum(width - k for k in range(width - 1))  # no multiplier was 0
        _same_echelon(stored + [row], p, width)
        # the last slot needs more than the slot's lower bytes: one byte
        # less, or a width one bit narrower at the 61-bit prime, carries
        peak = row[-1] + (width - 1) * (p - 1) ** 2
        assert ech.slot - 8 < peak.bit_length() <= ech.slot


def test_nullspace_matches_sympy():
    def oracle(rows):
        M = sympy.Matrix([[sympy.Rational(c.numerator, c.denominator) for c in r] for r in rows])
        return [_mod_p(Fraction(int(e.p), int(e.q)) for e in v) for v in M.nullspace()]

    def variants(rows):
        """The matrix, with a zero row, with a zero column, and with a zero
        first entry (a row swap when the rest of column 0 is not zero)."""
        yield rows
        zero_row = [list(r) for r in rows]
        zero_row[rng.randrange(len(rows))] = [Fraction(0)] * len(rows[0])
        yield zero_row
        col = rng.randrange(len(rows[0]))
        yield [[Fraction(0) if j == col else c for j, c in enumerate(r)] for r in rows]
        yield [[Fraction(0)] + list(rows[0][1:])] + [list(r) for r in rows[1:]]

    rng = random.Random(16)
    for rows_n, cols_n in ((6, 3), (3, 6), (5, 5), (1, 4), (4, 1)):
        for k in range(min(rows_n, cols_n) + 1):  # rank k (0: the zero matrix)
            L = [[rand_frac(rng) for _ in range(k)] for _ in range(rows_n)]
            R = [[rand_frac(rng) for _ in range(cols_n)] for _ in range(k)]
            rows = [
                [sum((L[i][t] * R[t][j] for t in range(k)), Fraction(0)) for j in range(cols_n)]
                for i in range(rows_n)
            ]
            for M in variants(rows):
                assert _echelon(M).null_vectors() == oracle(M), M
    for count in (16, 17):
        points = nodes_on_curve(CUBIC, count)
        A = [[x0**i * y0**j for i in range(4) for j in range(4)] for x0, y0 in points]
        ech = ModEchelon(COPRIME_PRIME, 16, OpCounter())
        for (x0, y0), want in zip(points, A):
            row = _residue_row((x0.numerator, x0.denominator, y0.numerator, y0.denominator),
                               3, 3, COPRIME_PRIME, ech.slot)
            # the packed residue row is the rational one times b^3 e^3 mod p,
            # (a/b, c/e) the point, slot by slot
            scale = (x0.denominator * y0.denominator) ** 3
            assert [v % COPRIME_PRIME for v in unpack_slots(row, ech.slot, 16)] == _mod_p(
                v * scale for v in want)
            ech.add(row)
        assert ech.free == (15,) and ech.null_vectors() == oracle(A)


# --- Vandermonde solvers --------------------------------------------------------


def test_primal_examples():
    assert vandermonde_solve_primal([0, 1], [2, -1], OpCounter()) == [2, -3]
    assert vandermonde_solve_primal(
        [0, 1, 2, 3], [-53, -85, -265, -593], OpCounter()
    ) == [-53, 42, -74, 0]
    assert vandermonde_solve_primal([5], [7], OpCounter()) == [7]


def test_dual_example_moments():
    c = vandermonde_solve_dual([1, 3, 2, 6], [0, 3, 43, 345], OpCounter())
    assert c == [2, -3, -1, 2]


def test_vandermonde_residuals_are_zero():
    rng = random.Random(16)
    for _ in range(40):
        s = rng.randint(1, 8)
        nodes = rng.sample(range(-12, 13), s)
        values = [rand_frac(rng) for _ in range(s)]
        a = vandermonde_solve_primal(nodes, values, OpCounter())
        V = vandermonde_rows(nodes)
        assert matvec(V, a) == values
        b = [rand_frac(rng) for _ in range(s)]
        cvec = vandermonde_solve_dual(nodes, b, OpCounter())
        assert matvec(transpose(V), cvec) == b


def test_vandermonde_agree_with_general_solver():
    # V is invertible on distinct nodes, so a zero residual proves that a
    # solve returned the one solution any general solver finds
    rng = random.Random(17)
    for _ in range(40):
        s = rng.randint(2, 8)
        pool = sorted({Fraction(n, d) for n in range(-10, 11) for d in (1, 2, 3)})
        nodes = rng.sample(pool, s)
        rhs = [rand_frac(rng) for _ in range(s)]
        V = vandermonde_rows(nodes)
        assert matvec(V, vandermonde_solve_primal(nodes, rhs, OpCounter())) == rhs
        assert matvec(transpose(V), vandermonde_solve_dual(nodes, rhs, OpCounter())) == rhs


def test_vandermonde_error_cases():
    with pytest.raises(DuplicateNodeError):
        vandermonde_solve_primal([1, 2, 1], [1, 2, 3], OpCounter())
    with pytest.raises(DuplicateNodeError):
        vandermonde_solve_dual([Fraction(1, 2), Fraction(2, 4)], [1, 2], OpCounter())
    with pytest.raises(ValueError):
        vandermonde_solve_primal([1, 2], [1], OpCounter())
    with pytest.raises(ValueError):
        vandermonde_solve_dual([1, 2], [1], OpCounter())


def test_vandermonde_quadratic_op_budget():
    rng = random.Random(18)
    for s in (2, 5, 9, 16):
        nodes = rng.sample(range(-20, 21), s)
        rhs = [rand_frac(rng) for _ in range(s)]
        cp = OpCounter()
        vandermonde_solve_primal(nodes, rhs, cp)
        assert cp.muldivs == s * (s - 1) <= 3 * s * s
        cd = OpCounter()
        vandermonde_solve_dual(nodes, rhs, cd)
        assert cd.muldivs == s * (s - 1) <= 3 * s * s


# --- Kronecker-structured solver ------------------------------------------------


def test_kron_solve_unit_grid():
    c = kron_solve([0, 1], [0, 1], [2, -1, 1, 0], OpCounter())
    assert c == [2, -3, -1, 2]


def test_kron_solve_cubic_grid_data():
    c = kron_solve(list(range(4)), list(range(4)), CUBIC_GRID_DATA, OpCounter())
    assert c == list(CUBIC_F_RAW.flat())


def test_kron_solve_matches_explicit_kronecker_matrix():
    rng = random.Random(19)
    for _ in range(25):
        mx = rng.randint(0, 3)
        ny = rng.randint(0, 3)
        xs = rng.sample(range(-8, 9), mx + 1)
        ys = rng.sample(range(-8, 9), ny + 1)
        b = [rand_frac(rng) for _ in range((mx + 1) * (ny + 1))]
        c = kron_solve(xs, ys, b, OpCounter())
        K = kron(vandermonde_rows(xs), vandermonde_rows(ys))
        assert matvec(K, c) == b


def test_kron_solve_cost_is_sum_of_axis_solves():
    counter = OpCounter()
    kron_solve(list(range(4)), list(range(4)), CUBIC_GRID_DATA, counter)
    # (m+1) solves of size n+1 plus (n+1) solves of size m+1
    assert counter.muldivs == 4 * (4 * 3) + 4 * (4 * 3)
    budget = 6 * 4**3
    assert counter.muldivs <= budget


def test_kron_solve_error_cases():
    with pytest.raises(DuplicateNodeError):
        kron_solve([0, 0], [0, 1], [1, 2, 3, 4], OpCounter())
    with pytest.raises(ValueError):
        kron_solve([0, 1], [0, 1], [1, 2, 3], OpCounter())


# --- exactness of the PRS under stress ----------------------------------------


def test_prs_divisions_stay_exact_on_large_random_pairs():
    # every internal division checks its exactness; survival is the property
    rng = random.Random(20)
    for _ in range(10):
        m, n = rng.randint(5, 8), rng.randint(5, 8)
        p, q = _rand_coeffs(rng, m, 99), _rand_coeffs(rng, n, 99)
        assert _res(p, q) == sympy.Matrix(sylvester_rows(p, q)).det()


def test_banded_evaluation_matches_entries_view_and_cofactor():
    # the entries view: the formal matrix of u - x*v and u - y*v in sympy
    rng = random.Random(21)
    curves = [HYPERBOLA, CUBIC] + [rand_ratparam(rng, 3, rational=True) for _ in range(4)]
    x, y = sympy.symbols("x y")
    for P in curves:
        S = build_parametric_sylvester(P)
        view = sympy.Matrix(sylvester_rows([u - x * v for u, v in S.p_band],
                                            [u - y * v for u, v in S.q_band]))
        assert view.shape == (S.order, S.order)
        for _ in range(4):
            x0, y0 = rng.randint(-9, 9), rng.randint(-9, 9)
            rows = sylvester_rows([u - x0 * v for u, v in S.p_band],
                                   [u - y0 * v for u, v in S.q_band])
            at = view.subs({x: x0, y: y0})
            assert at == sympy.Matrix(rows)
            assert sylvester_line_dets(S, x0, [y0], OpCounter()) == [at.det()] == [cofactor_det(rows)]


def test_polymat_bands_must_depend_on_the_parameter():
    with pytest.raises(ValueError):
        PolyMat([(1, 0)], [(1, 0), (0, 1)])
    S = PolyMat([(1, 0), (0, 1)], [(1, 0), (2, 3)])  # p = t - x, q = t + 2 - 3y
    assert S.order == 2
    assert (S.p_band, S.q_band) == (((1, 0), (0, 1)), ((1, 0), (2, 3)))


def test_prs_scale_update_checks_its_division():
    # b = t/2 is no integer polynomial: the remainder of t**3 + 8 is 1, yet
    # the scale h = g**2 / h of the next step is g**2 = 1/4
    # (the check under python -O: test_pipeline_checks_still_run_under_python_O)
    with pytest.raises(InternalConsistencyError, match="nonexact"):
        _res([1, 0, 0, 8], [Fraction(1, 2), 0])


# --- the Sylvester line kernel ------------------------------------------------


def _rational_bands(P):
    """The uncleared coefficient pairs of p = u1 - x*v1 and q = u2 - y*v2,
    in descending t-degree."""
    def band(u, v):
        d = max(len(u.coeffs), len(v.coeffs)) - 1
        cu, cv = (list(c) + [0] * (d + 1 - len(c)) for c in (u.coeffs, v.coeffs))
        return list(zip(reversed(cu), reversed(cv)))
    return band(P.u1, P.v1), band(P.u2, P.v2)


def _clear(band):
    """The lcm L of the rational ``band``'s denominators, and L * band as ints."""
    scale = math.lcm(*(c.denominator for pair in band for c in pair))
    return scale, [(int(u * scale), int(v * scale)) for u, v in band]


def _uncleared_sylvester(p_band, q_band, x0, y0):
    """The ``Fraction`` Sylvester rows of the rational bands at (x0, y0)."""
    return sylvester_rows([Fraction(u) - x0 * v for u, v in p_band],
                           [Fraction(u) - y0 * v for u, v in q_band])


def _assert_line_matches_reference(S, bands, x0, ys):
    """The kernel on the int matrix ``S`` against the ``gauss_det`` of the
    uncleared ``bands``' Sylvester matrix times L1**d2 * L2**d1.  ``S`` must
    be ``bands`` cleared."""
    p, q = bands
    (l1, cp), (l2, cq) = _clear(p), _clear(q)
    assert (S.p_band, S.q_band) == (tuple(cp), tuple(cq))
    got = sylvester_line_dets(S, x0, ys, OpCounter())
    assert all(type(v) is int for v in got)
    scale = l1 ** (len(q) - 1) * l2 ** (len(p) - 1)
    assert got == [scale * gauss_det(_uncleared_sylvester(p, q, x0, y)) for y in ys]


def _curve_with_vanishing_lead(rng, d1, d2, rational, drop):
    """x = r + w/v1 with deg w <= d1 - 1 - drop, so at x0 = r the leading
    1 + drop coefficients of p = u1 - x0*v1 vanish."""
    v1 = rand_unipoly(rng, d1, rational=rational)
    w = rand_unipoly(rng, rng.randint(0, max(0, d1 - 1 - drop)), rational=rational)
    r = rng.randint(-3, 3)
    P = RatParam(
        UniPoly(a * r + b for a, b in itertools.zip_longest(v1.coeffs, w.coeffs, fillvalue=0)), v1,
        rand_unipoly(rng, rng.randint(0, d2), rational=rational),
        rand_unipoly(rng, d2, rational=rational),
    )
    return P, r


def test_line_kernel_matches_reference_determinants():
    rng = random.Random(41)
    lead_zero_lines = 0
    for trial in range(36):
        d1, d2 = rng.randint(1, 6), rng.randint(1, 6)
        P, r = _curve_with_vanishing_lead(rng, d1, d2, trial % 2 == 1, rng.randint(0, 2))
        S, bands = build_parametric_sylvester(P), _rational_bands(P)
        for x0 in sorted({r, -2, 0, 3}):
            u, v = S.p_band[0]
            lead_zero_lines += u == x0 * v
            _assert_line_matches_reference(S, bands, x0, [-2, 0, 1, 4])
            _assert_line_matches_reference(S, bands, x0, [rng.randint(-5, 5)])
    assert lead_zero_lines >= 20
    for P in (HYPERBOLA, CUBIC):
        S, bands = build_parametric_sylvester(P), _rational_bands(P)
        for x0 in range(-1, 4):
            _assert_line_matches_reference(S, bands, x0, list(range(-1, 4)))


_coef = st.integers(-9, 9) | st.fractions(-9, 9, max_denominator=4)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_line_kernel_property(data):
    d1, d2 = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    r = data.draw(st.integers(-4, 4))
    vanishing = data.draw(st.integers(0, d1 + 1))  # leading p coefficients zero at x0 = r
    p_band = []
    for s in range(d1 + 1):
        u, v = data.draw(_coef), data.draw(_coef)
        p_band.append((r * v, v) if s < vanishing else (u, v))
    q_band = [(data.draw(_coef), data.draw(_coef)) for _ in range(d2 + 1)]
    S = PolyMat(_clear(p_band)[1], _clear(q_band)[1])
    ys = data.draw(st.lists(st.integers(-6, 6), min_size=1, max_size=4))
    for x0 in (r, data.draw(st.integers(-6, 6))):
        _assert_line_matches_reference(S, (p_band, q_band), x0, ys)


def test_line_kernel_needs_integer_bands():
    for bad in (Fraction(1, 2), 1.5, 2.0, "1"):
        with pytest.raises(ValueError, match="integer coefficients"):
            PolyMat([(bad, 0), (1, 1)], [(1, 0), (0, 1)])
    P = RatParam(UniPoly([1, Fraction(1, 2)]), UniPoly.one(), UniPoly([0, 1]), UniPoly.one())
    S = build_parametric_sylvester(P)
    assert S.p_band == ((1, 0), (2, 2))  # cleared by 2
    assert sylvester_line_dets(S, 0, [0, 2], OpCounter()) == [-2, -4]  # 2x - 2 - y


def test_line_kernel_edge_lines():
    ys = [-3, -1, 0, 2, 5]
    q_band = [(1, 2), (-3, 0), (5, 1)]
    lead_zero = [(3, 1), (4, 2), (-2, -1), (6, 3)]  # lc(p)(3) = 0
    p_zero = [(2, 1), (4, 2), (-2, -1), (6, 3)]  # p = u1 - x0*v1 = 0 at x0 = 2
    for p_band, x0 in ((lead_zero, 3), (p_zero, 2)):
        _assert_line_matches_reference(PolyMat(p_band, q_band), (p_band, q_band), x0, ys)
    assert sylvester_line_dets(PolyMat(p_zero, q_band), 2, ys, OpCounter()) == [0] * len(ys)
    # R = 0: p = t^2 + t - 2 at x0 = 0, u2 and v2 share its root t = 1
    p_band = [(1, 0), (1, 1), (-2, 3)]
    q_band = [(2, 1), (3, -5), (-5, 4)]  # (t-1)(2t+5), (t-1)(t-4)
    _assert_line_matches_reference(PolyMat(p_band, q_band), (p_band, q_band), 0, ys)
    assert sylvester_line_dets(PolyMat(p_band, q_band), 0, ys, OpCounter()) == [0] * len(ys)
    # Res_t(t^3 - 7, t - y) = 7 - y^3: a negative top digit over two zero ones
    p_band = [(1, 0), (0, 0), (0, 0), (-7, 0)]
    q_band = [(1, 0), (0, 1)]
    _assert_line_matches_reference(PolyMat(p_band, q_band), (p_band, q_band), 0, ys)
    assert sylvester_line_dets(PolyMat(p_band, q_band), 0, ys, OpCounter()) == [7 - y**3 for y in ys]
    # 64-bit numerators over 64-bit denominators: a packed y of thousands of bits
    rng = random.Random(77)

    def wide(count):
        return [tuple(Fraction(rng.getrandbits(64) - 2**63, rng.getrandbits(64) | 1)
                      for _ in "uv") for _ in range(count)]

    p_band, q_band = wide(6), wide(5)
    S = PolyMat(_clear(p_band)[1], _clear(q_band)[1])
    for x0 in (-1, 2):
        _assert_line_matches_reference(S, (p_band, q_band), x0, list(range(-3, 18)))


def test_line_kernel_vanishing_leads_of_p_and_q():
    # lc(p)(3) = 0 and q's formal lead 4 - 2y vanishes at y0 = 2: the
    # expansion along the first column gives q_0**e * Res = 0 there
    p_band = [(3, 1), (4, 2), (-2, -1), (6, 3)]
    q_band = [(4, 2), (-3, 0), (5, 1)]
    S = PolyMat(p_band, q_band)
    assert sylvester_line_dets(S, 3, [2], OpCounter()) == [0]
    for ys in ([2], [-1, 0, 2, 5]):
        _assert_line_matches_reference(S, (p_band, q_band), 3, ys)
    assert sylvester_line_dets(S, 3, [-1, 0, 2, 5], OpCounter())[2] == 0
    assert sylvester_line_dets(S, 3, [1], OpCounter()) != [0]


def test_line_kernel_constant_p_at_x0():
    # p = u1 - 3*v1 = [0, 0, -8] at x0 = 3: det = (-1)**(2*d2) q_0**2 * (-8)**d2
    p_band = [(3, 1), (6, 2), (-5, 1)]
    q_bands = ([(1, 2), (-3, 0), (5, 1)], [(2, -1), (7, 3)], [(1, 1), (0, 2), (3, 0), (-4, 5)])
    for q_band in q_bands:
        d2 = len(q_band) - 1
        S = PolyMat(p_band, q_band)
        for ys in ([4], [-3, -1, 0, 2, 5]):
            _assert_line_matches_reference(S, (p_band, q_band), 3, ys)
            want = [(q_band[0][0] - y * q_band[0][1]) ** 2 * (-8) ** d2 for y in ys]
            assert sylvester_line_dets(S, 3, ys, OpCounter()) == want


def test_line_kernel_single_nodes_with_unequal_degrees():
    # r_0 = a**d2 * rem(q, p) takes d2 - d1 + 1 steps for d2 >= d1, none below
    rng = random.Random(53)
    for d1, d2 in ((1, 4), (2, 5), (3, 6), (4, 1), (5, 2), (6, 3)):
        for _ in range(3):
            p_band = [(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(d1 + 1)]
            q_band = [(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(d2 + 1)]
            S = PolyMat(p_band, q_band)
            for x0 in (-2, 1, 8):
                _assert_line_matches_reference(S, (p_band, q_band), x0, [rng.randint(-9, 9)])
                _assert_line_matches_reference(S, (p_band, q_band), x0, [-4, 0, 3])


def test_dual_run_through_a_node_where_lc_p_vanishes():
    # x = 4 + w/v1 with deg w < deg v1: at the dual node x0 = 2**2 the lead
    # of p = u1 - x0*v1 vanishes, with e = 1, 2 and 3 zero leads
    y = (UniPoly([1, -2, 1]), UniPoly([2, 1]))
    for u1, v1, e in (([17, 1, 4], [3, 0, 1], 1), ([17, 0, 4], [3, 0, 1], 2),
                      ([5, 0, 0, 8], [1, 0, 0, 2], 3)):
        P = RatParam(UniPoly(u1), UniPoly(v1), *y)
        S, bands = build_parametric_sylvester(P), _rational_bands(P)
        assert 2 < degree_bounds(P).N
        p = [u - 4 * v for u, v in S.p_band]
        assert p[:e] == [0] * e and p[e]
        _assert_line_matches_reference(S, bands, 4, [3**2])
        _assert_line_matches_reference(S, bands, 4, [-2, 0, 9, 11])
        dual = implicurve.method_dual_vandermonde(P)
        assert dual.verified and dual.F == implicurve.method_kronecker(P).F


def test_remainder_step_checks_its_division():
    # b = t + 1/2 is no integer polynomial: the pseudo-remainder of t**2 by
    # b is 1/4, which the first step's g * h = 1 does not divide exactly
    # (the check under python -O: test_pipeline_checks_still_run_under_python_O)
    with pytest.raises(InternalConsistencyError, match="subresultant PRS hit a nonexact"):
        _res([1, 0, 0], [1, Fraction(1, 2)])


def test_line_kernel_prs_cases():
    # hand-made lines (p band, q band, x0, ys), each against sympy's
    # determinant of the Sylvester matrix, node by node and packed
    t = sympy.Symbol("t")
    cases = [
        # p = t^4 + 1, q = t^3 - y: prem(p, q) = y*t + 1 drops the degree
        # by 2, and by 3 at y = 0 (non-normal sequences)
        ([(1, 0), (0, 0), (0, 0), (0, 0), (1, 0)], [(1, 0), (0, 0), (0, 0), (0, 1)], 0, [0, 3]),
        # the two leads of p vanish at x0 = 2: p[e:] = t - 7 has degree
        # 1 < deg q = 3, an odd*odd pair the PRS swaps
        ([(2, 1), (4, 2), (1, 0), (-3, 2)], [(1, 1), (2, 0), (0, 3), (5, 1)], 2, [-1, 4]),
        # d1 = 3, d2 = 5: odd*odd, no vanishing leads
        ([(2, 1), (-1, 3), (4, 0), (1, -2)],
         [(1, 2), (0, 1), (-3, 0), (2, 2), (5, -1), (1, 1)], 1, [0, 2, -3]),
        # p = (t - 1)(t + 2) at x0 = 0 and q = (t - 1)(3t - y): a common
        # root at every y, a zero resultant
        ([(1, 0), (1, 1), (-2, 3)], [(3, 0), (-3, 1), (0, -1)], 0, [-2, 0, 5]),
        # the formal leads (y - 2)t^3 and (2y - 4)t^2 of q vanish at y = 2
        ([(3, 1), (1, 0), (-1, 2)], [(-2, -1), (-4, -2), (1, 0), (7, 1)], 1, [2, -1]),
        # p = 5 at x0 = 1 after 2 vanishing leads; q_0 = 0 at y = 3
        ([(1, 1), (2, 2), (4, -1)], [(3, 1), (1, 0), (-2, 1)], 1, [3, 0]),
    ]
    for p_band, q_band, x0, ys in cases:
        S = PolyMat(p_band, q_band)
        for y0 in ys:
            _assert_line_matches_reference(S, (p_band, q_band), x0, [y0])
        _assert_line_matches_reference(S, (p_band, q_band), x0, ys)
    # the first case is non-normal at y = 3 and at y = 0
    p, q = t**4 + 1, t**3 - 3
    assert sympy.degree(sympy.prem(p, q, t), t) == 1
    assert sympy.degree(sympy.prem(p, t**3, t), t) == 0


_SHRUNKEN_CAP = (
    "from implicurve import RatParam, method_kronecker, pipeline, structmat\n"
    "from implicurve.cli import parse_rational_function as parse\n"
    "pipeline._sylvester_cap = lambda P, bounds: 1\n"
    "P = RatParam(*parse('(2*t^2+2*t+1)/(t^3+5)'), *parse('(t^3-3*t^2+t-1)/(t^2-3)'))\n"
    "try:\n"
    "    method_kronecker(P)\n"
    "except structmat.InternalConsistencyError as exc:\n"
    "    print('raised:', exc)\n"
)


def test_kronecker_decode_checks_its_leftover(monkeypatch):
    # 5103 - y^3 at y = 4 does not fit 4 signed digits in base 4: the
    # leftover is not 0; 7 - y^3 at y = 16 fits, a negative top digit over
    # two zero ones; CUBIC's packed interpolant under a cap of 1 leaves one
    with pytest.raises(InternalConsistencyError, match="coefficient bound"):
        structmat._signed_digits(5103 - 4**3, 2, 4)
    assert structmat._signed_digits(7 - 16**3, 4, 4) == [7, 0, 0, -1]
    monkeypatch.setattr(pipeline, "_sylvester_cap", lambda P, bounds: 1)
    with pytest.raises(InternalConsistencyError, match="coefficient bound"):
        implicurve.method_kronecker(CUBIC)
    src = str(Path(implicurve.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _SHRUNKEN_CAP],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised: packed value exceeds its coefficient bound")


# --- exact integer Björck-Pereyra -----------------------------------------------


def test_primal_solve_stays_integer_on_integer_polynomial_values():
    rng = random.Random(42)
    for s in range(1, 9):
        coeffs = [rng.randint(-50, 50) for _ in range(s)]
        nodes = rng.sample(range(-10, 11), s)
        values = [sum(c * t**k for k, c in enumerate(coeffs)) for t in nodes]
        ci, cf = OpCounter(), OpCounter()
        got = vandermonde_solve_primal(nodes, values, ci)
        ref = vandermonde_solve_primal(
            [Fraction(t) for t in nodes], [Fraction(v) for v in values], cf
        )
        assert got == ref == coeffs
        assert all(type(v) is int for v in got) and all(type(v) is Fraction for v in ref)
        assert (ci.adds, ci.muls, ci.divs) == (cf.adds, cf.muls, cf.divs)
        assert ci.muldivs == s * (s - 1)


def test_primal_solve_on_integer_data_of_no_integer_polynomial():
    cases = [
        ([0, 1, 2], [0, 1, 0]),
        ([0, 1, 2], [0, 0, 1]),  # t(t-1)/2
        ([0, 2], [0, 1]),
        ([-1, 3, 4], [5, -2, 7]),
        ([-3, -1, 2, 5], [1, 0, 0, 2]),
    ]
    for nodes, values in cases:
        got = vandermonde_solve_primal(nodes, values, OpCounter())
        assert matvec(vandermonde_rows(nodes), got) == values
        ref = vandermonde_solve_primal([Fraction(t) for t in nodes], values, OpCounter())
        assert got == ref
    half = Fraction(1, 2)
    assert vandermonde_solve_primal([0, 1, 2], [0, 0, 1], OpCounter()) == [0, -half, half]


def _bjorck_pereyra_reference(nodes, rhs, dual):
    """The primal or transposed Björck-Pereyra loop in ``Fraction``s, with
    one ``OpCounter.count`` per scalar operation."""
    counter = OpCounter()
    x = [Fraction(t) for t in nodes]
    a = [Fraction(v) for v in rhs]
    s = len(x)
    if dual:
        for k in range(s - 1):
            for i in range(s - 1, k, -1):
                a[i] -= x[k] * a[i - 1]
                counter.count(adds=1, muls=1)
        for k in range(s - 2, -1, -1):
            for i in range(k + 1, s):
                a[i] /= x[i] - x[i - k - 1]
                counter.count(adds=1, divs=1)
            for i in range(k, s - 1):
                a[i] -= a[i + 1]
                counter.count(adds=1)
    else:
        for k in range(s - 1):
            for i in range(s - 1, k, -1):
                a[i] = (a[i] - a[i - 1]) / (x[i] - x[i - k - 1])
                counter.count(adds=2, divs=1)
        for k in range(s - 2, -1, -1):
            for i in range(k, s - 1):
                a[i] -= a[i + 1] * x[k]
                counter.count(adds=1, muls=1)
    return a, counter


def _ops(c):
    return c.adds, c.muls, c.divs


def test_bjorck_pereyra_counts_equal_the_per_op_loops():
    rng = random.Random(44)
    pool = sorted({Fraction(n, d) for n in range(-12, 13) for d in (1, 2, 3)})
    for s in range(1, 13):
        for nodes in (rng.sample(range(-15, 16), s), rng.sample(pool, s)):
            rhs = [rand_frac(rng) for _ in range(s)]
            for solve, dual in ((vandermonde_solve_primal, False), (vandermonde_solve_dual, True)):
                c = OpCounter()
                got = solve(nodes, rhs, c)
                ref, ref_c = _bjorck_pereyra_reference(nodes, rhs, dual)
                assert got == ref
                assert _ops(c) == _ops(ref_c)
                assert c.muldivs == s * (s - 1)


def _dual_system(P, p1, p2):
    """The dual-Vandermonde nodes p1^i p2^j of ``P`` and its cleared
    Sylvester determinants at (p1^k, p2^k), as the pipeline builds them."""
    b = degree_bounds(P)
    nodes = [p1**i * p2**j for i in range(b.m + 1) for j in range(b.n + 1)]
    S = build_parametric_sylvester(P)
    data = [sylvester_line_dets(S, p1**k, [p2**k], OpCounter())[0] for k in range(b.N)]
    return nodes, data


def test_dual_solve_stays_integer_on_the_moments_of_integer_vectors():
    rng = random.Random(45)
    curves = [HYPERBOLA, CUBIC]
    curves += [rand_ratparam(rng, d, exact=True, rational=r) for d in range(1, 6) for r in (False, True)]
    for P in curves:
        for p1, p2 in ((2, 3), (5, 7)):
            nodes, data = _dual_system(P, p1, p2)
            scale = Fraction(rng.randint(1, 9), rng.randint(2, 9))
            for rhs in (data, [scale * v for v in data]):
                c = OpCounter()
                got = vandermonde_solve_dual(nodes, rhs, c)
                ref, ref_c = _bjorck_pereyra_reference(nodes, rhs, dual=True)
                assert got == ref
                assert _ops(c) == _ops(ref_c)
                if rhs is data:
                    assert all(type(v) is int for v in got)


def test_dual_solve_on_integer_moments_of_no_integer_vector():
    cases = [
        ([0, 2], [1, 1]),
        ([0, 1, 2], [0, 1, 0]),
        ([1, 3, 2, 6], [1, 0, 0, 0]),
        ([-3, -1, 2, 5], [1, 0, 0, 2]),
        ([1, 2, 3, 4, 6, 9], [1, 2, 3, 4, 5, 6]),
    ]
    for nodes, b in cases:
        got = vandermonde_solve_dual(nodes, b, OpCounter())
        assert matvec(transpose(vandermonde_rows(nodes)), got) == b
        assert got == _bjorck_pereyra_reference(nodes, b, dual=True)[0]
        assert any(type(v) is Fraction for v in got), nodes
    half = Fraction(1, 2)
    assert vandermonde_solve_dual([0, 2], [1, 1], OpCounter()) == [half, half]


def test_kron_solve_stays_integer_on_grid_data():
    ci, cf = OpCounter(), OpCounter()
    got = kron_solve(range(4), range(4), CUBIC_GRID_DATA, ci)
    grid = [Fraction(i) for i in range(4)]
    ref = kron_solve(grid, grid, [Fraction(v) for v in CUBIC_GRID_DATA], cf)
    assert got == ref == list(CUBIC_F_RAW.flat())
    assert all(type(v) is int for v in got)
    assert ci.muldivs == cf.muldivs == 16 * (3 + 3)
