"""Shared fixtures: reference curves, brute-force oracles, random generators."""

from __future__ import annotations

import math
import random
from fractions import Fraction

from implicurve import BiPoly, RatParam, UniPoly, degree_bounds


def frac(a, b=1):
    return Fraction(a, b)


# x = (1+t)/(2+t), y = (3+t)/(4+t): a hyperbola with implicit equation
# 2 - 3y - x + 2xy = 0.
HYPERBOLA = RatParam(
    UniPoly([1, 1]), UniPoly([2, 1]), UniPoly([3, 1]), UniPoly([4, 1])
)
HYPERBOLA_F = BiPoly([[2, -3], [-1, 2]])

# x = (2t^2+2t+1)/(t^3+5), y = (t^3-3t^2+t-1)/(t^2-3): a dense degree-(3,3)
# curve whose implicit polynomial below was cross-checked three independent
# ways (curve-point nullspace, prime-power determinant data, grid data).
CUBIC = RatParam(
    UniPoly([1, 2, 2]),
    UniPoly([5, 0, 0, 1]),
    UniPoly([-1, 1, -3, 1]),
    UniPoly([-3, 0, 1]),
)
CUBIC_F_RAW = BiPoly(
    [
        [-53, 42, -74, 0],
        [172, 707, 121, 37],
        [-652, -1156, -490, -34],
        [626, 396, 432, -2],
    ]
)

# Sylvester determinant data of CUBIC on the grid {0..3} x {0..3}, i-major.
CUBIC_GRID_DATA = [
    -53, -85, -265, -593,
    93, 72, 35, -12,
    2691, 4277, 8723, 15561,
    11497, 21242, 44579, 80014,
]


def cofactor_det(rows) -> Fraction:
    """Brute-force determinant by first-row cofactor expansion."""
    n = len(rows)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j, head in enumerate(rows[0]):
        if head == 0:
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in rows[1:]]
        total += (-1) ** j * head * cofactor_det(minor)
    return total


def sylvester_rows(p, q):
    """The Sylvester matrix of the coefficient lists ``p`` and ``q``, both
    in descending t-degree: len(q) - 1 shifted rows of p, then len(p) - 1
    of q, zero padded."""
    n = len(p) + len(q) - 2
    rows = [[0] * r + p + [0] * (n - r - len(p)) for r in range(len(q) - 1)]
    rows += [[0] * r + q + [0] * (n - r - len(q)) for r in range(len(p) - 1)]
    return rows


def vandermonde_rows(nodes):
    """V[i][k] = nodes[i]**k."""
    s = len(nodes)
    return [[Fraction(t) ** k for k in range(s)] for t in nodes]


def transpose(rows):
    return [list(col) for col in zip(*rows)]


def kron(a_rows, b_rows):
    out = []
    for arow in a_rows:
        for brow in b_rows:
            out.append([av * bv for av in arow for bv in brow])
    return out


def matvec(rows, vec):
    return [sum((r * v for r, v in zip(row, vec)), Fraction(0)) for row in rows]


class ListEchelon:
    """Oracle for ``ModEchelon``: the same row echelon form mod ``p``, grown a
    row at a time, with each row a list of residues and each reduction a
    list comprehension over the columns right of its pivot.  It counts the
    same operations: ``width - col`` adds and muls per reduction, ``width``
    muls and one div per stored row, and the tail lengths of the
    back-substitution."""

    def __init__(self, p, width, counter, rows=()):
        self.p, self.width, self.counter = p, width, counter
        self.rows = {}
        for row in rows:
            self.add(row)

    @property
    def free(self):
        return tuple(j for j in range(self.width) if j not in self.rows)

    def add(self, row):
        p, w = self.p, self.width
        r = [x % p for x in row]
        ops = 0
        for col in sorted(self.rows):
            f = r[col] % p
            if f:
                r[col:] = [x - f * y for x, y in zip(r[col:], self.rows[col][col:])]
                ops += w - col
        self.counter.count(adds=ops, muls=ops)
        r = [x % p for x in r]
        lead = next((j for j, x in enumerate(r) if x), None)
        if lead is not None:
            inv = pow(r[lead], -1, p)
            self.rows[lead] = [x * inv % p for x in r]
            self.counter.count(muls=w, divs=1)

    def null_vectors(self):
        basis = []
        for f in self.free:
            v = [0] * self.width
            v[f] = 1
            for col in sorted(self.rows, reverse=True):
                tail = self.rows[col][col + 1 :]
                v[col] = -sum(a * b for a, b in zip(tail, v[col + 1 :])) % self.p
                self.counter.count(adds=len(tail), muls=len(tail))
            basis.append(v)
        return basis


def unpack_slots(packed, slot, count):
    """The ``count`` slots of ``slot`` bits of a packed row, lowest first;
    nothing may be left above them."""
    assert 0 <= packed < 1 << slot * count
    mask = (1 << slot) - 1
    return [packed >> j * slot & mask for j in range(count)]


def rational_reconstruction(u, modulus):
    """Oracle for the reconstruction of one residue: the unique r/s = u mod
    ``modulus`` with |r|, s <= sqrt(modulus/2) and gcd(r, s) = 1, as a
    ``Fraction``, or None (Wang's half-extended Euclid)."""
    bound = math.isqrt(modulus // 2)
    r0, r1, s0, s1 = modulus, u % modulus, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if abs(s1) > bound or math.gcd(r1, s1) != 1:
        return None
    return Fraction(r1, s1)


def reconstructed_vector(vec, modulus):
    """Oracle for the reconstruction of a null vector: each entry rebuilt on
    its own by :func:`rational_reconstruction`, or None when one has none."""
    out = [rational_reconstruction(u, modulus) for u in vec]
    return None if None in out else out


def scaled(p, factor):
    """``p``, a ``UniPoly`` or a ``BiPoly``, with every coefficient times
    ``factor``."""
    if isinstance(p, BiPoly):
        return BiPoly([[c * factor for c in row] for row in p.coeffs])
    return UniPoly(c * factor for c in p.coeffs)


def poly_mul(*factors: UniPoly) -> UniPoly:
    """The product of the ``UniPoly`` factors, by schoolbook convolution."""
    out = [1]
    for f in factors:
        prod = [0] * (len(out) + len(f.coeffs) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f.coeffs):
                prod[i + j] += a * b
        out = prod
    return UniPoly(out)


def poly_divmod(p: UniPoly, d: UniPoly) -> tuple[UniPoly, UniPoly]:
    """Oracle: quotient and remainder of ``p`` by a nonzero ``d`` over
    ``Fraction``s, by long division."""
    rem = [Fraction(c) for c in p.coeffs]
    top = len(d.coeffs) - 1
    quo = [Fraction(0)] * max(len(rem) - top, 0)
    for k in range(len(quo) - 1, -1, -1):
        quo[k] = rem[k + top] / d.coeffs[-1]
        for j, c in enumerate(d.coeffs):
            rem[k + j] -= quo[k] * c
    return UniPoly(quo), UniPoly(rem[:top])


def euclid_gcd(p: UniPoly, q: UniPoly) -> UniPoly:
    """Oracle: the monic gcd by the Euclidean algorithm over ``Fraction``s;
    two zero polynomials have none and raise ``ValueError``."""
    if p.is_zero and q.is_zero:
        raise ValueError("gcd of two zero polynomials is undefined")
    while not q.is_zero:
        p, q = q, poly_divmod(p, q)[1]
    return scaled(p, Fraction(1) / p.coeffs[-1])


def euclid_lowest_terms(u: UniPoly, v: UniPoly):
    """Oracle: ``u/v`` divided by the monic :func:`euclid_gcd`, and whether
    that gcd was nonconstant."""
    g = euclid_gcd(u, v)
    if len(g.coeffs) > 1:
        return poly_divmod(u, g)[0], poly_divmod(v, g)[0], True
    return u, v, False


def rand_frac(rng: random.Random, lo=-9, hi=9, max_den=5) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def rand_unipoly(
    rng: random.Random, degree: int, lo=-9, hi=9, rational: bool = False
) -> UniPoly:
    """Random polynomial of exactly the given degree.

    Coefficients are integers, or with ``rational=True`` integers over
    random denominators 1..5.
    """
    coeffs = [rng.randint(lo, hi) for _ in range(degree)]
    coeffs.append(rng.choice([v for v in range(lo, hi + 1) if v]))
    if rational:
        coeffs = [Fraction(c, rng.randint(1, 5)) for c in coeffs]
    return UniPoly(coeffs)


def rand_ratparam(
    rng: random.Random, max_deg: int, exact: bool = False, rational: bool = False
) -> RatParam:
    """Random parametrization with both degree bounds in 1..max_deg.

    With ``exact=True`` both bounds equal max_deg (denominators carry the
    top degree); ``rational`` is passed on to ``rand_unipoly``.  Redraws
    until the reduced form still meets the degree requirement.
    """
    while True:
        d1 = max_deg if exact else rng.randint(1, max_deg)
        d2 = max_deg if exact else rng.randint(1, max_deg)
        try:
            P = RatParam(
                rand_unipoly(rng, rng.randint(0, d1), rational=rational),
                rand_unipoly(rng, d1, rational=rational),
                rand_unipoly(rng, rng.randint(0, d2), rational=rational),
                rand_unipoly(rng, d2, rational=rational),
            )
            b = degree_bounds(P)
        except ValueError:  # a zero denominator or a constant component
            continue
        if exact:
            if b.m == max_deg and b.n == max_deg:
                return P
        elif b.m >= 1 and b.n >= 1:
            return P


def fit_loglog_slope(xs, ys) -> float:
    lx = [math.log(v) for v in xs]
    ly = [math.log(v) for v in ys]
    k = len(xs)
    mx = sum(lx) / k
    my = sum(ly) / k
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum(
        (a - mx) ** 2 for a in lx
    )
