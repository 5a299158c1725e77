"""Independent proof that an answer is the implicit equation of its curve.

Nothing here calls the program.  For a curve with tracing index r whose
implicit equation has bidegree (m/r, n/r) an answer F is accepted only if

* F is canonical: integer coefficients, content 1, first nonzero
  coefficient (x^i y^j, i-major) positive, no zero padding;
* F has exactly that bidegree;
* F vanishes along the curve.  With x = u1/v1 and y = u2/v2 cleared to
  integer coefficients, N(t) = sum F_ij u1^i v1^(m'-i) u2^j v2^(n'-j) has
  degree at most D = m' deg x + n' deg y, so N vanishing at the D + 1
  integers 0..D proves N = 0, and hence F(x(t), y(t)) = 0.

Any polynomial that vanishes along the curve is a multiple of its
irreducible equation, so a canonical one of that bidegree is the equation.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from corpus import Coeffs, Curve

Grid = Sequence[Sequence[Fraction]]


def _cleared(num: Coeffs, den: Coeffs) -> tuple[list[int], list[int]]:
    """The same fraction num/den with integer coefficients."""
    scale = lcm(*(c.denominator for c in num + den))
    return [int(c * scale) for c in num], [int(c * scale) for c in den]


def _horner(p: Sequence[int], t: int) -> int:
    acc = 0
    for c in reversed(p):
        acc = acc * t + c
    return acc


def vanishes(F: Grid, curve: Curve) -> bool:
    """Exact proof that F(x(t), y(t)) = 0 for all t, by D + 1 evaluations."""
    u1, v1 = _cleared(curve.u1, curve.v1)
    u2, v2 = _cleared(curve.u2, curve.v2)
    scale = lcm(*(Fraction(c).denominator for row in F for c in row))
    F = [[int(c * scale) for c in row] for row in F]
    m, n = len(F) - 1, len(F[0]) - 1
    D = m * (max(len(u1), len(v1)) - 1) + n * (max(len(u2), len(v2)) - 1)
    for t in range(D + 1):
        a, b, c, e = (_horner(p, t) for p in (u1, v1, u2, v2))
        xs = [a**i * b ** (m - i) for i in range(m + 1)]
        ys = [c**j * e ** (n - j) for j in range(n + 1)]
        if sum(F[i][j] * xs[i] * ys[j] for i in range(m + 1) for j in range(n + 1) if F[i][j]):
            return False
    return True


def is_canonical(F: Grid) -> bool:
    if not F or not F[0] or any(len(row) != len(F[0]) for row in F):
        return False
    flat = [c for row in F for c in row]
    if any(Fraction(c).denominator != 1 for c in flat):
        return False
    nonzero = [c for c in flat if c]
    return (
        bool(nonzero)
        and gcd(*(int(c) for c in nonzero)) == 1
        and nonzero[0] > 0
        and any(F[-1])
        and any(row[-1] for row in F)
    )


def is_implicit_equation(F: Grid, curve: Curve) -> bool:
    """True when F is the canonical implicit equation of ``curve``."""
    return (
        curve.bidegree is not None
        and is_canonical(F)
        and (len(F) - 1, len(F[0]) - 1) == curve.bidegree
        and vanishes(F, curve)
    )
