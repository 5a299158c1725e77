"""Exact scalars and dense polynomial arithmetic.

Every value in this package is exact: a coefficient is a plain ``int``
where it is an integer and a :class:`fractions.Fraction` (alias ``Rat``)
only where it is not, as in a ``p/q`` an input carries; a float, bool or
any other type is refused.  Each parametrization is cleared to integers
once, on construction, and the methods run on those ints.  This module
provides dense univariate polynomials (:class:`UniPoly`, the
components of a curve parametrization), bivariate polynomials on a
rectangular coefficient grid (:class:`BiPoly`, candidate implicit
equations), rational parametrizations of plane curves (:class:`RatParam`)
with the degree rule every method applies (:func:`component_degrees`),
the text form of both polynomial kinds (``format_*``), the 61-bit primes
of the modular computations (:func:`modular_primes`), the integer
:func:`resultant` behind lowest terms and the Sylvester determinants, the
:class:`OpCounter` that tallies such work, :func:`substitute_check`,
the predicate that decides whether a bivariate polynomial vanishes
identically along a parametrization, and :func:`refutes`, its cheap
one-point disproof.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from itertools import count
from math import gcd as _int_gcd, lcm as _int_lcm
from operator import mul
from typing import Iterable, Iterator, Sequence

Rat = Fraction


def _coefficient(value: Rat | int) -> Rat | int:
    """``value`` if it is an ``int`` or a ``Fraction``, else ``ValueError``."""
    if type(value) is int or type(value) is Fraction:
        return value
    raise ValueError(f"a coefficient must be an int or a Fraction, not {type(value).__name__}")


class InternalConsistencyError(RuntimeError):
    """Raised when a self-check that can only fail on an implementation bug
    fails: a nonexact division in the subresultant PRS or by its gcd, a packed
    determinant beyond its coefficient bound, a modular solve with no proven
    candidate past its Sylvester cap (an improper curve can reach it too),
    or a computed F that does not vanish along the input parametrization."""


class OpCounter:
    """Tally of exact rational operations plus a bit-size high-water mark.

    ``observe`` never counts as an operation: it only records how many bits
    the numerator/denominator of a value needs, so callers can report the
    size of the data their algorithm actually touched.
    """

    __slots__ = ("adds", "muls", "divs", "max_bits")

    def __init__(self, adds: int = 0, muls: int = 0, divs: int = 0, max_bits: int = 0) -> None:
        self.adds = adds
        self.muls = muls
        self.divs = divs
        self.max_bits = max_bits

    def count(self, adds: int = 0, muls: int = 0, divs: int = 0) -> None:
        self.adds += adds
        self.muls += muls
        self.divs += divs

    def observe(self, value: Rat | int) -> None:
        bits = max(value.numerator.bit_length(), value.denominator.bit_length())
        if bits > self.max_bits:
            self.max_bits = bits

    def observe_many(self, values) -> None:
        for v in values:
            self.observe(v)

    def merged(self, other: OpCounter) -> OpCounter:
        """Combined counter: counts add up, bit marks take the max."""
        return OpCounter(
            self.adds + other.adds,
            self.muls + other.muls,
            self.divs + other.divs,
            max(self.max_bits, other.max_bits),
        )

    @property
    def muldivs(self) -> int:
        return self.muls + self.divs

    def __repr__(self) -> str:
        return (
            f"OpCounter(adds={self.adds}, muls={self.muls}, "
            f"divs={self.divs}, max_bits={self.max_bits})"
        )


class UniPoly:
    """Dense univariate polynomial with ascending exact coefficients.

    Each coefficient is kept as given, an ``int`` or a ``Fraction``; any
    other type raises ``ValueError``.  Trailing zero coefficients are
    stripped on construction, so ``coeffs`` always ends with the (nonzero)
    leading coefficient and the zero polynomial has an empty coefficient
    tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Rat | int] = ()) -> None:
        cs = [_coefficient(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Rat | int, ...] = tuple(cs)

    @classmethod
    def one(cls) -> UniPoly:
        return cls((1,))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other: object) -> bool:
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"UniPoly<{format_unipoly(self)}>"


def resultant(a: Sequence[int], b: Sequence[int], counter: OpCounter) -> int:
    """Res(a, b), the determinant of the Sylvester matrix of two integer
    polynomials given by their coefficients in descending degree with
    nonzero leads; a zero polynomial (no coefficients) gives 0.  See
    :func:`_prs`."""
    return _prs(a, b, counter)[0]


def _prs(a: Sequence[int], b: Sequence[int], counter: OpCounter) -> tuple[int, Sequence[int]]:
    """Res(a, b) as :func:`resultant` takes it, and the last nonzero
    remainder of the sequence, which is gcd(a, b) up to a constant factor
    (Brown & Traub, *J. ACM* 1971); a and b must not both be zero.

    Collins's subresultant PRS (Collins, *J. ACM* 1967; Brown & Traub;
    Cohen, *A Course in Computational Algebraic Number Theory*, Alg.
    3.3.7): each step replaces (a, b) by (b, r / (g * h**delta)), r =
    lc(b)**(delta + 1) * a mod b the pseudo-remainder and delta = deg a -
    deg b; then g = lc(b) and h = g**delta / h**(delta - 1), both 1 at
    first.  These divisions are exact, their results being Sylvester
    minors, and checked: a remainder raises ``InternalConsistencyError``.
    A step of two odd degrees flips the sign, as Res(a, b) = (-1)**(deg a
    * deg b) * Res(b, a).  A degree drop above 1 (a non-normal sequence)
    needs no other rule, and a zero remainder means a common root.
    """
    sign = 1
    if len(a) < len(b):
        a, b = b, a
        sign = -1 if (len(a) - 1) * (len(b) - 1) % 2 else 1
    g = h = 1
    adds = muls = divs = 0
    while len(b) > 1:
        m, n = len(a) - 1, len(b) - 1
        delta = m - n
        if m * n % 2:
            sign = -sign
        lead, tail = b[0], b[1:]
        r = a
        for _ in range(delta + 1):
            c = r[0]
            r = [lead * x - c * y for x, y in zip(r[1:], tail)] + [lead * x for x in r[n + 1 :]]
        while r and not r[0]:
            del r[0]
        den = g * h**delta
        a, b = b, [_exact(x, den) for x in r]
        g = a[0]
        if delta:
            h = _exact(g**delta, h ** (delta - 1))
        adds += (delta + 1) * n
        muls += (delta + 1) * (m + n) - delta * (delta + 1) // 2 + 2
        divs += len(b) + 1
    counter.count(adds, muls, divs)
    if not b:
        return 0, a
    n = len(a) - 1
    return (sign * _exact(b[0] ** n, h ** (n - 1)) if n else sign), b


def _exact(num: int, den: int) -> int:
    """num / den, which must be exact: a remainder raises
    ``InternalConsistencyError``."""
    quo, rem = divmod(num, den)
    if rem:
        raise InternalConsistencyError("subresultant PRS hit a nonexact division")
    return quo


def _divide(num: Sequence[int], den: Sequence[int]) -> list[int]:
    """num / den for integer polynomials in ascending degree, den dividing
    num: each quotient coefficient comes from :func:`_exact`, and a nonzero
    remainder raises ``InternalConsistencyError`` too."""
    rem, top = list(num), len(den) - 1
    quo = [0] * max(len(num) - top, 0)
    for k in reversed(range(len(quo))):
        quo[k] = _exact(rem[k + top], den[top])
        for j in range(top):
            rem[k + j] -= quo[k] * den[j]
    if any(rem[:top]):
        raise InternalConsistencyError("division by the gcd left a remainder")
    return quo


class BiPoly:
    """Bivariate polynomial on an (m+1) x (n+1) coefficient grid.

    ``coeffs[i][j]`` is the coefficient of x**i * y**j, kept as given, an
    ``int`` or a ``Fraction``; any other type raises ``ValueError``.  ``m``
    and ``n`` are x- and y-degree *bounds* (the grid may carry zero padding,
    so the tight degrees ``deg_x``/``deg_y`` can be smaller, and are -1 for
    the zero polynomial).  Equality is mathematical: padding does not
    distinguish two equal polynomials.
    """

    __slots__ = ("m", "n", "coeffs")

    def __init__(self, rows: Sequence[Sequence[Rat | int]]) -> None:
        if not rows or not rows[0]:
            raise ValueError("coefficient grid must be at least 1 x 1")
        width = len(rows[0])
        grid = []
        for row in rows:
            if len(row) != width:
                raise ValueError("coefficient grid must be rectangular")
            grid.append(tuple(map(_coefficient, row)))
        self.coeffs: tuple[tuple[Rat | int, ...], ...] = tuple(grid)
        self.m: int = len(grid) - 1
        self.n: int = width - 1

    @classmethod
    def from_flat(cls, flat: Sequence[Rat | int], m: int, n: int) -> BiPoly:
        """Reshape an i-major coefficient vector of length (m+1)(n+1)."""
        if len(flat) != (m + 1) * (n + 1):
            raise ValueError("coefficient vector length does not match grid shape")
        return cls([flat[i * (n + 1) : (i + 1) * (n + 1)] for i in range(m + 1)])

    def flat(self) -> tuple[Rat, ...]:
        """Coefficients in i-major, j-minor order (the interpolation basis order)."""
        return tuple(c for row in self.coeffs for c in row)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for row in self.coeffs for c in row)

    @property
    def deg_x(self) -> int:
        for i in range(self.m, -1, -1):
            if any(self.coeffs[i]):
                return i
        return -1

    @property
    def deg_y(self) -> int:
        for j in range(self.n, -1, -1):
            if any(self.coeffs[i][j] for i in range(self.m + 1)):
                return j
        return -1

    def _trimmed_key(self) -> tuple[tuple[Rat, ...], ...]:
        dx, dy = self.deg_x, self.deg_y
        return tuple(tuple(row[: dy + 1]) for row in self.coeffs[: dx + 1])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BiPoly) and self._trimmed_key() == other._trimmed_key()

    def __repr__(self) -> str:
        return f"BiPoly<m={self.m}, n={self.n}, coeffs={self.coeffs!r}>"


def bipoly_canonicalize(F: BiPoly) -> BiPoly:
    """Canonical representative of the projective class of ``F``.

    Trailing zero rows/columns are trimmed, the coefficients are rescaled to
    ints with content 1, and the sign is fixed so the first nonzero
    coefficient in i-major, j-minor order is positive.  The zero polynomial
    has no canonical form and raises ``ValueError``.
    """
    if F.is_zero:
        raise ValueError("the zero polynomial has no canonical form")
    dx, dy = int(F.deg_x), int(F.deg_y)
    ints = _cleared([row[: dy + 1] for row in F.coeffs[: dx + 1]])
    content = _int_gcd(*(v for row in ints for v in row))
    first = next(v for row in ints for v in row if v)
    if first < 0:
        content = -content
    return BiPoly([[v // content for v in row] for row in ints])


def coeff_text(c: Rat | int) -> str:
    """``str(c)`` at any size.  ``str`` refuses an int of more than CPython's
    4300 digits (``sys.get_int_max_str_digits``); ``Decimal`` has no cap."""
    if type(c) is int:
        return str(Decimal(c))
    if c.denominator == 1:
        return coeff_text(c.numerator)
    return f"{coeff_text(c.numerator)}/{coeff_text(c.denominator)}"


def _format_terms(terms: Iterable[tuple[Rat, str]]) -> str:
    """Join (coefficient, monomial) pairs as a signed sum; zeros are skipped."""
    pieces = []
    for c, mon in terms:
        if c == 0:
            continue
        mag = coeff_text(abs(c))
        body = mag if not mon else (mon if mag == "1" else f"{mag}*{mon}")
        if not pieces:
            pieces.append(("-" if c < 0 else "") + body)
        else:
            pieces.append((" - " if c < 0 else " + ") + body)
    return "".join(pieces) or "0"


def _power(var: str, k: int) -> str:
    return "" if k == 0 else (var if k == 1 else f"{var}^{k}")


def format_unipoly(p: UniPoly, var: str = "t") -> str:
    return _format_terms((p.coeffs[k], _power(var, k)) for k in range(len(p.coeffs) - 1, -1, -1))


def format_ratfun(num: UniPoly, den: UniPoly) -> str:
    if den == UniPoly.one():
        return format_unipoly(num)
    return f"({format_unipoly(num)})/({format_unipoly(den)})"


def format_bipoly(F: BiPoly) -> str:
    """Render in i-major, j-minor term order (the interpolation basis order)."""
    return _format_terms(
        (F.coeffs[i][j], "*".join(filter(None, (_power("x", i), _power("y", j)))))
        for i in range(F.m + 1)
        for j in range(F.n + 1)
    )


class RatParam:
    """Rational parametrization (u1/v1, u2/v2) of a plane curve.

    Denominators must be nonzero polynomials.  If a component pair shares a
    nonconstant factor it is cancelled on construction and ``was_reduced``
    records that the input was not in lowest terms.  ``int_pairs`` holds
    the pairs (u1, v1) and (u2, v2), each scaled by one factor to ascending
    int coefficients: the methods and the vanishing proof read these.
    """

    __slots__ = ("u1", "v1", "u2", "v2", "int_pairs", "was_reduced")

    def __init__(self, u1: UniPoly, v1: UniPoly, u2: UniPoly, v2: UniPoly) -> None:
        self.u1, self.v1, reduced1, ints1 = lowest_terms(u1, v1)
        self.u2, self.v2, reduced2, ints2 = lowest_terms(u2, v2)
        self.int_pairs = (ints1, ints2)
        self.was_reduced = reduced1 or reduced2

    def __repr__(self) -> str:
        return f"RatParam<x={self.u1!r}/{self.v1!r}, y={self.u2!r}/{self.v2!r}>"


class DegenerateParametrizationError(ValueError):
    """Raised when a parametrization has a constant component, so no
    Sylvester matrix (and no implicit curve equation) exists."""


def component_degrees(P: RatParam) -> tuple[int, int]:
    """Degrees (d1, d2) of the x- and y-component of ``P``, each the larger
    of its numerator's and denominator's degree.  A constant component
    traces no curve and raises ``DegenerateParametrizationError``."""
    d1 = max(len(P.u1.coeffs), len(P.v1.coeffs)) - 1
    d2 = max(len(P.u2.coeffs), len(P.v2.coeffs)) - 1
    if d1 < 1 or d2 < 1:
        raise DegenerateParametrizationError(
            "both components must depend on the parameter (constant component)"
        )
    return d1, d2


#: 2**61 - 1, the first of :func:`modular_primes`.
COPRIME_PRIME = (1 << 61) - 1


def lowest_terms(u: UniPoly, v: UniPoly) -> tuple[UniPoly, UniPoly, bool, list[list[int]]]:
    """``u/v`` with the gcd cancelled, whether it was nonconstant, and that
    pair cleared to ints: scaled by the lcm of its denominators, ascending.

    The pair, cleared to integers, goes through the subresultant PRS of
    :func:`_prs`; when its last nonzero remainder is not a constant, both
    are divided exactly by that remainder's primitive part, and then scaled
    by its lead over the clearing factor: that is ``u/v`` divided by the
    monic gcd.  A zero ``v`` raises ``ValueError``.
    """
    if v.is_zero:
        raise ValueError("parametrization denominators must be nonzero")
    ints = _cleared((u.coeffs, v.coeffs))
    g = _prs(ints[0][::-1], ints[1][::-1], OpCounter())[1]
    if len(g) < 2:
        return u, v, False, ints
    content = _int_gcd(*g)
    g = [c // content for c in reversed(g)]
    quotients = [_divide(c, g) for c in ints]
    # u / (g / g[-1]) = quotient * g[-1] / scale: cleared by k, over scale // k
    scale = _int_lcm(*(c.denominator for c in (*u.coeffs, *v.coeffs)))
    k = _int_gcd(scale, g[-1] * _int_gcd(*quotients[0], *quotients[1]))
    ints = [[c * g[-1] // k for c in q] for q in quotients]
    u, v = (UniPoly(Fraction(c, scale // k) if scale > k else c for c in q) for q in ints)
    return u, v, True, ints


_PRIMES = [COPRIME_PRIME]


def modular_primes() -> Iterator[int]:
    """The primes below 2**61 in descending order, from ``COPRIME_PRIME``.
    Each is found once per process and cached; the sequence is fixed, so
    the shared cache changes no result."""
    for k in count():
        if k == len(_PRIMES):
            q = _PRIMES[-1] - 2
            while not _miller_rabin(q):
                q -= 2
            _PRIMES.append(q)
        yield _PRIMES[k]


#: The primes up to 37: the bases of ``_miller_rabin``.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _miller_rabin(q: int) -> bool:
    """Miller-Rabin to the bases ``_MR_BASES``, which decides primality
    exactly for every odd q with 37 < q < 3.1 * 10**23."""
    s = ((q - 1) & (1 - q)).bit_length() - 1  # q - 1 = d * 2**s, d odd
    d = (q - 1) >> s
    return all(
        pow(a, d, q) == 1 or any(pow(a, d << r, q) == q - 1 for r in range(s))
        for a in _MR_BASES
    )


def substitute_check(F: BiPoly, P: RatParam) -> bool:
    """Decide whether F(x(t), y(t)) vanishes identically.

    With grid bounds (m, n) and the component pairs ``P.int_pairs``, the
    numerator N(t) = sum of ``F[i][j] * u1^i v1^(m-i) * u2^j v2^(n-j)``
    has, 1-norms being submultiplicative, coefficients at most B = sum of
    ``|F[i][j]| * |u1|_1^i |v1|_1^(m-i) * |u2|_1^j |v2|_1^(n-j)``.  N is
    evaluated once, at T = 2**bitlen(B) >= B + 1 (Kronecker substitution):
    were N nonzero, T would divide its lowest nonzero coefficient c, yet
    0 < |c| <= B < T.  This is a deterministic proof in plain ints, never
    a sampling test.  A zero candidate ``F`` is rejected with
    ``ValueError`` (it vanishes everywhere and always indicates an upstream
    bug, never a computed implicit equation).
    """
    if F.is_zero:
        raise ValueError("substitute_check requires a nonzero polynomial")
    grid = _cleared(F.coeffs)
    comps = [*P.int_pairs[0], *P.int_pairs[1]]
    bound = _numerator([list(map(abs, row)) for row in grid], [sum(map(abs, c)) for c in comps])
    return not _numerator(grid, [_horner(c, 1 << bound.bit_length()) for c in comps])


#: The prime modulus of :func:`refutes`: above every one of
#: :func:`modular_primes`, so that it divides no modulus of theirs.
REFUTE_PRIME = (1 << 62) - 57
#: The parameter value at which :func:`refutes` evaluates.
REFUTE_POINT = 1 << 31


def refutes(F: BiPoly, P: RatParam) -> bool:
    """Whether F(x(t), y(t)) is shown not to vanish by one evaluation: the
    numerator N(t) of :func:`substitute_check` at t0 = ``REFUTE_POINT``,
    taken mod the prime ``REFUTE_PRIME``.  A nonzero residue means N(t0) is
    not 0, so N is not the zero polynomial: a deterministic disproof.  A
    zero residue decides nothing, and False leaves the verdict to the
    proof.  Every factor is a residue mod q, so no product passes
    62 * (m + n + 1) bits, whatever the size of F's coefficients.
    """
    q = REFUTE_PRIME
    grid = [[v % q for v in row] for row in _cleared(F.coeffs)]
    point = [_horner(c, REFUTE_POINT) % q for c in (*P.int_pairs[0], *P.int_pairs[1])]
    return _numerator(grid, point) % q != 0


def _numerator(grid: Sequence[Sequence[int]], point: Sequence[int]) -> int:
    """sum of ``grid[i][j] * a^i b^(m-i) * c^j e^(n-j)`` on the (m+1) x (n+1)
    ``grid`` at the point (a, b, c, e)."""
    m, n = len(grid) - 1, len(grid[0]) - 1
    a, b, c, e = point
    ys = [c**j * e ** (n - j) for j in range(n + 1)]
    return sum(a**i * b ** (m - i) * sum(map(mul, row, ys)) for i, row in enumerate(grid))


def _cleared(rows: Sequence[Sequence[Rat | int]]) -> list[list[int]]:
    """The rows scaled by one common factor to integers."""
    scale = _int_lcm(*(c.denominator for row in rows for c in row))
    return [[c.numerator * (scale // c.denominator) for c in row] for row in rows]


def _horner(coeffs: Sequence[Rat | int], t: Rat | int) -> Rat | int:
    """Value at ``t`` of the polynomial with ascending ``coeffs``."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc
