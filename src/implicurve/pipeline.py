"""Implicitization pipelines: from a rational parametrization to F(x, y) = 0.

Given x(t) = u1/v1 and y(t) = u2/v2, the implicit polynomial F lives in the
bivariate space of x-degree at most m = max(deg u2, deg v2) and y-degree at
most n = max(deg u1, deg v1) — note the cross-over: the *y*-component
degrees bound the *x*-degree of F and vice versa.  All three pipelines
recover F by interpolation in that N = (m+1)(n+1)-dimensional space; they
differ only in where they put the interpolation nodes, and the node choice
dictates the structure (and cost) of the linear algebra:

``method_unstructured``
    Nodes are points on the curve itself, swept from t = 0, 1, 2, ...
    F is a nullspace vector of a dense N x N homogeneous system — no
    structure, cubic-cost elimination, run modulo 61-bit primes on rows
    rebuilt per prime from the points, each built packed as one product of
    two ints.  CRT and rational reconstruction, with one running common
    denominator per vector, rebuild F as ints, and the vanishing proof
    accepts it.

``method_dual_vandermonde``
    Nodes are geometric points (2^k, 3^k) (``DUAL_NODE_PRIMES``).  The
    right-hand side holds Sylvester determinants there and the matrix is a
    transposed Vandermonde in the composite nodes 2^i 3^j, solved by
    quadratic-cost Björck-Pereyra elimination.

``method_kronecker``
    Nodes are the integer grid {0..m} x {0..n}, again with determinant
    data.  The matrix is the Kronecker product of two small Vandermonde
    matrices and splits into (m+1) + (n+1) independent primal solves.

Each method is one call of ``_certified`` with its node scheme, which
yields batches of candidate vectors.  That one run counts a data stage and
a solve stage, and returns only an F that the exact vanishing proof of
``substitute_check`` accepts, or raises.  The determinant schemes share
their data stage, ``_from_determinants``, and differ in their solver and
grid lines (x0, ys): n+1 nodes on a Kronecker line, one on a dual line.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice
from math import gcd, isqrt
from typing import Callable, Iterator, Sequence

from .polycore import (
    BiPoly,
    DegenerateParametrizationError,
    Rat,
    RatParam,
    _horner,
    bipoly_canonicalize,
    component_degrees,
    modular_primes,
    substitute_check,
)
from .structmat import (
    InternalConsistencyError,
    ModEchelon,
    OpCounter,
    build_parametric_sylvester,
    kron_solve,
    sylvester_line_dets,
    vandermonde_solve_dual,
)

METHOD_UNSTRUCTURED = "unstructured"
METHOD_DUAL_VANDERMONDE = "dual-vandermonde"
METHOD_KRONECKER = "kronecker"
METHODS = (METHOD_UNSTRUCTURED, METHOD_DUAL_VANDERMONDE, METHOD_KRONECKER)

#: The dual-Vandermonde node primes: any two distinct primes give the same
#: canonical F, and the smallest two give the smallest data.
DUAL_NODE_PRIMES = (2, 3)


class DegenerateInputError(ValueError):
    """Raised when the interpolation problem stays underdetermined: two
    independent polynomials of the degree box are proven to vanish on the
    curve even after extra nodes (e.g. on a multiply-traced line)."""


@dataclass(frozen=True)
class DegreeBounds:
    """Interpolation space: deg_x <= m, deg_y <= n, dimension N = (m+1)(n+1)."""

    m: int
    n: int
    N: int


@dataclass(frozen=True)
class MethodConfig:
    """Pipeline selection: one of ``METHODS``, checked on construction."""

    method: str = METHOD_KRONECKER

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")


@dataclass
class ImplicitResult:
    """Canonical implicit polynomial plus provenance of the computation.

    ``data_counter`` covers building the linear system (for the determinant
    methods that is ``det_evals`` Sylvester determinants); ``solve_counter``
    covers the linear solve, summed over the ``primes`` of a modular solve.
    ``counter`` merges the two.  ``verified`` is the exact vanishing proof
    of F along the parametrization, always True: the one run all methods
    share builds a result only from a proven F, and raises otherwise.
    ``degree_tight`` records whether F attains both degree bounds.
    """

    F: BiPoly
    bounds: DegreeBounds
    data_counter: OpCounter
    solve_counter: OpCounter
    verified: bool
    det_evals: int = 0
    primes: int = 0

    @property
    def degree_tight(self) -> bool:
        return self.F.m == self.bounds.m and self.F.n == self.bounds.n

    @property
    def counter(self) -> OpCounter:
        return self.data_counter.merged(self.solve_counter)


def degree_bounds(P: RatParam) -> DegreeBounds:
    """Degree bounds of the implicit polynomial of ``P``.

    The x-degree bound comes from the y-component and the y-degree bound
    from the x-component.  A constant component traces no curve, so every
    method rejects it here: :func:`component_degrees` raises
    ``DegenerateParametrizationError``.
    """
    n, m = component_degrees(P)
    return DegreeBounds(m=m, n=n, N=(m + 1) * (n + 1))


def curve_points(P: RatParam) -> Iterator[tuple[int, int, int, int]]:
    """Distinct points P(t) = (a/b, c/e) for t = 0, 1, 2, ..., as reduced
    int 4-tuples (a, b, c, e) with b, e > 0, skipping parameter values
    where a denominator vanishes and points already produced.

    The sweep runs on ``P.int_pairs``.  A curve with both components
    constant is a single point, so the sweep raises
    ``DegenerateParametrizationError`` rather than search for a second.
    """
    (u1, v1), (u2, v2) = P.int_pairs
    if max(map(len, (u1, v1, u2, v2))) < 2:
        raise DegenerateParametrizationError("both components are constant: a single point")
    seen: set[tuple[int, int, int, int]] = set()
    for t in count():
        a, b, c, e = (_horner(p, t) for p in (u1, v1, u2, v2))
        if b and e:
            g = gcd(a, b) if b > 0 else -gcd(a, b)
            h = gcd(c, e) if e > 0 else -gcd(c, e)
            pt = (a // g, b // g, c // h, e // h)
            if pt not in seen:
                seen.add(pt)
                yield pt


def nodes_on_curve(P: RatParam, count: int) -> list[tuple[Rat, Rat]]:
    """First ``count`` distinct points of the sweep, as ``Fraction`` pairs."""
    if count < 1:
        raise ValueError("node count must be positive")
    return [(Fraction(a, b), Fraction(c, e)) for a, b, c, e in islice(curve_points(P), count)]


def method_unstructured(P: RatParam) -> ImplicitResult:
    """Implicitize by interpolating zero values at points on the curve.

    A c = 0 over the first N curve points normally has a one-dimensional
    nullspace, spanned by F.  Its rows, the monomials at the points, are
    built mod each prime, packed at the slot width of the elimination
    (:func:`_residue_row`), and eliminated so (``ModEchelon``); while the
    first prime leaves a nullity above 1, up to 2N more points extend it.
    CRT and rational reconstruction rebuild each null vector v as the ints
    S * v, S the lcm of its denominators (:func:`_scaled_reconstruction`):
    the candidates to prove.  As rank mod p <= rank over Q, a nullity of 1
    mod p means F spans the nullspace; two proven vectors raise
    ``DegenerateInputError``.  B = (|u1|_1 + |v1|_1)**m * (|u2|_1 +
    |v2|_1)**n on ``P.int_pairs``, the Sylvester rows' 1-norms' product,
    bounds sum |R_ij|, R = det S(x, y) (``structmat._line_bound``); as a
    proper curve has F = +-R/cont(R), past 2*B**2 with two primes or more
    the run raises ``InternalConsistencyError``.  B does not bound an
    improper curve's null vectors: one needing more primes raises it too.
    """
    return _certified(P, _curve_point_batches)


def _curve_point_batches(P: RatParam, bounds: DegreeBounds, data_c: OpCounter, solve_c: OpCounter):
    """Yield, at each prime of the best key (nullity, free columns), the
    null vectors that have a reconstruction, last when the nullity is 1."""
    m, n, N = bounds.m, bounds.n, bounds.N
    sweep = curve_points(P)
    points = [_counted_point(next(sweep), m, n, data_c) for _ in range(N)]
    (u1, v1), (u2, v2) = P.int_pairs
    B = sum(map(abs, u1 + v1)) ** m * sum(map(abs, u2 + v2)) ** n
    limit, best = max(2 * B * B, 1 << 61), None  # two primes or more: each is < 2**61
    for used, p in enumerate(modular_primes(), 1):
        ech = ModEchelon(p, N, solve_c)
        for pt in points:
            ech.add(_residue_row(pt, m, n, p, ech.slot))
        while used == 1 and len(ech.free) > 1 and len(points) < 3 * N:
            points.append(_counted_point(next(sweep), m, n, data_c))
            ech.add(_residue_row(points[-1], m, n, p, ech.slot))
        if not ech.free:  # rank mod p <= rank over Q < N, as F is a null vector
            raise InternalConsistencyError("interpolation system has full rank mod p")
        key = (-len(ech.free), ech.free)
        if best is None or key > best:  # an unlucky prime has more or earlier free columns
            best, modulus, acc = key, p, ech.null_vectors()
        elif key == best:
            acc = _crt(acc, modulus, ech.null_vectors(), p)
            modulus *= p
        if key == best:
            ints = (_scaled_reconstruction(vec, modulus) for vec in acc)
            yield ((v for v in ints if v is not None), len(ech.free) == 1, len(points),
                   {"primes": used})
        if modulus > limit:
            raise InternalConsistencyError("no proven candidate within the Hadamard bound")


def _counted_point(
    point: tuple[int, int, int, int], m: int, n: int, counter: OpCounter
) -> tuple[int, int, int, int]:
    """The reduced point (a, b, c, e), its collocation row counted as data:
    m + n muls for the powers, one per entry, and the widest entry
    max(|a|, |b|)**m * max(|c|, |e|)**n observed."""
    a, b, c, e = point
    counter.count(muls=m + n + (m + 1) * (n + 1))
    counter.observe(max(abs(a), abs(b)) ** m * max(abs(c), abs(e)) ** n)
    return point


def _residue_row(
    point: tuple[int, int, int, int], m: int, n: int, p: int, slot: int
) -> int:
    """The collocation row at the point (a/b, c/e), the reduced tuple
    (a, b, c, e), cleared to integers, mod ``p`` and packed for
    ``ModEchelon``: entry (i, j), i-major, at bits (i(n+1) + j) * ``slot``,
    is congruent to a^i b^(m-i) c^j e^(n-j).  It is one product X * Y, X
    packing a^i b^(m-i) mod p at stride (n+1) * slot and Y packing
    c^j e^(n-j) mod p at stride slot: each slot receives exactly one
    product of two residues, less than p**2 <= 2**slot, so nothing carries.
    """
    a, b, c, e = point
    return _homogeneous_powers(a % p, b % p, m, p, (n + 1) * slot) * _homogeneous_powers(
        c % p, e % p, n, p, slot)


def _homogeneous_powers(a: int, b: int, d: int, p: int, stride: int) -> int:
    """a^i b^(d-i) mod p for i = 0..d, packed: power i at bits i * stride."""
    hi = [1]
    for _ in range(d):
        hi.append(hi[-1] * b % p)
    packed, lo = hi[d], 1
    for i in range(1, d + 1):
        lo = lo * a % p
        packed |= (lo * hi[d - i] % p) << i * stride
    return packed


def _crt(acc: list[list[int]], modulus: int, vecs: list[list[int]], p: int) -> list[list[int]]:
    """The vectors that are ``acc`` mod ``modulus`` and ``vecs`` mod ``p``."""
    k = pow(modulus, -1, p)
    return [[a + modulus * ((v - a) * k % p) for a, v in zip(av, vv)] for av, vv in zip(acc, vecs)]


def _scaled_reconstruction(vec: list[int], modulus: int) -> list[int] | None:
    """S * v as ints, v the :func:`_rational_reconstruction` of ``vec`` entry
    by entry and S the lcm of its denominators, or None if an entry has none.

    The entries share most of their denominator, so S runs along (Monagan,
    *ISSAC* 2004): for w = u * S mod ``modulus`` in the symmetric range,
    |w| <= sqrt(modulus/2) and S / gcd(w, S) <= that bound make w / S the
    one reconstruction within the bound (S is prime to the modulus, as every
    denominator is); only otherwise does Euclid run.
    """
    bound, half = isqrt(modulus // 2), modulus // 2
    scale, out = 1, []
    for u in vec:
        w = u * scale % modulus
        if w > half:
            w -= modulus
        if -bound <= w <= bound and (scale <= bound or scale // gcd(w, scale) <= bound):
            out.append(w)
            continue
        rs = _rational_reconstruction(u, modulus)
        if rs is None:
            return None
        r, s = rs
        grow = s // gcd(scale, s)
        scale *= grow
        out = [x * grow for x in out]
        out.append(r * (scale // s))
    return out


def _rational_reconstruction(u: int, modulus: int) -> tuple[int, int] | None:
    """The unique r/s = u mod ``modulus`` with |r|, s <= sqrt(modulus/2) and
    gcd(r, s) = 1, as (r, s) with s > 0, or None (Wang's half-extended
    Euclid)."""
    bound = isqrt(modulus // 2)
    r0, r1, s0, s1 = modulus, u % modulus, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if abs(s1) > bound or gcd(r1, s1) != 1:
        return None
    return (r1, s1) if s1 > 0 else (-r1, -s1)


def method_dual_vandermonde(P: RatParam) -> ImplicitResult:
    """Implicitize from Sylvester determinants at prime-power nodes.

    At the k-th node (2^k, 3^k) (``DUAL_NODE_PRIMES``) the determinant of
    the evaluated Sylvester matrix equals F there, and the collocation
    matrix row is (alpha_0^k, ..., alpha_{N-1}^k) with composite nodes
    alpha_(i,j) = 2^i 3^j — a transposed Vandermonde system, solved in
    O(N^2) by ``vandermonde_solve_dual``.
    """
    return _certified(P, _dual_batches)


def _dual_batches(P: RatParam, bounds: DegreeBounds, data_c: OpCounter, solve_c: OpCounter):
    """Yield one batch: the solve on N lines of one node each."""
    a, b = DUAL_NODE_PRIMES
    alphas = [a**i * b**j for i in range(bounds.m + 1) for j in range(bounds.n + 1)]
    data = _from_determinants(P, [(a**k, [b**k]) for k in range(bounds.N)], [alphas], data_c)
    yield [vandermonde_solve_dual(alphas, data, solve_c)], True, bounds.N, {"det_evals": bounds.N}


def method_kronecker(P: RatParam) -> ImplicitResult:
    """Implicitize from Sylvester determinants on the integer grid.

    Nodes (i, j) for i = 0..m, j = 0..n make the collocation matrix the
    Kronecker product V_x (x) V_y of two small Vandermonde matrices, so the
    solve decomposes into (m+1) + (n+1) Björck-Pereyra eliminations and the
    interpolation data stays as small as the curve itself allows.
    """
    return _certified(P, _kronecker_batches)


def _kronecker_batches(P: RatParam, bounds: DegreeBounds, data_c: OpCounter, solve_c: OpCounter):
    """Yield one batch: the solve on m+1 lines of n+1 nodes each."""
    x_nodes, y_nodes = list(range(bounds.m + 1)), list(range(bounds.n + 1))
    data = _from_determinants(P, [(x0, y_nodes) for x0 in x_nodes], [x_nodes, y_nodes], data_c)
    yield [kron_solve(x_nodes, y_nodes, data, solve_c)], True, bounds.N, {"det_evals": bounds.N}


#: The one dispatch: every method takes ``P`` alone.
_PIPELINES = {
    METHOD_UNSTRUCTURED: method_unstructured,
    METHOD_DUAL_VANDERMONDE: method_dual_vandermonde,
    METHOD_KRONECKER: method_kronecker,
}


def implicitize(P: RatParam, cfg: MethodConfig | None = None) -> ImplicitResult:
    """Run the configured pipeline; its errors propagate unchanged.

    Every method proves its result, so the F returned here vanishes along
    the parametrization.
    """
    return _PIPELINES[(cfg or MethodConfig()).method](P)


def _certified(P: RatParam, scheme: Callable[..., Iterator[tuple]]) -> ImplicitResult:
    """The run of every method: bounds and counters once, then the batches
    (vectors, last, nodes, fields) of ``scheme(P, bounds, data_c, solve_c)``:
    candidate i-major coefficient vectors, produced lazily; whether they
    span the nullspace; the number of nodes used; the result fields set.

    Each candidate must be nonzero, and is canonicalized and proven.  A
    second proven candidate raises ``DegenerateInputError``; the proven one
    of a last batch is the result.  A scheme that runs out of batches raises
    ``InternalConsistencyError``: only a bug causes that, and the proof
    catches a wrong datum and a wrong solve alike.  Kernels are called
    through this module's names, so rebinding one (as a tracer does) works.
    """
    bounds = degree_bounds(P)
    data_c, solve_c = OpCounter(), OpCounter()
    for vectors, last, nodes, fields in scheme(P, bounds, data_c, solve_c):
        found = None
        for vec in vectors:
            if not any(vec):
                raise InternalConsistencyError("interpolation produced the zero polynomial")
            F = bipoly_canonicalize(BiPoly.from_flat(vec, bounds.m, bounds.n))
            if substitute_check(F, P):
                if found is not None:
                    raise DegenerateInputError(
                        f"two independent equations vanish on the curve at {nodes} points")
                found = F
        if last and found is not None:
            return ImplicitResult(found, bounds, data_c, solve_c, True, **fields)
    raise InternalConsistencyError("computed polynomial does not vanish along the parametrization")


def _from_determinants(P: RatParam, lines: Sequence[tuple[int, Sequence[int]]],
                       node_sets: Sequence[Sequence[int]], counter: OpCounter) -> list[int]:
    """The Sylvester determinants on the grid ``lines`` (x0, ys), one
    ``sylvester_line_dets`` call per line, observed in ``counter`` with the
    powers of the Vandermonde ``node_sets``.  The cleared integer bands
    scale every datum, and so the solved F, by the constant L1**d2 * L2**d1
    that canonicalization removes."""
    S = build_parametric_sylvester(P)
    data = [v for x0, ys in lines for v in sylvester_line_dets(S, x0, ys, counter)]
    counter.observe_many(data)
    for nodes in node_sets:
        _observe_node_powers(counter, nodes)
    return data


def _observe_node_powers(counter: OpCounter, nodes: Sequence[int]) -> None:
    """Record the bit size of the node powers t**k, k < len(nodes), as data.

    Every node is an integer >= 0, so the widest power is the top node's
    top power; the others are never formed.
    """
    counter.observe(max(nodes) ** (len(nodes) - 1))
