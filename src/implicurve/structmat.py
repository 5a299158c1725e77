"""Exact matrix kernels: Sylvester construction, determinants, solvers.

The heart of the package, in plain ints wherever a division is exact.
`PolyMat` is the Sylvester matrix of a parametrization, stored as its two
coefficient bands; its entries have degree at most one in x and in y, and
its determinant at a point (x0, y0) is the implicit curve polynomial
evaluated there.  The bands are integers from construction:
`build_parametric_sylvester` reads the component pairs a `RatParam`
cleared once, which scales every determinant by a known constant.  The
pipelines call `sylvester_line_dets` per node (x0, y0): the determinant
is the resultant of p = u1 - x0*v1 and q = u2 - y0*v2 by the subresultant
PRS of `polycore.resultant`; the Kronecker pipeline's y0 = 2**s packs a
grid line into one (Kronecker substitution), read back by `_signed_digits`.

Each node scheme has its solver.  The unstructured scheme keeps the row
echelon form mod a prime of its collocation rows (`ModEchelon`), grown a
row at a time, each row arriving packed into one int by the same Kronecker
substitution, so that a row reduction is one big-int multiply-add and the
reduced row is read back in one pass; the pipeline combines its null
vectors over several primes.
The determinant schemes solve structured systems: Björck-Pereyra
elimination for primal and transposed Vandermonde systems
(`vandermonde_solve_primal` / `vandermonde_solve_dual`), and the paper's
two-stage solver for Kronecker products of two Vandermonde matrices
(`kron_solve`), which never forms the product matrix.  Both
Björck-Pereyra solves (and so `kron_solve`) keep int inputs in ints wherever
a division is exact, and fall back to `Fraction` where it is not.

Every solver and determinant takes an `OpCounter` and records the exact
rational (or integer) operations it performs; `OpCounter.observe`
additionally tracks the bit size of values fed to it, so pipelines can
report how large their interpolation data grew.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from operator import mul
from typing import Sequence

from .polycore import (
    InternalConsistencyError,
    OpCounter,
    Rat,
    RatParam,
    component_degrees,
    resultant,
)


class DuplicateNodeError(ValueError):
    """Raised when interpolation nodes that must be distinct repeat."""


class PolyMat:
    """Parametric Sylvester matrix, stored as its two integer coefficient bands.

    ``p_band`` holds the int coefficient pairs (u1_s, v1_s) of p = u1 - x*v1
    and ``q_band`` the pairs (u2_s, v2_s) of q = u2 - y*v2, both in
    descending t-degree; a coefficient other than an ``int`` raises ``ValueError``.
    With d1 = len(p_band) - 1 and d2 = len(q_band) - 1 the matrix has order
    d1 + d2: d2 rows of p, each shifted one column further right, then d1
    rows of q the same way.
    """

    __slots__ = ("p_band", "q_band", "order")

    def __init__(
        self, p_band: Sequence[tuple[int, int]], q_band: Sequence[tuple[int, int]]
    ) -> None:
        if len(p_band) < 2 or len(q_band) < 2:
            raise ValueError("both bands must have t-degree at least 1")
        if not all(type(c) is int for band in (p_band, q_band) for pair in band for c in pair):
            raise ValueError("Sylvester bands must have integer coefficients")
        self.p_band = tuple(map(tuple, p_band))
        self.q_band = tuple(map(tuple, q_band))
        self.order: int = len(p_band) + len(q_band) - 2

    def __repr__(self) -> str:
        return f"PolyMat<order={self.order}>"


def build_parametric_sylvester(P: RatParam) -> PolyMat:
    """Sylvester matrix of p = u1 - x*v1 and q = u2 - y*v2 in the parameter.

    Its determinant is the resultant eliminating t, i.e. the implicit curve
    polynomial; see :class:`PolyMat` for the layout.  The pairs (u1, v1)
    and (u2, v2) are read as ``P.int_pairs``, cleared to integers by the lcm
    L1 resp. L2 of their denominators, which scales every determinant by
    L1**d2 * L2**d1.  A constant x- or y-component (deg_t p == 0 or deg_t
    q == 0) admits no such matrix: :func:`component_degrees` raises
    ``DegenerateParametrizationError``.
    """
    bands = []
    for pair, d in zip(P.int_pairs, component_degrees(P)):
        cu, cv = (c + [0] * (d + 1 - len(c)) for c in pair)
        bands.append(list(zip(reversed(cu), reversed(cv))))
    return PolyMat(*bands)


def sylvester_line_dets(
    S: PolyMat, x0: int, ys: Sequence[int], counter: OpCounter
) -> list[int]:
    """Determinants of ``S`` at (x0, y), for every int y in ``ys`` in order.

    With p = u1 - x0*v1 and q = u2 - y*v2, det S(x0, y) is the resultant of
    p and q at their formal degrees d1 and d2, once the vanishing leads are
    stripped by expanding along the first column.  If the e leading
    coefficients of p vanish at x0, e expansions give det = (-1)**(e*d2) *
    q_0**e * Res(p[e:], q), q_0 the formal lead of q; p = 0 leaves 0.  If
    then the f leading coefficients of q vanish, f more give a**f *
    Res(p[e:], q[f:]), a = p[e], with no sign.  So a constant p[e:] needs no
    rule of its own: it leaves a**f * a**(d2 - f) = a**d2, and q_0 = 0
    gives 0 through q_0**e.  The :func:`resultant` is taken as (-1)**(m*n) *
    Res(q[f:], p[e:]), m and n their degrees, so that the PRS first reduces
    the wide q by the narrow p: the Kronecker pipeline passes one y = 2**s,
    which packs every coefficient of R(x0, y) into one determinant.  p is
    formed once per line, and each y runs one PRS.
    """
    p_band, q_band = S.p_band, S.q_band
    d1, d2 = len(p_band) - 1, len(q_band) - 1
    p = [u - x0 * v for u, v in p_band]
    counter.count(adds=d1 + 1, muls=d1 + 1)
    e = next((s for s, c in enumerate(p) if c), None)
    if e is None:
        return [0] * len(ys)
    dets = []
    for y in ys:
        q = [u - y * v for u, v in q_band]
        counter.count(adds=d2 + 1, muls=d2 + 3)
        f = next((s for s, c in enumerate(q) if c), d2 + 1)
        det = (-1) ** ((d1 - e) * (d2 - f) % 2) * p[e] ** f * resultant(q[f:], p[e:], counter)
        dets.append(det * (-q[0] if d2 % 2 else q[0]) ** e)  # the e zero leads of p
    return dets


def _signed_digits(value: int, s: int, count: int) -> list[int]:
    """The ``count`` signed base-2**s digits of ``value``, lowest first; a
    nonzero leftover raises ``InternalConsistencyError``."""
    half, mask = 1 << (s - 1), (1 << s) - 1
    digits = []
    for _ in range(count):
        d = ((value + half) & mask) - half
        digits.append(d)
        value = (value - d) >> s
    if value:
        raise InternalConsistencyError("packed value exceeds its coefficient bound")
    return digits


class ModEchelon:
    """Row echelon form mod a prime ``p`` of integer rows of one ``width``,
    grown a row at a time: a new row is reduced by the stored rows (pivot
    entry 1, zeros left of it) in pivot order, and a nonzero remainder is
    stored under its first nonzero column.  The pivot columns are those of
    the reduced row echelon form, whatever the row order; the rest are free.

    Rows come packed into one int each, entry j at bits j * ``slot``
    (Kronecker substitution; von zur Gathen & Gerhard, *Modern Computer
    Algebra*, 8.4), every entry in [0, p**2): :meth:`pack` packs a list, and
    the pipeline builds its rows packed.  A stored row is kept packed from
    its pivot on.  A reduction is then one big-int multiply-add, r += (p -
    f) * row, its multiplier f read from r's slot at the pivot by shift,
    mask and ``% p``.  The columns left of the first free one are all
    pivots: r reduces at its lowest slot and drops it, as the slot is then 0
    mod p.  Right of it, r keeps every slot and the stored row is shifted to
    its pivot.  (A generic system has pivots 0, 1, ..., so the second kind
    is rare.)  No slot carries into the next: stored entries lie in [0, p),
    the new row's in [0, p**2), and a row meets at most ``width``
    reductions, each adding less than p**2 to a slot, so every slot stays
    below (width + 2) * p**2 <= 2**slot.  One code path serves every width
    and prime.  The reduced row is read once, slot by slot: the first slot
    nonzero mod p is the lead, and each later one is normalized in the same
    pass.
    """

    def __init__(self, p: int, width: int, counter: OpCounter) -> None:
        self.p, self.width, self.counter = p, width, counter
        self.slot = -(-((width + 2) * p * p).bit_length() // 8) * 8  # whole bytes
        self.rows: dict[int, list[int]] = {}
        self._packed: list[tuple[int, int]] = []  # (pivot, row packed from it), ascending
        self._first = 0  # the first free column

    @property
    def free(self) -> tuple[int, ...]:
        return tuple(j for j in range(self.width) if j not in self.rows)

    def pack(self, entries: Sequence[int]) -> int:
        """The entries mod p as one row: entry j at bits j * slot."""
        p, step = self.p, self.slot // 8
        return int.from_bytes(b"".join([(x % p).to_bytes(step, "little") for x in entries]), "little")

    def add(self, row: int) -> None:
        """Reduce the packed ``row`` and store what is left, if nonzero mod p."""
        p, w, k, rows = self.p, self.width, self.slot, self.rows
        mask, step = (1 << k) - 1, k // 8
        first, r, ops = self._first, row, 0
        # columns 0, ..., first - 1 are pivots: r reduces at its lowest slot
        # and drops it, leaving the slots from ``first`` on
        for col, packed in self._packed[:first]:
            f = (r & mask) % p
            if f:
                r += (p - f) * packed
                ops += w - col
            r >>= k
        for col, packed in self._packed[first:]:
            at = (col - first) * k
            f = (r >> at & mask) % p
            if f:
                r += (p - f) * packed << at
                ops += w - col
        # one pass over the slots: up to the lead, then normalizing the rest
        end = (w - first) * step
        data = r.to_bytes(end, "little")
        for at in range(0, end, step):
            x = int.from_bytes(data[at : at + step], "little") % p
            if x:
                inv = pow(x, -1, p)
                tail = [1] + [
                    int.from_bytes(data[i : i + step], "little") * inv % p
                    for i in range(at + step, end, step)
                ]
                lead = first + at // step
                rows[lead] = [0] * lead + tail
                insort(self._packed, (lead, self.pack(tail)))
                while self._first in rows:
                    self._first += 1
                self.counter.count(adds=ops, muls=ops + w, divs=1)
                return
        self.counter.count(adds=ops, muls=ops)

    def null_vectors(self) -> list[list[int]]:
        """The reduced-row-echelon nullspace basis mod p, by back-substitution:
        for each free column f, the null vector that is 1 at f and 0 at the
        other free columns."""
        basis, ops = [], 0
        for f in self.free:
            v = [0] * self.width
            v[f] = 1
            for col, _ in reversed(self._packed):
                tail = self.rows[col][col + 1 :]
                v[col] = -sum(map(mul, tail, v[col + 1 :])) % self.p
                ops += len(tail)
            basis.append(v)
        self.counter.count(adds=ops, muls=ops)
        return basis


def _check_nodes(nodes: Sequence[Rat]) -> None:
    if len(set(nodes)) != len(nodes):
        raise DuplicateNodeError("interpolation nodes must be pairwise distinct")


def vandermonde_solve_primal(
    nodes: Sequence[Rat | int], values: Sequence[Rat | int], counter: OpCounter
) -> list[Rat]:
    """Solve the Vandermonde system V a = f in O(s^2) exact operations.

    V[i][k] = nodes[i]**k, so the solution is the coefficient vector of the
    polynomial interpolating values[i] at nodes[i].  Björck-Pereyra: a
    divided-difference sweep followed by a Horner-style sweep that converts
    Newton coefficients to the monomial basis.
    """
    if len(nodes) != len(values):
        raise ValueError("nodes and values must have equal length")
    x = list(nodes)
    _check_nodes(x)
    s = len(x)
    a = list(values)
    for k in range(s - 1):
        for i in range(s - 1, k, -1):
            a[i] = _quotient(a[i] - a[i - 1], x[i] - x[i - k - 1])
    for k in range(s - 2, -1, -1):
        for i in range(k, s - 1):
            a[i] = a[i] - a[i + 1] * x[k]
    _count_bjorck_pereyra(counter, s)
    return a


def _quotient(num: Rat | int, den: Rat | int) -> Rat | int:
    """num / den, as an int when both are ints and the division is exact."""
    if isinstance(num, int) and isinstance(den, int):
        q, r = divmod(num, den)
        return Fraction(num, den) if r else q
    return num / den


def vandermonde_solve_dual(
    nodes: Sequence[Rat | int], b: Sequence[Rat | int], counter: OpCounter
) -> list[Rat]:
    """Solve the transposed Vandermonde system V^T c = b in O(s^2) ops.

    V^T[k][i] = nodes[i]**k: row k holds the k-th powers of all nodes, so
    c recovers interpolation *coefficients from moments*.  This runs the
    Björck-Pereyra factorization of the primal solve in transposed order:
    first the transposed Horner sweeps, then divided-difference steps whose
    divisors are the same node differences.
    """
    if len(nodes) != len(b):
        raise ValueError("nodes and right-hand side must have equal length")
    x = list(nodes)
    _check_nodes(x)
    s = len(x)
    c = list(b)
    for k in range(s - 1):
        for i in range(s - 1, k, -1):
            c[i] = c[i] - x[k] * c[i - 1]
    for k in range(s - 2, -1, -1):
        for i in range(k + 1, s):
            c[i] = _quotient(c[i], x[i] - x[i - k - 1])
        for i in range(k, s - 1):
            c[i] = c[i] - c[i + 1]
    _count_bjorck_pereyra(counter, s)
    return c


def _count_bjorck_pereyra(counter: OpCounter, s: int) -> None:
    """An order-s solve, either one: 3t adds, t muls, t divs; t = s(s-1)/2."""
    t = s * (s - 1) // 2
    counter.count(adds=3 * t, muls=t, divs=t)


def kron_solve(
    x_nodes: Sequence[Rat | int],
    y_nodes: Sequence[Rat | int],
    b: Sequence[Rat | int],
    counter: OpCounter,
) -> list[Rat | int]:
    """Solve (V_x (x) V_y) c = b without forming the Kronecker product.

    V_x and V_y are the Vandermonde matrices of the two node lists; with
    i-major ordering the system splits into len(x_nodes) primal solves
    against V_y followed by len(y_nodes) primal solves against V_x — each a
    quadratic-cost Björck-Pereyra elimination, N(m+n) mul+div in all, far
    below the cubic cost of eliminating the product matrix.  Those solves
    check the nodes; ``method_kronecker`` packs the V_y stage away.
    """
    nx, ny = len(x_nodes), len(y_nodes)
    if len(b) != nx * ny:
        raise ValueError("right-hand side length must be len(x_nodes)*len(y_nodes)")
    inner = [
        vandermonde_solve_primal(y_nodes, b[k * ny : (k + 1) * ny], counter)
        for k in range(nx)
    ]
    out: list[Rat | int] = [0] * (nx * ny)
    for j in range(ny):
        f_j = vandermonde_solve_primal(x_nodes, [inner[k][j] for k in range(nx)], counter)
        for i in range(nx):
            out[i * ny + j] = f_j[i]
    return out
