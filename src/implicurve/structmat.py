"""Exact matrix kernels: Sylvester construction, determinants, solvers.

The heart of the package.  `MatQ` is a dense matrix of rationals and
`PolyMat` the Sylvester matrix of a parametrization, stored as its two
coefficient bands; its entries have degree at most one in x and in y, and
its determinant at a point (x0, y0) is the implicit curve polynomial
evaluated there.

Solvers come in two flavours.  General-purpose: fraction-free Bareiss
determinants (`det_bareiss`), Gaussian elimination (`solve_general`), and
reduced-row-echelon nullspace extraction (`nullspace`).  Structured:
Björck-Pereyra elimination for primal and transposed Vandermonde systems
(`vandermonde_solve_primal` / `vandermonde_solve_dual`), and a two-stage
solver for systems whose matrix is the Kronecker product of two Vandermonde
matrices (`kron_solve`), which never forms the product matrix.

Every solver and determinant takes an `OpCounter` and records the exact
rational operations it performs; `OpCounter.observe` additionally tracks
the bit size of values fed to it, so pipelines can report how large their
interpolation data grew.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm as _int_lcm
from typing import Sequence

from .polycore import BiPoly, Rat, RatParam, UniPoly, _as_rat


class DuplicateNodeError(ValueError):
    """Raised when interpolation nodes that must be distinct repeat."""


class SingularMatrixError(ValueError):
    """Raised when a linear solve meets a singular coefficient matrix."""


class DegenerateParametrizationError(ValueError):
    """Raised when a parametrization has a constant component, so no
    Sylvester matrix (and no implicit curve equation) exists."""


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
        v = _as_rat(value)
        bits = max(v.numerator.bit_length(), v.denominator.bit_length())
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


class MatQ:
    """Dense matrix of rationals (row-major tuple of tuples)."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence[Rat | int]]) -> None:
        if not entries or not entries[0]:
            raise ValueError("matrix must have at least one row and one column")
        width = len(entries[0])
        grid = []
        for row in entries:
            if len(row) != width:
                raise ValueError("matrix rows must have equal length")
            grid.append(tuple(_as_rat(c) for c in row))
        self.entries: tuple[tuple[Rat, ...], ...] = tuple(grid)
        self.rows: int = len(grid)
        self.cols: int = width

    @classmethod
    def identity(cls, n: int) -> MatQ:
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MatQ) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(("MatQ", self.entries))

    def __repr__(self) -> str:
        return f"MatQ<{self.rows}x{self.cols}>"


class PolyMat:
    """Parametric Sylvester matrix, stored as its two coefficient bands.

    ``p_band`` holds the coefficient pairs (u1_s, v1_s) of p = u1 - x*v1
    and ``q_band`` the pairs (u2_s, v2_s) of q = u2 - y*v2, both in
    descending t-degree.  With d1 = len(p_band) - 1 and d2 = len(q_band) - 1
    the matrix has order d1 + d2: d2 rows of p, each shifted one column
    further right, then d1 rows of q the same way.  ``entries`` is a
    read-only view of the matrix as bivariate polynomials of degree <= 1 in
    x and in y.
    """

    __slots__ = ("p_band", "q_band", "order")

    def __init__(
        self,
        p_band: Sequence[tuple[Rat | int, Rat | int]],
        q_band: Sequence[tuple[Rat | int, Rat | int]],
    ) -> None:
        if len(p_band) < 2 or len(q_band) < 2:
            raise ValueError("both bands must have t-degree at least 1")
        self.p_band = tuple((_as_rat(u), _as_rat(v)) for u, v in p_band)
        self.q_band = tuple((_as_rat(u), _as_rat(v)) for u, v in q_band)
        self.order: int = len(p_band) + len(q_band) - 2

    @property
    def entries(self) -> tuple[tuple[BiPoly, ...], ...]:
        return _sylvester_layout(
            tuple(BiPoly([[u], [-v]]) for u, v in self.p_band),
            tuple(BiPoly([[u, -v]]) for u, v in self.q_band),
            BiPoly.zeros(),
        )

    def __repr__(self) -> str:
        return f"PolyMat<order={self.order}>"


def _sylvester_layout(p: tuple, q: tuple, zero) -> tuple[tuple, ...]:
    """Sylvester rows of the bands ``p`` and ``q``, padded with ``zero``."""
    d1, d2 = len(p) - 1, len(q) - 1
    rows = [(zero,) * r + p + (zero,) * (d2 - 1 - r) for r in range(d2)]
    rows += [(zero,) * r + q + (zero,) * (d1 - 1 - r) for r in range(d1)]
    return tuple(rows)


def build_parametric_sylvester(P: RatParam) -> PolyMat:
    """Sylvester matrix of p = u1 - x*v1 and q = u2 - y*v2 in the parameter.

    Its determinant is the resultant eliminating t, i.e. the implicit curve
    polynomial; see :class:`PolyMat` for the layout.  A constant x- or
    y-component (deg_t p == 0 or deg_t q == 0) admits no such matrix and
    raises ``DegenerateParametrizationError``.
    """
    d1 = max(_int_degree(P.u1), _int_degree(P.v1))
    d2 = max(_int_degree(P.u2), _int_degree(P.v2))
    if d1 < 1 or d2 < 1:
        raise DegenerateParametrizationError(
            "both components must depend on the parameter (constant component)"
        )
    return PolyMat(
        [(P.u1.coefficient(d1 - s), P.v1.coefficient(d1 - s)) for s in range(d1 + 1)],
        [(P.u2.coefficient(d2 - s), P.v2.coefficient(d2 - s)) for s in range(d2 + 1)],
    )


def eval_polymat(S: PolyMat, x0: Rat | int, y0: Rat | int) -> MatQ:
    """Evaluate ``S`` at the rational point (x0, y0).

    Each band is evaluated once, u - x0*v resp. u - y0*v, and laid out with
    one shared zero.
    """
    x, y = _as_rat(x0), _as_rat(y0)
    return MatQ(
        _sylvester_layout(
            tuple(u - x * v for u, v in S.p_band),
            tuple(u - y * v for u, v in S.q_band),
            Fraction(0),
        )
    )


def det_bareiss(M: MatQ, counter: OpCounter) -> Rat:
    """Determinant by fraction-free Bareiss elimination.

    Rows are first cleared to integers (multiplying by the lcm of their
    denominators, divided back out at the end), then eliminated with the
    two-multiplication Bareiss update whose division by the previous pivot
    is exact — asserted on every step.  Zero pivots are repaired by row
    swaps; a column with no pivot means the determinant is zero.
    """
    if M.rows != M.cols:
        raise ValueError("determinant requires a square matrix")
    n = M.rows
    a: list[list[int]] = []
    denom = 1
    for row in M.entries:
        l = 1
        for c in row:
            l = _int_lcm(l, c.denominator)
        if l == 1:
            a.append([c.numerator for c in row])
        else:
            a.append([int(c * l) for c in row])
            counter.count(muls=n)
        denom *= l
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        pivot = a[k][k]
        for i in range(k + 1, n):
            fac = a[i][k]
            ai = a[i]
            ak = a[k]
            for j in range(k + 1, n):
                num = ai[j] * pivot - fac * ak[j]
                q, r = divmod(num, prev)
                assert r == 0, "fraction-free elimination hit a nonexact division"
                ai[j] = q
            w = n - 1 - k
            counter.count(adds=w, muls=2 * w, divs=w)
        prev = pivot
    if denom == 1:
        return Fraction(sign * a[n - 1][n - 1])
    counter.count(divs=1)
    return Fraction(sign * a[n - 1][n - 1], denom)


def solve_general(M: MatQ, b: Sequence[Rat | int], counter: OpCounter) -> list[Rat]:
    """Solve M x = b by exact Gaussian elimination with back substitution.

    Pivots are the first nonzero entry in each column; a column without one
    raises ``SingularMatrixError``.
    """
    if M.rows != M.cols:
        raise ValueError("solve_general requires a square matrix")
    n = M.rows
    if len(b) != n:
        raise ValueError("right-hand side length does not match the matrix")
    aug = [list(row) + [_as_rat(b[i])] for i, row in enumerate(M.entries)]
    for k in range(n):
        pr = next((r for r in range(k, n) if aug[r][k] != 0), None)
        if pr is None:
            raise SingularMatrixError("coefficient matrix is singular")
        if pr != k:
            aug[k], aug[pr] = aug[pr], aug[k]
        pivot = aug[k][k]
        for i in range(k + 1, n):
            if aug[i][k] == 0:
                continue
            f = aug[i][k] / pivot
            counter.count(divs=1)
            for j in range(k + 1, n + 1):
                aug[i][j] -= f * aug[k][j]
            counter.count(adds=n - k, muls=n - k)
            aug[i][k] = Fraction(0)
    x = [Fraction(0)] * n
    for k in range(n - 1, -1, -1):
        acc = aug[k][n]
        for j in range(k + 1, n):
            acc -= aug[k][j] * x[j]
        counter.count(adds=n - 1 - k, muls=n - 1 - k)
        x[k] = acc / aug[k][k]
        counter.count(divs=1)
    return x


def nullspace(M: MatQ, counter: OpCounter | None = None) -> list[tuple[Rat, ...]]:
    """Basis of the right nullspace of ``M`` via reduced row echelon form.

    Returns one vector per free column (free variable set to 1), so the
    result is empty exactly when ``M`` has full column rank.  The optional
    counter records the elimination's rational operations.
    """
    c = counter if counter is not None else OpCounter()
    a = [list(row) for row in M.entries]
    nrows, ncols = M.rows, M.cols
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pr = next((i for i in range(r, nrows) if a[i][col] != 0), None)
        if pr is None:
            continue
        if pr != r:
            a[r], a[pr] = a[pr], a[r]
        piv = a[r][col]
        if piv != 1:
            for j in range(col, ncols):
                a[r][j] /= piv
            c.count(divs=ncols - col)
        for i in range(nrows):
            if i == r or a[i][col] == 0:
                continue
            f = a[i][col]
            for j in range(col, ncols):
                a[i][j] -= f * a[r][j]
            c.count(adds=ncols - col, muls=ncols - col)
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    free_cols = [j for j in range(ncols) if j not in pivots]
    basis = []
    for fc in free_cols:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for pr, pc in enumerate(pivots):
            v[pc] = -a[pr][fc]
        basis.append(tuple(v))
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
    x = [_as_rat(t) for t in nodes]
    _check_nodes(x)
    s = len(x)
    a = [_as_rat(v) for v in values]
    for k in range(s - 1):
        for i in range(s - 1, k, -1):
            a[i] = (a[i] - a[i - 1]) / (x[i] - x[i - k - 1])
            counter.count(adds=2, divs=1)
    for k in range(s - 2, -1, -1):
        for i in range(k, s - 1):
            a[i] = a[i] - a[i + 1] * x[k]
            counter.count(adds=1, muls=1)
    return a


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
    x = [_as_rat(t) for t in nodes]
    _check_nodes(x)
    s = len(x)
    c = [_as_rat(v) for v in b]
    for k in range(s - 1):
        for i in range(s - 1, k, -1):
            c[i] = c[i] - x[k] * c[i - 1]
            counter.count(adds=1, muls=1)
    for k in range(s - 2, -1, -1):
        for i in range(k + 1, s):
            c[i] = c[i] / (x[i] - x[i - k - 1])
            counter.count(adds=1, divs=1)
        for i in range(k, s - 1):
            c[i] = c[i] - c[i + 1]
            counter.count(adds=1)
    return c


def kron_solve(
    x_nodes: Sequence[Rat | int],
    y_nodes: Sequence[Rat | int],
    b: Sequence[Rat | int],
    counter: OpCounter,
) -> list[Rat]:
    """Solve (V_x (x) V_y) c = b without forming the Kronecker product.

    V_x and V_y are the Vandermonde matrices of the two node lists; with
    i-major ordering the system splits into len(x_nodes) primal solves
    against V_y followed by len(y_nodes) primal solves against V_x — each a
    quadratic-cost Björck-Pereyra elimination, so the whole solve is far
    below the cubic cost of eliminating the product matrix.
    """
    xs = [_as_rat(t) for t in x_nodes]
    ys = [_as_rat(t) for t in y_nodes]
    _check_nodes(xs)
    _check_nodes(ys)
    nx, ny = len(xs), len(ys)
    if len(b) != nx * ny:
        raise ValueError("right-hand side length must be len(x_nodes)*len(y_nodes)")
    inner = [
        vandermonde_solve_primal(ys, b[k * ny : (k + 1) * ny], counter)
        for k in range(nx)
    ]
    out: list[Rat] = [Fraction(0)] * (nx * ny)
    for j in range(ny):
        f_j = vandermonde_solve_primal(xs, [inner[k][j] for k in range(nx)], counter)
        for i in range(nx):
            out[i * ny + j] = f_j[i]
    return out


def _int_degree(p: UniPoly) -> int:
    """Degree clamped to -1 for the zero polynomial (for max comparisons)."""
    return len(p.coeffs) - 1
