"""How the three pipelines scale, measured by exact operation counters.

For curves with both degree bounds equal to d, the interpolation space has
dimension N = (d+1)^2.  The solve stage costs roughly N^3 exact
operations per prime of its modular solve for the unstructured method, N^2
for the transposed-Vandermonde method, and N^1.5 for the paper's Kronecker
solve (`kron_solve`, N(m+n), run here on the N grid determinants).  The
Kronecker pipeline packs each grid line into one determinant and runs one
solve of order m+1, m(m+1) ~ N.  The grid method also keeps its
interpolation data tiny, while prime-power nodes blow the data up to
hundreds of bits.
"""

import random

from implicurve import (
    OpCounter,
    RatParam,
    UniPoly,
    build_parametric_sylvester,
    degree_bounds,
    kron_solve,
    method_dual_vandermonde,
    method_kronecker,
    method_unstructured,
    sylvester_line_dets,
)

rng = random.Random(99)


def random_curve(d: int) -> RatParam:
    """Random parametrization whose degree bounds are exactly (d, d)."""
    def poly(degree):
        cs = [rng.randint(-9, 9) for _ in range(degree)]
        cs.append(rng.choice([v for v in range(-9, 10) if v]))
        return UniPoly(cs)

    while True:
        try:
            P = RatParam(poly(rng.randint(0, d)), poly(d),
                         poly(rng.randint(0, d)), poly(d))
        except ValueError:
            continue
        b = degree_bounds(P)
        if b.m == d and b.n == d:
            return P


def kron_solve_ops(P: RatParam) -> int:
    """Mul+div of ``kron_solve`` on the N grid determinants of ``P``."""
    b, S = degree_bounds(P), build_parametric_sylvester(P)
    ys, counter = list(range(b.n + 1)), OpCounter()
    grid = [v for x0 in range(b.m + 1) for v in sylvester_line_dets(S, x0, ys, OpCounter())]
    kron_solve(range(b.m + 1), ys, grid, counter)
    return counter.muldivs


print(f"{'d':>2} {'N':>4} | {'unstructured':>14} {'dual-vand':>11} {'kronecker':>10} "
      f"{'kron_solve':>10} | {'data bits (dual)':>16} {'(kron)':>7}")
print("-" * 89)
for d in range(2, 7):
    P = random_curve(d)
    N = degree_bounds(P).N
    r1 = method_unstructured(P)
    r2 = method_dual_vandermonde(P)
    r3 = method_kronecker(P)
    assert r1.F == r2.F == r3.F, f"the methods disagree at d={d}"
    assert r1.verified and r2.verified and r3.verified, f"unverified result at d={d}"
    print(f"{d:>2} {N:>4} | {r1.solve_counter.muldivs:>14} "
          f"{r2.solve_counter.muldivs:>11} {r3.solve_counter.muldivs:>10} "
          f"{kron_solve_ops(P):>10} | {r2.data_counter.max_bits:>16} "
          f"{r3.data_counter.max_bits:>7}")
print("\n(solve-stage multiplications + divisions; kron_solve is the paper's two-stage")
print("solve on the N grid values, N(m+n); on every row the three methods gave")
print("the same canonical F, each verified by the vanishing proof)")
