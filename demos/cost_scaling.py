"""How the three pipelines scale, measured by exact operation counters.

For curves with both degree bounds equal to d, the interpolation space has
dimension N = (d+1)^2.  The solve stage costs roughly N^3 exact
operations per prime of its modular solve for the unstructured method, N^2
for the transposed-Vandermonde method, and N^1.5 for the Kronecker grid
method — and the grid method also keeps its interpolation data tiny, while
prime-power nodes blow the data up to hundreds of bits.
"""

import random

from implicurve import (
    RatParam,
    UniPoly,
    degree_bounds,
    method_dual_vandermonde,
    method_kronecker,
    method_unstructured,
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

print(f"{'d':>2} {'N':>4} | {'unstructured':>14} {'dual-vand':>11} {'kronecker':>10} "
      f"| {'data bits (dual)':>16} {'(kron)':>7}")
print("-" * 78)
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
          f"| {r2.data_counter.max_bits:>16} {r3.data_counter.max_bits:>7}")
print("\n(solve-stage multiplications + divisions; on every row the three methods")
print("gave the same canonical F, each verified by the vanishing proof)")
