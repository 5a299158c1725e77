"""The structured solvers and their exact operation counts.

Vandermonde systems (primal and transposed) fall to the Björck-Pereyra
sweeps in O(s^2) exact operations; Kronecker products of two Vandermonde
matrices split into independent small solves.  Multiplying a solution back
into its matrix recovers the right-hand side exactly, which proves it, as
the matrix is invertible on distinct nodes; general Gaussian elimination
would find the same answer at cubic cost.
"""

import random
from fractions import Fraction

from implicurve import (
    OpCounter,
    kron_solve,
    vandermonde_solve_dual,
    vandermonde_solve_primal,
)

rng = random.Random(7)

print("— primal Vandermonde: recover a polynomial from its values —")
nodes = [0, 1, 2, 3]
values = [-53, -85, -265, -593]
c = OpCounter()
coeffs = vandermonde_solve_primal(nodes, values, c)
print(f"values {values} at t = {nodes}")
print(f"coefficients (ascending): {coeffs}")
print(f"cost: {c.muls} muls, {c.divs} divs, {c.adds} adds\n")

print("— transposed Vandermonde: recover coefficients from moments —")
nodes = [1, 3, 2, 6]
moments = [0, 3, 43, 345]
c = OpCounter()
sol = vandermonde_solve_dual(nodes, moments, c)
print(f"power sums {moments} over nodes {nodes}")
print(f"solution: {sol}")
print(f"cost: {c.muls} muls, {c.divs} divs, {c.adds} adds\n")

print("— the dual solution multiplied back —")
VT = [[t**k for t in nodes] for k in range(len(nodes))]
back = [sum(e * x for e, x in zip(row, sol)) for row in VT]
print(f"V^T * solution = {back}  (equals the moments: {back == moments})")
print(f"structured mul+div: {c.muldivs} = s(s-1); general elimination needs O(s^3)\n")

print("— Kronecker-product system, never formed explicitly —")
xs, ys = [0, 1, 2], [0, 1]
b = [Fraction(rng.randint(-20, 20)) for _ in range(6)]
ck = OpCounter()
sol_k = kron_solve(xs, ys, b, ck)
print(f"grid {len(xs)}x{len(ys)}, right-hand side {b}")
print(f"solution: {sol_k}")
print(f"cost: {ck.muls} muls, {ck.divs} divs (three solves of size 2,")
print("two of size 3 — quadratic in each axis, never cubic in the grid)")
