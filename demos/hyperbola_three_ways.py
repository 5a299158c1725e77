"""One curve, three node choices.

The running example: x(t) = (1+t)/(2+t), y(t) = (3+t)/(4+t) traces a
hyperbola.  Its implicit equation lives in the space of polynomials with
deg_x <= 1 and deg_y <= 1, which is four-dimensional — so four
interpolation conditions pin it down.  Where we put those four conditions
is a free choice, and each choice turns the linear algebra into something
different.  This script walks through all three.
"""

from implicurve import (
    OpCounter,
    RatParam,
    UniPoly,
    build_parametric_sylvester,
    degree_bounds,
    format_bipoly,
    method_dual_vandermonde,
    method_kronecker,
    method_unstructured,
    nodes_on_curve,
    sylvester_line_dets,
)

P = RatParam(UniPoly([1, 1]), UniPoly([2, 1]), UniPoly([3, 1]), UniPoly([4, 1]))
bounds = degree_bounds(P)
print(f"degree bounds: deg_x <= {bounds.m}, deg_y <= {bounds.n}, "
      f"space dimension N = {bounds.N}\n")

print("1) nodes on the curve itself (t = 0, 1, 2, 3):")
for pt in nodes_on_curve(P, bounds.N):
    print(f"   ({pt[0]}, {pt[1]})")
print("   F vanishes at all four, so F spans the nullspace of the 4x4")
print("   collocation matrix — dense, no structure, cubic-cost solve.")
r = method_unstructured(P)
print(f"   -> F(x, y) = {format_bipoly(r.F)}\n")

print("2) geometric nodes (2^k, 3^k) off the curve:")
S = build_parametric_sylvester(P)
for k in range(bounds.N):
    x0, y0 = 2**k, 3**k
    [d] = sylvester_line_dets(S, x0, [y0], OpCounter())
    print(f"   node ({x0}, {y0}): Sylvester determinant = {d}")
print("   The determinant at a point equals F there, so these are")
print("   interpolation data; the matrix becomes a transposed Vandermonde")
print("   in the composite nodes 2^i * 3^j and solves in quadratic time.")
r = method_dual_vandermonde(P)
print(f"   -> F(x, y) = {format_bipoly(r.F)}\n")

print("3) tensor grid nodes {0,1} x {0,1}:")
for i in range(bounds.m + 1):
    for j in range(bounds.n + 1):
        [d] = sylvester_line_dets(S, i, [j], OpCounter())
        print(f"   node ({i}, {j}): determinant = {d}")
print("   The matrix factors as a Kronecker product of two 2x2 Vandermonde")
print("   matrices; the solve splits into per-row and per-column sweeps.")
r = method_kronecker(P)
print(f"   -> F(x, y) = {format_bipoly(r.F)}\n")

print("All three recover the same canonical equation:", format_bipoly(r.F), "= 0")
