"""Why Sylvester determinants are interpolation data.

Clearing denominators in x = u1/v1, y = u2/v2 gives two polynomials in the
parameter, p = u1 - x*v1 and q = u2 - y*v2, whose resultant in t is the
implicit polynomial F.  The resultant is the determinant of the Sylvester
matrix — entries linear in x or y — so evaluating that matrix at any
integer point (x0, y0) and taking an ordinary integer determinant yields
F(x0, y0) without ever expanding the determinant symbolically.
"""

from fractions import Fraction

from implicurve import (
    BiPoly,
    OpCounter,
    RatParam,
    UniPoly,
    build_parametric_sylvester,
    format_bipoly,
    method_kronecker,
    sylvester_line_dets,
)

P = RatParam(
    UniPoly([1, 2, 2]), UniPoly([5, 0, 0, 1]),
    UniPoly([-1, 1, -3, 1]), UniPoly([-3, 0, 1]),
)
S = build_parametric_sylvester(P)
print(f"x(t) = (2t^2+2t+1)/(t^3+5), y(t) = (t^3-3t^2+t-1)/(t^2-3)")
print(f"Sylvester matrix order: {S.order} (degree 3 + degree 3)\n")

# the bands hold the pairs (u_s, v_s) of u1 - x*v1 and u2 - y*v2, shifted
# one column further right in each row
p = [format_bipoly(BiPoly([[u], [-v]])) for u, v in S.p_band]
q = [format_bipoly(BiPoly([[u, -v]])) for u, v in S.q_band]
print("matrix entries (row by row):")
for band, height in ((p, len(q) - 1), (q, len(p) - 1)):
    for r in range(height):
        print("  [" + ", ".join(["0"] * r + band + ["0"] * (height - 1 - r)) + "]")

F = method_kronecker(P).F
print(f"\nimplicit equation: {format_bipoly(F)} = 0\n")

print("determinant at a point == implicit polynomial at that point:")
for (x0, y0) in [(0, 0), (2, 5), (-7, 2)]:
    [d] = sylvester_line_dets(S, x0, [y0], OpCounter())
    v = sum(c * x0**i * y0**j for i, row in enumerate(F.coeffs) for j, c in enumerate(row))
    ratio = "0" if v == 0 else f"{Fraction(d, v)}"
    print(f"  ({x0}, {y0}): det = {d}, F = {v}, det/F = {ratio}")
print("\n(The constant ratio is the canonical rescaling of F; here the")
print("resultant came out with opposite sign, so the ratio is -1.)")
