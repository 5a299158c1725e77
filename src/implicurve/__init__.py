"""Exact-arithmetic implicitization of rational plane curves.

Turn a rational parametrization x(t) = u1/v1, y(t) = u2/v2 into the
implicit equation F(x, y) = 0 of the traced curve, entirely over exact
rationals.  Three interpolation pipelines are provided, distinguished by
their node choice and therefore by the structure of the linear system they
solve: see :mod:`implicurve.pipeline`.
"""

from .polycore import (
    BiPoly,
    DegenerateParametrizationError,
    Rat,
    RatParam,
    UniPoly,
    bipoly_canonicalize,
    format_bipoly,
    format_ratfun,
    format_unipoly,
    substitute_check,
)
from .structmat import (
    DuplicateNodeError,
    ModEchelon,
    OpCounter,
    PolyMat,
    build_parametric_sylvester,
    kron_solve,
    sylvester_line_dets,
    vandermonde_solve_dual,
    vandermonde_solve_primal,
)
from .pipeline import (
    METHOD_DUAL_VANDERMONDE,
    METHOD_KRONECKER,
    METHOD_UNSTRUCTURED,
    METHODS,
    DegenerateInputError,
    DegreeBounds,
    ImplicitResult,
    InternalConsistencyError,
    MethodConfig,
    degree_bounds,
    implicitize,
    method_dual_vandermonde,
    method_kronecker,
    method_unstructured,
    nodes_on_curve,
)
from .cli import (
    ParseError,
    canonical_digest,
    parse_poly_xy,
    parse_rational_function,
)

__version__ = "0.1.0"

__all__ = [
    "BiPoly",
    "DegenerateInputError",
    "DegenerateParametrizationError",
    "DegreeBounds",
    "DuplicateNodeError",
    "ImplicitResult",
    "InternalConsistencyError",
    "ModEchelon",
    "METHOD_DUAL_VANDERMONDE",
    "METHOD_KRONECKER",
    "METHOD_UNSTRUCTURED",
    "METHODS",
    "MethodConfig",
    "OpCounter",
    "PolyMat",
    "Rat",
    "RatParam",
    "UniPoly",
    "bipoly_canonicalize",
    "build_parametric_sylvester",
    "degree_bounds",
    "implicitize",
    "kron_solve",
    "method_dual_vandermonde",
    "method_kronecker",
    "method_unstructured",
    "nodes_on_curve",
    "ParseError",
    "canonical_digest",
    "format_bipoly",
    "format_ratfun",
    "format_unipoly",
    "parse_poly_xy",
    "parse_rational_function",
    "substitute_check",
    "sylvester_line_dets",
    "vandermonde_solve_dual",
    "vandermonde_solve_primal",
]
