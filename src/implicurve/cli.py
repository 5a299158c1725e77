"""Command-line front end: implicitize, bench, and verify subcommands.

Rational functions are written in a small expression grammar, e.g.
``(2*t^2+2*t+1)/(t^3+5)`` or ``t^2-3``; implicit polynomials for ``verify``
use the same term syntax in x and y.  Exit codes: 0 success, 1 input/parse
or I/O error, 2 degenerate input, 3 cross-method disagreement (bench), 4 failed
verification (verify), 5 internal consistency failure (a bug, not bad
input).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import reprlib
import statistics
import sys
import time
from fractions import Fraction

# format_ratfun and format_unipoly belong to this module's text API with the parsers
from .polycore import (
    BiPoly,
    DegenerateParametrizationError,
    RatParam,
    UniPoly,
    coeff_text,
    format_bipoly,
    format_ratfun,
    format_unipoly,
    lowest_terms,
    substitute_check,
)
from .structmat import OpCounter
from .pipeline import (
    METHOD_DUAL_VANDERMONDE,
    METHOD_KRONECKER,
    METHOD_UNSTRUCTURED,
    DegenerateInputError,
    ImplicitResult,
    InternalConsistencyError,
    MethodConfig,
    implicitize,
)

CLI_METHODS = {
    "unstructured": METHOD_UNSTRUCTURED,
    "dualvand": METHOD_DUAL_VANDERMONDE,
    "kron": METHOD_KRONECKER,
}


class ParseError(ValueError):
    """Expression syntax or content error, with the offending position."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (position {position})")
        self.position = position


# --- tokenizer / parsers ---------------------------------------------------

#: Largest exponent of one variable in a term.  It bounds the degrees an
#: input can reach, and with them the work of every method and of the
#: verification proof.
MAX_EXPONENT = 64

_OPS = set("^*/+-()")
#: ASCII only: ``str.isdigit`` also takes other scripts' digits and "²".
_DIGITS = set("0123456789")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in _DIGITS:
            j = i
            while j < len(text) and text[j] in _DIGITS:
                j += 1
            out.append(("int", text[i:j], i))
            i = j
        elif ch.isalpha():
            out.append(("name", ch, i))
            i += 1
        elif ch in _OPS:
            out.append((ch, ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    out.append(("end", "", len(text)))
    return out


class _TokenStream:
    def __init__(self, tokens: list[tuple[str, str, int]]) -> None:
        self.tokens = tokens
        self.pos = 0

    def peek(self, ahead: int = 0) -> str:
        k = min(self.pos + ahead, len(self.tokens) - 1)
        return self.tokens[k][0]

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        if tok[0] != "end":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> tuple[str, str, int]:
        tok = self.take()
        if tok[0] != kind:
            raise ParseError(f"expected {what}", tok[2])
        return tok

    def here(self) -> int:
        return self.tokens[self.pos][2]


def _parse_varfactor(
    ts: _TokenStream, variables: frozenset[str], exps: dict[str, int]
) -> None:
    """Parse ``var`` or ``var^INT`` and add its exponent to ``exps``."""
    tok = ts.take()
    if tok[0] != "name":
        raise ParseError("expected a variable", tok[2])
    if tok[1] not in variables:
        raise ParseError(f"unknown variable {tok[1]!r}", tok[2])
    exp, where = 1, tok[2]
    if ts.peek() == "^":
        ts.take()
        etok = ts.expect("int", "an integer exponent")
        exp, where = int(etok[1]), etok[2]
    total = exps.get(tok[1], 0) + exp
    if total > MAX_EXPONENT:
        raise ParseError(f"exponent exceeds the maximum {MAX_EXPONENT}", where)
    exps[tok[1]] = total


def _parse_term(
    ts: _TokenStream, variables: frozenset[str]
) -> tuple[int | Fraction, dict[str, int]]:
    exps: dict[str, int] = {}
    coef: int | Fraction = 1
    kind = ts.peek()
    if kind == "int":
        coef = int(ts.take()[1])
        # a rational coefficient binds tighter than the top-level "/" of a
        # rational function: INT "/" INT is always a coefficient
        if ts.peek() == "/" and ts.peek(1) == "int":
            ts.take()
            dtok = ts.take()
            if int(dtok[1]) == 0:
                raise ParseError("zero denominator in coefficient", dtok[2])
            coef = Fraction(coef, int(dtok[1]))
    elif kind == "name":
        _parse_varfactor(ts, variables, exps)
    else:
        raise ParseError("expected a term", ts.here())
    while ts.peek() == "*":
        ts.take()
        _parse_varfactor(ts, variables, exps)
    return coef, exps


def _parse_sum(
    ts: _TokenStream, variables: frozenset[str]
) -> list[tuple[int | Fraction, dict[str, int]]]:
    terms = []
    sign = 1
    if ts.peek() in ("+", "-"):
        if ts.take()[0] == "-":
            sign = -1
    while True:
        coef, exps = _parse_term(ts, variables)
        terms.append((sign * coef, exps))
        nxt = ts.peek()
        if nxt == "+":
            ts.take()
            sign = 1
        elif nxt == "-":
            ts.take()
            sign = -1
        else:
            return terms


def _terms_to_unipoly(terms: list[tuple[int | Fraction, dict[str, int]]]) -> UniPoly:
    coeffs: list[int | Fraction] = []
    for coef, exps in terms:
        e = exps.get("t", 0)
        while len(coeffs) <= e:
            coeffs.append(0)
        coeffs[e] += coef
    return UniPoly(coeffs)


def _parse_side(ts: _TokenStream) -> UniPoly:
    parenthesized = ts.peek() == "("
    if parenthesized:
        ts.take()
    p = _terms_to_unipoly(_parse_sum(ts, frozenset("t")))
    if parenthesized:
        ts.expect(")", "a closing parenthesis")
    return p


def _parse_ratfun_raw(text: str) -> tuple[UniPoly, UniPoly]:
    ts = _TokenStream(_tokenize(text))
    num = _parse_side(ts)
    den = UniPoly.one()
    if ts.peek() == "/":
        slash = ts.take()
        den = _parse_side(ts)
        if den.is_zero:
            raise ParseError("denominator polynomial is zero", slash[2])
    ts.expect("end", "end of input")
    return num, den


def parse_rational_function(text: str) -> tuple[UniPoly, UniPoly]:
    """Parse ``num/den`` (or a bare polynomial) in t, reduced to coprime form.

    Each side is a polynomial, optionally parenthesized; coefficients may be
    rationals like ``3/4``.  Raises :class:`ParseError` on syntax errors and
    on a zero denominator polynomial.
    """
    return lowest_terms(*_parse_ratfun_raw(text))[:2]


def parse_poly_xy(text: str) -> BiPoly:
    """Parse a bivariate polynomial in x and y into a coefficient grid."""
    ts = _TokenStream(_tokenize(text))
    terms = _parse_sum(ts, frozenset("xy"))
    ts.expect("end", "end of input")
    m = max((e.get("x", 0) for _, e in terms), default=0)
    n = max((e.get("y", 0) for _, e in terms), default=0)
    grid: list[list[int | Fraction]] = [[0] * (n + 1) for _ in range(m + 1)]
    for coef, exps in terms:
        grid[exps.get("x", 0)][exps.get("y", 0)] += coef
    return BiPoly(grid)


# --- rendering -------------------------------------------------------------


def canonical_digest(F: BiPoly) -> str:
    """The SHA-256 hex digest of ``F``'s degrees and canonical coefficients,
    ``bench``'s ``hash``: equal digests mean equal canonical polynomials."""
    # imported here: only bench hashes, and OpenSSL costs about 4 MB resident
    import hashlib

    payload = f"{F.m}|{F.n}|" + ",".join(coeff_text(c) for c in F.flat())
    return hashlib.sha256(payload.encode()).hexdigest()


def result_to_doc(result: ImplicitResult, method: str) -> dict:
    F = result.F
    return {
        "m": F.m,
        "n": F.n,
        "basis": "x^i*y^j (i-major)",
        "coeffs": [[coeff_text(c) for c in row] for row in F.coeffs],
        "verified": result.verified,
        "degree_tight": result.degree_tight,
        "method": method,
    }


# --- subcommands -----------------------------------------------------------


def _parse_param(x_text: str, y_text: str) -> RatParam:
    # parse without reducing so RatParam can flag non-coprime input
    u1, v1 = _parse_ratfun_raw(x_text)
    u2, v2 = _parse_ratfun_raw(y_text)
    return RatParam(u1, v1, u2, v2)


#: ``--primes``: two integers in ASCII digits, as the expression grammar reads
#: them, each signed or not and with spaces around it, as ``int`` allows.
_PRIMES_ARG = re.compile(r"\s*([+-]?\d+)\s*,\s*([+-]?\d+)\s*", re.ASCII)


def cmd_implicitize(args: argparse.Namespace) -> int:
    try:
        P = _parse_param(args.x, args.y)
        primes = _PRIMES_ARG.fullmatch(args.primes)
        if not primes:
            raise ValueError("--primes expects two comma-separated primes")
        p1, p2 = map(int, primes.groups())
        cfg = MethodConfig(method=CLI_METHODS[args.method], p1=p1, p2=p2)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if P.was_reduced:
        print("note: components were reduced to lowest terms", file=sys.stderr)
    result = implicitize(P, cfg)
    if args.json:
        payload = json.dumps(result_to_doc(result, cfg.method), indent=2)
    else:
        payload = format_bipoly(result.F)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    try:
        P = _parse_param(args.x, args.y)
        if args.methods == "all":
            names = list(CLI_METHODS)
        else:
            names = [s.strip() for s in args.methods.split(",") if s.strip()]
            unknown = [s for s in names if s not in CLI_METHODS]
            if unknown:
                raise ValueError(f"unknown methods: {', '.join(unknown)}")
            if not names:
                raise ValueError("--methods names no method")
        if args.repeat < 1:
            raise ValueError("--repeat must be at least 1")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    records = []
    for name in names:
        cfg = MethodConfig(method=CLI_METHODS[name])
        samples = []
        for _ in range(args.repeat):
            t0 = time.perf_counter()
            result = implicitize(P, cfg)
            samples.append((time.perf_counter() - t0) * 1000.0)
        records.append(
            {
                "method": CLI_METHODS[name],
                "wall_ms": statistics.median(samples),
                "data_ops": _op_counts(result.data_counter),
                "solve_ops": _op_counts(result.solve_counter),
                "max_bits": result.counter.max_bits,
                "det_evals": result.det_evals,
                "verified": result.verified,
                "degree_tight": result.degree_tight,
                "hash": canonical_digest(result.F),
            }
        )
    agreed = len({r["hash"] for r in records}) == 1
    report = {
        "input": {"x": args.x, "y": args.y},
        "repeat": args.repeat,
        "methods": records,
        "agreed": agreed,
    }
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        _print_bench_table(report)
    return 0 if agreed else 3


def _op_counts(counter: OpCounter) -> dict:
    return {"adds": counter.adds, "muls": counter.muls, "divs": counter.divs}


def _print_bench_table(report: dict) -> None:
    print(
        f"{'method':<17}{'wall_ms':>9}  {'data a/m/d':>20}  "
        f"{'solve a/m/d':>20}  {'bits':>5} {'dets':>5} {'ok':>3}  hash"
    )
    for r in report["methods"]:
        d, s = r["data_ops"], r["solve_ops"]
        data_ops = f"{d['adds']}/{d['muls']}/{d['divs']}"
        solve_ops = f"{s['adds']}/{s['muls']}/{s['divs']}"
        ok = "y" if r["verified"] else "N"
        print(
            f"{r['method']:<17}{r['wall_ms']:>9.2f}  {data_ops:>20}  "
            f"{solve_ops:>20}  {r['max_bits']:>5} {r['det_evals']:>5} "
            f"{ok:>3}  {r['hash'][:12]}"
        )
    print("agreed:", "yes" if report["agreed"] else "NO")


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        P = _parse_param(args.x, args.y)
        F = _load_poly(args.poly)
        if F.is_zero:
            raise ValueError("the zero polynomial cannot be verified")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if substitute_check(F, P):
        print("PASS: polynomial vanishes along the parametrization")
        return 0
    print("FAIL: polynomial does not vanish along the parametrization")
    return 4


#: A JSON string coefficient: an integer or a quotient of integers, as
#: ``implicitize --json`` writes them.  Decimal strings are refused, since
#: ``Fraction("1e2000000")`` would build a 2-million-digit integer, and so
#: are JSON numbers other than ints: a float is a binary fraction.
_JSON_COEFF = re.compile(r"[+-]?\d+(/\d+)?", re.ASCII)


def _load_poly(source: str) -> BiPoly:
    """A polynomial from an expression, from a JSON grid as ``implicitize
    --json`` writes it (each degree capped at ``MAX_EXPONENT`` as in an
    expression, each coefficient a JSON int or a string ``p`` or ``p/q``),
    or from a file holding either; bad input raises ``ValueError``."""
    text = source
    if os.path.isfile(source):
        with open(source) as fh:
            text = fh.read()
    text = text.strip()
    if not text.startswith("{"):
        return parse_poly_xy(text)
    try:
        rows = json.loads(text).get("coeffs")
    except RecursionError:
        raise ValueError("JSON polynomial nested too deeply") from None
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError('a JSON polynomial needs "coeffs": a list of coefficient rows')
    if len(rows) > MAX_EXPONENT + 1 or any(len(row) > MAX_EXPONENT + 1 for row in rows):
        raise ValueError(f"JSON grid degree exceeds the maximum {MAX_EXPONENT}")
    for i, row in enumerate(rows):
        for j, c in enumerate(row):
            if type(c) is not int and not (isinstance(c, str) and _JSON_COEFF.fullmatch(c)):
                raise ValueError(f"bad JSON coefficient at row {i}, column {j}: "
                                 f"{reprlib.repr(c)} is not an int, p or p/q")
    try:
        return BiPoly([[c if type(c) is int else Fraction(c) if "/" in c else int(c)
                        for c in row] for row in rows])
    except ZeroDivisionError as exc:
        raise ValueError(f"bad JSON coefficient: {exc}") from None


class _ArgumentParser(argparse.ArgumentParser):
    """Exits 1 on a usage error, the input-error code; argparse's own 2
    would read as "degenerate input"."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def _parser() -> _ArgumentParser:
    """The argument parser, built once per process."""
    parser = _ArgumentParser(
        prog="implicurve",
        description="Exact implicitization of rationally parametrized plane curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_imp = sub.add_parser("implicitize", help="compute the implicit polynomial")
    p_imp.add_argument("--x", required=True, metavar="RATFUN", help="x(t), e.g. '(1+t)/(2+t)'")
    p_imp.add_argument("--y", required=True, metavar="RATFUN", help="y(t), e.g. '(3+t)/(4+t)'")
    p_imp.add_argument("--method", choices=sorted(CLI_METHODS), default="kron")
    p_imp.add_argument("--primes", default="2,3", metavar="P1,P2",
                       help="node primes for dualvand (default 2,3)")
    p_imp.add_argument("--json", action="store_true", help="emit a JSON document")
    p_imp.add_argument("--out", metavar="PATH", help="write output to a file")
    p_imp.set_defaults(func=cmd_implicitize)

    p_bench = sub.add_parser("bench", help="run methods side by side and compare")
    p_bench.add_argument("--x", required=True, metavar="RATFUN")
    p_bench.add_argument("--y", required=True, metavar="RATFUN")
    p_bench.add_argument("--methods", default="all",
                         help="'all' or comma list of: " + ",".join(sorted(CLI_METHODS)))
    p_bench.add_argument("--repeat", type=int, default=1, metavar="K",
                         help="samples per method; wall time is the median")
    p_bench.add_argument("--json", action="store_true")
    p_bench.set_defaults(func=cmd_bench)

    p_ver = sub.add_parser("verify", help="check a polynomial against a parametrization")
    p_ver.add_argument("--x", required=True, metavar="RATFUN")
    p_ver.add_argument("--y", required=True, metavar="RATFUN")
    p_ver.add_argument("--poly", required=True,
                       help="polynomial in x,y — inline expression, JSON, or a file path")
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; the failures every subcommand shares map to
    their exit codes here, the input errors of each in its ``cmd_*``."""
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (DegenerateParametrizationError, DegenerateInputError) as exc:
        print(f"error: degenerate input: {exc}", file=sys.stderr)
        return 2
    except InternalConsistencyError as exc:
        print(f"error: internal consistency failure: {exc}", file=sys.stderr)
        return 5
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
