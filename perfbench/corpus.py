"""Seeded request corpus of the benchmark workloads.

The exact-degree generator and the two reference curves are copies of the
ones the test suite uses, kept here so that the corpus does not drift when
the tests change; only the numerator degrees are balanced here (see
``balanced_degrees``).  Every curve is stored as it is sent to the program,
together with its tracing index and the bidegree of its true implicit
equation; both are known by construction, so the output check never has to
ask the program for them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

Coeffs = tuple[Fraction, ...]
DEFAULT_SEED = 1


@dataclass(frozen=True)
class Curve:
    """x = u1/v1, y = u2/v2 with ascending coefficients, as sent.

    ``bidegree`` is (deg_x F, deg_y F) of the true implicit equation F, or
    None when the program must refuse the curve (a constant component).
    ``r`` is the tracing index: how often the parametrization runs around
    the curve.
    """

    u1: Coeffs
    v1: Coeffs
    u2: Coeffs
    v2: Coeffs
    bidegree: tuple[int, int] | None
    r: int = 1


def _curve(u1, v1, u2, v2, bidegree, r=1) -> Curve:
    return Curve(*(tuple(Fraction(c) for c in p) for p in (u1, v1, u2, v2)), bidegree, r)


# x = (1+t)/(2+t), y = (3+t)/(4+t): the hyperbola 2 - 3y - x + 2xy = 0.
HYPERBOLA = _curve([1, 1], [2, 1], [3, 1], [4, 1], (1, 1))
# x = (2t^2+2t+1)/(t^3+5), y = (t^3-3t^2+t-1)/(t^2-3): a dense (3, 3) curve.
CUBIC = _curve([1, 2, 2], [5, 0, 0, 1], [-1, 1, -3, 1], [-3, 0, 1], (3, 3))
# x = y = t^2 runs twice around the line x = y; the resultant is (x - y)^2.
DOUBLE_LINE = _curve([0, 0, 1], [1], [0, 0, 1], [1], (1, 1), r=2)
# x = 3 is a constant component: no implicit equation exists, exit code 2.
CONSTANT = _curve([3], [1], [0, 1], [1], None)


def rand_coeffs(rng: random.Random, degree: int, rational: bool) -> list[Fraction]:
    """Random coefficients in -9..9 of exactly the given degree; rational
    ones have denominators 1..5."""

    def draw(nonzero: bool) -> Fraction:
        num = rng.choice([v for v in range(-9, 10) if v]) if nonzero else rng.randint(-9, 9)
        return Fraction(num, rng.randint(1, 5) if rational else 1)

    return [draw(False) for _ in range(degree)] + [draw(True)]


def exact_degree_curve(rng: random.Random, d: int, program, rational: bool = False,
                       num_degrees: tuple[int, int] | None = None):
    """Random curve whose reduced components both have degree ``d``.

    Returns the curve and the program's ``RatParam`` of it.  Denominators
    carry the top degree; redraws until the reduced form keeps it.  The
    numerators have the degrees ``num_degrees``, or random ones in 0..d.
    """
    while True:
        a, b = num_degrees or (rng.randint(0, d), rng.randint(0, d))
        comps = [
            rand_coeffs(rng, a, rational),
            rand_coeffs(rng, d, rational),
            rand_coeffs(rng, b, rational),
            rand_coeffs(rng, d, rational),
        ]
        P = program.RatParam(*(program.UniPoly(c) for c in comps))
        b = program.degree_bounds(P)
        if b.m == d and b.n == d:
            return _curve(*comps, (d, d)), P


def composed_curve(rng: random.Random, program) -> Curve:
    """Q(t^2) for a random proper degree-2 curve Q: degree 4, tracing index 2."""
    q, _ = exact_degree_curve(rng, 2, program)

    def spread(p: Coeffs) -> list[Fraction]:
        out = [Fraction(0)] * (2 * len(p) - 1)
        out[::2] = p
        return out

    return _curve(spread(q.u1), spread(q.v1), spread(q.u2), spread(q.v2), (2, 2), r=2)


def unreduced_curve(rng: random.Random, program) -> Curve:
    """A degree-4 curve sent with a common factor (t + k) in x's fraction."""
    base, _ = exact_degree_curve(rng, 4, program)
    k = rng.randint(1, 9)

    def times(p: Coeffs) -> list[Fraction]:
        out = [Fraction(0)] * (len(p) + 1)
        for i, c in enumerate(p):
            out[i] += k * c
            out[i + 1] += c
        return out

    return _curve(times(base.u1), times(base.v1), base.u2, base.v2, base.bidegree)


def render_poly(p: Coeffs) -> str:
    """Text of a polynomial in t, in the grammar the command line parses."""
    pieces = []
    for k in range(len(p) - 1, -1, -1):
        c = p[k]
        if c == 0:
            continue
        mon = "" if k == 0 else ("t" if k == 1 else f"t^{k}")
        mag = abs(c)
        body = str(mag) if not mon else (mon if mag == 1 else f"{mag}*{mon}")
        sign = "-" if c < 0 else ""
        pieces.append(f"{sign}{body}" if not pieces else f" {sign or '+'} {body}")
    return "".join(pieces) or "0"


def render_ratfun(num: Coeffs, den: Coeffs) -> str:
    if den == (1,):
        return render_poly(num)
    return f"({render_poly(num)})/({render_poly(den)})"


def cli_argv(curve: Curve, method: str) -> list[str]:
    return [
        "implicitize",
        "--x", render_ratfun(curve.u1, curve.v1),
        "--y", render_ratfun(curve.u2, curve.v2),
        "--method", method,
        "--json",
    ]


@dataclass(frozen=True)
class Workload:
    """One kind of request.  ``rate`` (curves/s) is about the rescaled rate
    of the program at the benchmark's first version; a run of ``seconds``
    serves ``seconds * rate`` requests, however fast the program is."""

    name: str
    degree: int
    method: str
    cli: bool
    rate: float


#: Why each workload is there: see the ``why`` lines in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("kron-d5", 5, "kronecker", False, 5.0),
        Workload("unstructured-d4", 4, "unstructured", False, 5.5),
        Workload("cli-dualvand", 4, "dualvand", True, 11.0),
    )
}

#: Request positions of the special cases in ``cli-dualvand``.  All lie in
#: the first 24 requests, which every run completes, and light and heavy
#: ones alternate between the traced (odd) and untraced positions.
SPECIAL_AT = (2, 7, 10, 15, 18, 23)


def balanced_degrees(rng: random.Random, d: int, count: int) -> list[tuple[int, int]]:
    """Numerator degrees of ``count`` random curves of degree ``d``.

    The degrees of the two numerators explain about 70% of the variance of
    a request's time (kron-d5 on a 2.1 GHz Xeon vCPU: 109 ms mean at
    degrees (0, 0), 269 ms at (5, 5)).  Drawn independently, as in the test suite, their mix changes
    from seed to seed and moves every figure of a run with it.  So each
    block of (d + 1)^2 requests has every pair of degrees once, in an order
    shuffled by the seed.
    """
    pairs = [(a, b) for a in range(d + 1) for b in range(d + 1)]
    out = []
    while len(out) < count:
        block = pairs[:]
        rng.shuffle(block)
        out += block
    return out[:count]


def build(workload: Workload, seed: int, count: int, program):
    """``count`` distinct requests of ``workload`` with their curves.

    A request is a ``RatParam`` for the API workloads and an argument list
    for ``cli.main`` on the command-line workload.  On the command-line
    workload every third random curve has rational coefficients, and six
    special cases sit at ``SPECIAL_AT``: the two reference curves, an input
    not in lowest terms, two improper curves and a constant component.
    """
    rng = random.Random(f"{workload.name}:{seed}")
    if not workload.cli:
        pairs = [
            exact_degree_curve(rng, workload.degree, program, num_degrees=nd)
            for nd in balanced_degrees(rng, workload.degree, count)
        ]
        return [P for _, P in pairs], [c for c, _ in pairs]
    specials = [
        HYPERBOLA, CUBIC, unreduced_curve(rng, program), DOUBLE_LINE,
        composed_curve(rng, program), CONSTANT,
    ]
    curves = [
        exact_degree_curve(rng, workload.degree, program, rational=i % 3 == 2, num_degrees=nd)[0]
        for i, nd in enumerate(balanced_degrees(rng, workload.degree, count - len(specials)))
    ]
    for pos, special in zip(SPECIAL_AT, specials):
        curves.insert(pos, special)
    return [cli_argv(c, workload.method) for c in curves], curves
