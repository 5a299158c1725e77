"""Call census: every function and method the package defines must run.

A definition that no pipeline and no subcommand calls is dead code, kept
only by its own tests.  Under ``sys.setprofile`` this test runs the three
methods on the reference curves, on a rational curve that needs several
primes and on an input that must be reduced to lowest terms, then runs
``main`` for each subcommand and for one input per exit code.  Every
function, method and property written in ``src/implicurve``, dunder
methods such as operators included, must have been entered, apart from
``__repr__`` and the public API in ``KEPT``, which is there for outside
callers and says why.
"""

import inspect
import json
import sys
from dataclasses import replace
from fractions import Fraction

from implicurve import (
    METHOD_KRONECKER,
    METHODS,
    BiPoly,
    InternalConsistencyError,
    MethodConfig,
    RatParam,
    UniPoly,
    cli,
    implicitize,
    pipeline,
    polycore,
    structmat,
)

from util import CUBIC, HYPERBOLA

#: Definitions no run of the program calls, by qualified name, with why
#: they stay.
KEPT = {
    "pipeline.nodes_on_curve": "public API: the first points of the unstructured sweep",
    "cli.parse_rational_function": "public API: one component, parsed in lowest terms",
    "polycore.format_ratfun": "public API: the text of a component, which the parser reads",
    "polycore.format_unipoly": "public API: the text of a polynomial, also its repr",
    "UniPoly.__eq__": "public API: comparing results",
    "BiPoly.__eq__": "public API: comparing results",
    "BiPoly._trimmed_key": "behind BiPoly equality, for callers comparing results",
    "OpCounter.muldivs": "public API: the cost figure of the paper, for callers",
}


def _definitions():
    """(qualified name, code object) of every function, method and property
    written in the package's modules, dunders included; ``__repr__`` and
    the methods a dataclass generates, whose code is not in the module's
    file, are left out."""
    for mod in (polycore, structmat, pipeline, cli):
        short = mod.__name__.rsplit(".", 1)[1]
        for name, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{short}.{name}", obj.__code__
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    fn = member.fget if isinstance(member, property) else member
                    fn = getattr(fn, "__func__", fn)  # classmethod, staticmethod
                    if (inspect.isfunction(fn) and attr != "__repr__"
                            and fn.__code__.co_filename == mod.__file__):
                        yield f"{obj.__qualname__}.{attr}", fn.__code__


def _workload(tmp_path, monkeypatch):
    wide = [UniPoly([Fraction(7**k + 3, 2**31 - k) for k in range(d + 1)]) for d in (2, 3, 1, 3)]
    curves = [
        HYPERBOLA,
        CUBIC,
        RatParam(*wide),  # rational, wide: the modular solve needs several primes
        # x = t (t + 1) / ((t + 2)(t + 1)), y = t^2: not in lowest terms
        RatParam(UniPoly([0, 1, 1]), UniPoly([2, 3, 1]), UniPoly([0, 0, 1]), UniPoly.one()),
    ]
    # a cold prime cache, so the wide curve finds its primes whatever ran before
    monkeypatch.setattr(polycore, "_PRIMES", [polycore.COPRIME_PRIME])
    for P in curves:
        for method in METHODS:
            implicitize(P, MethodConfig(method=method))

    hyperbola = ["--x", "(1+t)/(2+t)", "--y", "(3+t)/(4+t)"]
    out = tmp_path / "f.json"
    codes = [
        cli.main(["implicitize", *hyperbola, "--json", "--out", str(out)]),
        cli.main(["implicitize", "--x", "(t^2+t)/(t+1)", "--y", "t^3", "--method", "dualvand"]),
        cli.main(["bench", *hyperbola, "--repeat", "2"]),
        cli.main(["bench", *hyperbola, "--methods", "kron", "--json"]),
        cli.main(["verify", *hyperbola, "--poly", str(out)]),
        cli.main(["verify", *hyperbola, "--poly", json.dumps({"coeffs": [[2, "-3"], [-1, 2]]})]),
        cli.main(["implicitize", "--x", "(1+", "--y", "t"]),  # 1: parse error
        cli.main(["implicitize", "--x", "3", "--y", "t"]),  # 2: constant component
        cli.main(["verify", *hyperbola, "--poly", "x - y"]),  # 4: does not vanish
    ]
    try:
        cli.main(["implicitize", "--x", "t"])  # a usage error exits 1 from argparse
    except SystemExit as exc:
        codes.append(exc.code)
    real = cli.implicitize

    def skewed(P, cfg=None):
        result = real(P, cfg)
        return replace(result, F=BiPoly([[1]])) if cfg.method == METHOD_KRONECKER else result

    def broken(P, cfg=None):
        raise InternalConsistencyError(
            "computed polynomial does not vanish along the parametrization"
        )

    monkeypatch.setattr(cli, "implicitize", skewed)
    codes.append(cli.main(["bench", *hyperbola]))  # 3: cross-method disagreement
    monkeypatch.setattr(cli, "implicitize", broken)
    codes.append(cli.main(["implicitize", *hyperbola]))  # 5: internal consistency
    return codes


def test_every_definition_is_called(tmp_path, monkeypatch, capsys):
    defined = dict(_definitions())
    assert set(KEPT) <= set(defined), set(KEPT) - set(defined)
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        codes = _workload(tmp_path, monkeypatch)
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert codes == [0, 0, 0, 0, 0, 0, 1, 2, 4, 1, 3, 5]
    never = {name for name, code in defined.items() if code not in entered}
    assert sorted(never - set(KEPT)) == [], "never called"
    assert sorted(set(KEPT) - never) == [], "called after all: drop it from KEPT"
