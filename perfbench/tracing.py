"""Per-layer spans around the program's stage calls.

A span is installed by rebinding a function's name, in every loaded
``implicurve.*`` module that refers to that very function object, to a
timing wrapper.  The kernel modules ``polycore`` and ``structmat`` are left
alone: ``eval_polymat`` calls ``bipoly_eval`` once per matrix entry, and
wrapping those calls would cost more than the work they time.  So the spans
cover the stage calls made from the pipeline module and from ``cli``.  The
package attribute ``implicurve.implicitize`` is the function, not the
pipeline module, so modules are found through ``sys.modules``.

A layer's self time is its spans' time minus the time of the spans they
enclose.  A function that a later version of the program no longer has is
skipped and reports 0 calls.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter_ns

#: (span name, module that defines the function, attribute name).
STAGES = (
    ("implicitize", "implicurve", "implicitize"),
    ("polycore.substitute_check", "implicurve.polycore", "substitute_check"),
    ("polycore.bipoly_eval", "implicurve.polycore", "bipoly_eval"),
    ("polycore.bipoly_canonicalize", "implicurve.polycore", "bipoly_canonicalize"),
    ("structmat.build_parametric_sylvester", "implicurve.structmat", "build_parametric_sylvester"),
    ("structmat.eval_polymat", "implicurve.structmat", "eval_polymat"),
    ("structmat.det_bareiss", "implicurve.structmat", "det_bareiss"),
    ("structmat.nullspace", "implicurve.structmat", "nullspace"),
    ("structmat.kron_solve", "implicurve.structmat", "kron_solve"),
    ("structmat.vandermonde_solve_dual", "implicurve.structmat", "vandermonde_solve_dual"),
)
#: Spans the benchmark opens around its own calls into the program.
ROOT_SPANS = ("cli.main",)
SPANS = tuple(name for name, _, _ in STAGES) + ROOT_SPANS

_KERNELS = ("implicurve.polycore", "implicurve.structmat")


class Tracer:
    """Self time and call count per span, plus every ``ImplicitResult`` the
    ``implicitize`` span returned."""

    def __init__(self) -> None:
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.results: list = []
        self._child_ns = [0]
        self._bound: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        def span(*args, **kwargs):
            self._child_ns.append(0)
            start = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                took = perf_counter_ns() - start
                self.self_ns[name] += took - self._child_ns.pop()
                self._child_ns[-1] += took
                self.calls[name] += 1
            if name == "implicitize":
                self.results.append(out)
            return out

        return span

    def install(self) -> None:
        callers = [
            mod
            for modname, mod in list(sys.modules.items())
            if modname.startswith("implicurve.") and modname not in _KERNELS
        ]
        for name, home, attr in STAGES:
            fn = getattr(sys.modules.get(home), attr, None)
            if fn is None:
                continue
            span = self.wrap(name, fn)
            for mod in callers:
                if getattr(mod, attr, None) is fn:
                    setattr(mod, attr, span)
                    self._bound.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._bound):
            setattr(mod, attr, fn)
        self._bound.clear()
