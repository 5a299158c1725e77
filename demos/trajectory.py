"""Write one row of the performance trajectory: every method on a fixed
corpus, wall time split into stages, with the exact counts beside it.

    PYTHONPATH=src python demos/trajectory.py --label <name> --out BENCH_1.json

The corpus is HYPERBOLA and CUBIC, ``rand_ratparam(Random(404), d,
exact=True)`` for d = 2..10 and one rational-coefficient curve (d = 4),
built with the generators in ``tests/util.py``.  The determinant methods
run on every curve, the unstructured method up to d = 8.

Each run is timed ``--k`` times.  The stages are timed by rebinding the
kernels through ``pipeline``'s module names, one ``perf_counter_ns`` pair
per call: data (the Sylvester line kernel, the Kronecker decode and the
unstructured rows), solve (the Björck-Pereyra solves, and the modular
elimination, CRT and reconstruction), canonicalize and proof.  A record
holds the median of each over the k runs, the exact op counts, ``max_bits``,
``det_evals``, ``primes`` and the ``bench`` hash of F.  The counts and
hashes repeat exactly from run to run and machine to machine; the times
are the trajectory.  ``--out`` appends the row to the file's ``rows``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import sys
from pathlib import Path
from time import perf_counter_ns

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))

from implicurve import METHODS, MethodConfig, implicitize, pipeline  # noqa: E402
from implicurve.cli import canonical_digest  # noqa: E402

from util import CUBIC, HYPERBOLA, rand_ratparam  # noqa: E402

STAGES = ("data", "solve", "canonicalize", "proof")
#: The ``pipeline`` function names timed, by stage; a name the program
#: does not have is skipped.
KERNELS = {
    "data": ("sylvester_line_dets", "_signed_digits", "_residue_row"),
    "solve": ("vandermonde_solve_primal", "vandermonde_solve_dual", "kron_solve",
              "_crt", "_scaled_reconstruction"),
    "canonicalize": ("bipoly_canonicalize",),
    "proof": ("substitute_check",),
}
UNSTRUCTURED_MAX_DEGREE = 8


def corpus() -> list[tuple[str, int, object]]:
    """(name, degree, curve) of every curve of the trajectory."""
    curves = [("HYPERBOLA", 1, HYPERBOLA), ("CUBIC", 3, CUBIC)]
    curves += [(f"Random(404) d={d}", d, rand_ratparam(random.Random(404), d, exact=True))
               for d in range(2, 11)]
    rational = rand_ratparam(random.Random(404), 4, exact=True, rational=True)
    return curves + [("Random(404) d=4 rational", 4, rational)]


class _Timers:
    """Stage totals in ns, fed by wrappers bound over ``pipeline``'s names."""

    def __init__(self) -> None:
        self.ns = dict.fromkeys(STAGES, 0)
        self._bound: list[tuple[str, object]] = []

    def _wrap(self, stage: str, fn):
        def timed(*args, **kwargs):
            start = perf_counter_ns()
            out = fn(*args, **kwargs)
            self.ns[stage] += perf_counter_ns() - start
            return out
        return timed

    def __enter__(self) -> _Timers:
        for stage, names in KERNELS.items():
            for name in names:
                fn = getattr(pipeline, name, None)
                if fn is not None:
                    self._bound.append((name, fn))
                    setattr(pipeline, name, self._wrap(stage, fn))
        base, timers = pipeline.ModEchelon, self

        class TimedEchelon(base):  # the modular elimination, row by row
            def add(self, row):
                start = perf_counter_ns()
                super().add(row)
                timers.ns["solve"] += perf_counter_ns() - start

            def null_vectors(self):
                start = perf_counter_ns()
                vectors = super().null_vectors()
                timers.ns["solve"] += perf_counter_ns() - start
                return vectors

        self._bound.append(("ModEchelon", base))
        pipeline.ModEchelon = TimedEchelon
        return self

    def __exit__(self, *exc) -> None:
        for name, fn in reversed(self._bound):
            setattr(pipeline, name, fn)


def run_record(name: str, P, method: str, k: int) -> dict:
    """One method on one curve, ``k`` timed runs: the record described above."""
    walls, stages, result = [], {s: [] for s in STAGES}, None
    for _ in range(k):
        with _Timers() as timers:
            start = perf_counter_ns()
            result = implicitize(P, MethodConfig(method=method))
            walls.append(perf_counter_ns() - start)
        for stage in STAGES:
            stages[stage].append(timers.ns[stage])
    counts = {stage: dict(adds=c.adds, muls=c.muls, divs=c.divs, max_bits=c.max_bits)
              for stage, c in (("data", result.data_counter), ("solve", result.solve_counter))}
    return {
        "curve": name, "method": method, "m": result.bounds.m, "n": result.bounds.n,
        "wall_ms": round(statistics.median(walls) / 1e6, 4),
        "stages_ms": {s: round(statistics.median(v) / 1e6, 4) for s, v in stages.items()},
        "counts": counts, "det_evals": result.det_evals, "primes": result.primes,
        "hash": canonical_digest(result.F)[:12],
    }


def row(label: str, k: int) -> dict:
    runs = [
        run_record(name, P, method, k)
        for name, degree, P in corpus()
        for method in METHODS
        if method != pipeline.METHOD_UNSTRUCTURED or degree <= UNSTRUCTURED_MAX_DEGREE
    ]
    cpu = next((line.split(":", 1)[1].strip() for line in _cpuinfo() if line.startswith("model name")),
               platform.processor() or platform.machine())
    return {"label": label, "k": k, "python": platform.python_version(), "cpu": cpu,
            "cpus": os.cpu_count(), "runs": runs}


def _cpuinfo() -> list[str]:
    try:
        return Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        return []


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True, help="what was measured, e.g. a commit")
    ap.add_argument("--out", type=Path, help="append the row to this JSON file")
    ap.add_argument("--k", type=int, default=5, help="timed runs per record (median)")
    args = ap.parse_args()
    new = row(args.label, args.k)
    if args.out is None:
        print(json.dumps(new, indent=1))
        return
    doc = json.loads(args.out.read_text()) if args.out.exists() else {"rows": []}
    doc["rows"].append(new)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
