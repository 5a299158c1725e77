"""Write one row of the performance trajectory: every method on a fixed
corpus, wall time split into stages, with the exact counts beside it.

    PYTHONPATH=src python demos/trajectory.py --label <name> --out BENCH_1.json

The corpus is HYPERBOLA and CUBIC, ``rand_ratparam(Random(404), d,
exact=True)`` for d = 2..10 and one rational-coefficient curve (d = 4),
built with the generators in ``tests/util.py``.  The determinant methods
run on every curve, the unstructured method up to d = 8.

Each run is timed ``--k`` times.  The stages are the run's own
``ImplicitResult.stages``: data (the Sylvester matrix and line kernels and
the Kronecker decode, or the point sweep and the unstructured rows), solve
(the Björck-Pereyra solves, or the modular elimination, CRT and
reconstruction), canonicalize and proof.  A record holds the median of each
over the k runs, the exact op counts, ``max_bits``, ``det_evals``,
``primes`` and the ``bench`` hash of F.  The counts and hashes repeat
exactly from run to run and machine to machine (``tests/test_trajectory.py``
recomputes the newest row of ``BENCH_1.json``); the times are the
trajectory.  ``--out`` appends the row to the file's ``rows``.
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

from implicurve import METHODS, MethodConfig, implicitize  # noqa: E402
from implicurve.cli import canonical_digest  # noqa: E402
from implicurve.pipeline import METHOD_UNSTRUCTURED, STAGES  # noqa: E402

from util import CUBIC, HYPERBOLA, rand_ratparam  # noqa: E402

UNSTRUCTURED_MAX_DEGREE = 8


def corpus() -> list[tuple[str, int, object]]:
    """(name, degree, curve) of every curve of the trajectory."""
    curves = [("HYPERBOLA", 1, HYPERBOLA), ("CUBIC", 3, CUBIC)]
    curves += [(f"Random(404) d={d}", d, rand_ratparam(random.Random(404), d, exact=True))
               for d in range(2, 11)]
    rational = rand_ratparam(random.Random(404), 4, exact=True, rational=True)
    return curves + [("Random(404) d=4 rational", 4, rational)]


def cases():
    """(name, curve, method) of every record of a row, in order."""
    for name, degree, P in corpus():
        for method in METHODS:
            if method != METHOD_UNSTRUCTURED or degree <= UNSTRUCTURED_MAX_DEGREE:
                yield name, P, method


def run_record(name: str, P, method: str, k: int) -> dict:
    """One method on one curve, ``k`` timed runs: the record described above."""
    walls, stages = [], {s: [] for s in STAGES}
    for _ in range(k):
        start = perf_counter_ns()
        result = implicitize(P, MethodConfig(method=method))
        walls.append(perf_counter_ns() - start)
        for stage in STAGES:
            stages[stage].append(result.stages[stage])
    return {
        "curve": name, "method": method, "m": result.bounds.m, "n": result.bounds.n,
        "wall_ms": round(statistics.median(walls) / 1e6, 4),
        "stages_ms": {s: round(statistics.median(v) / 1e6, 4) for s, v in stages.items()},
        **exact_fields(result),
    }


def exact_fields(result) -> dict:
    """The fields of a record that repeat exactly: the data and solve
    counts with ``max_bits``, ``det_evals``, ``primes`` and F's hash."""
    counts = {stage: dict(adds=c.adds, muls=c.muls, divs=c.divs, max_bits=c.max_bits)
              for stage, c in (("data", result.data_counter), ("solve", result.solve_counter))}
    return {"counts": counts, "det_evals": result.det_evals, "primes": result.primes,
            "hash": canonical_digest(result.F)[:12]}


def row(label: str, k: int) -> dict:
    runs = [run_record(name, P, method, k) for name, P, method in cases()]
    cpu = next((line.split(":", 1)[1].strip() for line in _cpuinfo() if line.startswith("model name")),
               platform.processor() or platform.machine())
    return {"label": label, "k": k, "python": platform.python_version(), "cpu": cpu,
            "cpus": os.cpu_count(), "runs": runs}


def _cpuinfo() -> list[str]:
    try:
        return Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        return []


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True, help="what was measured, e.g. a commit")
    ap.add_argument("--out", type=Path, help="append the row to this JSON file")
    ap.add_argument("--k", type=int, default=5, help="timed runs per record (median)")
    args = ap.parse_args(argv)
    if args.k < 1:
        ap.error(f"--k must be at least 1, not {args.k}")
    new = row(args.label, args.k)
    if args.out is None:
        print(json.dumps(new, indent=1))
        return
    doc = json.loads(args.out.read_text()) if args.out.exists() else {"rows": []}
    doc["rows"].append(new)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
