"""Benchmark of implicurve over seeded corpora of distinct curves.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload kron-d5 --seed 1 --seconds 30 --trace 0

``--workload all`` runs every workload in turn.  Each run is a closed loop
(one client, one process, no threads) in a fresh interpreter that imports
the package from this checkout's ``src``.  With ``--trace 0`` it prints the
end-to-end metrics, with ``--trace 1`` the per-layer ones; every output is
checked by the benchmark's own proof (``check.py``).  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.

``setup_s`` is the median over ``SETUP_SAMPLES`` fresh interpreters of the
time from process start to the first request: interpreter start,
``import implicurve`` and building the corpus.

All reported times are rescaled to a nominal machine speed measured in the
same stretch of time (``calibrate.py``); the table also prints the raw
values.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import corpus

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 7
#: Every run ends within this many seconds, or fails.
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def _spawn(args: list[str]) -> tuple[float, subprocess.Popen]:
    """Start a worker and wait for its ``ready``; returns its set-up time."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdout=subprocess.PIPE, text=True, cwd=ROOT,
    )
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        raise BenchError(f"worker did not start (exit code {proc.wait()})")
    return setup_s, proc


def _finish(proc: subprocess.Popen, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    samples = 1 if trace else SETUP_SAMPLES
    setups = []
    for probe in range(samples):
        last = probe == samples - 1
        speed = calibrate.factor()
        setup_s, proc = _spawn(args if last else args + ["--setup-only"])
        setups.append((setup_s, speed))
        if not last:
            _finish(proc, deadline)
    out = _finish(proc, deadline)
    result = json.loads(out.strip().splitlines()[-1])
    unexpected = result.pop("unexpected")
    if unexpected:
        print(f"{name}: unexpected failures of the check at requests {unexpected}", file=sys.stderr)
    if not trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(s * f for s, f in setups), "unit": "s"}
        result["raw"]["setup_s"] = statistics.median(s for s, _ in setups)
    return result


def _table(name: str, result: dict, raw: dict) -> None:
    print(f"# {name}: attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    metrics = result["metrics"]
    request_ms = metrics.get("trace.request_ms", {}).get("value")
    for key, m in metrics.items():
        note = ""
        if key in raw:
            note = f"  (raw {raw[key]:.4f})"
        if request_ms and key.endswith(".self_ms"):
            note = f"  ({100 * m['value'] / request_ms:.1f}% of request time)"
        print(f"{key:<48} {m['value']:>14.4f} {m['unit']}{note}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=["all", *corpus.WORKLOADS])
    ap.add_argument("--seed", type=int, default=corpus.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "implicurve" / "__init__.py").is_file():
        print(f"perfbench: no implicurve package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(corpus.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
            _table(name, results[name], results[name].pop("raw", {}))
    except (BenchError, subprocess.TimeoutExpired, ValueError, KeyError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
