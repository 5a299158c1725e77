"""One benchmark run in a fresh interpreter: set up, serve, check, report.

Run by ``run.py``; prints ``ready`` once the program is imported and the
corpus is built (the end of set-up), then, unless ``--setup-only``, serves
the requests as a closed loop with one client and prints one JSON line of
metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import calibrate
import check
import corpus
from tracing import SPANS, Tracer

#: p90 needs ten samples beyond it, so a run serves at least this many
#: requests.  A run that is still serving after ``MAX_STRETCH`` times the
#: time its requests take at the nominal rate stops there.
MIN_REQUESTS = 100
MAX_STRETCH = 2
SRC = Path(__file__).resolve().parent.parent / "src"


def load_program():
    """Import ``implicurve`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "implicurve" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no implicurve package under {SRC}")
    sys.path.insert(0, str(SRC))
    import implicurve
    import implicurve.cli

    if Path(implicurve.__file__).resolve().parent != SRC / "implicurve":
        raise SystemExit(f"perfbench: imported implicurve from {implicurve.__file__}")
    return implicurve


def corpus_size(workload: corpus.Workload, seconds: float) -> int:
    """Requests in one run: ``seconds`` of work at the workload's nominal
    rate.  The number depends on nothing measured, so every run of a
    workload attempts the same requests and the same known-defect ones."""
    return max(MIN_REQUESTS, math.ceil(seconds * workload.rate))


class Bench:
    """The requests of one workload and the entry point that serves them."""

    def __init__(self, program, workload: corpus.Workload, seed: int, count: int) -> None:
        self.workload = workload
        requests, self.curves = corpus.build(workload, seed, count, program)
        if workload.cli:
            self.entry_name, self.entry = "cli.main", program.cli.main
            self.args = [(argv,) for argv in requests]
        else:
            cfg = program.MethodConfig(method=workload.method)
            self.entry_name, self.entry = "implicitize", program.implicitize
            self.args = [(P, cfg) for P in requests]

    def serve(self, seconds: float, tracer: Tracer | None = None):
        """Closed loop over every request of the corpus.

        Stops early only after ``MAX_STRETCH`` times ``seconds`` or the
        time the requests take at the nominal rate, if that is longer.  With a
        tracer every second request is traced, so traced and untraced
        requests interleave over the same stretch of time.  A calibration
        unit is timed after each request.  Returns the outputs, per-request
        latencies in ms, which of them were traced, the loop time each
        request took in s, and the calibration times in s.
        """
        traced_entry = tracer.wrap(self.entry_name, self.entry) if tracer else None
        outputs, latencies, traced, loop_s, cal = [], [], [], [], []
        measured = 0.0
        limit = MAX_STRETCH * max(seconds, len(self.args) / self.workload.rate)
        for i, args in enumerate(self.args):
            if measured >= limit:
                break
            on = tracer is not None and i % 2 == 1
            if on:
                tracer.install()
            t0 = perf_counter()
            out = self._call(traced_entry if on else self.entry, args)
            latencies.append((perf_counter() - t0) * 1000.0)
            if on:
                tracer.uninstall()
            outputs.append(out)
            traced.append(on)
            loop_s.append(perf_counter() - t0)
            measured += loop_s[-1]
            cal.append(calibrate.unit())
        return outputs, latencies, traced, loop_s, cal

    def _call(self, entry, args):
        try:
            if not self.workload.cli:
                return entry(*args)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = entry(*args)
            return code, out.getvalue(), err.getvalue()
        except Exception as exc:  # a request that raises is a failed request
            return exc

    def answer(self, out):
        """F of a successful output as a grid of coefficients, else None."""
        if isinstance(out, Exception):
            return None
        if not self.workload.cli:
            return out.F.coeffs
        code, stdout, _ = out
        if code != 0:
            return None
        try:
            return [[Fraction(c) for c in row] for row in json.loads(stdout)["coeffs"]]
        except (ValueError, KeyError, TypeError):
            return None

    def passed(self, curve: corpus.Curve, out) -> bool:
        """The independent check of one output."""
        if isinstance(out, Exception):
            return False
        if self.workload.cli:
            code, _, stderr = out
            if "Traceback" in stderr:
                return False
            if curve.bidegree is None:
                return code == 2
        F = self.answer(out)
        return F is not None and check.is_implicit_equation(F, curve)


def known_defect(curve: corpus.Curve) -> bool:
    """Improper curves: the program returns the resultant F^r (open item 4)."""
    return curve.r > 1


def verdict(bench: Bench, outputs) -> dict:
    oks = [bench.passed(c, out) for c, out in zip(bench.curves, outputs)]
    unexpected = [i for i, ok in enumerate(oks) if not ok and not known_defect(bench.curves[i])]
    return {
        "correct": not unexpected,
        "attempted": len(oks),
        "failed": oks.count(False),
        "unexpected": unexpected,
    }


def end_to_end(outputs, latencies, loop_s, speed: float, rss_mb: float, summary: dict) -> dict:
    """The end-to-end metrics; times are rescaled by ``speed`` (see
    ``calibrate``)."""
    completed = sum(not isinstance(out, Exception) for out in outputs)
    scaled = [ms * speed for ms in latencies]
    return {
        "curves_per_s": (completed / (sum(loop_s) * speed), "1/s"),
        "latency_p50_ms": (statistics.median(scaled), "ms"),
        "latency_p90_ms": (statistics.quantiles(scaled, n=10)[-1], "ms"),
        "ok_share": ((summary["attempted"] - summary["failed"]) / summary["attempted"], "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(tracer: Tracer, latencies, traced, speed: float) -> dict:
    """Per-layer metrics of the traced requests; times are rescaled by
    ``speed`` (see ``calibrate``)."""
    on = [ms for ms, t in zip(latencies, traced) if t]
    off = [ms for ms, t in zip(latencies, traced) if not t]
    k = len(on)
    out = {}
    for name in SPANS:
        out[f"{name}.self_ms"] = (tracer.self_ns[name] * speed / k / 1e6, "ms")
        out[f"{name}.calls"] = (tracer.calls[name] / k, "count")
    results = tracer.results

    def total(get) -> float:
        """Mean per traced request; a request that raised returned nothing."""
        return sum(get(r) for r in results) / k

    out["structmat.data_muldivs"] = (total(lambda r: r.data_counter.muldivs), "count")
    out["structmat.solve_muldivs"] = (total(lambda r: r.solve_counter.muldivs), "count")
    out["structmat.data_max_bits"] = (max((r.data_counter.max_bits for r in results), default=0), "bits")
    out["implicitize.det_evals"] = (total(lambda r: r.det_evals), "count")
    out["trace.request_ms"] = (statistics.fmean(on) * speed, "ms")
    out["trace.overhead_ratio"] = (statistics.fmean(off) / statistics.fmean(on), "ratio")
    out["trace.speed_factor"] = (speed, "ratio")
    return out


def run(program, workload: corpus.Workload, seed: int, seconds: float, trace: bool,
        count: int | None = None) -> dict:
    """Serve, check and summarize one run; ``count`` fixes the corpus size."""
    bench = Bench(program, workload, seed, count or corpus_size(workload, seconds))
    return measure(bench, seconds, trace)


def measure(bench: Bench, seconds: float, trace: bool) -> dict:
    tracer = Tracer() if trace else None
    outputs, latencies, traced, loop_s, cal = bench.serve(seconds, tracer)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    speed = calibrate.run_factor(cal)
    summary = verdict(bench, outputs)
    if trace:
        metrics = per_layer(tracer, latencies, traced, speed)
    else:
        metrics = end_to_end(outputs, latencies, loop_s, speed, rss_mb, summary)
        raw = end_to_end(outputs, latencies, loop_s, 1.0, rss_mb, summary)
        summary["raw"] = {k: v for k, (v, _) in raw.items()}
    summary["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return summary


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    workload = corpus.WORKLOADS[args.workload]
    program = load_program()
    bench = Bench(program, workload, args.seed, corpus_size(workload, args.seconds))
    print("ready", flush=True)
    if args.setup_only:
        return 0
    print(json.dumps(measure(bench, args.seconds, bool(args.trace))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
