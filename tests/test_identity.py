"""Identity check: every pipeline result and CLI report, hashed over a fixed corpus.

The corpus is ``rand_ratparam(Random(404), d, exact=True)`` for d = 2..8,
four rational-coefficient curves, HYPERBOLA and CUBIC.  Each curve runs the
three methods, the unstructured one only for degree <= 5.  Each run
contributes F's coefficient strings, both op counters
(adds/muls/divs/max_bits), ``det_evals``, ``verified`` and
``degree_tight``; two ``bench --json`` documents, with their wall times
removed, are hashed too.

A refactor must leave ``IDENTITY_DIGEST`` unchanged.  A change that alters
a result or a count by design must update the digest and say why in
CHANGES.md.  Run as a script, this file prints the hashed lines, one per
result or bench document, so that a digest change can be diffed field by
field between two checkouts:

    PYTHONPATH=src python tests/test_identity.py > lines.txt
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import implicurve
from implicurve import (
    METHOD_DUAL_VANDERMONDE,
    METHOD_KRONECKER,
    METHOD_UNSTRUCTURED,
    MethodConfig,
    implicitize,
)
from implicurve.cli import format_ratfun, main

from util import CUBIC, HYPERBOLA, identity_corpus

IDENTITY_DIGEST = "66e52953bd15d3f095f7f1a3db5fba098252f79298c5d426c5063bc89a2ece41"


def _configs(degree):
    if degree <= 5:
        yield MethodConfig(method=METHOD_UNSTRUCTURED)
    yield MethodConfig(method=METHOD_DUAL_VANDERMONDE)
    yield MethodConfig(method=METHOD_KRONECKER)


def _result_line(r):
    counts = [(c.adds, c.muls, c.divs, c.max_bits) for c in (r.data_counter, r.solve_counter)]
    coeffs = [[str(c) for c in row] for row in r.F.coeffs]
    return json.dumps([coeffs, counts, r.det_evals, r.verified, r.degree_tight])


def _bench_line(P):
    argv = ["bench", "--x", format_ratfun(P.u1, P.v1), "--y", format_ratfun(P.u2, P.v2), "--json"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0
    doc = json.loads(out.getvalue())
    for record in doc["methods"]:
        del record["wall_ms"]
    return json.dumps(doc, sort_keys=True)


def identity_lines():
    lines = []
    for degree, P in identity_corpus():
        for cfg in _configs(degree):
            lines.append(_result_line(implicitize(P, cfg)))
    return lines + [_bench_line(P) for P in (HYPERBOLA, CUBIC)]


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_results_and_reports_match_the_pinned_digest():
    assert _digest(identity_lines()) == IDENTITY_DIGEST


def test_digest_holds_under_python_O():
    # -O strips every assert, so no result may depend on one
    src = str(Path(implicurve.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", __file__],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert _digest(proc.stdout.splitlines()) == IDENTITY_DIGEST


if __name__ == "__main__":
    print("\n".join(identity_lines()))
