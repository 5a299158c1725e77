import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import implicurve
import implicurve.cli as cli
from implicurve import (
    METHOD_KRONECKER,
    BiPoly,
    InternalConsistencyError,
    MethodConfig,
    RatParam,
    UniPoly,
    bipoly_canonicalize,
    implicitize,
    substitute_check,
)
from implicurve.cli import (
    CLI_METHODS,
    MAX_DIGITS,
    MAX_EXPONENT,
    ParseError,
    canonical_digest,
    format_bipoly,
    format_ratfun,
    format_unipoly,
    main,
    parse_poly_xy,
    parse_rational_function,
)

from util import CUBIC, CUBIC_F_RAW, HYPERBOLA_F, euclid_gcd, poly_mul, rand_unipoly, scaled


def test_parse_rational_function_examples():
    num, den = parse_rational_function("(1+t)/(2+t)")
    assert num == UniPoly([1, 1]) and den == UniPoly([2, 1])
    num, den = parse_rational_function("(2*t^2+2*t+1)/(t^3+5)")
    assert num == UniPoly([1, 2, 2]) and den == UniPoly([5, 0, 0, 1])
    num, den = parse_rational_function("t^2-3")
    assert num == UniPoly([-3, 0, 1]) and den == UniPoly.one()


def test_parse_rational_function_reduces_to_coprime():
    num, den = parse_rational_function("(t^2-1)/(t-1)")
    assert num == UniPoly([1, 1]) and den == UniPoly.one()


def test_parse_rational_coefficients_and_whitespace():
    num, den = parse_rational_function(" 1/2 * t^2 - t + 3/4 ")
    assert num == UniPoly([Fraction(3, 4), -1, Fraction(1, 2)])
    assert den == UniPoly.one()
    # an integer literal makes an int, only p/q a Fraction
    assert [type(c) for c in num.coeffs] == [Fraction, int, Fraction]
    assert {type(c) for row in parse_poly_xy("2 - 3*y + 4/2*x").coeffs for c in row} == {
        int, Fraction}
    assert all(type(c) is int for row in parse_poly_xy("2 - 3*y - x").coeffs for c in row)
    # a bare coefficient quotient is a coefficient, not a polynomial quotient
    num, den = parse_rational_function("t/2")
    assert (num, den) == (UniPoly([0, 1]), UniPoly([2]))


def test_parse_unary_minus_and_implicit_one():
    num, den = parse_rational_function("-t^3+t")
    assert num == UniPoly([0, 1, 0, -1])
    num, den = parse_rational_function("(-1-t)/(2+t)")
    assert num == UniPoly([-1, -1])


def test_parse_errors_carry_positions():
    for text, pos in [("t^", 2), ("1+*t", 2), ("t t", 2), ("(1+t", 4), ("2*", 2),
                      ("٣+t", 0), ("t^١٠", 2), ("t^²", 2), ("t^1٠", 3)]:
        with pytest.raises(ParseError) as exc:
            parse_rational_function(text)
        assert exc.value.position == pos
    with pytest.raises(ParseError, match="unexpected character") as exc:
        parse_poly_xy("y - x^٢")  # only ASCII digits are numbers
    assert exc.value.position == 6
    with pytest.raises(ParseError):
        parse_rational_function("u+1")
    with pytest.raises(ParseError):
        parse_rational_function("t/(t-t)")  # zero denominator polynomial


def test_parse_poly_xy():
    F = parse_poly_xy("2 - 3*y - x + 2*x*y")
    assert F == HYPERBOLA_F
    F = parse_poly_xy("y - x^2")
    assert F == BiPoly([[0, 1], [0, 0], [-1, 0]])
    text = format_bipoly(CUBIC_F_RAW)
    assert parse_poly_xy(text) == CUBIC_F_RAW


def test_format_bipoly_basis_order():
    assert format_bipoly(HYPERBOLA_F) == "2 - 3*y - x + 2*x*y"
    assert format_bipoly(BiPoly([[0, 1], [0, 0], [-1, 0]])) == "y - x^2"
    assert format_bipoly(BiPoly([[0, 0], [0, 0]])) == "0"
    assert format_bipoly(BiPoly([[Fraction(-1, 2)], [1]])) == "-1/2 + x"


def test_format_ratfun_roundtrip_random():
    rng = random.Random(31)
    for _ in range(60):
        num = rand_unipoly(rng, rng.randint(0, 4))
        den = rand_unipoly(rng, rng.randint(0, 4))
        text = format_ratfun(num, den)
        got_num, got_den = parse_rational_function(text)
        # parse reduces to coprime form: compare as rational functions
        assert poly_mul(got_num, den) == poly_mul(num, got_den)


def test_format_unipoly_spells_fractions():
    p = UniPoly([Fraction(3, 4), Fraction(-1, 2), 1])
    assert format_unipoly(p) == "t^2 - 1/2*t + 3/4"
    assert format_unipoly(UniPoly()) == "0"
    assert format_unipoly(UniPoly([Fraction(4, 2), Fraction(-6, 1)])) == "-6*t + 2"
    # past the 4300 digits str() writes of an int, in both parts
    big = format_unipoly(UniPoly([Fraction(-(10**5000), 3), Fraction(1, 10**5000 + 1)]))
    assert big == f"1/1{'0' * 4999}1*t - 1{'0' * 5000}/3"


def test_cmd_implicitize_human_output(capsys):
    code = main(["implicitize", "--x", "(1+t)/(2+t)", "--y", "(3+t)/(4+t)"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "2 - 3*y - x + 2*x*y"


def test_cmd_implicitize_methods_agree(capsys):
    outs = set()
    for method in ("unstructured", "dualvand", "kron"):
        code = main(
            [
                "implicitize",
                "--x",
                "(2*t^2+2*t+1)/(t^3+5)",
                "--y",
                "(t^3-3*t^2+t-1)/(t^2-3)",
                "--method",
                method,
            ]
        )
        assert code == 0
        outs.add(capsys.readouterr().out.strip())
    assert len(outs) == 1
    assert parse_poly_xy(outs.pop()) == bipoly_canonicalize(CUBIC_F_RAW)


def test_cmd_implicitize_json_document(capsys):
    code = main(
        ["implicitize", "--x", "(1+t)/(2+t)", "--y", "(3+t)/(4+t)", "--json"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {
        "m": 1,
        "n": 1,
        "basis": "x^i*y^j (i-major)",
        "coeffs": [["2", "-3"], ["-1", "2"]],
        "verified": True,
        "degree_tight": True,
        "method": "kronecker",
    }


def test_cmd_implicitize_out_file(tmp_path, capsys):
    out = tmp_path / "f.txt"
    code = main(
        ["implicitize", "--x", "(1+t)/(2+t)", "--y", "(3+t)/(4+t)", "--out", str(out)]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    assert out.read_text().strip() == "2 - 3*y - x + 2*x*y"


def test_cmd_implicitize_out_io_error_exits_1(tmp_path, capsys):
    out = tmp_path / "missing" / "f.txt"
    code = main(["implicitize", "--x", "(1+t)/(2+t)", "--y", "(3+t)/(4+t)", "--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "No such file" in captured.err
    assert "Traceback" not in captured.err


def test_cmd_implicitize_exit_codes(capsys):
    assert main(["implicitize", "--x", "t^", "--y", "t"]) == 1
    assert main(["implicitize", "--x", "1", "--y", "t"]) == 2  # constant component
    capsys.readouterr()
    assert main(["implicitize", "--x", "1/0*t", "--y", "t"]) == 1
    assert capsys.readouterr() == ("", "error: zero denominator in coefficient (position 2)\n")


def test_a_component_with_a_leading_minus_takes_the_equals_form(capsys):
    # argparse reads "--x -t" as two options; "--x=-t" is one
    assert main(["implicitize", "--x=-t", "--y", "t"]) == 0
    assert capsys.readouterr().out == "y + x\n"


@pytest.mark.parametrize("primes", [",", "2,x", "2", "2,3,5"])
def test_cmd_implicitize_names_a_bad_primes_entry(primes, capsys):
    # the dual-Vandermonde nodes are fixed: any --primes is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["implicitize", "--x", "t", "--y", "t^2", "--primes", primes])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: implicurve") and f"unrecognized arguments: --primes {primes}" in err


def test_cmd_implicitize_notes_reduction(capsys):
    code = main(["implicitize", "--x", "(t^2-1)/(t-1)", "--y", "t"])
    assert code == 0
    err = capsys.readouterr().err
    assert "reduced" in err


def test_cmd_verify_pass_fail(capsys):
    ok = main(
        [
            "verify",
            "--x",
            "(1+t)/(2+t)",
            "--y",
            "(3+t)/(4+t)",
            "--poly",
            "2 - 3*y - x + 2*x*y",
        ]
    )
    assert ok == 0
    assert "PASS" in capsys.readouterr().out
    bad = main(["verify", "--x", "(1+t)/(2+t)", "--y", "(3+t)/(4+t)", "--poly", "x"])
    assert bad == 4
    assert "FAIL" in capsys.readouterr().out


def test_cmd_verify_reads_json_and_files(tmp_path, capsys):
    doc = {"coeffs": [["2", "-3"], ["-1", "2"]]}
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(doc))
    assert (
        main(["verify", "--x", "(1+t)/(2+t)", "--y", "(3+t)/(4+t)", "--poly", str(path)])
        == 0
    )
    expr_path = tmp_path / "poly.txt"
    expr_path.write_text("2 - 3*y - x + 2*x*y\n")
    assert (
        main(
            ["verify", "--x", "(1+t)/(2+t)", "--y", "(3+t)/(4+t)", "--poly", str(expr_path)]
        )
        == 0
    )
    # p/q strings: HYPERBOLA_F / 2 vanishes; 1 + 1/3 in place of 1 does not
    half = {"coeffs": [["1", "-3/2"], ["-1/2", "1"]]}
    assert main(["verify", "--x", "(1+t)/(2+t)", "--y", "(3+t)/(4+t)",
                 "--poly", json.dumps(half)]) == 0
    off = {"coeffs": [["4/3", "-3/2"], ["-1/2", "1"]]}
    assert main(["verify", "--x", "(1+t)/(2+t)", "--y", "(3+t)/(4+t)",
                 "--poly", json.dumps(off)]) == 4
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "PASS: polynomial vanishes along the parametrization",
        "FAIL: polynomial does not vanish along the parametrization"]


def test_implicitize_json_document_verifies(tmp_path, capsys):
    curve = ["--x", "(1/2*t^2+t)/(t^3+5/3)", "--y", "(t^3-3*t^2+t-1)/(t^2-3)"]
    out = tmp_path / "f.json"
    assert main(["implicitize", *curve, "--json", "--out", str(out)]) == 0
    assert main(["verify", *curve, "--poly", str(out)]) == 0
    assert "PASS" in capsys.readouterr().out


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"coeffs": [["1/0"]]}, "bad JSON coefficient"),
        ({"coeffs": 5}, "list of coefficient rows"),
        ({"coeffs": [[None]]}, "bad JSON coefficient"),
        ({"coeffs": [["0"] * (MAX_EXPONENT + 2), ["1"] * (MAX_EXPONENT + 2)]}, "exceeds the maximum"),
        ({"coeffs": [["1"]] * (MAX_EXPONENT + 2)}, "exceeds the maximum"),
        ({"coeffs": [["1e2000000", "1"], ["1", "0"]]}, "bad JSON coefficient"),
        ({"coeffs": [["1.5", "1"], ["1", "0"]]}, "bad JSON coefficient"),
        ({"coeffs": [[True]]}, "bad JSON coefficient"),
        ({"coeffs": [[1.5]]}, "bad JSON coefficient"),
    ],
    ids=["zero-denominator", "not-a-grid", "null-coefficient", "y-degree-over-cap",
         "x-degree-over-cap", "decimal-exponent", "decimal-point", "json-bool", "json-float"],
)
def test_cmd_verify_rejects_malformed_json_grids(doc, message, capsys):
    code = main(["verify", "--x", "t", "--y", "t", "--poly", json.dumps(doc)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err


def test_cmd_verify_names_a_bad_json_coefficient_briefly(capsys):
    # a 600 KB argument whose one coefficient is a 200000-element list
    poly = json.dumps({"coeffs": [["1", [0] * 200_000]]})
    assert main(["verify", "--x", "t", "--y", "t", "--poly", poly]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad JSON coefficient at row 0, column 1: [0, 0,")
    assert len(err) < 200


def test_cmd_verify_rejects_deeply_nested_json(capsys):
    # 200000 nested lists overflow the JSON decoder's recursion
    poly = '{"coeffs": ' + "[" * 200_000 + "]" * 200_000 + "}"
    assert main(["verify", "--x", "t", "--y", "t", "--poly", poly]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "nested too deeply" in err


def test_cmd_verify_accepts_json_grids_at_the_cap(capsys):
    # x - y^64 on the curve x = t^64, y = t; a JSON int is a coefficient too
    doc = {"coeffs": [["0"] * MAX_EXPONENT + [-1], [1] + ["0"] * MAX_EXPONENT]}
    argv = ["verify", "--x", f"t^{MAX_EXPONENT}", "--y", "t", "--poly", json.dumps(doc)]
    assert main(argv) == 0
    assert "PASS" in capsys.readouterr().out


def test_long_json_coefficients_read_exactly(monkeypatch, capsys):
    rng = random.Random(45)
    for length in (1, 2, 2999, 3000, 3001, 4300, 4301, 10**4, 10**5):
        digits = "".join(rng.choices("0123456789", k=length))
        texts = ("-00" + digits,) if length == 10**5 else (  # Decimal's read is slow there
            digits, "-" + digits, "+" + digits, "000" + digits, "-00" + digits)
        for text in texts:
            assert cli._json_coeff(text) == int(Decimal(text)), (length, text[:5])
    assert cli._json_coeff("-0012/0000" + "3" * 3000) == Fraction(-12, int("3" * 3000))
    # through main, 200000 digits: 1234567890 repeated 20000 times
    value = 1234567890 * (10**200_000 - 1) // (10**10 - 1)
    doc = {"coeffs": [["-000" + "1234567890" * 20_000, "1"], ["1", "0"]]}
    seen = []
    monkeypatch.setattr(cli, "refutes", lambda F, P: seen.append(F) or True)
    assert main(["verify", "--x", "t", "--y", "t", "--poly", json.dumps(doc)]) == 4
    assert "FAIL" in capsys.readouterr().out
    assert seen == [BiPoly([[-value, 1], [1, 0]])]


def test_cmd_verify_rejects_zero_polynomial(capsys):
    code = main(["verify", "--x", "t", "--y", "t", "--poly", "0"])
    assert code == 1
    capsys.readouterr()


def test_cmd_bench_table_and_agreement(capsys):
    code = main(["bench", "--x", "(1+t)/(2+t)", "--y", "(3+t)/(4+t)"])
    out = capsys.readouterr().out
    assert code == 0
    for name in ("unstructured", "dual-vandermonde", "kronecker"):
        assert name in out
    assert "agreed: yes" in out


def test_cmd_bench_json_report(capsys):
    code = main(
        [
            "bench",
            "--x",
            "(1+t)/(2+t)",
            "--y",
            "(3+t)/(4+t)",
            "--repeat",
            "3",
            "--json",
        ]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["agreed"] is True
    assert doc["repeat"] == 3
    assert len(doc["methods"]) == 3
    hashes = {r["hash"] for r in doc["methods"]}
    assert len(hashes) == 1
    for r in doc["methods"]:
        assert r["verified"] is True
        assert r["wall_ms"] >= 0
        assert set(r["data_ops"]) == {"adds", "muls", "divs"}
        assert r["max_bits"] > 0
    by_name = {r["method"]: r for r in doc["methods"]}
    assert by_name["kronecker"]["det_evals"] == 4
    assert by_name["unstructured"]["det_evals"] == 0


def test_cmd_bench_method_subset_and_errors(capsys):
    assert main(["bench", "--x", "t", "--y", "t^2", "--methods", "kron,dualvand"]) == 0
    assert main(["bench", "--x", "t", "--y", "t^2", "--methods", "nope"]) == 1
    capsys.readouterr()
    for names in (",", "", " , "):  # no method ran: an input error, not a disagreement
        assert main(["bench", "--x", "t", "--y", "t^2", "--methods", names]) == 1
        assert capsys.readouterr().err.startswith("error: --methods names no method")
    assert main(["bench", "--x", "t", "--y", "t^2", "--repeat", "0"]) == 1
    assert main(["bench", "--x", "1", "--y", "t"]) == 2
    capsys.readouterr()


def test_canonical_digest_distinguishes_polynomials():
    assert canonical_digest(HYPERBOLA_F) == canonical_digest(BiPoly([[2, -3], [-1, 2]]))
    assert canonical_digest(HYPERBOLA_F) != canonical_digest(CUBIC_F_RAW)


def test_module_entrypoint_runs():
    # run the package this suite imported, also when only pytest's
    # ``pythonpath`` setting (not PYTHONPATH) points at the source tree
    src = str(Path(implicurve.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "implicurve",
            "implicitize",
            "--x",
            "(1+t)/(2+t)",
            "--y",
            "(3+t)/(4+t)",
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "2 - 3*y - x + 2*x*y"


_HASHLIB_PROBE = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*argv, "--x", "(1+t)/(2+t)", "--y", "(3+t)/(4+t)"]) == 0
    print(sorted({"hashlib", "_hashlib"} & (set(sys.modules) - before)))
import implicurve
from implicurve.cli import main
run("implicitize", "--json")
run("verify", "--poly", "2 - 3*y - x + 2*x*y")
run("bench", "--methods", "kron,dualvand")
"""


def test_only_bench_loads_hashlib():
    # -S: without site, no .pth file can import hashlib before the program
    src = str(Path(implicurve.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-S", "-c", _HASHLIB_PROBE, src],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]", "['_hashlib', 'hashlib']"]


@pytest.mark.parametrize("method", ["kron", "dualvand"])
def test_a_proven_F_past_the_str_digit_cap_is_written_exactly(method, tmp_path, capsys):
    # F's coefficients run past the 4300 digits CPython's str() writes of
    # an int; unstructured is left out, as it takes seconds on this curve
    digits = "7" * 2500
    c = int(digits)
    P = RatParam(UniPoly([0, 1, c]), UniPoly.one(), UniPoly([0, c, 1]), UniPoly.one())
    F = implicitize(P, MethodConfig(method=CLI_METHODS[method])).F
    assert max(abs(v) for v in F.flat()) > 10**4300
    curve = ["--x", f"{digits}*t^2 + t", "--y", f"t^2 + {digits}*t"]
    assert main(["implicitize", "--method", method, "--json", *curve]) == 0
    text = capsys.readouterr().out
    doc = json.loads(text)
    assert BiPoly([[int(Decimal(s)) for s in row] for row in doc["coeffs"]]) == F
    # verify reads the document back
    path = tmp_path / "f.json"
    path.write_text(text)
    assert main(["verify", *curve, "--poly", str(path)]) == 0
    assert "PASS" in capsys.readouterr().out
    assert main(["implicitize", "--method", method, *curve]) == 0
    assert capsys.readouterr().out.strip() == format_bipoly(F)
    assert main(["bench", "--methods", f"kron,{method}", "--json", *curve]) == 0
    hashes = {r["hash"] for r in json.loads(capsys.readouterr().out)["methods"]}
    assert hashes == {canonical_digest(F)}


def test_parser_caps_exponents_at_the_exponent():
    num, _ = parse_rational_function(f"t^{MAX_EXPONENT}")
    assert len(num.coeffs) - 1 == MAX_EXPONENT
    over = MAX_EXPONENT + 1
    for text, pos in [(f"t^{over}", 2), (f"(1+t)/(t^{over})", 9), (f"2*t*t^{MAX_EXPONENT}", 6)]:
        with pytest.raises(ParseError) as exc:
            parse_rational_function(text)
        assert exc.value.position == pos
    with pytest.raises(ParseError) as exc:
        parse_poly_xy(f"1 + x*y^{over}")
    assert exc.value.position == 8


def test_cli_rejects_exponents_over_the_cap(capsys):
    over = f"t^{MAX_EXPONENT + 1}"
    assert main(["implicitize", "--x", over, "--y", "t"]) == 1
    assert main(["verify", "--x", "t", "--y", "t", "--poly", f"x^{MAX_EXPONENT + 1}"]) == 1
    err = capsys.readouterr().err
    assert "exponent exceeds the maximum" in err and "Traceback" not in err


def test_an_integer_past_the_digit_bound_is_an_input_error(capsys):
    long = "7" * (MAX_DIGITS + 1)
    for argv in (["implicitize", "--x", f"{long}*t", "--y", "t"],
                 ["implicitize", "--x", f"t^{long}", "--y", "t"],
                 ["verify", "--x", "t", "--y", "t", "--poly", f"x - {long}*y"],
                 ["verify", "--x", "t", "--y", "t", "--poly", f'{{"coeffs": [[-{long}]]}}']):
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert f"more than {MAX_DIGITS} digits" in err, argv
        assert "set_int_max_str_digits" not in err and "Traceback" not in err
    with pytest.raises(ParseError) as exc:
        parse_rational_function(f"1 + {long}*t")
    assert exc.value.position == 4
    # the bound itself is accepted, with a sign in JSON too
    at_bound = "7" * MAX_DIGITS
    assert parse_rational_function(f"{at_bound}*t")[0] == UniPoly([0, int(at_bound)])
    doc = f'{{"coeffs": [[-{at_bound}, -1], [1, 0]]}}'  # x - y - C along x = t + C, y = t
    assert main(["verify", "--x", f"t + {at_bound}", "--y", "t", "--poly", doc]) == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_refutes_before_the_proof(monkeypatch, capsys):
    # degree-16 components and a 17 x 17 grid of 1000-digit coefficients:
    # refuted at one point, so the proof never runs
    monkeypatch.setattr(cli, "substitute_check", lambda F, P: pytest.fail("the proof ran"))
    rng = random.Random(16)
    x, y = (format_unipoly(rand_unipoly(rng, 16)) for _ in range(2))
    grid = [[str(rng.randrange(10**999, 10**1000)) for _ in range(17)] for _ in range(17)]
    assert main(["verify", "--x", x, "--y", y, "--poly", json.dumps({"coeffs": grid})]) == 4
    assert "FAIL" in capsys.readouterr().out
    # along x = (1+t)/(2+t), (t0 + 2) x - (t0 + 1) vanishes at t0 = 2^31, so
    # it passes the disproof, and the proof rejects it
    proofs = []
    monkeypatch.setattr(cli, "substitute_check",
                        lambda F, P: proofs.append(F) or substitute_check(F, P))
    hyperbola = ["--x", "(1+t)/(2+t)", "--y", "(3+t)/(4+t)"]
    assert main(["verify", *hyperbola, "--poly", f"{2**31 + 2}*x - {2**31 + 1}"]) == 4
    assert "FAIL" in capsys.readouterr().out and len(proofs) == 1
    assert main(["verify", *hyperbola, "--poly", format_bipoly(HYPERBOLA_F)]) == 0
    assert "PASS" in capsys.readouterr().out and len(proofs) == 2


def test_internal_consistency_failure_exits_5(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise InternalConsistencyError("interpolant fails to reproduce its datum")

    monkeypatch.setattr(cli, "implicitize", broken)
    for argv in (
        ["implicitize", "--x", "(1+t)/(2+t)", "--y", "(3+t)/(4+t)"],
        ["bench", "--x", "(1+t)/(2+t)", "--y", "(3+t)/(4+t)", "--methods", "kron"],
    ):
        assert main(argv) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: internal consistency failure:")
        assert "Traceback" not in captured.err


def test_bench_reports_what_the_api_dispatch_returns(capsys):
    argv = ["bench", "--x", format_ratfun(CUBIC.u1, CUBIC.v1),
            "--y", format_ratfun(CUBIC.u2, CUBIC.v2), "--json"]
    assert main(argv) == 0
    by_method = {r["method"]: r for r in json.loads(capsys.readouterr().out)["methods"]}
    assert set(by_method) == set(CLI_METHODS.values())
    for method, record in by_method.items():
        r = implicitize(CUBIC, MethodConfig(method=method))
        ops = {
            f"{stage}_ops": {"adds": c.adds, "muls": c.muls, "divs": c.divs}
            for stage, c in (("data", r.data_counter), ("solve", r.solve_counter))
        }
        assert {k: record[k] for k in ops} == ops, method
        assert record["max_bits"] == r.counter.max_bits, method
        assert record["det_evals"] == r.det_evals, method
        assert record["hash"] == canonical_digest(r.F), method


def test_usage_errors_exit_1_with_the_usage_line(capsys):
    base = ["implicitize", "--x", "t", "--y", "t^2"]
    for argv in (base + ["--nope"], base + ["--method", "nope"],
                 ["bench", "--x", "t", "--y", "t^2", "--primes", "2,3"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1, argv
        assert capsys.readouterr().err.startswith("usage: implicurve")


def test_one_parser_serves_every_call_without_carrying_options_over(capsys):
    assert cli._parser() is cli._parser()
    base = ["implicitize", "--x", "(1+t)/(2+t)", "--y", "(3+t)/(4+t)"]
    assert main(base + ["--json", "--method", "dualvand"]) == 0
    assert json.loads(capsys.readouterr().out)["method"] == "dual-vandermonde"
    assert main(base) == 0
    out = capsys.readouterr().out
    assert not out.startswith("{") and out == format_bipoly(HYPERBOLA_F) + "\n"
    with pytest.raises(SystemExit) as exc:
        main(["implicitize", "--x", "t"])
    assert exc.value.code == 1
    assert capsys.readouterr().err.startswith("usage: implicurve implicitize")
    assert main(base) == 0


def test_cmd_bench_disagreement_exits_3(monkeypatch, capsys):
    real = cli.implicitize

    def skewed(P, cfg=None):
        result = real(P, cfg)
        if cfg.method == METHOD_KRONECKER:
            return replace(result, F=scaled(result.F, 2))
        return result

    monkeypatch.setattr(cli, "implicitize", skewed)
    argv = ["bench", "--x", "(1+t)/(2+t)", "--y", "(3+t)/(4+t)"]
    assert main(argv) == 3
    assert "agreed: NO" in capsys.readouterr().out
    assert main([*argv, "--json"]) == 3
    assert json.loads(capsys.readouterr().out)["agreed"] is False


def test_cmd_verify_accepts_a_constant_component(capsys):
    # the degree rule of the methods does not apply to the proof
    assert main(["verify", "--x", "1", "--y", "t", "--poly", "x - 1"]) == 0
    assert "PASS" in capsys.readouterr().out


_coef = st.integers(-30, 30) | st.fractions(-30, 30, max_denominator=12)
_unipoly = st.lists(_coef, max_size=7).map(UniPoly)


@settings(max_examples=200, deadline=None)
@given(_unipoly, _unipoly.filter(lambda v: not v.is_zero))
def test_parse_inverts_format_ratfun(u, v):
    assume(len(euclid_gcd(u, v).coeffs) - 1 == 0)  # parse_rational_function reduces to lowest terms
    assert parse_rational_function(format_ratfun(u, v)) == (u, v)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda w: st.lists(st.lists(_coef, min_size=w, max_size=w), min_size=1, max_size=4)))
def test_parse_inverts_format_bipoly(rows):
    F = BiPoly(rows)
    assert parse_poly_xy(format_bipoly(F)) == F
