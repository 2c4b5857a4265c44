from __future__ import annotations

import ast
import builtins
import csv
import importlib
import io
import json
import os
import subprocess
import sys
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import hkfun
from hkfun import cli, oracle, verify
from hkfun.cli import build_parser, decimal_string, main
from hkfun.density import PairDensity
from hkfun.piecewise import tent_function


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_density_param_tent_json(capsys):
    code, out, _ = run_cli(capsys, "density", "--mult", "1",
                           "--degrees", "1,1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["alpha"] == "2"
    assert payload["density"]["breakpoints"] == ["0", "1", "2"]
    pair = PairDensity.from_dict(payload)
    assert pair.f == tent_function()


def test_trinomial_threshold(capsys):
    code, out, _ = run_cli(capsys, "trinomial", "--fermat", "4", "--n", "1",
                           "--prime", "29", "--format", "json")
    assert code == 0
    assert json.loads(out)["threshold"] == "44/29"


def test_trinomial_threshold_past_the_table_limit(capsys):
    """lambda_h = 10^20 is past the residue table's limit, but the scan at one
    prime stops at its first corner (D = 27), long before the order 10^18 of 7
    modulo 2*lambda_h."""
    code, out, _ = run_cli(capsys, "trinomial", "--fermat", "100000000000000000000",
                           "--prime", "7")
    assert code == 0
    assert json.loads(out)["threshold"] == "98600000000000000000000/65712362363534280139543"


def test_trinomial_residue_table_csv(capsys):
    code, out, _ = run_cli(capsys, "trinomial", "--fermat", "4", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "residue,T,D,formula"
    assert len(lines) == 3  # phi(8)/2 rows


def test_trinomial_table_with_threshold_column(capsys):
    code, out, _ = run_cli(capsys, "trinomial", "--fermat", "4", "--prime", "29",
                           "--table", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "residue,T,D,formula,threshold_at_p"
    assert lines[2].endswith("44/29")


def test_verify_case(capsys):
    code, out, _ = run_cli(capsys, "verify", "--case", "tent-exact")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_verify_kunz_case(capsys):
    # Kunz on k[x, y, z]: l(S/J^[4]) = 4^3 * 7; the binomial generator
    # x*y + z^2 joins the walk's residual system
    code, out, _ = run_cli(capsys, "verify", "--case", "kunz-regular-dense")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["measured"] == payload["target"] == "448"


def test_verify_list(capsys):
    code, out, _ = run_cli(capsys, "verify", "--list")
    assert code == 0
    lines = out.splitlines()
    assert "fermat4-p17-q17" in lines
    assert "fermat4-p29-q841" in lines
    assert "kunz-regular-dense" in lines
    assert "profile-mirror-cyclic4-p7-q49" in lines
    # the one case that fails on correct code says so, with where to read why
    marked = [line for line in lines if "fails by design" in line]
    assert len(marked) == 1
    assert marked[0].split()[0] == "volume-convergence"
    assert 'README "Acceptance status"' in marked[0]
    code, out, _ = run_cli(capsys, "verify", "--case", "volume-convergence")
    assert code == 1
    assert verify.FAILS_BY_DESIGN["volume-convergence"] in json.loads(out)["detail"]


def test_verify_exact_top_at_p_squared(capsys):
    # the quartic's oracle top at q = 29^2 is 841 * 44/29 + 1
    code, out, _ = run_cli(capsys, "verify", "--case", "fermat4-p29-q841")
    assert code == 0
    payload = json.loads(out)
    assert (payload["measured"], payload["target"]) == ("1277/841", "44/29")


def test_oracle_profile_csv(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--prime", "3", "--q", "3",
                           "--hypersurface", "x*y - z^2", "--vars", "3",
                           "--op", "profile", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,length"
    assert lines[1:] == ["0,1", "1,3", "2,5", "3,4"]


def test_oracle_profile_at_largest_prime(capsys):
    # 2^31 - 1 is the largest prime below the rank kernel's bound; the next
    # prime is in INVALID_ORACLE_INPUT
    code, out, _ = run_cli(capsys, "oracle", "--prime", "2147483647", "--q", "1",
                           "--hypersurface", "x*y - z^2", "--vars", "3",
                           "--gens", "x^2,y^2,z^2", "--op", "profile", "--format", "csv")
    assert code == 0
    assert out.strip().splitlines() == ["m,length", "0,1", "1,3", "2,2"]


def test_redundant_mixed_generator_leaves_the_profile(capsys):
    # (xy)^[5] lies in (x^5): both ideals are (x^5, y^5, z^5)
    profiles = []
    for gens in ("x,y,z,x*y", "x,y,z"):
        code, out, _ = run_cli(capsys, "oracle", "--prime", "5", "--q", "5",
                               "--fermat", "4", "--gens", gens, "--op", "profile",
                               "--format", "csv")
        assert code == 0
        profiles.append(out)
    assert profiles[0] == profiles[1]
    assert profiles[0].splitlines()[0] == "m,length"


def test_samples_format(capsys):
    code, out, _ = run_cli(capsys, "density", "--degrees", "1,1",
                           "--format", "samples", "--samples", "5",
                           "--precision", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,f,x_dec,f_dec"
    assert lines[1].split(",") == ["0", "0", "0.000", "0.000"]
    assert lines[3].split(",") == ["1", "1", "1.000", "1.000"]


def test_samples_when_the_support_ends_at_the_first_breakpoint(capsys):
    """One slope 6 at degree 3: the density's one breakpoint, -1, is also
    the end of its support, so the window is [-1, 0]."""
    code, out, _ = run_cli(capsys, "bundle", "--slopes", "6", "--ranks", "1",
                           "--poldeg", "3", "--format", "samples", "--samples", "2",
                           "--precision", "1")
    assert code == 0
    assert out.splitlines() == ["x,f,x_dec,f_dec", "-1,0,-1.0,0.0", "0,0,0.0,0.0"]


def test_error_exit_is_one_line(capsys):
    code, out, err = run_cli(capsys, "volume", "--degrees", "0,1")
    assert code == 1
    assert out == ""
    assert err.startswith("hkfun: error:")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("trinomial", "--typeI", "1,2"),
    ("trinomial", "--typeII", "4,1,2,1,1,3,9"),
])
def test_malformed_curve_is_one_line_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith(f"hkfun: error: {argv[1]} takes 6 integers")
    assert err.count("\n") == 1


ORACLE_EHK = ("oracle", "--prime", "5", "--q", "5", "--op", "ehk")
COLLINEAR = "the three exponent vectors are collinear, so the curve is reducible"


@pytest.mark.parametrize("argv, message", [
    (("trinomial", "--fermat", "4", "--table", "--prime", "4", "--format", "csv"),
     "4 is not prime"),
    # the class check of the threshold holds for the table's column too
    (("trinomial", "--fermat", "4", "--prime", "2"), "prime 2 divides 2*lambda_h = 8"),
    (("trinomial", "--fermat", "4", "--table", "--prime", "2"),
     "prime 2 divides 2*lambda_h = 8"),
    (("trinomial", "--cyclic", "4", "--table", "--prime", "7"),
     "prime 7 divides 2*lambda_h = 14"),
    (("density", "--degrees", "1,1", "--samples", "0", "--format", "samples"),
     "--samples must be >= 2, got 0"),
    (("volume", "--degrees", "1,2", "--samples", "-3", "--format", "samples"),
     "--samples must be >= 2, got -3"),
    (("density", "--degrees", "1,1", "--samples", "1", "--format", "samples"),
     "--samples must be >= 2, got 1"),
    (("trinomial", "--fermat", "4", "--prime", "29", "--precision", "-1"),
     "--precision must be >= 0, got -1"),
    (("trinomial", "--fermat", "4", "--prime", "29", "--precision", "5000"),
     "--precision must be <= 4000, got 5000"),
    (("volume", "--degrees", "1,2", "--format", "samples", "--samples", "100001"),
     "--samples must be <= 100000, got 100001"),
    (("trinomial", "--fermat", "100000000000000000000"),
     "lambda_h = 100000000000000000000 is past the residue table's limit of 65536"),
    (("oracle", "--prime", "3", "--q", "9", "--hypersurface", "x*y - z^2", "--vars", "3",
      "--op", "profile", "--x", "1/2"),
     "--x is read only by --op fn, not --op profile"),
    (("oracle", "--prime", "5", "--q", "5", "--fermat", "4", "--vars", "2", "--op", "ehk"),
     "a curve flag fixes 3 variables; --vars is for --hypersurface"),
    (("oracle", "--prime", "3", "--q", "3", "--vars", "0", "--format", "csv"),
     "--vars must be >= 1, got 0"),
    (("oracle", "--prime", "3", "--q", "3", "--vars", "-1"),
     "--vars must be >= 1, got -1"),
    (("oracle", "--prime", "5", "--q", "25", "--vars", "5"),
     "--vars must be <= 4, got 5"),
    (("oracle", "--prime", "3", "--q", "3", "--gens", "x*y", "--vars", "2", "--op", "fn",
      "--x", "1/2"),
     "no zero tail at the sweep bound; the ideal does not have finite colength"),
    (("oracle", "--prime", "2", "--q", str(2**64), "--hypersurface", "x*y - z^2"),
     f"q = {2**64} is too large: the bracketed generators reach degree {2**64}, "
     "past the oracle's limit of 65536"),
    (("oracle", "--prime", "2", "--q", str(2**40), "--hypersurface", "x*y - z^2",
      "--op", "fthreshold"),
     f"q = {2**40} is too large: the bracketed generators reach degree {2**40}, "
     "past the oracle's limit of 65536"),
    (("density", "--in", "pair.json", "--mult", "5"),
     "--mult is read only with --degrees, not with --in"),
    (("segre", "--left", "a.json", "--right", "b.json", "--mult", "2"),
     "--mult is read only with --degrees, not with --left"),
    (("oracle", "--prime", "3", "--q", "3", "--gens", "x,y,z", "--vars", "3", "--n", "5"),
     "--n is read only without --gens"),
    (("trinomial", "--fermat", "4", "--table", "--precision", "3"),
     "--precision is read only with --prime and without --table"),
    (("density", "--degrees", "1,1", "--precision", "3"),
     "--precision is read only with --format samples"),
    (("density", "--degrees", "1,1", "--format", "csv", "--precision", "3"),
     "--precision is read only with --format samples"),
    (("oracle", "--prime", "3", "--q", "3", "--op", "profile", "--precision", "3"),
     "--precision is read only by --op ehk and --op fthreshold, not --op profile"),
    (("oracle", "--prime", "3", "--q", "3", "--op", "fn", "--x", "1/2", "--precision", "3"),
     "--precision is read only by --op ehk and --op fthreshold, not --op fn"),
    (ORACLE_EHK + ("--fermat", "4", "--format", "csv", "--precision", "3"),
     "--precision is read only with --format json"),
    (("trinomial", "--fermat", "4", "--prime", "29", "--format", "csv", "--precision", "3"),
     "--precision is read only with --format json"),
    (("oracle", "--prime", "3", "--q", "3", "--gens", ""), "empty polynomial"),
    (("oracle", "--prime", "3", "--q", "3", "--gens", "", "--n", "2"),
     "--n is read only without --gens"),
    (ORACLE_EHK + ("--hypersurface", "x*y - x*y + z^2 - z^2"),
     "polynomial 'x*y - x*y + z^2 - z^2' is zero"),
    (ORACLE_EHK + ("--hypersurface", "x^2+x*y-+y^2"), "malformed term '-'"),
    (("trinomial", "--typeI", "0,4,1,3,4,0", "--prime", "5"), COLLINEAR),
    (("trinomial", "--typeII", "4,2,1,1,2,2"), COLLINEAR),
    (ORACLE_EHK + ("--typeII", "4,2,1,1,2,2"), COLLINEAR),
    (("oracle", "--prime", "3", "--q", "3", "--op", "fthreshold"),
     "fthreshold needs a hypersurface"),
    (("oracle", "--prime", "3", "--q", "3", "--op", "fn"), "--x is required for op=fn"),
    (("oracle", "--prime", "5", "--q", "5", "--fermat", "100000000000000000000"),
     "the hypersurface has degree 100000000000000000000, past the oracle's limit of 65536"),
    (("syzygy", "--mu", "3", "--d0", "1", "--poldeg", "2", "--slopes", "2,-4", "--ranks", "1,1"),
     "largest slope 2 of V exceeds the slope 0 of M"),
    (("volume", "--degrees", "1,2", "--eval", "1/0"), "'1/0' has a zero denominator"),
    (("bundle", "--slopes", "1/0", "--ranks", "1", "--poldeg", "2"),
     "'1/0' has a zero denominator"),
    (("oracle", "--prime", "3", "--q", "3", "--fermat", "4", "--op", "fn", "--x", "1/0"),
     "'1/0' has a zero denominator"),
    (("verify", "--case", "nope"),
     f"unknown verify case 'nope'; known: {', '.join(sorted(verify.CASES))}"),
    # the colength test comes before the sample leaves [0, sweep bound)
    (("oracle", "--prime", "3", "--q", "3", "--gens", "x*y", "--vars", "2", "--op", "fn",
      "--x", "1000"),
     "no zero tail at the sweep bound; the ideal does not have finite colength"),
    (("volume", "--degrees", "1,2", "--format", "csv", "--eval", "1"),
     "--eval is read only with --format json"),
    (("volume", "--degrees", "1,2", "--format", "samples", "--eval", "1"),
     "--eval is read only with --format json"),
    (("oracle", "--prime", "5", "--q", "5", "--fermat", "4", "--n", "0"), "n must be >= 1"),
    (("oracle", "--prime", "5", "--q", "5", "--fermat", "4", "--n", "-1"), "n must be >= 1"),
    (("density", "--degrees", "1,1", "--format", "csv", "--samples", "5"),
     "--samples is read only with --format samples"),
    (("volume", "--degrees", "1,1", "--samples", "5"),
     "--samples is read only with --format samples"),
    (("verify", "--list", "--format", "csv"), "--format csv is read only with --case"),
    # the table path refuses n inside the residue search
    (("trinomial", "--fermat", "4", "--n", "0"), "n must be >= 1"),
    (("trinomial", "--fermat", "4", "--prime", "1"), "1 is not prime"),
], ids=["table-prime-4", "prime-divides-2lambda", "table-prime-divides-2lambda",
        "table-prime-divides-2lambda-cyclic", "samples-0", "samples-negative", "samples-1",
        "precision-trinomial", "precision-5000", "samples-100001", "table-lambda-h-past-limit",
        "x-without-fn", "vars-with-curve", "vars-0", "vars-negative",
        "vars-5", "fn-without-finite-colength", "q-2^64", "q-2^40",
        "mult-with-in", "mult-with-left", "n-with-gens", "precision-with-table",
        "precision-density-json", "precision-density-csv", "precision-oracle-profile",
        "precision-oracle-fn", "precision-oracle-csv", "precision-trinomial-csv",
        "gens-empty", "n-with-empty-gens", "hypersurface-zero", "sign-without-term",
        "typeI-collinear", "typeII-collinear", "oracle-collinear",
        "fthreshold-without-hypersurface", "fn-without-x", "hypersurface-degree-past-limit",
        "syzygy-steeper-than-free",
        "eval-zero-denominator", "slope-zero-denominator", "x-zero-denominator",
        "unknown-verify-case", "fn-past-the-bound-without-finite-colength",
        "eval-with-csv", "eval-with-samples", "n-0", "n-negative",
        "samples-density-csv", "samples-volume-json", "list-with-csv", "trinomial-n-0",
        "trinomial-prime-1"])
def test_invalid_option_is_one_line_error(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"hkfun: error: {message}\n"


MISUSE = {
    "two-curves": ("trinomial", "--fermat", "5", "--cyclic", "4"),
    "two-curves-oracle": ORACLE_EHK + ("--typeI", "3,1,3,1,3,1", "--fermat", "4"),
    "curve-and-hypersurface": ORACLE_EHK + ("--fermat", "4", "--hypersurface", "x*y-z^2"),
    "no-curve": ("trinomial", "--n", "2"),
    "genus-bundle": ("bundle", "--slopes", "0,-3", "--ranks", "1,1", "--poldeg", "3",
                     "--genus", "2"),
    "genus-syzygy": ("syzygy", "--mu", "3", "--d0", "1", "--poldeg", "2", "--slopes", "-1",
                     "--ranks", "2", "--genus", "1"),
    "format-samples-trinomial": ("trinomial", "--fermat", "4", "--format", "samples"),
    "format-samples-oracle": ORACLE_EHK + ("--fermat", "4", "--format", "samples"),
    "format-samples-verify": ("verify", "--case", "tent-exact", "--format", "samples"),
    "samples-trinomial": ("trinomial", "--fermat", "4", "--prime", "29", "--samples", "3"),
    "samples-oracle": ORACLE_EHK + ("--fermat", "4", "--samples", "1"),
    "samples-verify": ("verify", "--case", "tent-exact", "--samples", "3"),
    "precision-verify": ("verify", "--case", "tent-exact", "--precision", "3"),
    "threads-density": ("density", "--degrees", "1,1", "--threads", "1"),
    "threads-trinomial": ("trinomial", "--fermat", "4", "--threads", "1"),
    "threads-verify": ("verify", "--list", "--threads", "1"),
    "case-and-list": ("verify", "--list", "--case", "tent-exact"),
    "no-case": ("verify", "--format", "csv"),
    "in-and-degrees": ("density", "--in", "pair.json", "--degrees", "1,1", "--mult", "5"),
    "files-and-degrees": ("segre", "--left", "a.json", "--right", "b.json",
                          "--degrees", "3,3"),
    "left-and-degrees": ("segre", "--left", "a.json", "--degrees", "1,1",
                         "--degrees2", "1,1"),
}


@pytest.mark.parametrize("argv", MISUSE.values(), ids=MISUSE.keys())
def test_inapplicable_option_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "error:" in captured.err


def _outcome(capsys, argv):
    """(exit status, stdout, stderr) of one ``main`` call, usage errors
    included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_one_parser_serves_a_sequence_of_commands(capsys):
    """``main`` builds its parser once per process; a run of different
    subcommands, a computation error and a usage error among them, gives
    each the output and exit status it gives on a parser of its own."""
    sequence = [
        ("oracle", "--prime", "5", "--q", "5", "--fermat", "4", "--op", "fthreshold",
         "--threads", "1"),
        ("density", "--degrees", "1,1", "--format", "csv"),
        ("oracle", "--prime", "4", "--q", "4", "--fermat", "4"),  # exit 1: 4 is not prime
        ("trinomial", "--fermat", "5", "--cyclic", "4"),  # exit 2: two curves
        ("verify", "--list"),
        ("oracle", "--prime", "3", "--q", "3", "--hypersurface", "x*y - z^2",
         "--op", "profile", "--format", "csv"),
    ]
    alone = []
    for argv in sequence:
        build_parser.cache_clear()
        alone.append(_outcome(capsys, argv))
    assert [code for code, _, _ in alone] == [0, 0, 1, 2, 0, 0]
    build_parser.cache_clear()
    assert [_outcome(capsys, argv) for argv in sequence] == alone
    assert build_parser.cache_info().misses == 1


def test_verify_list_out(tmp_path, capsys):
    code, listing, _ = run_cli(capsys, "verify", "--list")
    assert code == 0
    target = tmp_path / "cases.txt"
    code, out, _ = run_cli(capsys, "verify", "--list", "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text() == listing


def test_malformed_json_reports_location(tmp_path, capsys):
    bad = tmp_path / "pair.json"
    bad.write_text('{"dim": 2,,}')
    code, _, err = run_cli(capsys, "density", "--in", str(bad))
    assert code == 1
    assert "line 1" in err and "column" in err



def _tent_json(dim=2, mult=1, **density):
    """The tent pair as JSON, with the given fields of its density replaced."""
    return {"dim": dim, "mult": mult, "density": {**tent_function().to_dict(), **density}}


def _without(obj: dict, key: str) -> dict:
    return {k: v for k, v in obj.items() if k != key}


NOT_RATIONAL = 'must be an integer or a "num/den" string, got'
MALFORMED_PAIRS = {
    "top-level-array": ([2, 1], "a pair density must be a JSON object, got [2, 1]"),
    "density-array": ({"dim": 2, "mult": 1, "density": [0, 1]},
                      "density must be a JSON object, got [0, 1]"),
    "breakpoints-string": (_tent_json(breakpoints="012"),
                           'breakpoints must be a JSON array, got "012"'),
    "pieces-object": (_tent_json(pieces={"0": 1}), 'pieces must be a JSON array, got {"0": 1}'),
    "piece-string": (_tent_json(pieces=["01", [2, -1]]),
                     'pieces[0] must be a JSON array, got "01"'),
    "left-tail-null": (_tent_json(left_tail=None), "left_tail must be a JSON array, got null"),
    "right-tail-string": (_tent_json(right_tail="0"),
                          'right_tail must be a JSON array, got "0"'),
    "coefficient-float": (_tent_json(pieces=[[0.5, 1], [2, -1]]),
                          f"pieces[0][0] {NOT_RATIONAL} 0.5"),
    "breakpoint-null": (_tent_json(breakpoints=[0, None, 2]),
                        f"breakpoints[1] {NOT_RATIONAL} null"),
    "breakpoint-bool": (_tent_json(breakpoints=[0, True, 2]),
                        f"breakpoints[1] {NOT_RATIONAL} true"),
    "coefficient-zero-denominator": (_tent_json(pieces=[[0, 1], [2, "-1/0"]]),
                                     f'pieces[1][1] {NOT_RATIONAL} "-1/0"'),
    "mult-float": (_tent_json(mult=1.9), "mult must be a JSON integer, got 1.9"),
    "dim-string": (_tent_json(dim="2"), 'dim must be a JSON integer, got "2"'),
    "dim-null": (_tent_json(dim=None), "dim must be a JSON integer, got null"),
    "negated-tent": (_tent_json(pieces=[["0", "-1"], ["-2", "1"]]),
                     "density must be nonnegative"),
    **{f"no-{key}": (_without(_tent_json(), key), f'a pair density has no "{key}" key')
       for key in ("dim", "mult", "density")},
    **{f"no-{key}": ({**_tent_json(), "density": _without(tent_function().to_dict(), key)},
                     f'density has no "{key}" key')
       for key in ("breakpoints", "pieces", "left_tail", "right_tail")},
}


@pytest.mark.parametrize("payload, message", MALFORMED_PAIRS.values(),
                         ids=MALFORMED_PAIRS.keys())
def test_malformed_pair_density_is_one_line_error(tmp_path, capsys, payload, message):
    bad = tmp_path / "pair.json"
    bad.write_text(json.dumps(payload))
    for argv in (("density", "--in", str(bad)),
                 ("segre", "--left", str(bad), "--right", str(bad))):
        assert run_cli(capsys, *argv) == (1, "", f"hkfun: error: {message}\n")


def test_a_fault_inside_a_command_is_not_an_input_error(monkeypatch, capsys):
    """``main`` turns ValueError, ArithmeticError and OSError into a one-line
    error; a KeyError from inside a command is a fault of the program, and
    it propagates."""
    def lookup_fault(spec):
        raise KeyError("breakpoints")

    monkeypatch.setattr(cli, "slice_volume", lookup_fault)
    with pytest.raises(KeyError):
        main(["volume", "--degrees", "1,2"])
    assert capsys.readouterr().err == ""


# the raises in hkfun that report no input error: (module, function, exception)
NOT_VALUE_ERRORS = [("piecewise", "__setattr__", "AttributeError"),
                    ("piecewise", "__setattr__", "AttributeError"),
                    ("piecewise", "as_fraction", "TypeError")]


def _raises(node: ast.AST, function: str = ""):
    """(innermost enclosing function, raise statement) for each raise below node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Raise):
            yield function, child
        yield from _raises(child, child.name if isinstance(child, ast.FunctionDef) else function)


def test_every_raise_in_the_package_is_a_value_error():
    """The error contract ``main`` relies on: each module raises ValueError,
    or a subclass of it, for bad input where it finds it.  The only other
    raises are the immutability guards and ``as_fraction``'s TypeError for
    a value of no rational type, which no command passes."""
    others = []
    for path in sorted(Path(hkfun.__file__).parent.glob("*.py")):
        module = importlib.import_module(f"hkfun.{path.stem}".removesuffix(".__init__"))
        for function, node in _raises(ast.parse(path.read_text(encoding="utf-8"))):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = exc.attr if isinstance(exc, ast.Attribute) else exc.id
            if not issubclass(getattr(module, name, None) or getattr(builtins, name), ValueError):
                others.append((path.stem, function, name))
    assert sorted(others) == NOT_VALUE_ERRORS


def test_closed_forms_import_without_numpy():
    """The closed forms run on the standard library; only the oracle (and the
    modules that call it) load numpy."""
    src = str(Path(hkfun.__file__).parent.parent)
    code = ("import sys, hkfun.trinomial, hkfun.piecewise, hkfun.density, hkfun.volume, "
            "hkfun.bundle; print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert done.stdout == "[]\n"


def test_pair_density_reads_integer_entries(tmp_path, capsys):
    """JSON integers read as the "num/den" strings that ``to_dict`` writes."""
    good = tmp_path / "pair.json"
    good.write_text(json.dumps(_tent_json(breakpoints=[0, 1, 2], pieces=[[0, 1], [2, -1]])))
    code, out, _ = run_cli(capsys, "density", "--in", str(good))
    assert code == 0
    assert PairDensity.from_dict(json.loads(out)).f == tent_function()

def test_out_flag_round_trip(tmp_path, capsys):
    target = tmp_path / "quadric.json"
    code, out, _ = run_cli(capsys, "syzygy", "--mu", "3", "--d0", "1",
                           "--poldeg", "2", "--slopes", "-1", "--ranks", "2",
                           "--out", str(target))
    assert code == 0 and out == ""
    payload = json.loads(target.read_text())
    pair = PairDensity.from_dict(payload)
    assert pair.alpha == Fraction(3, 2)
    # JSON round trip through the density subcommand
    code, out, _ = run_cli(capsys, "density", "--in", str(target))
    assert code == 0
    assert PairDensity.from_dict(json.loads(out)) == pair


def test_bundle_subcommand(capsys):
    code, out, _ = run_cli(capsys, "bundle", "--slopes", "0,-3", "--ranks", "1,1",
                           "--poldeg", "3")
    assert code == 0
    assert json.loads(out)["alpha"] == "2"


def test_volume_eval_flag(capsys):
    code, out, _ = run_cli(capsys, "volume", "--degrees", "1,2,3", "--eval", "7/2")
    assert code == 0
    assert json.loads(out)["value_at"] == {"x": "7/2", "f": "15/8"}


def test_oracle_fn_negative_x(capsys):
    # the density vanishes on x < 0, also for -1/q < x < 0
    code, out, _ = run_cli(capsys, "oracle", "--prime", "3", "--q", "3",
                           "--hypersurface", "x*y - z^2", "--vars", "3",
                           "--op", "fn", "--x=-1/4")
    assert code == 0
    assert json.loads(out)["fn_sample"] == "0"


@pytest.mark.parametrize("argv", [
    ("--prime", "3", "--q", "3", "--gens", "x,y", "--vars", "2", "--x", "1000000000000"),
    ("--prime", "5", "--q", "5", "--cyclic", "4", "--x", "100000000000000000000000"),
], ids=["gens-x-y", "cyclic-4"])
def test_oracle_fn_past_the_sweep_bound_is_zero(capsys, argv):
    """A sample past the sweep bound is 0 without a rank: the first
    enumerated every monomial of degree 3*10^12, the second overflowed a
    C long."""
    code, out, err = run_cli(capsys, "oracle", "--op", "fn", *argv)
    assert (code, err) == (0, "")
    assert json.loads(out)["fn_sample"] == "0"


def test_samples_of_a_value_past_4300_digits(capsys):
    """The value M*x of the tent at x = 1, M = 10^400, with 4000 places: 4401
    digits, rendered as integer part and fraction apart."""
    mult = 10**400
    code, out, err = run_cli(capsys, "density", "--mult", str(mult), "--degrees", "1,1",
                             "--format", "samples", "--samples", "3", "--precision", "4000")
    assert (code, err) == (0, "")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [row["f"] for row in rows] == ["0", str(mult), "0"]
    assert rows[1]["f_dec"] == f"{mult}." + "0" * 4000
    assert rows[0]["f_dec"] == "0." + "0" * 4000


def test_json_of_a_value_past_4300_digits(capsys):
    """JSON output is exact at any length: with D = 1500 nines, the e_HK of
    the parameter pair of degrees D, D, D, D is D^4, about 6000 digits,
    past CPython's default int-to-str limit."""
    degree = 10**1500 - 1
    code, out, err = run_cli(capsys, "density", "--degrees", ",".join([str(degree)] * 4),
                             "--format", "json")
    assert (code, err) == (0, "")
    assert Fraction(json.loads(out)["ehk"]) == degree ** 4


def test_oracle_curve_flag(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--prime", "17", "--q", "17",
                           "--fermat", "4", "--op", "fthreshold")
    assert code == 0
    assert json.loads(out)["fthreshold_estimate"] == "26/17"


def test_decimal_string_correct_rounding():
    assert decimal_string(Fraction(1, 3), 4) == "0.3333"
    assert decimal_string(Fraction(2, 3), 4) == "0.6667"
    assert decimal_string(Fraction(-1, 8), 2) == "-0.12"   # half-even: -0.125
    assert decimal_string(Fraction(3, 8), 2) == "0.38"     # 0.375 rounds to even
    assert decimal_string(Fraction(1, 4), 2) == "0.25"
    assert decimal_string(Fraction(349, 232), 6) == "1.504310"
    assert decimal_string(Fraction(7), 0) == "7"


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6),
       st.integers(0, 12))
def test_decimal_string_matches_decimal_module(value, precision):
    # A value n/d that is not a rounding tie at <= 12 places lies at least
    # 1/(2 * 10^6 * 10^12) from one; the 60-digit quotient lies within 10^-50
    # of n/d, and a tie is exact, so quantize rounds as the exact value would.
    with localcontext() as ctx:
        ctx.prec = 60
        quotient = Decimal(value.numerator) / Decimal(value.denominator)
        expected = format(quotient.quantize(Decimal(1).scaleb(-precision),
                                            rounding=ROUND_HALF_EVEN), "f")
    if Decimal(expected) == 0:
        expected = expected.lstrip("-")  # decimal_string writes no sign on zero
    assert decimal_string(value, precision) == expected


FTHRESHOLD = ("--op", "fthreshold")
INVALID_ORACLE_INPUT = [
    ("3", "10", "x*y - z^2", FTHRESHOLD),    # q not a power of p
    ("4", "4", "x*y - z^2", FTHRESHOLD),     # p not prime
    ("3", "3", "x*y - 3*z^2", FTHRESHOLD),   # a coefficient 0 mod p
    # h not homogeneous, at a degree where the walk's box is empty
    ("3", "3", "x^2*y - y*z", ("--gens", "x,y,z,x*y", "--op", "fn", "--x", "5")),
    ("3", "3", "1", FTHRESHOLD),             # h constant
    ("3", "3", "x*y - z^2", ("--gens", "1,x,y", "--format", "csv")),  # unit ideal
    ("5", "5", "x*y - z^2", ("--gens", "x,y", "--op", "fthreshold")),  # gens ignored
    ("7", "7", "x*y - z^2", ("--op", "ehk", "--precision", "-2")),  # negative precision
    # a prime past the int64 bound of the rank kernel (p < 2^31)
    ("4294967311", "1", "x*y - z^2", ("--gens", "x^7,y^7,z^7", "--op", "profile")),
    ("2147483659", "1", "x*y - z^2", ("--gens", "x^7,y^7,z^7", "--op", "profile")),
    # a sign with no term after it, read before as if it were absent
    ("3", "9", "x^2+x*y-+y^2", ("--op", "ehk")),
    ("5", "5", "x*y--z^2", FTHRESHOLD),
    ("5", "25", "x*y - z^2-", FTHRESHOLD),
    # an empty --gens or --hypersurface, read before as if it were not given
    ("2", "2", "x*y - z^2", ("--gens", "")),
    ("2", "4", "", ("--gens", "x,y,z")),
]


@pytest.mark.parametrize("prime, q, hypersurface, extra", INVALID_ORACLE_INPUT,
                         ids=["-".join(case[:3]) for case in INVALID_ORACLE_INPUT])
def test_oracle_rejects_invalid_input(capsys, prime, q, hypersurface, extra):
    code, out, err = run_cli(capsys, "oracle", "--prime", prime, "--q", q,
                             "--hypersurface", hypersurface, "--vars", "3", *extra)
    assert code == 1
    assert out == ""
    assert err.startswith("hkfun: error:") and err.count("\n") == 1


def test_residual_size_cap_is_one_line_error(monkeypatch, capsys):
    argv = ("oracle", "--prime", "3", "--q", "3", "--fermat", "4", "--gens", "x+y,y^2,z^2")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and json.loads(out)["top_nonzero"] == 8
    monkeypatch.setattr(oracle, "_RESIDUAL_CELL_LIMIT", 10)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("hkfun: error: the residual rank of degree ")
    assert err.endswith(" matrix, beyond the size cap of 10 entries\n")
    assert err.count("\n") == 1


def test_segre_from_degrees_and_from_files(tmp_path, capsys):
    # the Segre product of two tents: dimension 3, support [0, 2], e_HK 4/3
    code, out, _ = run_cli(capsys, "segre", "--degrees", "1,1", "--degrees2", "1,1")
    assert code == 0
    payload = json.loads(out)
    assert (payload["dim"], payload["alpha"], payload["ehk"]) == (3, "2", "4/3")
    tent = tmp_path / "tent.json"
    code, _, _ = run_cli(capsys, "density", "--degrees", "1,1", "--out", str(tent))
    assert code == 0
    code, from_files, _ = run_cli(capsys, "segre", "--left", str(tent), "--right", str(tent))
    assert code == 0
    assert from_files == out


@pytest.mark.parametrize("argv, rows", [
    (("density", "--degrees", "1,1"), ["-inf,0,0", "0,1,0 1", "1,2,2 -1", "2,inf,0"]),
    (("volume", "--degrees", "1,2"),
     ["-inf,0,0", "0,1,0 1", "1,2,1", "2,3,3 -1", "3,inf,0"]),
], ids=["density", "volume"])
def test_piece_rows_csv(capsys, argv, rows):
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["start,end,coefficients"] + rows


def test_oracle_ehk(capsys):
    # the quadric cone at q = 3: l(R/m^[3]) = 1 + 3 + 5 + 4 = 13, over q^2
    code, out, _ = run_cli(capsys, "oracle", "--prime", "3", "--q", "3",
                           "--hypersurface", "x*y - z^2", "--op", "ehk", "--precision", "4")
    assert code == 0
    payload = json.loads(out)
    assert (payload["ehk_estimate"], payload["ehk_dec"]) == ("13/9", "1.4444")


@pytest.mark.parametrize("flag, text, shape", [
    ("--cyclic", "5", "4,1,4,1,4,1"),
    ("--fermat", "4", "4,0,4,0,0,4"),
], ids=["cyclic-typeI", "fermat-typeII"])
def test_curve_flags_name_one_curve(capsys, flag, text, shape):
    """--cyclic 5 is TypeI(4, 1, 4, 1, 4, 1) and --fermat 4 is
    TypeII(4, 0, 4, 0, 0, 4): the table and the thresholds agree."""
    option = "--typeI" if flag == "--cyclic" else "--typeII"
    outs = []
    for curve in ((flag, text), (option, shape)):
        code, out, _ = run_cli(capsys, "trinomial", *curve, "--table", "--prime", "31",
                               "--format", "csv")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    lines = outs[0].splitlines()
    assert lines[0] == "residue,T,D,formula,threshold_at_p"
    # phi(2 * lambda_h) / 2 rows: lambda_h = 13 for the cyclic quintic, 4 for
    # the Fermat quartic
    assert len(lines) - 1 == (6 if flag == "--cyclic" else 2)


@pytest.mark.parametrize("extra, n", [
    ((), 1), (("--prime", "5"), 1), (("--table",), 1), (("--table", "--prime", "7"), 1),
    (("--n", "2"), 2), (("--n", "2", "--prime", "11"), 2),
], ids=["plain", "prime", "table", "table-prime", "n2", "n2-prime"])
def test_irregular_curve_threshold(capsys, extra, n):
    """The irregular quintic witness (multiplicity 3 at [1:0:0]) has the one
    threshold 3n/2 + (2r - d) n/(2d) = 8n/5 at every p, with or without a
    prime or a table."""
    code, out, _ = run_cli(capsys, "trinomial", "--typeI", "0,5,0,5,3,2", *extra)
    assert code == 0
    payload = json.loads(out)
    assert (payload["class"], payload["multiplicity"]) == ("irregular", 3)
    assert payload["threshold"] == str(Fraction(8 * n, 5))
    assert "table" not in payload


@pytest.mark.parametrize("name", sorted(verify.CASES))
def test_every_verify_case(capsys, name):
    code, out, _ = run_cli(capsys, "verify", "--case", name)
    payload = json.loads(out)
    assert payload["case"] == name
    failing = name in verify.FAILS_BY_DESIGN
    assert (code, payload["passed"]) == ((1, False) if failing else (0, True))
