"""End-to-end command tests: output text, JSON schemas, exit codes."""
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hyperweyl import cli, hyper
from hyperweyl.cli import (
    EXIT_FAIL,
    EXIT_OK,
    EXIT_PIPE,
    EXIT_UNSTABLE,
    EXIT_USAGE,
    SweepLimits,
    identity_cases,
    load_eval_table,
    main,
)
from hyperweyl.coeffalg import CoeffAlgebra
from hyperweyl.oracle import get_oracle
from hyperweyl.rootdata import build_root_datum


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- documented examples -------------------------------------------------------

def test_verify_basicrel_example(capsys):
    code, out, _ = run(capsys, "verify", "--id", "basicrel", "--type", "A1",
                       "--rmax", "2", "--smax", "3", "--adeg", "2")
    assert code == EXIT_OK
    assert out.strip() == "45 cases, all pass"


def test_weyl_dimension_example(capsys):
    code, out, _ = run(capsys, "weyl", "--type", "A1", "--lambda", "3")
    assert code == EXIT_OK
    assert "dimension: 4" in out
    assert "stabilized: true" in out


def test_lambda_order_zero_example(capsys):
    code, out, _ = run(capsys, "lambda", "--i", "1", "--a", "t", "--r", "0")
    assert code == EXIT_OK
    assert out.strip() == "1"


def test_lambda_order_one(capsys):
    code, out, _ = run(capsys, "lambda", "--i", "1", "--a", "t", "--r", "1")
    assert code == EXIT_OK
    assert out.strip() == "L(1,t,1)"


def test_lambda_upto(capsys):
    code, out, _ = run(capsys, "lambda", "--a", "t", "--upto", "2")
    assert code == EXIT_OK
    assert out.splitlines() == ["r=0: 1", "r=1: L(1,t,1)", "r=2: L(1,t,2)"]


@pytest.mark.parametrize("typ, a", [("A1", "t"), ("A2", "1")])
def test_lambda_json_round_trips(capsys, typ, a):
    code, out, _ = run(capsys, "lambda", "--type", typ, "--i", "1", "--a", a,
                       "--upto", "3", "--json")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert set(obj) == {"type", "coeff", "i", "a", "orders"}
    assert (obj["type"], obj["coeff"], obj["i"], obj["a"]) == (typ, "poly:1", 1, a)
    assert [e["r"] for e in obj["orders"]] == [0, 1, 2, 3]
    o = get_oracle(build_root_datum(typ[0], int(typ[1:])), CoeffAlgebra("poly", 1))
    for e in obj["orders"]:
        assert set(e) == {"r", "element"}
        want = hyper.collect(o, hyper.lambda_poly(o, 0, o.algebra.parse(a), e["r"]))
        assert e["element"] == hyper.hyper_to_json(o, want)


@pytest.mark.parametrize("flag", ["--upto", "--r"])
def test_lambda_negative_upto(capsys, flag):
    code, out, err = run(capsys, "lambda", "--a", "t", flag, "-1")
    assert code == EXIT_USAGE and not out and f"{flag} must be >= 0" in err


# -- verify sweeps ------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ("--id", "basicrel", "--rmax", "-1", "--smax", "-1"),
    ("--id", "basicrel", "--smax", "-1"),
    ("--id", "a_k_reduction", "--kmax", "-2"),
    ("--id", "commutrels1", "--lmax", "-1"),
    ("--id", "basicrel", "--adeg", "-1"),
    ("--id", "gAforms_integrality", "--count", "-3"),
])
def test_verify_negative_bounds(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    flag = next(a for a in argv if a.startswith("--") and a != "--id")
    assert code == EXIT_USAGE and not out and flag in err


def test_verify_all_identities_a1(capsys):
    code, out, _ = run(capsys, "verify", "--type", "A1")
    assert code == EXIT_OK
    assert out.strip().endswith("cases, all pass")
    for name in ("basicrel", "commutrels4", "a_k_reduction"):
        assert name in out


@pytest.mark.parametrize("typ, coeff, bound, count, cases", [
    ("D4", "poly:1", "2", "20", 5825),
    ("E6", "poly:0", "1", "10", 3205),
])
def test_verify_all_identities_simply_laced(capsys, typ, coeff, bound, count, cases):
    # the structure constants of D and E come from the root datum's sign rule
    code, out, _ = run(capsys, "verify", "--id", "all", "--type", typ, "--coeff", coeff,
                       "--adeg", "1", "--kmax", bound, "--lmax", bound, "--rmax", bound,
                       "--smax", bound, "--count", count)
    assert code == EXIT_OK
    assert out.splitlines()[-1] == f"{cases} cases, all pass"


def test_non_simply_laced_type_is_usage_error(capsys):
    code, out, err = run(capsys, "weyl", "--type", "B2", "--lambda", "1,0")
    assert code == EXIT_USAGE and not out
    assert err == "error: structure constants implemented for simply-laced types only, got B2\n"


def test_verify_json_roundtrip(capsys):
    code, out, _ = run(capsys, "verify", "--id", "commutrels2", "--type", "A2",
                       "--json")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["pass"] is True and obj["type"] == "A2"
    assert json.dumps(obj, indent=2, sort_keys=True) + "\n" == out


def test_verify_failure_exit_code(capsys, monkeypatch):
    def fake(o, which, params):
        return {"id": which, "params": params, "pass": False,
                "lhs": "x", "rhs": "y", "residual": "x - y"}
    monkeypatch.setattr(cli, "verify_identity", fake)
    code, out, _ = run(capsys, "verify", "--id", "commutrels2", "--type", "A1",
                       "--kmax", "1", "--lmax", "1")
    assert code == EXIT_FAIL
    assert "FAIL" in out and "1 failures" in out


def test_verify_failure_json(capsys, monkeypatch):
    def fake(o, which, params):
        return {"id": which, "params": params, "pass": False,
                "lhs": "x", "rhs": "y", "residual": "x - y"}
    monkeypatch.setattr(cli, "verify_identity", fake)
    code, out, _ = run(capsys, "verify", "--id", "commutrels2", "--type", "A1",
                       "--kmax", "1", "--lmax", "1", "--json")
    assert code == EXIT_FAIL
    obj = json.loads(out)
    assert obj["pass"] is False
    assert obj["identities"][0]["failures"][0]["residual"] == "x - y"


def test_verify_failure_prints_real_sides(capsys, monkeypatch):
    # a checker whose sides differ goes through the real report
    def unequal(o, p):
        return hyper._report(o, p, o.x_minus(0, (1,)), Fraction(1, 2) * o.one())
    _checker, axes, keep = hyper._IDENTITIES["commutrels2"]
    monkeypatch.setitem(hyper._IDENTITIES, "commutrels2", (unequal, axes, keep))
    argv = ("verify", "--id", "commutrels2", "--type", "A1", "--kmax", "1", "--lmax", "1")
    code, out, _ = run(capsys, *argv, "--json")
    assert code == EXIT_FAIL
    failure = json.loads(out)["identities"][0]["failures"][0]
    assert failure["lhs"] == "1*f(a1,t)" and failure["rhs"] == "1/2"
    assert failure["residual"] == "-1/2 + 1*f(a1,t)"
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_FAIL and "  residual: -1/2 + 1*f(a1,t)" in out


def test_verify_unknown_id(capsys):
    code, _, err = run(capsys, "verify", "--id", "nosuch", "--type", "A1")
    assert code == EXIT_USAGE and "unknown identity id" in err


def test_identity_cases_skip_rank_one_conflict():
    o = get_oracle(build_root_datum("A", 1), CoeffAlgebra("poly", 1))
    for p in identity_cases(o, "commutrels1", SweepLimits(adeg=1)):
        assert not (p["alpha"] == p["beta"] and p["sign1"] != p["sign2"])


# -- module subcommands ------------------------------------------------------------

def test_weyl_json_schema(capsys):
    code, out, _ = run(capsys, "weyl", "--type", "A2", "--lambda", "1,1",
                       "--json")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["dimension"] == 8 and obj["stabilized"] is True
    assert obj["lambda"] == [1, 1] and obj["char"] == 0
    assert sum(e["mult"] for e in obj["character"]) == 8
    assert json.dumps(obj, indent=2, sort_keys=True) + "\n" == out


def test_weyl_char_p(capsys):
    code, out, _ = run(capsys, "weyl", "--type", "A1", "--lambda", "3",
                       "--char", "2", "--json")
    assert code == EXIT_OK
    assert json.loads(out)["dimension"] == 4


def test_local_weyl_graded(capsys):
    code, out, _ = run(capsys, "local-weyl", "--type", "A1", "--lambda", "2",
                       "--json")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["dimension"] == 4 and obj["eval"] == "graded"
    assert obj["coeff"] == "poly:1"


def test_local_weyl_points_preset(capsys):
    code, out, _ = run(capsys, "local-weyl", "--type", "A1", "--lambda", "2",
                       "--eval", "points:1,2", "--json")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["dimension"] == 4 and obj["eval"] == "table"


def test_local_weyl_window_overrides(capsys):
    code, out, _ = run(capsys, "local-weyl", "--type", "A1", "--lambda", "2",
                       "--slack", "0", "--max-slack", "1", "--allow-unstable",
                       "--json")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["stabilized"] is False and obj["dimension"] > 4


def test_unstable_exit_code(capsys):
    code, out, err = run(capsys, "local-weyl", "--type", "A1", "--lambda", "2",
                         "--slack", "0", "--max-slack", "1")
    assert code == EXIT_UNSTABLE
    assert "stabilized: false" in out and "did not stabilize" in err


def test_max_slack_equal_to_slack_is_one_unconfirmed_pass(capsys):
    argv = ("weyl", "--lambda", "1", "--slack", "3", "--max-slack", "3")
    code, out, err = run(capsys, *argv)
    assert code == EXIT_UNSTABLE
    assert "stabilized: false  (slack 3)" in out and "did not stabilize" in err
    code, out, _ = run(capsys, *argv, "--allow-unstable")
    assert code == EXIT_OK and "(slack 3)" in out


# -- eval table files --------------------------------------------------------------

def table_file(tmp_path, obj):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(obj))
    return str(path)


def test_eval_table_point_module(capsys, tmp_path):
    entries = [{"i": 1, "b": f"t^{s}", "r": 1, "value": str(-(5 ** s))}
               for s in range(1, 65)]
    path = table_file(tmp_path, {"lambda": [1], "c": entries,
                                 "field": {"char": 0}})
    code, out, _ = run(capsys, "local-weyl", "--type", "A1",
                       "--eval-table", path, "--json")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["dimension"] == 2 and obj["char"] == 0


def test_eval_table_graded_preset_is_all_zero(tmp_path):
    path = table_file(tmp_path, {"lambda": [2], "c": [],
                                 "field": {"char": 5}})
    ev = load_eval_table(path, CoeffAlgebra("poly", 1))
    assert ev.lam == (2,) and ev.char == 5 and ev.c == {}
    assert ev.chi_series(0, (1,), 1) == 0


def test_eval_table_numeric_value_accepted(tmp_path):
    path = table_file(tmp_path, {"lambda": [2],
                                 "c": [{"i": 1, "b": "t", "r": 1, "value": 3}]})
    ev = load_eval_table(path, CoeffAlgebra("poly", 1))
    assert ev.c == {(0, (1,), 1): 3}


def test_eval_table_rejects_out_of_range_order(capsys, tmp_path):
    path = table_file(tmp_path, {"lambda": [1],
                                 "c": [{"i": 1, "b": "t", "r": 2, "value": "3"}]})
    code, _, err = run(capsys, "local-weyl", "--type", "A1",
                       "--eval-table", path)
    assert code == EXIT_USAGE and "order" in err


def test_eval_table_rejects_nonprime_char(capsys, tmp_path):
    path = table_file(tmp_path, {"lambda": [1], "c": [],
                                 "field": {"char": 4}})
    code, _, err = run(capsys, "local-weyl", "--type", "A1",
                       "--eval-table", path)
    assert code == EXIT_USAGE and "prime" in err


def test_eval_table_malformed_json(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json")
    code, _, err = run(capsys, "local-weyl", "--type", "A1",
                       "--eval-table", str(path))
    assert code == EXIT_USAGE and "malformed" in err


def test_eval_table_non_object_field(capsys, tmp_path):
    path = table_file(tmp_path, {"lambda": [2], "field": 5})
    code, _, err = run(capsys, "local-weyl", "--type", "A1",
                       "--eval-table", path)
    assert code == EXIT_USAGE and "bad eval table entry" in err


@pytest.mark.parametrize("typ, obj, named", [
    # these were read silently: the last repeated value won, a 0 was dropped
    # in favour of the value before it, and "11" was iterated as (1, 1)
    ("A1", {"lambda": [2], "c": [{"i": 1, "b": "t", "r": 1, "value": v} for v in (-3, 5)]},
     "repeated entry at node 1, b t, r 1"),
    ("A1", {"lambda": [2], "c": [{"i": 1, "b": "t^2", "r": 2, "value": v} for v in (-3, 0)]},
     "repeated entry at node 1, b t^2, r 2"),
    ("A2", {"lambda": "11", "c": []}, "lambda must be a JSON list"),
], ids=["repeated-value", "repeated-zero", "lambda-string"])
def test_eval_table_rejects_ambiguous_tables(capsys, tmp_path, typ, obj, named):
    code, out, err = run(capsys, "local-weyl", "--type", typ,
                         "--eval-table", table_file(tmp_path, obj))
    assert code == EXIT_USAGE and not out and named in err


@pytest.mark.parametrize("typ, obj, field", [
    # each of these was truncated by int() and ran, exiting 0
    ("A1", {"lambda": [2.9], "c": []}, "lambda"),
    ("A2", {"lambda": [True, 1], "c": []}, "lambda"),
    ("A1", {"lambda": [2], "c": [{"i": 1.6, "b": "t", "r": 1, "value": "-3"}]}, "i"),
    ("A1", {"lambda": [2], "c": [{"i": 1, "b": "t", "r": 1.5, "value": "-3"}]}, "r"),
    ("A1", {"lambda": [2], "c": [{"i": 1, "b": "t", "r": "1", "value": "-3"}]}, "r"),
    ("A2", {"lambda": [1, 1], "field": {"char": 5.0}, "c": []}, "field.char"),
], ids=["lambda-float", "lambda-bool", "i-float", "r-float", "r-string", "char-float"])
def test_eval_table_numbers_must_be_integers(capsys, tmp_path, typ, obj, field):
    code, out, err = run(capsys, "local-weyl", "--type", typ,
                         "--eval-table", table_file(tmp_path, obj))
    assert code == EXIT_USAGE and not out
    assert f"{field} must be a JSON integer" in err


@pytest.mark.parametrize("value", ["-1_0", " 3", "\u0663"],
                         ids=["underscore", "space", "arabic-indic-digit"])
def test_eval_table_value_must_be_a_decimal_integer(capsys, tmp_path, value):
    # int() read these as -10, 3 and 3, and the table ran, exiting 0
    obj = {"lambda": [2], "c": [{"i": 1, "b": "t", "r": 1, "value": value}]}
    code, out, err = run(capsys, "local-weyl", "--type", "A1",
                         "--eval-table", table_file(tmp_path, obj))
    assert code == EXIT_USAGE and not out
    assert "value must be a JSON integer or a decimal-integer string" in err


def test_eval_table_lambda_mismatch(capsys, tmp_path):
    path = table_file(tmp_path, {"lambda": [2], "c": []})
    code, _, err = run(capsys, "local-weyl", "--type", "A1", "--lambda", "1",
                       "--eval-table", path)
    assert code == EXIT_USAGE and "disagrees" in err


def test_eval_table_short_lambda_is_usage_error(capsys, tmp_path):
    path = table_file(tmp_path, {"lambda": [1], "c": []})
    code, out, err = run(capsys, "local-weyl", "--type", "A2", "--eval-table", path)
    assert code == EXIT_USAGE and not out
    assert "(1,) is not an integral weight of A2" in err


# -- basis-check and usage plumbing -----------------------------------------------

def test_basis_check(capsys):
    code, out, _ = run(capsys, "basis-check", "--type", "A1",
                       "--coeff", "poly:2", "--count", "25")
    assert code == EXIT_OK
    assert "25 random products" in out


def test_basis_check_json(capsys):
    code, out, _ = run(capsys, "basis-check", "--type", "A2", "--count", "10",
                       "--json")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["pass"] is True and obj["failure"] == ""


def test_basis_check_negative_count(capsys):
    code, out, err = run(capsys, "basis-check", "--count", "-5")
    assert code == EXIT_USAGE and not out and "--count" in err


@pytest.mark.parametrize("argv, named", [
    (("basis-check", "--count", "3", "--max-deg", "-1"), "--max-deg"),
    (("basis-check", "--max-len", "-1"), "--max-len"),
    (("basis-check", "--max-len", "0"), "--max-len"),
    (("basis-check", "--max-k", "0"), "--max-k"),
    (("basis-check", "--max-k", "-2"), "--max-k"),
    (("verify", "--id", "gAforms_integrality", "--kmax", "0"), "max_k"),
])
def test_bad_word_size_bounds(capsys, argv, named):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE and not out
    assert named in err and "randrange" not in err


@pytest.mark.parametrize("argv, named", [
    (("weyl", "--lambda", "1", "--slack", "3", "--max-slack", "1"), "max_slack"),
    (("weyl", "--lambda", "1", "--max-slack", "-3"), "max_slack"),
    (("local-weyl", "--lambda", "1", "--eval", "points:4", "--max-slack", "0"),
     "max_slack"),
    # the points preset's table degree grows with --max-slack, and must stay >= 1
    (("local-weyl", "--lambda", "1", "--eval", "points:4", "--max-slack", "-9"),
     "max_slack"),
])
def test_bad_window_is_usage_error(capsys, argv, named):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE and not out
    assert named in err


PSI_12 = "318665857834031151167461"  # a strong pseudoprime to the bases 2..37


@pytest.mark.parametrize("argv, named", [
    (("weyl", "--type", "A2", "--lambda", "1,x"),
     "--lambda must be a comma-separated integer list"),
    (("lambda", "--i", "0"), "node index must be in 1..1"),
    (("local-weyl", "--eval-table", "{missing}"), "cannot read eval table"),
    (("local-weyl", "--lambda", "1", "--eval", "points:1/2"),
     "points preset needs 1 node group(s)"),
    (("local-weyl", "--lambda", "1", "--eval", "points:x"), "points must be integers"),
    (("local-weyl", "--eval-table", "{table}", "--char", "3"),
     "--char disagrees with the eval table"),
    (("local-weyl", "--lambda", "1", "--eval", "bogus"),
     "--eval must be 'graded' or 'points:...'"),
    (("weyl", "--type", "A1", "--lambda", "1", "--char", PSI_12),
     "characteristic must be 0 or prime"),
    (("weyl", "--lambda", "1", "--char", "3317044064679887385961981"),
     "primality is only decided below"),
    # an exponent one past the 64-bit letter field, and one Laurent exponent
    # one below the offset field's range
    (("lambda", "--a", f"t^{2 ** 64}", "--r", "1"), "does not fit the 64-bit letter fields"),
    (("lambda", "--coeff", "laurent:1", "--a", f"t^{-2 ** 63 - 1}", "--r", "1"),
     "does not fit the 64-bit letter fields"),
    # an input that fits, whose square (read at order 2) does not: the input
    # and the order are named, not the square it forms
    (("lambda", "--a", f"t^{2 ** 64 - 1}", "--upto", "2"),
     f"error: --a t^{2 ** 64 - 1} at order 2: its power a^2 does not fit the 64-bit "
     "letter fields\n"),
])
def test_usage_error_names_its_cause(capsys, tmp_path, argv, named):
    table = table_file(tmp_path, {"lambda": [1], "c": [], "field": {"char": 5}})
    argv = [arg.format(missing=tmp_path / "missing.json", table=table) for arg in argv]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE and not out
    assert err.startswith("error: ") and named in err and "Traceback" not in err


def test_bad_type_string(capsys):
    code, _, err = run(capsys, "weyl", "--type", "Z9", "--lambda", "1")
    assert code == EXIT_USAGE and "bad type string" in err


def test_bad_coeff_spec(capsys):
    code, _, err = run(capsys, "local-weyl", "--coeff", "power:1",
                       "--lambda", "1")
    assert code == EXIT_USAGE and "spec" in err


def test_missing_lambda(capsys):
    code, _, err = run(capsys, "local-weyl", "--type", "A1")
    assert code == EXIT_USAGE and "--lambda" in err


def test_lambda_wrong_arity(capsys):
    code, _, err = run(capsys, "weyl", "--type", "A2", "--lambda", "1")
    assert code == EXIT_USAGE and "entries" in err


def test_points_preset_needs_poly_one(capsys):
    code, _, err = run(capsys, "local-weyl", "--coeff", "poly:2",
                       "--lambda", "1", "--eval", "points:1")
    assert code == EXIT_USAGE and "poly:1" in err


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == EXIT_USAGE
    capsys.readouterr()


def test_nondominant_weight_rejected(capsys):
    code, _, err = run(capsys, "weyl", "--type", "A1", "--lambda", "-1")
    assert code == EXIT_USAGE and err


@pytest.mark.parametrize("argv", [["verify", "--id", "basicrel", "--type", "A1", "--json"],
                                  ["local-weyl", "--type", "A1", "--lambda", "2", "--json"]],
                         ids=["verify", "local-weyl"])
@pytest.mark.parametrize("nbytes", [0, 1])
def test_closed_stdout_exits_without_traceback(argv, nbytes):
    # the reader takes nbytes and closes the pipe, as `| head -c 1` does; with
    # nbytes == 0 it is closed before the command starts, so the write must fail
    src = Path(__file__).resolve().parent.parent / "src"
    read_end, write_end = os.pipe()
    proc = subprocess.Popen([sys.executable, "-m", "hyperweyl.cli", *argv], stdout=write_end,
                            stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=str(src)))
    os.close(write_end)
    with os.fdopen(read_end, "rb") as out:
        assert out.read(nbytes) == b"{"[:nbytes]
    _, err = proc.communicate(timeout=120)
    assert err == b"", err.decode()
    assert proc.returncode in ((EXIT_PIPE,) if nbytes == 0 else (EXIT_OK, EXIT_PIPE))
