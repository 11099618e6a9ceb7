import json
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from downup import gwa_mul, parse_element
from downup.cli import main

from support import std_algebra


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, "--format", "structured", *argv)
    assert err == ""
    return code, json.loads(out)


def test_indices_integer_point(capsys):
    code, out, err = run(capsys, "--d", "1", "--n1", "3", "--n2", "2", "indices")
    assert code == 0 and err == ""
    assert out.splitlines() == ["I = {0, 1}", "J = {0, 1}",
                                "case: b1>b2 / b1=b2+1"]
    code, out, err = run(capsys, "--d", "1", "--n1", "2", "--n2", "5", "indices")
    assert code == 0
    assert out.splitlines()[:2] == ["I = {0, 1, 2, 3}", "J = {0, 1, 2, 3}"]


def test_indices_accepts_unit_slope(capsys):
    # b1 = 1 makes a degenerate algebra, but the index sets themselves
    # stay well defined, so this command validates only b1 != 0
    code, out, err = run(capsys, "--d", "1", "--n1", "1", "--n2", "5", "indices")
    assert code == 0
    assert "I = {0, 1, 2, 3, 4, 5, 6}" in out
    assert "case: b1<b2 / b1<b2" in out


@pytest.mark.parametrize("n1, n2, d, case", [
    (5, 2, 1, "b1>b2 / b1>b2+1"), (3, 2, 1, "b1>b2 / b1=b2+1"),
    (2, 2, 1, "b1=b2 / b1=b2"), (2, 5, 1, "b1<b2 / b1<b2"),
    (3, 2, 2, None), (6, 1, 2, None), (3, -1, 1, None), (-2, 3, 1, None)])
def test_indices_case_note(capsys, n1, n2, d, case):
    # the note is given for integer b1, b2 >= 1 only
    code, out, err = run(capsys, "--d", str(d), "--n1", str(n1),
                         "--n2", str(n2), "indices")
    assert code == 0
    notes = [line[6:] for line in out.splitlines() if line.startswith("case: ")]
    assert notes == ([case] if case else [])


def test_indices_negative_slope(capsys):
    code, out, err = run(capsys, "--d", "1", "--n1", "-2", "--n2", "3", "indices")
    assert code == 0
    assert out.splitlines()[:2] == ["I = N", "J = N"]


def test_indices_empty_note(capsys):
    code, out, err = run(capsys, "--d", "2", "--n1", "-4", "--n2", "1", "indices")
    assert code == 0
    assert "I = {}" in out and "note: no solutions" in out


def test_indices_structured(capsys):
    code, doc = run_json(capsys, "--d", "2", "--n1", "3", "--n2", "3", "indices")
    assert code == 0
    assert doc["command"] == "indices"
    assert doc["inputs"] == {"d": 2, "n1": 3, "n2": 3}
    assert doc["result"]["I"] == "{0, 2}"
    assert doc["result"]["J"] == "{1}"
    assert doc["witnesses"] == {"b1": "3/2", "b2": "3/2"}


def test_indices_huge_exponents(capsys):
    # membership is solved in closed form, so the cost does not grow with
    # the slope's reciprocal
    code, out, err = run(capsys, "--d", "1000000000", "--n1", "1",
                         "--n2", "1000000000", "indices")
    assert code == 0 and err == ""
    assert out.splitlines() == ["I = {1, 1000000001}",
                                "J = {0, 1000000000, 2000000000}"]


def test_indices_size_cap(capsys):
    # this finite set has about 10^9 members; its size is known before
    # any member is built, and past the cap it is refused
    code, out, err = run(capsys, "--d", "1", "--n1", "1",
                         "--n2", "1000000000", "indices")
    assert code == 2 and out == ""
    assert err.startswith("error: index set has 1000000002 members")
    assert err.count("\n") == 1


def test_derive_alpha_table_respects_size_cap(capsys):
    # an alpha table's keys are checked against the index sets, so a set
    # past the size cap is refused here as in the indices command
    start = time.perf_counter()
    code, out, err = run(capsys, "--d", "2", "--n1", "3",
                         "--n2", "1000000000", "--f", "0,1", "derive",
                         "--derivation", "w = 1; alpha_h = {1: 1}; "
                         "alpha_k = {0: (z^2 - 1)/(z^3 - 1)}", "h")
    assert time.perf_counter() - start < 2
    assert (code, out) == (2, "")
    assert err == "error: index set has 166666667 members, more than 100000\n"


def test_conformal_command(capsys):
    code, out, err = run(capsys, "--d", "1", "--n1", "3", "--n2", "2",
                         "--f", "0,1", "conformal")
    assert code == 0
    assert out.strip() == "g = -1/(z^3 - z)*h"
    code, doc = run_json(capsys, "--d", "1", "--n1", "3", "--n2", "2",
                         "--f", "0,1", "conformal")
    assert doc["witnesses"]["back_substitution"] == "0"
    assert doc["witnesses"]["support_matches"] is True


def test_conformal_scalar_coefficients(capsys):
    # coefficients are scalar expressions, not just integers
    code, out, err = run(capsys, "--d", "1", "--n1", "3", "--n2", "2",
                         "--f", "z^2,0,1/2", "conformal")
    assert code == 0 and out.startswith("g = ")


def test_mul_with_oracle_witness(capsys):
    code, doc = run_json(capsys, "--d", "1", "--n1", "3", "--n2", "2",
                         "--f", "0,1", "mul", "x*y", "y*x")
    assert code == 0
    assert doc["witnesses"]["oracle_agrees"] is True
    assert doc["inputs"]["lhs"] == "x*y"


def test_mul_beyond_oracle_reach(capsys):
    # free expansion of x^5 * x^4 is longer than the rewrite bound; the
    # cross-check steps aside instead of failing
    code, doc = run_json(capsys, "--d", "1", "--n1", "3", "--n2", "2",
                         "--f", "0,1", "mul", "x^5", "x^4")
    assert code == 0
    assert doc["result"] == "x^9"
    assert "oracle_agrees" not in doc["witnesses"]


def test_mul_power_in_one_step(capsys):
    code, out, err = run(capsys, "--d", "1", "--n1", "3", "--n2", "2",
                         "--f", "0,1", "mul", "z^200000", "1")
    assert (code, out, err) == (0, "z^200000\n", "")


@pytest.mark.parametrize("power", ["z^1000000000", "x^1000000000"])
def test_mul_huge_power(capsys, power):
    # z^e is one stored term, and a generator power past the oracle's
    # length bound is refused before its letters are built
    start = time.perf_counter()
    code, out, err = run(capsys, "--d", "1", "--n1", "3", "--n2", "2",
                         "--f", "0,1", "mul", power, "1")
    assert time.perf_counter() - start < 2
    assert (code, out, err) == (0, power + "\n", "")


@pytest.mark.parametrize("command", [("mul", "x^100000", "y^100000"),
                                     ("translate", "d^100000*u^100000")])
def test_long_opposite_sign_word_product_is_refused(capsys, command):
    # x^100000 y^100000 would cancel 100000 x,y pairs, a chain of as many
    # powers of phi: refused at once by the word-pair cap
    start = time.perf_counter()
    code, out, err = run(capsys, "--d", "1", "--n1", "3", "--n2", "2",
                         "--f", "0,1", *command)
    assert time.perf_counter() - start < 2
    assert (code, out) == (2, "")
    assert err == ("error: a word product cancelling 100000 x,y pairs is "
                   "past the limit of 100\n")


def test_cancelled_long_word_steps_the_oracle_aside(capsys):
    # the length bound applies to each power as written, even when the
    # over-long word cancels
    code, doc = run_json(capsys, "--d", "1", "--n1", "3", "--n2", "2",
                         "--f", "0,1", "mul", "0*x^9", "1")
    assert code == 0
    assert doc["result"] == "0"
    assert "oracle_agrees" not in doc["witnesses"]


def test_cancelled_long_product_steps_the_oracle_aside(capsys):
    # a product word past the length bound is refused as it forms, even
    # when the sum of the products cancels it
    code, doc = run_json(capsys, "--d", "1", "--n1", "3", "--n2", "2",
                         "--f", "0,1", "mul", "x^4*x^5 - x^5*x^4", "1")
    assert code == 0
    assert doc["result"] == "0"
    assert "oracle_agrees" not in doc["witnesses"]


def test_mul_of_many_factors_stops_the_oracle_at_its_bound(capsys):
    # the free expansion of 40 factors h + k stops at the first product
    # word past the length bound instead of building 2^40 words
    lhs = "*".join(["(h+k)"] * 40)
    start = time.perf_counter()
    code, out, err = run(capsys, "--d", "1", "--n1", "3", "--n2", "2",
                         "--f", "0,1", "mul", lhs, "1")
    assert time.perf_counter() - start < 2
    A = std_algebra()
    want = gwa_mul(A, parse_element(lhs, A), parse_element("1", A))
    assert (code, out, err) == (0, "%s\n" % want, "")


def test_mul_long_sum(capsys):
    # a sum chain is one node, however long
    code, out, err = run(capsys, "--d", "1", "--n1", "3", "--n2", "2",
                         "--f", "0,1", "mul", "+".join(["h"] * 3000), "1")
    assert (code, out, err) == (0, "3000*h\n", "")


def test_deep_nesting_exits_2(capsys):
    code, out, err = run(capsys, "--d", "1", "--n1", "3", "--n2", "2",
                         "--f", "0,1", "mul", "(" * 3000 + "h" + ")" * 3000,
                         "1")
    assert code == 2 and out == ""
    assert err.startswith("error: parentheses nested deeper than 100")
    assert err.count("\n") == 1


def test_translate_command(capsys):
    code, out, err = run(capsys, "--d", "1", "--n1", "3", "--n2", "2",
                         "--f", "0,1", "translate", "d*u")
    assert code == 0
    code2, out2, err2 = run(capsys, "--d", "1", "--n1", "3", "--n2", "2",
                            "--f", "0,1", "mul", "x*y", "1")
    assert out == out2


def test_derive_c_type(capsys):
    code, out, err = run(capsys, "--d", "1", "--n1", "3", "--n2", "2",
                         "--f", "0,1", "derive", "--derivation", "c0 = h", "x")
    assert code == 0
    assert out.strip() == "h*x"


def test_derive_alpha_type(capsys):
    code, doc = run_json(capsys, "--d", "1", "--n1", "3", "--n2", "2",
                         "--f", "0,1", "derive", "--derivation",
                         "w = 1; alpha_h = {1: 1}; "
                         "alpha_k = {0: (z - 1)/(z^3 - 1)}", "h")
    assert code == 0
    assert doc["result"] == "h*k^2*x"
    assert doc["witnesses"]["weights"] == [1]


def test_derive_rejects_uncoupled_values(capsys):
    code, out, err = run(capsys, "--d", "1", "--n1", "3", "--n2", "2",
                         "--f", "0,1", "derive", "--derivation",
                         "w = 1; alpha_h = {1: 1}; alpha_k = {0: 1}", "h")
    assert code == 2
    assert "error:" in err and "hk = kh" in err


def test_derive_rejects_duplicate_index(capsys):
    code, out, err = run(capsys, "--d", "1", "--n1", "3", "--n2", "2",
                         "--f", "0,1", "derive", "--derivation",
                         "w = 1; alpha_h = {1: 1, 1: 2}", "h")
    assert (code, out, err) == (2, "", "error: duplicate index 1\n")


@pytest.mark.parametrize("text, field", [("c0 = h; c0 = k", "c0"),
                                         ("w = 1; w = -1", "w")],
                         ids=["c0", "w"])
def test_derive_rejects_duplicate_field(capsys, text, field):
    code, out, err = run(capsys, "--d", "1", "--n1", "3", "--n2", "2",
                         "--f", "0,1", "derive", "--derivation", text, "x")
    assert (code, out, err) == \
        (2, "", "error: duplicate derivation field '%s'\n" % field)


@pytest.mark.parametrize("derivation, expr", [
    ("c0 = 1", "x^1100"),
    ("w = 1; alpha_h = {1: 1}; alpha_k = {0: (z - 1)/(z^3 - 1)}",
     "y^200 + x^200*h"),
], ids=["c-type", "alpha"])
def test_derive_long_word_cost_is_bounded(capsys, derivation, expr):
    # each D(v_n) is one closed-form sum plus one twisted commutator, not
    # a chain of n products; cli_golden.json pins the output
    start = time.perf_counter()
    code, out, err = run(capsys, "--d", "1", "--n1", "3", "--n2", "2",
                         "--f", "0,1", "derive", "--derivation", derivation,
                         expr)
    assert time.perf_counter() - start < 2
    assert code == 0 and err == ""


@pytest.mark.parametrize("lhs, rhs", [
    ("(z^10000 + 1)/(3*z^2 + 5*z + 1)", "1"),
    ("x^16", "y^16"),
    ("x^28", "y^28"),
], ids=["dense-denominator", "long-words", "longer-words"])
def test_mul_cost_is_bounded(capsys, lhs, rhs):
    # lowest terms come from an integer gcd on fraction-free maps, so
    # neither a degree-10^4 numerator over a dense denominator nor the
    # scalars of a long word product cost seconds; cli_golden.json pins
    # the x^12*y^12 output
    start = time.perf_counter()
    code, out, err = run(capsys, "--d", "1", "--n1", "3", "--n2", "2",
                         "--f", "0,1", "mul", lhs, rhs)
    assert time.perf_counter() - start < 2
    assert code == 0 and err == ""


def test_mul_past_the_gcd_degree_cap_exits_2(capsys):
    # a dense gcd past MAX_GCD_DEGREE is refused at once; a monomial
    # (test_mul_huge_power) and the degree-10^4 quotient above still answer
    start = time.perf_counter()
    code, out, err = run(capsys, "--d", "1", "--n1", "3", "--n2", "2",
                         "--f", "0,1", "mul", "(z^200000 - 1)/(z - 1)", "1")
    assert time.perf_counter() - start < 2
    assert (code, out) == (2, "")
    assert err == ("error: a polynomial gcd of degree 200000 is past the "
                   "limit of 100000\n")


def test_derive_past_the_gcd_degree_cap_exits_2(capsys):
    # phi(h^40000) - h^40000 = (z^120000 - 1)*h^40000 meets the twist
    # factor's denominator z^3 - 1: refused as that gcd would be, before the
    # product by z^120000 - 1 divides out z^3 - 1 into a dense quotient
    start = time.perf_counter()
    code, out, err = run(capsys, "--d", "1", "--n1", "3", "--n2", "2",
                         "--f", "0,1", "derive", "--derivation",
                         "w = 1; alpha_h = {1: 1}; "
                         "alpha_k = {0: (z - 1)/(z^3 - 1)}", "h^40000")
    assert time.perf_counter() - start < 2
    assert (code, out) == (2, "")
    assert err == ("error: a polynomial gcd of degree 120000 is past the "
                   "limit of 100000\n")


def test_derive_c_type_past_the_term_cap_exits_2(capsys):
    # on a monomial with q != 1, C_n has |n| distinct powers of z: for
    # c0 = 1 and a word of length 10^9 that is past MAX_INDEX_SET
    start = time.perf_counter()
    code, out, err = run(capsys, "--d", "1", "--n1", "3", "--n2", "2",
                         "--f", "0,1", "derive", "--derivation", "c0 = 1",
                         "x^1000000000")
    assert time.perf_counter() - start < 2
    assert (code, out) == (2, "")
    assert err == ("error: c-type factor C_1000000000 has 1000000000 "
                   "terms, more than 100000\n")


@pytest.mark.parametrize("c0, word, expected", [
    ("c0 = k^2", "y^1000000000",
     "-1000000000/z^2000000002*k^2*y^1000000000\n"),
    ("c0 = h^33335", "x", "h^33335*x\n"),
    ("c0 = h^30000", "x^2", "(z^90000 + z^2)*h^30000*x^2\n"),
], ids=["q-one", "high-degree-c0-x", "high-degree-c0-x2"])
def test_derive_c_type_cost_follows_the_word_length(capsys, c0, word,
                                                    expected):
    # at (1,3,2) k^2 has q = 1, so C_n is the one term n z^(n2 (n-1))
    # however long the word; h^33335 has q = z^100003, yet C_1 = 1 and
    # C_2 = z^2 + z^(e + 2) cost a term per letter
    start = time.perf_counter()
    code, out, err = run(capsys, "--d", "1", "--n1", "3", "--n2", "2",
                         "--f", "0,1", "derive", "--derivation", c0, word)
    assert time.perf_counter() - start < 2
    assert (code, out, err) == (0, expected, "")


def test_inner_witness(capsys):
    code, out, err = run(capsys, "--d", "1", "--n1", "2", "--n2", "5",
                         "inner", "--c0", "h*k^3")
    assert code == 0
    assert out.strip() == "non-inner at (1, 3)"


def test_inner_solution(capsys):
    code, doc = run_json(capsys, "--d", "1", "--n1", "2", "--n2", "5",
                         "inner", "--c0", "h")
    assert code == 0
    assert doc["result"] == "1/(z^5 - z^2)*h"
    assert doc["witnesses"]["back_substitution"] == "0"


def test_inner_parses_c0_as_a_polynomial(capsys):
    # --c0 is a polynomial in h, k, not a line of the derivation grammar
    code, out, err = run(capsys, "--d", "1", "--n1", "2", "--n2", "5",
                         "inner", "--c0", "h; w = 1")
    assert (code, out) == (2, "")
    assert err == "error: unexpected character ';' at position 1\n"


def test_verify_spec_free(capsys):
    code, out, err = run(capsys, "--samples", "25", "verify", "field")
    assert code == 0
    assert out.splitlines() == ["field: 25/25", "all checks passed"]


@pytest.mark.parametrize("samples, config", [
    ("-1", None), ("0", None), (None, "samples = 0\n"),
], ids=["flag-negative", "flag-zero", "config-zero"])
def test_verify_rejects_samples_below_one(tmp_path, capsys, samples, config):
    argv = ["--samples", samples] if samples else []
    if config:
        cfg = tmp_path / "samples.cfg"
        cfg.write_text(config)
        argv += ["--config", str(cfg)]
    for suites in (["field"], ["all"]):
        code, out, err = run(capsys, *argv, "--d", "1", "--n1", "3",
                             "--n2", "2", "--f", "0,1", "verify", *suites)
        assert code == 2 and out == ""
        assert err.startswith("error: samples must be at least 1")
        assert err.count("\n") == 1


def test_verify_with_parameters(capsys):
    code, doc = run_json(capsys, "--d", "1", "--n1", "3", "--n2", "2",
                         "--f", "0,1", "--samples", "10", "--seed", "3",
                         "verify", "phi", "indices", "relations")
    assert code == 0
    names = set(doc["witnesses"])
    assert names == {"phi", "indices", "relations"}
    assert doc["result"]["passed"] == doc["result"]["total"]


def test_verify_requires_parameters_when_needed(capsys):
    code, out, err = run(capsys, "verify", "phi")
    assert code == 2
    assert "missing parameters" in err
    # "all" beside another suite is refused before the point is asked for
    code, out, err = run(capsys, "verify", "all", "field")
    assert (code, out, err) == (2, "", "error: 'all' must be the only "
                                      "suite name\n")


def test_verify_help_lists_every_suite():
    from downup.cli import build_parser
    from downup.suites import SUITES

    # the help is a literal so that build_parser does not import suites
    commands = next(a for a in build_parser()._actions if a.dest == "command")
    suites = next(a for a in commands.choices["verify"]._actions
                  if a.dest == "suites")
    assert suites.help == "suite names or 'all' (%s)" % ", ".join(SUITES)


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "point.cfg"
    cfg.write_text("# standard point\nd = 1\nn1 = 3\nn2 = 2\nf = 0,1\n")
    code, out, err = run(capsys, "--config", str(cfg), "conformal")
    assert code == 0
    assert out.strip() == "g = -1/(z^3 - z)*h"


def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "point.cfg"
    cfg.write_text("d = 1\nn1 = 2\nn2 = 5\nformat = structured\n")
    code, out, err = run(capsys, "--config", str(cfg), "--n2", "7",
                         "inner", "--c0", "h")
    assert code == 0
    doc = json.loads(out)
    assert doc["inputs"]["n2"] == 7


def test_bad_config_line(tmp_path, capsys):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("d: 1\n")
    code, out, err = run(capsys, "--config", str(cfg), "verify", "field")
    assert code == 2 and "bad config line" in err


@pytest.mark.parametrize("line, message", [
    ("sampels = 5", "unknown config key 'sampels'"),
    ("format = json", "format must be human or structured, got 'json'"),
    ("n2 = 5", "duplicate config key 'n2'"),
], ids=["unknown-key", "bad-format", "duplicate-key"])
def test_config_rejects_unknown_settings(tmp_path, capsys, line, message):
    cfg = tmp_path / "point.cfg"
    cfg.write_text("d = 1\nn1 = 3\nn2 = 2\n%s\n" % line)
    code, out, err = run(capsys, "--config", str(cfg), "indices")
    assert (code, out, err) == (2, "", "error: %s\n" % message)


@pytest.mark.parametrize("value", ["x", "1.5"])
def test_config_exponent_must_be_an_integer(tmp_path, capsys, value):
    cfg = tmp_path / "point.cfg"
    cfg.write_text("d = %s\nn1 = 3\nn2 = 2\n" % value)
    code, out, err = run(capsys, "--config", str(cfg), "indices")
    assert (code, out) == (2, "")
    assert err == "error: invalid literal for int() with base 10: %r\n" % value


def test_error_reporting(capsys):
    code, out, err = run(capsys, "--d", "1", "conformal")
    assert code == 2
    assert err.startswith("error: missing parameters: n1, n2")

    code, out, err = run(capsys, "--d", "1", "--n1", "1", "--n2", "2",
                         "--f", "0,1", "conformal")
    assert code == 2 and "reciprocal integer" in err

    code, out, err = run(capsys, "--d", "1", "--n1", "3", "--n2", "2",
                         "--f", "0,1", "mul", "x*(", "1")
    assert code == 2 and "position" in err

    # an unknown suite is named whether or not a point is given, and
    # before any suite runs
    have = ("assoc, conformal, field, indices, leibniz, oracle, params, phi, "
            "relations, roundtrip, sigma")
    for point in ([], ["--d", "1", "--n1", "3", "--n2", "2"]):
        for suites in (["units"], ["phi", "units"]):
            assert run(capsys, *point, "verify", *suites) == (
                2, "", "error: unknown suite 'units' (have: %s)\n" % have)


@pytest.mark.parametrize("argv", [
    ["--f", "0,1", "mul", "x/0", "y"],
    ["--f", "1/0", "conformal"],
    ["--f", "0,1", "derive", "--derivation", "w = 1; alpha_h = {1: 1/0}", "h"],
], ids=["mul", "conformal", "derive"])
def test_zero_divisor_exits_2(capsys, argv):
    code, out, err = run(capsys, "--d", "1", "--n1", "3", "--n2", "2", *argv)
    assert code == 2 and out == ""
    assert err == "error: zero divisor\n"


def test_missing_f_is_reported(capsys):
    code, out, err = run(capsys, "--d", "1", "--n1", "3", "--n2", "2",
                         "mul", "x", "y")
    assert code == 2
    assert "missing f" in err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "downup.cli",
         "--d", "1", "--n1", "3", "--n2", "2", "indices"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "I = {0, 1}" in proc.stdout


def readme_examples():
    """Every `$ downup ...` command in README.md that shows its output,
    with backslash continuations joined, paired with that output."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = readme.read_text().splitlines()
    examples, command, output = [], None, []
    for line in lines + [""]:
        if command is not None and command.endswith("\\"):
            command = command[:-1] + line.strip()
            continue
        if (line.startswith("$ downup ") or not line.strip()
                or line.startswith("```")):
            if command is not None and output:
                examples.append((shlex.split(command)[1:],
                                 "\n".join(output) + "\n"))
            command, output = None, []
            if line.startswith("$ downup "):
                command = line[2:]
        elif command is not None:
            output.append(line)
    return examples


README_EXAMPLES = readme_examples()


@pytest.mark.parametrize("argv, expected", README_EXAMPLES,
                         ids=[shlex.join(argv) for argv, _ in README_EXAMPLES])
def test_readme_examples(capsys, argv, expected):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (0, expected, "")


GOLDEN = Path(__file__).resolve().with_name("cli_golden.json")


def test_golden_outputs(capsys):
    """Replay the recorded commands, each in human and structured form:
    stdout, stderr and the exit code must match byte for byte."""
    cases = json.loads(GOLDEN.read_text())
    start = time.perf_counter()
    for case in cases:
        got = run(capsys, *case["args"])
        assert got == (case["code"], case["stdout"], case["stderr"]), \
            shlex.join(case["args"])
    assert time.perf_counter() - start < 3.0
