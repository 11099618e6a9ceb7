import random
import re
from fractions import Fraction

import pytest

from downup import (BiPoly, ParseError, Scalar, basis_word, from_poly,
                    gwa_mul, parse_bipoly, parse_element, parse_expression,
                    parse_scalar)
from downup.sampling import random_bipoly, random_element, random_scalar

from support import std_algebra

H = BiPoly.var_h()
K = BiPoly.var_k()


def test_scalar_literals():
    assert parse_scalar("3") == Scalar.from_rational(3)
    assert parse_scalar("z^4") == Scalar.z_power(4)
    assert parse_scalar("-z + 1") == Scalar.from_rational(1) - Scalar.z_power(1)
    assert parse_scalar("1/2") == Scalar.from_rational(Fraction(1, 2))
    assert parse_scalar("(z - 1)/(z + 1)") == \
        (Scalar.z_power(1) - 1) * (Scalar.z_power(1) + 1).inverse()


def test_precedence_and_grouping():
    assert parse_scalar("2 + 3*z") == Scalar.from_rational(2) + Scalar.z_power(1) * 3
    assert parse_scalar("(2 + 3)*z") == Scalar.z_power(1) * 5
    assert parse_bipoly("h*k^2 + 1") == H * K ** 2 + 1
    assert parse_bipoly("-(h - k)") == K - H


def test_polynomials():
    assert parse_bipoly("h^2 + z*k") == H ** 2 + K * Scalar.z_power(1)
    assert parse_bipoly("0") == BiPoly()
    with pytest.raises(ValueError, match="non-scalar"):
        parse_bipoly("h / k")


def test_elements_in_both_presentations():
    A = std_algebra()
    assert parse_element("x*y", A) == from_poly(A.phi_a)
    assert parse_element("y*x", A) == from_poly(A.a)
    assert parse_element("x^2", A) == basis_word(2)
    # down-up letters: d is the raising word, u the lowering one
    assert parse_element("d*h", A, "du") == \
        gwa_mul(A, basis_word(1), from_poly(H))
    assert parse_element("d*u", A, "du") == from_poly(A.phi_a)
    with pytest.raises(ValueError, match="non-scalar"):
        parse_element("x / y", A)


def test_alphabet_membership_errors():
    with pytest.raises(ParseError, match=r"x not in alphabet du"):
        parse_expression("d + x", "du")
    with pytest.raises(ParseError, match=r"d not in alphabet gwa"):
        parse_expression("d*k", "gwa")
    try:
        parse_expression("h + q", "hk")
    except ParseError as e:
        assert e.position == 4
    else:
        raise AssertionError("q should not parse")


def test_syntax_errors_carry_positions():
    with pytest.raises(ParseError, match="position 4"):
        parse_scalar("1 + + 2")
    with pytest.raises(ParseError, match="unexpected"):
        parse_scalar("2 2")
    with pytest.raises(ParseError):
        parse_scalar("(1 + z")
    with pytest.raises(ParseError, match="unexpected character"):
        parse_scalar("1 & 2")
    with pytest.raises(ParseError):
        parse_scalar("z^-1")


@pytest.mark.parametrize("text, message", [
    ("x*(", "expected a value, found end of input at position 3"),
    ("x^", "expected 'int', found end of input at position 2"),
    ("(x", "expected ')', found end of input at position 2"),
    ("", "expected a value, found end of input at position 0"),
    ("x^y", "expected 'int', found 'y' at position 2"),
])
def test_running_out_of_input_is_named(text, message):
    # the end token holds no value, so the message names the end itself
    with pytest.raises(ParseError, match=re.escape(message) + "$"):
        parse_expression(text, "gwa")


def test_unknown_alphabet():
    with pytest.raises(ValueError, match="unknown alphabet"):
        parse_expression("h", "weyl")


def test_scalar_round_trips():
    rng = random.Random(21)
    for _ in range(100):
        s = random_scalar(rng, with_denominator=True)
        text = str(s)
        assert parse_scalar(text) == s


def test_bipoly_round_trips():
    rng = random.Random(22)
    for _ in range(100):
        p = random_bipoly(rng, with_denominator=True)
        assert parse_bipoly(str(p)) == p


def test_element_round_trips():
    A = std_algebra()
    rng = random.Random(23)
    for _ in range(100):
        e = random_element(rng, with_denominator=True)
        assert parse_element(str(e), A) == e


def test_print_parse_round_trip_property():
    # printing then parsing is the identity, and printing is stable
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    A = std_algebra()
    seeds = st.integers(0, 2 ** 32)
    drawn = st.one_of(
        seeds.map(lambda n: (random_scalar(random.Random(n), with_denominator=True),
                             parse_scalar)),
        seeds.map(lambda n: (random_bipoly(random.Random(n), with_denominator=True),
                             parse_bipoly)),
        seeds.map(lambda n: (random_element(random.Random(n), with_denominator=True),
                             lambda text: parse_element(text, A))))
    # sparse scalars with huge exponents over a monomial denominator; a
    # denominator of two such terms would send the parser's gcd through
    # a long Euclid run, which is not what this property is about
    rationals = st.fractions(min_value=-9, max_value=9, max_denominator=5)
    sparse = st.builds(
        Scalar, st.dictionaries(st.integers(0, 10 ** 5), rationals, max_size=4),
        st.builds(lambda e, c: {e: c}, st.integers(0, 10 ** 5),
                  rationals.filter(bool)))
    drawn = st.one_of(drawn, sparse.map(lambda s: (s, parse_scalar)))

    @hypothesis.settings(max_examples=200, deadline=None, database=None)
    @hypothesis.given(drawn)
    def check(case):
        u, parse = case
        text = str(u)
        assert parse(text) == u
        assert str(parse(text)) == text

    check()
