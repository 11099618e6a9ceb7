from fractions import Fraction

import pytest

from downup import (ParameterError, ParamSpec, Scalar, parse_scalar,
                    validate_param_spec)
from downup.sampling import random_scalar, rng_for

Z = Scalar.z_power(1)
ONE = Scalar.from_rational(1)


def test_add_z_z():
    assert Z + Z == Scalar((0, 2))
    assert str(Z + Z) == "2*z"


def test_exact_cancellation():
    num = Scalar((-1, 0, 1))        # z^2 - 1
    den = Scalar((-1, 1))           # z - 1
    assert num / den == Scalar((1, 1))
    assert str(num / den) == "z + 1"


def test_product_of_inverses():
    left = ONE / Scalar((-1, 1))
    right = ONE / Scalar((1, 1))
    assert left * right == ONE / Scalar((-1, 0, 1))


def test_zero_divisor_message():
    with pytest.raises(ZeroDivisionError, match="zero divisor"):
        ONE / Scalar(())


def test_canonical_form_is_hashable_equality():
    a = Scalar((0, 2), (0, 0, 2))       # 2z / 2z^2 = 1/z
    b = Scalar.z_power(-1)
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_denominator_kept_monic():
    s = Scalar((1,), (2, 2))            # 1/(2z + 2)
    assert s.den == (Fraction(1), Fraction(1))
    assert s.num == (Fraction(1, 2),)


def test_monomial_equality_is_exponent_equality():
    spec = validate_param_spec(2, 3, 5)
    for i in range(-4, 5):
        for j in range(-4, 5):
            same = spec.s ** i == spec.r ** j
            assert same == (spec.d * i == spec.n1 * j)


def test_validate_rejects_reciprocal_b1():
    with pytest.raises(ParameterError, match="reciprocal integer"):
        validate_param_spec(3, 1, 2)
    with pytest.raises(ParameterError, match="reciprocal integer"):
        validate_param_spec(4, 2, 1)
    with pytest.raises(ParameterError, match="reciprocal integer"):
        validate_param_spec(1, 1, 2)


def test_validate_rejects_degenerate_parameters():
    with pytest.raises(ParameterError, match="mu equals one"):
        validate_param_spec(1, 2, 0)
    with pytest.raises(ParameterError, match="b1 zero"):
        validate_param_spec(1, 0, 2)
    with pytest.raises(ParameterError, match="positive"):
        validate_param_spec(0, 2, 3)


def test_validate_accepts_negative_b1():
    spec = validate_param_spec(1, -2, 3)
    assert spec.b1 == Fraction(-2)
    assert spec.b2 == Fraction(3)


def test_no_accepted_spec_has_s_a_power_of_r():
    for d in range(1, 7):
        for n1 in range(-8, 9):
            try:
                spec = validate_param_spec(d, n1, 1)
            except ParameterError:
                continue
            for q in range(1, 65):
                assert spec.s != Scalar.z_power(spec.n1 * q)


def test_field_axioms_random():
    rng = rng_for(20)
    for _ in range(200):
        a = random_scalar(rng, with_denominator=True)
        b = random_scalar(rng, with_denominator=True)
        c = random_scalar(rng, with_denominator=True)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        assert a + Scalar(()) == a
        assert a * ONE == a
        if a:
            assert a * a.inverse() == ONE


def test_powers():
    assert Z ** 0 == ONE
    assert Z ** 3 == Scalar.z_power(3)
    assert Z ** -2 == Scalar.z_power(-2)
    s = Scalar((1, 1))
    assert s ** 2 == s * s
    assert (s ** -1) * s == ONE


def test_text_round_trip():
    rng = rng_for(21)
    for _ in range(100):
        s = random_scalar(rng, with_denominator=True)
        assert parse_scalar(str(s)) == s


def test_text_examples():
    s = (Scalar((-1, 0, 0, 2))) / Scalar((-1, 1))
    assert str(s) == "(2*z^3 - 1)/(z - 1)"
    assert parse_scalar("(2*z^3 - 1)/(z - 1)") == s
    assert str(Scalar(())) == "0"
    assert str(Scalar.from_rational(Fraction(-3, 2))) == "-3/2"
    assert parse_scalar("-3/2") == Scalar.from_rational(Fraction(-3, 2))


def test_b_vector():
    spec = ParamSpec(2, 3, 5)
    assert spec.b1 == Fraction(3, 2)
    assert spec.b2 == Fraction(5, 2)
    assert spec.mu == Scalar.z_power(-5)
    assert spec.mu_inv == Scalar.z_power(5)
