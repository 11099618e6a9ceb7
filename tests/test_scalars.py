import random
from fractions import Fraction

import pytest

from downup import (ONE, ZERO, ParameterError, ParamSpec, Scalar,
                    parse_scalar, validate_param_spec)
from downup.sampling import random_scalar

Z = Scalar.z_power(1)


def test_add_z_z():
    assert Z + Z == Scalar({1: 2})
    assert str(Z + Z) == "2*z"


def test_exact_cancellation():
    num = Scalar({2: 1, 0: -1})     # z^2 - 1
    den = Scalar({1: 1, 0: -1})     # z - 1
    assert num / den == Scalar({1: 1, 0: 1})
    assert str(num / den) == "z + 1"


def test_product_of_inverses():
    left = ONE / Scalar({1: 1, 0: -1})
    right = ONE / Scalar({1: 1, 0: 1})
    assert left * right == ONE / Scalar({2: 1, 0: -1})


def test_zero_divisor_message():
    with pytest.raises(ZeroDivisionError, match="zero divisor"):
        ONE / Scalar({})


def test_canonical_form_is_hashable_equality():
    a = Scalar({1: 2}, {2: 2})          # 2z / 2z^2 = 1/z
    b = Scalar.z_power(-1)
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_denominator_kept_monic():
    s = Scalar({0: 1}, {1: 2, 0: 2})    # 1/(2z + 2)
    assert s.den == {1: Fraction(1), 0: Fraction(1)}
    assert s.num == {0: Fraction(1, 2)}


def test_constructor_returns_the_canonical_form():
    a = Scalar({0: 0, 1: 1})
    assert a == Z and hash(a) == hash(Z)
    assert a.num == {1: 1}
    assert Scalar({0: 0}) == ZERO
    with pytest.raises(ValueError, match="negative exponent -1"):
        Scalar({-1: 1})
    with pytest.raises(ValueError, match="negative exponent -2"):
        Scalar({0: 1}, {-2: 1})


def test_z_power_is_one_term_for_any_exponent():
    for e in (0, 1, 10 ** 9, -10 ** 9):
        s = Scalar.z_power(e)
        assert len(s.num) == len(s.den) == 1
    assert str(Scalar.z_power(10 ** 9)) == "z^1000000000"
    assert str(Scalar.z_power(-10 ** 9)) == "1/z^1000000000"


def test_arithmetic_leaves_operands_unchanged():
    # results share maps with their operands, so no operation may write
    # into a map it did not create
    rng = random.Random(24)
    pool = [random_scalar(rng, with_denominator=True) for _ in range(12)]
    pool += [ZERO, ONE, Z, Scalar.z_power(-2), Scalar({0: 2}, {1: 1, 0: 1})]
    ops = [lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b,
           lambda a, b: -a, lambda a, b: a ** 3, lambda a, b: 2 - a,
           lambda a, b: a / b if b else a, lambda a, b: 1 / a if a else a,
           lambda a, b: a.inverse() if a else a,
           lambda a, b: a ** -2 if a else a]
    snapshot = [(dict(s.num), dict(s.den)) for s in pool]
    for a in pool:
        for b in pool:
            for op in ops:
                op(a, b)
    assert [(s.num, s.den) for s in pool] == snapshot


def test_arithmetic_matches_sympy_property():
    # an independent implementation of Q(z): sympy's fraction field,
    # which cancels on construction; its denominator is made monic here
    hypothesis = pytest.importorskip("hypothesis")
    sympy = pytest.importorskip("sympy")
    from sympy.polys.domains import QQ
    st = hypothesis.strategies
    field = QQ.frac_field(sympy.Symbol("z")).field
    ring = field.ring

    def to_sympy(s):
        def poly(m):
            return ring.from_dict({(e,): QQ(c.numerator, c.denominator)
                                   for e, c in m.items()})
        return field.new(poly(s.num), poly(s.den))

    def canonical(f):
        lc = f.denom.LC
        return tuple({e: Fraction(int(c.numerator), int(c.denominator))
                      for (e,), c in (p / lc).items()}
                     for p in (f.numer, f.denom))

    rationals = st.fractions(min_value=-9, max_value=9, max_denominator=5)

    def maps(exponents):
        return st.dictionaries(exponents, rationals, max_size=4)

    # Euclid over Q on two sparse polynomials of degree 10^4 fills in
    # every degree and takes seconds, so the large exponents meet only
    # monomial denominators, where the gcd is a bare power of z
    small = st.builds(Scalar, maps(st.integers(0, 6)),
                      maps(st.integers(0, 6)).filter(
                          lambda m: any(m.values())))
    laurent = st.builds(Scalar, maps(st.integers(0, 10 ** 4)),
                        st.builds(lambda e, c: {e: c}, st.integers(0, 10 ** 4),
                                  rationals.filter(bool)))
    pairs = st.one_of(st.tuples(small, small, st.just(True)),
                      st.tuples(laurent, laurent, st.just(False)))

    @hypothesis.settings(max_examples=200, deadline=None, database=None)
    @hypothesis.given(pairs)
    def check(pair):
        a, b, small_pair = pair
        fa, fb = to_sympy(a), to_sympy(b)
        assert (a.num, a.den) == canonical(fa)
        assert ((a + b).num, (a + b).den) == canonical(fa + fb)
        assert ((a * b).num, (a * b).den) == canonical(fa * fb)
        if b and (small_pair or len(b.num) == 1):
            assert ((a / b).num, (a / b).den) == canonical(fa / fb)

    check()


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
    rng = random.Random(20)
    for _ in range(200):
        a = random_scalar(rng, with_denominator=True)
        b = random_scalar(rng, with_denominator=True)
        c = random_scalar(rng, with_denominator=True)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        assert a + Scalar({}) == a
        assert a * ONE == a
        if a:
            assert a * a.inverse() == ONE


def test_powers():
    assert Z ** 0 == ONE
    assert Z ** 3 == Scalar.z_power(3)
    assert Z ** -2 == Scalar.z_power(-2)
    s = Scalar({1: 1, 0: 1})
    assert s ** 2 == s * s
    assert (s ** -1) * s == ONE


def test_text_round_trip():
    rng = random.Random(21)
    for _ in range(100):
        s = random_scalar(rng, with_denominator=True)
        assert parse_scalar(str(s)) == s


def test_text_examples():
    s = Scalar({3: 2, 0: -1}) / Scalar({1: 1, 0: -1})
    assert str(s) == "(2*z^3 - 1)/(z - 1)"
    assert parse_scalar("(2*z^3 - 1)/(z - 1)") == s
    assert str(Scalar({})) == "0"
    assert str(Scalar.from_rational(Fraction(-3, 2))) == "-3/2"
    assert parse_scalar("-3/2") == Scalar.from_rational(Fraction(-3, 2))


def test_b_vector():
    spec = ParamSpec(2, 3, 5)
    assert spec.b1 == Fraction(3, 2)
    assert spec.b2 == Fraction(5, 2)
    assert spec.mu == Scalar.z_power(-5)
    assert spec.mu_inv == Scalar.z_power(5)
