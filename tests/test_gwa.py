import random
import re
from fractions import Fraction
from itertools import product

import pytest

import downup.cyclotomic
import downup.gwa
import downup.scalars
from downup import (AlphaSpec, BiPoly, DownUpPresentation, GwaAlgebra,
                    GwaElement, Scalar, apply_phi_power, apply_sigma_mu,
                    basis_word, build_alpha_derivation, coupled_alpha_spec,
                    from_poly, gwa_mul, oracle_normalize, validate_param_spec)
from downup.gwa import _word_coefficient
from downup.sampling import random_element

from support import std_algebra, std_spec

H = BiPoly.var_h()
K = BiPoly.var_k()


def test_defining_relations():
    A = GwaAlgebra(std_spec(), H)           # r = z^3, s = z, a = k + h
    x, y = basis_word(1), basis_word(-1)
    xy = gwa_mul(A, x, y)
    yx = gwa_mul(A, y, x)
    assert yx == from_poly(K + H)
    assert xy == from_poly(K * Scalar.z_power(1) + H * Scalar.z_power(3))
    assert xy == from_poly(A.phi_a)


def test_generators_commute_past_polynomials():
    A = std_algebra()
    x, y = basis_word(1), basis_word(-1)
    h = from_poly(H)
    assert gwa_mul(A, x, h) == gwa_mul(A, h, x) * Scalar.z_power(3)
    assert gwa_mul(A, y, h) == gwa_mul(A, h, y) * Scalar.z_power(-3)
    assert gwa_mul(A, x, from_poly(K)) == \
        gwa_mul(A, from_poly(K), x) * Scalar.z_power(1)


def test_iterated_word_reduction():
    # x^2 y^2 reduces through two rewrites, picking up phi^2(a) phi(a);
    # the opposite order picks up phi^{-1}(a) a.
    A = std_algebra()
    spec = A.spec
    x2 = basis_word(2)
    y2 = basis_word(-2)
    assert gwa_mul(A, x2, y2) == \
        from_poly(apply_phi_power(spec, A.a, 2) * apply_phi_power(spec, A.a, 1))
    assert gwa_mul(A, y2, x2) == \
        from_poly(apply_phi_power(spec, A.a, -1) * A.a)
    assert gwa_mul(A, basis_word(2), basis_word(3)) == basis_word(5)
    assert gwa_mul(A, basis_word(-1), basis_word(-4)) == basis_word(-5)


def _letters(w):
    return "x" * w if w > 0 else "y" * -w


def test_word_memo_matches_a_fresh_algebra_and_the_oracle():
    A = std_algebra()
    rng = random.Random(15)
    for _ in range(20):                     # warm the memo of A
        gwa_mul(A, random_element(rng, max_weight=4),
                random_element(rng, max_weight=4))
    weights = range(-4, 5)
    for m, n in product(weights, weights):
        cold = GwaAlgebra(A.spec, A.g)
        expected = oracle_normalize(cold, [(1, _letters(m) + _letters(n))])
        assert gwa_mul(cold, basis_word(m), basis_word(n)) == expected, (m, n)
        assert gwa_mul(A, basis_word(m), basis_word(n)) == expected, (m, n)


def test_word_memo_is_kept_per_algebra():
    A1 = GwaAlgebra(std_spec(), H)          # a = k + h
    A2 = std_algebra()                      # same spec, a = k + g(h), g != h
    assert A1.spec == A2.spec and A1.g != A2.g
    for m, n in [(2, -1), (-3, 2), (1, -4), (2, -1), (-2, 3), (4, -4)]:
        for A in (A1, A2, A1):
            expected = oracle_normalize(A, [(1, _letters(m) + _letters(n))])
            assert gwa_mul(A, basis_word(m), basis_word(n)) == expected, \
                (A, m, n)
    shared = set(A1.words) & set(A2.words)
    assert shared
    assert all(A1.words[key] != A2.words[key] for key in shared)


def test_repeated_word_pair_applies_no_phi(monkeypatch):
    A = GwaAlgebra(std_spec(), H)
    calls = []

    def counting(spec, p, e):
        calls.append(e)
        return apply_phi_power(spec, p, e)

    monkeypatch.setattr(downup.gwa, "apply_phi_power", counting)
    coeff = _word_coefficient(A, 2, -3)
    assert calls == [2, 1]
    assert coeff == apply_phi_power(A.spec, A.a, 2) * A.phi_a
    # the coefficient depends on m and the number of cancelled pairs only
    assert _word_coefficient(A, 2, -3) == coeff
    assert _word_coefficient(A, 2, -5) == coeff
    assert calls == [2, 1]
    coeff_y = _word_coefficient(A, -2, 3)
    assert calls == [2, 1, -1, 0]
    assert _word_coefficient(A, -2, 5) == coeff_y
    assert calls == [2, 1, -1, 0]
    # gwa_mul reads the kept coefficient and applies phi to its right
    # operand only, landing on weight m + n
    assert gwa_mul(A, basis_word(2), basis_word(-5)) == GwaElement({-3: coeff})
    assert gwa_mul(A, basis_word(-2), basis_word(3)) == GwaElement({1: coeff_y})
    assert calls == [2, 1, -1, 0, 2, -2]


def test_z_shifts_take_no_gcd(monkeypatch):
    # phi, sigma_mu and the free product of same-sign words multiply by
    # powers of z only, which shift exponents; an opposite-sign pair still
    # multiplies by its word coefficient.  Gcd work is counted on both
    # paths: scalars._zgcd, and cyclotomic._cut against a denominator kept
    # as a product of cyclotomic polynomials (here z^3 - 1 and the z^3 - z^2
    # of g)
    A = std_algebra(validate_param_spec(2, 3, 5))
    p = BiPoly({(1, 2): Scalar({2: 3, 0: -1}, {1: 2, 0: 1}),
                (0, 1): Scalar({1: 5}, {3: 1, 0: -1})})
    q = BiPoly({(2, 1): Scalar({1: -4}, {0: 1, 2: 7})})
    u = GwaElement({-2: p, 0: q, 3: p + q + Fraction(-2, 3)})
    for m, n in [(2, -3), (-1, 2)]:         # warm the word memo
        gwa_mul(A, basis_word(m), basis_word(n))
    calls = []
    for module, name in ((downup.scalars, "_zgcd"),
                         (downup.cyclotomic, "_cut")):
        def counting(*args, gcd=getattr(module, name)):
            calls.append(args)
            return gcd(*args)

        monkeypatch.setattr(module, name, counting)
    for w in range(-3, 4):
        apply_phi_power(A.spec, p + q, w)
        apply_sigma_mu(A, u, w)
    assert calls == []
    for m, n in [(2, 3), (-1, -2), (0, 4), (-3, 0), (0, 0), (2, -3), (-1, 2)]:
        p * apply_phi_power(A.spec, q, m)
        expected = len(calls)
        del calls[:]
        gwa_mul(A, GwaElement({m: p}), GwaElement({n: q}))
        if m * n >= 0:
            assert expected and len(calls) == expected, (m, n)
        else:
            assert len(calls) > expected, (m, n)
        del calls[:]


def test_word_pairs_past_the_cap_are_refused(monkeypatch):
    # an opposite-sign product cancels t = min(|m|, |n|) x,y pairs; the cap
    # is checked where the coefficient is built, so t at the cap answers
    # and t + 1 is refused, while same-sign products never reach it
    monkeypatch.setattr(downup.gwa, "MAX_WORD_PAIRS", 3)
    A = GwaAlgebra(std_spec(), H)
    assert gwa_mul(A, basis_word(3), basis_word(-5)).weights() == [-2]
    assert gwa_mul(A, basis_word(-4), basis_word(3)).weights() == [-1]
    for m, n in [(4, -4), (-6, 4), (9, -4)]:
        with pytest.raises(ValueError, match="cancelling 4 x,y pairs is past "
                                             "the limit of 3"):
            gwa_mul(A, basis_word(m), basis_word(n))
    monkeypatch.setattr(downup.gwa, "MAX_WORD_PAIRS", -1)
    for m, n in [(50, 7), (-50, -7), (0, 9), (-9, 0)]:
        assert gwa_mul(A, basis_word(m), basis_word(n)) == basis_word(m + n)


def test_mixed_word_weight():
    A = std_algebra()
    u = gwa_mul(A, basis_word(3), basis_word(-1))
    assert u.weights() == [2]
    v = gwa_mul(A, basis_word(-2), basis_word(1))
    assert v.weights() == [-1]


def test_add_scale_helpers():
    A = std_algebra()
    u = basis_word(1) + basis_word(-1)
    assert u.weights() == [-1, 1]
    assert u * Scalar.from_rational(0) == GwaElement()
    two = Scalar.from_rational(2)
    assert u * two == u + u
    assert u - u == GwaElement()


def test_poly_embedding():
    p = H * K + 1
    e = from_poly(p)
    assert e.is_poly() and e.as_poly() == p
    assert from_poly(BiPoly()) == GwaElement()
    with pytest.raises(ValueError, match="nonzero weights"):
        basis_word(1).as_poly()


def test_sigma_scales_by_weight():
    A = std_algebra()                       # mu^{-1} = z^2
    x, y = basis_word(1), basis_word(-1)
    assert apply_sigma_mu(A, x) == x * Scalar.z_power(2)
    assert apply_sigma_mu(A, y) == y * Scalar.z_power(-2)
    assert apply_sigma_mu(A, from_poly(H + K)) == from_poly(H + K)
    assert apply_sigma_mu(A, x, power=-1) == x * Scalar.z_power(-2)


def test_sigma_is_an_algebra_automorphism():
    A = std_algebra()
    rng = random.Random(11)
    for _ in range(60):
        u = random_element(rng)
        v = random_element(rng)
        assert apply_sigma_mu(A, gwa_mul(A, u, v)) == \
            gwa_mul(A, apply_sigma_mu(A, u), apply_sigma_mu(A, v))
        assert apply_sigma_mu(A, apply_sigma_mu(A, u), power=-1) == u
        assert apply_sigma_mu(A, u, power=3) == apply_sigma_mu(
            A, apply_sigma_mu(A, apply_sigma_mu(A, u)))


def test_associativity_random():
    A = std_algebra(std_spec(2, 3, 5), f_coeffs=(1, 0, 2))
    rng = random.Random(12)
    for _ in range(100):
        u = random_element(rng, max_weight=2)
        v = random_element(rng, max_weight=2)
        t = random_element(rng, max_weight=2)
        assert gwa_mul(A, gwa_mul(A, u, v), t) == gwa_mul(A, u, gwa_mul(A, v, t))


def test_distributivity_random():
    A = std_algebra()
    rng = random.Random(13)
    for _ in range(60):
        u = random_element(rng)
        v = random_element(rng)
        t = random_element(rng)
        assert gwa_mul(A, u, v + t) == gwa_mul(A, u, v) + gwa_mul(A, u, t)
        assert gwa_mul(A, u + v, t) == gwa_mul(A, u, t) + gwa_mul(A, v, t)


def test_grading_under_products():
    A = std_algebra()
    rng = random.Random(14)
    for _ in range(40):
        u = random_element(rng)
        v = random_element(rng)
        allowed = {m + n for m in u.terms for n in v.terms}
        assert set(gwa_mul(A, u, v).terms) <= allowed


def test_algebra_construction_guards():
    with pytest.raises(ValueError, match="h only"):
        GwaAlgebra(std_spec(), K)


def test_text_form():
    A = std_algebra()
    e = from_poly(H + K) + basis_word(1)
    assert str(e) == "k + h + x"
    assert str(gwa_mul(A, from_poly(H + K), basis_word(1))) == "(k + h)*x"
    assert str(basis_word(-2)) == "y^2"
    assert str(GwaElement()) == "0"
    assert str(basis_word(1) - basis_word(-1)) == "-y + x"


def test_mixed_operands():
    # BiPoly and GwaElement share one operator protocol: scalars and
    # polynomials combine with them from either side
    z = Scalar.z_power(1)
    half = Fraction(1, 2)
    p = H + 1
    assert 2 - p == BiPoly({(0, 0): 1, (1, 0): -1})
    assert half + p == p + half == BiPoly({(0, 0): Fraction(3, 2), (1, 0): 1})
    assert z + p == p + z == BiPoly({(0, 0): z + 1, (1, 0): 1})
    e = from_poly(H) + basis_word(1)
    assert 2 - e == GwaElement({0: 2 - H, 1: -1})
    assert half + e == e + half == GwaElement({0: H + half, 1: 1})
    assert z + e == e + z == GwaElement({0: H + z, 1: 1})
    x = basis_word(1)
    assert H + x == x + H == GwaElement({0: H, 1: 1})
    assert type(H + x) is GwaElement and type(x + H) is GwaElement
    assert BiPoly() == 0 and GwaElement() == 0
    for u, v in ((p, K * z), (e, basis_word(-1) * z)):
        assert hash(u + v) == hash(v + u)
        assert -(-u) == u
    assert repr(p) == "BiPoly(1 + h)"
    assert repr(e) == "GwaElement(h + x)"
    with pytest.raises(TypeError):
        x * x


@pytest.mark.parametrize("build, value", [
    (lambda: GwaElement({1: "x"}), "'x'"),
    (lambda: GwaElement({1: 0.5}), "0.5"),
    (lambda: GwaElement({1: None}), "None"),
    (lambda: BiPoly({(0, 0): 0.1}), "0.1"),
    (lambda: Scalar.from_rational(0.1), "0.1"),
    (lambda: Scalar.from_rational("1/2"), "'1/2'"),
    (lambda: DownUpPresentation.from_coefficients(std_spec(), [0, 0.5]),
     "0.5"),
    (lambda: oracle_normalize(std_algebra(), [(0.5, "xy")]), "0.5"),
], ids=["element-str", "element-float", "element-none", "bipoly-float",
        "scalar-float", "scalar-str", "presentation-float", "oracle-float"])
def test_only_exact_coefficients(build, value):
    with pytest.raises(TypeError, match="^not an exact .*: %s$" % re.escape(value)):
        build()


@pytest.mark.parametrize("build", [
    lambda: Scalar({0.5: 1}),
    lambda: Scalar({0: 1}, {Fraction(3, 2): 1}),
    lambda: BiPoly({(1.5, 0): 1}),
    lambda: BiPoly({(0, 2.0): 1}),
    lambda: GwaElement({1.5: 1, 1.2: H}),
    lambda: basis_word(2.7),
    lambda: apply_phi_power(std_spec(), H, 1.5),
    lambda: apply_sigma_mu(std_algebra(), basis_word(1), 0.5),
    lambda: build_alpha_derivation(std_spec(), H, AlphaSpec(1.5, {1: 1})),
    lambda: coupled_alpha_spec(std_spec(), Fraction(1, 2), {1: 1}),
    lambda: coupled_alpha_spec(std_spec(), 1, {1.5: 1}),
    lambda: build_alpha_derivation(std_spec(), H, AlphaSpec(1, {1.5: 1})),
    lambda: build_alpha_derivation(std_spec(), H,
                                   AlphaSpec(1, {}, {Fraction(1, 2): 1})),
], ids=["scalar-num", "scalar-den", "bipoly-h", "bipoly-k", "element",
        "basis-word", "phi", "sigma", "alpha", "coupled-alpha",
        "coupled-alpha-key", "alpha-h-key", "alpha-k-key"])
def test_only_integer_exponents_and_weights(build):
    # no exponent, weight or power is truncated to an integer
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        build()
