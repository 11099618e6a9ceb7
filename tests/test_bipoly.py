import random

import pytest

from downup import (BiPoly, Scalar, apply_phi_power, diff_h,
                    exact_divide_by_a, validate_param_spec)
from downup.sampling import random_bipoly
from support import double_loop_product

H = BiPoly.var_h()
K = BiPoly.var_k()
ONE = Scalar.from_rational(1)


def test_monomial_product():
    assert H * K == BiPoly.monomial(1, 1, ONE)
    assert (H + K) * (H - K) == H * H - K * K


def test_one_term_side_matches_the_double_loop():
    # a product with a one-term side shifts the keys and scales the
    # coefficients: the same terms as the double loop, for zero, 1 and
    # one-term factors on either side, and neither operand changes
    rng = random.Random(20)
    one_term = [BiPoly(), BiPoly.one(), H, K ** 3,
                BiPoly.monomial(2, 1, Scalar({3: -6}, {2: 4})),
                BiPoly.monomial(0, 0, Scalar({0: 1}, {2: 1, 0: -1}))]
    pool = one_term + [random_bipoly(rng) for _ in range(12)]
    for p in one_term:
        for q in pool:
            before = (dict(p.terms), dict(q.terms))
            want = double_loop_product(p.terms, q.terms,
                                       lambda u, v: (u[0] + v[0], u[1] + v[1]))
            assert (p * q).terms == want and (q * p).terms == want
            assert (p.terms, q.terms) == before


def test_additive_identity():
    p = H * 3 + K ** 2
    assert p + BiPoly() == p
    assert p - p == BiPoly()


def test_zero_coefficients_never_stored():
    p = BiPoly({(1, 0): Scalar({}), (0, 1): ONE})
    assert set(p.terms) == {(0, 1)}
    q = H + (-1) * H
    assert not q.terms


def test_phi_scales_each_monomial():
    spec = validate_param_spec(1, 2, 3)   # r = z^2, s = z
    p = H * K
    assert apply_phi_power(spec, p, 1) == H * K * Scalar.z_power(3)
    assert apply_phi_power(spec, p, 0) == p


def test_phi_closed_form_matches_iterated_single_steps():
    # independent route: apply the one-step map six times
    spec = validate_param_spec(2, 3, 5)
    rng = random.Random(3)
    for _ in range(25):
        p = random_bipoly(rng)
        step = p
        for _ in range(3):
            step = apply_phi_power(spec, step, 1)
        assert step == apply_phi_power(spec, p, 3)
        for _ in range(6):
            step = apply_phi_power(spec, step, -1)
        assert step == apply_phi_power(spec, p, -3)


def test_phi_is_multiplicative():
    spec = validate_param_spec(3, -2, 4)
    rng = random.Random(4)
    for _ in range(100):
        p = random_bipoly(rng)
        q = random_bipoly(rng)
        w = rng.randint(-5, 5)
        assert apply_phi_power(spec, p * q, w) == \
            apply_phi_power(spec, p, w) * apply_phi_power(spec, q, w)
        assert apply_phi_power(spec, apply_phi_power(spec, p, w), -w) == p


def test_exact_division_examples():
    g = H ** 2
    a = K + g
    assert exact_divide_by_a(a * H ** 2, g) == H ** 2
    assert exact_divide_by_a(H, g) is None
    g3 = H ** 3
    assert exact_divide_by_a(K * K - g3 * g3, g3) == K - g3


def test_exact_division_multiply_back():
    rng = random.Random(5)
    for _ in range(50):
        g = BiPoly({(i, 0): c for (i, _), c in
                    random_bipoly(rng, max_degree=3).terms.items()})
        a = K + g
        q = random_bipoly(rng)
        assert exact_divide_by_a(a * q, g) == q
    # non-multiples are refused, never mangled
    assert exact_divide_by_a(K + H + 1, H ** 2) is None


def test_division_requires_h_only_divisor():
    with pytest.raises(ValueError, match="h only"):
        exact_divide_by_a(K, K)


def test_diff_h():
    assert diff_h(H ** 3 + K) == H ** 2 * 3
    assert diff_h(BiPoly.one()) == BiPoly()


def test_negative_exponents_rejected():
    with pytest.raises(ValueError):
        BiPoly({(-1, 0): ONE})


def test_ring_axioms_random():
    rng = random.Random(6)
    for _ in range(100):
        p = random_bipoly(rng)
        q = random_bipoly(rng)
        t = random_bipoly(rng)
        assert (p + q) * t == p * t + q * t
        assert (p * q) * t == p * (q * t)
        assert p * q == q * p


def test_text_form():
    p = K + H ** 2
    assert str(p) == "k + h^2"
    q = H * Scalar.z_power(2) * 2 - K
    assert str(q) == "-k + 2*z^2*h"
    multi = H * (Scalar.z_power(1) + ONE)
    assert str(multi) == "(z + 1)*h"
    assert str(BiPoly()) == "0"
    assert str(H * K - 1) == "-1 + h*k"
