from itertools import product

import pytest

from downup import (BiPoly, GwaAlgebra, GwaElement, Scalar,
                    apply_phi_power, basis_word, free_expand, from_poly,
                    gwa_mul, oracle_normalize, oracle_normalize_text,
                    parse_expression)

from support import std_algebra, std_spec

H = BiPoly.var_h()
K = BiPoly.var_k()


def words_up_to(length):
    for n in range(length + 1):
        yield from product("xyhk", repeat=n)


def test_single_pair_rewrites():
    A = GwaAlgebra(std_spec(), H)                  # a = k + h, r = z^3, s = z
    assert oracle_normalize(A, [(1, "xy")]) == \
        from_poly(K * Scalar.z_power(1) + H * Scalar.z_power(3))
    assert oracle_normalize(A, [(1, "yx")]) == from_poly(K + H)
    assert oracle_normalize(A, [(1, "xh")]) == \
        GwaElement({1: H * Scalar.z_power(3)})
    assert oracle_normalize(A, [(1, "yk")]) == \
        GwaElement({-1: K * Scalar.z_power(-1)})


def test_two_step_reduction():
    # xhy commutes h out, then collapses the pair
    A = GwaAlgebra(std_spec(), H)
    expected = from_poly((K * Scalar.z_power(1) + H * Scalar.z_power(3))
                         * H * Scalar.z_power(3))
    assert oracle_normalize(A, [(1, "xhy")]) == expected


def test_normal_words_pass_through():
    A = std_algebra()
    assert oracle_normalize(A, [(1, "hhk")]) == from_poly(H ** 2 * K)
    assert oracle_normalize(A, [(1, "kxx")]) == GwaElement({2: K})
    assert oracle_normalize(A, [(2, "")]) == from_poly(BiPoly.const(2))
    assert oracle_normalize(A, []) == GwaElement()


def test_free_word_terms_and_cancellation():
    A = std_algebra()
    one = Scalar.from_rational(1)
    terms = [(one, ("x", "y")), (-one, ("x", "y"))]
    assert oracle_normalize(A, terms) == GwaElement()
    # a weight whose bucket cancels leaves no empty component behind
    for strategy in ("leftmost", "rightmost"):
        got = oracle_normalize(A, [(1, "xy"), (-1, "xy"), (1, "kx")],
                               strategy=strategy)
        assert list(got.terms) == [1]
        assert got == GwaElement({1: K})


def test_length_bound():
    A = std_algebra()
    assert oracle_normalize(A, [(1, "x" * 8)]) == basis_word(8)
    with pytest.raises(ValueError, match="length bound exceeded"):
        oracle_normalize(A, [(1, "x" * 9)])
    # a product word past the bound is refused as it forms, even when a
    # later term would cancel it
    with pytest.raises(ValueError, match="length bound exceeded"):
        free_expand(parse_expression("x^4*x^5 - x^5*x^4", "gwa"))
    with pytest.raises(ValueError, match="unknown letter"):
        oracle_normalize(A, [(1, "xq")])
    with pytest.raises(ValueError, match="unknown strategy"):
        oracle_normalize(A, [(1, "xy")], strategy="innermost")


def test_strategies_are_confluent():
    A = std_algebra()
    for letters in words_up_to(4):
        left = oracle_normalize(A, [(1, letters)], strategy="leftmost")
        right = oracle_normalize(A, [(1, letters)], strategy="rightmost")
        assert left == right, letters


def test_oracle_matches_structured_product():
    A = std_algebra()
    singles = {"x": 1, "y": -1}
    for w1 in words_up_to(2):
        for w2 in words_up_to(2):
            u = oracle_normalize(A, [(1, w1)])
            v = oracle_normalize(A, [(1, w2)])
            assert oracle_normalize(A, [(1, w1 + w2)]) == gwa_mul(A, u, v), \
                (w1, w2)


@pytest.mark.parametrize("point", [(1, 3, 2), (2, 3, 5), (1, -2, 3)],
                         ids=["standard", "fractional", "negative"])
def test_oracle_equals_product_of_letters(point):
    # every word of length <= 5, by both strategies, against gwa_mul of its
    # letters taken left to right, with f = 1 + X^2; at n1 < 0 the carried
    # power of z goes negative as x passes h
    A = std_algebra(std_spec(*point), (1, 0, 1))
    letters = {"x": basis_word(1), "y": basis_word(-1),
               "h": from_poly(H), "k": from_poly(K)}
    products = {(): basis_word(0)}
    for word in words_up_to(5):
        if word:
            products[word] = gwa_mul(A, products[word[:-1]],
                                     letters[word[-1]])
        for strategy in ("leftmost", "rightmost"):
            got = oracle_normalize(A, [(1, word)], strategy=strategy)
            assert got == products[word], (word, strategy)


def test_oracle_does_not_use_times_z(monkeypatch):
    # the oracle stays independent of the closed form's shift by z^e
    A = std_algebra(std_spec(1, -2, 3), (1, 0, 1))
    words = ["xhhy", "ykhx", "xyhk", "hkyxk"]
    want = [oracle_normalize(A, [(1, w)]) for w in words]

    def refuse(self, e):
        raise AssertionError("times_z called")

    monkeypatch.setattr(Scalar, "times_z", refuse)
    assert [oracle_normalize(A, [(1, w)]) for w in words] == want


@pytest.mark.parametrize("word", ["xhhhh", "ykh"])
def test_one_power_of_z_per_normal_word(monkeypatch, word):
    # passes add to an int exponent; the normal word multiplies by its
    # power of z once
    A = std_algebra()
    want = oracle_normalize(A, [(1, word)])
    calls, z_power = [], Scalar.z_power

    def counted(e):
        calls.append(e)
        return z_power(e)

    monkeypatch.setattr(Scalar, "z_power", staticmethod(counted))
    assert oracle_normalize(A, [(1, word)]) == want
    assert len(calls) == 1


def test_free_expand_applies_no_relations():
    tree = parse_expression("x*y - y*x", "gwa")
    words = free_expand(tree)
    assert words == {("x", "y"): Scalar.from_rational(1),
                     ("y", "x"): Scalar.from_rational(-1)}
    tree2 = parse_expression("(x + 2)*h", "gwa")
    assert free_expand(tree2) == {("x", "h"): Scalar.from_rational(1),
                                  ("h",): Scalar.from_rational(2)}
    assert free_expand(parse_expression("x^2", "gwa")) == \
        {("x", "x"): Scalar.from_rational(1)}
    assert free_expand(parse_expression("z*x / 2", "gwa")) == \
        {("x",): Scalar.z_power(1) / 2}


def test_free_expand_refuses_word_division():
    tree = parse_expression("x / y", "gwa")
    with pytest.raises(ValueError, match="non-scalar"):
        free_expand(tree)


def test_text_entry_point():
    A = std_algebra()
    got = oracle_normalize_text(A, "x*y - y*x")
    x, y = basis_word(1), basis_word(-1)
    direct = gwa_mul(A, x, y) - gwa_mul(A, y, x)
    assert got == direct
    assert oracle_normalize_text(A, "h*k^2") == from_poly(H * K ** 2)
