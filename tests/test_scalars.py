import copy
import functools
import math
import operator
import random
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest

from downup import (ONE, ZERO, BiPoly, ParameterError, ParamSpec, Scalar,
                    parse_scalar, validate_param_spec)
from downup.sampling import random_scalar
from downup.scalars import _pmul
from support import double_loop_product

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


def test_denominator_kept_with_positive_lead():
    # the stored maps are integer with joint content 1 and a positive lead
    # in den; only the printed form divides by that lead
    s = Scalar({0: 1}, {1: 2, 0: 2})    # 1/(2z + 2)
    assert (s.num, s.den) == ({0: 1}, {1: 2, 0: 2})
    assert all(type(c) is int for c in (*s.num.values(), *s.den.values()))
    assert Scalar({0: -1}, {1: -2, 0: -2}) == s
    assert Scalar({0: Fraction(1, 2)}, {1: 1, 0: 1}) == s
    assert str(s) == "1/2/(z + 1)"


def test_constructor_returns_the_canonical_form():
    a = Scalar({0: 0, 1: 1})
    assert a == Z and hash(a) == hash(Z)
    assert a.num == {1: 1}
    assert Scalar({0: 0}) == ZERO
    with pytest.raises(ValueError, match="negative exponent -1"):
        Scalar({-1: 1})
    with pytest.raises(ValueError, match="negative exponent -2"):
        Scalar({0: 1}, {-2: 1})


@pytest.mark.parametrize("bad", [0.1, "1", None])
def test_constructor_refuses_inexact_coefficients(bad):
    for num, den in (({0: bad}, {0: 1}), ({0: 1}, {0: bad}),
                     ({1: 1, 0: bad}, {2: 1}), ({0: 1}, {1: bad, 0: 3})):
        with pytest.raises(TypeError, match="not an exact coefficient"):
            Scalar(num, den)


def test_repeated_division_by_a_non_cyclotomic_palindrome_is_cheap():
    # z^64 + 3*z^32 + 1 is palindromic but no product of cyclotomic
    # polynomials: its power sums pass 64 at the 32nd, so the split gives
    # up there, and a divisor met again is looked up, not split again
    d = Scalar({64: 1, 32: 3, 0: 1})
    s = Scalar({3: 1, 0: -1}, {2: 1, 0: -1})
    start = time.perf_counter()
    for _ in range(200):
        assert (s / d + d.inverse() * s) * d == s * 2
    assert time.perf_counter() - start < 1


def test_dense_gcd_past_the_degree_cap_is_refused(monkeypatch):
    # a monomial on either side never reaches the cap
    from downup import scalars
    monkeypatch.setattr(scalars, "MAX_GCD_DEGREE", 10)
    assert Scalar({10: 1, 0: -1}, {1: 1, 0: -1}).den == {0: 1}
    assert Scalar({11: 1, 0: -1}, {5: 2}) * Scalar({3: 1}) \
        == Scalar({14: 1, 3: -1}, {5: 2})
    with pytest.raises(ValueError, match="degree 11 is past the limit of 10"):
        Scalar({11: 1, 0: -1}, {1: 1, 0: -1})
    with pytest.raises(ValueError, match="degree 11"):
        Scalar({14: 1, 3: 1}) / Scalar({1: 1, 0: 1})


def test_z_power_is_one_term_for_any_exponent():
    for e in (0, 1, 10 ** 9, -10 ** 9):
        s = Scalar.z_power(e)
        assert len(s.num) == len(s.den) == 1
    assert str(Scalar.z_power(10 ** 9)) == "z^1000000000"
    assert str(Scalar.z_power(-10 ** 9)) == "1/z^1000000000"


def test_laurent_is_the_stored_form_of_its_sum():
    # the same scalar as the sum of its terms, stored over z^(-low) with
    # no reduction
    for terms in ({0: 5}, {3: -2, 1: 1}, {-2: 1, 3: -4}, {-3: -1, -1: 6}):
        s = Scalar.laurent(terms)
        assert s == sum((c * Scalar.z_power(e) for e, c in terms.items()),
                        ZERO)
        low = min(0, min(terms))
        assert (s.num, s.den) == ({e - low: c for e, c in terms.items()},
                                  {-low: 1})
    assert str(Scalar.laurent({-2: 1, 3: -4})) == "(-4*z^5 + 1)/z^2"


def test_arithmetic_leaves_operands_unchanged():
    # results share maps with their operands, so no operation may write
    # into a map it did not create
    rng = random.Random(24)
    pool = [random_scalar(rng, with_denominator=True) for _ in range(12)]
    pool += [ZERO, ONE, Z, Scalar.z_power(-2), Scalar({0: 2}, {1: 1, 0: 1})]
    # one-term operands, whose products hand maps back shared
    pool += [Scalar({3: -6}, {2: 4}), Scalar({0: 6}, {5: 9}), Scalar({4: -2}),
             Scalar({0: 1}, {1: 1, 0: -1}) * Scalar({0: 1}, {2: 1, 0: 1})]
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


def test_one_term_map_product_matches_the_double_loop():
    # _pmul takes a one-term map as a shift and a scale of the other, and
    # hands the other back for {0: 1}: the same map as the double loop, for
    # zero, 1 and one-term maps on either side, and neither map is written
    rng = random.Random(20)
    maps = [{}, {0: 1}, {0: -1}, {3: 1}, {7: -12}, {2: 1, 0: -1}]
    maps += [{rng.randint(0, 9): rng.choice([-5, -1, 1, 2, 6])
              for _ in range(rng.randint(1, 4))} for _ in range(30)]
    for a in maps:
        for b in maps:
            before = (dict(a), dict(b))
            assert _pmul(a, b) == double_loop_product(a, b, operator.add)
            assert (a, b) == before


def _binomial_quotients(st):
    # a numerator times binomials z^(n + t) -/+ z^t over others, so that
    # numerators and denominators share repeated cyclotomic factors
    def quotient(num, above, below):
        out = Scalar(num)
        for binomials, op in ((above, operator.mul),
                              (below, operator.truediv)):
            for n, t, c, sign in binomials:
                out = op(out, Scalar({n + t: c, t: sign * c}))
        return out

    binomial = st.tuples(st.integers(1, 6), st.integers(0, 2),
                         st.sampled_from([1, 2, -3]), st.sampled_from([1, -1]))
    binomials = st.lists(binomial, max_size=3)
    nums = st.dictionaries(st.integers(0, 8), st.integers(-4, 4).filter(bool),
                           min_size=1, max_size=4)
    return st.builds(quotient, nums, binomials, binomials)


# sums and products where a residual R shares a Phi_m with the other
# operand, so that a min of the two factorizations would miss it: the
# Phi_1 inside (z - 1)*(z + 2), and the printed results
RESIDUAL_TRAPS = [
    ("1/((z - 1)*(z + 2))", operator.add, "1/(z - 1)",
     "(z + 3)/(z^2 + z - 2)"),
    ("1/((z - 1)*(z + 2))", operator.sub, "1/(z^2 - 1)",
     "-1/(z^3 + 2*z^2 - z - 2)"),
    ("(z^2 + z + 1)/((z^3 - 1)*(z + 2))", operator.mul,
     "(z - 1)/(z^2 + z + 1)", "1/(z^3 + 3*z^2 + 3*z + 2)"),
]


def test_arithmetic_matches_sympy_property():
    # an independent check of the normal form: with sympy's arithmetic
    # and gcd over QQ[z], each result equals the unreduced fraction, its
    # numerator and denominator are coprime, its denominator has a positive
    # lead and the two integer maps have joint content 1, which pins one
    # representative of each element of Q(z)
    hypothesis = pytest.importorskip("hypothesis")
    pytest.importorskip("sympy")
    from sympy.polys.domains import QQ
    from sympy.polys.rings import ring
    from downup.scalars import _expand
    st = hypothesis.strategies
    R, _ = ring("z", QQ)

    def poly(m):
        return R.from_dict({(e,): QQ(c.numerator, c.denominator)
                            for e, c in m.items()})

    def normal_form_of(s, num, den):
        sn, sd = poly(s.num), poly(s.den)
        return (all(s.num.values()) and all(s.den.values())
                and sn * den == sd * num and sn.gcd(sd).is_ground
                and sd.LC > 0
                and math.gcd(*s.num.values(), *s.den.values()) == 1)

    rationals = st.fractions(min_value=-9, max_value=9, max_denominator=5)
    nonzero = rationals.filter(bool)

    def maps(exponents, coefficients=rationals, min_size=0):
        return st.dictionaries(exponents, coefficients, min_size=min_size,
                               max_size=4)

    # the large exponents meet monomial denominators up to degree 10^4;
    # sympy's gcd takes seconds on a dense pair of that degree, so dense
    # (2-4 term) denominators and monomial numerators over them stay below
    # degree 10^3 here (test_mul_cost_is_bounded and the golden CLI cases
    # hold a dense denominator against z^10000)
    big, mid = st.integers(0, 10 ** 4), st.integers(0, 10 ** 3)

    def monomial(exponents):
        return st.builds(lambda e, c: {e: c}, exponents, nonzero)

    small = st.builds(Scalar, maps(st.integers(0, 6)),
                      maps(st.integers(0, 6)).filter(
                          lambda m: any(m.values())))
    laurent = st.builds(Scalar, maps(big), monomial(big))
    dense = st.builds(Scalar, maps(mid), maps(mid, nonzero, 2))
    monomial_num = st.builds(Scalar, monomial(mid), maps(mid, nonzero, 2))
    # one term over one term, which a product takes as a shift and a scale:
    # both signs, contents up to 60 and z-orders up to 10^4
    contents = st.integers(-60, 60).filter(bool)
    one_term = st.builds(Scalar, *(st.builds(lambda e, c: {e: c}, big,
                                             contents) for _ in "nd"))

    # denominators from binomials, split at birth, so that a one-term
    # product carries the factorization
    factored = _binomial_quotients(st)

    def carried(s):
        # the factorization every scalar carries expands to den
        assert _expand(s.fac) == s.den
        return s

    def check(pair):
        a, b = pair
        (an, ad), (bn, bd) = ((poly(s.num), poly(s.den)) for s in pair)
        assert normal_form_of(a, an, ad)
        assert normal_form_of(carried(a + b), an * bd + bn * ad, ad * bd)
        for product in (a * b, b * a):
            assert normal_form_of(carried(product), an * bn, ad * bd)
        if b:
            assert normal_form_of(carried(a / b), an * bd, ad * bn)

    # equal denominators take one gcd, of the numerators' sum against the
    # denominator: a sum that cancels to zero, z/(z^2 - 1) + 1/(z^2 - 1)
    # = 1/(z - 1), which cancels part of it, and a shared content
    d = {2: 1, 0: -1}
    for pair, total in (((Scalar({1: 1}, d), Scalar({1: -1}, d)), ZERO),
                        ((Scalar({1: 1}, d), Scalar({0: 1}, d)),
                         Scalar({0: 1}, {1: 1, 0: -1})),
                        ((Scalar({0: 1}, {1: 2, 0: 2}),) * 2,
                         Scalar({0: 1}, {1: 1, 0: 1}))):
        check(pair)
        s = pair[0] + pair[1]
        assert (s.num, s.den) == (total.num, total.den)
    for a, op, b, text in RESIDUAL_TRAPS:
        a, b = parse_scalar(a), parse_scalar(b)
        check((a, b))
        check((a, -b))
        assert str(op(a, b)) == text

    # (a, c - a) makes a + b cancel every term of a
    cancelling =st.tuples(small, small).map(lambda p: (p[0], p[1] - p[0]))
    # a one-term operand on either side; sympy's gcds on a dense pair past
    # degree 10^3 take longer, so those pairs run with the dense ones
    one_term_pairs = [st.tuples(*pair)
                      for x in (one_term, small, laurent, factored, dense)
                      for pair in ((one_term, x), (x, one_term))]
    for pairs, runs in ((st.one_of(st.tuples(small, small), cancelling,
                                   st.tuples(laurent, laurent)), 200),
                        (st.one_of(one_term_pairs[:-2]), 120),
                        (st.one_of(st.tuples(dense, dense),
                                   st.tuples(monomial_num, dense),
                                   st.tuples(laurent, monomial_num),
                                   *one_term_pairs[-2:]), 40)):
        hypothesis.settings(max_examples=runs, deadline=None, database=None)(
            hypothesis.given(pairs)(check))()


def test_stored_form_property():
    # the stored maps are integer, coprime in Z[z] (sympy's gcd over ZZ,
    # contents included) with a positive lead in the denominator, and
    # scaling num and den by one nonzero q in Z[z] leaves the value,
    # and its hash, unchanged
    hypothesis = pytest.importorskip("hypothesis")
    pytest.importorskip("sympy")
    from sympy.polys.domains import ZZ
    from sympy.polys.rings import ring
    st = hypothesis.strategies
    R, _ = ring("z", ZZ)

    def stored_form(s):
        n, d = s.num, s.den
        assert all(type(c) is int and c for c in (*n.values(), *d.values()))
        assert d[max(d)] > 0 and math.gcd(*n.values(), *d.values()) == 1
        assert R.from_dict({(e,): c for e, c in n.items()}).gcd(
            R.from_dict({(e,): c for e, c in d.items()})) == 1

    def times(m, q):
        out = {}
        for i, a in m.items():
            for j, b in q.items():
                out[i + j] = out.get(i + j, 0) + a * b
        return out

    exponents = st.integers(0, 6)
    rationals = st.fractions(min_value=-9, max_value=9, max_denominator=5)
    nums = st.dictionaries(exponents, rationals, max_size=4)
    dens = st.dictionaries(exponents, rationals, min_size=1,
                           max_size=4).filter(lambda m: any(m.values()))
    polys = st.dictionaries(exponents, st.integers(-9, 9), min_size=1,
                            max_size=3).filter(lambda m: any(m.values()))

    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.given(nums, dens, nums, dens, st.integers(-20, 20).filter(bool),
                      polys)
    def check(num, den, num2, den2, c, q):
        a, b = Scalar(num, den), Scalar(num2, den2)
        q = {e: c * v for e, v in q.items()}
        scaled = Scalar(times(num, q), times(den, q))
        assert scaled == a and hash(scaled) == hash(a)
        for s in (a, -a, a + b, a - b, a * b):
            stored_form(s)
        if b:
            stored_form(a / b)
            stored_form(b.inverse())

    check()


def _residual_form(s):
    # the same stored maps with the denominator kept as c*z^t*R, R its whole
    # primitive z-free part, so that every gcd with it takes the GCDHEU path
    plain, d = copy.copy(s), s.den
    t, c = min(d), math.gcd(*d.values())
    plain.fac = c, t, (), {e - t: v // c for e, v in d.items()}
    return plain


def test_carried_factorization_property():
    # a denominator built from binomials z^(n + t) -/+ z^t splits into
    # c*z^t*prod Phi_m^e at birth, which must expand to den, and every sum,
    # difference and product must store the same maps as with both
    # denominators in the residual form (the GCDHEU path); so must the
    # sums and products where a residual shares a Phi_m with the other
    # operand
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    from downup.scalars import _expand
    scalars = _binomial_quotients(st)

    def carried(s, splits):
        # the factorization set at birth expands to den; a denominator
        # built from binomials alone splits, leaving the residual 1
        assert _expand(s.fac) == s.den
        assert s.fac[3] == {0: 1} or not splits
        return s

    def check(pool, splits):
        a, b = pool[0], pool[1]
        for c in pool[2:]:
            a, b = carried(a * c, splits), carried(b + c, splits)
        for a, b in ((a, b), (b, a), (a, a)):
            for op in (operator.add, operator.sub, operator.mul):
                got = carried(op(a, b), splits)
                want = op(_residual_form(a), _residual_form(b))
                assert (got.num, got.den) == (want.num, want.den)
            if a:
                carried(a.inverse(), False)
                carried(b / a, False)

    @hypothesis.settings(max_examples=200, deadline=None, database=None)
    @hypothesis.given(st.lists(scalars, min_size=2, max_size=4))
    @hypothesis.example([Scalar({2: 1, 1: -2, 0: 1}),          # (z - 1)^2
                         ONE / Scalar({1: 1, 0: -1}) / Scalar({2: 1, 0: -1})])
    def check_split(pool):
        check(pool, True)

    check_split()
    for a, op, b, text in RESIDUAL_TRAPS:
        a, b = parse_scalar(a), parse_scalar(b)
        check([a, b], False)
        assert str(op(a, b)) == text


def test_difference_kernel_matches_the_plain_form_property():
    # cyclotomic.times_difference(s, e, difference_parts(m, n)) is
    # s*(z^e*m - n) with one reduction: the same stored maps as the plain
    # shift, difference and product, with every factorization as carried,
    # found afresh from den or in the residual form (the GCDHEU path), and
    # the factorization carried expands to den.  Denominators share or
    # split z^3 - 1, (z^2 + z + 1)^2, z^5 - 1, powers of z and other
    # binomials; c/(z + 2) and a factored den over z + 2 keep the residual
    # z + 2, and e runs past MAX_SPLIT_DEGREE
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    from downup.cyclotomic import difference_parts, times_difference
    from downup.scalars import _expand
    contents = st.integers(-6, 6).filter(bool)
    nums = st.dictionaries(st.integers(0, 6), contents, min_size=1,
                           max_size=3)
    factors = st.lists(st.sampled_from([
        {3: 1, 0: -1}, {4: 1, 3: 2, 2: 3, 1: 2, 0: 1}, {5: 1, 0: -1}]),
        max_size=2)
    terms = st.builds(lambda e, c: {e: c}, st.integers(0, 5), contents)
    scalars = st.one_of(
        st.builds(lambda n, fs, t: Scalar(n, functools.reduce(
            _pmul, fs, t)), nums, factors, terms),
        _binomial_quotients(st),
        st.builds(lambda n: Scalar(n, {1: 1, 0: 2}), nums),
        st.builds(lambda n: Scalar(n, {4: 3, 1: 3}) / Scalar({1: 1, 0: 2}),
                  nums),
        st.builds(Scalar, nums, terms), st.builds(Scalar, nums),
        st.just(ZERO), st.just(ONE))
    exponents = st.integers(1, 90).flatmap(lambda e: st.sampled_from([e, -e]))
    cube = ONE / Scalar({3: 1, 0: -1})

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(scalars, scalars, scalars, exponents)
    @hypothesis.example(ONE, cube, cube, 6)
    @hypothesis.example(Scalar({0: 2}, {2: 1}), cube ** 2,
                        Scalar({1: 1}, {5: 1, 0: -1}), -3)
    @hypothesis.example(ZERO, cube, Z, 1)
    def check(s, m, n, e):
        want = s * (m.times_z(e) - n)
        plain = [_residual_form(v) for v in (s, m, n)]
        found = [Scalar(v.num, v.den) for v in (s, m, n)]
        for got in [plain[0] * (plain[1].times_z(e) - plain[2])] + [
                times_difference(a, e, difference_parts(b, c))
                for a, b, c in ((s, m, n), plain, found)]:
            assert (got.num, got.den) == (want.num, want.den)
            assert _expand(got.fac) == got.den

    check()


def test_difference_kernel_checks_the_degree_a_gcd_would(monkeypatch):
    # s's numerator times z^e is checked against the dense denominators of
    # s and m, the spans a gcd of s's numerator times z^e - 1 with either
    # would take, as the product by phi^w(p) - p that the fused form
    # replaces did; the fused numerator meets a dense den of s in a cut,
    # which checks its span.  A dense den of n alone, or one-term dens, are
    # not checked
    from downup import scalars
    from downup.cyclotomic import difference_parts, times_difference
    n3, phi3 = Scalar({3: 1, 0: 1}), Scalar({2: 1, 1: 1, 0: 1})
    cube, term = ONE / Scalar({3: 1, 0: -1}), Scalar({1: 2}, {5: 3})
    refused = [(n3, cube, cube), (n3, ONE / phi3, ONE),
               (n3 / phi3, ONE, Scalar({0: 2}, {1: 3})),
               (n3 / Scalar({1: 1, 0: 2}), Z, ONE)]
    passed = [(s, m, n, e) for s, m, n in refused for e in (7, -7)] + [
        (n3, term, ONE / phi3, 40), (n3, term, Scalar({0: 1}, {2: 1}), 40)]
    # the plain form, at the usual cap, as the reference
    want = [s * (m.times_z(e) - n) for s, m, n, e in passed]
    monkeypatch.setattr(scalars, "MAX_GCD_DEGREE", 10)
    for s, m, n in refused:
        for e in (9, -9):
            with pytest.raises(ValueError, match="degree 12 is past the"):
                times_difference(s, e, difference_parts(m, n))
    with pytest.raises(ValueError, match="degree 12 is past the"):
        times_difference(ONE, 1, difference_parts(
            ONE / Scalar({12: 1, 0: -1}), ONE))
    assert [times_difference(s, e, difference_parts(m, n))
            for s, m, n, e in passed] == want


def test_division_by_a_cyclotomic_factor_undoes_the_product():
    # a Phi_m hit divides by the monic Phi_m directly (over z - 1 by running
    # sums): the quotient of q*Phi_m is q, for sparse and dense q, with or
    # without a power of z, and the dividend is not written
    from downup.cyclotomic import _over_phi, _phi
    rng = random.Random(7)
    for m in range(1, 31):
        for _ in range(6):
            q = {rng.randint(0, 12): rng.choice([-7, -1, 1, 2, 30])
                 for _ in range(rng.randint(1, 6))}
            f = _pmul(q, _phi(m))
            before = dict(f)
            assert _over_phi(f, m) == q and f == before


def test_denominator_built_two_ways_is_one_scalar():
    # a binomial quotient and the same denominator typed in expanded:
    # equal scalars, equal hashes and one factorization
    for num, dens in (({0: 1}, [{1: 1, 0: -1}]),
                      ({3: 2, 0: 5}, [{4: 1, 0: -1}, {6: 1, 0: 1}]),
                      ({1: -1}, [{7: 2, 2: -2}, {3: 1, 0: -1}] * 2),
                      ({2: 1, 0: 1}, [{12: 1, 0: -1}, {5: 1, 0: -1}])):
        built = Scalar(num)
        typed = {0: 1}
        for d in dens:
            built, typed = built / Scalar(d), _pmul(typed, d)
        fac = built.fac
        for other in (Scalar(num, typed), parse_scalar(str(built))):
            assert other == built and hash(other) == hash(built)
            assert other.fac == fac and fac[2]


def test_z_shift_matches_the_product_property():
    # times_z is the gcd-free form of s * z^e: the same stored maps and the
    # same hash, for zero, negative leads and z factors in num or in den,
    # and s itself is left as it was
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    exponents = st.integers(0, 6)
    rationals = st.fractions(min_value=-9, max_value=9, max_denominator=5)
    nums = st.dictionaries(exponents, rationals, max_size=4)
    dens = st.dictionaries(exponents, rationals, min_size=1,
                           max_size=4).filter(lambda m: any(m.values()))

    @hypothesis.settings(max_examples=200, deadline=None, database=None)
    @hypothesis.given(nums, dens, st.integers(-12, 12))
    @hypothesis.example({}, {0: 1}, 7)                      # zero
    @hypothesis.example({2: -3, 0: 1}, {0: 1}, 3)           # negative leads
    @hypothesis.example({1: -1}, {0: -3, 2: -1}, -4)
    @hypothesis.example({3: -2, 4: 1}, {0: 1, 1: 5}, -2)    # z^3 in num
    @hypothesis.example({3: -2, 4: 1}, {0: 1, 1: 5}, -5)
    @hypothesis.example({0: 1, 2: -1}, {2: 3}, 1)           # z^2 in den
    @hypothesis.example({0: 1, 2: -1}, {2: 3}, 4)
    def check(num, den, e):
        s = Scalar(num, den)
        before = (dict(s.num), dict(s.den))
        got, want = s.times_z(e), s * Scalar.z_power(e)
        assert (got.num, got.den) == (want.num, want.den)
        assert hash(got) == hash(want)
        assert (s.num, s.den) == before

    check()


def test_integer_gcd_and_remainder_sequence_match_sympy():
    # both gcd routines of the scalars on primitive integer maps with a
    # planted common factor, against sympy's gcd over ZZ
    pytest.importorskip("sympy")
    from sympy.polys.domains import ZZ
    from sympy.polys.rings import ring

    from downup.cyclotomic import _primitive, _prs_gcd
    from downup.scalars import _pmul, _zgcd
    R, _ = ring("z", ZZ)
    rng = random.Random(11)

    def to_ring(m):
        return R.from_dict({(e,): c for e, c in m.items()})

    def rand_map(degree, bound):
        m = {rng.randint(0, degree): rng.randint(-bound, bound)
             for _ in range(rng.randint(1, 6))}
        return {e: c for e, c in m.items() if c} or {0: 1}

    for trial in range(300):
        degree, bound = (12, 60) if trial % 3 else (40, 10 ** 6)
        common = rand_map(degree // 2, bound)
        f = _primitive(_pmul(rand_map(degree, bound), common))[1]
        g = _primitive(_pmul(rand_map(degree, bound), common))[1]
        want = to_ring(f).gcd(to_ring(g)).primitive()[1]
        for gcd in (_zgcd, _prs_gcd):
            h, cf, cg = gcd(f, g)
            assert h[max(h)] > 0 and to_ring(h) == want
            assert _pmul(h, cf) == f and _pmul(h, cg) == g


@pytest.mark.parametrize("f, g, gcd, first", [
    # z + 1 and z - 2 are 9 and 6 at xi = 8, so the first value is 3
    ({1: 1, 0: 1}, {1: 1, 0: -2}, {0: 1}, 3),
    # a shared integer content only: 18 and 14 at xi = 8
    ({1: 2, 0: 2}, {1: 2, 0: -2}, {0: 2}, 2),
    # a shared power of z only, over the same z-free parts as the first
    ({3: 1, 2: 1}, {4: 1, 3: -2}, {2: 1}, 3),
    # z-free parts 1 + z and 2 + z are 9 and 10 at xi = 8: coprime at once
    ({3: 1, 2: 1}, {4: 1, 3: 2}, {2: 1}, 1),
], ids=["coprime", "content", "z-power", "first-value-one"])
def test_dense_gcd_from_its_first_value(f, g, gcd, first):
    # the first GCDHEU value (z-order removed, contents kept) is the integer
    # gcd of f and g at xi = 2^k; each of these reads back as a constant,
    # which ends the gcd there
    from downup.cyclotomic import _heu_bits, _heu_value
    from downup.scalars import _pmul, _zgcd
    k = _heu_bits(f, g)
    assert math.gcd(_heu_value(f, k, min(f)), _heu_value(g, k, min(g))) \
        == first
    h, cf, cg = _zgcd(f, g)
    assert h == gcd and _pmul(h, cf) == f and _pmul(h, cg) == g


@pytest.mark.parametrize("f", [
    {0: 1}, {0: 6, 2: -4}, {3: 6, 5: -4}, {2: 1}, {4: 9},
], ids=["one", "constant-term", "no-constant-term", "z-power", "monomial"])
def test_gcd_with_one_hands_the_maps_back(f, monkeypatch):
    # a gcd with 1 is 1 with no content scan or copy: both cofactors are
    # the very maps passed in, in either order, and no integer gcd is taken
    import downup.scalars as scalars

    def refuse(*args):
        raise AssertionError("content scanned")

    monkeypatch.setattr(scalars, "math", SimpleNamespace(gcd=refuse))
    one = {0: 1}
    h, cf, cg = scalars._zgcd(f, one)
    assert h == {0: 1} and cf is f and cg is one
    h, cf, cg = scalars._zgcd(one, f)
    assert h == {0: 1} and cf is one and cg is f


def test_non_primitive_gcd_matches_sympy():
    # _zgcd keeps both contents through GCDHEU and takes their gcd once,
    # from the cofactors: planted contents, shared or not, and planted
    # powers of z, against sympy's gcd over ZZ
    pytest.importorskip("sympy")
    from sympy.polys.domains import ZZ
    from sympy.polys.rings import ring

    from downup.scalars import _pmul, _zgcd
    R, _ = ring("z", ZZ)
    rng = random.Random(17)

    def to_ring(m):
        return R.from_dict({(e,): c for e, c in m.items()})

    def rand_map(degree, bound):
        m = {rng.randint(0, degree): rng.randint(-bound, bound)
             for _ in range(rng.randint(1, 5))}
        return {e: c for e, c in m.items() if c} or {0: 1}

    for trial in range(300):
        degree, bound = (10, 30) if trial % 3 else (30, 10 ** 5)
        common = rand_map(degree // 2, bound) if trial % 4 else {0: 1}
        f, g = (_pmul(_pmul(rand_map(degree, bound), common),
                      {rng.randint(0, 3): rng.choice(contents)})
                for contents in ((2, 6, -4), (3, 6, -9)))
        h, cf, cg = _zgcd(f, g)
        assert to_ring(h) == to_ring(f).gcd(to_ring(g)) and h[max(h)] > 0
        assert _pmul(h, cf) == f and _pmul(h, cg) == g


def test_remainder_sequence_after_six_missed_values(monkeypatch):
    # when no GCDHEU candidate divides, the remainder sequence on the
    # primitive parts gives the gcd, and the contents and the z-order
    # still come back: 6z^2(z+1)(z-2) and -4z(z+1)(z+3)
    import downup.cyclotomic as cyclotomic
    import downup.scalars as scalars
    f, g = {4: 6, 3: -6, 2: -12}, {3: -4, 2: -16, 1: -12}
    want = ({2: 2, 1: 2}, {2: 3, 1: -6}, {1: -2, 0: -6})
    assert scalars._zgcd(f, g) == want
    misses, zdivmod = [], cyclotomic._zdivmod

    def missing(a, b):
        if len(misses) < 6:
            misses.append(b)
            return None
        return zdivmod(a, b)

    monkeypatch.setattr(cyclotomic, "_zdivmod", missing)
    assert scalars._zgcd(f, g) == want and len(misses) == 6


def test_coprime_dense_pair_ends_at_its_first_value(monkeypatch):
    # a coprime dense pair ends at GCDHEU's first value: each xi is
    # evaluated once per map, no candidate is divided, and the maps come
    # back shared when neither has a z factor
    import downup.cyclotomic as cyclotomic
    import downup.scalars as scalars
    values, divisions = [], []
    heu_value, zdivmod = cyclotomic._heu_value, cyclotomic._zdivmod

    def counting_value(p, k, shift):
        values.append(k)
        return heu_value(p, k, shift)

    def counting_divmod(a, b):
        divisions.append(b)
        return zdivmod(a, b)

    monkeypatch.setattr(cyclotomic, "_heu_value", counting_value)
    monkeypatch.setattr(cyclotomic, "_zdivmod", counting_divmod)
    f, g = {2: 3, 1: -1, 0: 5}, {3: 1, 0: -7}
    h, cf, cg = scalars._zgcd(f, g)
    assert h == {0: 1} and cf is f and cg is g
    assert scalars._zgcd({4: 3, 3: -1, 2: 5}, {5: 1, 2: -7}) == \
        ({2: 1}, f, g)
    assert divisions == [] and len(values) == 4 and len(set(values)) == 1
    # z + 1 and z - 2 give 9 and 6 at xi = 8: a constant candidate
    assert scalars._zgcd({1: 1, 0: 1}, {1: 1, 0: -2})[0] == {0: 1}
    assert divisions == [] and len(values) == 6
    # -4z - 4 and z^2 + 2z - 2 give 6 at xi = 8, read as the candidate
    # z - 2, which fails to divide; xi = 32 finds them coprime.  Each xi
    # tried costs exactly two values
    del values[:]
    assert scalars._zgcd({1: -4, 0: -4}, {2: 1, 1: 2, 0: -2})[0] == {0: 1}
    assert divisions == [{1: 1, 0: -2}] and values == [3, 3, 5, 5]


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


@pytest.mark.parametrize("args", [(1.5, 3.9, 2.2), (1, 3, 2.0),
                                  ("1", 3, 2), (1, Fraction(3), 2)],
                         ids=["floats", "float-n2", "string-d", "fraction-n1"])
def test_validate_refuses_non_integer_exponents(args):
    # exponents are never truncated to integers
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        validate_param_spec(*args)


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
    # by squaring, for a Scalar and a BiPoly alike: about 60 products
    assert Z ** 10 ** 9 == Scalar.z_power(10 ** 9)
    assert BiPoly.var_h() ** 10 ** 9 == BiPoly.var_h(10 ** 9)


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
