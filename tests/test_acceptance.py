"""End-to-end acceptance gate.

Each test is one criterion; the terminal summary (see conftest) prints
one pass/fail line per criterion.  Everything is exact arithmetic: no
tolerances anywhere.
"""

import random
from fractions import Fraction
from itertools import product

from downup import (BiPoly, CTypeSpec, DownUpPresentation, GwaAlgebra,
                    GwaElement, IndexSet, NonInnerWitness, Scalar,
                    apply_derivation, basis_word, build_alpha_derivation,
                    build_c_derivation, conformal_residue, coupled_alpha_spec,
                    from_poly, gwa_mul, index_sets_from_b, oracle_normalize,
                    solve_conformal, solve_inner, translate_to_gwa,
                    twisted_commutator, witness_support_matches)
from downup.sampling import random_element, random_f_coefficients

from support import (enumerate_indices, inner_system_solvable, leibniz_holds,
                     random_param_spec, std_spec)

H = BiPoly.var_h()
K = BiPoly.var_k()
ONE = Scalar.from_rational(1)


def fixed_algebra():
    # one parameter point, one nonzero degree-2 distinguished polynomial
    return GwaAlgebra(std_spec(), H ** 2 + 1)


# -- criterion 1: index sets on the positive integer grid ----------------------

def branch_table(b1, b2):
    """The displayed classification for integers b1, b2 >= 1: three
    branches for each set, driven by divmod(b2, b1)."""
    q, rho = divmod(b2, b1)
    if b1 > b2:
        table_i = [0, 1]
    elif b1 == b2:
        table_i = [0, 1, 2]
    else:
        table_i = list(range(q + 2))
    if b1 > b2 + 1:
        table_j = [0]
    elif b1 == b2 or b1 == b2 + 1:
        table_j = [0, 1]
    else:
        table_j = list(range(q + 1 + (1 if rho == b1 - 1 else 0)))
    return table_i, table_j


def test_criterion_1_integer_index_table():
    mismatches = []
    for b1 in range(1, 13):
        for b2 in range(1, 13):
            i_set, j_set = index_sets_from_b(b1, b2)
            got_i = i_set.members_up_to(1000)
            got_j = j_set.members_up_to(1000)
            # the defining conditions, brute forced, always agree
            ref_i, ref_j = enumerate_indices(b1, b2)
            assert got_i == ref_i and got_j == ref_j, (b1, b2)
            table_i, table_j = branch_table(b1, b2)
            if got_i != table_i:
                mismatches.append(("I", b1, b2, got_i, table_i))
            if got_j != table_j:
                mismatches.append(("J", b1, b2, got_j, table_j))
    # the J branch value at b1 = b2 = 1 contradicts its own defining
    # condition (which yields {0, 1, 2}); the definition wins, and this
    # is pinned as the single corner where the branch table is off
    assert mismatches == [("J", 1, 1, [0, 1, 2], [0, 1])], mismatches


# -- criterion 2: negative integer slopes --------------------------------------

def test_criterion_2_negative_slope_branches():
    for b1 in (-1, -2, -3):
        for b2 in (1, 2, 3):
            i_set, j_set = index_sets_from_b(b1, b2)
            assert j_set == IndexSet(0, 1), (b1, b2)
            expect_i = IndexSet(0 if b2 >= -b1 else 1, 1)
            assert i_set == expect_i, (b1, b2)
            ref_i, ref_j = enumerate_indices(b1, b2)
            assert i_set.members_up_to(1000) == ref_i
            assert j_set.members_up_to(1000) == ref_j


# -- criterion 3: twisted Leibniz at scale --------------------------------------

def test_criterion_3_leibniz_suite():
    A = fixed_algebra()
    spec = A.spec
    derivs = [build_c_derivation(spec, CTypeSpec(c0))
              for c0 in (BiPoly.one(), H, K ** 2, H * K + 1)]
    for w in (1, -1, 2, -2, 3, -3):
        # the h index set at this point allows i = 1 at every weight;
        # this coefficient keeps the forced k side denominator free
        c = Scalar.z_power(spec.n1 * w) - 1
        derivs.append(build_alpha_derivation(
            spec, A.g, coupled_alpha_spec(spec, w, {1: c})))
    assert len(derivs) >= 10
    rng = random.Random(301)
    for D in derivs:
        for _ in range(500):
            u = random_element(rng, max_weight=2, max_degree=2, max_terms=2)
            v = random_element(rng, max_weight=2, max_degree=2, max_terms=2)
            assert leibniz_holds(A, D, u, v), repr(D)


# -- criterion 4: oracle equivalence and associativity --------------------------

def test_criterion_4_oracle_equivalence():
    A = fixed_algebra()
    words = []
    for n in range(1, 5):
        words.extend(product("xyhk", repeat=n))
    norms = {w: oracle_normalize(A, [(ONE, w)]) for w in words}
    # every product of two length <= 4 words, grouped by concatenation
    # so each free word is rewritten once
    for length in range(2, 9):
        for joined in product("xyhk", repeat=length):
            splits = [cut for cut in range(1, length)
                      if cut <= 4 and length - cut <= 4]
            if not splits:
                continue
            direct = oracle_normalize(A, [(ONE, joined)])
            for cut in splits:
                u, v = joined[:cut], joined[cut:]
                assert direct == gwa_mul(A, norms[u], norms[v]), (u, v)
    rng = random.Random(302)
    for _ in range(200):
        u = random_element(rng, max_weight=2, max_degree=2, max_terms=2)
        v = random_element(rng, max_weight=2, max_degree=2, max_terms=2)
        t = random_element(rng, max_weight=2, max_degree=2, max_terms=2)
        assert gwa_mul(A, gwa_mul(A, u, v), t) == gwa_mul(A, u, gwa_mul(A, v, t))


# -- criterion 5: conformality -------------------------------------------------

def test_criterion_5_conformal_solutions():
    rng = random.Random(303)
    for _ in range(50):
        spec = random_param_spec(rng)
        pres = DownUpPresentation.from_coefficients(
            spec, random_f_coefficients(rng))
        g = solve_conformal(pres)
        assert conformal_residue(pres, g) == BiPoly()
        assert witness_support_matches(pres, g)


# -- criterion 6: the inner dichotomy -------------------------------------------

def test_criterion_6_inner_dichotomy():
    spec = std_spec(1, 2, 5)
    A = GwaAlgebra(spec, H)
    degenerate_hits = []
    for beta in range(5):
        for gamma in range(5):
            c0 = BiPoly.monomial(beta, gamma, ONE)
            solved = solve_inner(spec, CTypeSpec(c0))
            if spec.n2 == spec.n1 * beta + spec.d * gamma:
                assert solved == NonInnerWitness(beta, gamma)
                # independent route: the finite linear system over the
                # support really is infeasible
                assert not inner_system_solvable(spec, c0)
                degenerate_hits.append((beta, gamma))
            else:
                assert isinstance(solved, BiPoly)
                assert inner_system_solvable(spec, c0)
                D = build_c_derivation(spec, CTypeSpec(c0))
                b = from_poly(solved)
                for gen in (basis_word(1), basis_word(-1), from_poly(H),
                            from_poly(K)):
                    assert twisted_commutator(A, b, gen) == \
                        apply_derivation(A, D, gen), (beta, gamma)
    assert degenerate_hits == [(1, 3), (2, 1)]


# -- criterion 7: defining relations under translation ---------------------------

def test_criterion_7_defining_relations():
    rng = random.Random(304)
    for _ in range(10):
        spec = random_param_spec(rng)
        for _ in range(10):
            pres = DownUpPresentation.from_coefficients(
                spec, random_f_coefficients(rng))
            t = lambda e: translate_to_gwa(pres, e)
            zero = GwaElement()
            assert t("d*h") - t("h*d") * spec.r == zero
            assert t("h*u") - t("u*h") * spec.r == zero
            assert t("d*u") - t("u*d") * spec.s + from_poly(pres.f) == zero
