"""Seeded random data for the verification suites and the tests."""

from __future__ import annotations

from fractions import Fraction

from .bipoly import BiPoly
from .derivations import (CTypeSpec, build_alpha_derivation,
                          build_c_derivation, combine, coupled_alpha_spec,
                          index_sets_from_b)
from .gwa import GwaElement
from .scalars import ONE, ZERO, Scalar


def random_rational(rng, bound, nonzero=False):
    while True:
        q = Fraction(rng.randint(-bound, bound), rng.randint(1, 3))
        if q or not nonzero:
            return q


def random_scalar(rng, degree=2, with_denominator=False, nonzero=False):
    while True:
        num = {e: random_rational(rng, 3) for e in range(rng.randint(1, degree + 1))}
        s = Scalar(num)
        if with_denominator and rng.random() < 0.5:
            den = {rng.randint(1, 2): 1}
            if rng.random() < 0.5:
                den[0] = random_rational(rng, 2, nonzero=True)
            s = Scalar(num, den)
        if s or not nonzero:
            return s


def random_bipoly(rng, max_degree=3, max_terms=3, nonzero=False, **scalar_kw):
    terms = {}
    for _ in range(rng.randint(0 if not nonzero else 1, max_terms)):
        key = (rng.randint(0, max_degree), rng.randint(0, max_degree))
        terms[key] = random_scalar(rng, **scalar_kw)
    p = BiPoly(terms)
    if nonzero and not p:
        return BiPoly.monomial(rng.randint(0, max_degree), 0, ONE)
    return p


def random_element(rng, max_weight=3, **poly_kw):
    comps = {}
    for _ in range(rng.randint(0, 2)):
        w = rng.randint(-max_weight, max_weight)
        comps[w] = random_bipoly(rng, **poly_kw)
    return GwaElement(comps)


def random_f_coefficients(rng):
    coeffs = [ZERO] * 7
    for i in rng.sample(range(7), rng.randint(1, 3)):
        coeffs[i] = random_scalar(rng, degree=1, nonzero=True)
    return coeffs


def random_derivations(rng, spec, g):
    """Five constructed derivations over one parameter point: c-type,
    alpha-type at weights 1, -1 and 2 (c-type where the h index set has
    no index from 1 to 8), and a combination of the first two."""
    i_set, _ = index_sets_from_b(spec.b1, spec.b2)
    options = [i for i in i_set.members_up_to(8) if i >= 1]

    def c_type():
        c0 = random_bipoly(rng, nonzero=True)
        return build_c_derivation(spec, CTypeSpec(c0))

    out = [c_type()]
    for w in (1, -1, 2):
        if not options:
            out.append(c_type())
            continue
        picks = rng.sample(options, rng.randint(1, min(2, len(options))))
        h_coeffs = {i: random_scalar(rng, degree=1, nonzero=True)
                    for i in picks}
        out.append(build_alpha_derivation(
            spec, g, coupled_alpha_spec(spec, w, h_coeffs)))
    out.append(combine([(random_scalar(rng, nonzero=True), out[0]),
                        (random_scalar(rng, nonzero=True), out[1])]))
    return out
