"""Named verification suites behind `downup verify`.

A suite is one function suite_x(ctx, rng, check), registered once in
SUITES under its name: it draws samples from rng, a fresh
Random(ctx.seed), and passes each exact identity to check, which counts
pass/total and keeps a short description per miss.  A suite may also
take keyword parameters with defaults, which `verify` never sets:
suite_oracle's `longest` serves the acceptance test's full grid.
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction
from itertools import product

from . import sampling
from .bipoly import apply_phi_power
from .derivations import apply_derivation, index_sets_from_b
from .expressions import parse_element
from .gwa import apply_sigma_mu, gwa_mul
from .oracle import oracle_normalize
from .presentation import (DownUpPresentation, conformal_residue,
                           relation_residues, solve_conformal,
                           witness_support_matches)
from .scalars import ONE, ZERO, Scalar, validate_param_spec


class SuiteResult:
    def __init__(self, name):
        self.name = name
        self.passed = self.total = 0
        self.failures = []

    def check(self, ok, describe):
        self.total += 1
        if ok:
            self.passed += 1
        elif len(self.failures) < 10:
            self.failures.append(describe() if callable(describe) else describe)

    @property
    def ok(self):
        return self.passed == self.total


# what a run needs, resolved before any suite runs: spec is None for a
# point-free run, algebra is None when no f was given
SuiteContext = namedtuple("SuiteContext", "spec algebra seed samples",
                          defaults=(None, None, 0, 200))


def suite_field(ctx, rng, check):
    for n in range(ctx.samples):
        a = sampling.random_scalar(rng, with_denominator=True)
        b = sampling.random_scalar(rng, with_denominator=True)
        c = sampling.random_scalar(rng, with_denominator=True, nonzero=True)
        ok = ((a + b) + c == a + (b + c)
              and (a * b) * c == a * (b * c)
              and a * (b + c) == a * b + a * c
              and a + b == b + a
              and a - a == ZERO
              and c * c.inverse() == ONE)
        check(ok, lambda: "sample %d: (%s, %s, %s)" % (n, a, b, c))


def suite_params(ctx, rng, check):
    # no accepted point may have s equal to a positive power of r
    for d in range(1, 5):
        for n1 in range(-6, 7):
            for n2 in range(-4, 5):
                try:
                    spec = validate_param_spec(d, n1, n2)
                except ValueError:
                    continue
                clash = any(spec.s == Scalar.z_power(spec.n1 * q)
                            for q in range(1, 65))
                check(not clash,
                      "accepted d=%d n1=%d with s a power of r" % (d, n1))


def suite_phi(ctx, rng, check):
    spec = ctx.spec
    for n in range(ctx.samples):
        p = sampling.random_bipoly(rng)
        q = sampling.random_bipoly(rng)
        w = rng.randint(-5, 5)
        hom = apply_phi_power(spec, p * q, w) == \
            apply_phi_power(spec, p, w) * apply_phi_power(spec, q, w)
        back = apply_phi_power(spec, apply_phi_power(spec, p, w), -w) == p
        check(hom and back, lambda: "sample %d (w=%d)" % (n, w))


def suite_assoc(ctx, rng, check):
    algebra = ctx.algebra
    for n in range(ctx.samples):
        u = sampling.random_element(rng, max_degree=2, max_terms=2)
        v = sampling.random_element(rng, max_degree=2, max_terms=2)
        t = sampling.random_element(rng, max_degree=2, max_terms=2)
        lhs = gwa_mul(algebra, gwa_mul(algebra, u, v), t)
        rhs = gwa_mul(algebra, u, gwa_mul(algebra, v, t))
        check(lhs == rhs, lambda: "sample %d" % n)


def suite_sigma(ctx, rng, check):
    algebra = ctx.algebra
    for n in range(ctx.samples):
        u = sampling.random_element(rng, max_degree=2, max_terms=2)
        v = sampling.random_element(rng, max_degree=2, max_terms=2)
        mult = apply_sigma_mu(algebra, gwa_mul(algebra, u, v)) == \
            gwa_mul(algebra, apply_sigma_mu(algebra, u), apply_sigma_mu(algebra, v))
        back = apply_sigma_mu(algebra, apply_sigma_mu(algebra, u), -1) == u
        check(mult and back, lambda: "sample %d" % n)


def suite_oracle(ctx, rng, check, longest=4):
    # each word of length <= longest (at most 8) is rewritten once and
    # checked against gwa_mul at its splits into two words of length <= 4;
    # those are also rewritten rightmost, parsed, and kept for the splits
    algebra, kept = ctx.algebra, {}
    for length in range(1, longest + 1):
        for word in product("xyhk", repeat=length):
            direct = oracle_normalize(algebra, [(ONE, word)])
            if length <= 4:
                right = oracle_normalize(algebra, [(ONE, word)],
                                         strategy="rightmost")
                check(direct == parse_element("*".join(word), algebra)
                      and direct == right, lambda: "word %s" % "".join(word))
                kept[word] = direct
            for cut in range(max(1, length - 4), min(4, length - 1) + 1):
                u, v = word[:cut], word[cut:]
                check(direct == gwa_mul(algebra, kept[u], kept[v]),
                      lambda: "pair %s|%s" % ("".join(u), "".join(v)))


def suite_conformal(ctx, rng, check):
    spec = ctx.spec
    for n in range(min(ctx.samples, 50)):
        coeffs = sampling.random_f_coefficients(rng)
        pres = DownUpPresentation.from_coefficients(spec, coeffs)
        g = solve_conformal(pres)
        ok = (not conformal_residue(pres, g)
              and witness_support_matches(pres, g))
        check(ok, lambda: "sample %d" % n)


def enumerate_indices(b1, b2, bound=1000):
    """Brute-force membership from the defining conditions, by rational
    arithmetic only: I from b2 + (1-t)b1, J from b2 - t*b1 + 1."""
    b1, b2 = Fraction(b1), Fraction(b2)
    i_hits, j_hits = [], []
    for t in range(bound + 1):
        vi = b2 + (1 - t) * b1
        if vi.denominator == 1 and vi >= 0:
            i_hits.append(t)
        vj = b2 - t * b1 + 1
        if vj.denominator == 1 and vj >= 0:
            j_hits.append(t)
    return i_hits, j_hits


def suite_indices(ctx, rng, check):
    spec = ctx.spec
    i_set, j_set = index_sets_from_b(spec.b1, spec.b2)
    i_ref, j_ref = enumerate_indices(spec.b1, spec.b2)
    check(i_set.members_up_to(1000) == i_ref, "I disagrees with enumeration")
    check(j_set.members_up_to(1000) == j_ref, "J disagrees with enumeration")


def leibniz_holds(algebra, deriv, u, v):
    """The twisted Leibniz identity D(uv) = D(u) sigma_mu(v) + u D(v)."""
    lhs = apply_derivation(algebra, deriv, gwa_mul(algebra, u, v))
    rhs = gwa_mul(algebra, apply_derivation(algebra, deriv, u),
                  apply_sigma_mu(algebra, v)) \
        + gwa_mul(algebra, u, apply_derivation(algebra, deriv, v))
    return lhs == rhs


def suite_leibniz(ctx, rng, check):
    algebra = ctx.algebra
    derivs = sampling.random_derivations(rng, algebra.spec, algebra.g)
    per = max(1, ctx.samples // len(derivs))
    for idx, deriv in enumerate(derivs):
        for n in range(per):
            u = sampling.random_element(rng, max_degree=2, max_terms=2)
            v = sampling.random_element(rng, max_degree=2, max_terms=2)
            check(leibniz_holds(algebra, deriv, u, v),
                  lambda: "derivation %d sample %d" % (idx, n))


def suite_relations(ctx, rng, check):
    spec = ctx.spec
    for n in range(min(ctx.samples, 25)):
        coeffs = sampling.random_f_coefficients(rng)
        pres = DownUpPresentation.from_coefficients(spec, coeffs)
        for name, residue in relation_residues(pres).items():
            check(not residue, lambda: "%s (sample %d)" % (name, n))


def suite_roundtrip(ctx, rng, check):
    algebra = ctx.algebra
    for n in range(ctx.samples):
        u = sampling.random_element(rng, with_denominator=True)
        text = str(u)
        back = parse_element(text, algebra)
        check(back == u and str(back) == text,
              lambda: "sample %d: %s" % (n, text))


SUITES = {
    "field": suite_field,
    "params": suite_params,
    "phi": suite_phi,
    "assoc": suite_assoc,
    "sigma": suite_sigma,
    "oracle": suite_oracle,
    "conformal": suite_conformal,
    "indices": suite_indices,
    "leibniz": suite_leibniz,
    "relations": suite_relations,
    "roundtrip": suite_roundtrip,
}


# the suites that run without a point, and those that also need f
POINT_FREE = {"field", "params"}
NEEDS_F = {"assoc", "sigma", "oracle", "leibniz", "roundtrip"}


def select(names):
    """The suite names to run, each once in first-occurrence order: "all"
    alone names every suite, and an unknown name is refused."""
    if "all" in names:
        if len(names) > 1:
            raise ValueError("'all' must be the only suite name")
        return list(SUITES)
    for name in names:
        if name not in SUITES:
            raise ValueError("unknown suite %r (have: %s)"
                             % (name, ", ".join(sorted(SUITES))))
    return list(dict.fromkeys(names))


def run_suites(names, ctx):
    """The selected suites' results; each name, and the point and f the
    names need, is checked before any suite runs, and each suite draws
    from its own Random(ctx.seed)."""
    names = select(names)
    if ctx.spec is None and not POINT_FREE.issuperset(names):
        raise ValueError("missing parameters: d, n1, n2")
    if ctx.algebra is None and not NEEDS_F.isdisjoint(names):
        raise ValueError("missing f (coefficient list, e.g. --f 0,1)")
    results = []
    for name in names:
        res = SuiteResult(name)
        SUITES[name](ctx, random.Random(ctx.seed), res.check)
        results.append(res)
    return results
