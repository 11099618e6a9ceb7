"""The down-up presentation and its change of variables.

A presentation carries the parameters and the interaction polynomial f.
When f is conformal, f(X) = s*g(X) - g(r*X) for a unique g with the
same support, and the assignment d -> x, u -> y, h -> h identifies the
algebra with the weighted normal form built on a = k + g(h).
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .bipoly import BiPoly, apply_phi_power
from .gwa import GwaAlgebra, basis_word, from_poly, gwa_mul
from .scalars import ParameterError, Scalar, _to_scalar


class DownUpPresentation(namedtuple("DownUpPresentation", "spec f")):
    __slots__ = ()

    def __new__(cls, spec, f):
        if not f.is_h_only():
            raise ValueError("f must depend on h only")
        return super().__new__(cls, spec, f)

    @classmethod
    def from_coefficients(cls, spec, coeffs):
        """Build from the dense coefficient list [f_0, f_1, ...]."""
        terms = {}
        for i, c in enumerate(coeffs):
            c = _to_scalar(c)
            if c:
                terms[(i, 0)] = c
        return cls(spec, BiPoly(terms))


def solve_conformal(pres):
    """Solve f(X) = s*g(X) - g(r*X) degree by degree and return g.

    Each coefficient divides by s - r^i, which is nonzero at every
    admissible parameter point; the guard names the degree otherwise.
    """
    spec = pres.spec
    terms = {}
    for (i, _), c in pres.f.terms.items():
        denom = Scalar.z_power(spec.d) - Scalar.z_power(spec.n1 * i)
        if not denom:
            raise ParameterError("not conformal at degree %d" % i)
        terms[(i, 0)] = c / denom
    return BiPoly(terms)


@lru_cache(maxsize=None)
def gwa_algebra(pres):
    """The weighted normal form determined by the presentation."""
    return GwaAlgebra(pres.spec, solve_conformal(pres))


def translate_to_gwa(pres, text):
    """Normal form of a d, u, h expression: d -> x, u -> y, h -> h."""
    from .expressions import parse_element
    return parse_element(text, gwa_algebra(pres), "du")


def relation_residues(pres):
    """The three defining relations, normalized; all zero iff the
    translation respects the presentation."""
    algebra = gwa_algebra(pres)
    spec = pres.spec
    x, y = basis_word(1), basis_word(-1)
    h = from_poly(BiPoly.var_h())
    r, s = spec.r, spec.s
    mul = lambda a, b: gwa_mul(algebra, a, b)
    return {
        "dh - r*hd": mul(x, h) - mul(h, x) * r,
        "hu - r*uh": mul(h, y) - mul(y, h) * r,
        "du - s*ud + f(h)": mul(x, y) - mul(y, x) * s + from_poly(pres.f),
    }


def conformal_residue(pres, g):
    """f(X) - (s*g(X) - g(r*X)); zero exactly when g solves it."""
    spec = pres.spec
    sg = g * Scalar.z_power(spec.d)
    return pres.f - (sg - apply_phi_power(spec, g, 1))


def witness_support_matches(pres, g):
    """Whether g has nonzero coefficients in exactly the degrees f has."""
    return pres.f.terms.keys() == g.terms.keys()
