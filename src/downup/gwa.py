"""The weighted normal form of a down-up algebra: a generalized Weyl algebra.

Elements are finite sums  sum_w  p_w(h, k) * v_w  with p_w a BiPoly and

    v_w = x^w  (w > 0),    v_0 = 1,    v_w = y^(-w)  (w < 0).

The defining data are x*y = phi(a), y*x = a for the distinguished
polynomial a = k + g(h), together with x*p = phi(p)*x and y*p =
phi^{-1}(p)*y, where phi scales h by r and k by s.  As r, s and mu are
powers of z, phi and sigma_mu multiply each coefficient by a power of z,
which shifts its exponents with no gcd.  Same-sign basis words multiply
freely; an opposite-sign pair is reduced one adjacent x,y pair at a time,
so every answer is a chain of the two defining rewrites.
"""

from __future__ import annotations

import operator

from .bipoly import BiPoly, _Sparse, apply_phi_power
from .scalars import _accumulate, _signed_sum, _times_text

# the most adjacent x,y pairs one opposite-sign word product may cancel: its
# coefficient is a chain of that many powers of phi, and the printed answer
# grows about as its cube (mul "x^100" "y^100" prints 4.7 MB)
MAX_WORD_PAIRS = 100


class GwaElement(_Sparse):
    """A finite sum of p_w * v_w, keyed by the weight w."""

    __slots__ = ()

    def __init__(self, components=None):
        clean = {}
        if components:
            for w, p in components.items():
                p = p if isinstance(p, BiPoly) else BiPoly.const(p)
                if p:
                    clean[operator.index(w)] = p
        self.terms = clean

    @classmethod
    def _coerce(cls, x):
        if isinstance(x, GwaElement):
            return x
        p = BiPoly._coerce(x)
        return None if p is None else from_poly(p)

    @property
    def components(self):
        return self.terms

    def weights(self):
        return sorted(self.terms)

    def is_poly(self):
        return set(self.terms) <= {0}

    def as_poly(self):
        if not self.is_poly():
            raise ValueError("element has nonzero weights")
        return self.terms.get(0, BiPoly())

    # scaling only; products of elements go through gwa_mul(A, u, v)
    __mul__ = __rmul__ = _Sparse._scale

    def __str__(self):
        return _signed_sum([_times_text(self.terms[w], _word_text(w))
                            for w in self.weights()])


def _word_text(w):
    if w == 0:
        return ""
    if w > 0:
        return "x" if w == 1 else "x^%d" % w
    return "y" if w == -1 else "y^%d" % (-w)


class GwaAlgebra:
    """Parameters, the distinguished polynomial a = k + g(h), and the
    word-product coefficients built so far (``words``, see
    _word_coefficient)."""

    __slots__ = ("spec", "g", "a", "phi_a", "words")

    def __init__(self, spec, g):
        if not g.is_h_only():
            raise ValueError("g must depend on h only")
        self.spec = spec
        self.g = g
        self.a = BiPoly.var_k() + g
        self.phi_a = apply_phi_power(spec, self.a, 1)
        self.words = {}

    def __repr__(self):
        return "GwaAlgebra(d=%d, n1=%d, n2=%d, g=%s)" % (
            self.spec.d, self.spec.n1, self.spec.n2, self.g)


def basis_word(w):
    """The basis word v_w as an element (v_0 = 1)."""
    return GwaElement._raw({operator.index(w): BiPoly.one()})


def from_poly(p):
    """Embed a polynomial as the weight-zero component."""
    return GwaElement._raw({0: p}) if p else GwaElement()


def _word_coefficient(A, m, n):
    """The coefficient c of v_m * v_n = c v_{m+n} for m, n of opposite
    signs, reduced one rewrite at a time.

    Each rewrite eliminates the innermost adjacent x,y pair via x*y ->
    phi(a) or y*x -> a and commutes the result leftward, which costs one
    power of phi.  The coefficient depends only on m and the number t of
    cancelled pairs, so the algebra keeps it under (m, t) once built.
    """
    key = (m, min(abs(m), abs(n)))
    coeff = A.words.get(key)
    if coeff is None:
        if key[1] > MAX_WORD_PAIRS:
            raise ValueError("a word product cancelling %d x,y pairs is past "
                             "the limit of %d" % (key[1], MAX_WORD_PAIRS))
        # x^m y^..  ->  phi^m(a) x^(m-1) y^..   and
        # y^-m x^..  ->  phi^(m+1)(a) y^(-m-1) x^..,  then the next pair
        coeff = BiPoly.one()
        for j in range(key[1]):
            e = m - j if m > 0 else m + 1 + j
            coeff = coeff * apply_phi_power(A.spec, A.a, e)
        A.words[key] = coeff
    return coeff


def gwa_mul(A, u, v):
    """Product in the algebra.

    Polynomials pass through the basis word on their left by phi:
    (p v_m)(q v_n) = p phi^m(q) (v_m v_n), where v_m v_n = v_{m+n} when
    m*n >= 0 and picks up _word_coefficient otherwise.
    """
    out = {}
    for m, p in u.terms.items():
        for n, q in v.terms.items():
            term = p * apply_phi_power(A.spec, q, m)
            if m * n < 0:
                term = term * _word_coefficient(A, m, n)
            _accumulate(out, m + n, term)
    return GwaElement._raw(out)


def apply_sigma_mu(A, u, power=1):
    """The degree automorphism: weight-w components scale by mu^(-w),
    that is z^(n2*w), a shift of each coefficient's exponents.

    power = -1 applies the inverse (coarseness mu^{-1}); general integer
    powers compose the closed form.
    """
    n2 = A.spec.n2 * operator.index(power)
    return GwaElement._raw({
        w: BiPoly._raw({key: c.times_z(n2 * w) for key, c in p.terms.items()})
        for w, p in u.terms.items()})
