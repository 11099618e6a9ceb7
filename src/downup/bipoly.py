"""Sparse polynomials in the commuting pair h, k over the scalar field.

Terms are keyed by exponent pairs (i, j).  The linear structure lives in
_Sparse, the one finite-sum type, which GwaElement shares.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .scalars import (ONE, ZERO, _accumulate, _as_scalar, _padd, _signed_sum,
                      _times_text, _to_scalar)


class _Sparse:
    """A finite sum: a map from keys to coefficients that never holds a
    zero, so == is dict equality.  Subclasses give the keys a meaning and
    supply _coerce, which makes an operand a sum of the same kind or None."""

    __slots__ = ("terms",)

    @classmethod
    def _raw(cls, terms):
        # arithmetic's constructor: the map already holds no zero
        s = cls.__new__(cls)
        s.terms = terms
        return s

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._raw(_padd(self.terms, o.terms))

    __radd__ = __add__

    def __neg__(self):
        return self._raw({key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def _scale(self, other):
        c = _as_scalar(other)
        if c is None:
            return NotImplemented
        if not c:
            return self._raw({})
        return self._raw({key: v * c for key, v in self.terms.items()})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, self)


class BiPoly(_Sparse):
    __slots__ = ()

    def __init__(self, terms=None):
        clean = {}
        for (i, j), c in (terms or {}).items():
            i, j = operator.index(i), operator.index(j)
            if i < 0 or j < 0:
                raise ValueError("negative exponent (%d, %d)" % (i, j))
            _accumulate(clean, (i, j), _to_scalar(c))
        self.terms = clean

    @classmethod
    def _coerce(cls, x):
        if isinstance(x, BiPoly):
            return x
        c = _as_scalar(x)
        return None if c is None else cls.const(c)

    @classmethod
    def one(cls):
        return cls({(0, 0): ONE})

    @classmethod
    def const(cls, c):
        return cls({(0, 0): c})

    @classmethod
    def monomial(cls, i, j, c=1):
        return cls({(i, j): c})

    @classmethod
    def var_h(cls, e=1):
        return cls({(e, 0): ONE})

    @classmethod
    def var_k(cls, e=1):
        return cls({(0, e): ONE})

    def degree_k(self):
        return max((j for _, j in self.terms), default=-1)

    def is_h_only(self):
        return all(j == 0 for _, j in self.terms)

    def is_const(self):
        return not self.terms or set(self.terms) == {(0, 0)}

    def const_value(self):
        if not self.is_const():
            raise ValueError("not a scalar polynomial")
        return self.terms.get((0, 0), ZERO)

    def needs_parens(self):
        # true when embedding the printed form in a product would re-associate
        return len(self.terms) > 1 or self.terms.get((0, 0), ONE).needs_parens()

    # -- arithmetic -----------------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, BiPoly):
            return self._scale(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:
            # a one-term side shifts the other's keys and scales its terms
            ((i, j), c), = a.items()
            return BiPoly._raw({(i + x, j + y): c * v
                                for (x, y), v in b.items()})
        out = {}
        for (i1, j1), c1 in a.items():
            for (i2, j2), c2 in b.items():
                _accumulate(out, (i1 + i2, j1 + j2), c1 * c2)
        return BiPoly._raw(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        c = _as_scalar(other)
        if c is None:
            return NotImplemented
        return self * c.inverse()

    def __pow__(self, e):
        if not isinstance(e, int) or e < 0:
            return NotImplemented
        out = BiPoly.one()
        for _ in range(e):
            out = out * self
        return out

    def __str__(self):
        return _signed_sum([_times_text(c, _monomial_text(i, j))
                            for (i, j), c in sorted(self.terms.items())])


def _monomial_text(i, j):
    vars_ = []
    if i:
        vars_.append("h" if i == 1 else "h^%d" % i)
    if j:
        vars_.append("k" if j == 1 else "k^%d" % j)
    return "*".join(vars_)


def apply_phi_power(spec, p, w):
    """The scaling automorphism applied w times: h -> r^w h, k -> s^w k.

    Closed form: the coefficient at (i, j) picks up z^(w*(n1*i + d*j)),
    a shift of its exponents with no gcd (Scalar.times_z).  Negative w
    inverts exactly; w = 0 is the identity.
    """
    w = operator.index(w)
    if w == 0:
        return p
    return BiPoly._raw({
        (i, j): c.times_z(phi_exponent(spec, i, j, w))
        for (i, j), c in p.terms.items()})


def phi_exponent(spec, i, j, w=1):
    """The power of z by which phi^w scales h^i k^j: w (n1 i + d j)."""
    return w * (spec.n1 * i + spec.d * j)


def diff_h(p):
    """Formal derivative with respect to h."""
    out = {}
    for (i, j), c in p.terms.items():
        if i:
            out[(i - 1, j)] = c * Fraction(i)
    return BiPoly._raw(out)


def exact_divide_by_a(p, g):
    """Divide p by k + g(h) exactly; None when the division leaves a remainder.

    g must involve h only, so the divisor is monic of degree 1 in k and
    the quotient is computed by peeling the top k-degree.
    """
    if not g.is_h_only():
        raise ValueError("divisor polynomial must depend on h only")
    quo = BiPoly()
    rem = p
    while True:
        m = rem.degree_k()
        if m < 1:
            break
        lead = BiPoly._raw({(i, m - 1): c for (i, j), c in rem.terms.items()
                            if j == m})
        quo = quo + lead
        # lead*k cancels the whole top layer; lead*g refills one layer down
        rem = rem - lead * (BiPoly.var_k() + g)
    if rem:
        return None
    return quo
