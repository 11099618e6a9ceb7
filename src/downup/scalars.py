"""Exact scalars: rational functions of one transcendental quantity z.

Every coefficient in the library lives in this field.  The structure
constants of a down-up algebra are stored as integer powers of z,

    r = z^n1,    s = z^d,    mu^{-1} = z^n2,

so r is never a root of unity and questions such as "is s a power of r"
reduce to integer arithmetic on exponents.  No floating point anywhere:
a scalar is a quotient of coprime polynomials in Z[z], and products and
sums reduce it by gcds of cross pairs only (Henrici, JACM 3, 1956).
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from fractions import Fraction

# the degree past which a dense pair is refused before the gcd, which holds
# each map as one integer of k*degree bits (compare MAX_INDEX_SET)
MAX_GCD_DEGREE = 100_000


class ParameterError(ValueError):
    """Parameter data that violates a standing assumption."""


# ---------------------------------------------------------------------------
# sparse polynomials in z over the integers: exponent -> coefficient maps
# that never hold a zero, kept by _accumulate

def _accumulate(out, key, c):
    # add c into the sparse map at key; a zero sum drops the key, so
    # zero coefficients are never stored
    v = out.get(key)
    v = c if v is None else v + c
    if v:
        out[key] = v
    else:
        out.pop(key, None)


def _padd(a, b):
    out = dict(a)
    for e, c in b.items():
        _accumulate(out, e, c)
    return out


def _pmul(a, b):
    # a one-term map is a shift and a scale of the other; {0: 1} hands the
    # other back shared
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        (i, c), = a.items()
        return b if a == _P_ONE else {e + i: v * c for e, v in b.items()}
    out = {}
    for i, ca in a.items():
        for j, cb in b.items():
            _accumulate(out, i + j, ca * cb)
    return out


_P_ONE = {0: 1}


def _primitive(p, shift=0):
    # p / z^shift as content * q: q with content 1 and a positive leading
    # coefficient, content an int of the sign of p's leading coefficient
    g = math.gcd(*p.values())
    if p[max(p)] < 0:
        g = -g
    return g, {e - shift: c // g for e, c in p.items()}


def _zdivmod(a, b):
    # (quotient, remainder) of a by b over Z, or None if a step is inexact
    top, lead = max(b), b[max(b)]
    rest = [(e - top, c) for e, c in b.items() if e != top]
    rem, quo = dict(a), {}
    for e in range(max(a), top - 1, -1):
        c = rem.pop(e, 0)
        if c:
            q, r = divmod(c, lead)
            if r:
                return None
            quo[e - top] = q
            for i, cb in rest:
                _accumulate(rem, e + i, -q * cb)
    return quo, rem


def _prs_gcd(f, g):
    # the gcd of two primitive integer maps with positive leading
    # coefficients, with both cofactors, by a primitive pseudo-remainder
    # sequence (Brown, JACM 18, 1971)
    a, b = (f, g) if max(f) >= max(g) else (g, f)
    while b:
        lead = b[max(b)] ** (max(a) - max(b) + 1)
        rem = _zdivmod({e: c * lead for e, c in a.items()}, b)[1]
        a, b = b, rem and _primitive(rem)[1]
    return a, _zdivmod(f, a)[0], _zdivmod(g, a)[0]


def _heu_bits(f, g):
    # the k of GCDHEU's first xi = 2^k, past 2 min(|f|, |g|) + 2
    return (2 * min(max(map(abs, f.values())), max(map(abs, g.values())))
            + 2).bit_length()


def _heu_value(p, k, shift):
    # the integer value of p / z^shift at xi = 2^k
    return sum(c << k * (e - shift) for e, c in p.items())


def _heu_gcd(f, g, a, b):
    # the gcd h of f/z^a and g/z^b, primitive with a positive lead, and the
    # cofactors f/h and g/h, by GCDHEU (Char, Geddes & Gonnet, J. Symb.
    # Comput. 7, 1989) on the maps as they are, contents kept: the integer
    # gcd of the values at xi = 2^k, read back as a map from its balanced
    # base-xi digits.  For xi >= 2 min(|f|, |g|) + 2 every common root lies
    # within the Cauchy bound 1 + norm < xi/2, so a candidate whose
    # primitive part divides both maps is the gcd, and a constant one (a
    # value gcd of 1 among them) proves the pair coprime.  A candidate has
    # a constant term, as xi/2 is past the lowest coefficient of the map of
    # smaller norm, so it divides f just when it divides f/z^a.  After 6
    # values of xi, fall back to the remainder sequence on primitive parts.
    k = _heu_bits(f, g)
    for _ in range(6):
        h = math.gcd(_heu_value(f, k, a), _heu_value(g, k, b))
        half, cand, e = 1 << (k - 1), {}, 0
        while h:
            c = ((h + half) & ((half << 1) - 1)) - half
            if c:
                cand[e] = c
            h, e = (h - c) >> k, e + 1
        cand = _primitive(cand)[1]
        if cand == _P_ONE:
            return cand, f, g
        cf = _zdivmod(f, cand)
        cg = cf and not cf[1] and _zdivmod(g, cand)
        if cg and not cg[1]:
            return cand, cf[0], cg[0]
        k += k // 4 + 2
    h = _prs_gcd(_primitive(f, a)[1], _primitive(g, b)[1])[0]
    return h, _zdivmod(f, h)[0], _zdivmod(g, h)[0]


def _check_degree(*spans):
    # refuse a gcd of two maps with two or more terms each when either
    # spans past MAX_GCD_DEGREE
    if max(spans) > MAX_GCD_DEGREE:
        raise ValueError("a polynomial gcd of degree %d is past the "
                         "limit of %d" % (max(spans), MAX_GCD_DEGREE))


def _zgcd(f, g):
    # the gcd in Z[z] of two nonzero integer maps, with a positive lead,
    # and both cofactors: c*z^t*h, for h the primitive gcd of the z-free
    # parts (1 when either is a monomial) and c the gcd of the contents,
    # read off the cofactors, whose contents are those of f and g; a gcd
    # with 1 is 1, and both maps come back as they are
    if f == _P_ONE or g == _P_ONE:
        return _P_ONE, f, g
    a, b = min(f), min(g)
    t, h = min(a, b), _P_ONE
    if len(f) > 1 and len(g) > 1:
        _check_degree(max(f) - a, max(g) - b)
        h, f, g = _heu_gcd(f, g, a, b)
    c = math.gcd(*f.values(), *g.values())
    if c == 1:
        return _shifted(h, t), _shifted(f, -t), _shifted(g, -t)
    return ({e + t: v * c for e, v in h.items()},
            {e - t: v // c for e, v in f.items()},
            {e - t: v // c for e, v in g.items()})


def _checked(poly):
    # a caller's map as a fresh map with no zero and no negative exponent,
    # holding integer exponents and exact coefficients only
    poly = {operator.index(e): c for e, c in poly.items()}
    if any(e < 0 for e in poly):
        raise ValueError("negative exponent %d" % min(poly))
    for c in poly.values():
        if not isinstance(c, (int, Fraction)):
            raise TypeError("not an exact coefficient: %r" % (c,))
    return {e: c for e, c in poly.items() if c}


def _signed_sum(parts):
    # join printed terms, folding a leading minus into " - "; no terms is 0
    if not parts:
        return "0"
    text = parts[0]
    for p in parts[1:]:
        text += (" - " + p[1:]) if p.startswith("-") else (" + " + p)
    return text


def _poly_text(cs, lead):
    # cs/lead in descending powers, omitted unit coefficients:
    # "2*z^3 - z + 1"
    parts = []
    for e in sorted(cs, reverse=True):
        c = Fraction(cs[e], lead)
        if e == 0:
            body = str(c)
        else:
            var = "z" if e == 1 else "z^%d" % e
            if c == 1:
                body = var
            elif c == -1:
                body = "-" + var
            else:
                body = "%s*%s" % (c, var)
        parts.append(body)
    return _signed_sum(parts)


class Scalar:
    """A rational function of z in lowest terms over Z[z].

    The value is num/den: maps from exponents to nonzero integers,
    coprime in Z[z], contents included, with a positive lead in den.
    This normal form makes == genuine field equality, so scalars can key
    dictionaries and witness exact identities.  Results share maps, so no
    map held by a Scalar is ever mutated, and num and den are never
    assigned after construction: == and hash read them as they are.
    fac caches den's factorization for downup.cyclotomic: True until it is
    looked for, and None when den has one term; == and hash never read it.
    """

    __slots__ = ("num", "den", "fac")

    def __init__(self, num, den=_P_ONE):
        num, den = _checked(num), _checked(den)
        if not den:
            raise ZeroDivisionError("zero divisor")
        m = math.lcm(*(c.denominator for p in (num, den) for c in p.values()))
        num, den = ({e: c.numerator * (m // c.denominator)
                     for e, c in p.items()} for p in (num, den))
        s = _new(*_zgcd(num, den)[1:]) if num else ZERO
        self.num, self.den, self.fac = s.num, s.den, len(s.den) > 1 or None

    @classmethod
    def from_rational(cls, q):
        if not isinstance(q, (int, Fraction)):
            raise TypeError("not an exact rational: %r" % (q,))
        q = Fraction(q)
        return _new({0: q.numerator} if q else {}, {0: q.denominator})

    @classmethod
    def z_power(cls, e):
        """z^e for any integer e; negative e lands in the denominator."""
        if e >= 0:
            return _new({e: 1}, _P_ONE)
        return _new(_P_ONE, {-e: 1})

    @classmethod
    def laurent(cls, terms):
        """The sum of c z^e over a nonempty map from integers e, negative
        ones included, to nonzero ints c.  Over z^(-low) for the lowest
        e < 0, the numerator has a constant term, so the pair is already
        coprime and nothing is reduced."""
        low = min(0, min(terms))
        return _new({e - low: c for e, c in terms.items()}, {-low: 1})

    def times_z(self, e):
        """self * z^e for any integer e, with no gcd.  As num and den are
        coprime, only a power of z can cancel: z^min(e, ord_z den) for
        e > 0, z^min(-e, ord_z num) for e < 0.  Leads and contents stay as
        they are (Henrici, JACM 3, 1956)."""
        n, d = self.num, self.den
        if not e or not n:
            return self
        # the lower of the orders of num*z^e and den, taken from both
        t = min(min(n) + e, min(d))
        s = Scalar.__new__(Scalar)
        s.num, s.den, f = _shifted(n, e - t), _shifted(d, -t), self.fac
        s.fac = (f[0], f[1] - t, f[2]) if type(f) is tuple else f
        return s

    # -- ring/field structure ------------------------------------------------

    def __add__(self, other):
        o = _as_scalar(other)
        if o is None:
            return NotImplemented
        # the cyclotomic layer takes a known factorization, or a gcd of two
        # dense maps where a denominator may factor; so in __mul__ and
        # __truediv__
        fb, fd = self.fac, o.fac
        if (fb or fd) and (self.den == o.den or len(self.den) > 1 < len(o.den)
                           or type(fb) is tuple or type(fd) is tuple):
            return _cyclotomic().add(self, o)
        a, b, c, d = self.num, self.den, o.num, o.den
        if b == d:
            # one denominator: only gcd(a + c, b) can cancel, none when b is 1
            t = _padd(a, c)
            if t and b != _P_ONE:
                _, t, b = _zgcd(t, b)
            return _new(t, b, len(b) > 1 or None)
        # Henrici: with g = gcd(b, d), t/(g*b'*d') can only cancel gcd(t, g)
        g, b, d = _zgcd(b, d)
        t = _padd(_pmul(a, d), _pmul(c, b))
        if not t:
            return ZERO
        _, t, g = _zgcd(t, g)
        return _new(t, d := _pmul(_pmul(g, b), d), len(d) > 1 or None)

    __radd__ = __add__

    def __neg__(self):
        return _new({e: -c for e, c in self.num.items()}, self.den, self.fac)

    def __sub__(self, other):
        o = _as_scalar(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = _as_scalar(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = _as_scalar(other)
        if o is None:
            return NotImplemented
        if len(self.num) == len(self.den) == 1:
            self, o = o, self
        if len(o.num) == len(o.den) == 1 and self.num:
            return _by_term(self, o.num, o.den)
        fb, fd = self.fac, o.fac
        if (fb or fd) and (len(self.num) > 1 < len(o.den)
                           or len(o.num) > 1 < len(self.den)
                           or type(fb) is tuple or type(fd) is tuple):
            return _cyclotomic().times(self, o.num, o.den, o)
        return _times(self.num, self.den, o.num, o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _as_scalar(other)
        if o is None:
            return NotImplemented
        if not o.num:
            raise ZeroDivisionError("zero divisor")
        fb = self.fac
        if len(self.num) > 1 < len(o.num) or fb and (
                len(o.den) > 1 or type(fb) is tuple):
            return _cyclotomic().times(self, o.den, o.num)
        return _times(self.num, self.den, o.den, o.num)

    def __rtruediv__(self, other):
        o = _as_scalar(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        base = self.inverse() if e < 0 else self
        out = ONE
        for _ in range(abs(e)):
            out = out * base
        return out

    def inverse(self):
        if not self.num:
            raise ZeroDivisionError("zero divisor")
        return _new(self.den, self.num, len(self.num) > 1 or None)

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        o = _as_scalar(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((frozenset(self.num.items()), frozenset(self.den.items())))

    def __str__(self):
        # printed over a monic denominator
        lead = self.den[max(self.den)]
        if self.den.keys() == {0}:
            return _poly_text(self.num, lead)
        return "%s/%s" % tuple("(%s)" % _poly_text(p, lead) if len(p) > 1
                               else _poly_text(p, lead)
                               for p in (self.num, self.den))

    def __repr__(self):
        return "Scalar(%s)" % self

    def needs_parens(self):
        # true when embedding the printed form in a product would re-associate
        return self.den.keys() == {0} and len(self.num) > 1


def _new(n, d, fac=None):
    # the scalar n/d from maps coprime in Z[z], fac as Scalar keeps it: both
    # signs flip when d's leading coefficient is negative, and zero is
    # stored as {}/1
    s = Scalar.__new__(Scalar)
    if not n:
        d, fac = _P_ONE, None
    elif d[max(d)] < 0:
        n, d = ({e: -c for e, c in p.items()} for p in (n, d))
    s.num, s.den, s.fac = n, d, fac
    return s


def _shifted(p, k):
    # the map of p * z^k, sharing p when k is 0
    return {e + k: c for e, c in p.items()} if k else p


def _times(a, b, c, d):
    # (a/b)*(c/d) from two quotients in lowest terms: by Henrici only
    # gcd(a, d) and gcd(c, b) can cancel
    if not a or not c:
        return ZERO
    _, a, d = _zgcd(a, d)
    _, c, b = _zgcd(c, b)
    return _new(_pmul(a, c), d := _pmul(b, d), len(d) > 1 or None)


def _by_term(s, n, d):
    # s*(n/d) for a nonzero s, n = p*z^i and d = q*z^j: by Henrici only
    # gcd(p, content of s.den), gcd(q, content of s.num) and z^t, t the
    # lower of i and ord_z s.den or of j and ord_z s.num, can cancel, so
    # den keeps a positive lead and s.fac carries over rescaled
    a, b, fac = s.num, s.den, s.fac
    ((i, p),), ((j, q),) = n.items(), d.items()
    g = math.gcd(q, *a.values()) if q != 1 else 1
    h = math.gcd(p, *b.values()) if b != _P_ONE else 1
    t = min(i, min(b)) if i else min(j, min(a)) if j else 0
    p, q, r = p // h, q // g, Scalar.__new__(Scalar)
    if type(fac) is tuple:
        fac = (fac[0] // h * q, fac[1] + j - t, fac[2])
    r.num, r.den, r.fac = {e + i - t: v // g * p for e, v in a.items()}, (
        b if b == d == _P_ONE else
        {e + j - t: v // h * q for e, v in b.items()}), fac
    return r


_LAYER = None


def _cyclotomic():
    # downup.cyclotomic, imported on the first sum or product it serves, so
    # that a set-up that meets no dense gcd never compiles it
    global _LAYER
    if _LAYER is None:
        from . import cyclotomic as _LAYER
    return _LAYER


ZERO = _new({}, _P_ONE)
ONE = _new(_P_ONE, _P_ONE)


def _as_scalar(x):
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return Scalar.from_rational(x)
    return None


def _to_scalar(x):
    # a caller's coefficient: exact values only, anything else is refused
    c = _as_scalar(x)
    if c is None:
        raise TypeError("not an exact coefficient: %r" % (x,))
    return c


def _times_text(c, body):
    # one printed term: c alone, body, -body or c*body; c prints in
    # parentheses when the product would re-associate it
    if not body:
        return str(c)
    if c == ONE:
        return body
    if c == -ONE:
        return "-" + body
    text = str(c)
    return ("(%s)" % text if c.needs_parens() else text) + "*" + body


# ---------------------------------------------------------------------------
# parameters

class ParamSpec(namedtuple("ParamSpec", "d n1 n2")):
    """Exponent data (d, n1, n2) pinning r = z^n1, s = z^d, mu^{-1} = z^n2.

    The exponent vector b = (n1/d, n2/d) records how the two structure
    constants and the coarseness sit on the common lattice.
    """

    __slots__ = ()

    @property
    def b1(self):
        return Fraction(self.n1, self.d)

    @property
    def b2(self):
        return Fraction(self.n2, self.d)

    @property
    def r(self):
        return Scalar.z_power(self.n1)

    @property
    def s(self):
        return Scalar.z_power(self.d)

    @property
    def mu_inv(self):
        return Scalar.z_power(self.n2)

    @property
    def mu(self):
        return Scalar.z_power(-self.n2)


def validate_exponents(d, n1, n2):
    """Check d >= 1, b1 != 0 and mu != 1, all that the index sets need,
    and return the three exponents as integers."""
    d, n1, n2 = map(operator.index, (d, n1, n2))
    if d < 1:
        raise ParameterError("d must be a positive integer")
    if n1 == 0:
        raise ParameterError("b1 zero")
    if n2 == 0:
        raise ParameterError("mu equals one")
    return d, n1, n2


def validate_param_spec(d, n1, n2):
    """Check the standing assumptions and return the ParamSpec.

    Rejections name the violated assumption: s must not be a positive
    power of r (b1 not a reciprocal of a positive integer), mu must not
    be 1, and b1 must not vanish.
    """
    d, n1, n2 = validate_exponents(d, n1, n2)
    if n1 > 0 and d % n1 == 0:
        raise ParameterError(
            "b1 is a reciprocal integer (s = r^%d)" % (d // n1))
    return ParamSpec(d, n1, n2)
