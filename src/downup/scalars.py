"""Exact scalars: rational functions of one transcendental quantity z.

Every coefficient in the library lives in this field.  The structure
constants of a down-up algebra are stored as integer powers of z,

    r = z^n1,    s = z^d,    mu^{-1} = z^n2,

so r is never a root of unity and questions such as "is s a power of r"
reduce to integer arithmetic on exponents.  No floating point anywhere:
a scalar is a quotient of coprime polynomials in Z[z], its denominator
factored as c*z^t*prod Phi_m^e*R from birth, and products and sums reduce
it by gcds of cross pairs only (Henrici, JACM 3, 1956).
"""

from __future__ import annotations

import functools
import math
import operator
from collections import namedtuple
from fractions import Fraction

# the degree past which a dense pair is refused before the gcd, which holds
# each map as one integer of k*degree bits (compare MAX_INDEX_SET)
MAX_GCD_DEGREE = 100_000

# the degree past which a denominator is not split, so that the orders m
# of the Phi_m the gcds build and test stay at most 6 times it: the largest
# degree up to which sums and products over z^n - 1 denominators ran no
# slower factored than by GCDHEU (1.4 to 1.6 times slower at n = 84 and 90)
MAX_SPLIT_DEGREE = 72


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
    # read off the cofactors, whose contents are those of f and g, and h by
    # downup.cyclotomic's GCDHEU; a gcd with 1 is 1, and both maps come
    # back as they are
    if f == _P_ONE or g == _P_ONE:
        return _P_ONE, f, g
    a, b = min(f), min(g)
    t, h = min(a, b), _P_ONE
    if len(f) > 1 and len(g) > 1:
        _check_degree(max(f) - a, max(g) - b)
        h, f, g = _cyclotomic()._heu_gcd(f, g, a, b)
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
    fac is den's factorization (c, t, ms, R), set when the scalar is born:
    den = c*z^t*prod Phi_m^e*R over the (m, e) pairs ms, sorted by m, with
    R the primitive z-free residual, {0: 1} when den splits; == and hash
    never read it.
    """

    __slots__ = ("num", "den", "fac")

    def __init__(self, num, den=_P_ONE):
        num, den = _checked(num), _checked(den)
        if not den:
            raise ZeroDivisionError("zero divisor")
        m = math.lcm(*(c.denominator for p in (num, den) for c in p.values()))
        num, den = ({e: c.numerator * (m // c.denominator)
                     for e, c in p.items()} for p in (num, den))
        s = _new(num, _P_ONE) * _new(_P_ONE, den)
        self.num, self.den, self.fac = s.num, s.den, s.fac

    @classmethod
    def from_rational(cls, q):
        if not isinstance(q, (int, Fraction)):
            raise TypeError("not an exact rational: %r" % (q,))
        q = Fraction(q)
        return _new({0: q.numerator} if q else {}, {0: q.denominator},
                    (q.denominator, 0, (), _P_ONE))

    @classmethod
    def z_power(cls, e):
        """z^e for any integer e; negative e lands in the denominator."""
        if e >= 0:
            return _new({e: 1}, _P_ONE, _UNIT)
        return _new(_P_ONE, {-e: 1}, (1, -e, (), _P_ONE))

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
        (c, u, ms, r), s = self.fac, Scalar.__new__(Scalar)
        s.num, s.den, s.fac = _shifted(n, e - t), _shifted(d, -t), (
            c, u - t, ms, r)
        return s

    # -- ring/field structure ------------------------------------------------

    def __add__(self, other):
        # by Henrici, over one denominator only gcd(a + c, b) can cancel;
        # else, with g = gcd(b, d), t/(g*b'*d') can only cancel gcd(t, g).
        # g is the min of the two factorizations when both split, else the
        # exact gcd of b and d, as a min would miss a Phi_m inside R
        o = _as_scalar(other)
        if o is None:
            return NotImplemented
        a, b, c, d = self.num, self.den, o.num, o.den
        x, y = self.fac, o.fac
        if b == d:
            t = _padd(a, c)
            return _made(*_cancel(t, x, b)) if t else ZERO
        if x[3] == y[3] == _P_ONE:
            if len(b) > 1 < len(d):
                _check_degree(max(b) - min(b), max(d) - min(d))
            g = (math.gcd(x[0], y[0]), min(x[1], y[1]),
                 _vec(min, x[2], y[2]), _P_ONE)
            x, y = ((v[0] // g[0], v[1] - g[1], _vec(operator.sub, v[2], g[2]),
                     _P_ONE) for v in (x, y))
        else:
            g, x, y = map(_factored, _zgcd(b, d))
        t = _padd(_pmul(a, _expand(y)), _pmul(c, _expand(x)))
        if not t:
            return ZERO
        # g spans no more than b and d, checked above
        t, g = _cancel(t, g, None)
        return _made(t, _fmul(_fmul(g, x), y))

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
        # by Henrici only gcd(a, d) and gcd(c, b) can cancel
        o = _as_scalar(other)
        if o is None:
            return NotImplemented
        if len(self.num) == len(self.den) == 1:
            self, o = o, self
        a, b, c, d = self.num, self.den, o.num, o.den
        if not a or not c:
            return ZERO
        if len(c) == len(d) == 1:
            return _by_term(self, c, d)
        (a, y), (c, x) = _cancel(a, o.fac, d), _cancel(c, self.fac, b)
        return _made(_pmul(a, c), _fmul(x, y))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _as_scalar(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = _as_scalar(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        return _pow(self.inverse() if e < 0 else self, abs(e), ONE)

    def inverse(self):
        if not self.num:
            raise ZeroDivisionError("zero divisor")
        return _new(self.den, self.num)

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


def _pow(x, e, one, mul=operator.mul):
    # x^e for an int e >= 0 by squaring: about 2 log2(e) products
    out = one
    while e:
        if e & 1:
            out = mul(out, x)
        e >>= 1
        x = mul(x, x) if e else x
    return out


def _new(n, d, fac=None):
    # the scalar n/d from maps coprime in Z[z], fac the factorization of d,
    # found from d when not given: both signs flip when d's leading
    # coefficient is negative, and zero is stored as {}/1
    s = Scalar.__new__(Scalar)
    if not n:
        d, fac = _P_ONE, _UNIT
    elif d[max(d)] < 0:
        n, d = ({e: -c for e, c in p.items()} for p in (n, d))
    s.num, s.den, s.fac = n, d, fac or _factored(d)
    return s


def _shifted(p, k):
    # the map of p * z^k, sharing p when k is 0
    return {e + k: c for e, c in p.items()} if k else p


def _factored(d):
    # d, with a positive lead, as (c, t, ms, R): c its content, t its
    # z-order and R its primitive z-free part unless that splits.  A
    # binomial z^n - 1 is the product of the Phi_m over the m dividing n;
    # another monic part with a constant term of -+1 is split by
    # downup.cyclotomic, up to degree MAX_SPLIT_DEGREE
    if len(d) == 1:
        (t, c), = d.items()
        return c, t, (), _P_ONE
    t, c = min(d), math.gcd(*d.values())
    r = {e - t: v // c for e, v in d.items()} if c != 1 or t else d
    n = max(r)
    ms = n <= MAX_SPLIT_DEGREE and r[n] == abs(r[0]) == 1 and (
        tuple((m, 1) for m in range(1, n + 1) if n % m == 0)
        if r == {n: 1, 0: -1} else _cyclotomic()._split(frozenset(r.items())))
    return (c, t, ms, _P_ONE) if ms else (c, t, (), r)


@functools.lru_cache(maxsize=4096)
def _vec(op, x, y):
    # op (add, sub or min) on two exponent vectors of (m, e) pairs
    a, b = dict(x), dict(y)
    return tuple((m, e) for m in sorted({*a, *b})
                 if (e := op(a.get(m, 0), b.get(m, 0))) > 0)


def _fmul(x, y):
    # the factorization of a product of two denominators
    return (x[0] * y[0], x[1] + y[1], _vec(operator.add, x[2], y[2]),
            _pmul(x[3], y[3]))


def _expand(fac):
    # the map of the denominator of factorization fac, prod Phi_m^e from
    # downup.cyclotomic's memo
    c, t, ms, r = fac
    p = _pmul(_cyclotomic()._product(ms), r) if ms else r
    return {e + t: v * c for e, v in p.items()} if c != 1 or t else p


def _cancel(f, fac, g):
    # f over its gcd h with the denominator g of factorization fac, and the
    # factorization of g/h: the content gcd, the lower z-order, then one
    # Phi_m | f test per factor (cyclotomic._cut) and a gcd with R unless R
    # is 1.  That is the gcd whatever R holds, by unique factorization.  g
    # is None for a denominator whose span was checked already
    c, t, ms, r = fac
    k, s = math.gcd(c, *f.values()) if c != 1 else 1, t and min(min(f), t)
    if k > 1 or s:
        f, c, t = {e - s: v // k for e, v in f.items()}, c // k, t - s
    if len(f) > 1 and ms:
        _check_degree(max(f) - min(f), max(g) - min(g) if g else 0)
        f, ms = _cyclotomic()._cut(f, ms)
    if len(f) > 1 and r != _P_ONE:
        _, f, r = _zgcd(f, r)
    return f, (c, t, ms, r)


def _made(n, fac):
    # the scalar n over the denominator of factorization fac
    return _new(n, _expand(fac), fac)


def _by_term(s, n, d):
    # s*(n/d) for a nonzero s, n = p*z^i and d = q*z^j: by Henrici only
    # gcd(p, content of s.den), gcd(q, content of s.num) and z^t, t the
    # lower of i and ord_z s.den or of j and ord_z s.num, can cancel, so
    # den keeps a positive lead and s.fac carries over rescaled
    a, b, f = s.num, s.den, s.fac
    ((i, p),), ((j, q),) = n.items(), d.items()
    g = math.gcd(q, *a.values()) if q != 1 else 1
    h = math.gcd(p, *b.values()) if b != _P_ONE else 1
    t = min(i, min(b)) if i else min(j, min(a)) if j else 0
    p, q, o = p // h, q // g, Scalar.__new__(Scalar)
    o.num = {e + i - t: v // g * p for e, v in a.items()}
    o.den, o.fac = (b, f) if b == d == _P_ONE else (
        {e + j - t: v // h * q for e, v in b.items()},
        (f[0] // h * q, f[1] + j - t, f[2], f[3]))
    return o


_LAYER = None


def _cyclotomic():
    # downup.cyclotomic, imported on the first Phi_m test, expansion or
    # split it serves, so that a set-up that meets none never compiles it
    global _LAYER
    if _LAYER is None:
        from . import cyclotomic as _LAYER
    return _LAYER


_UNIT = (1, 0, (), _P_ONE)
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
