"""Exact scalars: rational functions of one transcendental quantity z.

Every coefficient in the library lives in this field.  The structure
constants of a down-up algebra are stored as integer powers of z,

    r = z^n1,    s = z^d,    mu^{-1} = z^n2,

so r is never a root of unity and questions such as "is s a power of r"
reduce to integer arithmetic on exponents.  No floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class ParameterError(ValueError):
    """Parameter data that violates a standing assumption."""


# ---------------------------------------------------------------------------
# dense polynomials in z over the rationals: tuples, index = exponent,
# no trailing zeros

def _trim(cs):
    n = len(cs)
    while n and not cs[n - 1]:
        n -= 1
    return tuple(cs[:n])


def _padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = out[i] + c
    return _trim(out)


def _pneg(a):
    return tuple(-c for c in a)


def _pmul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if not ca:
            continue
        for j, cb in enumerate(b):
            if cb:
                out[i + j] = out[i + j] + ca * cb
    return _trim(out)


def _pdivmod(a, b):
    # long division over the rationals; b must be nonzero
    if not b:
        raise ZeroDivisionError("zero divisor")
    rem = list(a)
    if len(a) < len(b):
        return (), _trim(rem)
    lead = b[-1]
    quo = [0] * (len(a) - len(b) + 1)
    for shift in range(len(a) - len(b), -1, -1):
        c = Fraction(rem[shift + len(b) - 1]) / lead
        if c:
            quo[shift] = c
            for i, cb in enumerate(b):
                if cb:
                    rem[shift + i] = rem[shift + i] - c * cb
    return _trim(quo), _trim(rem)


def _pgcd(a, b):
    while b:
        a, b = b, _pdivmod(a, b)[1]
    if not a:
        return ()
    lc = a[-1]
    if lc != 1:
        a = tuple(Fraction(c) / lc for c in a)
    return a


_P_ONE = (Fraction(1),)


def _signed_sum(parts):
    # join printed terms, folding a leading minus into " - "; no terms is 0
    if not parts:
        return "0"
    text = parts[0]
    for p in parts[1:]:
        text += (" - " + p[1:]) if p.startswith("-") else (" + " + p)
    return text


def _poly_text(cs):
    # descending powers, omitted unit coefficients: "2*z^3 - z + 1"
    parts = []
    for e in range(len(cs) - 1, -1, -1):
        c = cs[e]
        if not c:
            continue
        c = Fraction(c)
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


def _nterms(cs):
    return sum(1 for c in cs if c)


def _accumulate(out, key, c):
    # add c into the sparse map at key; a zero sum drops the key, so
    # zero coefficients are never stored
    v = out.get(key)
    v = c if v is None else v + c
    if v:
        out[key] = v
    else:
        out.pop(key, None)


class Scalar:
    """A rational function of z in lowest terms with monic denominator.

    The normal form makes == genuine field equality, so scalars can key
    dictionaries and witness exact identities.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=_P_ONE):
        num = _trim(num)
        den = _trim(den)
        if not den:
            raise ZeroDivisionError("zero divisor")
        if not num:
            den = _P_ONE
        elif den == _P_ONE:
            pass
        elif _nterms(den) == 1:
            # monomial denominator: the gcd is a bare power of z
            val = 0
            while not num[val]:
                val += 1
            t = min(len(den) - 1, val)
            lc = den[-1]
            num = num[t:] if lc == 1 else tuple(Fraction(c) / lc for c in num[t:])
            den = (0,) * (len(den) - 1 - t) + (Fraction(1),)
        else:
            g = _pgcd(num, den)
            if len(g) > 1:
                num = _pdivmod(num, g)[0]
                den = _pdivmod(den, g)[0]
            lc = den[-1]
            if lc != 1:
                num = tuple(Fraction(c) / lc for c in num)
                den = tuple(Fraction(c) / lc for c in den)
        self.num = num
        self.den = den

    @classmethod
    def from_rational(cls, q):
        q = Fraction(q)
        return cls((q,) if q else ())

    @classmethod
    def z_power(cls, e):
        """z^e for any integer e; negative e lands in the denominator."""
        if e >= 0:
            return cls((0,) * e + (1,))
        return cls(_P_ONE, (0,) * (-e) + (1,))

    # -- ring/field structure ------------------------------------------------

    def __add__(self, other):
        o = _as_scalar(other)
        if o is None:
            return NotImplemented
        if self.den == _P_ONE and o.den == _P_ONE:
            return Scalar(_padd(self.num, o.num))
        num = _padd(_pmul(self.num, o.den), _pmul(o.num, self.den))
        return Scalar(num, _pmul(self.den, o.den))

    __radd__ = __add__

    def __neg__(self):
        s = Scalar.__new__(Scalar)
        s.num = _pneg(self.num)
        s.den = self.den
        return s

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
        return Scalar(_pmul(self.num, o.num), _pmul(self.den, o.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _as_scalar(other)
        if o is None:
            return NotImplemented
        if not o.num:
            raise ZeroDivisionError("zero divisor")
        return Scalar(_pmul(self.num, o.den), _pmul(self.den, o.num))

    def __rtruediv__(self, other):
        o = _as_scalar(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        if e == 0:
            return Scalar(_P_ONE)
        base = self
        if e < 0:
            if not self.num:
                raise ZeroDivisionError("zero divisor")
            base = Scalar(self.den, self.num)
            e = -e
        out = base
        for _ in range(e - 1):
            out = out * base
        return out

    def inverse(self):
        if not self.num:
            raise ZeroDivisionError("zero divisor")
        return Scalar(self.den, self.num)

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        o = _as_scalar(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self):
        if self.den == _P_ONE:
            return _poly_text(self.num)
        num = _poly_text(self.num)
        if _nterms(self.num) > 1:
            num = "(" + num + ")"
        den = _poly_text(self.den)
        if _nterms(self.den) > 1:
            den = "(" + den + ")"
        return "%s/%s" % (num, den)

    def __repr__(self):
        return "Scalar(%s)" % self

    def needs_parens(self):
        # true when embedding the printed form in a product would re-associate
        return self.den == _P_ONE and _nterms(self.num) > 1


ZERO = Scalar(())
ONE = Scalar(_P_ONE)


def _as_scalar(x):
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return Scalar.from_rational(x)
    return None


# ---------------------------------------------------------------------------
# parameters

@dataclass(frozen=True)
class ParamSpec:
    """Exponent data (d, n1, n2) pinning r = z^n1, s = z^d, mu^{-1} = z^n2.

    The exponent vector b = (n1/d, n2/d) records how the two structure
    constants and the coarseness sit on the common lattice.
    """

    d: int
    n1: int
    n2: int

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
    d, n1, n2 = int(d), int(n1), int(n2)
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
