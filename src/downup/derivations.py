"""Skew derivations of the weighted algebra, twisted by the degree
automorphism sigma_mu.

Two elementary families:

  * weight 0 ("c-type"): vanishes on the polynomial part, sends x to
    c0(h,k)*x and y to -mu*c0(h/r, k/s)*y, for an arbitrary c0;
  * weight w != 0 ("alpha-type"): determined by a twisted derivation
    alpha_w of the polynomial part whose values on h and k are drawn
    from the two index-set families, with x or y (by the sign of w)
    sent to zero.

The coupling of an alpha-type table makes h divide alpha(h), and the
derivation is then the inner one u -> b sigma_mu(u) - u b for
b = alpha(h)/((r^w - 1) h) * v_w, whose monomials meet the I index
condition, so it kills x (w > 0) or y (w < 0).  A derivation is
therefore stored as its c-type part c0 plus an inner element
b = sum_w q_w v_w, and the twisted Leibniz rule
    D(a*b) = D(a) sigma_mu(b) + a D(b)
gives its value on each component in closed form,
    D(p v_n) = p C_n v_n + sum_w (phi^w(p) M_{w,n} - p N_{w,n}) v_{w+n},
C_n from c0 alone, M_{w,n} v_{w+n} = q_w v_w sigma_mu(v_n) and
N_{w,n} v_{w+n} = v_n q_w v_w; the test
suites confirm the answer is factorization-independent for every
constructed derivation.  A term c h^i k^j of p adds c (z^e M - N), e the
phi-exponent w (n1 i + d j), and as D is linear the derivation keeps C_n
and the coefficients of M_{w,n}, N_{w,n} per word weight, and beside them
each reduced z^e M - N per (w, n, key, e) met, never per monomial or
coefficient; a term then costs one product by the kept difference.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import namedtuple
from fractions import Fraction

from .bipoly import BiPoly, diff_h, exact_divide_by_a, phi_exponent
from .gwa import GwaElement, apply_sigma_mu, basis_word, gwa_mul
from .scalars import (ONE, ZERO, Scalar, _P_ONE, _accumulate, _check_degree,
                      _expand, _new, _to_scalar)


class DerivationError(ValueError):
    pass


# ---------------------------------------------------------------------------
# index sets

# most members a finite index set, or terms a c-type factor C_n, may
# list; a larger one would be built and printed element by element
MAX_INDEX_SET = 100_000


class IndexSet(namedtuple("IndexSet", "first modulus last",
                          defaults=(None,))):
    """Admissible exponents first, first + modulus, ..., up to last, or
    without end when last is None.  The fields are canonical (the empty
    set is (0, 1, -1), a single member has modulus 1), so == is set
    equality."""

    __slots__ = ()

    def __contains__(self, t):
        return self.first <= t and (self.last is None or t <= self.last) \
            and (t - self.first) % self.modulus == 0

    def members_up_to(self, bound):
        if self.last is not None:
            bound = min(bound, self.last)
        return list(range(self.first, bound + 1, self.modulus))

    def is_empty(self):
        return self.last is not None and self.last < self.first

    def __str__(self):
        if self.last is not None:
            return "{%s}" % ", ".join(map(str, self.members_up_to(self.last)))
        if self.modulus == 1:
            if self.first == 0:
                return "N"
            return "{t in N : t >= %d}" % self.first
        return "{t in N : t >= %d, t = %d (mod %d)}" % (
            self.first, self.first % self.modulus, self.modulus)


def _index_pairs(b1, b2):
    """(b1, c) for I and for J: t is a member when c - t*b1 is a natural
    number.  I collects t with b2 + (1-t)*b1 natural (values on h); J
    collects t with b2 - t*b1 + 1 natural (values on k)."""
    b1, b2 = Fraction(b1), Fraction(b2)
    if b1 == 0:
        raise DerivationError("b1 zero")
    return (b1, b2 + b1), (b1, b2 + 1)


def _solve_membership(b1, c):
    """{t in N : c - t*b1 is a natural number} for rational b1 != 0, c.

    Integrality is the congruence  t*A = C (mod L)  on the common
    denominator lattice; nonnegativity then bounds t above when b1 > 0
    (a finite set) and below when b1 < 0 (an endless progression).
    """
    lcm = math.lcm(b1.denominator, c.denominator)
    a_coef = int(b1 * lcm)
    c_coef = int(c * lcm)
    g = math.gcd(a_coef, lcm)
    if c_coef % g:
        return IndexSet(0, 1, -1)
    modulus = lcm // g
    inv = pow((a_coef // g) % modulus, -1, modulus)
    offset = ((c_coef // g) * inv) % modulus
    if b1 > 0:
        # largest t with c - t*b1 >= 0, i.e. t <= c/b1
        members = range(offset, math.floor(c / b1) + 1, modulus)
        if len(members) > MAX_INDEX_SET:
            raise DerivationError("index set has %d members, more than %d"
                                  % (len(members), MAX_INDEX_SET))
        if not members:
            return IndexSet(0, 1, -1)
        return IndexSet(offset, modulus if len(members) > 1 else 1,
                        members[-1])
    # smallest t with c - t*b1 >= 0, i.e. t >= c/b1
    t0 = max(0, math.ceil(c / b1))
    return IndexSet(t0 + ((offset - t0) % modulus), modulus)


def index_sets_from_b(b1, b2):
    """The index sets I and J for the exponent vector (b1, b2)."""
    return tuple(_solve_membership(*pair) for pair in _index_pairs(b1, b2))


# ---------------------------------------------------------------------------
# derivation data

class CTypeSpec(namedtuple("CTypeSpec", "c0")):
    __slots__ = ()


class AlphaSpec(namedtuple("AlphaSpec", "w coeffs_h coeffs_k")):
    __slots__ = ()

    def __new__(cls, w, coeffs_h=None, coeffs_k=None):
        return super().__new__(cls, w, coeffs_h or {}, coeffs_k or {})


class NonInnerWitness(namedtuple("NonInnerWitness", "beta gamma")):
    """Monomial of c0 where the inner equation degenerates."""
    __slots__ = ()


class Derivation:
    """A twisted derivation over one parameter point, stored as its c-type
    part c0 (a BiPoly) plus an inner element b (a GwaElement): D is the
    c-type derivation of c0 plus u -> b sigma_mu(u) - u b.  g is the
    conformal polynomial the derivation was built over, None when it does
    not depend on it."""

    __slots__ = ("spec", "g", "_weights", "c0", "b", "memo")

    def __init__(self, spec, g, weights, c0, b):
        self.spec = spec
        self.g = g
        self._weights = sorted(set(weights))
        self.c0, self.b = c0, b
        # apply_derivation's C_n under n and, under (w, n), the two
        # coefficients of its twist factors M_{w,n}, N_{w,n} at each key,
        # beside the reduced z^e M - N kept by e
        self.memo = {0: BiPoly()}

    def weights(self):
        return list(self._weights)


def build_c_derivation(spec, cspec):
    # weight 0 only: off weight 0, commuting with phi^w forces such maps
    # to 0; the values on h and k vanish and none depends on g
    return Derivation(spec, None, [0], cspec.c0, GwaElement())


def _alpha_value_polys(spec, aspec):
    # each key t of a side pairs with the natural k-exponent c - t*b1 of
    # that side's index condition, which makes the value commute with phi
    # as the coarseness demands, e.g. r*alpha(h) = mu*phi(alpha(h))
    polys = []
    for (b1, c), which, name, coeffs in zip(
            _index_pairs(spec.b1, spec.b2), "hk", "im",
            (aspec.coeffs_h, aspec.coeffs_k)):
        index_set = _solve_membership(b1, c)
        terms = {}
        for t, v in coeffs.items():
            t, v = operator.index(t), _to_scalar(v)
            if not v:
                continue
            if t not in index_set:
                raise DerivationError(
                    "support violation: %s=%d is not in the %s index set"
                    % (name, t, which))
            terms[(t, int(c - t * b1))] = v
        polys.append(BiPoly(terms))
    return polys


def build_alpha_derivation(spec, g, aspec):
    """Construct the weight-w derivation from tabulated values.

    Raises on weight zero, on keys outside the index sets, and on value
    pairs that fail the commutativity coupling

        (s^w - 1) k alpha(h) = (r^w - 1) h alpha(k),

    without which no twisted derivation takes those values on h and k
    (the two factorizations of hk would disagree).
    """
    w = operator.index(aspec.w)
    if w == 0:
        raise DerivationError("alpha weight must be nonzero")
    alpha_h, alpha_k = _alpha_value_polys(spec, aspec)
    r_w = Scalar.z_power(spec.n1 * w) - ONE
    lhs = BiPoly.var_k() * alpha_h * (Scalar.z_power(spec.d * w) - ONE)
    rhs = BiPoly.var_h() * alpha_k * r_w
    mismatch = lhs - rhs
    if mismatch:
        key = min(mismatch.terms)
        raise DerivationError(
            "alpha values do not couple into a derivation "
            "(hk = kh fails at h^%d*k^%d)" % key)
    # alpha = ad_b for b = q v_w, q = alpha(h)/((r^w - 1) h): the coupling
    # makes h divide alpha(h), and ad_b(k) = q (s^w - 1) k v_w = alpha(k) v_w
    q = BiPoly._raw({(t - 1, e): c / r_w
                     for (t, e), c in alpha_h.terms.items()})
    return Derivation(spec, g, [w], BiPoly(), GwaElement({w: q}))


def coupled_alpha_spec(spec, w, h_coeffs):
    """Fill in the k-side values forced by the commutativity coupling.

    h_coeffs maps indices i >= 1 from the h index set to coefficients;
    each pairs with index i-1 on the k side, scaled by
    (s^w - 1)/(r^w - 1).  The index 0 value on h admits no partner and
    is therefore not offered.
    """
    w = operator.index(w)
    if w == 0:
        raise DerivationError("alpha weight must be nonzero")
    ratio = (Scalar.z_power(spec.d * w) - ONE) / (Scalar.z_power(spec.n1 * w) - ONE)
    coeffs_h, coeffs_k = {}, {}
    for i, c in h_coeffs.items():
        i = operator.index(i)
        if i < 1:
            raise DerivationError(
                "support violation: i=%d has no coupling partner" % i)
        c = _to_scalar(c)
        if not c:
            continue
        coeffs_h[i] = c
        coeffs_k[i - 1] = c * ratio
    return AlphaSpec(w, coeffs_h, coeffs_k)


# ---------------------------------------------------------------------------
# application

def _c_type_factor(spec, c0, n):
    """C_n with D(v_n) = C_n v_n for the c-type derivation of c0:
    sum_{j<n} mu^{-(n-1-j)} phi^j(c0) for n > 0, and for n = -m < 0
    -sum_{j<m} mu^{m-j} phi^{-(j+1)}(c0), which is the same sum over
    phi^p for p = n, ..., -1.  phi scales h^i k^j by z^(n1 i + d j), so
    on that monomial the sum is z^(n2 (n-1)) times sum_p q^p for
    q = z^(n1 i + d j - n2): |n| distinct powers of z, or the one term
    n z^(n2 (n-1)) when q = 1."""
    base, out = spec.n2 * (n - 1), {}
    powers, sign = (range(n), 1) if n > 0 else (range(n, 0), -1)
    for (i, j), c in c0.terms.items():
        e = phi_exponent(spec, i, j) - spec.n2
        if e and len(powers) > MAX_INDEX_SET:
            raise DerivationError("c-type factor C_%d has %d terms, more "
                                  "than %d" % (n, len(powers), MAX_INDEX_SET))
        out[(i, j)] = Scalar.laurent({base + e * p: sign for p in powers}
                                     if e else {base: n}) * c
    return BiPoly._raw(out)


def _twisted_parts(algebra, deriv, w, n):
    """The weight w + n part of D(p v_n) is phi^w(p) M_{w,n} - p N_{w,n},
    for (q_w v_w) sigma_mu(v_n) = M_{w,n} v_{w+n} and v_n q_w v_w =
    N_{w,n} v_{w+n}; key by key, the two coefficients (M, N) there, kept
    with a store of the reduced z^e M - N under each phi-exponent e met."""
    memo, key = deriv.memo, (w, n)
    if key not in memo:
        b_w, v_n = GwaElement._raw({w: deriv.b.terms[w]}), basis_word(n)
        m, q = (gwa_mul(algebra, *pair).terms.get(w + n, BiPoly()).terms
                for pair in ((b_w, apply_sigma_mu(algebra, v_n)), (v_n, b_w)))
        memo[key] = [(k, (m.get(k, ZERO), q.get(k, ZERO)), {})
                     for k in {**m, **q}]
    return memo[key]


@functools.lru_cache(maxsize=4096)
def _interned(c, t, ms):
    # the map and the factorization of the denominator c*z^t*prod Phi_m^e,
    # shared by every kept difference over it
    fac = c, t, ms, _P_ONE
    return _expand(fac), fac


def _times_twist(c, e, pair, kept):
    """c (z^e M - N) for the parts pair = (M, N) of one key, with kept[e]
    the reduced z^e M - N, found on the first call for e as it never
    depends on c.  When both parts are nonzero over split denominators,
    c's numerator times z^e is checked ahead of the store against the
    dense denominators of c and M, the spans a gcd of c's numerator times
    z^e - 1 with either would take."""
    m, n = pair
    a, b = c.num, c.den
    if a and m.num and n.num and m.fac[3] == n.fac[3] == _P_ONE and (
            len(m.den) > 1 or len(b) > 1):
        _check_degree(max(a) - min(a) + abs(e), max(b) - min(b),
                      max(m.den) - min(m.den))
    v = kept.get(e)
    if v is None:
        v = m.times_z(e) - n
        if v.fac[3] == _P_ONE:
            v = _new(v.num, *_interned(*v.fac[:3]))
        kept[e] = v
    return c * v


def apply_derivation(algebra, deriv, u):
    """Evaluate the derivation on an element in closed form,
    D(p v_n) = p C_n v_n + sum_w (phi^w(p) M_{w,n} - p N_{w,n}) v_{w+n},
    which is D(p) sigma_mu(v_n) + p D(v_n) with the c-type part killing p,
    D(p) = sum_w q_w (phi^w(p) - p) v_w and D(v_n) = C_n v_n + b sigma_mu(v_n)
    - v_n b.  A term c h^i k^j of p contributes c (z^e M - N) at each key,
    e = w (n1 i + d j), by _times_twist; C_n, the two coefficients of each
    (M_{w,n}, N_{w,n}) and each z^e M - N met are kept on the derivation,
    as D is linear: terms that share e share the last."""
    if algebra.spec != deriv.spec:
        raise DerivationError("derivation and algebra parameters differ")
    if deriv.g is not None and deriv.g != algebra.g:
        raise DerivationError(
            "derivation was built over a different conformal polynomial")
    out = {}
    for n, p in u.terms.items():
        for w in deriv.b.terms:
            parts, terms = _twisted_parts(algebra, deriv, w, n), {}
            for (i, j), c in p.terms.items():
                e = phi_exponent(algebra.spec, i, j, w)
                for (x, y), pair, kept in parts:
                    _accumulate(terms, (i + x, j + y),
                                _times_twist(c, e, pair, kept))
            _accumulate(out, w + n, BiPoly._raw(terms))
        if n not in deriv.memo:
            deriv.memo[n] = _c_type_factor(algebra.spec, deriv.c0, n)
        if deriv.memo[n]:
            _accumulate(out, n, p * deriv.memo[n])
    return GwaElement._raw(out)


def combine(parts):
    """Scalar combination of derivations over one parameter point; the
    c-type parts and the inner elements combine linearly."""
    spec = g = None
    weights = []
    c0, b = BiPoly(), GwaElement()
    for c, deriv in parts:
        c = _to_scalar(c)
        if spec is None:
            spec = deriv.spec
        elif deriv.spec != spec:
            raise DerivationError("coarseness mismatch")
        if not c:
            continue
        if deriv.g is not None:
            if g is not None and deriv.g != g:
                raise DerivationError("conformal polynomial mismatch")
            g = deriv.g
        weights += deriv.weights()
        c0, b = c0 + deriv.c0 * c, b + deriv.b * c
    if spec is None:
        raise DerivationError("nothing to combine")
    return Derivation(spec, g, weights, c0, b)


# ---------------------------------------------------------------------------
# innerness

def solve_inner(spec, cspec):
    """Solve c0 = mu^{-1} p - phi(p) coefficientwise.

    Each monomial divides by mu^{-1} - r^beta s^gamma; the witness is
    the first monomial (in exponent order) where that factor vanishes,
    i.e. where n2 = n1*beta + d*gamma.
    """
    terms = {}
    for (beta, gamma) in sorted(cspec.c0.terms):
        if spec.n2 == spec.n1 * beta + spec.d * gamma:
            return NonInnerWitness(beta, gamma)
        denom = Scalar.z_power(spec.n2) \
            - Scalar.z_power(spec.n1 * beta + spec.d * gamma)
        terms[(beta, gamma)] = cspec.c0.terms[(beta, gamma)] / denom
    return BiPoly(terms)


def twisted_commutator(algebra, b, u):
    """u -> b sigma_mu(u) - u b, the inner derivation attached to b."""
    return gwa_mul(algebra, b, apply_sigma_mu(algebra, u)) \
        - gwa_mul(algebra, u, b)


def check_weight0_alpha_condition(algebra, alpha0_h, alpha0_k):
    """Weight-zero alpha data is admissible iff alpha_0(a) is divisible
    by a; returns (flag, quotient).  Here sigma is the identity, so
    alpha_0(a) = alpha_0(k) + g'(h) alpha_0(h)."""
    value = alpha0_k + diff_h(algebra.g) * alpha0_h
    quotient = exact_divide_by_a(value, algebra.g)
    return (quotient is not None), quotient


# ---------------------------------------------------------------------------
# text form

def _parse_index_map(text, scalar_parser):
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ValueError("expected {index: value, ...}, got %r" % text)
    inner = text[1:-1].strip()
    out = {}
    if not inner:
        return out
    for entry in inner.split(","):
        key, sep, value = entry.partition(":")
        if not sep:
            raise ValueError("bad map entry %r" % entry)
        index = int(key.strip())
        if index in out:
            raise ValueError("duplicate index %d" % index)
        out[index] = scalar_parser(value.strip())
    return out


def parse_derivation_spec(text):
    """Parse the textual derivation form.

    Either `c0 = <polynomial in h, k>` or
    `w = <int>; alpha_h = {i: <scalar>, ...}; alpha_k = {m: <scalar>, ...}`.
    """
    from .expressions import parse_bipoly, parse_scalar

    fields = {}
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        key, sep, value = chunk.partition("=")
        if not sep:
            raise ValueError("bad derivation field %r" % chunk)
        key = key.strip()
        if key in fields:
            raise ValueError("duplicate derivation field %r" % key)
        fields[key] = value.strip()
    if set(fields) == {"c0"}:
        return CTypeSpec(parse_bipoly(fields["c0"]))
    if "w" not in fields or not set(fields) <= {"w", "alpha_h", "alpha_k"}:
        raise ValueError(
            "expected either c0 = ... or w = ...; alpha_h = {...}; alpha_k = {...}")
    return AlphaSpec(
        int(fields["w"]),
        _parse_index_map(fields.get("alpha_h", "{}"), parse_scalar),
        _parse_index_map(fields.get("alpha_k", "{}"), parse_scalar),
    )
