"""Denominators kept as products of cyclotomic polynomials.

As r, s and mu are powers of z, the denominators the library builds are
c*z^t*prod Phi_m^e.  Scalar.fac keeps this as (c, t, ms), ms the (m, e)
pairs by m, once the denominator has been split; None when it is not such
a product, True until it is looked for.  A gcd against a factored
denominator is the content gcd, the lower z-order and one Phi_m | f test
per factor (Bradford & Davenport, ISSAC 1988), dividing only on a hit; two
factored denominators meet by a min of exponents, a product adds them, and
the product's map comes from a memo.  scalars imports this layer on the
first sum or product it can serve; a pair it cannot serve goes back to
scalars' gcds.
"""

from __future__ import annotations

import functools
import math
import operator

from . import scalars
from .scalars import (ZERO, _P_ONE, _check_degree, _new, _padd, _pmul,
                      _shifted)

# the degree past which a denominator is not split, so that the orders m
# of the Phi_m the gcds build and test stay at most 6 times it: the largest
# degree up to which sums and products over z^n - 1 denominators ran no
# slower factored than by GCDHEU (1.4 to 1.6 times slower at n = 84 and 90)
MAX_SPLIT_DEGREE = 72

_PHI = {1: {1: 1, 0: -1}}


def _phi(m):
    # Phi_m from Phi_n, n = m/q for q the least prime factor of m:
    # Phi_n(z^q), over Phi_n(z) when q does not divide n
    if m not in _PHI:
        q = next(q for q in range(2, m + 1) if m % q == 0)
        p = {e * q: c for e, c in _phi(m // q).items()}
        _PHI[m] = _over_phi(p, m // q) if m // q % q else p
    return _PHI[m]


def _over_phi(f, m):
    # f / Phi_m for a multiple f of it, by long division by the monic Phi_m,
    # skipping the zeros the subtractions leave in f; over Phi_1 = z - 1
    # the quotient's terms are running sums of f's coefficients from the top
    if m == 1:
        quo, c = {}, 0
        for e in range(max(f), 0, -1):
            if c := c + f.get(e, 0):
                quo[e - 1] = c
        return quo
    p, quo, f = _phi(m), {}, dict(f)
    n = max(p)
    for e in range(max(f), n - 1, -1):
        if c := f.get(e):
            quo[e - n] = c
            for i, v in p.items():
                f[e - n + i] = f.get(e - n + i, 0) - c * v
    return quo


def _phi_divides(f, m):
    # f vanishes at the primitive m-th roots of unity: f(1) = 0 for m = 1,
    # else f folded mod z^m - 1, then reduced by the monic Phi_m, leaves no
    # remainder
    if m == 1:
        return not sum(f.values())
    r, p = [0] * m, _phi(m)
    for e, c in f.items():
        r[e % m] += c
    n = max(p)
    for i in range(m - 1, n - 1, -1):
        for e, c in p.items() if r[i] else ():
            r[i - n + e] -= r[i] * c if e < n else 0
    return not any(r[:n])


@functools.lru_cache(maxsize=4096)
def _cyclotomic(ms):
    # the map of prod Phi_m^e over the (m, e) pairs of ms, on the memo of
    # all pairs but the last
    return _pmul(_cyclotomic(ms[:-1]), _power(*ms[-1])) if ms else _P_ONE


@functools.lru_cache(maxsize=4096)
def _power(m, e):
    # Phi_m^e from two powers of half the exponent, so that high powers take
    # log e products and the recursion stays log e deep
    if e < 2:
        return _phi(m)
    return _pmul(_power(m, e // 2), _power(m, e - e // 2))


@functools.lru_cache(maxsize=4096)
def _vec(op, x, y):
    # op (add, sub or min) on two exponent vectors of (m, e) pairs
    a, b = dict(x), dict(y)
    return tuple((m, e) for m in sorted({*a, *b})
                 if (e := op(a.get(m, 0), b.get(m, 0))) > 0)


def _expand(fac):
    c, t, ms = fac
    p = _cyclotomic(ms)
    return {e + t: v * c for e, v in p.items()} if c != 1 or t else p


def _fmul(x, y):
    return x[0] * y[0], x[1] + y[1], _vec(operator.add, x[2], y[2])


@functools.lru_cache(maxsize=4096)
def _split(key):
    # the factorization of the map with items key, or None.  With c its
    # lead and t its z-order, the roots of q = p/(c*z^t), of degree n, have
    # power sums s_k (Newton's identities), at most n in size when they are
    # roots of unity.  Then s_k = sum_m e_m c_m(k), c_m Ramanujan's sums,
    # inverts to s_k = sum_{d | k} d*B_d and e_m = sum_j B_jm over the
    # orders m <= 6n, which hold all m with phi(m) <= n (m/phi(m) < 6 for
    # m < 2*10^8); q is the product when these exponents are whole and
    # their degrees add up to n
    p = dict(key)
    t, c, n = min(p), p[max(p)], max(p) - min(p)
    if n > MAX_SPLIT_DEGREE or abs(p[t]) != abs(c) or any(
            v % c for v in p.values()):
        return None
    a, s = [(t + n - e, v // c) for e, v in p.items() if e < t + n], [n]
    for k in range(1, 6 * n + 1):
        s.append(-sum(v * (s[k - i] if i < k else k) for i, v in a if i <= k))
        if abs(s[k]) > n:
            return None
    for k in range(1, 6 * n + 1):
        if s[k] % k:
            return None
        s[k] //= k
        for j in range(2 * k, 6 * n + 1, k):
            s[j] -= k * s[k]
    ms = tuple((m, e) for m in range(1, 6 * n + 1) if (e := sum(s[m::m])))
    if any(e < 0 for _, e in ms) or sum(
            e * max(_phi(m)) for m, e in ms) != n:
        return None
    return c, t, ms


def _known(p):
    # the factorization of a denominator p, (c, t, ()) for a monomial
    # c*z^t; falsy when p is no such product
    if len(p) > 1:
        return _split(frozenset(p.items()))
    return (*p.values(), *p, ())


def _settle(s):
    # _known for s.den, kept in s.fac once it is split
    if s.fac is True:
        s.fac = _known(s.den) or None
    return s.fac or len(s.den) == 1 and _known(s.den)


def _cut(f, fac, g):
    # f over its gcd h with the denominator g of factorization fac, and the
    # factorization of g/h: the content gcd, the lower z-order, then one
    # Phi_m | f test per factor, dividing f on a hit.  g is None for a
    # denominator whose span was checked already
    c, t, ms = fac
    low = min(f)
    k, s = math.gcd(c, *f.values()) if c != 1 else 1, min(low, t)
    if len(f) > 1 and ms:
        _check_degree(max(f) - low, max(g) - t if g else 0)
    if k > 1 or s:
        f, fac = {e - s: v // k for e, v in f.items()}, (c // k, t - s, ms)
    if len(f) < 2 or not ms:
        return f, fac
    out = []
    for m, e in ms:
        while e and len(f) > 1 and _phi_divides(f, m):
            f, e = _over_phi(f, m), e - 1
        out += [(m, e)] * (e > 0)
    return f, (*fac[:2], tuple(out))


def _made(n, fac):
    # the scalar n over the denominator of factorization fac, both negated
    # when its lead c is negative
    if fac[0] < 0:
        n, fac = {e: -v for e, v in n.items()}, (-fac[0], *fac[1:])
    return _new(n, _expand(fac), fac)


def times(s, c, d, o=None):
    # s*(c/d) as scalars._times takes it, when both denominators factor; o
    # is the Scalar whose den d is, None for a divisor's numerator
    a, b = s.num, s.den
    if not a or not c:
        return ZERO
    x, y = _settle(s), _settle(o) if o else _known(d)
    if not (x and y):
        return scalars._times(a, b, c, d)
    (a, y), (c, x) = (_cut(a, y, d) if d != _P_ONE else (a, y),
                      _cut(c, x, b) if b != _P_ONE else (c, x))
    return _made(_pmul(a, c), _fmul(x, y))


def difference_parts(m, n):
    # z^e*m - n for every e, as times_difference takes it: for m = a/(z^t*
    # g*b1) and n = c/(z^u*g*d1), g the gcd of the z-free dens, the maps
    # a*d1 and -c*b1, t, u, g and b1*d1 as factorizations, and the span of
    # m's den; (m, n) when either is zero or its den does not factor
    x, y = m and _settle(m), n and _settle(n)
    if not (x and y):
        return m, n
    g = math.gcd(x[0], y[0]), 0, _vec(min, x[2], y[2])
    b, d = ((v[0] // g[0], 0, _vec(operator.sub, v[2], g[2])) for v in (x, y))
    return (_pmul(m.num, _expand(d)), {e: -v for e, v in _pmul(
        n.num, _expand(b)).items()}, x[1], y[1], g, _fmul(b, d),
        max(m.den) - min(m.den))


def times_difference(s, e, parts):
    # s*(z^e*m - n) from difference_parts(m, n).  By Henrici the sum
    # z^(e-t+k)*a*d1 - z^(k-u)*c*b1 over z^k*g*b1*d1, k = max(t - e, u), can
    # cancel only against z^k*g; it then meets s by the two cuts of times.
    # s's num times z^e is checked against the dense dens of s and m, the
    # spans a gcd of s's num times z^e - 1 with either would take
    if len(parts) == 2:
        return s * (parts[0].times_z(e) - parts[1])
    ad, cb, t, u, g, bd, span = parts
    a, b = s.num, s.den
    if a and (span or len(b) > 1):
        _check_degree(max(a) - min(a) + abs(e), max(b) - min(b), span)
    k = max(t - e, u)
    f = a and _padd(_shifted(ad, e - t + k), _shifted(cb, k - u))
    if not f:
        return ZERO
    f, g = _cut(f, (g[0], k, g[2]), None)
    x, y = _settle(s), _fmul(g, bd)
    if not x:
        return s * _made(f, y)
    (a, y), (f, x) = (_cut(a, y, None) if y != (1, 0, ()) else (a, y),
                      _cut(f, x, b) if b != _P_ONE else (f, x))
    return _made(_pmul(a, f), _fmul(x, y))


def add(s, o):
    # s + o as Scalar.__add__ takes it, when both denominators factor: by
    # Henrici, with g the min of the two factorizations and b', d' the
    # differences, t/(g*b'*d') can only cancel gcd(t, g)
    a, b, c, d = s.num, s.den, o.num, o.den
    x, y = _settle(s), _settle(o)
    if not (x and y):
        # the same sum on scalars' gcds, with no factorization to serve
        return _new(a, b) + _new(c, d)
    if b == d:
        t = _padd(a, c)
        return _made(*_cut(t, x, b)) if t else ZERO
    if len(b) > 1 < len(d):
        _check_degree(max(b) - min(b), max(d) - min(d))
    g = math.gcd(x[0], y[0]), min(x[1], y[1]), _vec(min, x[2], y[2])
    x, y = ((v[0] // g[0], v[1] - g[1], _vec(operator.sub, v[2], g[2]))
            for v in (x, y))
    t = _padd(_pmul(a, _expand(y)), _pmul(c, _expand(x)))
    if not t:
        return ZERO
    # g spans no more than b and d, checked above
    t, g = _cut(t, g, None)
    return _made(t, _fmul(_fmul(g, x), y))
