"""Dense gcds: cyclotomic factors, and GCDHEU for what is left.

As r, s and mu are powers of z, the denominators the library builds are
c*z^t*prod Phi_m^e.  Scalar.fac keeps every denominator as (c, t, ms, R),
ms the (m, e) pairs by m and R the primitive residual, 1 when it splits.
This layer builds the Phi_m, splits a denominator into them (scalars
splits z^n - 1 itself), tests and divides by them, and keeps the maps of
their products.  A gcd against a factored denominator is the content
gcd, the lower z-order and one Phi_m | f test per factor (Bradford &
Davenport, ISSAC 1988), dividing only on a hit; a gcd with a residual
R != 1, which only typed denominators such as z + 2 leave, takes GCDHEU.
scalars imports this layer on the first test, gcd, expansion or split it
needs, so that a set-up that meets none never compiles it.
"""

from __future__ import annotations

import functools
import math
import operator

from .scalars import (ZERO, _P_ONE, _accumulate, _cancel,
                      _check_degree, _expand, _fmul, _made, _padd, _pmul,
                      _pow, _shifted, _vec)


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
def _product(ms):
    # the map of prod Phi_m^e over the (m, e) pairs of ms, on the memo of
    # all pairs but the last, whose power is taken by squaring
    if not ms:
        return _P_ONE
    (m, e), = ms[-1:]
    return _pmul(_product(ms[:-1]), _pow(_phi(m), e, _P_ONE, _pmul))


@functools.lru_cache(maxsize=4096)
def _split(key):
    # the (m, e) pairs of the monic z-free map p with items key, a constant
    # term of -+1 and degree n at most MAX_SPLIT_DEGREE, or None.  The
    # roots of p have power sums s_k (Newton's identities), at most n in
    # size when they are roots of unity.  Then s_k = sum_m e_m c_m(k), c_m
    # Ramanujan's sums, inverts to s_k = sum_{d | k} d*B_d and e_m =
    # sum_j B_jm over the orders m <= 6n, which hold all m with phi(m) <= n
    # (m/phi(m) < 6 for m < 2*10^8); p is the product when these exponents
    # are whole and their degrees add up to n
    p = dict(key)
    n = max(p)
    a, s = [(n - e, v) for e, v in p.items() if e < n], [n]
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
    return ms


def _cut(f, ms):
    # f over its gcd with prod Phi_m^e over the (m, e) pairs of ms, and the
    # pairs left: one Phi_m | f test per factor, dividing f on a hit
    out = []
    for m, e in ms:
        while e and len(f) > 1 and _phi_divides(f, m):
            f, e = _over_phi(f, m), e - 1
        out += [(m, e)] * (e > 0)
    return f, tuple(out)


def difference_parts(m, n):
    # z^e*m - n for every e, as times_difference takes it: for m = a/(z^t*
    # g*b1) and n = c/(z^u*g*d1), g the gcd of the z-free dens, the maps
    # a*d1 and -c*b1, t, u, g and b1*d1 as factorizations, and the span of
    # m's den; (m, n) when either is zero or its den keeps a residual
    x, y = m.fac, n.fac
    if not (m and n and x[3] == y[3] == _P_ONE):
        return m, n
    g = math.gcd(x[0], y[0]), 0, _vec(min, x[2], y[2]), _P_ONE
    b, d = ((v[0] // g[0], 0, _vec(operator.sub, v[2], g[2]), _P_ONE)
            for v in (x, y))
    return (_pmul(m.num, _expand(d)), {e: -v for e, v in _pmul(
        n.num, _expand(b)).items()}, x[1], y[1], g, _fmul(b, d),
        max(m.den) - min(m.den))


def times_difference(s, e, parts):
    # s*(z^e*m - n) from difference_parts(m, n).  By Henrici the sum
    # z^(e-t+k)*a*d1 - z^(k-u)*c*b1 over z^k*g*b1*d1, k = max(t - e, u), can
    # cancel only against z^k*g; it then meets s by the two cuts of a
    # product.  s's num times z^e is checked against the dense dens of s
    # and m, the spans a gcd of s's num times z^e - 1 with either would take
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
    f, g = _cancel(f, (g[0], k, *g[2:]), None)
    x, y = s.fac, _fmul(g, bd)
    (a, y), (f, x) = _cancel(a, y, None), _cancel(f, x, b)
    return _made(_pmul(a, f), _fmul(x, y))
