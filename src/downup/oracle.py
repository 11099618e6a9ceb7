"""Brute-force normalizer for free words on x, y, h, k.

Knows nothing about the closed-form product: it rewrites one adjacent
pair at a time until no rule applies, so it serves as ground truth for
the structured multiplication.  Rules: x, y pass h and k by single
powers of r, s (inverse powers for y), and the pairs xy, yx collapse to
the defining polynomials.  Each word carries the power of z that its
passes have collected as an int, and a normal word multiplies its
coefficient by that power once, with the generic product.
"""

from __future__ import annotations

from .bipoly import BiPoly
from .gwa import GwaElement
from .scalars import ONE, ZERO, Scalar, _to_scalar


_LETTERS = ("x", "y", "h", "k")

# longest free word accepted; keeps every rewrite run finite and small
MAX_LENGTH = 8


def _is_redex(a, b):
    if a == "x":
        return b in ("y", "h", "k")
    if a == "y":
        return b in ("x", "h", "k")
    return False


def _find_redex(letters, strategy):
    span = range(len(letters) - 1)
    if strategy == "rightmost":
        span = reversed(span)
    elif strategy != "leftmost":
        raise ValueError("unknown strategy %r" % (strategy,))
    for t in span:
        if _is_redex(letters[t], letters[t + 1]):
            return t
    return None


def _rewrite(algebra, coeff, exp, letters, t):
    spec = algebra.spec
    a, b = letters[t], letters[t + 1]
    head, tail = letters[:t], letters[t + 2:]
    if b in ("h", "k"):
        step = spec.n1 if b == "h" else spec.d
        return [(coeff, exp - step if a == "y" else exp + step,
                 head + (b, a) + tail)]
    poly = algebra.phi_a if a == "x" else algebra.a
    out = []
    for (i, j), c in poly.terms.items():
        out.append((coeff * c, exp, head + ("h",) * i + ("k",) * j + tail))
    return out


def oracle_normalize(algebra, terms, strategy="leftmost"):
    """Rewrite a combination of free words to a GwaElement.

    Takes (coeff, letters) pairs.  Words longer than MAX_LENGTH are
    refused up front.
    """
    stack = []
    for coeff, letters in terms:
        coeff = _to_scalar(coeff)
        letters = tuple(letters)
        for ch in letters:
            if ch not in _LETTERS:
                raise ValueError("unknown letter %r" % (ch,))
        if len(letters) > MAX_LENGTH:
            raise ValueError("length bound exceeded")
        if coeff:
            stack.append((coeff, 0, letters))

    acc = {}
    while stack:
        coeff, exp, letters = stack.pop()
        t = _find_redex(letters, strategy)
        if t is not None:
            stack.extend(_rewrite(algebra, coeff, exp, letters, t))
            continue
        # normal words are h,k powers followed by a run of x or of y
        m, n = letters.count("x"), letters.count("y")
        assert m == 0 or n == 0
        _add_into(acc.setdefault(m - n, {}),
                  (letters.count("h"), letters.count("k")),
                  coeff * Scalar.z_power(exp))
    # each bucket holds only nonzero scalars; one that cancelled is dropped
    return GwaElement._raw({w: BiPoly._raw(bucket)
                            for w, bucket in acc.items() if bucket})


def free_expand(node):
    """Multiply out a syntax tree in the free algebra: no relations are
    applied, products only concatenate letters.  A power or a product
    word longer than MAX_LENGTH is refused as it forms."""
    op = node[0]
    if op == "int":
        c = Scalar.from_rational(node[1])
        return {(): c} if c else {}
    if op == "z":
        return {(): Scalar.z_power(node[1])}
    if op == "gen":
        # refuse an over-long power before building its letters
        if node[2] > MAX_LENGTH:
            raise ValueError("length bound exceeded")
        return {(node[1],) * node[2]: ONE}
    if op not in ("sum", "product"):
        raise ValueError("bad node %r" % (op,))
    out = None
    for sign, child in node[1]:
        part = free_expand(child)
        if sign == "-":
            part = {word: -c for word, c in part.items()}
        if out is None:
            out = part
        elif sign == "*":
            out = _free_mul(out, part)
        elif sign == "/":
            if any(word for word in part):
                raise ValueError("division by a non-scalar expression")
            inv = part.get((), ZERO).inverse()
            out = {word: c * inv for word, c in out.items()}
        else:
            out = _free_add(out, part)
    return out


def _add_into(out, key, c):
    """out[key] += c, dropping the entry when the sum is zero."""
    v = out.get(key)
    v = c if v is None else v + c
    if v:
        out[key] = v
    else:
        out.pop(key, None)


def _free_add(a, b):
    out = dict(a)
    for word, c in b.items():
        _add_into(out, word, c)
    return out


def _free_mul(a, b):
    # refuse a product word past the length bound as it forms, before the
    # words of a long product multiply out
    out = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            if len(wa) + len(wb) > MAX_LENGTH:
                raise ValueError("length bound exceeded")
            _add_into(out, wa + wb, ca * cb)
    return out


def oracle_normalize_text(algebra, text, strategy="leftmost"):
    """Parse, expand freely, then rewrite to normal form."""
    from .expressions import parse_expression

    tree = parse_expression(text, "gwa")
    terms = [(c, word) for word, c in free_expand(tree).items()]
    return oracle_normalize(algebra, terms, strategy)
