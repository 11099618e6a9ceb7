"""Text front-end shared by the CLI and the tests.

Grammar (whitespace-insensitive, '*' binds tighter than '+'):

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := integer | 'z' ['^' nat] | generator ['^' nat] | '(' expr ')'

Generators are d, u, h in the down-up presentation and x, y, h, k in the
weighted one; integers and z are scalar literals.  '/' must hit a
nonzero scalar.  Pretty-printed canonical forms parse back to equal
elements.
"""

from __future__ import annotations

from .bipoly import BiPoly
from .gwa import basis_word, from_poly, gwa_mul
from .scalars import Scalar


class ParseError(ValueError):
    def __init__(self, message, position):
        super().__init__("%s at position %d" % (message, position))
        self.position = position


_ALPHABETS = {
    "du": ("d", "u", "h"),
    "gwa": ("x", "y", "h", "k"),
    "hk": ("h", "k"),
    "scalar": (),
}


def _alphabet(name):
    if name not in _ALPHABETS:
        raise ValueError("unknown alphabet %r" % (name,))
    return _ALPHABETS[name]


def _tokenize(text):
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("int", int(text[i:j]), i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalpha():
                j += 1
            toks.append(("name", text[i:j], i))
            i = j
            continue
        if ch in "+-*/^()":
            toks.append((ch, ch, i))
            i += 1
            continue
        raise ParseError("unexpected character %r" % ch, i)
    toks.append(("end", None, n))
    return toks


class _Parser:
    def __init__(self, text, alphabet):
        self.text = text
        self.alphabet = alphabet
        self.gens = _alphabet(alphabet)
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def take(self, kind=None):
        tok = self.toks[self.pos]
        if kind is not None and tok[0] != kind:
            raise ParseError("expected %r, found %r" % (kind, tok[1]), tok[2])
        self.pos += 1
        return tok

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError("unexpected %r" % (tok[1],), tok[2])
        return node

    def expr(self):
        if self.peek()[0] == "-":
            self.take()
            node = ("neg", self.term())
        else:
            node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.term()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    def term(self):
        node = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.take()[0]
            rhs = self.factor()
            node = ("mul" if op == "*" else "div", node, rhs)
        return node

    def factor(self):
        kind, value, pos = self.peek()
        if kind == "int":
            self.take()
            return ("int", value, pos)
        if kind == "(":
            self.take()
            node = self.expr()
            self.take(")")
            return node
        if kind == "name":
            self.take()
            if value == "z":
                node = ("z", pos)
            elif value in self.gens:
                node = ("gen", value, pos)
            elif len(value) == 1:
                raise ParseError(
                    "%s not in alphabet %s" % (value, self.alphabet), pos)
            else:
                raise ParseError("unknown name %r" % value, pos)
            if self.peek()[0] == "^":
                self.take()
                etok = self.take("int")
                node = ("pow", node, etok[1])
            return node
        raise ParseError("expected a value, found %r" % (value,), pos)


def parse_expression(text, alphabet):
    """Parse text over the named alphabet into a syntax tree."""
    return _Parser(text, alphabet).parse()


# ---------------------------------------------------------------------------
# evaluators; each interprets the same trees in a different carrier

def _eval(node, leaf, one, mul, add, neg, div):
    op = node[0]
    if op in ("int", "z", "gen"):
        return leaf(node)
    if op == "pow":
        base = _eval(node[1], leaf, one, mul, add, neg, div)
        out = one()
        for _ in range(node[2]):
            out = mul(out, base)
        return out
    if op == "neg":
        return neg(_eval(node[1], leaf, one, mul, add, neg, div))
    a = _eval(node[1], leaf, one, mul, add, neg, div)
    b = _eval(node[2], leaf, one, mul, add, neg, div)
    if op == "add":
        return add(a, b)
    if op == "sub":
        return add(a, neg(b))
    if op == "mul":
        return mul(a, b)
    if op == "div":
        return div(a, b)
    raise ValueError("bad node %r" % (op,))


def eval_scalar(node):
    def leaf(n):
        # the scalar alphabet has no generators, so a leaf is int or z
        if n[0] == "int":
            return Scalar.from_rational(n[1])
        return Scalar.z_power(1)

    return _eval(node, leaf, lambda: Scalar.from_rational(1),
                 lambda a, b: a * b, lambda a, b: a + b,
                 lambda a: -a, lambda a, b: a / b)


def parse_scalar(text):
    return eval_scalar(parse_expression(text, "scalar"))


def eval_bipoly(node):
    def leaf(n):
        if n[0] == "int":
            return BiPoly.const(Scalar.from_rational(n[1]))
        if n[0] == "z":
            return BiPoly.const(Scalar.z_power(1))
        if n[1] == "h":
            return BiPoly.var_h()
        return BiPoly.var_k()

    def div(a, b):
        if not b.is_const():
            raise ValueError("division by a non-scalar polynomial")
        return a / b.const_value()

    return _eval(node, leaf, BiPoly.one,
                 lambda a, b: a * b, lambda a, b: a + b,
                 lambda a: -a, div)


def parse_bipoly(text):
    """Parse a polynomial in h and k."""
    return eval_bipoly(parse_expression(text, "hk"))


_GEN_WORDS = {
    "du": {"d": 1, "u": -1, "h": None},
    "gwa": {"x": 1, "y": -1, "h": None, "k": None},
}


def eval_element(node, algebra, alphabet="gwa"):
    _alphabet(alphabet)
    words = _GEN_WORDS[alphabet]

    def leaf(n):
        if n[0] == "int":
            return from_poly(BiPoly.const(Scalar.from_rational(n[1])))
        if n[0] == "z":
            return from_poly(BiPoly.const(Scalar.z_power(1)))
        w = words[n[1]]
        if w is not None:
            return basis_word(w)
        return from_poly(BiPoly.var_h() if n[1] == "h" else BiPoly.var_k())

    def div(a, b):
        if not b.is_poly() or not b.as_poly().is_const():
            raise ValueError("division by a non-scalar expression")
        return a * b.as_poly().const_value().inverse()

    return _eval(node, leaf, lambda: basis_word(0),
                 lambda a, b: gwa_mul(algebra, a, b),
                 lambda a, b: a + b, lambda a: -a, div)


def parse_element(text, algebra, alphabet="gwa"):
    """Parse and evaluate an element in the given algebra."""
    return eval_element(parse_expression(text, alphabet), algebra, alphabet)
