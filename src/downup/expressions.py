"""Text front-end shared by the CLI and the tests.

Grammar (whitespace-insensitive, '*' binds tighter than '+'):

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := integer | 'z' ['^' nat] | generator ['^' nat] | '(' expr ')'

Generators are d, u, h in the down-up presentation and x, y, h, k in the
weighted one; integers and z are scalar literals.  '/' must hit a
nonzero scalar.  Pretty-printed canonical forms parse back to equal
elements.

A '+'/'-' chain parses to one "sum" node and a '*'/'/' chain to one
"product" node, so trees deepen only with parentheses (capped at
MAX_NESTING); a power of a name stays part of that leaf.
"""

from __future__ import annotations

from .bipoly import BiPoly
from .gwa import basis_word, from_poly, gwa_mul
from .scalars import Scalar


# deepest parenthesis nesting accepted; parsing and evaluating recurse
# once per level, so this keeps both far from the interpreter's limit
MAX_NESTING = 100


class ParseError(ValueError):
    def __init__(self, message, position):
        super().__init__("%s at position %d" % (message, position))
        self.position = position


# each alphabet's generators, mapped to the weight of their basis word
# (d and x are v_1, u and y are v_-1); None marks h and k
_ALPHABETS = {
    "du": {"d": 1, "u": -1, "h": None},
    "gwa": {"x": 1, "y": -1, "h": None, "k": None},
    "hk": {"h": None, "k": None},
    "scalar": {},
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


def _found(tok):
    # a token as a message names it; the end token holds no value
    return "found end of input" if tok[0] == "end" else "found %r" % (tok[1],)


class _Parser:
    def __init__(self, text, alphabet):
        self.text = text
        self.alphabet = alphabet
        self.gens = _alphabet(alphabet)
        self.toks = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.toks[self.pos]

    def take(self, kind=None):
        tok = self.toks[self.pos]
        if kind is not None and tok[0] != kind:
            raise ParseError("expected %r, %s" % (kind, _found(tok)), tok[2])
        self.pos += 1
        return tok

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError("unexpected %r" % (tok[1],), tok[2])
        return node

    def expr(self):
        sign = self.take()[0] if self.peek()[0] == "-" else "+"
        terms = [(sign, self.term())]
        while self.peek()[0] in ("+", "-"):
            terms.append((self.take()[0], self.term()))
        if len(terms) == 1 and sign == "+":
            return terms[0][1]
        return ("sum", tuple(terms))

    def term(self):
        factors = [("*", self.factor())]
        while self.peek()[0] in ("*", "/"):
            factors.append((self.take()[0], self.factor()))
        if len(factors) == 1:
            return factors[0][1]
        return ("product", tuple(factors))

    def factor(self):
        kind, value, pos = self.peek()
        if kind == "int":
            self.take()
            return ("int", value)
        if kind == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(
                    "parentheses nested deeper than %d" % MAX_NESTING, pos)
            self.take()
            self.depth += 1
            node = self.expr()
            self.depth -= 1
            self.take(")")
            return node
        if kind == "name":
            self.take()
            if value != "z" and value not in self.gens:
                if len(value) == 1:
                    raise ParseError(
                        "%s not in alphabet %s" % (value, self.alphabet), pos)
                raise ParseError("unknown name %r" % value, pos)
            exponent = 1
            if self.peek()[0] == "^":
                self.take()
                exponent = self.take("int")[1]
            if value == "z":
                return ("z", exponent)
            return ("gen", value, exponent)
        raise ParseError("expected a value, " + _found(self.peek()), pos)


def parse_expression(text, alphabet):
    """Parse text over the named alphabet into a syntax tree."""
    return _Parser(text, alphabet).parse()


# ---------------------------------------------------------------------------
# evaluators; each interprets the same trees in a different carrier

def _eval(node, leaf, mul, scalar_of):
    """Interpret a tree: leaf evaluates the int, z^e and generator^e
    nodes, mul multiplies two values and scalar_of turns a divisor into
    its Scalar (or raises); sums use +, unary - and scalar products."""
    if node[0] not in ("sum", "product"):
        return leaf(node)
    out = None
    for op, child in node[1]:
        value = _eval(child, leaf, mul, scalar_of)
        if op == "-":
            value = -value
        if out is None:
            out = value
        elif op == "*":
            out = mul(out, value)
        elif op == "/":
            out = out * scalar_of(value).inverse()
        else:
            out = out + value
    return out


def _poly_leaf(n):
    """An int, z^e, h^e or k^e leaf as a BiPoly."""
    if n[0] == "int":
        return BiPoly.const(Scalar.from_rational(n[1]))
    if n[0] == "z":
        return BiPoly.const(Scalar.z_power(n[1]))
    if n[1] == "h":
        return BiPoly.var_h(n[2])
    return BiPoly.var_k(n[2])


def _poly_scalar(b):
    if not b.is_const():
        raise ValueError("division by a non-scalar polynomial")
    return b.const_value()


def parse_scalar(text):
    # the scalar alphabet has no generators, so every value is constant
    return _eval(parse_expression(text, "scalar"), _poly_leaf,
                 lambda a, b: a * b, _poly_scalar).const_value()


def parse_bipoly(text):
    """Parse a polynomial in h and k."""
    return _eval(parse_expression(text, "hk"), _poly_leaf,
                 lambda a, b: a * b, _poly_scalar)


def parse_element(text, algebra, alphabet="gwa"):
    """Parse and evaluate an element in the given algebra."""
    node = parse_expression(text, alphabet)
    words = _ALPHABETS[alphabet]

    def leaf(n):
        if n[0] == "gen" and words[n[1]] is not None:
            return basis_word(words[n[1]] * n[2])
        return from_poly(_poly_leaf(n))

    def scalar_of(b):
        if not b.is_poly() or not b.as_poly().is_const():
            raise ValueError("division by a non-scalar expression")
        return b.as_poly().const_value()

    return _eval(node, leaf, lambda a, b: gwa_mul(algebra, a, b), scalar_of)
