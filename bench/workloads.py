"""The benchmark workloads: seeded inputs, set-up, one operation, and its check.

Inputs come from the benchmark's own ``random.Random(seed)`` and are built
only through public constructors (``Scalar``, ``BiPoly``, ``GwaElement``,
``validate_param_spec``, ``DownUpPresentation``, ``gwa_algebra``, the
derivation builders, ``coupled_alpha_spec`` and ``combine``), so a change to
``downup.sampling`` or to the wrappers the roadmap deletes cannot change a
workload.  Every library call goes through the ``downup`` package attribute,
so the tracer's rebinding of that attribute sees it.

A workload object has three phases, and after ``build`` a ``cycle``: the
length of the fixed round of points, cases or lengths its ops go through.

* ``plan(rng)``: raw input data (plain ints and Fractions), not timed;
* ``build(plan)``: set-up that builds algebras and derivations (and, for
  cli, imports the CLI), timed as part of ``setup_s``;
* ``next_op(rng)``, ``run(op)``, ``check(op, result)``: one operation; only
  ``run`` is timed, and ``check`` compares the output with an independent
  expectation.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from io import StringIO

import downup

HERE = os.path.dirname(os.path.abspath(__file__))

# d, n1, n2 and the coefficients f_0, f_1, ... of f
POINTS = {
    "standard": (1, 3, 2, (0, 1)),
    "fractional": (2, 3, 5, (0, 1)),
    "negative": (1, -2, 3, (1, 0, 1)),
}

# where the products check evaluates both sides: z, h, k
CHECK_POINT = (Fraction(5, 3), Fraction(7, 2), Fraction(-2, 5))


# ---------------------------------------------------------------------------
# raw inputs: z-polynomials are {exponent: Fraction}, h,k-polynomials are
# {(i, j): z-polynomial}, elements are {weight: h,k-polynomial}

def raw_zpoly(rng, max_degree):
    """A nonzero polynomial in z with small rational coefficients."""
    exps = rng.sample(range(max_degree + 1), rng.randint(1, max_degree + 1))
    return {e: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
            for e in exps}


def raw_hkpoly(rng, terms, max_degree, z_degree):
    keys = set()
    while len(keys) < terms:
        keys.add((rng.randint(0, max_degree), rng.randint(0, max_degree)))
    return {key: raw_zpoly(rng, z_degree) for key in sorted(keys)}


def raw_element(rng, max_weight, components, terms, max_degree, z_degree):
    """A nonzero element with the given numbers of components and terms.

    Fixed sizes keep the cost of an op from varying more than the weights
    and degrees make it, which keeps ops_per_s steady across seeds.
    """
    weights = rng.sample(range(-max_weight, max_weight + 1), components)
    return {w: raw_hkpoly(rng, terms, max_degree, z_degree) for w in weights}


def to_scalar(zpoly):
    total = downup.Scalar.from_rational(0)
    for e, c in sorted(zpoly.items()):
        total = total + downup.Scalar.from_rational(c) * downup.Scalar.z_power(e)
    return total


def to_bipoly(hkpoly):
    return downup.BiPoly({key: to_scalar(c) for key, c in hkpoly.items()})


def to_element(raw):
    return downup.GwaElement({w: to_bipoly(p) for w, p in raw.items()})


def build_algebra(point):
    d, n1, n2, f = POINTS[point]
    spec = downup.validate_param_spec(d, n1, n2)
    pres = downup.DownUpPresentation.from_coefficients(
        spec, [downup.Scalar.from_rational(c) for c in f])
    return downup.gwa_algebra(pres)


# ---------------------------------------------------------------------------
# products

class Products:
    """One gwa_mul of two random nonzero elements per op."""

    points = ("standard", "fractional")
    shape = dict(max_weight=3, components=2, terms=1, max_degree=2,
                 z_degree=2)

    def plan(self, rng):
        return None

    def build(self, plan):
        self.algebras = {p: build_algebra(p) for p in self.points}
        self.cycle = len(self.points)
        self.count = 0
        self.digests = []

    def next_op(self, rng):
        point = self.points[self.count % len(self.points)]
        self.count += 1
        u = raw_element(rng, **self.shape)
        v = raw_element(rng, **self.shape)
        return point, u, v, to_element(u), to_element(v)

    def run(self, op):
        point, _, _, u, v = op
        return downup.gwa_mul(self.algebras[point], u, v)

    def check(self, op, result):
        point, u, v, _, _ = op
        text = str(result)
        self.digests.append(hashlib.sha256(text.encode()).hexdigest()[:16])
        return evaluate_text(text, CHECK_POINT) == expected_product(point, u, v)


def _zvalue(zpoly, z):
    return sum(c * z ** e for e, c in zpoly.items())


def expected_product(point, u, v):
    """u*v evaluated at CHECK_POINT, weight by weight, computed from the
    defining rewrites with plain Fractions and no library code:
    (p v_m)(q v_n) = p phi^m(q) W(m, n) v_{m+n}, where phi^m(q)(h, k) =
    q(r^m h, s^m k) and W multiplies one phi-power of a = k + g(h) per
    cancelled x,y pair."""
    d, n1, _, f = POINTS[point]
    z, h, k = CHECK_POINT
    r, s = z ** n1, z ** d
    g = {i: Fraction(c) / (s - r ** i) for i, c in enumerate(f) if c}

    def phi_a(j):
        hh, kk = r ** j * h, s ** j * k
        return kk + sum(c * hh ** i for i, c in g.items())

    def phi_poly(p, m):
        hh, kk = r ** m * h, s ** m * k
        return sum(_zvalue(c, z) * hh ** i * kk ** j for (i, j), c in p.items())

    def word(m, n):
        coeff = Fraction(1)
        while m > 0 and n < 0:
            coeff *= phi_a(m)
            m, n = m - 1, n + 1
        while m < 0 and n > 0:
            coeff *= phi_a(m + 1)
            m, n = m + 1, n - 1
        return coeff

    out = {}
    for m, p in u.items():
        for n, q in v.items():
            out[m + n] = out.get(m + n, 0) + phi_poly(p, 0) * phi_poly(q, m) * word(m, n)
    return {w: c for w, c in out.items() if c}


_TOKENS = re.compile(r"\d+|[a-z]|[-+*/^()]")


def evaluate_text(text, at):
    """Evaluate the printed form of an element at numbers for z, h, k.

    The printed form is the grammar of ``downup.expressions``; the word
    x^w or y^w ends each term, so a value is kept as {weight: Fraction}.
    """
    z, h, k = at
    env = {"z": {0: z}, "h": {0: h}, "k": {0: k}, "x": {1: Fraction(1)},
           "y": {-1: Fraction(1)}}
    toks = _TOKENS.findall(text)
    pos = 0

    def take():
        nonlocal pos
        pos += 1
        return toks[pos - 1]

    def peek():
        return toks[pos] if pos < len(toks) else None

    def mul(a, b):
        out = {}
        for wa, ca in a.items():
            for wb, cb in b.items():
                out[wa + wb] = out.get(wa + wb, 0) + ca * cb
        return out

    def add(a, b, sign=1):
        out = dict(a)
        for w, c in b.items():
            out[w] = out.get(w, 0) + sign * c
        return out

    def factor():
        tok = take()
        if tok == "(":
            value = expr()
            take()
        elif tok.isdigit():
            value = {0: Fraction(int(tok))}
        else:
            value = env[tok]
        if peek() == "^":
            take()
            base, value = value, {0: Fraction(1)}
            for _ in range(int(take())):
                value = mul(value, base)
        return value

    def term():
        value = factor()
        while peek() in ("*", "/"):
            if take() == "*":
                value = mul(value, factor())
            else:
                divisor = factor()[0]
                value = {w: c / divisor for w, c in value.items()}
        return value

    def expr():
        negate = peek() == "-"
        if negate:
            take()
        value = term()
        if negate:
            value = {w: -c for w, c in value.items()}
        while peek() in ("+", "-"):
            sign = 1 if take() == "+" else -1
            value = add(value, term(), sign)
        return value

    value = expr()
    if pos != len(toks):
        raise ValueError("trailing text in %r" % text)
    return {w: c for w, c in value.items() if c}


# ---------------------------------------------------------------------------
# leibniz

def first_h_index(point):
    """The smallest i >= 1 in the h index set, where n2 + (1 - i)*n1 is a
    natural multiple of d; it pairs with i - 1 on the k side.  Each point
    of the workload has one below 3."""
    d, n1, n2, _ = POINTS[point]
    return next(i for i in range(1, 3)
                if n2 + (1 - i) * n1 >= 0 and (n2 + (1 - i) * n1) % d == 0)


class Leibniz:
    """One twisted-Leibniz check D(uv) = D(u) sigma(v) + u D(v) per op."""

    points = ("standard", "fractional", "negative")
    shape = dict(max_weight=2, components=1, terms=1, max_degree=1, z_degree=1)

    alpha_weights = (1, -1)
    sets_per_point = 3

    def plan(self, rng):
        """Per point, sets_per_point sets of: a c-type c0, one alpha table
        {i: rational} per weight in alpha_weights, at the smallest h index
        i >= 1, and the two coefficients that combine the c-type with the
        first alpha.  Only rational coefficients are drawn, so every seed
        runs the same kinds of derivation, and several sets average out how
        hard one draw happens to be."""
        plan = []
        for point in self.points:
            i = first_h_index(point)
            for _ in range(self.sets_per_point):
                alphas = [(w, {i: raw_zpoly(rng, 0)})
                          for w in self.alpha_weights]
                plan.append((point, raw_hkpoly(rng, 2, 2, 0), alphas,
                             (raw_zpoly(rng, 0), raw_zpoly(rng, 0))))
        return plan

    def build(self, plan):
        self.cases = []
        for point, c0, alphas, (c1, c2) in plan:
            algebra = build_algebra(point)
            spec = algebra.spec
            c_type = downup.build_c_derivation(
                spec, downup.CTypeSpec(to_bipoly(c0)))
            alpha = [downup.build_alpha_derivation(
                spec, algebra.g, downup.coupled_alpha_spec(
                    spec, w, {i: to_scalar(c) for i, c in table.items()}))
                for w, table in alphas]
            mixed = downup.combine([(to_scalar(c1), c_type),
                                    (to_scalar(c2), alpha[0])])
            self.cases.extend((algebra, deriv)
                              for deriv in [c_type] + alpha + [mixed])
        self.cycle = len(self.cases)
        self.count = 0

    def next_op(self, rng):
        algebra, deriv = self.cases[self.count % len(self.cases)]
        self.count += 1
        return (algebra, deriv, to_element(raw_element(rng, **self.shape)),
                to_element(raw_element(rng, **self.shape)))

    def run(self, op):
        algebra, deriv, u, v = op
        mul = downup.gwa_mul
        apply = downup.apply_derivation
        lhs = apply(algebra, deriv, mul(algebra, u, v))
        rhs = mul(algebra, apply(algebra, deriv, u),
                  downup.apply_sigma_mu(algebra, v)) \
            + mul(algebra, u, apply(algebra, deriv, v))
        return lhs, rhs

    def check(self, op, result):
        lhs, rhs = result
        return lhs == rhs


# ---------------------------------------------------------------------------
# oracle

class Oracle:
    """One oracle_normalize of a free word over x, y, h, k per op."""

    lengths = (5, 6, 7, 8)

    def plan(self, rng):
        return None

    def build(self, plan):
        self.algebra = build_algebra("standard")
        self.cycle = len(self.lengths)
        self.count = 0

    def next_op(self, rng):
        length = self.lengths[self.count % len(self.lengths)]
        self.count += 1
        word = tuple(rng.choice("xyhk") for _ in range(length))
        return word, rng.randint(1, length - 1)

    def _normal_form(self, word):
        return downup.oracle_normalize(
            self.algebra, [(downup.Scalar.from_rational(1), word)])

    def run(self, op):
        return self._normal_form(op[0])

    def check(self, op, result):
        word, cut = op
        split = downup.gwa_mul(self.algebra, self._normal_form(word[:cut]),
                               self._normal_form(word[cut:]))
        return result == split


# ---------------------------------------------------------------------------
# cli

def cli_cases():
    """The README examples: argument lists and the exact stdout of each."""
    with open(os.path.join(HERE, "cli_cases.json")) as fh:
        return json.load(fh)


class Cli:
    """One README command per op, run as a fresh `python -m downup.cli`
    process; every round runs each command once, in a seeded order.

    With ``in_process`` set, the traced run calls ``downup.cli.main``
    directly instead, so the layers below it are visible to the tracer.
    """

    in_process = False

    def plan(self, rng):
        return None

    def build(self, plan):
        import downup.cli  # noqa: F401  (the module the command runs)
        self.cases = cli_cases()
        self.cycle = len(self.cases)
        self.queue = []
        src = os.path.dirname(os.path.dirname(os.path.abspath(downup.__file__)))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])

    def next_op(self, rng):
        if not self.queue:
            self.queue = rng.sample(self.cases, len(self.cases))
        return self.queue.pop()

    def run(self, op):
        if self.in_process:
            out = StringIO()
            with redirect_stdout(out):
                code = downup.cli.main(list(op["args"]))
            return code, out.getvalue()
        proc = subprocess.run([sys.executable, "-m", "downup.cli"] + op["args"],
                              env=self.env, capture_output=True, text=True,
                              timeout=60)
        return proc.returncode, proc.stdout

    def check(self, op, result):
        return result == (0, op["stdout"])


WORKLOADS = {"products": Products, "leibniz": Leibniz, "oracle": Oracle,
             "cli": Cli}
