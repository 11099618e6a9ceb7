"""Per-layer tracing from outside the library.

``Tracer.install()`` wraps the public entry points of each layer and rebinds
every module-level name that refers to them, in every loaded ``downup``
module, so calls made inside the package go through the wrappers too.  A
wrapper opens a span only while the tracer is active and only when the
innermost open span is not of the same kind (``Scalar.__sub__`` calling
``__add__`` is one addition, ``parse_element`` calling ``parse_expression``
is one parse).  Self time is a span's duration minus the time its child
spans cover.

Scalar and BiPoly arithmetic run millions of times, so those spans only
update counters; spans of the other layers are kept in memory, tagged with
the op they belong to, and written out by ``write_spans``.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter_ns

# (module, attribute, span kind); these spans are kept
_FUNCTIONS = [
    ("bipoly", "apply_phi_power", "bipoly.phi"),
    ("gwa", "gwa_mul", "gwa.mul"),
    ("derivations", "apply_derivation", "derivations.apply"),
    ("derivations", "build_c_derivation", "derivations.build"),
    ("derivations", "build_alpha_derivation", "derivations.build"),
    ("oracle", "oracle_normalize", "oracle.normalize"),
    ("expressions", "parse_expression", "expressions.parse"),
    ("expressions", "parse_scalar", "expressions.parse"),
    ("expressions", "parse_bipoly", "expressions.parse"),
    ("expressions", "parse_element", "expressions.parse"),
    ("derivations", "parse_derivation_spec", "expressions.parse"),
    ("presentation", "solve_conformal", "presentation.solve"),
    ("presentation", "gwa_algebra", "presentation.solve"),
    ("cli", "main", "cli.main"),
]

_ARITHMETIC = {
    "__add__": "add", "__radd__": "add", "__sub__": "add", "__rsub__": "add",
    "__mul__": "mul", "__rmul__": "mul", "__truediv__": "div",
    "__rtruediv__": "div", "__neg__": "neg", "__pow__": "pow",
    "inverse": "div",
}

SPAN_LIMIT = 1_000_000


def _term_count(poly):
    # dense coefficient tuple today; an exponent -> coefficient map also works
    values = poly.values() if isinstance(poly, dict) else poly
    return sum(1 for c in values if c)


class Tracer:
    def __init__(self):
        self.active = False
        self.op = -1
        self.stack = []          # open spans: [kind, child_ns, span_id]
        self.next_id = 0
        self.calls = Counter()
        self.self_ns = Counter()
        self.total_ns = Counter()
        self.counts = Counter()  # operand shapes and word pairs
        self.word_pairs_seen = set()
        self.spans = []
        self.dropped = 0

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, kind, fn, keep, inspect=None):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer.stack
            if not tracer.active or (stack and stack[-1][0] == kind):
                return fn(*args, **kwargs)
            if inspect is not None:
                inspect(args)
            frame = [kind, 0, tracer.next_id]
            parent = stack[-1][2] if stack else -1
            tracer.next_id += 1
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                tracer.calls[kind] += 1
                tracer.total_ns[kind] += duration
                tracer.self_ns[kind] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if keep:
                    if len(tracer.spans) < SPAN_LIMIT:
                        tracer.spans.append((tracer.op, frame[2], parent, kind,
                                             start, end))
                    else:
                        tracer.dropped += 1

        return traced

    def _scalar_operands(self, args):
        shapes = [a for a in args if hasattr(a, "den")]
        if any(_term_count(a.num) <= 1 and _term_count(a.den) == 1
               for a in shapes) or len(shapes) < len(args):
            self.counts["scalars.monomial_operand"] += 1
        if any(_term_count(a.den) > 1 for a in shapes):
            self.counts["scalars.dense_den"] += 1

    def _word_pairs(self, args):
        algebra, u, v = args[:3]
        for m in u.components:
            for n in v.components:
                key = (id(algebra), m, n)
                self.counts["gwa.word_pairs"] += 1
                if key in self.word_pairs_seen:
                    self.counts["gwa.word_pair_repeats"] += 1
                else:
                    self.word_pairs_seen.add(key)

    def install(self):
        """Wrap every traced entry point and rebind it in all downup modules."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "downup"
                                         or name.startswith("downup."))]
        for module_name, attr, kind in _FUNCTIONS:
            original = getattr(sys.modules["downup." + module_name], attr)
            inspect = self._word_pairs if kind == "gwa.mul" else None
            wrapper = self._wrap(kind, original, True, inspect)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)
        from downup.bipoly import BiPoly
        from downup.scalars import Scalar
        for cls, layer in ((Scalar, "scalars"), (BiPoly, "bipoly")):
            for method, op in _ARITHMETIC.items():
                original = cls.__dict__.get(method)
                if original is None:
                    continue
                inspect = (self._scalar_operands
                           if cls is Scalar and op == "mul" else None)
                setattr(cls, method,
                        self._wrap("%s.%s" % (layer, op), original, False,
                                   inspect))

    # -- results --------------------------------------------------------------

    def layer_metrics(self):
        """The per-layer figures named in BENCHMARK.json, except
        cli.import_s and trace.overhead, which the caller measures."""
        def seconds(ns):
            return ns / 1e9

        scalar_kinds = [k for k in self.calls if k.startswith("scalars.")]
        muls = self.calls["scalars.mul"]
        pairs = self.counts["gwa.word_pairs"]
        return {
            "scalars.mul_calls": (muls, "count"),
            "scalars.add_calls": (self.calls["scalars.add"], "count"),
            "scalars.self_s": (seconds(sum(self.self_ns[k] for k in scalar_kinds)), "s"),
            "scalars.monomial_operand_share": (
                self.counts["scalars.monomial_operand"] / muls if muls else 0.0, "ratio"),
            "scalars.dense_den_share": (
                self.counts["scalars.dense_den"] / muls if muls else 0.0, "ratio"),
            "bipoly.mul_calls": (self.calls["bipoly.mul"], "count"),
            "bipoly.mul_self_s": (seconds(self.self_ns["bipoly.mul"]), "s"),
            "bipoly.phi_calls": (self.calls["bipoly.phi"], "count"),
            "bipoly.phi_self_s": (seconds(self.self_ns["bipoly.phi"]), "s"),
            "gwa.mul_calls": (self.calls["gwa.mul"], "count"),
            "gwa.mul_self_s": (seconds(self.self_ns["gwa.mul"]), "s"),
            "gwa.word_pairs": (pairs, "count"),
            "gwa.word_pair_repeat_share": (
                self.counts["gwa.word_pair_repeats"] / pairs if pairs else 0.0, "ratio"),
            "derivations.apply_calls": (self.calls["derivations.apply"], "count"),
            "derivations.apply_self_s": (seconds(self.self_ns["derivations.apply"]), "s"),
            "derivations.build_s": (seconds(self.total_ns["derivations.build"]), "s"),
            "oracle.normalize_calls": (self.calls["oracle.normalize"], "count"),
            "oracle.normalize_self_s": (seconds(self.self_ns["oracle.normalize"]), "s"),
            "expressions.parse_calls": (self.calls["expressions.parse"], "count"),
            "expressions.parse_self_s": (seconds(self.self_ns["expressions.parse"]), "s"),
            "cli.main_self_s": (seconds(self.self_ns["cli.main"]), "s"),
            "presentation.solve_calls": (self.calls["presentation.solve"], "count"),
            "presentation.solve_self_s": (seconds(self.self_ns["presentation.solve"]), "s"),
        }

    def write_spans(self, path):
        """One JSON array per line: op, span id, parent id, kind, start and
        end in nanoseconds of the process clock."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
