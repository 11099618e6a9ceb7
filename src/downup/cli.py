"""Command line interface.

All parameters are explicit, on the command line or in a key=value
config file; d, n1, n2 have no defaults.  --format structured emits one
JSON document with the command, inputs, result, and witnesses; exit
status is 0 only when every requested check passed.
"""

from __future__ import annotations

import sys

from .bipoly import apply_phi_power
from .derivations import (CTypeSpec, NonInnerWitness, apply_derivation,
                          build_alpha_derivation, build_c_derivation,
                          index_sets_from_b, parse_derivation_spec,
                          solve_inner)
from .expressions import parse_bipoly, parse_element, parse_scalar
from .gwa import gwa_mul
from .oracle import oracle_normalize_text
from .presentation import (DownUpPresentation, conformal_residue,
                           gwa_algebra, solve_conformal, translate_to_gwa,
                           witness_support_matches)
from .scalars import ParameterError, ParamSpec, Scalar, validate_param_spec


def _read_config(path):
    values = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError("bad config line %r" % raw.strip())
            key = key.strip()
            if key in values:
                raise ValueError("duplicate config key %r" % key)
            values[key] = value.strip()
    return values


_OPTION_KEYS = ("d", "n1", "n2", "f", "seed", "samples", "format")


def _merged_options(args):
    merged = _read_config(args.config) if args.config else {}
    unknown = sorted(set(merged) - set(_OPTION_KEYS))
    if unknown:
        raise ValueError("unknown config key %r" % unknown[0])
    for key in _OPTION_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    if merged.get("format", "human") not in ("human", "structured"):
        raise ValueError("format must be human or structured, got %r"
                         % merged["format"])
    for key in ("d", "n1", "n2", "seed", "samples"):
        if key in merged:
            merged[key] = int(merged[key])
    return merged


def _exponents(options):
    missing = [key for key in ("d", "n1", "n2") if key not in options]
    if missing:
        raise ParameterError("missing parameters: %s" % ", ".join(missing))
    return options["d"], options["n1"], options["n2"]


def _f_coefficients(options):
    if "f" not in options:
        raise ParameterError("missing f (coefficient list, e.g. --f 0,1)")
    return [parse_scalar(part) for part in options["f"].split(",")]


def _presentation(options):
    """The presentation at the requested point, and the inputs to echo."""
    spec = validate_param_spec(*_exponents(options))
    coeffs = _f_coefficients(options)
    inputs = dict(spec._asdict(), f=", ".join(str(c) for c in coeffs))
    return DownUpPresentation.from_coefficients(spec, coeffs), inputs


def _case_note(b1, b2):
    # for integers, b1 > b2 means b1 >= b2 + 1, and J splits there
    if b1.denominator != 1 or b2.denominator != 1 or b1 < 1 or b2 < 1:
        return None
    part_i = "b1%sb2" % "<=>"[(b1 > b2) - (b1 < b2) + 1]
    part_j = "b1%sb2+1" % "=>"[b1 > b2 + 1] if b1 > b2 else part_i
    return "%s / %s" % (part_i, part_j)


def cmd_indices(args, options):
    # the index sets are well defined whenever b1 != 0, so this command
    # skips only the s = r^q rejection
    spec = ParamSpec(*_exponents(options))
    b1, b2 = spec.b1, spec.b2
    i_set, j_set = index_sets_from_b(b1, b2)
    result = {"I": str(i_set), "J": str(j_set)}
    case = _case_note(b1, b2)
    if case:
        result["case"] = case
    if i_set.is_empty():
        result["note"] = "no solutions"
    doc = {"inputs": spec._asdict(),
           "result": result,
           "witnesses": {"b1": str(b1), "b2": str(b2)}}
    lines = ["I = %s" % result["I"], "J = %s" % result["J"]]
    lines += ["%s: %s" % (key, result[key])
              for key in ("case", "note") if key in result]
    return doc, lines, 0


def cmd_conformal(args, options):
    pres, inputs = _presentation(options)
    g = solve_conformal(pres)
    residue = conformal_residue(pres, g)
    ok = not residue and witness_support_matches(pres, g)
    doc = {"inputs": inputs,
           "result": {"g": str(g)},
           "witnesses": {"back_substitution": str(residue),
                         "support_matches": ok}}
    return doc, ["g = %s" % g], 0 if ok else 1


def cmd_mul(args, options):
    pres, inputs = _presentation(options)
    algebra = gwa_algebra(pres)
    lhs = parse_element(args.lhs, algebra)
    rhs = parse_element(args.rhs, algebra)
    result = gwa_mul(algebra, lhs, rhs)
    witnesses = {}
    try:
        oracle_view = oracle_normalize_text(
            algebra, "(%s)*(%s)" % (args.lhs, args.rhs))
    except ValueError:
        pass    # beyond the oracle's reach: the cross-check steps aside
    else:
        witnesses["oracle_agrees"] = oracle_view == result
    doc = {"inputs": dict(inputs, lhs=args.lhs, rhs=args.rhs),
           "result": str(result),
           "witnesses": witnesses}
    code = 0 if witnesses.get("oracle_agrees", True) else 1
    return doc, [str(result)], code


def cmd_translate(args, options):
    pres, inputs = _presentation(options)
    result = translate_to_gwa(pres, args.expr)
    doc = {"inputs": dict(inputs, expr=args.expr),
           "result": str(result),
           "witnesses": {"alphabet": "du"}}
    return doc, [str(result)], 0


def cmd_derive(args, options):
    pres, inputs = _presentation(options)
    algebra = gwa_algebra(pres)
    dspec = parse_derivation_spec(args.derivation)
    if isinstance(dspec, CTypeSpec):
        deriv = build_c_derivation(pres.spec, dspec)
    else:
        deriv = build_alpha_derivation(pres.spec, algebra.g, dspec)
    target = parse_element(args.expr, algebra)
    result = apply_derivation(algebra, deriv, target)
    doc = {"inputs": dict(inputs, derivation=args.derivation, expr=args.expr),
           "result": str(result),
           "witnesses": {"weights": deriv.weights()}}
    return doc, [str(result)], 0


def cmd_inner(args, options):
    spec = validate_param_spec(*_exponents(options))
    c0 = CTypeSpec(parse_bipoly(args.c0))
    solved = solve_inner(spec, c0)
    doc = {"inputs": dict(spec._asdict(), c0=args.c0)}
    if isinstance(solved, NonInnerWitness):
        message = "non-inner at (%d, %d)" % (solved.beta, solved.gamma)
        doc.update(result=message,
                   witnesses={"beta": solved.beta, "gamma": solved.gamma})
        return doc, [message], 0
    residue = c0.c0 - (solved * Scalar.z_power(spec.n2)
                       - apply_phi_power(spec, solved, 1))
    doc.update(result=str(solved),
               witnesses={"back_substitution": str(residue)})
    return doc, ["p = %s" % solved], 0 if not residue else 1


def cmd_verify(args, options):
    from .suites import POINT_FREE, SuiteContext, run_suites, select
    samples, seed = options.get("samples", 200), options.get("seed", 0)
    if samples < 1:
        raise ParameterError("samples must be at least 1, got %d" % samples)
    names = select(args.suites)
    inputs = {"suites": args.suites, "seed": seed, "samples": samples}
    spec = algebra = None
    # a point wholly absent is accepted only for the point-free suites
    if not options.keys().isdisjoint(("d", "n1", "n2")) \
            or not POINT_FREE.issuperset(names):
        spec = validate_param_spec(*_exponents(options))
        inputs.update(spec._asdict())
    if "f" in options:
        coeffs = _f_coefficients(options)
        if spec is not None:
            algebra = gwa_algebra(
                DownUpPresentation.from_coefficients(spec, coeffs))
    results = run_suites(names, SuiteContext(spec, algebra, seed, samples))
    all_ok = all(r.ok for r in results)
    doc = {"inputs": inputs,
           "result": {"passed": sum(r.passed for r in results),
                      "total": sum(r.total for r in results)},
           "witnesses": {r.name: {"passed": r.passed, "total": r.total,
                                  "failures": r.failures}
                         for r in results}}
    lines = ["%s: %d/%d%s" % (r.name, r.passed, r.total,
                              "" if r.ok else "  FAIL")
             for r in results]
    lines.append("all checks passed" if all_ok else "FAILURES present")
    return doc, lines, 0 if all_ok else 1


def build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="downup",
        description="Exact computations in a generalized down-up algebra "
                    "realized as a generalized Weyl algebra.")
    parser.add_argument("--d", type=int, help="exponent of s = z^d")
    parser.add_argument("--n1", type=int, help="exponent of r = z^n1")
    parser.add_argument("--n2", type=int, help="exponent of mu^{-1} = z^n2")
    parser.add_argument("--f", help="comma separated coefficients f_0,f_1,...")
    parser.add_argument("--seed", type=int, help="random seed (default 0)")
    parser.add_argument("--samples", type=int,
                        help="sample count for verify (default 200)")
    parser.add_argument("--format", choices=("human", "structured"),
                        help="output format (default human)")
    parser.add_argument("--config", help="key=value file with the same keys")

    # each command's handler is its parser's default for "run"
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("indices",
                       help="index sets I and J of the parameter point")
    p.set_defaults(run=cmd_indices)
    p = sub.add_parser("conformal", help="solve f(X) = s*g(X) - g(r*X)")
    p.set_defaults(run=cmd_conformal)

    p = sub.add_parser("mul", help="multiply two expressions in x, y, h, k")
    p.set_defaults(run=cmd_mul)
    p.add_argument("lhs")
    p.add_argument("rhs")

    p = sub.add_parser("translate",
                       help="normal form of a d, u, h expression")
    p.set_defaults(run=cmd_translate)
    p.add_argument("expr")

    p = sub.add_parser("derive", help="apply a derivation to an expression")
    p.set_defaults(run=cmd_derive)
    p.add_argument("--derivation", required=True,
                   help="'c0 = ...' or 'w = ...; alpha_h = {...}; alpha_k = {...}'")
    p.add_argument("expr")

    p = sub.add_parser("inner", help="solve the inner equation for c0")
    p.set_defaults(run=cmd_inner)
    p.add_argument("--c0", required=True, help="polynomial in h and k")

    p = sub.add_parser("verify", help="run verification suites")
    p.set_defaults(run=cmd_verify)
    p.add_argument("suites", nargs="+",
                   help="suite names or 'all' (field, params, phi, assoc, "
                        "sigma, oracle, conformal, indices, leibniz, "
                        "relations, roundtrip)")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        options = _merged_options(args)
        doc, lines, code = args.run(args, options)
    except (ValueError, OSError, ArithmeticError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if options.get("format") == "structured":
        import json

        print(json.dumps(dict(doc, command=args.command), indent=2,
                         sort_keys=True))
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
