"""Exact symbolic computation in generalized down-up algebras realized
as generalized Weyl algebras over the rational functions of z."""

import importlib

# submodule -> the public names it defines; __getattr__ imports on first read
_EXPORTS = {
    "scalars": "ONE ZERO ParameterError ParamSpec Scalar validate_param_spec",
    "bipoly": "BiPoly apply_phi_power diff_h exact_divide_by_a",
    "gwa": "GwaAlgebra GwaElement apply_sigma_mu basis_word from_poly gwa_mul",
    "expressions": """ParseError parse_bipoly parse_element parse_expression
                      parse_scalar""",
    "presentation": """DownUpPresentation conformal_residue gwa_algebra
                       relation_residues solve_conformal translate_to_gwa
                       witness_support_matches""",
    "derivations": """AlphaSpec CTypeSpec Derivation DerivationError IndexSet
                      NonInnerWitness apply_derivation build_alpha_derivation
                      build_c_derivation check_weight0_alpha_condition combine
                      coupled_alpha_spec index_sets_from_b
                      parse_derivation_spec solve_inner twisted_commutator""",
    "oracle": "free_expand oracle_normalize oracle_normalize_text",
    "suites": "SuiteContext SuiteResult run_suites",
    "sampling": "",
    "cyclotomic": "",
}
_OWNER = {name: module for module, names in _EXPORTS.items()
          for name in names.split()}

__version__ = "0.1.0"
__all__ = list(_OWNER)


def __getattr__(name):
    if name not in _OWNER and name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module("." + _OWNER.get(name, name), __name__)
    value = getattr(module, name) if name in _OWNER else module
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_OWNER) | set(_EXPORTS))
