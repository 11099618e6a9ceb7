"""Exact symbolic computation in generalized down-up algebras realized
as generalized Weyl algebras over the rational functions of z."""

from .scalars import (ONE, ZERO, ParameterError, ParamSpec, Scalar,
                      validate_param_spec)
from .bipoly import BiPoly, apply_phi_power, diff_h, exact_divide_by_a
from .gwa import (GwaAlgebra, GwaElement, apply_sigma_mu, basis_word,
                  from_poly, gwa_mul)
from .expressions import (ParseError, parse_bipoly, parse_element,
                          parse_expression, parse_scalar)
from .presentation import (DownUpPresentation, conformal_residue, gwa_algebra,
                           relation_residues, solve_conformal,
                           translate_to_gwa, witness_support_matches)
from .derivations import (AlphaSpec, CTypeSpec, Derivation, DerivationError,
                          IndexSet, NonInnerWitness, apply_derivation,
                          build_alpha_derivation, build_c_derivation,
                          check_weight0_alpha_condition, combine,
                          coupled_alpha_spec, index_sets_from_b,
                          parse_derivation_spec, solve_inner,
                          twisted_commutator)
from .oracle import free_expand, oracle_normalize, oracle_normalize_text
from .suites import SuiteContext, SuiteResult, run_suites

__version__ = "0.1.0"

__all__ = [
    "AlphaSpec", "BiPoly", "CTypeSpec", "Derivation", "DerivationError",
    "DownUpPresentation", "GwaAlgebra", "GwaElement", "IndexSet",
    "NonInnerWitness", "ONE", "ParamSpec", "ParameterError", "ParseError",
    "Scalar", "ZERO",
    "apply_derivation", "apply_phi_power", "apply_sigma_mu", "basis_word",
    "build_alpha_derivation", "build_c_derivation",
    "check_weight0_alpha_condition", "combine", "conformal_residue",
    "coupled_alpha_spec", "diff_h", "exact_divide_by_a",
    "free_expand", "from_poly", "gwa_algebra", "gwa_mul",
    "index_sets_from_b", "oracle_normalize",
    "oracle_normalize_text", "parse_bipoly",
    "parse_derivation_spec", "parse_element", "parse_expression",
    "parse_scalar", "relation_residues", "run_suites",
    "solve_conformal", "solve_inner",
    "SuiteContext", "SuiteResult", "translate_to_gwa", "twisted_commutator",
    "validate_param_spec", "witness_support_matches",
]
