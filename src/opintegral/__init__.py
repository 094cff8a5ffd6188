"""Operator integrals on dense Hermitian matrices.

Double and triple operator integrals, the two-variable functional calculus
phi(A, B), dyadic-band (Besov-type) norms, Schur multiplier certificates,
divided-difference representations, Toeplitz/Hankel models with principal
functions, and trace-formula experiments.
"""

from .besov import BesovNorm, LPDecomposition, besov_norm, lp_decompose, window_eval
from .commutator import (CommutatorReport, commutator_of_functions,
                         commutator_via_toi, probe_problem1, probe_problem2,
                         verify_theorem_41)
from .divdiff import BandRepList, SincRep, besov_representation, sinc_representation
from .doi import (SchurMultiplierCertificate, TrigProjectiveRows,
                  double_operator_integral, funcalc, one_var_commutator_identity,
                  projective_decompose_trig, schur_multiplier_norm)
from .functions import Expr, Function1D, Function2D, UniformGrid, parse_expr
from .heltonhowe import (TraceExperimentConfig, TraceReport, polynomial_suite,
                         rhs_integral, trace_formula_experiment, winding_factor_experiment)
from .models import (PrincipalFunction, Symbol, hankel_matrix, principal_function,
                     toeplitz_matrix, verify_hankel_identity)
from .rng import Xorshift64Star
from .spectral import HermitianOperator, SpectralDecomposition, decompose, schatten_norm
from .toi import (HaagerupRep, RepNormCertificate, S1Certificate,
                  eval_representation, s1_certificate)

__version__ = "0.1.0"

__all__ = [
    "BandRepList", "BesovNorm", "CommutatorReport", "Expr", "Function1D",
    "Function2D", "HaagerupRep", "HermitianOperator",
    "LPDecomposition", "PrincipalFunction", "RepNormCertificate",
    "S1Certificate", "SchurMultiplierCertificate", "SincRep",
    "SpectralDecomposition", "Symbol", "TraceExperimentConfig", "TraceReport",
    "TrigProjectiveRows", "UniformGrid", "Xorshift64Star",
    "besov_norm", "besov_representation",
    "commutator_of_functions", "commutator_via_toi", "decompose",
    "double_operator_integral", "eval_representation",
    "funcalc", "hankel_matrix", "lp_decompose",
    "one_var_commutator_identity", "parse_expr", "polynomial_suite",
    "principal_function", "probe_problem1", "probe_problem2",
    "projective_decompose_trig", "rhs_integral", "s1_certificate",
    "schatten_norm", "schur_multiplier_norm", "sinc_representation",
    "toeplitz_matrix", "trace_formula_experiment",
    "verify_hankel_identity", "verify_theorem_41", "window_eval",
    "winding_factor_experiment",
]
