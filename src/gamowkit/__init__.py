"""Resonance poles of arbitrary multiplicity.

Tools for a single higher-order pole of an analytically continued
S-matrix: partial-fraction expansion of the pole factor, contour-based
derivative extraction, the finite Jordan-block subspace it generates,
semigroup time evolution on that subspace, density-operator families
with exactly exponential decay, and an exact integer-arithmetic
certificate that the binomial anti-diagonal family is the only one.
"""

from .algebra import ExpPolynomial, GaussianRational, Polynomial, binom
from .errors import (
    ConfigInvalidError,
    EmptyGridError,
    IndexOutOfRangeError,
    JTooLargeError,
    NegativeTimeError,
    NoConvergenceError,
    PoleEvaluationError,
)
from .jordan import (
    GamowSubspace,
    OperatorOnM,
    conjugation_polys,
    evolution_matrix,
    hamiltonian_action_matrix,
    hamiltonian_matrix,
    nilpotent_power,
)
from .smatrix import (
    BackgroundPhase,
    ResonancePole,
    SMatrixModel,
    TestFunction,
    TestFunctionPair,
    analytic_derivatives,
    expansion_coeffs,
    lineshape,
    pole_expansion_coeffs,
    pole_term,
    s_matrix_eval,
)
from .states import (
    StateOperator,
    decay_deviation,
    detector_probability,
    dyad_operator,
    evolve_operator_symbolic,
    evolved_norm_squared,
    pole_term_probability,
    w_n,
    w_total,
)
from .uniqueness import (
    CoefficientMatrix,
    ConstraintSystem,
    build_constraints,
    canonical_element,
    certify,
    oracle_evolution,
)

__version__ = "0.1.0"

__all__ = [
    "BackgroundPhase",
    "CoefficientMatrix",
    "ConfigInvalidError",
    "ConstraintSystem",
    "EmptyGridError",
    "ExpPolynomial",
    "GamowSubspace",
    "GaussianRational",
    "IndexOutOfRangeError",
    "JTooLargeError",
    "NegativeTimeError",
    "NoConvergenceError",
    "OperatorOnM",
    "PoleEvaluationError",
    "Polynomial",
    "ResonancePole",
    "SMatrixModel",
    "StateOperator",
    "TestFunction",
    "TestFunctionPair",
    "analytic_derivatives",
    "binom",
    "build_constraints",
    "canonical_element",
    "certify",
    "conjugation_polys",
    "decay_deviation",
    "detector_probability",
    "dyad_operator",
    "evolution_matrix",
    "evolve_operator_symbolic",
    "evolved_norm_squared",
    "expansion_coeffs",
    "hamiltonian_action_matrix",
    "hamiltonian_matrix",
    "lineshape",
    "nilpotent_power",
    "oracle_evolution",
    "pole_expansion_coeffs",
    "pole_term",
    "pole_term_probability",
    "s_matrix_eval",
    "w_n",
]
