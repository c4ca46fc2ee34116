"""Resonance poles of arbitrary multiplicity.

Tools for a single higher-order pole of an analytically continued
S-matrix: partial-fraction expansion of the pole factor, pole terms from
exact Taylor jets of both legs at the pole (one exact polynomial in the
time shift per pairing), the finite Jordan-block subspace it generates,
semigroup time evolution on that subspace, density-operator families
with exactly exponential decay, and an exact integer-arithmetic
certificate that the binomial anti-diagonal family is the only one.
"""

import types

from .algebra import binom
from .errors import (
    ConfigInvalidError,
    EmptyGridError,
    IndexOutOfRangeError,
    NegativeTimeError,
    NoConvergenceError,
    PoleEvaluationError,
    VanishingPoleTermError,
)
from .jordan import (
    GamowSubspace,
    ResonancePole,
    conjugation_polys,
    evolution_matrix,
    hamiltonian_action_matrix,
    hamiltonian_matrix,
    nilpotent_norm,
    nilpotent_power,
)
from .smatrix import (
    BackgroundPhase,
    PoleJet,
    SMatrixModel,
    TestFunction,
    analytic_derivatives,
    lineshape,
    pole_expansion_coeffs,
    pole_jet,
    s_matrix_eval,
)
from .states import (
    StateOperator,
    decay_deviation,
    decay_table,
    dyad_operator,
    w_n,
    w_total,
)
from .uniqueness import build_constraints, certify

__version__ = "0.1.0"

# the names imported above, without the submodules that the imports bind
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
)
