"""Exactly verified ladder-operator structure on half-line Laguerre bases.

The package builds the orthonormal carrier functions on the half line and
on the plane, realizes the sixteen named ladder generators on them (shift
actions on labels and first-order differential forms), and machine-checks
the commutator, Casimir and closure identities they satisfy, exactly where
the arithmetic allows and to stated tolerances elsewhere.
"""

__version__ = "0.1.0"

from .basis import BasisIndex, Carrier, carrier_L, carrier_M, evaluate, evaluate_derivative
from .exactpoly import LaurentPoly, alpha_ladder_check, de_residual, laguerre
from .opalgebra import (
    OperatorName,
    StructureConstants,
    apply_diff,
    apply_label,
    casimir_eigenvalue,
    commutator_label,
    derive_structure_constants,
    e_residual_symbolic,
    killing_casimir,
    su2_block_scale,
)
from .plane import (
    Field2D,
    ModeCoefficients,
    ModeIndex,
    PolarGrid,
    apply_mode_operator,
    decompose,
    eval_Z,
    gram_2d,
    mode_casimir,
    mode_commutator,
    reconstruct,
)
from .quadrature import (
    QuadratureRule,
    gauss_laguerre,
    gram_matrix,
    inner_product,
    projection_convergence,
    weighted_inner_product,
)
