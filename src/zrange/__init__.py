"""Numerical toolkit for zero-range (contact and weak-contact) interactions.

Desk-scale machinery for epsilon-scaled potential families, Birman-Schwinger
resonance detection, Konno-Kuroda resolvent assembly, the two-channel limit
resolvent, and the Efimov/Thomas spectral behavior of the effective singular
operators in d = 2, 3.
"""

from .grids import GridError, GridFunction, RadialGrid, build_grid
from .operators import (
    OperatorMatrix,
    SingularSystemError,
    SpectrumReport,
    TridiagonalOperator,
    discretize_h0,
    hyperradial_kinetic,
)
from .potentials import (
    BasePotential,
    ScaledPotential,
    ScalingLaw,
    ScalingLawError,
    l1_norm,
    l2_norm,
    rollnik_norm,
    scale_potential,
)
from .birman_schwinger import (
    BoundaryFit,
    Resonance,
    ResonanceReport,
    TwoResonanceMatrix,
    boundary_fit,
    bs_count_above_one,
    bs_operator,
    find_resonance_coupling,
    resonance,
    two_resonance_matrix,
)
from .konno_kuroda import (
    DefectReport,
    ResolventDifference,
    additivity_defect,
    assemble_resolvent_diff,
    cross_term_norm,
    direct_resolvent_diff,
    independence_spectrum_check,
    negative_count_direct,
)
from .limit_resolvent import (
    LimitResolvent,
    ProductFreeResolvent,
    ProductGrid,
    assemble_w_eps,
    convergence_study,
    limit_w,
)
from .efimov import (
    GeometricRatio,
    MassSweepReport,
    ThresholdReport,
    effective_operator,
    find_thresholds,
    geometric_ratio,
    hyperradial_reduce,
    kernel22,
    mass_sweep_2d,
    operator_spectrum,
)

__version__ = "0.1.0"
