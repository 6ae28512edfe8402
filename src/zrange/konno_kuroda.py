"""Konno-Kuroda resolvent assembly and the independence/additivity defects.

The factorized resolvent difference for H = H0 - V, V >= 0, B = sqrt(V) is

    R(z) - R0(z) = [R0(z) B] [1 - Q(z)]^(-1) [B R0(z)],   Q = B R0 B,

valid whenever 1 - Q(z) is invertible.  H0 is the boxed kinetic matrix, a
TridiagonalOperator, so every (H0 - V + z)^(-1) here is its banded inverse
and the direct negative count one Sturm sweep of H0 - V; 1 - Q
itself stays a dense matrix with a dense LU solve, so that the assembly is
checked against the direct route and not against its own algebra.

The module also quantifies, at finite epsilon, the mechanisms that make
contact, weak-contact, and regular potentials act independently in the
limit: the L1 cross term
|| sqrt(V1_eps) sqrt(U_eps) ||_1 -> 0 and the additivity defect
|| (sqrt(V2_eps) + sqrt(V3))^2 - V2_eps - V3 ||_1 = O(eps).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .grids import GridFunction, RadialGrid, build_grid
from .operators import OperatorMatrix, SingularSystemError, TridiagonalOperator, _check_positive, _dense_eigenvalues, check_symmetric
from .potentials import BasePotential, ScaledPotential, ScalingLaw, _decreasing_ladder, _potential_values, l1_norm

SINGULAR_FLOOR = 1e-10
N_COMPARE = 3  # low-lying levels compared by independence_spectrum_check


@dataclass
class ResolventDifference:
    """R(z) - R0(z), with the smallest |eigenvalue| of 1 - Q(z) when assembled through Q."""

    matrix: OperatorMatrix
    z: float
    smallest_one_minus_q: float = float("nan")


@dataclass
class DefectReport:
    """Norm values along a decreasing epsilon ladder with a power-law fit."""

    epsilons: np.ndarray
    values: np.ndarray
    fitted_exponent: float
    flags: list = field(default_factory=list)

    def __post_init__(self):
        self.epsilons = _decreasing_ladder(self.epsilons)
        self.values = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(self.values)) or np.any(self.values < 0.0):
            raise ValueError("defect values must be finite and nonnegative")


def _fit_exponent(epsilons: np.ndarray, values: np.ndarray) -> float:
    pos = values > 0.0
    if np.sum(pos) < 2:
        return float("nan")
    slope = np.polyfit(np.log(epsilons[pos]), np.log(values[pos]), 1)[0]
    return float(slope)


def assemble_resolvent_diff(v: GridFunction, z: float, h0: TridiagonalOperator) -> ResolventDifference:
    """Assemble R(z) - R0(z) = R0 B (1 - Q)^(-1) B R0 on the grid of V.

    h0 must be a TridiagonalOperator built on the grid of V.
    Raises SingularSystemError when the smallest |eigenvalue| of the
    symmetric 1 - Q(z) is at most SINGULAR_FLOOR.
    """
    _check_positive("z", z)
    if np.any(_potential_values(v) < 0.0):
        raise ValueError("potential values must be nonnegative")
    grid = v.grid
    h0 = TridiagonalOperator.require(h0, grid)
    n = h0.n
    r0 = h0.inverse(z)
    b = np.sqrt(v.values)
    q = (r0 * np.outer(b, b))
    one_minus_q = np.eye(n) - 0.5 * (q + q.T)
    smallest = float(np.abs(_dense_eigenvalues(one_minus_q)).min())
    if smallest <= SINGULAR_FLOOR:
        raise SingularSystemError(
            f"1 - Q(z={z:g}) is singular (eigenvalue of H0 - V at -z)", smallest
        )
    left = r0 * b[None, :]  # R0 B
    mid = np.linalg.solve(one_minus_q, left.T)
    diff = left @ mid
    diff = 0.5 * (diff + diff.T)
    mat = OperatorMatrix(diff, grid, label=f"R-R0(z={z:g})")
    return ResolventDifference(mat, z, smallest)


def direct_resolvent_diff(v: GridFunction, z: float, h0: TridiagonalOperator) -> ResolventDifference:
    """(H0 - V + z)^(-1) - (H0 + z)^(-1), each by one banded LU solve (oracle route).

    h0 must be a TridiagonalOperator built on the grid of V.
    """
    _check_positive("z", z)
    grid = v.grid
    h0 = TridiagonalOperator.require(h0, grid)
    full = h0.inverse(z - _potential_values(v))
    free = h0.inverse(z)
    diff = 0.5 * ((full - free) + (full - free).T)
    return ResolventDifference(OperatorMatrix(diff, grid, label="direct"), z)


def cross_term_norm(
    v1: BasePotential,
    law1: ScalingLaw,
    u: BasePotential,
    law_u: ScalingLaw,
    eps_list,
    grid: RadialGrid,
) -> DefectReport:
    """L1 norm of sqrt(V1_eps) sqrt(U_eps) along a decreasing epsilon ladder.

    V1 carries the contact law; U carries the weak law or stays unscaled
    (law_u.p None).  The report includes the fitted power-law exponent.
    Each norm is recomputed on a grid of twice the nodes, and a value that
    moves by more than 1% is flagged.
    """

    def integrand(eps, r):
        f1 = ScaledPotential(v1, law1.with_epsilon(eps))(r)
        fu = ScaledPotential(u, law_u.with_epsilon(eps) if law_u.p is not None else law_u)(r)
        return np.sqrt(f1) * np.sqrt(fu)

    eps_list = np.asarray(list(eps_list), dtype=float)
    fine = _refine(grid)
    values = []
    flags = []
    for eps in eps_list:
        val = l1_norm(integrand(eps, grid.nodes), grid, law1.d)
        val_f = l1_norm(integrand(eps, fine.nodes), fine, law1.d)
        if val > 0 and abs(val_f - val) > 0.01 * val:
            flags.append(f"quadrature_not_converged@eps={eps:g}")
        values.append(val)
    values = np.array(values)
    return DefectReport(eps_list, values, _fit_exponent(eps_list, values), flags)


def additivity_defect(
    v2: BasePotential,
    law2: ScalingLaw,
    v3: BasePotential,
    eps_list,
    grid: RadialGrid,
) -> DefectReport:
    """|| (sqrt(V2_eps) + sqrt(V3))^2 - V2_eps - V3 ||_1 = 2 || sqrt(V2_eps V3) ||_1.

    V2 carries a weak-contact law, V3 is unscaled.  The right-hand side is evaluated, as twice
    the cross term of V2 with the unscaled V3, with the cross term's flags and fitted exponent.
    """
    rep = cross_term_norm(v2, law2, v3, ScalingLaw(None, 1.0, law2.d), eps_list, grid)
    return replace(rep, values=2.0 * rep.values)


def _refine(grid: RadialGrid) -> RadialGrid:
    return build_grid(2 * grid.n, grid.r_max, grid.spacing, r_min=grid.nodes[0] if grid.spacing == "logarithmic" else None)


def negative_count_direct(h0: TridiagonalOperator, v: GridFunction) -> int:
    """Number of negative eigenvalues of H0 - V, from one Sturm sweep of the tridiagonal.

    The count is independent of the Birman-Schwinger count it checks: it reads H0 - V, not Q.
    """
    return TridiagonalOperator.require(h0, v.grid).count_negative(-_potential_values(v))


@dataclass
class IndependenceReport:
    epsilons: np.ndarray
    discrepancies: np.ndarray
    decreasing: bool


def independence_spectrum_check(
    v1: BasePotential | None,
    law1: ScalingLaw | None,
    v2: BasePotential | None,
    law2: ScalingLaw | None,
    v3: BasePotential | None,
    eps_list,
    z: float,
    h0: TridiagonalOperator,
) -> IndependenceReport:
    """Compare the spectrum of H0 - V1_eps - V2_eps - V3 with the additive
    resolvent prediction R0 + sum of single-potential differences.

    The potentials are sampled on the grid of h0.  The N_COMPARE lowest
    levels above -z of the full Hamiltonian come from its tridiagonal
    spectrum, those of the prediction from the predicted resolvent
    (E = 1/mu - z), and the maximal discrepancy delta(eps) is reported
    along the ladder, which must be strictly decreasing.  Every resolvent
    is the banded inverse of the tridiagonal H0 - V + z.
    """
    _check_positive("z", z)
    grid = h0.grid
    h0 = TridiagonalOperator.require(h0, grid)
    scaled = ((v1, law1), (v2, law2))
    for i, (v, law) in enumerate(scaled, 1):
        if v is not None and law is None:
            raise ValueError(f"v{i} is given without its scaling law: law{i} is None")
    eps_list = _decreasing_ladder(eps_list)
    r0 = h0.inverse(z)
    deltas = []
    for eps in eps_list:
        parts = [ScaledPotential(v, law.with_epsilon(eps))(grid.nodes) for v, law in scaled if v is not None]
        if v3 is not None:
            parts.append(v3(grid.nodes))
        if not parts:
            raise ValueError("need at least one potential")
        levels = h0.eigenvalues(-np.sum(parts, axis=0))
        e_full = levels[levels > -z][:N_COMPARE]
        pred = r0.copy()
        for p in parts:
            pred += h0.inverse(z - p) - r0
        e_pred = _low_lying_from_resolvent(pred, z, N_COMPARE)
        k = min(e_full.size, e_pred.size)
        if k == 0:
            deltas.append(0.0)
        else:
            deltas.append(float(np.max(np.abs(e_full[:k] - e_pred[:k]))))
    deltas = np.array(deltas)
    decreasing = bool(np.all(np.diff(deltas) < 0.0)) if deltas.size >= 2 else True
    return IndependenceReport(eps_list, deltas, decreasing)


def _low_lying_from_resolvent(res: np.ndarray, z: float, k: int) -> np.ndarray:
    """Lowest-lying Hamiltonian eigenvalues encoded in a resolvent matrix."""
    check_symmetric(res, "resolvent", rtol=1e-8)
    mu = _dense_eigenvalues(0.5 * (res + res.T))
    top = mu[-k:][::-1]  # largest resolvent eigenvalues = lowest energies
    top = top[top > 0.0]
    return 1.0 / top - z
