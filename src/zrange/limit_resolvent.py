"""Zero-range limit of the two-channel resolvent on a product grid.

Setting: two identical particles, each feeling the same short-range
attractive potential of a third one, in the weak-contact regime (d=3, p=2)
with the two-body subsystem at its zero-energy resonance.  In the coordinates
x = x1 - x3, y = x2 - x3 the free operator, restricted to the s (x) s sector,
is K (+) K on a square product grid, both channels sharing the one kinetic K
at the channel's reduced mass: the cross-gradient term maps out of the
sector, so its in-sector block vanishes.

Everything acts on weight-scaled reduced waves U(r_x, r_y) flattened in C
order; the reduction conventions are those of operators.py, with the d=3
pairing <f, g> = 4 pi int f g r^2 dr.  Every apply (R0(z), W_eps(z), W(z))
takes one flattened vector or an (n, b) block of them as columns; R0(z) is
four BLAS matrix products in the eigenbasis of K for any b (LAPACK dstevd
on the two diagonals of K, as for K - V below).

At finite epsilon, W_eps(z) = (H_eps + z)^(-1) - (H0 + z)^(-1) is applied
as that difference.  H_eps + z = (K - V(x)) (+) (K - V(y)) + z is a
Kronecker sum like H0 + z, solved in the one eigenbasis of its channel
operator K - V by the same four products (fast diagonalization: Lynch,
Rice & Thomas, Numer. Math. 6 (1964) 185); twice the channel minimum is its
exact lowest level.  W(z) and W_eps(z) share the image R0(z) f, solved once
per study: 2 + len(eps) Kronecker-sum solves of its block of test functions.
The Konno-Kuroda form R0 B (1 - Q)^(-1) B R0, with B^2 = V(x) + V(y) and
Q = B R0 B, is the identity the tests check this difference against; its
four-term split of the outer factors lives in tests/oracles.py.

The candidate for the epsilon -> 0 limit of (H_eps + z)^(-1) - (H0 + z)^(-1)
is the rank-structured two-channel operator

    W(z) = (4 pi / sqrt(z)) (L1 L1^T + L2 L2^T) = (4 pi / sqrt(z)) R0(z) T R0(z),

Li = R0(z) tau_i, with tau_1 (tau_2) the reduced delta-line sources on the
contact line x = 0 (y = 0).  Their columns are scaled unit vectors, so
T = tau_1 tau_1^T + tau_2 tau_2^T is diagonal on the 2n - 1 line nodes
(the corner lies on both) and W(z), of that rank, is two R0 applies around a
diagonal scaling.  It is built from the free resolvent alone: a resonance
profile psi would enter only through <sqrt(V) psi>^2 / ((sqrt(z) / 4 pi)
<sqrt(V) psi>^2), which is the constant 4 pi / sqrt(z) whatever psi is.

This W(z) is not yet the limit, and that is the open defect of ROADMAP
item 4: its constant sqrt(z)/(4 pi) denominator and its uncoupled channels
leave a floor in ||W_eps(z) f - W(z) f||, so the per-halving orders fall
below 1/2 (test_limit_operator_is_reached_at_the_sqrt_eps_rate[limit_w] is
red for it), and at m != 1 it carries no a^(3/2) factor.  The grid-exact
Krein form that replaces it needs only the resolvent as well: tau, R0(z),
R0(0) and the fibers of the eigenbasis of K, and it applies
as R0 tau (Theta - M)^(-1) tau^T R0: a line-space solve between two R0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .birman_schwinger import SUPPORT_FLOOR, _critical_coupling
from .grids import RadialGrid
from .operators import _check_positive, _eigenvalues_in_place, discretize_h0
from .potentials import BasePotential, ScaledPotential, ScalingLaw, _decreasing_ladder


@dataclass(frozen=True)
class ProductGrid:
    """Square product of one radial grid (y fastest): the particles are identical, so gy must match gx."""

    gx: RadialGrid
    gy: RadialGrid

    def __post_init__(self):
        if not self.gx.matches(self.gy):
            raise ValueError("the product grid's y factor must equal its x factor: the rungs are calibrated on x")

    @property
    def n(self) -> int:
        return self.gx.n * self.gy.n

    def flatten(self, f_xy: np.ndarray) -> np.ndarray:
        return np.asarray(f_xy, dtype=float).reshape(self.n)


# ---------------------------------------------------------------------------
# separable free resolvent on the product grid (s (x) s sector)


def _kronecker_sum_solve(q: np.ndarray, denom: np.ndarray, f: np.ndarray) -> np.ndarray:
    """(H (+) H + z)^(-1) f for one flattened vector or an (n^2, b) block of them.

    q holds the eigenvectors of H, and denom[i, j] is lam[i] + lam[j] + z.
    C-order (n^2, b) is (n, n * b) by a plain reshape, so each x contraction
    is one matrix product, and each y contraction is a q product stacked over
    the n rows.
    """
    f = np.asarray(f, dtype=float)
    n = q.shape[0]
    t = q.T @ f.reshape(n, -1)
    t = np.matmul(q.T, t.reshape(n, n, -1))
    t /= denom[:, :, None]
    t = np.matmul(q, t).reshape(n, -1)
    return (q @ t).reshape(f.shape)


class ProductFreeResolvent:
    """(K (+) K + z)^(-1) through the one eigenbasis (mu, q) of the channel kinetic K.

    K is the d=3 kinetic at the channel's reduced mass m / (m + 1).  The
    resolvent carries its product grid and that reduced mass: the one place
    where the mass enters the product-grid layer.  assemble_w_eps, limit_w
    and calibrate_couplings read both.
    """

    def __init__(self, grid: ProductGrid, m: float = 1.0):
        _check_positive("mass m", m)
        self.grid = grid
        self.reduced_mass = m / (m + 1.0)
        self.kinetic = discretize_h0(grid.gx, 3, self.reduced_mass)
        self.mu, self.q = self.kinetic.eigenpairs(0.0)

    def denom(self, z: float) -> np.ndarray:
        return self.mu[:, None] + self.mu[None, :] + z

    def apply(self, z: float, f: np.ndarray) -> np.ndarray:
        """R0(z) f for one flattened vector, or for an (n, b) block of them."""
        return _kronecker_sum_solve(self.q, self.denom(z), f)

    def block(self, z: float, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Dense R0(z) sub-block for flattened index sets rows x cols."""
        n = self.grid.n
        out = np.empty((rows.size, cols.size))
        chunk = max(1, int(2e6 // n))
        for s in range(0, cols.size, chunk):
            e = min(s + chunk, cols.size)
            units = np.zeros((n, e - s))
            units[cols[s:e], np.arange(e - s)] = 1.0
            out[:, s:e] = self.apply(z, units)[rows]
        return out


# ---------------------------------------------------------------------------
# the limit operator W(z)


@dataclass
class LimitResolvent:
    """W(z) = coeff R0(z) T R0(z), coeff = 4 pi / sqrt(z).

    T = tau_1 tau_1^T + tau_2 tau_2^T is the diagonal weights: c^2 on the
    x = 0 line and on the y = 0 line, 2 c^2 at the corner on both, 0
    elsewhere.  The constant coeff and the uncoupled channels are the open
    defect of ROADMAP item 4 (module docstring).
    """

    z: float
    coeff: float
    resolvent: ProductFreeResolvent = field(repr=False)
    weights: np.ndarray = field(repr=False)

    def apply(self, f: np.ndarray) -> np.ndarray:
        """W(z) f for one flattened vector or an (n, b) block of them: R0, T, R0."""
        return self.apply_image(self.resolvent.apply(self.z, f))

    def apply_image(self, r0f: np.ndarray) -> np.ndarray:
        """W(z) f from the image r0f = R0(z) f: T, then R0."""
        u = self.weights[:, None] * r0f.reshape(self.resolvent.grid.n, -1)
        return self.coeff * self.resolvent.apply(self.z, u).reshape(r0f.shape)


def _line_source_scale(grid: RadialGrid) -> float:
    # Weight-scaled amplitude of the reduced delta line at x = 0: pairing
    # <delta^3 (x) g, F> = (1/sqrt(4 pi)) int g dU/dr_x(0, .) dr_y with
    # dU/dr_x(0) ~ U(r_1)/r_1 under the Dirichlet reduced wave.
    return 1.0 / (np.sqrt(4.0 * np.pi) * grid.nodes[0] * np.sqrt(grid.weights[0]))


def limit_w(z: float, resolvent: ProductFreeResolvent) -> LimitResolvent:
    """W(z) = (4 pi / sqrt(z)) R0(z) T R0(z) from the free resolvent alone.

    The product grid and the mass are those of resolvent.  T, the sum of the
    outer products of the delta-line sources on x = 0 and y = 0, is diagonal:
    only its weights are built, no source or R0 image, and W(z) has rank
    2n - 1.  No resonance profile enters: it would cancel from W
    exactly.  The constant denominator sqrt(z)/(4 pi) and the uncoupled
    channels are the open defect of ROADMAP item 4, whose Krein form fills
    this signature.
    """
    _check_positive("z", z)
    grid = resolvent.grid
    line = _line_source_scale(grid.gx) ** 2
    weights = np.zeros((grid.gx.n, grid.gx.n))
    weights[0, :] = line  # the x = 0 line
    weights[:, 0] += line  # the y = 0 line; the corner is on both
    return LimitResolvent(z, float(4.0 * np.pi / np.sqrt(z)), resolvent, grid.flatten(weights))


# ---------------------------------------------------------------------------
# finite-epsilon resolvent difference and the convergence study


@dataclass
class FiniteEpsilonResolvent:
    """W_eps(z) = (H_eps + z)^(-1) - (H0 + z)^(-1), the resolvent difference.

    kernel_q holds the eigenvectors of the channel operator K - V, and
    kernel_denom[i, j] = lam[i] + lam[j] + z, all positive, is the spectrum
    of H_eps + z.  support holds the flattened nodes where V(x) + V(y)
    exceeds SUPPORT_FLOOR times its peak.
    """

    z: float
    support: np.ndarray = field(repr=False)
    kernel_q: np.ndarray = field(repr=False)
    kernel_denom: np.ndarray = field(repr=False)
    resolvent: ProductFreeResolvent = field(repr=False)

    def apply(self, f: np.ndarray) -> np.ndarray:
        """W_eps(z) f for one flattened vector or an (n, b) block of them: (H_eps + z)^(-1) f - R0(z) f."""
        return self.apply_image(f, self.resolvent.apply(self.z, f))

    def apply_image(self, f: np.ndarray, r0f: np.ndarray) -> np.ndarray:
        """W_eps(z) f given the image r0f = R0(z) f: one Kronecker-sum solve of H_eps + z."""
        return _kronecker_sum_solve(self.kernel_q, self.kernel_denom, f) - r0f


def assemble_w_eps(z: float, v_scaled: ScaledPotential, resolvent: ProductFreeResolvent) -> FiniteEpsilonResolvent:
    """W_eps(z) on the product grid of resolvent, at its mass.

    H_eps + z = h (+) h + z with the channel operator h = K - V, whose
    eigenvalues are the sums lam[i] + lam[j] + z: one n-sized eigensolve
    gives the exact gate (no three-body level below -z iff
    2 lam[0] + z > 0) and the solver behind apply().
    By congruence the gate is the Birman-Schwinger principle: with
    B = sqrt(V(x) + V(y)) on the support (V(x) + V(y) > SUPPORT_FLOOR times
    its peak), 1 - Q, Q = B R0(z) B, is positive definite exactly when
    H_eps + z is.  The dense block of Q and its top eigenvalue are computed
    only when the gate fails, for the error message, next to the lowest
    level 2 lam[0] of H_eps.
    """
    _check_positive("z", z)
    grid = resolvent.grid
    v = v_scaled(grid.gx.nodes)
    v_sum = grid.flatten(v[:, None] + v[None, :])
    support = np.flatnonzero(v_sum > SUPPORT_FLOOR * v_sum.max())
    if support.size == 0:
        raise ValueError("potential vanishes on the product grid")
    lam, q = resolvent.kinetic.eigenpairs(-v)
    lowest = float(2.0 * lam[0])
    if lowest + z <= 0.0:
        b_sup = np.sqrt(v_sum[support])
        q_sup = resolvent.block(z, support, support) * np.outer(b_sup, b_sup)
        raise ValueError(
            f"1 - Q(z={z:g}) not invertible at eps={v_scaled.law.epsilon:g}: top eigenvalue "
            f"{_eigenvalues_in_place(q_sup)[-1]:.6f}, lowest level {lowest:.12g} of H_eps (three-body level below -z)"
        )
    return FiniteEpsilonResolvent(
        z=z,
        support=support,
        kernel_q=q,
        kernel_denom=lam[:, None] + lam[None, :] + z,
        resolvent=resolvent,
    )


def calibrate_couplings(potential: BasePotential, eps_list, resolvent: ProductFreeResolvent) -> dict:
    """Critical coupling of the node-sampled scaled channel at each epsilon.

    The resonance is computed at the channel's reduced mass m / (m + 1) from
    the potential's values at the nodes of the resolvent's radial grid, so the
    calibration matches exactly what a product-grid assembly of the same
    samples sees; this is what keeps an epsilon ladder on resonance when the
    scaled well is carried by a handful of log nodes.  The p=2 scaling
    preserves the zero-energy resonance exactly in the continuum; per-rung
    recalibration on the sampled values removes the residual discretization
    detuning, which would otherwise dominate the distance to the limit
    operator.  Each value is the strength at which the unit-strength profile
    is resonant, whatever the strength of potential.
    """
    grid, m_ch = resolvent.grid.gx, resolvent.reduced_mass
    out = {}
    for eps in eps_list:
        scaled = ScaledPotential(potential, ScalingLaw(2, float(eps), 3))
        out[float(eps)] = _critical_coupling(scaled, grid, m_ch) * potential.strength
    return out


@dataclass
class ConvergenceReport:
    epsilons: np.ndarray
    discrepancies: np.ndarray  # (n_eps, n_test): ||W_eps f - W f|| / ||f||
    w_eps_f: np.ndarray = field(repr=False)  # (n_eps, n_test, n): W_eps(z) f
    monotone: bool
    reduction_factors: np.ndarray
    couplings: dict  # rung epsilon -> calibrated coupling


def convergence_study(
    z: float,
    potential: BasePotential,
    eps_list,
    grid: ProductGrid,
    test_functions: np.ndarray,
    m: float = 1.0,
) -> ConvergenceReport:
    """Strong-convergence test of W_eps(z) toward the limit operator W(z).

    Each rung of the decreasing epsilon ladder is assembled at its own
    critical coupling, so the two-body channel stays exactly resonant; the
    limit W(z) is limit_w(z, R0) and needs no resonance, so the study solves
    one resonance per rung, on the grid's one radial factor.  Reported
    discrepancies are ||W_eps(z) f - W(z) f|| / ||f|| per test function; the
    family W_eps(z) f itself is kept in the report.  The test functions are
    applied as one block, and its one image R0(z) f serves W(z) and every
    rung: 2 + len(eps_list) Kronecker-sum solves of the block in all.
    """
    _check_positive("z", z)
    eps_list = _decreasing_ladder(eps_list)
    if eps_list.size == 0 or not np.all((eps_list > 0.0) & (eps_list <= 1.0)):
        raise ValueError(f"epsilon ladder must be non-empty with every rung finite and in (0, 1], got {eps_list}")
    fs = np.atleast_2d(np.asarray(test_functions, dtype=float))
    if fs.ndim != 2 or fs.shape[1] != grid.n:
        raise ValueError(f"test functions must have length grid.n = {grid.n}, got shape {fs.shape}")
    if not np.all(np.isfinite(fs)):
        raise ValueError("test functions must be finite (no NaN or inf)")
    if np.any(np.linalg.norm(fs, axis=1) == 0.0):
        raise ValueError("test functions must have nonzero norm")
    res = ProductFreeResolvent(grid, m)
    couplings = calibrate_couplings(potential, eps_list, res)
    w_model = limit_w(z, res)
    # every test function is one column of a single (n, n_test) block, with one R0(z) image
    cols = np.ascontiguousarray(fs.T)
    r0f = res.apply(z, cols)
    wf = w_model.apply_image(r0f).T
    norms = np.linalg.norm(fs, axis=1)
    discrepancies = np.empty((eps_list.size, fs.shape[0]))
    w_eps_f = np.empty((eps_list.size, *fs.shape))
    for k, eps in enumerate(eps_list):
        scaled = ScaledPotential(
            BasePotential(potential.profile, couplings[float(eps)], potential.range), ScalingLaw(2, eps, 3)
        )
        w_eps_f[k] = assemble_w_eps(z, scaled, res).apply_image(cols, r0f).T
        discrepancies[k] = np.linalg.norm(w_eps_f[k] - wf, axis=1) / norms
    monotone = bool(np.all(np.diff(discrepancies, axis=0) < 0.0))
    reduction = discrepancies[0] / discrepancies[-1]
    return ConvergenceReport(eps_list, discrepancies, w_eps_f, monotone, reduction, couplings)
