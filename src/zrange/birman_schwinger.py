"""Birman-Schwinger operators, zero-energy resonances, and boundary fits.

The Birman-Schwinger operator for an attractive potential -V and spectral
parameter z > 0 is

    Q(z) = sqrt(V) (H0 + z)^(-1) sqrt(V),

whose eigenvalues crossing 1 signal eigenvalues of H0 - V below -z.  A
two-body zero-energy resonance is the critical situation where the top
eigenvalue of Q equals 1 as z -> 0+; the resonance wave behaves like
C/r + D outside the potential with D = 0 exactly at criticality.

In d=3 the reduced kernel sinh(kappa r<) e^(-kappa r>) / kappa is entire in
kappa = sqrt(2 m z) and equals 2m min(r, r') at kappa = 0, so Q(0) is a
bounded matrix and q(0+) is its top eigenvalue: z = 0 is exact, not
approached.  Every other z keeps the floor Z_FLOOR.  Q is linear in
the coupling, so the critical coupling is the closed form 1/q(0+);
resonance() is the one routine that computes it, together with the
resonance wave.

The d=3 kernel is semiseparable (a product a(r<) b(r>)), so on the support
nodes r_1 < ... < r_k of V (r_0 = 0, h_i = r_i - r_(i-1)) the whole-space
Q(z) is the inverse of B^T B for a lower bidiagonal B in closed form:

    B_ii = e^(kappa h_i/2) / (s_i e_i),  B_i,i-1 = -e^(-kappa h_i/2) / (s_i e_(i-1)),

with e_i = sqrt(2m w_i V_i) and s_i = sqrt(sinh(kappa h_i)/kappa) (sqrt(h_i)
at z = 0).  The top eigenvalue of Q is 1/sigma^2 for the smallest singular
value sigma of B alone, which bisection on B's Golub-Kahan form returns to a
few ulps relative (Demmel & Kahan, SIAM J. Sci. Stat. Comput. 11 (1990)
873), and the top eigenvector is the null vector of the tridiagonal
B^T B - sigma^2, found by inverse iteration: O(k) work per bisection step
and per solve, where a dense Q and its eigensolve cost O(k^3).

bs_operator assembles the other Q(z), that of a boxed, discretized H0.  By
the Birman-Schwinger principle the number of eigenvalues of H0 - V below -z
is the number of eigenvalues of that Q(z) above 1, and bs_count_above_one
reads the count from the inertia of one LDL^T of Q - 1, not from the
spectrum of Q.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grids import GridFunction, RadialGrid, build_grid
from .operators import LAPACK_INT, OperatorMatrix, TridiagonalOperator, _check_positive, _count_above, _lapack, _smallest_singular_value, discretize_h0
from .potentials import BasePotential, ScaledPotential, ScalingLaw, _potential_values

Z_FLOOR = 1e-8
RESONANCE_TOL = 5e-3
FIT_RESIDUAL_TOL = 1e-3  # relative rms misfit above which a boundary fit is non-asymptotic
# Nodes where the diagonal 2m r w V of Q(0) is at most this fraction of its
# peak carry no weight in Q; limit_resolvent cuts V(x) + V(y) by the same fraction.
SUPPORT_FLOOR = 1e-14

# Truncation radius of each profile in units of (range * epsilon): beyond it
# the potential is below ~1e-14 of its peak.
_SUPPORT_CUT = {"gaussian": 5.8, "square_well": 1.0, "exponential": 33.0}


def support_radius(potential: BasePotential, law: ScalingLaw) -> float:
    """Radius beyond which the (scaled) profile is numerically negligible."""
    eps = 1.0 if law.p is None else law.epsilon
    return _SUPPORT_CUT[potential.profile] * potential.range * eps


def _check_z(z: float, zero_ok: bool):
    if not ((zero_ok and z == 0.0) or (np.isfinite(z) and z >= Z_FLOOR)):
        raise ValueError(f"z={z!r} must be finite and not below the floor {Z_FLOOR:g}")


def bs_operator(v: GridFunction, z: float, h0: TridiagonalOperator, resolvent: str = "grid") -> OperatorMatrix:
    """Assemble Q(z) = sqrt(V) (H0 + z)^(-1) sqrt(V) on the grid carrying V.

    h0 is the boxed H0, a TridiagonalOperator built on the grid of V whose
    entries carry its dimension and mass.  (H0 + z)^(-1) comes from LAPACK
    dgtsv on the tridiagonal H0 + z against the identity, which keeps the
    eigenvalue count of Q consistent with the spectrum of that same boxed
    H0 - V (the Birman-Schwinger principle then holds as a matrix identity).
    z must be finite and at least Z_FLOOR.
    """
    # "grid" is the one route; the keyword stays for callers that name it
    if resolvent != "grid":
        raise ValueError("resolvent must be 'grid'")
    _check_z(z, False)
    vals = _potential_values(v)
    if np.any(vals < 0.0):
        raise ValueError("potential values must be nonnegative (attractive convention)")
    h0 = TridiagonalOperator.require(h0, v.grid)
    sqv = np.sqrt(vals)
    q = h0.inverse(z) * np.outer(sqv, sqv)
    return OperatorMatrix(0.5 * (q + q.T), v.grid, label=f"Q(z={z:g})")


def bs_count_above_one(q: OperatorMatrix) -> int:
    """Number of Birman-Schwinger eigenvalues exceeding 1, from the inertia of one LDL^T of Q - 1."""
    return _count_above(q.entries, 1.0)


@dataclass
class Resonance:
    """Zero-energy Birman-Schwinger resonance of a potential V.

    q0 is the top eigenvalue of Q(0) for V, so coupling * V is critical.
    phi is its eigenvector on the support nodes of V; psi = u / r on the
    evaluation grid, u = R0(0) sqrt(coupling V) phi, normalized so that
    <coupling V, psi> = 1.  Q(0) is entrywise positive on the support of V,
    so its top eigenvalue is simple (Perron-Frobenius).
    """

    q0: float
    phi: np.ndarray = field(repr=False)
    psi: GridFunction = field(repr=False)

    @property
    def coupling(self) -> float:
        """Critical coupling lambda_c = 1/q(0+)."""
        return 1.0 / self.q0


def _on_support(v: GridFunction) -> GridFunction:
    """V restricted to its support: the nodes where Q(0)'s diagonal 2m r w V exceeds SUPPORT_FLOOR of its peak."""
    vals, grid = _potential_values(v), v.grid
    if np.any(vals < 0.0) or not vals.max() > 0.0:
        raise ValueError("potential must be nonnegative and not vanish on the grid")
    diag = grid.nodes * grid.weights * vals
    sup = np.flatnonzero(diag > SUPPORT_FLOOR * diag.max())
    return GridFunction(RadialGrid(grid.nodes[sup], grid.weights[sup], grid.spacing, grid.r_max), vals[sup])


def _root_weights(v: GridFunction, m: float) -> np.ndarray:
    """e_i = sqrt(2m w_i V_i), the weights of the closed-form bidiagonal B."""
    return np.sqrt(2.0 * m * v.grid.weights * v.values)


def _whole_space_root(v: GridFunction, z: float, m: float) -> np.ndarray:
    """The closed-form bidiagonal B as its Golub-Kahan off-diagonal B_11, B_21, B_22, B_32, ..., B_kk.

    B is the lower bidiagonal with Q(z) = (B^T B)^(-1) for the d=3
    whole-space Q(z) of V > 0 (module docstring), so the top eigenvalue of
    Q(z) is 1 / sigma^2 for the smallest singular value sigma of B, which
    B^T, upper bidiagonal with the same Golub-Kahan form, shares.  B is
    carried in that one array, which the bisection reads as it is.
    """
    _check_z(z, True)
    e, h = _root_weights(v, m), np.diff(v.grid.nodes, prepend=0.0)
    if z == 0.0:
        diag2 = sub2 = 1.0 / h
    else:
        # B_ii^2 e_i^2 = kappa e^(kappa h) / sinh(kappa h) and B_i,i-1^2 e_(i-1)^2 =
        # kappa e^(-kappa h) / sinh(kappa h), through expm1: exact at small kappa h.
        # Past x = 709.78 expm1(x) overflows, and x / inf = 0 is the value to working
        # precision: the exact x / (e^x - 1) is below 4e-306 there, and B_i,i-1 is
        # under e^(-x/2) < 1e-154 of B_i-1,i-1 in its column.
        x = 2.0 * np.sqrt(2.0 * m * z) * h
        with np.errstate(over="ignore"):
            diag2, sub2 = x / -np.expm1(-x) / h, x / np.expm1(x) / h
    gk = np.empty(2 * e.size - 1)
    gk[0::2], gk[1::2] = np.sqrt(diag2) / e, -np.sqrt(sub2[1:]) / e[:-1]
    return gk


def _whole_space_q0(v: GridFunction, z: float, m: float) -> float:
    """Top eigenvalue of the d=3 whole-space Q(z) of V > 0, from B's smallest singular value alone."""
    sigma = _smallest_singular_value(_whole_space_root(v, z, m))
    return 1.0 / (sigma * sigma)  # the arithmetic of _whole_space_top, bit for bit


def _whole_space_top(v: GridFunction, z: float, m: float):
    """Top eigenvalue and eigenvector of the d=3 whole-space Q(z) of V > 0.

    The eigenvalue comes from the smallest singular value of B
    (_whole_space_root).  The unit eigenvector is positive, as the Perron
    vector of the positive kernel.
    """
    gk = _whole_space_root(v, z, m)
    sigma = _smallest_singular_value(gk)
    top = 1.0 / (sigma * sigma)
    if gk.size == 1:
        return top, np.ones(1)
    # inverse iteration on the tridiagonal B^T B - sigma_min^2, factored once by
    # LAPACK dgttrf; three dgttrs solves, one more than it takes to agree with
    # dense eigh to rounding
    diag, sub = gk[0::2], gk[1::2]
    n, shift = diag.size, sigma**2
    off = sub * diag[1:]
    dl, d, du = off.copy(), diag**2 + np.append(sub**2, 0.0) - shift, off.copy()
    du2, ipiv = np.empty(n - 2), np.empty(n, dtype=LAPACK_INT)
    _lapack("dgttrf", n, dl, d, du, du2, ipiv)
    # The shifted matrix is singular to working precision, so a pivot can
    # come out exactly zero (dgttrf info > 0, seen on drawn gaussians).  A
    # pivot of eps * shift in its place, far below the spectral gap, still
    # returns the null vector.
    d[d == 0.0] = np.finfo(float).eps * shift
    # e anew: held through the bisection, it would add to the peak of a resonance run
    e = _root_weights(v, m)
    phi = e / np.linalg.norm(e)
    for _ in range(3):
        _lapack("dgttrs", b"N", n, 1, dl, d, du, du2, ipiv, phi, n)
        phi /= np.linalg.norm(phi)
    return top, phi if phi.sum() > 0.0 else -phi


def resonance(
    potential,
    grid: RadialGrid,
    m: float = 0.5,
    eval_grid: RadialGrid | None = None,
) -> Resonance:
    """Resonance of the radial potential r -> V(r) >= 0 in d=3.

    V is sampled on the grid and restricted to its support (the diagonal of
    Q(0) above SUPPORT_FLOOR of its peak); the top eigenpair of Q(0) there, from its
    closed-form bidiagonal inverse root, gives q(0+) and phi.  psi lives on
    eval_grid (default: grid), where V is evaluated again for its
    normalization.  m is the reduced mass of the pair.
    """
    _check_positive("mass m", m)
    eval_grid = grid if eval_grid is None else eval_grid
    v = _on_support(GridFunction(grid, potential(grid.nodes)))
    sub = v.grid
    q0, phi = _whole_space_top(v, 0.0, m)
    # u = R0(0) sqrt(lam V) phi on eval_grid, psi = u / r with <lam V, psi> = 1
    lam = 1.0 / q0
    src = np.sqrt(lam * v.values) * phi * np.sqrt(sub.weights)
    r = eval_grid.nodes
    # u(r) = 2m sum_j min(r, r_j) src_j, split at r into two running sums: O(n + k)
    cut = np.searchsorted(sub.nodes, r)
    below = np.append(0.0, np.cumsum(sub.nodes * src))[cut]
    above = np.append(np.cumsum(src[::-1])[::-1], 0.0)[cut]
    psi = 2.0 * m * (below + r * above) / r
    psi /= 4.0 * np.pi * eval_grid.integrate(lam * potential(r) * psi * r**2)
    return Resonance(q0, phi, GridFunction(eval_grid, psi))


def _critical_coupling(potential, grid: RadialGrid, m: float) -> float:
    """resonance(potential, grid, m).coupling, bit for bit, from B's smallest singular value alone."""
    return 1.0 / _whole_space_q0(_on_support(GridFunction(grid, potential(grid.nodes))), 0.0, m)


@dataclass
class ResonanceReport:
    """Critical coupling and the associated zero-energy resonance data."""

    lambda_critical: float
    bs_top_eigenvalue: float
    boundary_C: float
    boundary_D: float
    resonance_profile: GridFunction = field(repr=False)
    fit_residual: float = 0.0
    flags: list = field(default_factory=list)


@dataclass
class BoundaryFit:
    C: float
    D: float
    residual: float
    flags: list = field(default_factory=list)


def boundary_fit(psi: GridFunction, support_radius: float) -> BoundaryFit:
    """Least-squares fit psi(r) ~ C/r + D over [2*support_radius, r_max/2].

    The relative rms misfit above FIT_RESIDUAL_TOL is flagged as non-asymptotic.
    """
    r = psi.grid.nodes
    lo, hi = 2.0 * support_radius, psi.grid.r_max / 2.0
    sel = (r >= lo) & (r <= hi)
    if np.sum(sel) < 4:
        raise ValueError(f"fit window [{lo:g}, {hi:g}] holds fewer than 4 nodes")
    rw = r[sel]
    yw = psi.values[sel]
    a = np.column_stack([1.0 / rw, np.ones_like(rw)])
    coef, *_ = np.linalg.lstsq(a, yw, rcond=None)
    resid = np.linalg.norm(a @ coef - yw)
    scale = max(np.linalg.norm(yw), 1e-300)
    rel = float(resid / scale)
    flags = ["non_asymptotic"] if rel > FIT_RESIDUAL_TOL else []
    return BoundaryFit(float(coef[0]), float(coef[1]), rel, flags)


def _resonance_quadrature_grid(potential: BasePotential, law: ScalingLaw, n: int) -> RadialGrid:
    # Q(z) only sees the potential support; resolve it with a linear grid.
    r_cut = support_radius(potential, law)
    return build_grid(n, r_cut, "linear")


def find_resonance_coupling(
    potential: BasePotential,
    law: ScalingLaw,
    bracket: tuple = (0.1, 50.0),
    n: int = 800,
    m: float = 0.5,
) -> ResonanceReport:
    """Critical coupling of the scaled family, which must lie in the bracket.

    The scaled family eps^(-p) lam V(r/eps) is resonant when the top
    eigenvalue of Q(0) equals 1, at lam = 1/q(0+) of the unit-strength
    profile.  The report carries the zero-energy profile on an extended
    logarithmic grid out to max(80, 8 r_s), r_s the support radius, so that
    the boundary fit window [2 r_s, r_max/2] is never empty; the profile is
    normalized to <V,psi> = 1 and fitted for its boundary coefficients (C, D).
    """
    if law.d != 3:
        raise ValueError("resonance detection is implemented for d=3")
    lo, hi = float(bracket[0]), float(bracket[1])
    if not 0.0 < lo < hi:
        raise ValueError("bracket must satisfy 0 < lo < hi")
    grid = _resonance_quadrature_grid(potential, law, n)
    unit = ScaledPotential(BasePotential(potential.profile, 1.0, potential.range), law)
    r_s = support_radius(potential, law)
    eval_grid = build_grid(600, max(80.0, 8.0 * r_s), "logarithmic", r_min=grid.nodes[0])
    res = resonance(unit, grid, m, eval_grid)
    lam_c = res.coupling
    if not lo <= lam_c <= hi:
        raise ValueError(f"critical coupling lambda_c = 1/q(0+) = {lam_c:.6g} lies outside the bracket ({lo:g}, {hi:g})")
    fit = boundary_fit(res.psi, r_s)
    return ResonanceReport(
        lambda_critical=lam_c,
        bs_top_eigenvalue=lam_c * res.q0,
        boundary_C=fit.C,
        boundary_D=fit.D,
        resonance_profile=res.psi,
        fit_residual=fit.residual,
        flags=fit.flags,
    )


# ---------------------------------------------------------------------------
# two-resonance 2x2 matrix (two identical particles, each resonant with a third)


@dataclass
class TwoResonanceMatrix:
    """2x2 Birman-Schwinger reduction at spectral parameter z.

    Diagonal entries are the channel deficits q_top(z) - 1 of the two-body
    subsystems (vanishing at z -> 0 when each channel is critical); the
    off-diagonal entries are the cross-channel overlaps through the product
    free resolvent, which stay finite because there is no three-body
    resonance.
    """

    z: float
    diagonal: float
    off_diagonal: float

    @property
    def determinant(self) -> float:
        return self.diagonal**2 - self.off_diagonal**2


def two_resonance_matrix(
    potential: BasePotential,
    law: ScalingLaw,
    lambda_critical: float,
    z,
    grid: RadialGrid,
):
    """Assemble the 2x2 Birman-Schwinger matrix of the two-channel system.

    Both channels live on identical grids with identical potentials, at
    reduced mass 1/2.  The supplied coupling must make each two-body
    subsystem resonant (top eigenvalue of Q(0) within RESONANCE_TOL of 1),
    otherwise the channels are flagged as off resonance.  Each z is 0 or at
    least Z_FLOOR.  The diagonal deficits come from the top eigenvalue of the
    whole-space Q(z) of the scaled potential's support, by the bidiagonal
    route of resonance().  z is one spectral parameter or a sequence of them;
    the resonance and the single-coordinate eigenbasis do not depend on z and
    are computed once, and a sequence returns one matrix per z.
    """
    zs = np.atleast_1d(np.asarray(z, dtype=float))
    scaled = ScaledPotential(
        BasePotential(potential.profile, lambda_critical * potential.strength, potential.range), law
    )
    qg = _resonance_quadrature_grid(potential, law, 800)
    v_qg = _on_support(scaled.on_grid(qg))
    diags = [_whole_space_q0(v_qg, zk, 0.5) - 1.0 for zk in zs]
    res = resonance(scaled, qg, eval_grid=grid)
    if abs(res.q0 - 1.0) > RESONANCE_TOL:
        raise ValueError(f"channels not at resonance: top BS eigenvalue of Q(0) {res.q0:.6f}")

    # Cross-channel overlap <sqrt(V) psi_1, R0_prod(z) sqrt(V) psi_2> with
    # psi_1 = psi(x) (x) 1(y), psi_2 mirrored, psi normalized to <V,psi> = 1
    # for the supplied coupling: resonance() normalized it to <V/q0, psi> = 1.
    # In reduced waves: sqrt(V) psi -> sqrt(V) u_psi and 1(y) -> sqrt(4 pi) r.
    sw = np.sqrt(grid.weights)
    a = np.sqrt(scaled(grid.nodes)) * (res.psi.values * grid.nodes / res.q0) * sw
    chi = np.sqrt(4.0 * np.pi) * grid.nodes * sw

    # Both sources are rank one, a (x) chi and chi (x) a, so in the eigenbasis
    # (mu, Q) of K the overlap through R0_prod = (Kx (+) Ky + z)^(-1) is
    # p^T D^(-1) p with p = (Q^T a) o (Q^T chi) and D_ij = mu_i + mu_j + z.
    mu, vec = discretize_h0(grid).eigenpairs(0.0)
    p = (vec.T @ a) * (vec.T @ chi)
    mats = []
    for zk, diag in zip(zs, diags):
        off = float(p @ (1.0 / (mu[:, None] + mu[None, :] + zk)) @ p)
        mats.append(TwoResonanceMatrix(z=float(zk), diagonal=float(diag), off_diagonal=off))
    return mats if np.ndim(z) else mats[0]
