"""Effective operators with scale-invariant singular tails and their spectra.

These are the concrete operator images of zero-range interactions in the
auxiliary (square-root) representation:

    contact_image:   sqrt(-Lap) - C / r           (d = 2 or 3, s-wave)
    weak_image:      sqrt(-Lap) - C log(1/r) 1[r <= 1]
    three_body_2d:   (1/m) (-Lap_hyper) - c / r   (4-d hyperradial s-wave)

sqrt(-Lap) is realized as the operator square root of the discretized
Dirichlet kinetic matrix so that every operator shares one discretization
scheme.  For the contact image both terms scale with degree -1, so the finite
grid's r_min and r_max are the only scales: supercritical couplings produce
geometric towers of bound states (Efimov from the infrared side, Thomas from
the ultraviolet side), and all statements are made ratio-wise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grids import RadialGrid, build_grid
from .operators import (
    SpectrumReport,
    SquareRootOperator,
    TridiagonalOperator,
    _check_positive,
    _eigenvalues_in_place,
    _gram_in_place,
    _kinetic_diagonals,
    _root_factor,
    _tridiagonal_in_place,
    hyperradial_kinetic,
)

KINDS = ("contact_image", "weak_image", "three_body_2d")
THRESHOLD_REL_TOL, REFINE_FACTOR = 1e-3, 2  # C1 bisection tolerance; node factor of the refined run
THRESHOLD_R_MIN, THRESHOLD_R_MAX = 1e-4, 2e2  # ends of the threshold grid; the ladder deepens r_min by decades
GEOMETRIC_DEVIATION_TOL = 0.10  # largest relative spread of the inner depth ratios that is still geometric
N_CHI, N_DELTA = 64, 128  # midpoint nodes of the hyperradial angular average (doubled for its flag)


@dataclass
class ThresholdReport:
    """Critical couplings C0 (positivity) and C1 (unbounded state count)."""

    C0: float
    C1: float
    grid_refinement_drift: float


@dataclass
class GeometricRatio:
    ratio: float
    deviation: float
    classification: str


@dataclass
class Kernel22Value:
    value: float
    pole: bool


def _require_scale_bracketing(grid: RadialGrid):
    # canonical anchors r_min <= 1e-4, r_max >= 1e2 for unit-scale couplings;
    # a dilated copy of a valid grid stays valid through the width clause
    # (the operators are scale covariant, so only the ratio is intrinsic); the
    # width is read to 4 ulps, since dilating rounds r_min and r_max and can
    # move a ratio of exactly 1e6 down by 2
    if grid.spacing != "logarithmic":
        raise ValueError("effective operators require a logarithmic grid")
    anchored = grid.r_min <= 1e-4 and grid.r_max >= 1e2
    if not anchored and grid.r_max / grid.r_min < 1e6 - 4 * math.ulp(1e6):
        raise ValueError(
            f"scale bracket [{grid.r_min:g}, {grid.r_max:g}] too narrow; "
            "need r_min <= 1e-4 and r_max >= 1e2, or six decades of width"
        )


def effective_operator(
    kind: str, C: float, d: int, grid: RadialGrid, m: float = 0.5
) -> SquareRootOperator | TridiagonalOperator:
    """Assemble one of the effective singular operators on a log grid, in O(n) and with no n x n array.

    contact_image and weak_image are a SquareRootOperator: the bidiagonal factor F of the kinetic at mass m
    and the shift -C * tail, so sqrt(F^T F) - C * tail is laid out only when its spectrum or entries are
    asked for.  three_body_2d is a TridiagonalOperator.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}, expected one of {KINDS}")
    if not (math.isfinite(C) and C >= 0.0):
        raise ValueError(f"coupling C must be finite and nonnegative (C = 0 is the free operator), got {C!r}")
    _check_positive("mass m", m)
    _require_scale_bracketing(grid)
    r = grid.nodes
    tail = 1.0 / r
    label = f"{kind}(C={C:g})"
    if kind == "three_body_2d":
        if d != 2:
            raise ValueError("three_body_2d is defined for d=2 constituents")
        kin = hyperradial_kinetic(grid, mass_scale=m)
        return TridiagonalOperator(kin.diag - C * tail, kin.off, grid, label)
    if kind == "weak_image":
        tail = np.where(r <= 1.0, np.log(1.0 / r), 0.0)
    return SquareRootOperator(*_kinetic_diagonals(grid, d, m), -C * tail, grid, label)


def operator_spectrum(op: SquareRootOperator | TridiagonalOperator) -> SpectrumReport:
    """The sorted spectrum of op: dsterf on a TridiagonalOperator's two diagonals; a SquareRootOperator is laid
    out into one n x n array that this call owns, and its eigensolve runs in place on that array."""
    if isinstance(op, TridiagonalOperator):
        vals = op.eigenvalues(0.0)
    else:
        vals = _eigenvalues_in_place(op._upper_triangle())
    return SpectrumReport.from_eigenvalues(vals)


# ---------------------------------------------------------------------------
# thresholds


def _inertia_tridiagonal(d: int, grid: RadialGrid) -> TridiagonalOperator:
    """Householder tridiagonal form of r^(1/2) S r^(1/2), S = sqrt(-Lap) on grid at mass 1/2.

    S - C/r is congruent to r^(1/2) S r^(1/2) - C, so by Sylvester's law of inertia the
    contact image has exactly #{mu < C} negative eigenvalues, mu the inertia spectrum
    eigenvalues(0.0): one reduction answers every C by count_negative(-C), an O(n) Sturm
    sweep.  The matrix is X X^T, X = r^(1/2) W, for the root factor of S = W W^T: this
    function's own W^T is scaled, overwritten by one triangle of X X^T and reduced in
    place, so one n x n array is alive throughout.
    """
    _require_scale_bracketing(grid)
    x = _root_factor(*_kinetic_diagonals(grid, d, 0.5)).T  # X^T, C-contiguous: column i is node i
    x *= np.sqrt(grid.nodes)
    return _tridiagonal_in_place(_gram_in_place(x))


def _bisect_threshold(predicate, lo: float, hi: float, rel_tol: float) -> float:
    """Largest C with predicate True on [lo, hi]; predicate(lo) must hold."""
    if not predicate(lo):
        raise ValueError(f"bracket does not straddle the transition: predicate fails at C={lo:g}")
    if predicate(hi):
        raise ValueError(f"bracket does not straddle the transition: predicate holds at C={hi:g}")
    while hi - lo > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if predicate(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def find_thresholds(kind: str, d: int, bracket: tuple, n: int) -> ThresholdReport:
    """Locate C0 (positivity threshold) and C1 (onset of unbounded counts).

    Every count is #{mu < C} on the inertia spectrum mu of the grid (see
    _inertia_tridiagonal) at mass 1/2: one reduction per grid, O(n) counts per
    probe.  C0, the positivity threshold, is mu_min of the grid on [THRESHOLD_R_MIN,
    THRESHOLD_R_MAX], from its spectrum, the only one taken (dsterf): the contact
    image is positive exactly for C <= mu_min.  C1 is the transition point
    the bisection finds for "the count gains at least one state per r_min
    decade, never falling, over a ladder of seven grids"; that predicate
    need not be monotone in C, so C1 is not in general the infimum of the
    growing couplings, and it is bisected to THRESHOLD_REL_TOL.  Both are
    taken at n and at REFINE_FACTOR * n: the refined values are returned,
    with no extrapolation, and their relative drift is reported.  The
    bracket must hold mu_min in [lo, hi) and straddle the C1 transition.
    """
    if kind != "contact_image":
        raise ValueError(
            "thresholds are defined for the scale-invariant contact image; "
            "the log-tail image binds only finitely and the hyperradial "
            "operator accumulates states at the box side, not at r_min"
        )
    lo, hi = bracket

    def run(n_run: int) -> tuple:
        # Unbounded-count onset: at least one state gained per r_min decade.
        # The gain is measured across a six-decade ladder, because over any
        # short ladder the integer staircase phases of state entry oscillate
        # around the crossing and make the predicate non-monotone in C.
        # The factored kinetic keeps the deep-r_min grids accurate.
        ladder = [build_grid(n_run, THRESHOLD_R_MAX, "logarithmic", r_min=THRESHOLD_R_MIN * 10.0**-k) for k in range(7)]
        reduced = [_inertia_tridiagonal(d, g) for g in ladder]
        c0 = float(reduced[0].eigenvalues(0.0)[0])
        if not lo <= c0 < hi:
            raise ValueError(f"bracket does not straddle the transition: mu_min = {c0:g} is not in [{lo:g}, {hi:g})")

        def bounded(c: float) -> bool:
            counts = [t.count_negative(-c) for t in reduced]
            steps = np.diff(counts)
            growing = counts[-1] - counts[0] >= len(ladder) - 1 and np.all(steps >= 0)
            return not growing

        c1 = _bisect_threshold(bounded, lo, hi, THRESHOLD_REL_TOL)
        return c0, c1

    c0_a, c1_a = run(n)
    c0_b, c1_b = run(REFINE_FACTOR * n)
    drift = max(abs(c0_b - c0_a) / c0_b, abs(c1_b - c1_a) / c1_b)
    c0, c1 = c0_b, c1_b
    if c0 > c1:
        raise ValueError(f"threshold ordering violated: C0={c0:g} > C1={c1:g}")
    return ThresholdReport(c0, c1, float(drift))


# ---------------------------------------------------------------------------
# geometric ratio and classification


def geometric_ratio(spectrum: SpectrumReport) -> GeometricRatio:
    """Geometric statistics of the negative spectrum.

    ratio is the geometric mean of the successive depth ratios
    |E_{n+1}| / |E_n| with the two extreme eigenvalues excluded; deviation is
    the largest relative spread of those inner ratios about it.  A tower whose
    deviation exceeds GEOMETRIC_DEVIATION_TOL is not_geometric; any other is
    efimov, since its negative eigenvalues accumulate at zero on the given
    grid.
    """
    neg = spectrum.eigenvalues[spectrum.eigenvalues < 0.0]
    if neg.size < 4:
        raise ValueError(f"need at least 4 negative eigenvalues, have {neg.size}")
    inner = neg[2:-1] / neg[1:-2]  # deepest first: each compares the next shallower level
    ratio = float(np.exp(np.mean(np.log(inner))))
    deviation = float(np.max(np.abs(inner / ratio - 1.0)))
    return GeometricRatio(ratio, deviation, "not_geometric" if deviation > GEOMETRIC_DEVIATION_TOL else "efimov")


# ---------------------------------------------------------------------------
# two-dimensional three-body pieces


def _kernel22_formula(q1, q2):
    """1 / ((q1^2 + q2^2 + (q1,q2)) (q1 + q2)^2) over the last axis of arrays of 2-vectors, without a pole test."""
    dot = lambda x, y: np.sum(x * y, axis=-1)
    return 1.0 / ((dot(q1, q1) + dot(q2, q2) + dot(q1, q2)) * dot(q1 + q2, q1 + q2))


def kernel22(q1, q2) -> Kernel22Value:
    """Momentum kernel 1 / ((q1^2 + q2^2 + (q1,q2)) (q1 + q2)^2) for finite q in R^2."""
    q1 = np.asarray(q1, dtype=float)
    q2 = np.asarray(q2, dtype=float)
    if q1.shape != (2,) or q2.shape != (2,):
        raise ValueError("q1 and q2 must be 2-vectors")
    if not (np.isfinite(q1).all() and np.isfinite(q2).all()):
        raise ValueError(f"momenta must be finite, got {q1.tolist()} and {q2.tolist()}")
    s = q1 + q2
    if s @ s <= 1e-14 * max(float(q1 @ q1 + q2 @ q2), 1e-300):
        return Kernel22Value(float("inf"), True)
    return Kernel22Value(float(_kernel22_formula(q1, q2)), False)


def _slice_average(n_chi: int, n_delta: int, rho: float) -> float:
    """Midpoint S^3 average of |Q|^4 K over the slice |Q| = rho, K from kernel22's formula.

    Parametrize q1 = rho cos(chi) (1, 0), q2 = rho sin(chi) (cos delta, sin
    delta): the measure is sin(chi) cos(chi) dchi dalpha dbeta, and K depends
    on the angles through delta = alpha - beta only.  The result does not
    depend on rho exactly when K is homogeneous of degree -4.  The average
    has a logarithmically divergent ridge at (q1+q2)^2 = 0, so it grows
    slowly under angular refinement; callers are expected to flag that.
    """
    chi = (np.arange(n_chi) + 0.5) * (0.5 * np.pi / n_chi)
    delta = (np.arange(n_delta) + 0.5) * (2.0 * np.pi / n_delta)
    q1 = (rho * np.cos(chi))[:, None, None] * np.array([1.0, 0.0])
    q2 = (rho * np.sin(chi))[:, None, None] * np.stack([np.cos(delta), np.sin(delta)], axis=-1)
    w_chi = (0.5 * np.sin(2.0 * chi)[:, None]) * (0.5 * np.pi / n_chi)  # sin cos dchi
    avg = float(np.sum(_kernel22_formula(q1, q2) * w_chi) * (2.0 * np.pi / n_delta) * 2.0 * np.pi / (2.0 * np.pi**2))
    return rho**4 * avg


def hyperradial_reduce(r_list) -> dict:
    """Angular average of the three-body 2-d kernel at fixed hyperradius.

    Momentum slices |Q| = 1/r stand in for position hyperradius r: each
    profile point is -(the slice average of |Q|^4 K at |Q| = 1/r) / r.  K has
    degree -4, so the profile is prefactor / r with a negative (attractive)
    prefactor; a kernel of degree -4 + k would fit the exponent -1 - k.  The
    radii must be finite, positive and span two decades.  The exact angular
    average diverges logarithmically on the back-to-back circle (q1 = -q2),
    so growth above 1% under doubled angular nodes is flagged rather than
    treated as convergence failure.
    """
    r_list = np.asarray(list(r_list), dtype=float)
    if not np.all(np.isfinite(r_list) & (r_list > 0.0)):
        raise ValueError(f"radii must be finite and positive, got {r_list.tolist()}")
    if r_list.size < 3 or np.log10(r_list.max() / r_list.min()) < 2.0:
        raise ValueError("r_list must span at least two decades")
    profile = np.array([-_slice_average(N_CHI, N_DELTA, 1.0 / r) / r for r in r_list])
    slope, logpref = np.polyfit(np.log(r_list), np.log(-profile), 1)
    coarse = _slice_average(N_CHI, N_DELTA, 1.0)
    fine = _slice_average(2 * N_CHI, 2 * N_DELTA, 1.0)
    return {
        "r": r_list,
        "profile": profile,
        "fitted_exponent": float(slope),
        "prefactor": -float(np.exp(logpref)),
        "flags": ["angular_quadrature_not_converged"] if abs(fine - coarse) > 0.01 * abs(coarse) else [],
    }


# ---------------------------------------------------------------------------
# mass sweep


@dataclass
class MassSweepReport:
    masses: np.ndarray
    spectra: list
    counts: np.ndarray
    shallowest_depth: np.ndarray
    deepest_depth: np.ndarray
    counts_nondecreasing: bool
    shallowest_nonincreasing: bool
    flags: list = field(default_factory=list)


def mass_sweep_2d(m_list, c: float, grid: RadialGrid) -> MassSweepReport:
    """Spectra of (1/m) (-Lap_hyper) - c/r along an increasing mass ladder.

    The bound-state count must be nondecreasing in m.  The threshold-side
    extremum |max E_n| over the negative spectrum (the shallowest depth) must
    be nonincreasing: new states enter at the top while the energies near
    threshold sink toward zero.  The deepest level is reported too; it grows
    with m by operator monotonicity and is not a monotonicity criterion.
    """
    m_list = np.asarray(list(m_list), dtype=float)
    if not np.all(np.isfinite(m_list) & (m_list > 0.0)):
        raise ValueError(f"masses must be finite and positive, got {m_list.tolist()}")
    if np.any(np.diff(m_list) <= 0.0):
        raise ValueError("mass ladder must be increasing")
    _check_positive("coupling c", c)
    spectra = []
    counts = []
    shallowest = []
    deepest = []
    flags = []
    for m in m_list:
        op = effective_operator("three_body_2d", c, 2, grid, m=m)
        rep = operator_spectrum(op)
        spectra.append(rep)
        counts.append(rep.count_negative)
        neg = rep.eigenvalues[rep.eigenvalues < 0.0]
        shallowest.append(float(np.abs(neg).min()) if neg.size else float("nan"))
        deepest.append(float(np.abs(neg).max()) if neg.size else float("nan"))
        box_scale = (1.0 / m) * (np.pi / grid.r_max) ** 2
        if neg.size and np.abs(neg).min() < 5.0 * box_scale:
            flags.append(f"r_max_too_small@m={m:g}")
    counts = np.array(counts)
    shallowest = np.array(shallowest)
    ok = ~np.isnan(shallowest)
    return MassSweepReport(
        masses=m_list,
        spectra=spectra,
        counts=counts,
        shallowest_depth=shallowest,
        deepest_depth=np.array(deepest),
        counts_nondecreasing=bool(np.all(np.diff(counts) >= 0)),
        shallowest_nonincreasing=bool(np.all(np.diff(shallowest[ok]) <= 1e-12)),
        flags=flags,
    )
