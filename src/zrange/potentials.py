"""Attractive radial potential profiles and epsilon-scaling laws.

Potentials are stored nonnegative and always enter Hamiltonians with a minus
sign (attractive convention).  A scaling law (p, epsilon, d) contracts a base
profile V into V_eps(r) = eps^(-p) * lambda * V(r / eps); the (p, d) pairs map
onto the zero-range regimes:

    (3, 3) contact in d=3        (2, 3) weak contact in d=3
    (2, 2) contact in d=2        (1, 2) weak contact in d=2

and p = None leaves the profile unscaled (a regular potential).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import GridFunction, RadialGrid

PROFILES = ("gaussian", "square_well", "exponential")

# the (p, d) pairs of the regimes in the module docstring
SCALING_REGIMES = {(3, 3), (2, 3), (2, 2), (1, 2)}


class ScalingLawError(ValueError):
    """Scaling-law parameters outside the supported regime table."""


@dataclass(frozen=True)
class BasePotential:
    """Nonnegative radial profile with coupling strength and range."""

    profile: str
    strength: float = 1.0
    range: float = 1.0

    def __post_init__(self):
        if self.profile not in PROFILES:
            raise ValueError(f"unknown profile {self.profile!r}, expected one of {PROFILES}")
        if not (np.isfinite(self.strength) and self.strength > 0.0):
            raise ValueError("strength must be finite and positive")
        if not (np.isfinite(self.range) and self.range > 0.0):
            raise ValueError("range must be finite and positive")

    def __call__(self, r):
        """V(r) >= 0; enters Hamiltonians as -V(r)."""
        r = np.asarray(r, dtype=float)
        s = r / self.range
        if self.profile == "gaussian":
            v = np.exp(-s * s)
        elif self.profile == "square_well":
            v = np.where(s <= 1.0, 1.0, 0.0)
        else:
            v = np.exp(-s)
        return self.strength * v

    def on_grid(self, grid: RadialGrid) -> GridFunction:
        return GridFunction(grid, self(grid.nodes))


@dataclass(frozen=True)
class ScalingLaw:
    """Contraction rate eps^(-p) V(r/eps) in spatial dimension d."""

    p: int | None
    epsilon: float = 1.0
    d: int = 3

    def __post_init__(self):
        if not (np.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise ScalingLawError("epsilon must be finite and positive")
        if self.d not in (2, 3):
            raise ScalingLawError("dimension must be 2 or 3")
        if self.p is not None and (self.p, self.d) not in SCALING_REGIMES:
            raise ScalingLawError(
                f"(p={self.p}, d={self.d}) is not a supported regime; "
                f"valid pairs: {sorted(SCALING_REGIMES)} or p=None (unscaled)"
            )
        if self.p is not None:
            try:
                float(self.epsilon) ** (-self.p)  # the factor ScaledPotential applies; numpy's would be inf
            except OverflowError:
                raise ScalingLawError(
                    f"epsilon={self.epsilon:g} is too small for p={self.p}: eps^(-p) overflows a float"
                ) from None

    def with_epsilon(self, epsilon: float) -> "ScalingLaw":
        return ScalingLaw(self.p, epsilon, self.d)


def _decreasing_ladder(eps_list) -> np.ndarray:
    """An epsilon ladder as a float array; it must be strictly decreasing."""
    eps = np.asarray(list(eps_list), dtype=float)
    if np.any(np.diff(eps) >= 0.0):
        raise ValueError("epsilon ladder must be strictly decreasing")
    return eps


@dataclass(frozen=True)
class ScaledPotential:
    """A base profile contracted by a scaling law; evaluates eps^(-p) V(r/eps)."""

    base: BasePotential
    law: ScalingLaw

    def __call__(self, r):
        if self.law.p is None:
            return self.base(r)
        eps = self.law.epsilon
        return self.base(np.asarray(r, dtype=float) / eps) * eps ** (-self.law.p)

    def on_grid(self, grid: RadialGrid) -> GridFunction:
        return GridFunction(grid, self(grid.nodes))


def _sphere_area(d: int) -> float:
    if d not in (2, 3):
        raise ValueError(f"dimension d must be 2 or 3, got {d!r}")
    return 4.0 * np.pi if d == 3 else 2.0 * np.pi


def _node_values(values, grid: RadialGrid) -> np.ndarray:
    """Values as a finite float array with one entry per grid node."""
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.n,):
        raise ValueError(f"values must have shape ({grid.n},) to match the grid, got {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError("values must be finite (no NaN or inf)")
    return values


def _potential_values(v: GridFunction) -> np.ndarray:
    """The values of a sampled potential V, which must be finite."""
    if not np.isfinite(v.values).all():
        raise ValueError("potential V has non-finite values (NaN or inf)")
    return v.values


def l1_norm(values: np.ndarray, grid: RadialGrid, d: int = 3) -> float:
    """L1 norm of a radial function over R^d, d = 2 or 3."""
    area, values = _sphere_area(d), _node_values(values, grid)
    return area * grid.integrate(np.abs(values) * grid.nodes ** (d - 1))


def l2_norm(values: np.ndarray, grid: RadialGrid, d: int = 3) -> float:
    """L2 norm of a radial function over R^d, d = 2 or 3."""
    area, values = _sphere_area(d), _node_values(values, grid)
    return float(np.sqrt(area * grid.integrate(values * values * grid.nodes ** (d - 1))))


# Rows of the edge kernel assembled at once: a (block x edges) array and its two temporaries.
_ROLLNIK_BLOCK = 32


def _xlogx(t: np.ndarray) -> np.ndarray:
    """t log t, with 0 log 0 = 0, in place."""
    t *= np.log(t, out=np.zeros_like(t), where=t > 0.0)
    return t


def _edge_kernel(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # 4 (G(a + b) + G(a - b)) without the t^2 part of G, which the zero-sum
    # weights cancel: s log s + q log q with s = (a + b)^2, q = (a - b)^2.
    # numpy's log, not scipy.special.xlogy, which would load scipy.special
    # (about 0.14 s) at a study's first norm
    s = np.add.outer(a, b)
    s *= s
    q = np.subtract.outer(a, b)
    q *= q
    return _xlogx(s) + _xlogx(q)


def rollnik_norm(values: np.ndarray, grid: RadialGrid) -> float:
    """Rollnik double integral of a radial function in d=3.

    Integral of V(x) V(y) / |x-y|^2 over R^3 x R^3.  After angular reduction
    this is 8 pi^2 times the double integral of V(r) V(r') r r' times
    log((r+r')/|r-r'|).  The density f = |V| r is frozen on the cells
    [E_i, E_(i+1)] between the edges E_0 = 0, the node midpoints and
    E_n = r_n + (r_n - r_(n-1))/2, and both log kernels are integrated exactly
    over every cell pair, so the quadrature is second order despite the
    diagonal singularity.  Summed by parts, the cell-pair sum is the quadratic
    form g^T K g over the n + 1 edges, with the jumps g_a = f_a - f_(a-1)
    (f_(-1) = f_n = 0) and K_ab = G(E_a + E_b) + G(E_a - E_b), where
    G(t) = t^2 (2 log|t| - 3) / 4 is the second antiderivative of log|t|.
    K is assembled in row blocks of its upper triangle, only on the edges
    where g is nonzero, so memory is O(block * n) and no n x n array exists.
    """
    values = _node_values(values, grid)
    if grid.n < 2:
        raise ValueError("the Rollnik norm needs a grid of at least 2 nodes")
    r = grid.nodes
    edges = np.concatenate(([0.0], 0.5 * (r[:-1] + r[1:]), [r[-1] + 0.5 * (r[-1] - r[-2])]))
    g = np.diff(np.abs(values) * r, prepend=0.0, append=0.0)
    support = g != 0.0
    edges, g = edges[support], g[support]
    quad = 0.0
    for start in range(0, g.size, _ROLLNIK_BLOCK):
        g_rows = g[start : start + _ROLLNIK_BLOCK]
        k = _edge_kernel(edges[start : start + _ROLLNIK_BLOCK], edges[start:])
        # K is symmetric: the block right of the diagonal counts twice
        quad += 2.0 * (g_rows @ (k @ g[start:])) - g_rows @ (k[:, : g_rows.size] @ g_rows)
    return 2.0 * np.pi**2 * quad  # 8 pi^2 g^T K g, the blocks hold 4 K


def scale_potential(potential: BasePotential, law: ScalingLaw, grid: RadialGrid) -> dict:
    """Contract a potential by its scaling law and report its norms on a grid.

    Returns the scaled profile as a GridFunction together with the L1 and L2
    norms (in the law's dimension) and, for d=3, the Rollnik double integral.
    """
    gf = ScaledPotential(potential, law).on_grid(grid)
    return {
        "profile": gf,
        "l1": l1_norm(gf.values, grid, law.d),
        "l2": l2_norm(gf.values, grid, law.d),
        "rollnik": rollnik_norm(gf.values, grid) if law.d == 3 else float("nan"),
    }
