"""Radial grids and grid functions.

Every continuous operator in the toolkit is reduced to the s-wave sector and
discretized on a half-line grid 0 < r_1 < ... < r_n <= r_max.  Integrals are
trapezoid sums with a half-cell [0, r_1] included, so quadrature weights pair
node values against Lebesgue measure dr on (0, r_max].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MIN_GRID_NODES = 8


class GridError(ValueError):
    """Invalid grid construction parameters."""


@dataclass(frozen=True)
class RadialGrid:
    """Strictly increasing radial nodes with trapezoid quadrature weights."""

    nodes: np.ndarray
    weights: np.ndarray
    spacing: str
    r_max: float

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.ndim != 1 or nodes.size == 0:
            raise GridError("nodes must be a nonempty 1-d array")
        if not (np.all(np.isfinite(nodes)) and nodes[0] > 0.0 and np.all(np.diff(nodes) > 0.0)):
            raise GridError("nodes must be finite, strictly increasing and positive")
        if weights.shape != nodes.shape or not np.all(np.isfinite(weights) & (weights > 0.0)):
            raise GridError("weights must be finite and positive, one per node")
        if not (np.isfinite(self.r_max) and nodes[-1] <= self.r_max * (1.0 + 1e-12)):
            raise GridError("r_max must be finite and not below the last node")

    @property
    def n(self) -> int:
        return self.nodes.size

    @property
    def r_min(self) -> float:
        return float(self.nodes[0])

    def matches(self, other: "RadialGrid") -> bool:
        """True when other is this grid or has the same nodes and weights."""
        return other is self or (np.array_equal(other.nodes, self.nodes) and np.array_equal(other.weights, self.weights))

    def integrate(self, values: np.ndarray) -> float:
        """Trapezoid integral of node values over (0, r_max]."""
        return float(np.dot(self.weights, np.asarray(values, dtype=float)))

    def dilate(self, s: float) -> "RadialGrid":
        """Grid with every node scaled by s > 0 (weights scale along)."""
        if not (np.isfinite(s) and s > 0.0):
            raise GridError("dilation factor must be finite and positive")
        return RadialGrid(self.nodes * s, self.weights * s, self.spacing, self.r_max * s)


@dataclass(frozen=True)
class GridFunction:
    """Real values attached to the nodes of a radial grid."""

    grid: RadialGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.shape != self.grid.nodes.shape:
            raise GridError("values must have one entry per grid node")


def _trapezoid_weights(nodes: np.ndarray) -> np.ndarray:
    # Half-cell [0, r_1] is attached to the first node; the f(0) endpoint is
    # dropped (all integrands used here carry at least one factor of r).
    edges = np.concatenate(([0.0], nodes))
    h = np.diff(edges)
    w = np.zeros_like(nodes)
    w[:-1] += 0.5 * h[1:]
    w += 0.5 * h
    return w


def build_grid(n: int, r_max: float, spacing: str = "linear", r_min: float | None = None) -> RadialGrid:
    """Construct a radial grid.

    Linear grids place n equispaced nodes ending at r_max.  Logarithmic grids
    are geometric from r_min (default r_max * 1e-4) to r_max; they are
    mandatory whenever a 1/r or log r term must be resolved across scales.
    """
    if not isinstance(n, (int, np.integer)):
        raise GridError(f"n={n!r} must be an integer node count")
    if n < MIN_GRID_NODES:
        raise GridError(f"n={n} too small, need at least {MIN_GRID_NODES} nodes")
    if not (np.isfinite(r_max) and r_max > 0.0):
        raise GridError("r_max must be finite and positive")
    if spacing == "linear":
        nodes = np.linspace(r_max / n, r_max, n)
    elif spacing == "logarithmic":
        if r_min is None:
            r_min = r_max * 1e-4
        if not 0.0 < r_min < r_max:
            raise GridError("need 0 < r_min < r_max for a logarithmic grid")
        nodes = np.geomspace(r_min, r_max, n)
    else:
        raise GridError(f"unknown spacing {spacing!r} (use 'linear' or 'logarithmic')")
    return RadialGrid(nodes, _trapezoid_weights(nodes), spacing, float(r_max))
