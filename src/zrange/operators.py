"""Discretized s-wave free Hamiltonian, its square root, and the free resolvent kernel.

Representation convention
-------------------------
A radial wavefunction is carried by its reduced wave u(r): in d=3 the full
wave is psi = u / (sqrt(4 pi) r), in d=2 it is psi = u / sqrt(2 pi r), so that
the L2(R^d) inner product becomes integral of u u' dr.  On a grid with
quadrature weights w the inner product is sum(w u u'), and every operator
matrix M stored here acts on weight-scaled vectors  u~ = sqrt(w) * u.  In that
representation multiplication operators stay diagonal, integral kernels K
become sqrt(w_i) K_ij sqrt(w_j), and symmetric operators are symmetric
matrices, which is what all the eigensolvers and the Konno-Kuroda algebra
need.

The kinetic part is the P1 finite-element stiffness form with lumped mass,
assembled so that it is symmetric positive semidefinite by construction:

    d=3:  form(u) = (1/2m) int u'^2 dr                (Dirichlet at 0, r_max)
    d=2:  form(u) = (1/2m) int r |(u/sqrt(r))'|^2 dr  (Friedrichs at 0)

The d=2 substitution u = sqrt(r) v makes the -1/(4 r^2) s-wave term manifestly
nonnegative instead of discretizing it as a diagonal, which would not be.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cython_lapack
from scipy.special import i0e, k0e

from .grids import RadialGrid

SYMMETRY_RTOL = 1e-10


class SingularSystemError(np.linalg.LinAlgError):
    """Linear system singular to working precision."""

    def __init__(self, message: str, smallest_eigenvalue: float):
        super().__init__(f"{message} (smallest eigenvalue {smallest_eigenvalue:.3e})")
        self.smallest_eigenvalue = smallest_eigenvalue


@dataclass
class OperatorMatrix:
    """Dense symmetric matrix acting on weight-scaled reduced waves."""

    entries: np.ndarray = field(repr=False)
    grid: object  # RadialGrid or ProductGrid
    m: float = 0.5
    label: str = ""

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=float)
        n = self.entries.shape[0]
        if self.entries.shape != (n, n):
            raise ValueError("operator matrix must be square")
        if self.grid is not None and n != grid_size(self.grid):
            raise ValueError("matrix dimension must match grid size")
        check_symmetric(self.entries, self.label or "operator")

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def grid_size(grid) -> int:
    return grid.n


def check_symmetric(m: np.ndarray, label: str = "matrix", rtol: float = SYMMETRY_RTOL):
    scale = np.abs(m).max()
    if scale == 0.0:
        return
    asym = np.abs(m - m.T).max()
    if asym > rtol * scale:
        raise ValueError(f"{label} is not symmetric: rel asymmetry {asym / scale:.3e}")


@dataclass
class SpectrumReport:
    """Sorted eigenvalues with negative count and successive depth ratios."""

    eigenvalues: np.ndarray
    count_negative: int
    ratios: np.ndarray

    @classmethod
    def from_eigenvalues(cls, eigenvalues) -> "SpectrumReport":
        ev = np.sort(np.asarray(eigenvalues, dtype=float))
        neg = ev[ev < 0.0]
        # Deepest state first; each ratio compares the next shallower level.
        ratios = np.abs(neg[1:]) / np.abs(neg[:-1]) if neg.size >= 2 else np.empty(0)
        return cls(ev, int(neg.size), ratios)


# ---------------------------------------------------------------------------
# kinetic discretization
#
# Every kinetic form here is a sum of squared weighted differences, so it is
# assembled as a rectangular factor F with K = F^T F.  The factor is what
# makes extreme-aspect log grids tractable: eigenpairs of K computed through
# the SVD of F keep relative accuracy ~ cond(F) * eps instead of
# cond(K) * eps = cond(F)^2 * eps, and cond(K) can exceed 1e15 on the
# scale-bracketing grids the Efimov studies need.
#
# F is bidiagonal: n x n upper for d=2, (n+1) x n lower for d=3, where n
# Givens rotations from the left (O(n)) give an n x n upper bidiagonal B with
# B^T B = F^T F, so the same singular values and right vectors.  sqrt_kinetic
# hands B's two diagonals to LAPACK's bidiagonal divide-and-conquer SVD
# (dbdsdc).  A dense SVD of F would first spend an O(n^3) Householder
# reduction (dgebrd) and its back-transform, most of the cost of the root,
# on a matrix that is already bidiagonal.
# scipy exports dbdsdc only as a Cython capsule, present in every scipy this
# package supports (>= 1.10), so the shim has no dense fallback: it would be
# a second path that never runs.


def _factor_d3(nodes: np.ndarray) -> np.ndarray:
    """Difference factor of int u'^2 dr, Dirichlet at 0 and r_max."""
    n = nodes.size
    edges = np.concatenate(([0.0], nodes))
    h = np.diff(edges)
    f = np.zeros((n + 1, n))
    f[0, 0] = 1.0 / np.sqrt(h[0])  # cell [0, r_1] with u(0) = 0
    for i in range(n - 1):
        c = 1.0 / np.sqrt(h[i + 1])
        f[i + 1, i] = -c
        f[i + 1, i + 1] = c
    # Dirichlet wall just beyond the last node, one-sided cell of width h[-1]
    f[n, n - 1] = 1.0 / np.sqrt(h[-1])
    return f


def _factor_weighted(nodes: np.ndarray, weight_fn, power: float) -> np.ndarray:
    """Difference factor of int w(r) |(u r^(-power))'|^2 dr, natural at r_min.

    power = 1/2, w = r   gives the d=2 s-wave form (u = sqrt(r) v);
    power = 3/2, w = r^3 gives the 4-d hyperradial s-wave form.
    """
    n = nodes.size
    f = np.zeros((n, n))
    scale = nodes**-power
    for i in range(n - 1):
        h = nodes[i + 1] - nodes[i]
        c = np.sqrt(weight_fn(0.5 * (nodes[i] + nodes[i + 1])) / h)
        f[i, i] = -c * scale[i]
        f[i, i + 1] = c * scale[i + 1]
    h_last = nodes[-1] - nodes[-2]
    f[n - 1, n - 1] = np.sqrt(weight_fn(nodes[-1] + 0.5 * h_last) / h_last) * scale[-1]
    return f


def kinetic_factor(grid: RadialGrid, d: int = 3, m: float = 0.5) -> np.ndarray:
    """Factor F of the weight-scaled kinetic matrix H0 = F^T F."""
    if d not in (2, 3):
        raise ValueError("dimension must be 2 or 3")
    if m <= 0.0:
        raise ValueError("mass must be positive")
    if d == 3:
        f = _factor_d3(grid.nodes)
    else:
        f = _factor_weighted(grid.nodes, lambda r: r, 0.5)
    return f / np.sqrt(2.0 * m) / np.sqrt(grid.weights)[None, :]


def hyperradial_factor(grid: RadialGrid, mass_scale: float = 1.0) -> np.ndarray:
    """Factor of (1/mass_scale) times the 4-d hyperradial s-wave kinetic."""
    f = _factor_weighted(grid.nodes, lambda r: r**3, 1.5)
    return f / np.sqrt(mass_scale) / np.sqrt(grid.weights)[None, :]


def discretize_h0(grid: RadialGrid, d: int = 3, m: float = 0.5) -> OperatorMatrix:
    """Kinetic operator -(1/2m) Laplacian reduced to the s-wave sector.

    Symmetric positive semidefinite by construction (a Gram matrix), with
    Dirichlet behavior at the origin (regular reduced wave) and at r_max.
    """
    f = kinetic_factor(grid, d, m)
    h = f.T @ f
    return OperatorMatrix(0.5 * (h + h.T), grid, m, label=f"H0[d={d}]")


def hyperradial_kinetic(grid: RadialGrid, mass_scale: float = 1.0) -> OperatorMatrix:
    """(1/mass_scale) times the 4-d hyperradial s-wave kinetic operator.

    The reduced wave u = r^(3/2) f carries the centrifugal 3/(4 r^2) term
    inside a manifestly nonnegative weighted first-derivative form.
    """
    f = hyperradial_factor(grid, mass_scale)
    h = f.T @ f
    return OperatorMatrix(0.5 * (h + h.T), grid, 0.5, label="H_hyper")


def _upper_bidiagonal(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and superdiagonal of an n x n upper bidiagonal B with B^T B = F^T F.

    F is a kinetic factor: n x n upper bidiagonal, returned as it is, or
    (n+1) x n lower bidiagonal.  In the second case the Givens rotation of
    rows i and i+1 folds F[i+1, i] into the diagonal entry (i, i), and its
    fill-in at (i, i+1) is the superdiagonal.
    """
    n = f.shape[1]
    if f.shape[0] == n:
        # copies, not views, so that F can be freed before the SVD
        return np.diag(f).copy(), np.diag(f, 1).copy()
    diag = np.empty(n)
    superdiag = np.empty(n - 1)
    a = f[0, 0]
    for i in range(n):
        b = f[i + 1, i]
        r = math.hypot(a, b)
        diag[i] = r
        if i < n - 1:
            c = f[i + 1, i + 1]
            superdiag[i] = b / r * c
            a = a / r * c
    return diag, superdiag


def _dbdsdc(diag: np.ndarray, superdiag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Singular values s and right singular vectors V of an upper bidiagonal B.

    B = U diag(s) V^T with s descending; V is returned with the vectors as
    columns.  LAPACK dbdsdc is reached through the function pointer in
    scipy.linalg.cython_lapack's capsule table.  Raises LinAlgError when it
    does not converge, as np.linalg.svd does.
    """
    n = diag.size
    if n < 1 or superdiag.shape != (n - 1,):
        raise ValueError("bidiagonal needs n >= 1 diagonal and n - 1 superdiagonal entries")
    capsule = cython_lapack.__pyx_capi__["dbdsdc"]
    api = ctypes.pythonapi
    name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", api))(capsule)
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(("PyCapsule_GetPointer", api))
    dp, ip = ctypes.POINTER(ctypes.c_double), ctypes.POINTER(ctypes.c_int)
    routine = ctypes.CFUNCTYPE(None, ctypes.c_char_p, ctypes.c_char_p, ip, dp, dp, dp, ip, dp, ip, dp, ip, dp, ip, ip)(
        get_pointer(capsule, name)
    )
    s = np.array(diag, dtype=float)  # overwritten by the singular values
    e = np.array(superdiag, dtype=float)
    u = np.empty((n, n))
    # Column-major VT read in C order is V itself.
    v = np.empty((n, n))
    q = np.empty(1)  # Q and IQ are not referenced when COMPQ = 'I'
    iq = np.empty(1, dtype=np.intc)
    work = np.empty(3 * n * n + 4 * n)
    iwork = np.empty(8 * n, dtype=np.intc)
    size = ctypes.c_int(n)
    info = ctypes.c_int(0)
    routine(
        b"U", b"I", ctypes.byref(size), s.ctypes.data_as(dp), e.ctypes.data_as(dp),
        u.ctypes.data_as(dp), ctypes.byref(size), v.ctypes.data_as(dp), ctypes.byref(size),
        q.ctypes.data_as(dp), iq.ctypes.data_as(ip), work.ctypes.data_as(dp), iwork.ctypes.data_as(ip),
        ctypes.byref(info),
    )
    if info.value != 0:
        raise np.linalg.LinAlgError(f"bidiagonal SVD did not converge (dbdsdc info {info.value})")
    return s, v


def sqrt_kinetic(grid: RadialGrid, d: int = 3, m: float = 0.5) -> OperatorMatrix:
    """sqrt of the kinetic matrix through the SVD of its bidiagonal difference factor.

    With F = U S V^T and H0 = F^T F, the root is V S V^T.  S and V come from
    LAPACK's bidiagonal SVD (dbdsdc) of F itself for d=2 and of its O(n)
    Givens reduction for d=3, so no dense O(n^3) bidiagonalization or
    back-transform is spent before the V S V^T product.  The singular values
    carry full relative accuracy even when cond(H0) is near 1/eps, which the
    eigendecomposition route loses.
    """
    diag, superdiag = _upper_bidiagonal(kinetic_factor(grid, d, m))
    s, v = _dbdsdc(diag, superdiag)
    root = v @ (s[:, None] * v.T)
    return OperatorMatrix(0.5 * (root + root.T), grid, m, label=f"sqrt(H0[d={d}])")


# ---------------------------------------------------------------------------
# free resolvent


def radial_green_kernel(d: int, z: float, r, rp, m: float = 0.5):
    """Reduced s-wave kernel of (H0 + z)^(-1) on the whole space, H0 = -(1/2m) Lap.

    d=3:  2m sinh(kappa r_<) exp(-kappa r_>) / kappa,  2m r_< at z = 0
    d=2:  2m sqrt(r r') I0(kappa r_<) K0(kappa r_>)

    with kappa = sqrt(2 m z); real z > 0 is supported, and z = 0 in d=3,
    where the kernel stays bounded (in d=2 K0 diverges).
    """
    if d not in (2, 3):
        raise ValueError("dimension must be 2 or 3")
    if not (np.isfinite(z) and (z > 0.0 or (z == 0.0 and d == 3))):
        raise ValueError("spectral parameter z must be real, finite and positive (z = 0 only in d=3)")
    r = np.asarray(r, dtype=float)
    rp = np.asarray(rp, dtype=float)
    if not (np.all(np.isfinite(r) & (r > 0.0)) and np.all(np.isfinite(rp) & (rp > 0.0))):
        raise ValueError("kernel arguments must be finite, positive radii")
    kappa = np.sqrt(2.0 * m * z)
    lo = np.minimum(r, rp)
    hi = np.maximum(r, rp)
    if d == 3 and kappa == 0.0:
        val = 2.0 * m * lo
    elif d == 3:
        # sinh(k lo) e^(-k hi) written stably as (e^(-k(hi-lo)) - e^(-k(hi+lo)))/2
        val = 2.0 * m * (np.exp(-kappa * (hi - lo)) - np.exp(-kappa * (hi + lo))) / (2.0 * kappa)
    else:
        # i0e(x) = e^(-x) I0(x), k0e(x) = e^x K0(x); product decays as e^(lo-hi)
        val = 2.0 * m * np.sqrt(r * rp) * i0e(kappa * lo) * k0e(kappa * hi) * np.exp(-kappa * (hi - lo))
    return val if val.ndim else float(val)


def green_kernel_matrix(grid: RadialGrid, d: int, z: float, m: float = 0.5) -> OperatorMatrix:
    """Whole-space free resolvent as a weight-scaled kernel matrix on a grid."""
    r = grid.nodes
    kern = radial_green_kernel(d, z, r[:, None], r[None, :], m)
    sw = np.sqrt(grid.weights)
    mat = kern * np.outer(sw, sw)
    return OperatorMatrix(0.5 * (mat + mat.T), grid, m, label=f"G[d={d},z={z:g}]")
