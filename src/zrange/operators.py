"""Discretized s-wave free Hamiltonian and its square root.

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
import functools
import importlib.machinery
import importlib.util
import math
import sys
from dataclasses import dataclass, field

import numpy as np
import scipy

from .grids import RadialGrid

SYMMETRY_RTOL = 1e-10


class SingularSystemError(np.linalg.LinAlgError):
    """Linear system singular to working precision."""

    def __init__(self, message: str, smallest_eigenvalue: float):
        super().__init__(f"{message} (smallest eigenvalue {smallest_eigenvalue:.3e})")
        self.smallest_eigenvalue = smallest_eigenvalue


@dataclass
class OperatorMatrix:
    """Dense symmetric matrix acting on weight-scaled reduced waves; any mass is in its entries."""

    entries: np.ndarray = field(repr=False)
    grid: object  # RadialGrid or ProductGrid
    label: str = ""

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=float)
        n = self.entries.shape[0]
        if self.entries.shape != (n, n):
            raise ValueError("operator matrix must be square")
        if self.grid is not None and n != self.grid.n:
            raise ValueError("matrix dimension must match grid size")
        check_symmetric(self.entries, self.label or "operator")


def _check_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def check_symmetric(m: np.ndarray, label: str = "matrix", rtol: float = SYMMETRY_RTOL):
    scale = np.abs(m).max()
    if not np.isfinite(scale):
        raise ValueError(f"{label} has non-finite entries")
    if scale == 0.0:
        return
    asym = np.abs(m - m.T).max()
    if asym > rtol * scale:
        raise ValueError(f"{label} is not symmetric: rel asymmetry {asym / scale:.3e}")


@dataclass
class TridiagonalOperator:
    """Symmetric tridiagonal matrix on weight-scaled reduced waves, carried as its two diagonals.

    Every kinetic matrix K = F^T F is one, and so is K - V; the dense matrix is laid out only on request.
    eigenvalues, eigenpairs and inverse act on T + diag(shift) through LAPACK; a shift that is not a finite
    scalar or n-vector raises ValueError, naming the operator's label, before LAPACK reads it.
    """

    diag: np.ndarray = field(repr=False)
    off: np.ndarray = field(repr=False)
    grid: object  # RadialGrid or None
    label: str = ""

    def __post_init__(self):
        self.diag, self.off = np.asarray(self.diag, dtype=float), np.asarray(self.off, dtype=float)
        n = self.diag.size
        if self.diag.shape != (n,) or self.off.shape != (n - 1,):
            raise ValueError("tridiagonal operator needs n >= 1 diagonal and n - 1 off-diagonal entries")
        if self.grid is not None and n != self.grid.n:
            raise ValueError("matrix dimension must match grid size")
        if not (np.isfinite(self.diag).all() and np.isfinite(self.off).all()):
            raise ValueError(f"{self.label or 'operator'} has non-finite entries")

    @property
    def n(self) -> int:
        return self.diag.size

    @property
    def entries(self) -> np.ndarray:
        """The dense n x n matrix, laid out anew on each access."""
        return np.diag(self.diag) + np.diag(self.off, 1) + np.diag(self.off, -1)

    def _shifted(self, shift) -> np.ndarray:
        """A fresh diag + shift: LAPACK reads exactly n entries from it and checks none."""
        shift = np.asarray(shift, dtype=float)
        if shift.shape not in ((), (self.n,)) or not np.isfinite(shift).all():
            raise ValueError(f"{self.label or 'operator'}: shift must be a finite scalar or {self.n} finite entries")
        return self.diag + shift

    def eigenvalues(self, shift) -> np.ndarray:
        """Ascending eigenvalues of T + diag(shift) by LAPACK dsterf, those of a dense eigh bit for bit.

        Not bisection (stebz) at its default tolerance, ulp times the norm: on graded matrices such as the
        hyperradial operator (norm ~6e12) that misplaces shallow levels by up to 45 %.  The one bisection
        here, _smallest_singular_value, passes its own ABSTOL of two safe minima, so it converges to a few
        ulps relative instead.
        """
        vals = self._shifted(shift)
        info = _lapack("dsterf", self.n, vals, self.off.copy())
        if info != 0:
            raise np.linalg.LinAlgError(f"tridiagonal eigensolve did not converge (dsterf info {info})")
        return vals

    def count_negative(self, shift) -> int:
        """Number of eigenvalues of T + diag(shift) below 0: n less those at or below 0 of -(T + diag(shift)),
        which one O(n) Sturm sweep counts (LAPACK dlaebz, the count dstebz bisects with), so a 0 eigenvalue
        is not negative.  A pivot below pivmin in magnitude is taken as -pivmin, as in dstebz; dlarrc lacks
        that guard and miscounts after an exactly zero pivot ([[0, 1], [1, 0]], or a zero row)."""
        neg = -self._shifted(shift)
        e2 = np.append(self.off * self.off, 0.0)
        pivmin = np.finfo(float).tiny * max(1.0, e2.max())
        ab, nab = np.zeros(2), np.zeros(2, dtype=np.intc)
        nval, mout, iwork = (np.zeros(1, dtype=np.intc) for _ in range(3))
        # IJOB = 1 counts at both ends of the one interval AB = [0, 0]; it reads D, E2, PIVMIN and AB only
        e = np.append(self.off, 0.0)
        _lapack("dlaebz", 1, 0, self.n, 1, 1, 0, 0.0, 0.0, pivmin, neg, e, e2, nval, ab, np.zeros(1), mout, nab, np.zeros(1), iwork)
        return self.n - int(nab[0])

    def eigenpairs(self, shift):
        """Ascending eigenvalues and C-contiguous eigenvectors (columns) of T + diag(shift) by LAPACK dstevd: divide
        and conquer on the two diagonals (Gu & Eisenstat, SIMAX 16 (1995) 172), a dense eigh's bit for bit."""
        vals, off, z = self._shifted(shift), self.off.copy(), np.empty((self.n, self.n))
        work, iwork = np.empty(1 + 4 * self.n + self.n**2), np.empty(3 + 5 * self.n, dtype=np.intc)
        info = _lapack("dstevd", b"V", self.n, vals, off, z, self.n, work, work.size, iwork, iwork.size)
        if info != 0:
            raise np.linalg.LinAlgError(f"tridiagonal eigensolve did not converge (dstevd info {info})")
        return vals, np.ascontiguousarray(z.T)  # column-major Z read in C order is Z^T

    def inverse(self, shift) -> np.ndarray:
        """(T + diag(shift))^(-1) by LAPACK dgtsv against the identity: one tridiagonal LU with partial
        pivoting, O(n^2), and LU, not Cholesky, because T + shift may be indefinite."""
        x = np.eye(self.n)
        info = _lapack("dgtsv", self.n, self.n, self.off.copy(), self._shifted(shift), self.off.copy(), x, self.n)
        if info != 0:
            raise np.linalg.LinAlgError(f"{self.label or 'operator'} + diag(shift) is singular (dgtsv info {info})")
        return x.T  # column-major X read in C order is X^T

    @staticmethod
    def require(h, grid: RadialGrid) -> "TridiagonalOperator":
        """h itself, or a ValueError when h is dense (its entries off the three diagonals would be
        dropped), carries no grid, or was built on a grid whose nodes or weights differ from those of grid."""
        label = getattr(h, "label", "") or "operator"
        if not isinstance(h, TridiagonalOperator):
            raise ValueError(f"{label} is dense: entries off its three diagonals would be dropped")
        if h.grid is None:
            raise ValueError(f"{label} carries no grid")
        if not grid.matches(h.grid):
            raise ValueError(f"{label} was built on another grid")
        return h


@dataclass
class SpectrumReport:
    """Sorted eigenvalues with negative count and successive depth ratios."""

    eigenvalues: np.ndarray
    count_negative: int
    ratios: np.ndarray

    @classmethod
    def from_eigenvalues(cls, eigenvalues) -> "SpectrumReport":
        ev = np.sort(np.asarray(eigenvalues, dtype=float))
        if not np.isfinite(ev).all():
            raise ValueError("spectrum report needs finite eigenvalues")
        neg = ev[ev < 0.0]
        # Deepest state first; each ratio compares the next shallower level.
        ratios = np.abs(neg[1:]) / np.abs(neg[:-1]) if neg.size >= 2 else np.empty(0)
        return cls(ev, int(neg.size), ratios)


# ---------------------------------------------------------------------------
# kinetic discretization
#
# Every kinetic form here is a sum of squared weighted differences, so it is
# K = F^T F for a bidiagonal factor F: (n+1) x n lower for d=3, n x n upper
# for d=2 and the hyperradial form.  The two diagonals of F are closed forms
# in the nodes, built in O(n); so are the two diagonals of the tridiagonal K
# (_gram_tridiagonal), which is carried as a TridiagonalOperator.  Eigenpairs
# of K taken through the SVD of F keep relative accuracy ~ cond(F) * eps, not
# cond(K) * eps = cond(F)^2 * eps, and cond(K) can exceed 1e15 on the
# scale-bracketing grids the Efimov studies need.  LAPACK's bidiagonal
# divide-and-conquer SVD (dbdsdc) gives singular values S and right vectors V;
# for d=3 it takes F padded with a zero column as a square lower bidiagonal,
# which it folds to upper form by Givens rotations from the left (V is kept).
# sqrt(K) = V S V^T = W W^T with the root factor
# W = V S^(1/2); numpy hands W @ W.T to BLAS syrk, half the flops of a
# general product and exactly symmetric.  No dense O(n^3) Householder
# reduction or back-transform is spent on a bidiagonal matrix.
# scipy exports dbdsdc only as a Cython capsule, present in every scipy this
# package supports (>= 1.10), so the shim has no dense fallback: it would be
# a second path that never runs.


def _weighted_diagonals(grid: RadialGrid, k: int, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """F[i, i] and F[i, i+1] for (1/scale^2) int r^k |(u r^(-k/2))'|^2 dr, natural at r_min.

    k = 1: the d=2 s-wave form (u = sqrt(r) v); k = 3: the 4-d hyperradial
    s-wave form.  The last row closes the form one last-cell width beyond r_n.
    """
    nodes, sw = grid.nodes, np.sqrt(grid.weights)
    h = np.diff(nodes)
    # float_power rounds r^k as libm's pow does; numpy's SIMD loop behind **
    # can land one ulp away, which would move every matrix entry
    c = np.sqrt(np.float_power(0.5 * (nodes[:-1] + nodes[1:]), k) / h)
    c_last = np.sqrt(np.float_power(nodes[-1] + 0.5 * h[-1], k) / h[-1])
    r_pow = nodes ** -(0.5 * k)
    return np.append(-c * r_pow[:-1], c_last * r_pow[-1]) / scale / sw, c * r_pow[1:] / scale / sw[1:]


def _kinetic_diagonals(grid: RadialGrid, d: int, m: float) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal of the kinetic factor F, and F[i+1, i] (d=3, n entries) or F[i, i+1] (d=2, n - 1)."""
    if d not in (2, 3):
        raise ValueError("dimension must be 2 or 3")
    _check_positive("mass m", m)
    if d == 2:
        return _weighted_diagonals(grid, 1, np.sqrt(2.0 * m))
    # int u'^2 dr, Dirichlet at 0 (first cell [0, r_1]) and one last-cell width beyond r_n
    c = 1.0 / np.sqrt(np.diff(grid.nodes, prepend=0.0))
    sw = np.sqrt(grid.weights)
    return c / np.sqrt(2.0 * m) / sw, np.append(-c[1:], c[-1]) / np.sqrt(2.0 * m) / sw


def _gram_tridiagonal(diag: np.ndarray, off: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of K = F^T F, from F's diagonals as _kinetic_diagonals gives them."""
    if off.size == diag.size:
        return diag * diag + off * off, off[:-1] * diag[1:]
    return diag * diag + np.append(0.0, off * off), diag[:-1] * off


def discretize_h0(grid: RadialGrid, d: int = 3, m: float = 0.5) -> TridiagonalOperator:
    """Kinetic operator -(1/2m) Laplacian reduced to the s-wave sector.

    Symmetric positive semidefinite by construction (a Gram matrix), with
    Dirichlet behavior at the origin (regular reduced wave) and at r_max.
    """
    return TridiagonalOperator(*_gram_tridiagonal(*_kinetic_diagonals(grid, d, m)), grid, label=f"H0[d={d}]")


def hyperradial_kinetic(grid: RadialGrid, mass_scale: float = 1.0) -> TridiagonalOperator:
    """(1/mass_scale) times the 4-d hyperradial s-wave kinetic operator.

    The reduced wave u = r^(3/2) f carries the centrifugal 3/(4 r^2) term
    inside a manifestly nonnegative weighted first-derivative form.
    """
    _check_positive("mass_scale", mass_scale)
    k = _gram_tridiagonal(*_weighted_diagonals(grid, 3, np.sqrt(mass_scale)))
    return TridiagonalOperator(*k, grid, label="H_hyper")


def _lapack_table():
    """scipy.linalg.cython_lapack, LAPACK's capsule table, loaded from its own extension file unless it is
    imported already: an import by name first runs scipy.linalg's package init (about 0.1 s, mostly a numpy
    clone for the array API) for functions this package never calls."""
    name = "scipy.linalg.cython_lapack"
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.machinery.PathFinder.find_spec(name, [f"{scipy.__path__[0]}/linalg"])
    table = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(table)
    # Cython enters the module in sys.modules itself.  Without that entry a later import by name runs in
    # full, gets this same module object back from Cython and binds it as scipy.linalg's attribute.
    sys.modules.pop(name, None)
    return table


cython_lapack = _lapack_table()


# PyCapsule's accessors and the routine type, built once at import: ctypes.PYFUNCTYPE makes a new class on
# each call, and the two a lookup once made held about 10 kB until the cycle collector ran
_capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", ctypes.pythonapi))
_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(("PyCapsule_GetPointer", ctypes.pythonapi))
_routine_type = ctypes.CFUNCTYPE(None)


@functools.cache
def _lapack_routine(name: str):
    """LAPACK `name` as a ctypes function, or None where this LAPACK lacks it.  It comes from
    scipy.linalg.cython_lapack's capsule table, or else by symbol through the extension's own handle, whose
    dlsym also searches the LAPACK it links (scipy-openblas wheels prefix the symbol with scipy_).  It
    declares no argument types: every argument _lapack passes is already a pointer, and ctypes converts none
    on the way."""
    capsule = cython_lapack.__pyx_capi__.get(name)
    if capsule is None:
        lib = ctypes.CDLL(cython_lapack.__file__)
        for symbol in (f"scipy_{name}_", f"{name}_"):
            routine = getattr(lib, symbol, None)
            if routine is not None:
                routine.restype = None
                return routine
        return None
    return _routine_type(_capsule_pointer(capsule, _capsule_name(capsule)))


def _lapack(name: str, *args) -> int:
    """Run LAPACK `name` and return its INFO, appended as the last argument.  Fortran takes every argument by
    pointer: pass bytes for a character, an int for an integer, a float for a double precision scalar, and a
    C-contiguous, writable array, overwritten in place, for the rest (any other array raises TypeError).  No
    size is checked: each caller sizes its arrays.  It serves the LAPACK kernels numpy does not wrap: dbdsdc,
    dgtsv, dgttrf, dgttrs, dlaebz, dstebz, dstevd, dsterf and dsytrf, all listed in cython_lapack's table at
    every scipy>=1.10, and dsyevd_2stage (LAPACK >= 3.7), which the table lacks and _lapack_routine finds by
    symbol.  A routine this LAPACK lacks raises LookupError, naming it."""
    routine = _lapack_routine(name)
    if routine is None:
        raise LookupError(f"this LAPACK has no routine {name}")
    info = ctypes.c_int()
    routine(*map(_by_reference, args), ctypes.byref(info))
    return info.value


def _by_reference(a):
    if isinstance(a, bytes):
        return a
    if isinstance(a, int):
        return ctypes.byref(ctypes.c_int(a))
    if isinstance(a, float):
        return ctypes.byref(ctypes.c_double(a))
    # an empty array goes as NULL: LAPACK reads no entry of an array sized 0 (n = 1 off-diagonals, dgttrf's
    # DU2 at n = 2)
    return ctypes.byref(ctypes.c_char.from_buffer(a)) if a.size else None


# numpy's eigvalsh reduces to tridiagonal form with one-stage dsytrd, half of whose flops are memory-bound
# dsymv; dsyevd_2stage reduces to a band with BLAS3 first and then chases the band down.  On the contact
# image (1 BLAS thread, 2 vCPU, best of 5) they cross between n = 900 and 1000: numpy 40.9 against 44.0 ms
# at n = 900, 57.6 against 56.2 ms at n = 1000, 203 against 151 ms at n = 1500, 473 against 318 ms at
# n = 2000.
TWO_STAGE_MIN_N = 1000


def _dense_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the dense symmetric matrix a, read from its lower triangle as numpy reads it.
    Below TWO_STAGE_MIN_N rows, or where LAPACK lacks dsyevd_2stage, this is np.linalg.eigvalsh(a); from
    there on it is dsyevd_2stage.  Raises LinAlgError for a non-square matrix, and when LAPACK does not
    converge, as numpy does."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise np.linalg.LinAlgError(f"eigenvalues need a square matrix: got shape {a.shape}")
    n = a.shape[0]
    if n < TWO_STAGE_MIN_N or _lapack_routine("dsyevd_2stage") is None:
        return np.linalg.eigvalsh(a)
    # a fresh C-contiguous copy, overwritten: read in Fortran order it is a.T, whose upper triangle is a's lower
    buf = np.array(a, dtype=float, order="C")
    w = np.empty(n)
    work, iwork = np.empty(1), np.empty(1, dtype=np.intc)
    _lapack("dsyevd_2stage", b"N", b"U", n, buf, n, w, work, -1, iwork, -1)  # workspace query
    work, iwork = np.empty(int(work[0])), np.empty(int(iwork[0]), dtype=np.intc)
    info = _lapack("dsyevd_2stage", b"N", b"U", n, buf, n, w, work, work.size, iwork, iwork.size)
    if info != 0:
        raise np.linalg.LinAlgError(f"symmetric eigensolve did not converge (dsyevd_2stage info {info})")
    return w


def _count_above(a: np.ndarray, shift: float) -> int:
    """Number of eigenvalues above shift of the dense symmetric a, read from its lower triangle: by Sylvester's
    law, the positive eigenvalues of D in one Bunch-Kaufman LDL^T of a - shift (LAPACK dsytrf; Bunch & Kaufman,
    Math. Comp. 31 (1977) 163), about n^3/3 flops against the spectrum's 4n^3/3.  A 1 x 1 pivot counts by its
    sign, a 2 x 2 pivot once (the pivoting rule takes only those of negative determinant), and the exactly
    zero pivot an eigenvalue at shift leaves (INFO > 0, not an error) not at all."""
    n = a.shape[0]
    # a fresh C-contiguous copy, overwritten: read in Fortran order it is a.T, whose upper triangle is a's lower
    buf = np.array(a, dtype=float, order="C")
    buf[np.diag_indices(n)] -= shift
    ipiv, work = np.empty(n, dtype=np.intc), np.empty(1)
    _lapack("dsytrf", b"U", n, buf, n, ipiv, work, -1)  # workspace query
    work = np.empty(int(work[0]))
    info = _lapack("dsytrf", b"U", n, buf, n, ipiv, work, work.size)
    if info < 0:
        raise ValueError(f"dsytrf refused argument {-info}")
    # each 2 x 2 pivot marks both of its rows with a negative IPIV
    one = ipiv > 0
    return int(np.count_nonzero(buf.diagonal()[one] > 0.0) + np.count_nonzero(~one) // 2)


def _dbdsdc(diag: np.ndarray, off: np.ndarray):
    """Singular values s, descending, and right singular vectors V of a bidiagonal F = U diag(s) V^T.

    F is n x n upper bidiagonal when off holds its n - 1 superdiagonal
    entries, or (n+1) x n lower bidiagonal when off holds the n entries
    F[i+1, i] (the d=3 kinetic factor).  The lower one is padded with a zero
    column, a square lower bidiagonal that LAPACK folds itself (UPLO = 'L');
    the padded singular value (0, lifted by dbdsdc to 0.9 * 2^-53 times the
    largest entry) sorts last and is dropped with its vector and with V's
    padded row, which is exactly 0.  V is returned with
    the vectors as columns.  Raises LinAlgError when dbdsdc does not
    converge, as np.linalg.svd does.
    """
    n = diag.size
    if n < 1 or off.shape not in ((n - 1,), (n,)):
        raise ValueError("bidiagonal needs n >= 1 diagonal and n - 1 (upper) or n (lower) off-diagonal entries")
    lower = off.size == n
    nb = n + lower
    s = np.zeros(nb)  # diag, then the padding 0 of the lower layout; overwritten by the singular values
    s[:n] = diag
    e = np.array(off, dtype=float)
    # Column-major VT read in C order is V itself.  Q and IQ are not referenced
    # when COMPQ = 'I'.
    # WORK before U and VT: in the other order, the (n+1)^2 blocks of the d=3
    # calls fragment the heap, and find_thresholds' peak RSS grew by 5 MB at n = 600
    work = np.empty(3 * nb * nb + 4 * nb)
    u, v, q = np.empty((nb, nb)), np.empty((nb, nb)), np.empty(1)
    iq = np.empty(1, dtype=np.intc)
    iwork = np.empty(8 * nb, dtype=np.intc)
    info = _lapack("dbdsdc", b"L" if lower else b"U", b"I", nb, s, e, u, nb, v, nb, q, iq, work, iwork)
    if info != 0:
        raise np.linalg.LinAlgError(f"bidiagonal SVD did not converge (dbdsdc info {info})")
    return s[:n], v[:n, :n]


def _smallest_singular_value(gk: np.ndarray) -> float:
    """Smallest singular value of the n x n bidiagonal with diagonal gk[0::2] and off-diagonal gk[1::2].

    gk is the off-diagonal of the 2n x 2n Golub-Kahan form, the zero-diagonal tridiagonal whose eigenvalues
    are the +-singular values, so the smallest is its eigenvalue n + 1.  LAPACK dstebz bisects for that one
    (RANGE = 'I') with ABSTOL = 2 * safe minimum, as dbdsvdx sets it, O(n) per step, and so converges to a
    few ulps relative, which Sturm counts on that form keep (Demmel & Kahan, SIAM J. Sci. Stat. Comput. 11
    (1990) 873).  Raises LinAlgError when dstebz fails.
    """
    n = (gk.size + 1) // 2
    m, nsplit = np.zeros(1, dtype=np.intc), np.zeros(1, dtype=np.intc)
    w, iblock, isplit = np.empty(2 * n), np.empty(2 * n, dtype=np.intc), np.empty(2 * n, dtype=np.intc)
    work, iwork = np.empty(8 * n), np.empty(6 * n, dtype=np.intc)  # 4N and 3N at N = 2n
    abstol = 2.0 * np.finfo(float).tiny
    info = _lapack("dstebz", b"I", b"E", 2 * n, 0.0, 0.0, n + 1, n + 1, abstol, np.zeros(2 * n), gk, m, nsplit, w, iblock, isplit, work, iwork)
    if info != 0 or m[0] != 1:
        raise np.linalg.LinAlgError(f"bisection for the smallest singular value failed (dstebz info {info}, {m[0]} values)")
    return float(w[0])


def _root_factor(grid: RadialGrid, d: int = 3, m: float = 0.5) -> np.ndarray:
    """W = V S^(1/2), a fresh array, from the bidiagonal SVD F = U S V^T: sqrt(H0) = W W^T."""
    s, v = _dbdsdc(*_kinetic_diagonals(grid, d, m))
    v *= np.sqrt(s)
    return v

