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
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import _umath_linalg

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
    """Reject a matrix with a NaN or inf entry, or with max |m - m^T| above rtol times max |m|, using one n x n
    temporary: the largest entry of the antisymmetric m - m^T is its largest in magnitude."""
    hi, lo = m.max(), m.min()
    if not (np.isfinite(hi) and np.isfinite(lo)):
        raise ValueError(f"{label} has non-finite entries")
    scale = max(hi, -lo)
    if scale == 0.0:
        return
    asym = (m - m.T).max()
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
        ab, nab = np.zeros(2), np.zeros(2, dtype=LAPACK_INT)
        nval, mout, iwork = (np.zeros(1, dtype=LAPACK_INT) for _ in range(3))
        # IJOB = 1 counts at both ends of the one interval AB = [0, 0]; it reads D, E2, PIVMIN and AB only
        e = np.append(self.off, 0.0)
        _lapack("dlaebz", 1, 0, self.n, 1, 1, 0, 0.0, 0.0, pivmin, neg, e, e2, nval, ab, np.zeros(1), mout, nab, np.zeros(1), iwork)
        return self.n - int(nab[0])

    def eigenpairs(self, shift):
        """Ascending eigenvalues and C-contiguous eigenvectors (columns) of T + diag(shift) by LAPACK dstevd: divide
        and conquer on the two diagonals (Gu & Eisenstat, SIMAX 16 (1995) 172), a dense eigh's bit for bit."""
        vals, off, z = self._shifted(shift), self.off.copy(), np.empty((self.n, self.n))
        work, iwork = np.empty(1 + 4 * self.n + self.n**2), np.empty(3 + 5 * self.n, dtype=LAPACK_INT)
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
class SquareRootOperator:
    """sqrt(F^T F) + diag(shift) on weight-scaled reduced waves, for a bidiagonal kinetic factor F.

    It is carried as F's two diagonals, as _kinetic_diagonals gives them, and the n shifts; any mass is in
    F's entries.  The dense matrix is laid out only on request, from the root factor of F^T F: one triangle
    into one fresh n x n array by _upper_triangle, the full matrix by entries.
    """

    diag: np.ndarray = field(repr=False)
    off: np.ndarray = field(repr=False)
    shift: np.ndarray = field(repr=False)
    grid: object  # RadialGrid or None
    label: str = ""

    def __post_init__(self):
        self.diag, self.off, self.shift = (np.asarray(a, dtype=float) for a in (self.diag, self.off, self.shift))
        n = self.diag.size
        if n < 1 or self.diag.shape != (n,) or self.off.shape not in ((n,), (n - 1,)) or self.shift.shape != (n,):
            raise ValueError("square-root operator needs n >= 1 diagonal entries of F, n or n - 1 off-diagonal ones and n shifts")
        if self.grid is not None and n != self.grid.n:
            raise ValueError("matrix dimension must match grid size")
        if not all(np.isfinite(a).all() for a in (self.diag, self.off, self.shift)):
            raise ValueError(f"{self.label or 'operator'} has non-finite entries")

    @property
    def n(self) -> int:
        return self.diag.size

    def _upper_triangle(self) -> np.ndarray:
        """A fresh C-contiguous n x n array whose upper triangle (diagonal included) is this matrix's: the
        storage of the root factor W, read as W^T, overwritten in place by W W^T and then shifted."""
        a = _gram_in_place(_root_factor(self.diag, self.off).T)
        a.reshape(-1)[:: self.n + 1] += self.shift
        return a

    @property
    def entries(self) -> np.ndarray:
        """The dense symmetric n x n matrix, laid out anew on each access: the upper triangle, mirrored one
        panel of rows at a time."""
        a = self._upper_triangle()
        for p0 in range(0, self.n, GRAM_PANEL):
            block = a[p0 : p0 + GRAM_PANEL, p0 : p0 + GRAM_PANEL]
            block[...] = np.triu(block) + np.triu(block, 1).T
            a[p0 : p0 + GRAM_PANEL, :p0] = a[:p0, p0 : p0 + GRAM_PANEL].T
        return a


@dataclass
class SpectrumReport:
    """Sorted eigenvalues with their negative count."""

    eigenvalues: np.ndarray
    count_negative: int

    @classmethod
    def from_eigenvalues(cls, eigenvalues) -> "SpectrumReport":
        ev = np.sort(np.asarray(eigenvalues, dtype=float))
        if not np.isfinite(ev).all():
            raise ValueError("spectrum report needs finite eigenvalues")
        return cls(ev, int(np.count_nonzero(ev < 0.0)))


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
# scale-bracketing grids the Efimov studies need.  sqrt(K) = Z Lambda^(1/2) Z^T
# = W W^T with the root factor W = Z Lambda^(1/4), from the eigenpairs of K
# taken on its factor: for d=3, n Givens rotations from the left fold F to an
# n x n upper bidiagonal R with R^T R = F^T F, as dbdsqr and dbdsdc fold a
# lower bidiagonal; dqds (dlasq1) gives R's singular values, Lambda = S^2, to
# high relative accuracy; and MR^3 (dlarrv) gives Z from K = L D L^T,
# D = R_ii^2, L[i+1, i] = R[i, i+1] / R_ii, which R defines to high relative
# accuracy (Dhillon & Parlett, Linear Algebra Appl. 387 (2004) 1; Grosser &
# Lang, Linear Algebra Appl. 358 (2003) 45).  Z is the only n x n array, where
# the bidiagonal divide-and-conquer SVD (dbdsdc) holds U, V and a 3n^2
# workspace as well; and on the d=3 threshold-ladder grid at r_min 1e-10
# (n = 600) the inertia spectrum from dbdsdc's V is 5e-7 off the one from a
# zero-shift QR (dbdsqr), where MR^3 agrees with it to 1.1e-13.  Z's storage
# then takes the dense operator itself: _gram_in_place overwrites one triangle
# of the C-contiguous W^T with that of W W^T, one column panel at a time, at
# syrk's n^3 flops, and the diagonal shift and the eigensolve
# (_eigenvalues_in_place) act on that same array, so one n x n array is alive
# from the root to the eigenvalues.  No dense O(n^3) Householder reduction or
# back-transform is spent on a bidiagonal matrix.


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


# Every LAPACK routine _lapack runs comes from the LAPACK numpy links (scipy-openblas64 in the PyPI wheels),
# by its symbol scipy_<name>_64_ through the handle of numpy's linalg extension, whose dlsym also searches
# the libraries that extension links: one OpenBLAS per process, whose BLAS buffers numpy's matmul and eigvalsh
# share.  That LAPACK is ILP64, so every integer goes at LAPACK_INT's width, 64 bits.
LAPACK_INT = np.int64
_NUMPY_LAPACK = ctypes.CDLL(_umath_linalg.__file__)
# the routines _lapack serves, resolved at import: a LAPACK that lacks one fails there, not at its first caller
LAPACK_ROUTINES = ("dgtsv", "dgttrf", "dgttrs", "dlaebz", "dlarrv", "dlasq1", "dstebz", "dstevd", "dsterf", "dsyevd",
                   "dsyevd_2stage", "dsytrf")


@functools.cache
def _lapack_routine(name: str):
    """LAPACK `name` as a ctypes function, or None where numpy's LAPACK lacks it.  It declares no argument
    types: every argument _lapack passes is already a pointer, and ctypes converts none on the way."""
    routine = getattr(_NUMPY_LAPACK, f"scipy_{name}_64_", None)
    if routine is not None:
        routine.restype = None
    return routine


_missing = [f"scipy_{name}_64_" for name in LAPACK_ROUTINES if _lapack_routine(name) is None]
if _missing:
    raise ImportError(f"numpy's LAPACK ({_umath_linalg.__file__}) exports no {', '.join(_missing)}")


def _lapack(name: str, *args) -> int:
    """Run LAPACK `name` and return its INFO, appended as the last argument.  Fortran takes every argument by
    pointer: pass bytes for a character, an int for an integer, a float for a double precision scalar, and a
    C-contiguous, writable array, overwritten in place, for the rest (any other array raises TypeError); an
    integer array must be of LAPACK_INT, and one of any other width raises TypeError, naming the routine and
    the argument, before LAPACK reads it.  No size is checked: each caller sizes its arrays.  It serves the
    LAPACK kernels numpy does not wrap, or not in place, LAPACK_ROUTINES: dgtsv, dgttrf, dgttrs, dlaebz,
    dlarrv, dlasq1, dstebz, dstevd, dsterf, dsyevd, dsyevd_2stage (LAPACK >= 3.7) and dsytrf.  A routine
    numpy's LAPACK lacks raises LookupError, naming it."""
    routine = _lapack_routine(name)
    if routine is None:
        raise LookupError(f"this LAPACK has no routine {name}")
    info = ctypes.c_int64()
    routine(*(_by_reference(a, name, k) for k, a in enumerate(args, 1)), ctypes.byref(info))
    return info.value


def _by_reference(a, name: str, k: int):
    """Argument k of LAPACK `name` as _lapack passes it."""
    if isinstance(a, bytes):
        return a
    if isinstance(a, int):
        return ctypes.byref(ctypes.c_int64(a))
    if isinstance(a, float):
        return ctypes.byref(ctypes.c_double(a))
    # a 32-bit IPIV or IWORK would be read and written 8 bytes an entry, past its end
    if a.dtype.kind in "iu" and a.dtype != LAPACK_INT:
        raise TypeError(f"{name} argument {k} is an integer array of {a.dtype}; LAPACK takes {np.dtype(LAPACK_INT)}")
    # an empty array goes as NULL: LAPACK reads no entry of an array sized 0 (n = 1 off-diagonals, dgttrf's
    # DU2 at n = 2)
    return ctypes.byref(ctypes.c_char.from_buffer(a)) if a.size else None


# dsyevd, numpy's eigvalsh, reduces to tridiagonal form with one-stage dsytrd, half of whose flops are
# memory-bound dsymv; dsyevd_2stage reduces to a band with BLAS3 first and then chases the band down.  On
# the contact image (1 BLAS thread, 2 vCPU, best of 5) they cross between n = 900 and 1000: numpy 40.9
# against 44.0 ms at n = 900, 57.6 against 56.2 ms at n = 1000, 203 against 151 ms at n = 1500, 473
# against 318 ms at n = 2000.
TWO_STAGE_MIN_N = 1000


def _eigenvalues_in_place(a: np.ndarray, uplo: bytes) -> np.ndarray:
    """Ascending eigenvalues of the symmetric matrix held in one triangle of the C-contiguous n x n array a,
    which they overwrite.  uplo names the triangle in LAPACK's Fortran view of a, which is a.T: b"L" reads
    a's upper triangle, b"U" its lower.  JOBZ = N, no eigenvectors: dsyevd below TWO_STAGE_MIN_N rows,
    dsyevd_2stage from there on, with no copy of a.  Raises LinAlgError, naming the routine, when LAPACK
    does not converge."""
    n = a.shape[0]
    routine = "dsyevd_2stage" if n >= TWO_STAGE_MIN_N else "dsyevd"
    w = np.empty(n)
    work, iwork = np.empty(1), np.empty(1, dtype=LAPACK_INT)
    _lapack(routine, b"N", uplo, n, a, n, w, work, -1, iwork, -1)  # workspace query
    work, iwork = np.empty(int(work[0])), np.empty(int(iwork[0]), dtype=LAPACK_INT)
    info = _lapack(routine, b"N", uplo, n, a, n, w, work, work.size, iwork, iwork.size)
    if info != 0:
        raise np.linalg.LinAlgError(f"symmetric eigensolve did not converge ({routine} info {info})")
    return w


def _dense_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the dense symmetric matrix a, read from its lower triangle as numpy reads it.
    Below TWO_STAGE_MIN_N rows this is np.linalg.eigvalsh(a); from there on it is _eigenvalues_in_place on a
    copy.  Raises LinAlgError for a non-square matrix, and when LAPACK does not converge, as numpy does."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise np.linalg.LinAlgError(f"eigenvalues need a square matrix: got shape {a.shape}")
    if a.shape[0] < TWO_STAGE_MIN_N:
        return np.linalg.eigvalsh(a)
    # a fresh C-contiguous copy, whose lower triangle is a's
    return _eigenvalues_in_place(np.array(a, dtype=float, order="C"), b"U")


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
    ipiv, work = np.empty(n, dtype=LAPACK_INT), np.empty(1)
    _lapack("dsytrf", b"U", n, buf, n, ipiv, work, -1)  # workspace query
    work = np.empty(int(work[0]))
    info = _lapack("dsytrf", b"U", n, buf, n, ipiv, work, work.size)
    if info < 0:
        raise ValueError(f"dsytrf refused argument {-info}")
    # each 2 x 2 pivot marks both of its rows with a negative IPIV
    one = ipiv > 0
    return int(np.count_nonzero(buf.diagonal()[one] > 0.0) + np.count_nonzero(~one) // 2)


def _smallest_singular_value(gk: np.ndarray) -> float:
    """Smallest singular value of the n x n bidiagonal with diagonal gk[0::2] and off-diagonal gk[1::2].

    gk is the off-diagonal of the 2n x 2n Golub-Kahan form, the zero-diagonal tridiagonal whose eigenvalues
    are the +-singular values, so the smallest is its eigenvalue n + 1.  LAPACK dstebz bisects for that one
    (RANGE = 'I') with ABSTOL = 2 * safe minimum, as dbdsvdx sets it, O(n) per step, and so converges to a
    few ulps relative, which Sturm counts on that form keep (Demmel & Kahan, SIAM J. Sci. Stat. Comput. 11
    (1990) 873).  Raises LinAlgError when dstebz fails.
    """
    n = (gk.size + 1) // 2
    m, nsplit = np.zeros(1, dtype=LAPACK_INT), np.zeros(1, dtype=LAPACK_INT)
    w, iblock, isplit = np.empty(2 * n), np.empty(2 * n, dtype=LAPACK_INT), np.empty(2 * n, dtype=LAPACK_INT)
    work, iwork = np.empty(8 * n), np.empty(6 * n, dtype=LAPACK_INT)  # 4N and 3N at N = 2n
    abstol = 2.0 * np.finfo(float).tiny
    info = _lapack("dstebz", b"I", b"E", 2 * n, 0.0, 0.0, n + 1, n + 1, abstol, np.zeros(2 * n), gk, m, nsplit, w, iblock, isplit, work, iwork)
    if info != 0 or m[0] != 1:
        raise np.linalg.LinAlgError(f"bisection for the smallest singular value failed (dstebz info {info}, {m[0]} values)")
    return float(w[0])


def _upper_bidiagonal(diag: np.ndarray, off: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and superdiagonal of the n x n upper bidiagonal R with R^T R = F^T F, F as _kinetic_diagonals
    gives it.  An upper F is R.  A lower (n+1) x n F is folded by n Givens rotations from the left: rotation
    i mixes rows i and i+1 to zero F[i+1, i], and the last leaves row n zero."""
    n = diag.size
    if off.size < n:
        return diag, off
    d, e = diag.tolist(), off.tolist()
    r, s = np.empty(n), np.empty(n - 1)
    for i in range(n):
        r[i] = rho = math.hypot(d[i], e[i])
        if i + 1 < n:
            s[i] = e[i] / rho * d[i + 1]
            d[i + 1] *= d[i] / rho
    return r, s


def _root_factor(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """W = Z Lambda^(1/4), a fresh n x n array (Fortran order, so W.T is C-contiguous), from the eigenpairs
    K Z = Z Lambda of the kinetic K = F^T F = R^T R, F's diagonals as _kinetic_diagonals gives them:
    sqrt(K) = W W^T.  Lambda = S^2 from R's singular values by dqds (LAPACK dlasq1); Z by MR^3 (dlarrv)
    from K = L D L^T with shift 0, given Lambda ascending, its error bounds WERR and gaps WGAP,
    the Gerschgorin intervals and PIVMIN as dlarre and dstemr set them.  WERR is dlarre's estimate of dqds's
    relative error, 4 ln(n) eps, doubled for the square (4 eps took dlarrv twice as long at n = 2000, to the
    same accuracy).  Raises LinAlgError, naming the routine, when either fails."""
    r, s = _upper_bidiagonal(diag, off)
    n = r.size
    sigma = np.array(r)  # overwritten by the singular values, descending
    info = _lapack("dlasq1", n, sigma, np.append(s, 0.0), np.empty(4 * n))
    if info != 0:
        raise np.linalg.LinAlgError(f"bidiagonal singular values did not converge (dlasq1 info {info})")
    lam = sigma[::-1] ** 2
    eps = np.finfo(float).eps
    werr = 8.0 * math.log(n) * eps * lam
    kd, ko = _gram_tridiagonal(r, s)
    ko = np.abs(ko)
    radius = np.append(ko, 0.0) + np.append(0.0, ko)
    gers = np.ravel([kd - radius, kd + radius], order="F")  # (lower, upper) of each row
    vl, vu = float(gers[0::2].min()), float(gers[1::2].max())
    wgap = np.append(lam[1:] - werr[1:] - lam[:-1] - werr[:-1], vu - lam[-1] - werr[-1]).clip(0.0)
    pivmin = np.finfo(float).tiny * max(1.0, ko.max() ** 2)
    # L's subdiagonal, then the block's shift
    sub = np.append(s / r[:-1], 0.0)
    # column-major Z read in C order is Z^T: row j is eigenvector j
    z = np.empty((n, n))
    iblock, indexw = np.ones(n, dtype=LAPACK_INT), np.arange(1, n + 1, dtype=LAPACK_INT)
    isuppz, work, iwork = np.empty(2 * n, dtype=LAPACK_INT), np.empty(12 * n), np.empty(7 * n, dtype=LAPACK_INT)
    rtol1, rtol2 = math.sqrt(eps), max(5e-3 * math.sqrt(eps), 4.0 * eps)
    info = _lapack("dlarrv", n, vl, vu, r * r, sub, pivmin, np.array([n], dtype=LAPACK_INT), n, 1, n, 1e-3, rtol1, rtol2,
                   np.array(lam), werr, wgap, iblock, indexw, gers, z, n, isuppz, work, iwork)
    if info != 0:
        raise np.linalg.LinAlgError(f"eigenvectors of the factored kinetic failed (dlarrv info {info})")
    z *= np.sqrt(np.sqrt(lam))[:, None]
    return z.T


GRAM_PANEL = 256  # columns per panel of _gram_in_place: its one temporary is GRAM_PANEL x n


def _gram_in_place(z: np.ndarray) -> np.ndarray:
    """z, a C-contiguous n x n array, with its upper triangle (diagonal included) overwritten by that of
    z^T z; below the diagonal blocks it keeps its old entries.  Column panels go from the right: panel
    [p0, p1) of the result, rows :p1, reads only columns :p1 of z, so once it is formed the panel's own
    columns take it.  Its rows :p0 are one gemm and its diagonal block one syrk: n^3 flops in all, as for a
    whole syrk."""
    n = z.shape[0]
    for p0 in range((n - 1) // GRAM_PANEL * GRAM_PANEL, -1, -GRAM_PANEL):
        panel = z[:, p0 : p0 + GRAM_PANEL]
        top = panel.T @ z[:, :p0]  # as a row panel, which BLAS forms faster than its transpose
        z[p0 : p0 + GRAM_PANEL, p0 : p0 + GRAM_PANEL] = panel.T @ panel
        z[:p0, p0 : p0 + GRAM_PANEL] = top.T
    return z
