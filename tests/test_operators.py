import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh, eigvalsh_tridiagonal, solve_banded

from zrange import birman_schwinger, operators
from zrange.birman_schwinger import bs_operator, find_resonance_coupling, two_resonance_matrix
from zrange.efimov import effective_operator, mass_sweep_2d
from zrange.grids import GridFunction, build_grid
from zrange.konno_kuroda import (
    assemble_resolvent_diff,
    direct_resolvent_diff,
    independence_spectrum_check,
    negative_count_direct,
)
from zrange.operators import (
    OperatorMatrix,
    TridiagonalOperator,
    check_symmetric,
    discretize_h0,
    hyperradial_kinetic,
)
from zrange.limit_resolvent import ProductFreeResolvent, ProductGrid, assemble_w_eps
from zrange.potentials import BasePotential, ScaledPotential, ScalingLaw

from oracles import _factor_d3, _factor_weighted, green_kernel_matrix, radial_green_kernel


def _random_symmetric(n, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return 0.5 * (a + a.T)


def test_asymmetric_input_rejected():
    m = _random_symmetric(10, seed=2)
    m[0, 1] += 1.0
    with pytest.raises(ValueError, match="symmetric"):
        OperatorMatrix(m, None)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("entry", [(3, 3), (2, 7)])
def test_non_finite_entries_rejected(bad, entry):
    # a NaN or inf makes every comparison with the tolerance false
    m = _random_symmetric(10, seed=3)
    m[entry] = m[entry[::-1]] = bad
    with pytest.raises(ValueError, match="non-finite"):
        check_symmetric(m)
    with pytest.raises(ValueError, match="non-finite"):
        OperatorMatrix(m, None)


# ---------------------------------------------------------------------------
# kinetic factor


def _oracle_factor(g, form, m):
    # the loop builders, scaled as the package scales its factor
    if form == "hyperradial":
        f, scale = _factor_weighted(g.nodes, lambda r: r**3, 1.5), np.sqrt(m)
    elif form == 2:
        f, scale = _factor_weighted(g.nodes, lambda r: r, 0.5), np.sqrt(2.0 * m)
    else:
        f, scale = _factor_d3(g.nodes), np.sqrt(2.0 * m)
    return f / scale / np.sqrt(g.weights)[None, :]


FACTOR_GRIDS = {
    "log": build_grid(500, 2e2, "logarithmic", r_min=1e-10),
    "linear": build_grid(300, 20.0, "linear"),
}


@pytest.mark.parametrize("m", [0.5, 2.0])
@pytest.mark.parametrize("spacing", sorted(FACTOR_GRIDS))
@pytest.mark.parametrize("form", [3, 2, "hyperradial"])
def test_factor_diagonals_match_loop_oracle(form, spacing, m):
    g = FACTOR_GRIDS[spacing]
    ref = _oracle_factor(g, form, m)
    if form == "hyperradial":
        diag, off = operators._weighted_diagonals(g, 3, np.sqrt(m))
    else:
        diag, off = operators._kinetic_diagonals(g, form, m)
    ref_off = np.diag(ref, -1) if form == 3 else np.diag(ref, 1)
    for got, want in ((diag, np.diag(ref)), (off, ref_off)):
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))


@pytest.mark.parametrize("m", [0.5, 2.0])
@pytest.mark.parametrize("spacing", sorted(FACTOR_GRIDS))
@pytest.mark.parametrize("form", [3, 2, "hyperradial"])
def test_kinetic_matrix_is_the_gram_matrix_of_the_loop_oracle(form, spacing, m):
    # the O(n) tridiagonal assembly against F^T F of the dense loop factor:
    # the same nonzero pattern, and each entry within a few ulp
    g = FACTOR_GRIDS[spacing]
    f = _oracle_factor(g, form, m)
    want = f.T @ f
    got = hyperradial_kinetic(g, m).entries if form == "hyperradial" else discretize_h0(g, form, m).entries
    assert np.array_equal(got != 0.0, want != 0.0)
    assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * np.abs(want))


# ---------------------------------------------------------------------------
# discretize_h0


@pytest.mark.parametrize("d,spacing", [(3, "linear"), (3, "logarithmic"), (2, "linear"), (2, "logarithmic")])
def test_kinetic_positive_semidefinite(d, spacing):
    g = build_grid(200, 20.0, spacing, r_min=1e-4 if spacing == "logarithmic" else None)
    h = discretize_h0(g, d, 0.5)
    low = eigh(h.entries, eigvals_only=True, subset_by_index=[0, 0])[0]
    assert low > -1e-12 * np.abs(h.entries).max()


def test_particle_in_a_box_ground_state():
    L, m = 10.0, 0.5
    g = build_grid(400, L, "linear")
    h = discretize_h0(g, 3, m)
    e0 = eigh(h.entries, eigvals_only=True, subset_by_index=[0, 0])[0]
    exact = np.pi**2 / (2.0 * m * L**2)
    assert e0 == pytest.approx(exact, rel=0.01)


def test_doubling_mass_halves_spectrum():
    g = build_grid(100, 5.0, "linear")
    e1 = eigh(discretize_h0(g, 3, 0.5).entries, eigvals_only=True)
    e2 = eigh(discretize_h0(g, 3, 1.0).entries, eigvals_only=True)
    assert np.allclose(e2, e1 / 2.0, rtol=1e-12)


def test_resolved_system_positive_definite():
    # (H0 + z)^(-1) positive for z > 0: solving for random rhs keeps
    # positive quadratic form
    g = build_grid(150, 8.0, "linear")
    h = discretize_h0(g, 3, 0.5).entries
    rng = np.random.default_rng(2)
    for z in (0.1, 1.0, 10.0):
        f = rng.standard_normal(150)
        out = np.linalg.solve(h + z * np.eye(150), f)
        assert f @ out > 0.0


def test_hyperradial_kinetic_psd_and_mass_scaling():
    g = build_grid(150, 50.0, "logarithmic", r_min=1e-3)
    h1 = hyperradial_kinetic(g, 1.0)
    h4 = hyperradial_kinetic(g, 4.0)
    assert eigh(h1.entries, eigvals_only=True, subset_by_index=[0, 0])[0] > -1e-12
    assert np.allclose(h4.entries, h1.entries / 4.0)


# ---------------------------------------------------------------------------
# TridiagonalOperator


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("part", ["diag", "off"])
def test_tridiagonal_non_finite_entries_rejected(part, bad):
    diag, off = np.ones(5), np.zeros(4)
    (diag if part == "diag" else off)[2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        TridiagonalOperator(diag, off, None)


def test_tridiagonal_shape_and_grid_checked():
    with pytest.raises(ValueError, match="n - 1 off-diagonal"):
        TridiagonalOperator(np.ones(5), np.zeros(5), None)
    with pytest.raises(ValueError, match="grid size"):
        TridiagonalOperator(np.ones(9), np.zeros(8), build_grid(10, 1.0, "linear"))


@pytest.mark.parametrize("spacing", sorted(FACTOR_GRIDS))
@pytest.mark.parametrize("form", [3, 2, "hyperradial", "K - V"])
def test_eigenpairs_match_dense_eigh_of_the_entries(form, spacing):
    # dstevd on the two diagonals against a dense eigh of the laid-out
    # matrix: values within 1e-12 of the spectral radius, vectors within
    # 1e-12 up to sign, and the vectors C-contiguous
    g = FACTOR_GRIDS[spacing]
    op = hyperradial_kinetic(g, 2.0) if form == "hyperradial" else discretize_h0(g, 2 if form == 2 else 3, 0.5)
    shift = -4.0 * np.exp(-g.nodes**2) if form == "K - V" else 0.0
    vals, vecs = op.eigenpairs(shift)
    want_vals, want_vecs = np.linalg.eigh(op.entries + np.diag(np.broadcast_to(shift, g.n)))
    assert vecs.flags.c_contiguous
    assert np.abs(vals - want_vals).max() <= 1e-12 * np.abs(want_vals).max()
    signs = np.sign(np.sum(vecs * want_vecs, axis=0))
    assert np.abs(vecs * signs - want_vecs).max() <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_eigenpairs_of_the_smallest_operators(n):
    # n = 1 has an empty off-diagonal, which scipy's f2py dstevd wrapper
    # refuses; the LAPACK routine itself takes it
    rng = np.random.default_rng(n)
    op = TridiagonalOperator(rng.normal(size=n), rng.normal(size=n - 1), None)
    vals, vecs = op.eigenpairs(0.5)
    want_vals, want_vecs = np.linalg.eigh(op.entries + 0.5 * np.eye(n))
    assert vals.shape == (n,) and vecs.shape == (n, n) and vecs.flags.c_contiguous
    assert np.abs(vals - want_vals).max() <= 1e-12 * np.abs(want_vals).max()
    signs = np.sign(np.sum(vecs * want_vecs, axis=0))
    assert np.abs(vecs * signs - want_vecs).max() <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_tridiagonal_lapack_routes_of_the_smallest_operators(n):
    # _lapack passes raw pointers, so each routine is run at the sizes where
    # an off-by-one in its caller's arrays would show: dsterf (eigenvalues),
    # dgtsv (inverse) and the dgttrf/dgttrs pair of the resonance inverse
    # iteration, each against dense numpy
    rng = np.random.default_rng(10 + n)
    op = TridiagonalOperator(rng.normal(size=n), rng.normal(size=n - 1), None)
    dense = op.entries + 0.5 * np.eye(n)
    want = np.linalg.eigvalsh(dense)
    assert np.abs(op.eigenvalues(0.5) - want).max() <= 1e-12 * np.abs(want).max()
    assert np.abs(op.inverse(0.5) @ dense - np.eye(n)).max() <= 1e-12
    dl, d, du = op.off.copy(), op.diag + 0.5, op.off.copy()
    du2, ipiv = np.empty(max(n - 2, 0)), np.empty(n, dtype=np.intc)
    assert operators._lapack("dgttrf", n, dl, d, du, du2, ipiv) == 0
    b = rng.normal(size=n)
    x = b.copy()
    assert operators._lapack("dgttrs", b"N", n, 1, dl, d, du, du2, ipiv, x, n) == 0
    assert np.abs(x - np.linalg.solve(dense, b)).max() <= 1e-12 * np.abs(x).max()


# ---------------------------------------------------------------------------
# the one-count and one-eigenvalue kernels against dense references
#
# A count is defined up to the backward error of the matrix it reads, so an
# eigenvalue within TOL of the shift may fall on either side; a structural
# one (a zero row, exactly at the shift) must not be counted.  Each test
# pins the case that a plausible slip in its kernel gets wrong.

KERNEL_CASES = settings(max_examples=60, deadline=None, derandomize=True, database=None)
ENTRIES = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
SHIFTS = st.sampled_from([0.0, 1.0, -0.75, 2.5])
TOL = 1e-10


def _insert_zero_rows(free, rows):
    """free embedded in a larger zero matrix, with all-zero rows and columns at the given positions."""
    n = free.shape[0] + len(rows)
    keep = np.setdiff1d(np.arange(n), rows)
    a = np.zeros((n, n))
    a[np.ix_(keep, keep)] = free
    return a


@st.composite
def shifted_symmetric(draw):
    """(a, shift, zeros): a - shift is a drawn symmetric matrix with `zeros` all-zero rows, and with a zero
    diagonal when drawn so, which forces Bunch-Kaufman to take 2 x 2 pivots."""
    k = draw(st.integers(0, 7))
    upper = np.array(draw(st.lists(ENTRIES, min_size=k * k, max_size=k * k))).reshape(k, k)
    free = np.triu(upper) + np.triu(upper, 1).T
    if draw(st.booleans()):
        free[np.diag_indices(k)] = 0.0
    zeros = draw(st.integers(0 if k else 1, 3))
    rows = sorted(draw(st.sets(st.integers(0, k + zeros - 1), min_size=zeros, max_size=zeros)))
    shift = draw(SHIFTS)
    return _insert_zero_rows(free, rows) + shift * np.eye(k + len(rows)), shift, len(rows)


@KERNEL_CASES
@given(case=shifted_symmetric())
@example(case=(np.array([[1.0, 1.0], [1.0, 1.0]]), 1.0, 0))  # one 2 x 2 pivot, eigenvalues 0 and 2
@example(case=(np.array([[0.0, 2.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 0.0]]), 0.0, 1))  # and a zero row
@example(case=(np.ones((1, 1)), 1.0, 1))  # the eigenvalue at the shift alone
def test_inertia_count_matches_the_dense_count(case):
    # mutant killed: a 2 x 2 pivot counted as two positives
    a, shift, zeros = case
    lam = np.linalg.eigvalsh(a) - shift
    tol = TOL * max(1.0, np.abs(a).max())
    count = operators._count_above(a, shift)
    assert np.count_nonzero(lam > tol) <= count <= np.count_nonzero(lam > -tol) - zeros


@st.composite
def tridiagonals(draw):
    """(T, shift, zeros): T + shift is a drawn tridiagonal with `zeros` all-zero rows."""
    n = draw(st.integers(1, 12))
    d = np.array(draw(st.lists(ENTRIES, min_size=n, max_size=n)))
    e = np.array(draw(st.lists(ENTRIES, min_size=n - 1, max_size=n - 1)))
    rows = sorted(draw(st.sets(st.integers(0, n - 1), max_size=3)))
    d[rows] = 0.0
    e[[r for r in rows if r < n - 1]] = 0.0
    e[[r - 1 for r in rows if r > 0]] = 0.0
    shift = draw(SHIFTS)
    return TridiagonalOperator(d - shift, e, None), shift, len(rows)


@KERNEL_CASES
@given(case=tridiagonals())
@example(case=(TridiagonalOperator(np.zeros(2), np.ones(1), None), 0.0, 0))  # a zero pivot mid-sweep
@example(case=(TridiagonalOperator(np.array([0.0, -1.0, -1.0]), np.zeros(2), None), 0.0, 1))  # a zero row first
def test_sturm_count_matches_the_dense_count(case):
    # mutant killed: the count of eigenvalues at or below +tiny, which takes in a 0 eigenvalue
    t, shift, zeros = case
    lam = np.linalg.eigvalsh(t.entries + shift * np.eye(t.n))
    tol = TOL * max(1.0, np.abs(t.entries).max())
    count = t.count_negative(shift)
    assert np.count_nonzero(lam < -tol) <= count <= np.count_nonzero(lam < tol) - zeros


@KERNEL_CASES
@given(
    profile=st.sampled_from(["gaussian", "square_well", "exponential"]),
    n=st.integers(8, 300),
    r_min=st.sampled_from([1e-6, 1e-5, 1e-4, 1e-3]),
    z=st.sampled_from([0.0, 1e-8, 1e-2, 1.0, 1e3]),
    m=st.floats(0.25, 4.0),
)
@example(profile="gaussian", n=300, r_min=1e-6, z=0.0, m=0.5)
def test_smallest_singular_value_matches_dense_svd(profile, n, r_min, z, m):
    # the bidiagonal B of the whole-space Q(z) on a log-grid support, whose
    # entries span many decades; mutant killed: index k for k + 1, which is -sigma
    pot = BasePotential(profile, 1.0, 1.0)
    g = build_grid(n, 33.0, "logarithmic", r_min=r_min)
    v = birman_schwinger._on_support(GridFunction(g, pot(g.nodes)))
    gk = birman_schwinger._whole_space_root(v, z, m)
    want = np.linalg.svd(np.diag(gk[0::2]) + np.diag(gk[1::2], 1), compute_uv=False)[-1]
    assert abs(operators._smallest_singular_value(gk) - want) <= 1e-13 * want


def test_every_lapack_routine_the_package_calls_resolves():
    # a routine this LAPACK lacks would fail only when its caller first runs
    src = Path(operators.__file__).parent
    names = {name for f in src.glob("*.py") for name in re.findall(r'_lapack(?:_routine)?\(\s*"(\w+)"', f.read_text())}
    assert {"dsytrf", "dlaebz", "dstebz", "dbdsdc", "dsterf"} <= names
    assert [name for name in sorted(names) if operators._lapack_routine(name) is None] == []


def test_a_routine_this_lapack_lacks_is_named():
    # once TypeError: 'NoneType' object is not callable
    with pytest.raises(LookupError, match="this LAPACK has no routine dnosuchroutine"):
        operators._lapack("dnosuchroutine", 1)


def _contact_image(n):
    # the criterion-8 tower operator, the largest dense symmetric eigensolve
    g = build_grid(n, 1e2, "logarithmic", r_min=1e-4)
    return effective_operator("contact_image", 2.6, 3, g).entries


def _routines_run(monkeypatch):
    names = []
    lapack = operators._lapack
    monkeypatch.setattr(operators, "_lapack", lambda name, *args: names.append(name) or lapack(name, *args))
    return names


def test_two_stage_eigensolve_resolves_on_this_install():
    # dsyevd_2stage is not in cython_lapack's table: a broken symbol lookup
    # would send every size to numpy without a sign
    assert operators._lapack_routine("dsyevd_2stage") is not None


@pytest.mark.parametrize("n", [1000, 1500])
def test_two_stage_eigenvalues_match_numpy(n, monkeypatch):
    # measured: 1.2e-15 (n = 1000) and 1.8e-15 (n = 1500) of max|lambda|, and 12 negative eigenvalues
    a = _contact_image(n)
    kept = a.copy()
    ref = np.linalg.eigvalsh(a)
    names = _routines_run(monkeypatch)
    vals = operators._dense_eigenvalues(a)
    assert names == ["dsyevd_2stage", "dsyevd_2stage"]  # the workspace query, then the solve
    assert np.array_equal(a, kept)
    assert np.all(np.diff(vals) >= 0.0)
    assert np.abs(vals - ref).max() <= 1e-13 * np.abs(ref).max()
    assert np.sum(vals < 0.0) == np.sum(ref < 0.0)


def test_two_stage_eigensolve_reads_the_lower_triangle_as_numpy_does():
    a = _contact_image(operators.TWO_STAGE_MIN_N)
    junk = a + np.triu(np.random.default_rng(5).normal(size=a.shape), 1)
    ref = np.linalg.eigvalsh(junk)
    assert np.abs(operators._dense_eigenvalues(junk) - ref).max() <= 1e-13 * np.abs(ref).max()


def test_dense_eigenvalues_below_the_crossover_are_numpys_bit_for_bit(monkeypatch):
    a = _contact_image(operators.TWO_STAGE_MIN_N - 1)
    names = _routines_run(monkeypatch)
    assert np.array_equal(operators._dense_eigenvalues(a), np.linalg.eigvalsh(a))
    assert names == []


def test_dense_eigenvalues_without_the_two_stage_routine_are_numpys(monkeypatch):
    # a LAPACK older than 3.7 has no dsyevd_2stage: every size takes numpy
    a = _contact_image(operators.TWO_STAGE_MIN_N)
    monkeypatch.setattr(operators, "_lapack_routine", lambda name: None)
    assert np.array_equal(operators._dense_eigenvalues(a), np.linalg.eigvalsh(a))


@pytest.mark.parametrize("shape", [(1000, 1001), (1001, 1000), (3, 4), (1000,)])
def test_dense_eigenvalues_refuse_a_non_square_matrix_before_lapack(shape, monkeypatch):
    names = _routines_run(monkeypatch)
    with pytest.raises(np.linalg.LinAlgError, match=rf"square matrix: got shape \({shape[0]},"):
        operators._dense_eigenvalues(np.zeros(shape))
    assert names == []


def test_two_stage_eigensolve_raises_when_lapack_does_not_converge():
    # numpy raises "Eigenvalues did not converge" on a NaN matrix, and so does this route
    a = np.full((operators.TWO_STAGE_MIN_N,) * 2, np.nan)
    with pytest.raises(np.linalg.LinAlgError, match=r"did not converge \(dsyevd_2stage info"):
        operators._dense_eigenvalues(a)


def _scipy_eigenvalues(op, shift):
    # the scipy helper TridiagonalOperator.eigenvalues replaced
    return eigvalsh_tridiagonal(op.diag + shift, op.off, lapack_driver="sterf")


def _scipy_inverse(op, shift):
    # the scipy helper TridiagonalOperator.inverse replaced
    ab = np.zeros((3, op.n))
    ab[0, 1:], ab[1], ab[2, :-1] = op.off, op.diag + shift, op.off
    return solve_banded((1, 1), ab, np.eye(op.n), overwrite_ab=True, overwrite_b=True)


@pytest.mark.parametrize("n", [8, 48, 300])
@pytest.mark.parametrize("spacing", ["linear", "logarithmic"])
def test_tridiagonal_lapack_routes_match_the_scipy_helpers_bit_for_bit(spacing, n):
    g = build_grid(n, 12.0, spacing, r_min=1e-3 if spacing == "logarithmic" else None)
    h0 = discretize_h0(g, 3, 0.5)
    rng = np.random.default_rng(n)
    for shift in (-rng.uniform(0.0, 10.0, n), -rng.uniform(0.0, 1e3, n)):
        assert np.array_equal(h0.eigenvalues(shift), _scipy_eigenvalues(h0, shift))
        inv, want = h0.inverse(shift), _scipy_inverse(h0, shift)
        assert np.array_equal(inv, want) and inv.flags.f_contiguous == want.flags.f_contiguous


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("method", ["eigenvalues", "eigenpairs", "inverse", "count_negative"])
def test_non_finite_shift_is_refused_naming_the_operator(method, bad):
    # without the check, dstevd returned NaN eigenvalues for a NaN shift
    h0 = discretize_h0(build_grid(50, 10.0, "linear"), 3, 0.5)
    shift = np.zeros(h0.n)
    shift[17] = bad
    for s in (shift, bad):
        with pytest.raises(ValueError, match=r"H0\[d=3\]: shift must be a finite scalar"):
            getattr(h0, method)(s)


@pytest.mark.parametrize("method", ["eigenvalues", "eigenpairs", "inverse", "count_negative"])
def test_mis_sized_shift_is_refused_before_lapack(method):
    # LAPACK reads exactly n diagonal entries, unchecked
    h0 = discretize_h0(build_grid(50, 10.0, "linear"), 3, 0.5)
    for shift in (np.zeros((h0.n, 1)), np.zeros(h0.n + 1)):
        with pytest.raises(ValueError, match=r"H0\[d=3\]: shift must be a finite scalar or 50 finite entries"):
            getattr(h0, method)(shift)


def test_singular_shifted_operator_raises_on_inverse():
    op = TridiagonalOperator(np.array([1.0, 1.0]), np.array([1.0]), None, label="T")
    with pytest.raises(np.linalg.LinAlgError, match="T \\+ diag\\(shift\\) is singular"):
        op.inverse(0.0)


def test_kinetic_builders_and_three_body_operator_allocate_no_dense_matrix():
    # two n-vectors where the dense layout held n^2 doubles (32 MB at n = 2000)
    g = build_grid(2000, 5e2, "logarithmic", r_min=1e-4)
    dense_bytes = 8 * g.n * g.n
    for build in (
        lambda: discretize_h0(g, 3, 0.5),
        lambda: discretize_h0(g, 2, 0.5),
        lambda: hyperradial_kinetic(g, 2.0),
        lambda: effective_operator("three_body_2d", 1.0, 2, g, m=2.0),
    ):
        tracemalloc.start()
        try:
            build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < dense_bytes / 20


def test_tridiagonal_consumers_never_lay_out_the_dense_kinetic(monkeypatch):
    # every consumer of H0 works on its two diagonals, the channel eigenbases
    # of K and K - V included; mass_sweep_2d makes no dense symmetric operator either
    def forbidden(*args, **kwargs):
        raise AssertionError("dense layout of a tridiagonal operator")

    g = build_grid(120, 12.0, "logarithmic", r_min=1e-3)
    h0 = discretize_h0(g, 3, 0.5)
    v = GridFunction(g, 4.0 * np.exp(-g.nodes**2))
    law, well = ScalingLaw(2, 0.1, 3), BasePotential("square_well", 1.0, 1.0)
    lam = find_resonance_coupling(well, law).lambda_critical
    monkeypatch.setattr(TridiagonalOperator, "entries", property(forbidden))
    small = build_grid(24, 20.0, "logarithmic", r_min=1e-3)
    res = ProductFreeResolvent(ProductGrid(small, small), 2.0)
    assemble_w_eps(2.0, ScaledPotential(BasePotential("gaussian", 0.1, 1.0), law), res)
    two_resonance_matrix(well, law, lam, 1.0, small)
    assert negative_count_direct(h0, v) >= 1
    assemble_resolvent_diff(v, 1.0, h0=h0)
    direct_resolvent_diff(v, 1.0, h0=h0)
    independence_spectrum_check(None, None, None, None, BasePotential("gaussian", 1.0, 1.0), [0.4, 0.2], 1.0, h0)
    bs_operator(v, 1.0, h0)
    monkeypatch.setattr(operators, "check_symmetric", forbidden)
    sweep = mass_sweep_2d([1.0, 2.0], 1.0, build_grid(300, 5e2, "logarithmic", r_min=1e-4))
    assert sweep.counts.min() >= 1


# ---------------------------------------------------------------------------
# radial_green_kernel: the whole-space kernel oracle the dense references use


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="needs an 80-bit long double oracle")
@pytest.mark.parametrize("z", [1e-8, 1e-4, 1.0])
def test_d3_kernel_is_accurate_to_rounding_at_small_kappa_r(z):
    # 2m sinh(k r<) e^(-k r>) / k against an 80-bit evaluation at the same
    # kappa; the two-exponential difference cancels when k r< is small
    # (measured 4.8e-10 relative at z = 1e-8), the expm1 form does not
    m = 0.5
    r = build_grid(800, 1.0, "linear").nodes
    lo, hi = np.minimum.outer(r, r), np.maximum.outer(r, r)
    kappa = np.sqrt(2.0 * m * z)
    k, lo_l, hi_l = np.longdouble(kappa), lo.astype(np.longdouble), hi.astype(np.longdouble)
    ref = 2 * np.longdouble(m) * np.sinh(k * lo_l) * np.exp(-k * hi_l) / k
    got = radial_green_kernel(3, z, r[:, None], r[None, :], m)
    assert float(np.max(np.abs((got - ref) / ref))) <= 1e-15




@pytest.mark.parametrize("build", [hyperradial_kinetic])
@pytest.mark.parametrize("mass_scale", [0.0, -1.0, float("nan"), float("inf")])
def test_hyperradial_rejects_bad_mass_scale(build, mass_scale):
    g = build_grid(20, 10.0, "logarithmic", r_min=1e-3)
    with pytest.raises(ValueError, match="mass_scale"):
        build(g, mass_scale)


def test_kernel_symmetric_in_arguments():
    rng = np.random.default_rng(0)
    for d in (2, 3):
        r, rp = rng.uniform(0.1, 5.0, (2, 20))
        a = radial_green_kernel(d, 1.3, r, rp)
        b = radial_green_kernel(d, 1.3, rp, r)
        assert np.allclose(a, b, rtol=1e-14)


def test_kernel_decays_monotonically_in_z():
    zs = np.array([0.5, 1.0, 2.0, 4.0, 8.0, 32.0])
    for d in (2, 3):
        vals = np.array([radial_green_kernel(d, z, 1.0, 1.0) for z in zs])
        assert np.all(np.diff(vals) < 0)
        assert vals[-1] < 0.2 * vals[0]


def test_kernel_rejects_nonpositive_z():
    # z = 0 is exact only in d=3, where the kernel stays bounded
    with pytest.raises(ValueError):
        radial_green_kernel(2, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        radial_green_kernel(3, -1.0, 1.0, 1.0)


@pytest.mark.parametrize("m", [0.5, 2.0])
def test_kernel_converges_to_zero_energy_kernel_as_sqrt_z(m):
    # 2m sinh(k r<) e^(-k r>) / k = 2m r< - 2m k r< r> + O(k^2), k = sqrt(2 m z)
    rng = np.random.default_rng(5)
    r, rp = rng.uniform(0.1, 5.0, (2, 30))
    k0 = radial_green_kernel(3, 0.0, r, rp, m)
    assert np.array_equal(k0, 2.0 * m * np.minimum(r, rp))
    zs = 1e-6 * 4.0 ** -np.arange(4)
    gaps = np.array([np.abs(radial_green_kernel(3, z, r, rp, m) - k0).max() for z in zs])
    assert np.allclose(gaps[:-1] / gaps[1:], 2.0, rtol=1e-2)
    slope = 2.0 * m * np.sqrt(2.0 * m) * np.max(r * rp)
    assert gaps[-1] / np.sqrt(zs[-1]) == pytest.approx(slope, rel=1e-2)


@pytest.mark.parametrize("z", [float("nan"), float("inf")])
def test_kernel_rejects_non_finite_z(z):
    with pytest.raises(ValueError, match="finite"):
        radial_green_kernel(3, z, 1.0, 2.0)


@pytest.mark.parametrize("m", [-1.0, 0.0, float("nan"), float("inf")])
def test_kernel_rejects_a_bad_mass(m):
    # m = -1 once gave a negative kernel (-1.24e-6 at [0, 0]), m = 0 a zero
    # one and m = NaN a NaN one
    g = build_grid(50, 10.0, "linear")
    with pytest.raises(ValueError, match="mass m must be finite and positive"):
        radial_green_kernel(3, 1.0, 1.0, 2.0, m)
    with pytest.raises(ValueError, match="mass m must be finite and positive"):
        green_kernel_matrix(g, 3, 0.0, m)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_kernel_rejects_non_finite_radii(bad):
    with pytest.raises(ValueError, match="finite"):
        radial_green_kernel(3, 1.0, bad, 2.0)
    with pytest.raises(ValueError, match="finite"):
        radial_green_kernel(2, 1.0, np.array([1.0, 2.0]), np.array([bad, 2.0]))


@pytest.mark.parametrize("d", [3, 2])
def test_kernel_matches_dense_inversion(d):
    # delta column of the discretized (H0 + z)^(-1) at r = r' = 1
    n, z, m = 800, 1.0, 0.5
    g = build_grid(n, 10.0, "linear")
    h = discretize_h0(g, d, m)
    j = int(np.argmin(np.abs(g.nodes - 1.0)))
    rhs = np.zeros(n)
    rhs[j] = 1.0 / np.sqrt(g.weights[j])
    col = np.linalg.solve(h.entries + z * np.eye(n), rhs) / np.sqrt(g.weights)
    exact = radial_green_kernel(d, z, g.nodes[j], g.nodes[j], m)
    assert abs(col[j] - exact) < 1e-4


def test_kernel_grid_refinement_converges():
    z, m = 1.0, 0.5
    vals = []
    for n in (400, 800):
        g = build_grid(n, 10.0, "linear")
        h = discretize_h0(g, 3, m)
        j = int(np.argmin(np.abs(g.nodes - 1.0)))
        rhs = np.zeros(n)
        rhs[j] = 1.0 / np.sqrt(g.weights[j])
        vals.append((np.linalg.solve(h.entries + z * np.eye(n), rhs) / np.sqrt(g.weights))[j])
    assert abs(vals[1] - vals[0]) < 1e-3


# ---------------------------------------------------------------------------
# the kinetic square root W W^T


def _kinetic_root(g, d, m):
    # sqrt(H0) = W W^T from the root factor W = V S^(1/2)
    w = operators._root_factor(g, d, m)
    return w @ w.T


def test_sqrt_kinetic_agrees_with_generic_route():
    g = build_grid(120, 20.0, "logarithmic", r_min=1e-2)
    vals, vecs = eigh(discretize_h0(g, 3, 0.5).entries)
    a = vecs @ (np.sqrt(np.clip(vals, 0.0, None))[:, None] * vecs.T)
    b = _kinetic_root(g, 3, 0.5)
    assert np.linalg.norm(a - b) / np.linalg.norm(b) < 1e-9


@pytest.mark.parametrize("d", [2, 3])
def test_sqrt_kinetic_matches_dense_svd_of_factor(d):
    # Reference: the dense SVD of the loop oracle's whole factor F, root V S V^T.
    g = build_grid(600, 2e2, "logarithmic", r_min=1e-10)
    _, s_ref, vt = np.linalg.svd(_oracle_factor(g, d, 0.5), full_matrices=False)
    ref = vt.T @ (s_ref[:, None] * vt)
    root = _kinetic_root(g, d, 0.5)
    assert np.array_equal(root, root.T)
    assert np.abs(root - ref).max() <= 1e-13 * np.abs(ref).max()
    s, _ = operators._dbdsdc(*operators._kinetic_diagonals(g, d, 0.5))
    assert np.all(np.abs(s - s_ref) <= 1e-12 * s_ref)
