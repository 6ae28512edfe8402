import numpy as np
import pytest
from scipy.linalg import eigh

from zrange import operators
from zrange.grids import GridFunction, build_grid
from zrange.operators import (
    OperatorMatrix,
    SingularSystemError,
    discretize_h0,
    eig_spectrum,
    hyperradial_kinetic,
    kinetic_factor,
    operator_sqrt,
    radial_green_kernel,
    solve_resolvent,
    sqrt_kinetic,
)

from oracles import jacobi_eigenvalues


def _random_symmetric(n, seed=0, shift=0.0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return 0.5 * (a + a.T) + shift * np.eye(n)


# ---------------------------------------------------------------------------
# eig_spectrum


def test_eig_spectrum_identity():
    rep = eig_spectrum(OperatorMatrix(np.eye(5), None))
    assert np.allclose(rep.eigenvalues, 1.0)
    assert rep.count_negative == 0


def test_eig_spectrum_diagonal_counts_negatives():
    rep = eig_spectrum(OperatorMatrix(np.diag([-2.0, -1.0, 3.0]), None))
    assert rep.count_negative == 2
    assert np.allclose(rep.eigenvalues, [-2.0, -1.0, 3.0])
    assert rep.ratios[0] == pytest.approx(0.5)


def test_eig_spectrum_matches_jacobi_oracle():
    m = _random_symmetric(50, seed=3)
    rep = eig_spectrum(OperatorMatrix(m, None))
    oracle = jacobi_eigenvalues(m)
    assert np.max(np.abs(rep.eigenvalues - oracle)) < 1e-10 * np.abs(oracle).max()


def test_eig_spectrum_eigenvectors_on_request():
    m = _random_symmetric(20, seed=6)
    rep = eig_spectrum(OperatorMatrix(m, None), want_vectors=True)
    v0 = rep.eigenvectors[:, 0]
    assert np.allclose(m @ v0, rep.eigenvalues[0] * v0, atol=1e-10)


def test_eig_spectrum_permutation_invariant():
    m = _random_symmetric(40, seed=5)
    rng = np.random.default_rng(1)
    perm = rng.permutation(40)
    p = np.eye(40)[perm]
    rep1 = eig_spectrum(OperatorMatrix(m, None))
    rep2 = eig_spectrum(OperatorMatrix(p @ m @ p.T, None))
    assert np.max(np.abs(rep1.eigenvalues - rep2.eigenvalues)) < 1e-10 * np.abs(rep1.eigenvalues).max()


def test_asymmetric_input_rejected():
    m = _random_symmetric(10, seed=2)
    m[0, 1] += 1.0
    with pytest.raises(ValueError, match="symmetric"):
        OperatorMatrix(m, None)


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


def test_hyperradial_kinetic_psd_and_mass_scaling():
    g = build_grid(150, 50.0, "logarithmic", r_min=1e-3)
    h1 = hyperradial_kinetic(g, 1.0)
    h4 = hyperradial_kinetic(g, 4.0)
    assert eigh(h1.entries, eigvals_only=True, subset_by_index=[0, 0])[0] > -1e-12
    assert np.allclose(h4.entries, h1.entries / 4.0)


# ---------------------------------------------------------------------------
# radial_green_kernel


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
    with pytest.raises(ValueError):
        radial_green_kernel(3, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        radial_green_kernel(3, -1.0, 1.0, 1.0)


@pytest.mark.parametrize("z", [float("nan"), float("inf")])
def test_kernel_rejects_non_finite_z(z):
    with pytest.raises(ValueError, match="finite"):
        radial_green_kernel(3, z, 1.0, 2.0)


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
    col = solve_resolvent(h, z, rhs) / np.sqrt(g.weights)
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
        vals.append((solve_resolvent(h, z, rhs) / np.sqrt(g.weights))[j])
    assert abs(vals[1] - vals[0]) < 1e-3


# ---------------------------------------------------------------------------
# operator_sqrt / sqrt_kinetic


def test_sqrt_identity_and_diagonal():
    s = operator_sqrt(OperatorMatrix(np.eye(6), None))
    assert np.allclose(s.entries, np.eye(6))
    s2 = operator_sqrt(OperatorMatrix(np.diag([4.0, 9.0]), None))
    assert np.allclose(s2.entries, np.diag([2.0, 3.0]))


def test_sqrt_reconstructs_random_spd():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((50, 50))
    spd = a @ a.T + 50.0 * np.eye(50)
    s = operator_sqrt(OperatorMatrix(spd, None))
    assert np.linalg.norm(s.entries @ s.entries - spd) / np.linalg.norm(spd) < 1e-8
    # commutes with its square
    comm = s.entries @ spd - spd @ s.entries
    assert np.linalg.norm(comm) / np.linalg.norm(spd) < 1e-8


def test_sqrt_rejects_indefinite():
    with pytest.raises(ValueError, match="positive semidefinite"):
        operator_sqrt(OperatorMatrix(np.diag([1.0, -1.0]), None))


def test_sqrt_kinetic_agrees_with_generic_route():
    g = build_grid(120, 20.0, "logarithmic", r_min=1e-2)
    h = discretize_h0(g, 3, 0.5)
    a = operator_sqrt(h).entries
    b = sqrt_kinetic(g, 3, 0.5).entries
    assert np.linalg.norm(a - b) / np.linalg.norm(b) < 1e-9


@pytest.mark.parametrize("d", [2, 3])
def test_sqrt_kinetic_matches_dense_svd_of_factor(d):
    # Reference: the dense SVD of the whole factor F, root V S V^T.
    g = build_grid(600, 2e2, "logarithmic", r_min=1e-10)
    f = kinetic_factor(g, d, 0.5)
    _, s_ref, vt = np.linalg.svd(f, full_matrices=False)
    ref = vt.T @ (s_ref[:, None] * vt)
    root = sqrt_kinetic(g, d, 0.5).entries
    assert np.abs(root - ref).max() <= 1e-13 * np.abs(ref).max()
    s, _ = operators._dbdsdc(*operators._upper_bidiagonal(f))
    assert np.all(np.abs(s - s_ref) <= 1e-12 * s_ref)


# ---------------------------------------------------------------------------
# solve_resolvent


def test_solve_zero_operator_is_identity():
    g = build_grid(32, 1.0, "linear")
    h = OperatorMatrix(np.zeros((32, 32)), g)
    f = GridFunction(g, np.sin(g.nodes))
    out = solve_resolvent(h, 1.0, f)
    assert np.allclose(out, f.values, rtol=1e-12)


def test_solve_maps_eigenvector_by_spectral_rule():
    m = _random_symmetric(30, seed=9, shift=10.0)
    vals, vecs = eigh(m)
    op = OperatorMatrix(m, None)
    out = solve_resolvent(op, 2.0, vecs[:, 3])
    assert np.allclose(out, vecs[:, 3] / (vals[3] + 2.0), rtol=1e-10)


def test_solve_residual_small_on_random_input():
    g = build_grid(200, 10.0, "linear")
    h = discretize_h0(g, 3, 0.5)
    rng = np.random.default_rng(8)
    rhs = rng.standard_normal(200)
    out = solve_resolvent(h, 1.0, rhs)
    resid = np.linalg.norm((h.entries + np.eye(200)) @ out - rhs) / np.linalg.norm(rhs)
    assert resid < 1e-10


def test_resolved_system_positive_definite():
    # (H0 + z)^(-1) positive for z > 0: solving for random rhs keeps
    # positive quadratic form
    g = build_grid(150, 8.0, "linear")
    h = discretize_h0(g, 3, 0.5)
    rng = np.random.default_rng(2)
    for z in (0.1, 1.0, 10.0):
        f = rng.standard_normal(150)
        out = solve_resolvent(h, z, f)
        assert f @ out > 0.0


def test_singular_solve_reports_smallest_eigenvalue():
    m = np.diag([1.0, -2.0])
    op = OperatorMatrix(m, None)
    with pytest.raises(SingularSystemError) as err:
        solve_resolvent(op, 2.0, np.array([1.0, 1.0]))
    assert err.value.smallest_eigenvalue == pytest.approx(0.0, abs=1e-12)
