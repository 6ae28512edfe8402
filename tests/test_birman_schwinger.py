import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack
import scipy.sparse.linalg
from scipy.special import jn_zeros

from zrange.grids import GridFunction, RadialGrid, build_grid
from zrange.operators import discretize_h0
from zrange.potentials import BasePotential, ScaledPotential, ScalingLaw, ScalingLawError
from zrange import birman_schwinger, konno_kuroda, operators
from zrange.birman_schwinger import (
    bs_count_above_one,
    bs_operator,
    boundary_fit,
    find_resonance_coupling,
    resonance,
    support_radius,
    two_resonance_matrix,
)
from zrange.konno_kuroda import negative_count_direct

from oracles import ladder_q0, shooting_critical_coupling, shoot_exterior_wave, whole_space_q

WELL = BasePotential("square_well", 1.0, 1.0)
GAUSS = BasePotential("gaussian", 1.0, 1.0)
UNSCALED = ScalingLaw(None, 1.0, 3)
LAMBDA_C_WELL = np.pi**2 / 4.0
NON_FINITE = [float("nan"), float("inf")]
BAD_SAMPLES = [float("nan"), float("inf"), -float("inf")]


def _top(q):
    # the largest eigenvalue of a Birman-Schwinger matrix, from a dense eigvalsh
    return scipy.linalg.eigvalsh(q)[-1]


@pytest.fixture(scope="module")
def well_resonance():
    return find_resonance_coupling(WELL, UNSCALED, (1.0, 5.0))


def _boxed(n=300, r_max=4.0):
    # a linear grid, and the boxed d=3 H0 at mass 1/2 on it
    g = build_grid(n, r_max, "linear")
    return g, discretize_h0(g, 3, 0.5)


# ---------------------------------------------------------------------------
# bs_operator: the boxed grid route


def test_zero_potential_gives_zero_matrix():
    g, h0 = _boxed(100, 1.0)
    q = bs_operator(GridFunction(g, np.zeros(100)), 1.0, h0)
    assert np.all(q.entries == 0.0)


def test_negative_potential_rejected():
    g, h0 = _boxed(50, 1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        bs_operator(GridFunction(g, -np.ones(50)), 1.0, h0)


def test_z_floor_enforced():
    g, h0 = _boxed(50, 1.0)
    with pytest.raises(ValueError, match="floor"):
        bs_operator(GridFunction(g, np.ones(50)), 1e-9, h0)


@pytest.mark.parametrize("z", [0.0, 1e-9, float("nan")])
def test_unknown_resolvent_is_named_before_z(z):
    g, h0 = _boxed(50, 1.0)
    with pytest.raises(ValueError, match="resolvent must be 'grid'"):
        bs_operator(GridFunction(g, np.ones(50)), z, h0, resolvent="bogus")


@pytest.mark.parametrize("z", NON_FINITE)
def test_non_finite_z_rejected(z):
    g, h0 = _boxed(50, 1.0)
    with pytest.raises(ValueError, match="floor"):
        bs_operator(GridFunction(g, np.ones(50)), z, h0)


def test_zero_energy_operator_is_the_min_kernel():
    # the dense reference Q(0) = sqrt(w V) 2m min(r, r') sqrt(w V), exact in
    # d=3 only; the boxed route has no z = 0
    g = build_grid(60, 2.0, "linear")
    v = GridFunction(g, GAUSS(g.nodes))
    b = np.sqrt(g.weights * v.values)
    for m in (0.5, 2.0):
        q = whole_space_q(v, 0.0, m)
        assert np.allclose(q, 2.0 * m * np.minimum.outer(g.nodes, g.nodes) * np.outer(b, b), rtol=1e-14, atol=0.0)
    with pytest.raises(ValueError, match="floor"):
        bs_operator(v, 0.0, discretize_h0(g))


@pytest.mark.parametrize("prof", ["gaussian", "square_well"])
@pytest.mark.parametrize("z", [1e-8, 1.0, 10.0])
def test_grid_route_is_the_boxed_resolvent_between_root_potentials(z, prof):
    # Q(z) = sqrt(V) (H0 + z)^(-1) sqrt(V) entrywise, against a dense inverse
    g, h0 = _boxed(200, 4.0)
    v = GridFunction(g, 3.0 * BasePotential(prof, 1.0, 1.0)(g.nodes))
    sqv = np.sqrt(v.values)
    want = sqv[:, None] * np.linalg.inv(h0.entries + z * np.eye(g.n)) * sqv[None, :]
    got = bs_operator(v, z, h0).entries
    # measured <= 1.3e-14; H0 + z has condition number up to 2e4 here
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_top_eigenvalue_linear_in_coupling():
    g, h0 = _boxed()
    v1 = GridFunction(g, WELL(g.nodes))
    v2 = GridFunction(g, 2.0 * WELL(g.nodes))
    q1, q2 = bs_operator(v1, 1e-6, h0).entries, bs_operator(v2, 1e-6, h0).entries
    assert np.abs(q2 - 2.0 * q1).max() <= 1e-14 * np.abs(q2).max()
    assert _top(q2) == pytest.approx(2.0 * _top(q1), rel=1e-12)


def test_square_well_top_eigenvalue_matches_critical_coupling():
    # at lam = 1 and z -> 0 the top eigenvalue is 1/lambda_c = 4/pi^2
    g = build_grid(800, 1.0, "linear")
    v = GridFunction(g, WELL(g.nodes))
    top = _top(whole_space_q(v, 1e-8, 0.5))
    assert top == pytest.approx(4.0 / np.pi**2, rel=1e-3)


def test_top_eigenvalue_nonincreasing_in_z():
    g, h0 = _boxed()
    v = GridFunction(g, 3.0 * WELL(g.nodes))
    tops = [_top(bs_operator(v, z, h0).entries) for z in (1e-6, 0.1, 1.0, 10.0)]
    assert np.all(np.diff(tops) < 0)


def test_birman_schwinger_principle_exact_counts():
    # counts of BS eigenvalues > 1 match negative eigenvalues of H0 - V
    # exactly, on the same boxed discretization (range-2 wells give several
    # bound states inside the sampled coupling window)
    g = build_grid(400, 12.0, "linear")
    h0 = discretize_h0(g, 3, 0.5)
    rng = np.random.default_rng(7)
    for prof in ("square_well", "gaussian"):
        pot = BasePotential(prof, 1.0, 2.0)
        for lam in rng.uniform(0.5, 10.0, 10):
            v = GridFunction(g, lam * pot(g.nodes))
            q = bs_operator(v, 1e-8, h0)
            assert bs_count_above_one(q) == negative_count_direct(h0, v)


def test_grid_route_refuses_the_mass_that_h0_carries():
    # h0 carries the mass, and bs_operator takes no other: an m beside it
    # once returned the m=1/2 matrix of h0 bit for bit
    g = build_grid(50, 5.0, "linear")
    v = GridFunction(g, GAUSS(g.nodes))
    with pytest.raises(TypeError, match="'m'"):
        bs_operator(v, 0.1, discretize_h0(g, 3, 0.5), m=7.0)


def test_exact_route_refuses_an_h0():
    # the whole-space route once ignored h0 and returned the d=3, m=1/2
    # matrix bit for bit; it is gone, and naming it is refused
    g = build_grid(50, 5.0, "linear")
    v = GridFunction(g, GAUSS(g.nodes))
    with pytest.raises(ValueError, match="resolvent must be 'grid'"):
        bs_operator(v, 0.1, discretize_h0(g, 2, 7.0), resolvent="exact")


# ---------------------------------------------------------------------------
# find_resonance_coupling


def test_square_well_critical_coupling_analytic(well_resonance):
    assert well_resonance.lambda_critical == pytest.approx(LAMBDA_C_WELL, rel=1e-4)
    assert well_resonance.bs_top_eigenvalue == pytest.approx(1.0, abs=1e-5)


def test_square_well_critical_coupling_shooting_oracle(well_resonance):
    oracle = shooting_critical_coupling(WELL, 1.0)
    assert well_resonance.lambda_critical == pytest.approx(oracle, rel=1e-4)


def test_gaussian_cross_oracle_agreement():
    rep = find_resonance_coupling(GAUSS, UNSCALED, (1.0, 5.0))
    oracle = shooting_critical_coupling(GAUSS, 5.8)
    assert rep.lambda_critical == pytest.approx(oracle, rel=1e-4)


def test_half_critical_coupling_gives_half_top_eigenvalue(well_resonance):
    g = build_grid(800, 1.0, "linear")
    lam = well_resonance.lambda_critical / 2.0
    v = GridFunction(g, lam * WELL(g.nodes))
    top = _top(whole_space_q(v, 1e-8, 0.5))
    assert top == pytest.approx(0.5, rel=1e-4)


def test_critical_coupling_is_the_closed_form(well_resonance):
    # lambda_c = 1/q(0+) exactly: the top BS eigenvalue of lambda_c V,
    # extrapolated to z -> 0+ on its own ladder, is 1 to rounding
    assert well_resonance.bs_top_eigenvalue == pytest.approx(1.0, abs=1e-12)
    g = build_grid(800, 1.0, "linear")
    q0 = ladder_q0(g.nodes, g.weights, well_resonance.lambda_critical * WELL(g.nodes))
    assert q0 == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("c", [0.3, 7.0])
def test_resonance_coupling_inverse_in_potential_scale(c):
    # Q is linear in V, so scaling V by c divides the critical coupling by c
    g = build_grid(400, 5.8, "linear")
    base = resonance(GAUSS, g)
    scaled = resonance(BasePotential("gaussian", c, 1.0), g)
    assert scaled.coupling == pytest.approx(base.coupling / c, rel=1e-12)


@pytest.mark.parametrize("ratio", [1e-6, 1e-7])
def test_support_keeps_a_far_shell_that_q0_weighs(ratio):
    # Two gaussian shells at r1 = ratio * r2 and r2 = 1, each the dilate
    # c^-2 U(r/c) of one profile, so both weigh the same in Q(0).  The outer
    # shell's V is ratio^2 of the inner one's peak; a cut by V alone dropped
    # most of it and was off by 5.4e-4 and 3.5e-4.  The cut by Q(0)'s diagonal
    # agrees with the dense Q(0) over every node with V > 0 (measured 3.8e-15)
    def pot(r):
        return sum(np.exp(-((r - c) / (0.25 * c)) ** 2) / c**2 for c in (ratio, 1.0))

    g = build_grid(3000, 10.0, "logarithmic", r_min=1e-9)
    vals = pot(g.nodes)
    pos = vals > 0.0
    v = GridFunction(RadialGrid(g.nodes[pos], g.weights[pos], g.spacing, g.r_max), vals[pos])
    # the top of the dense Q(0) by Lanczos; its gap is 7e-4 relative at ratio 1e-7
    want = scipy.sparse.linalg.eigsh(whole_space_q(v, 0.0, 0.5), k=1, which="LA", tol=0.0, return_eigenvectors=False)[0]
    assert resonance(pot, g).q0 == pytest.approx(want, rel=1e-12, abs=0.0)


def _forbid(monkeypatch, targets):
    def forbidden(*args, **kwargs):
        raise AssertionError("dense route called")

    for module, name in targets:
        # raising=False also guards a name the module does not import today
        monkeypatch.setattr(module, name, forbidden, raising=False)


def test_resonance_builds_no_dense_operator_or_eigensolve(monkeypatch):
    # q(0+) and phi come from the bidiagonal inverse root of Q(0): no dense
    # Q, no boxed resolvent and no dense eigensolve
    _forbid(monkeypatch, [
        (birman_schwinger, "bs_operator"),
        (birman_schwinger, "_dense_eigenvalues"),
        (np.linalg, "eigvalsh"),
        (operators, "_dense_eigenvalues"),
        (operators.TridiagonalOperator, "inverse"),
        (np.linalg, "eigh"),
        (scipy.linalg, "eigh"),
    ])
    res = resonance(GAUSS, build_grid(100, 5.8, "linear"))
    assert res.q0 > 0.0


@pytest.mark.parametrize("route", ["resonance", "two_resonance_matrix", "bs_count_above_one", "negative_count_direct"])
def test_one_count_or_one_eigenvalue_takes_no_whole_spectrum(route, monkeypatch):
    # each route reads one count or one eigenvalue: an inertia, a Sturm
    # count or a bisection, never a whole spectrum
    g = build_grid(120, 5.8, "linear")
    v, h0 = GridFunction(g, 20.0 * GAUSS(g.nodes)), discretize_h0(g)
    q = bs_operator(v, 0.1, h0)
    two_grid = build_grid(48, 30.0, "logarithmic", r_min=1e-3)
    run = {
        "resonance": lambda: resonance(GAUSS, g).q0,
        "two_resonance_matrix": lambda: two_resonance_matrix(WELL, UNSCALED, LAMBDA_C_WELL, [0.0, 0.01], two_grid)[1].off_diagonal,
        "bs_count_above_one": lambda: bs_count_above_one(q),
        "negative_count_direct": lambda: negative_count_direct(h0, v),
    }[route]
    _forbid(monkeypatch, [
        (np.linalg, "eigvalsh"),
        (operators, "_dense_eigenvalues"),
        (birman_schwinger, "_dense_eigenvalues"),
        (konno_kuroda, "_dense_eigenvalues"),
        (operators.TridiagonalOperator, "eigenvalues"),
        (operators, "_root_factor"),
        (birman_schwinger, "_root_factor"),
    ])
    assert run() > 0


@pytest.mark.parametrize("spacing", ["linear", "logarithmic"])
@pytest.mark.parametrize("prof", ["square_well", "gaussian", "exponential"])
@pytest.mark.parametrize("z", [0.0, 1e-8, 1.0, 1e3])
def test_bidiagonal_top_eigenpair_matches_dense_eigh(prof, spacing, z):
    # The top eigenpair of the whole-space Q(z), and at z = 0 the resonance,
    # against dense eigh of the oracle's whole-space Q.  Measured: <= 6.8e-14 for the top
    # eigenvalue, 3.5e-15 for lambda_c and 9.8e-14 for the vector, where the
    # dense kernel loses digits to cancellation at kappa r ~ 1e-7.
    pot = BasePotential(prof, 1.0, 1.0)
    if spacing == "linear":
        g = build_grid(800, support_radius(pot, UNSCALED), "linear")
    else:
        g = build_grid(1000, support_radius(pot, UNSCALED), "logarithmic", r_min=1e-6)
    v = birman_schwinger._on_support(GridFunction(g, pot(g.nodes)))
    k = v.grid.n
    vals, vecs = scipy.linalg.eigh(whole_space_q(v, z, 0.5), subset_by_index=[k - 1, k - 1])
    top, phi = birman_schwinger._whole_space_top(v, z, 0.5)
    assert abs(top - vals[-1]) <= 1e-12 * vals[-1]
    assert np.abs(phi - vecs[:, -1] * np.sign(vecs[:, -1].sum())).max() <= 1e-10
    if z == 0.0:
        res = resonance(pot, g)
        assert res.coupling == pytest.approx(1.0 / vals[-1], rel=1e-12, abs=0.0)
        assert np.array_equal(res.phi, phi)


def test_resonance_vector_survives_an_exactly_zero_pivot():
    # on this grid and mass the LU of B^T B - sigma_min^2 ends on an exactly
    # zero pivot (dgttrf info > 0)
    pot, m = BasePotential("gaussian", 1.0, 0.5), 0.8793811931913805
    g = build_grid(160, support_radius(pot, UNSCALED), "linear")
    v = birman_schwinger._on_support(GridFunction(g, pot(g.nodes)))
    vecs = scipy.linalg.eigh(whole_space_q(v, 0.0, m))[1]
    phi = resonance(pot, g, m).phi
    assert np.abs(phi - vecs[:, -1] * np.sign(vecs[:, -1].sum())).max() <= 1e-10


def _f2py_whole_space_top(v, z, m):
    # the same closed-form B, then scipy's f2py wrappers: dstebz through
    # eigvalsh_tridiagonal for eigenvalue k + 1 of B's Golub-Kahan form, and
    # dgttrf/dgttrs (which refuse n = 2) for the inverse iteration
    e = np.sqrt(2.0 * m * v.grid.weights * v.values)
    h = np.diff(v.grid.nodes, prepend=0.0)
    x = 2.0 * np.sqrt(2.0 * m * z) * h
    diag2, sub2 = (1.0 / h, 1.0 / h) if z == 0.0 else (x / -np.expm1(-x) / h, x / np.expm1(x) / h)
    diag, sub = np.sqrt(diag2) / e, -np.sqrt(sub2[1:]) / e[:-1]
    k = diag.size
    tgk = np.insert(sub, np.arange(k - 1), diag[:-1])
    tgk = np.append(tgk, diag[-1])
    sigma = scipy.linalg.eigvalsh_tridiagonal(
        np.zeros(2 * k), tgk, select="i", select_range=(k, k), lapack_driver="stebz", tol=2.0 * np.finfo(float).tiny
    )[0]
    shift, off = sigma**2, sub * diag[1:]
    *lu, _ = scipy.linalg.lapack.dgttrf(off, diag**2 + np.append(sub**2, 0.0) - shift, off)
    lu[1][lu[1] == 0.0] = np.finfo(float).eps * shift
    phi = e / np.linalg.norm(e)
    for _ in range(3):
        phi = scipy.linalg.lapack.dgttrs(*lu, phi)[0]
        phi /= np.linalg.norm(phi)
    return 1.0 / (sigma * sigma), phi if phi.sum() > 0.0 else -phi


@pytest.mark.parametrize("n", [48, 300, 800])
@pytest.mark.parametrize("prof", ["gaussian", "square_well", "exponential"])
def test_whole_space_top_matches_the_f2py_route_bit_for_bit(prof, n):
    pot = BasePotential(prof, 1.0, 1.0)
    g = build_grid(n, support_radius(pot, UNSCALED), "linear")
    v = birman_schwinger._on_support(GridFunction(g, pot(g.nodes)))
    for z in (0.0, 1e-8, 1.0):
        top, phi = birman_schwinger._whole_space_top(v, z, 0.5)
        want_top, want_phi = _f2py_whole_space_top(v, z, 0.5)
        assert np.array_equal(top, want_top) and np.array_equal(phi, want_phi)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("z", [0.0, 1.0])
def test_smallest_supports_match_dense_eigh(n, z):
    # scipy's f2py dgttrf refused n = 2 ("unexpected array size")
    g = RadialGrid(np.array([0.5, 0.9, 1.2][:n]), np.array([0.3, 0.35, 0.3][:n]), "linear", 2.0)
    v = GridFunction(g, np.array([2.0, 1.5, 0.7][:n]))
    vals, vecs = scipy.linalg.eigh(whole_space_q(v, z, 0.5))
    top, phi = birman_schwinger._whole_space_top(v, z, 0.5)
    assert abs(top - vals[-1]) <= 1e-12 * vals[-1]
    assert np.abs(phi - vecs[:, -1] * np.sign(vecs[:, -1].sum())).max() <= 1e-12


def test_resonance_on_a_two_node_support():
    # the scaled gaussian at eps = 0.4 covers two nodes of this grid
    g = build_grid(24, 20.0, "linear")
    pot = ScaledPotential(GAUSS, ScalingLaw(2, 0.4, 3))
    v = birman_schwinger._on_support(pot.on_grid(g))
    assert v.grid.n == 2
    vals, vecs = scipy.linalg.eigh(whole_space_q(v, 0.0, 0.5))
    res = resonance(pot, g)
    assert res.coupling == pytest.approx(1.0 / vals[-1], rel=1e-12, abs=0.0)
    assert np.abs(res.phi - vecs[:, -1] * np.sign(vecs[:, -1].sum())).max() <= 1e-12
    assert np.all(np.isfinite(res.psi.values))


@pytest.mark.parametrize("m", [0.0, -1.0, float("nan"), float("inf")])
def test_bs_operator_names_a_bad_mass(m):
    # the mass enters Q only through h0, which names a bad one
    g = build_grid(50, 1.0, "linear")
    with pytest.raises(ValueError, match="mass m must be finite and positive"):
        bs_operator(GridFunction(g, np.ones(50)), 0.1, discretize_h0(g, 3, m))


# ---------------------------------------------------------------------------
# a non-finite V is named where it enters; GridFunction accepts NaN and inf


def _with_bad_sample(values, bad):
    return np.where(np.arange(values.size) == 7, bad, values)


@pytest.fixture
def poisoned_scaled_potential(monkeypatch):
    # find_resonance_coupling and two_resonance_matrix rebuild the well from
    # its profile, so the bad sample goes into every ScaledPotential evaluation
    def poison(bad):
        sample = ScaledPotential.__call__
        monkeypatch.setattr(ScaledPotential, "__call__", lambda self, r: _with_bad_sample(sample(self, r), bad))

    return poison


@pytest.mark.parametrize("resolvent", ["exact", "grid"])
@pytest.mark.parametrize("bad", BAD_SAMPLES)
def test_bs_operator_names_a_non_finite_potential(bad, resolvent):
    # before: "Q(z=0.1) has non-finite entries", with either resolvent.  The
    # exact (whole-space) Q(z) is now the closed form of resonance(), which
    # takes V through its support restriction
    g = build_grid(20, 1.0, "linear")
    v = GridFunction(g, _with_bad_sample(GAUSS(g.nodes), bad))
    with pytest.raises(ValueError, match="potential V has non-finite values"):
        if resolvent == "exact":
            birman_schwinger._whole_space_q0(birman_schwinger._on_support(v), 0.1, 0.5)
        else:
            bs_operator(v, 0.1, discretize_h0(g))


@pytest.mark.parametrize("bad", BAD_SAMPLES)
def test_resonance_names_a_non_finite_potential(bad):
    # before: NaN read as "must be nonnegative and not vanish", +inf as an empty grid
    with pytest.raises(ValueError, match="potential V has non-finite values"):
        resonance(lambda r: _with_bad_sample(GAUSS(r), bad), build_grid(20, 1.0, "linear"))


def test_find_resonance_coupling_refuses_an_overflowing_epsilon():
    # 1e-160 ** -2 overflows a float: the law refuses it by name, where it
    # once surfaced as a bare OverflowError from ScaledPotential
    with pytest.raises(ScalingLawError, match=r"epsilon=1e-160 is too small for p=2"):
        find_resonance_coupling(GAUSS, ScalingLaw(2, 1e-160, 3), n=50)


@pytest.mark.parametrize("bad", BAD_SAMPLES)
def test_find_resonance_coupling_names_a_non_finite_potential(bad, poisoned_scaled_potential):
    poisoned_scaled_potential(bad)
    with pytest.raises(ValueError, match="potential V has non-finite values"):
        find_resonance_coupling(WELL, UNSCALED, (1.0, 5.0), n=100)


@pytest.mark.parametrize("bad", BAD_SAMPLES)
def test_two_resonance_matrix_names_a_non_finite_potential(bad, poisoned_scaled_potential):
    poisoned_scaled_potential(bad)
    with pytest.raises(ValueError, match="potential V has non-finite values"):
        two_resonance_matrix(WELL, UNSCALED, LAMBDA_C_WELL, 0.01, build_grid(48, 30.0, "logarithmic", r_min=1e-3))


@pytest.mark.parametrize("z", [0.0, 1.0])
def test_single_node_support_is_its_own_eigenpair(z):
    g = RadialGrid(np.array([0.5]), np.array([0.3]), "linear", 1.0)
    v = GridFunction(g, np.array([2.0]))
    top, phi = birman_schwinger._whole_space_top(v, z, 0.5)
    assert top == pytest.approx(whole_space_q(v, z, 0.5)[0, 0], rel=1e-14)
    assert phi.tolist() == [1.0]


def test_two_resonance_diagonal_matches_dense_top_eigenvalue(well_resonance):
    grid = build_grid(48, 30.0, "logarithmic", r_min=1e-3)
    lam = well_resonance.lambda_critical
    mats = two_resonance_matrix(WELL, UNSCALED, lam, TWO_RES_ZS, grid)
    g = build_grid(800, support_radius(WELL, UNSCALED), "linear")
    v = GridFunction(g, lam * WELL(g.nodes))
    # q_top is 1 to 1e-3 here, so this is 1e-12 relative on q_top (measured 6e-14)
    for mat, z in zip(mats, TWO_RES_ZS):
        top = _top(whole_space_q(v, z, 0.5))
        assert mat.diagonal == pytest.approx(top - 1.0, rel=0.0, abs=1e-12)


def test_exponential_critical_coupling_analytic():
    # u'' + lam e^(-r) u = 0 (2m = 1) is Bessel's equation in 2 sqrt(lam) e^(-r/2):
    # the zero-energy resonance sits at J0(2 sqrt(lam)) = 0, lam_c = j_{0,1}^2 / 4
    rep = find_resonance_coupling(BasePotential("exponential", 1.0, 1.0), UNSCALED, (1.0, 5.0))
    assert rep.lambda_critical == pytest.approx(jn_zeros(0, 1)[0] ** 2 / 4.0, rel=1e-4)
    assert abs(rep.boundary_D / rep.boundary_C) < 1e-10


def test_no_sign_change_in_bracket_rejected():
    # lambda_c = pi^2/4 = 2.4674 is a closed form: the refusal names it and the bracket
    with pytest.raises(ValueError, match=r"critical coupling lambda_c = 1/q\(0\+\) = 2\.467\d* lies outside the bracket \(0\.1, 0\.2\)"):
        find_resonance_coupling(WELL, UNSCALED, (0.1, 0.2))


def test_resonance_profile_normalized(well_resonance):
    psi = well_resonance.resonance_profile
    g = psi.grid
    v = well_resonance.lambda_critical * WELL(g.nodes)
    pairing = 4.0 * np.pi * g.integrate(v * psi.values * g.nodes**2)
    assert pairing == pytest.approx(1.0, rel=1e-10)


# ---------------------------------------------------------------------------
# boundary_fit


def test_boundary_fit_recovers_synthetic_model():
    g = build_grid(400, 40.0, "logarithmic", r_min=1e-2)
    psi = GridFunction(g, 3.0 / g.nodes + 2.0)
    fit = boundary_fit(psi, 1.0)
    assert fit.C == pytest.approx(3.0, abs=1e-10)
    assert fit.D == pytest.approx(2.0, abs=1e-10)
    assert fit.residual < 1e-12


def test_boundary_fit_free_regular_solution_has_no_pole():
    # u = r means psi = const: a regular solution carries C = 0
    g = build_grid(400, 40.0, "logarithmic", r_min=1e-2)
    psi = GridFunction(g, np.full(g.n, 1.7))
    fit = boundary_fit(psi, 1.0)
    assert abs(fit.C) < 1e-10
    assert fit.D == pytest.approx(1.7, abs=1e-10)


def test_boundary_fit_scale_invariance():
    # fitting psi(s r) returns (C/s, D)
    g = build_grid(300, 60.0, "logarithmic", r_min=1e-2)
    s = 2.5
    psi_scaled = GridFunction(g, 3.0 / (s * g.nodes) + 2.0)
    fit = boundary_fit(psi_scaled, 1.0)
    assert fit.C == pytest.approx(3.0 / s, rel=1e-8)
    assert fit.D == pytest.approx(2.0, rel=1e-8)


def test_boundary_fit_window_too_small():
    g = build_grid(50, 4.0, "linear")
    psi = GridFunction(g, 1.0 / g.nodes)
    with pytest.raises(ValueError, match="window"):
        boundary_fit(psi, 1.5)


def test_boundary_fit_flags_non_asymptotic_profile():
    g = build_grid(300, 40.0, "logarithmic", r_min=1e-2)
    psi = GridFunction(g, np.exp(-g.nodes))  # not of the C/r + D form
    fit = boundary_fit(psi, 1.0)
    assert "non_asymptotic" in fit.flags


def test_resonance_has_pure_pole_boundary(well_resonance):
    # D = 0 and C != 0 at exact resonance; shooting oracle confirms the
    # exterior wave u = C + D r carries D -> 0 there
    assert well_resonance.boundary_C != 0.0
    assert abs(well_resonance.boundary_D / well_resonance.boundary_C) < 1e-10
    c_or, d_or = shoot_exterior_wave(WELL, LAMBDA_C_WELL, 1.0)
    assert abs(d_or) < 1e-6 * abs(c_or)


def test_regular_addition_shifts_d_not_c(well_resonance):
    # adding a weak unscaled regular potential moves D off zero while C
    # stays within the 1e-3 fit tolerance (boundary-coefficient version of
    # the separation of contact and regular contributions)
    lam = well_resonance.lambda_critical

    def family(s):
        return lambda r: lam * WELL(r) + s * np.exp(-((r / 2.0) ** 2))

    # same integrator and domain for both, so the edge-step bias of the
    # discontinuous well cancels in the differences
    c0, d0 = shoot_exterior_wave(family(0.0), 1.0, 12.0, two_m=1.0)
    c1, d1 = shoot_exterior_wave(family(3e-4), 1.0, 12.0, two_m=1.0)
    assert abs(d1 - d0) > 2e-4  # D shifted off its resonance value
    assert abs(c1 - c0) / abs(c0) < 1e-3  # C drift below fit tolerance


# ---------------------------------------------------------------------------
# two_resonance_matrix


TWO_RES_ZS = np.array([1e-8 * 4**k for k in range(4)])


@pytest.fixture(scope="module")
def two_res(well_resonance):
    # one call for the whole z ladder: one resonance, one eigenbasis
    grid = build_grid(56, 30.0, "logarithmic", r_min=1e-3)
    return two_resonance_matrix(WELL, UNSCALED, well_resonance.lambda_critical, TWO_RES_ZS, grid)


def test_two_resonance_ladder_is_bit_identical_to_scalar_calls(well_resonance, two_res):
    grid = build_grid(56, 30.0, "logarithmic", r_min=1e-3)
    assert [m.z for m in two_res] == TWO_RES_ZS.tolist()
    for k in (0, -1):
        single = two_resonance_matrix(WELL, UNSCALED, well_resonance.lambda_critical, float(TWO_RES_ZS[k]), grid)
        assert (single.diagonal, single.off_diagonal) == (two_res[k].diagonal, two_res[k].off_diagonal)


def test_two_resonance_diagonal_vanishes_with_positive_slope(two_res):
    diags = np.array([abs(m.diagonal) for m in two_res])
    assert np.all(np.diff(diags) > 0)  # |diag| grows with z, so it -> 0 at 0
    slope = np.polyfit(np.log(TWO_RES_ZS), np.log(diags), 1)[0]
    assert slope > 0.4


def test_two_resonance_off_diagonal_bounded_away_from_zero(two_res):
    m = two_res[0]
    assert abs(m.off_diagonal) > 100.0 * abs(m.diagonal)
    assert m.determinant != 0.0


def test_two_resonance_z_floor_enforced():
    grid = build_grid(48, 30.0, "logarithmic", r_min=1e-3)
    with pytest.raises(ValueError, match="floor"):
        two_resonance_matrix(WELL, UNSCALED, LAMBDA_C_WELL, 1e-9, grid)
    with pytest.raises(ValueError, match="floor"):
        two_resonance_matrix(WELL, UNSCALED, LAMBDA_C_WELL, [1e-8, 1e-9], grid)


def test_two_resonance_requires_critical_coupling():
    grid = build_grid(48, 30.0, "logarithmic", r_min=1e-3)
    with pytest.raises(ValueError, match="not at resonance"):
        two_resonance_matrix(WELL, UNSCALED, 1.0, 1e-8, grid)
