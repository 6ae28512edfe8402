import tracemalloc

import numpy as np
import pytest
from scipy.linalg import eigh
from scipy.optimize import brentq

from zrange import efimov, operators
from zrange.grids import build_grid
from zrange.operators import SpectrumReport
from zrange.efimov import (
    _inertia_spectrum,
    effective_operator,
    find_thresholds,
    geometric_ratio,
    hyperradial_reduce,
    kernel22,
    mass_sweep_2d,
    operator_spectrum,
)

from oracles import contact_symbol, jacobi_eigenvalues, qr_root_factor


@pytest.fixture(scope="module")
def log_grid():
    return build_grid(400, 2e2, "logarithmic", r_min=1e-4)


@pytest.fixture(scope="module")
def thresholds_d3():
    return find_thresholds("contact_image", 3, (0.1, 2.5), n=250)


# ---------------------------------------------------------------------------
# effective_operator


def test_free_operator_positive(log_grid):
    op = effective_operator("contact_image", 0.0, 3, log_grid)
    low = eigh(op.entries, eigvals_only=True, subset_by_index=[0, 0])[0]
    assert low > -1e-10 * np.abs(op.entries).max()
    with pytest.raises(ValueError, match="nonnegative"):
        effective_operator("contact_image", -1.0, 3, log_grid)


@pytest.mark.parametrize("kind,d", [("contact_image", 3), ("weak_image", 2), ("three_body_2d", 2)])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_coupling_and_mass_rejected(log_grid, kind, d, bad):
    with pytest.raises(ValueError, match="coupling C"):
        effective_operator(kind, bad, d, log_grid)
    with pytest.raises(ValueError, match="mass m"):
        effective_operator(kind, 1.0, d, log_grid, m=bad)


def test_requires_logarithmic_scale_bracketing():
    lin = build_grid(100, 200.0, "linear")
    with pytest.raises(ValueError, match="logarithmic"):
        effective_operator("contact_image", 1.0, 3, lin)
    narrow = build_grid(100, 200.0, "logarithmic", r_min=1e-2)
    with pytest.raises(ValueError, match="bracket"):
        effective_operator("contact_image", 1.0, 3, narrow)


def test_dilated_six_decade_grids_keep_their_bracket():
    # for 23 of these 41 factors r_max / r_min of the dilated grid reads
    # 999999.9999999999, 1 or 2 ulps short of six decades; a width 1e-12
    # short is still refused
    g = build_grid(200, 1e2, "logarithmic", r_min=1e-4)
    short = build_grid(200, 1e2, "logarithmic", r_min=1e-4 * (1.0 + 1e-12))
    factors = np.geomspace(0.01, 100.0, 41)
    assert any(g.dilate(s).r_max / g.dilate(s).r_min < 1e6 for s in factors)
    for s in factors:
        effective_operator("contact_image", 1.0, 3, g.dilate(s))
        with pytest.raises(ValueError, match="too narrow"):
            effective_operator("contact_image", 1.0, 3, short.dilate(s))


def test_unknown_kind_rejected(log_grid):
    with pytest.raises(ValueError, match="kind"):
        effective_operator("magic", 1.0, 3, log_grid)


def test_contact_image_scale_covariance(log_grid):
    # dilating the grid r -> s r maps every negative eigenvalue to E / s
    s = 10.0
    op = effective_operator("contact_image", 1.5, 3, log_grid)
    dilated_grid = build_grid(400, 2e2 * s, "logarithmic", r_min=1e-4 * s)
    op_s = effective_operator("contact_image", 1.5, 3, dilated_grid)
    e = operator_spectrum(op).eigenvalues
    es = operator_spectrum(op_s).eigenvalues
    neg, negs = e[e < 0], es[es < 0]
    assert neg.size == negs.size
    assert np.allclose(negs, neg / s, rtol=0.01)


def test_operator_spectrum_matches_jacobi_oracle():
    g = build_grid(40, 1e2, "logarithmic", r_min=1e-4)
    op = effective_operator("contact_image", 1.5, 3, g)
    oracle = jacobi_eigenvalues(op.entries)
    e = operator_spectrum(op).eigenvalues
    assert np.max(np.abs(e - oracle)) < 1e-10 * np.abs(oracle).max()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_spectrum_report_refuses_non_finite_eigenvalues(bad):
    # geometric_ratio classified a spectrum with a NaN level as efimov
    with pytest.raises(ValueError, match="finite eigenvalues"):
        SpectrumReport.from_eigenvalues(np.array([-4.0, -1.0, bad, -0.25, -0.0625]))


def test_spectrum_report_counts_negatives_and_ratios():
    rep = SpectrumReport.from_eigenvalues(np.array([3.0, -1.0, -2.0]))
    assert np.array_equal(rep.eigenvalues, [-2.0, -1.0, 3.0])
    assert rep.count_negative == 2


def test_weak_image_small_coupling_has_no_bound_state(log_grid):
    op = effective_operator("weak_image", 0.01, 3, log_grid)
    assert operator_spectrum(op).count_negative == 0


def test_weak_image_strong_coupling_binds_finitely(log_grid):
    # the log tail cannot beat sqrt(-Lap) at short distance: count stays
    # finite and refinement-stable
    counts = []
    for r_min in (1e-4, 1e-5):
        g = build_grid(400, 2e2, "logarithmic", r_min=r_min)
        counts.append(operator_spectrum(effective_operator("weak_image", 3.0, 3, g)).count_negative)
    assert counts[0] == counts[1]
    assert counts[0] >= 1


# ---------------------------------------------------------------------------
# thresholds


def test_threshold_order_and_stability(thresholds_d3):
    rep = thresholds_d3
    assert 0.0 < rep.C0 <= rep.C1
    assert rep.grid_refinement_drift < 0.01


def test_below_c0_positive_at_all_refinements(thresholds_d3):
    c = 0.8 * thresholds_d3.C0
    for k in range(3):
        g = build_grid(300, 2e2, "logarithmic", r_min=1e-4 * 10.0**-k)
        assert operator_spectrum(effective_operator("contact_image", c, 3, g)).count_negative == 0


def test_between_c0_c1_count_finite_and_stable(thresholds_d3):
    c = 0.5 * (thresholds_d3.C0 + thresholds_d3.C1)
    counts = []
    for k in range(3):
        g = build_grid(300, 2e2, "logarithmic", r_min=1e-4 * 10.0**-k)
        counts.append(operator_spectrum(effective_operator("contact_image", c, 3, g)).count_negative)
    assert max(counts) - min(counts) <= 1
    assert counts[0] >= 1


def test_above_c1_count_grows_every_decade(thresholds_d3):
    c = 2.0 * thresholds_d3.C1
    counts = []
    for k in range(3):
        g = build_grid(300, 2e2, "logarithmic", r_min=1e-4 * 10.0**-k)
        counts.append(operator_spectrum(effective_operator("contact_image", c, 3, g)).count_negative)
    assert all(counts[i + 1] > counts[i] for i in range(2))


@pytest.mark.parametrize("d", [3, 2])
def test_inertia_spectrum_counts_negative_eigenvalues(d):
    # Sylvester: #neg(S - C/r) = #{mu < C} for every C from one eigensolve
    g = build_grid(200, 2e2, "logarithmic", r_min=1e-4)
    mu = _inertia_spectrum(d, g)
    for c in np.linspace(0.1, 2.5, 6):
        direct = operator_spectrum(effective_operator("contact_image", c, d, g)).count_negative
        assert np.searchsorted(mu, c) == direct


@pytest.mark.parametrize("d,m", [(3, 0.5), (2, 2.0)])
def test_inertia_spectrum_matches_scaled_root(d, m):
    # the spectrum is taken at mass 1/2; at mass m, sqrt(-Lap / 2m) scales it by 1/sqrt(2m)
    g = build_grid(300, 2e2, "logarithmic", r_min=1e-4)
    q, w = np.sqrt(g.nodes), operators._root_factor(*operators._kinetic_diagonals(g, d, m))
    ref = np.linalg.eigvalsh(q[:, None] * (w @ w.T) * q[None, :])
    mu = _inertia_spectrum(d, g) / np.sqrt(2.0 * m)
    assert np.abs(mu - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("d", [3, 2])
def test_inertia_spectrum_matches_numpy_eigvalsh(d):
    # numpy's eigensolve on the inertia matrix X X^T, X = r^(1/2) W, formed by one syrk: the in-place Gram
    # sums by panels, so they agree to within 2.8e-15 of the largest eigenvalue over n = 300 ... 1200
    g = build_grid(300, 2e2, "logarithmic", r_min=1e-4)
    x = operators._root_factor(*operators._kinetic_diagonals(g, d, 0.5)) * np.sqrt(g.nodes)[:, None]
    ref = np.linalg.eigvalsh(x @ x.T)
    assert np.abs(_inertia_spectrum(d, g) - ref).max() <= 1e-14 * ref[-1]


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n,r_min", [(300, efimov.THRESHOLD_R_MIN * 10.0**-k) for k in range(7)] + [(8, 1e-4)])
def test_inertia_spectrum_matches_a_zero_shift_qr_root(d, n, r_min):
    # the threshold ladder's grids, against the root by zero-shift QR: measured <= 5.2e-14, where the
    # root by divide and conquer (dbdsdc) was 3.5e-7 off (d = 3) and 1.0e-12 off (d = 2) at r_min 1e-10
    g = build_grid(n, efimov.THRESHOLD_R_MAX, "logarithmic", r_min=r_min)
    x = qr_root_factor(*operators._kinetic_diagonals(g, d, 0.5)) * np.sqrt(g.nodes)[:, None]
    ref = np.linalg.eigvalsh(x @ x.T)
    assert np.all(np.abs(_inertia_spectrum(d, g) - ref) <= 1e-12 * ref)


def test_root_and_tower_spectrum_hold_few_dense_arrays():
    # tracemalloc peaks in n x n doubles at n = 1000, measured 1.0 for the root and 1.31 for a tower's
    # spectrum and for the inertia spectrum: the root's one array, overwritten by the Gram and solved in
    # place, and the Gram's one panel; a syrk into a second array with the eigensolver's copy read 2.1,
    # and the root by divide and conquer (dbdsdc), which held U, V and a 3n^2 workspace, 5.0
    n = 1000
    g = build_grid(n, 1e2, "logarithmic", r_min=1e-4)

    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1] / (8.0 * n * n)
        finally:
            tracemalloc.stop()

    assert peak(lambda: operators._root_factor(*operators._kinetic_diagonals(g, 3, 0.5))) <= 1.2
    assert peak(lambda: operator_spectrum(effective_operator("contact_image", 2.0, 3, g))) <= 1.4
    assert peak(lambda: _inertia_spectrum(3, g)) <= 1.4


def test_contact_symbol_closed_forms():
    tau = np.array([1e-3, 0.1, 0.5, 1.0, 2.0, 5.0, 20.0])
    assert np.allclose(contact_symbol(3, tau), tau / np.tanh(0.5 * np.pi * tau), rtol=1e-13, atol=0.0)
    assert contact_symbol(3, 0.0) == pytest.approx(2.0 / np.pi, rel=1e-14)
    assert contact_symbol(2, 0.0) == pytest.approx(0.228473, rel=1e-5)


@pytest.mark.parametrize("d", [3, 2])
@pytest.mark.parametrize("n", [150, 300])
def test_mu_min_lies_between_hardy_constant_and_box_symbol(d, n):
    # on a log grid of width L = ln(r_max / r_min) the lowest inertia
    # eigenvalue is the box value of the Mellin symbol: above the sharp
    # Hardy constant Phi_d(0), at most Phi_d(pi / L), and falling as the box
    # widens toward the continuum threshold
    r_max, r_mins = 2e2, [1e-4, 1e-6, 1e-8, 1e-10]
    mu_min = np.array([_inertia_spectrum(d, build_grid(n, r_max, "logarithmic", r_min=r))[0] for r in r_mins])
    widths = np.log(r_max / np.array(r_mins))
    assert np.all(contact_symbol(d, 0.0) < mu_min)
    assert np.all(mu_min <= contact_symbol(d, np.pi / widths))
    assert np.all(np.diff(mu_min) < 0.0)


@pytest.fixture(scope="module")
def deep_log_grid():
    return build_grid(1000, 2e2, "logarithmic", r_min=1e-8)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("c", [1.0, 1.5, 2.0, 3.0])
def test_tower_ratio_matches_the_mellin_symbol(deep_log_grid, d, c):
    # above the Hardy constant, Phi_d(tau) = C has one root tau(C), and
    # successive tower energies have the ratio exp(-pi / tau(C)); the inner
    # ratios of the grid tower are measured within 0.60 % of it (d = 2, C = 3)
    tau = brentq(lambda t: contact_symbol(d, t) - c, 0.0, 10.0 * c)
    rep = geometric_ratio(operator_spectrum(effective_operator("contact_image", c, d, deep_log_grid)))
    assert rep.ratio == pytest.approx(np.exp(-np.pi / tau), rel=1e-2)


def test_thresholds_build_no_dense_factor_or_operator(monkeypatch):
    # each ladder grid costs one kinetic root, its in-place Gram and one eigensolve:
    # no dense kinetic matrix, no effective operator, no symmetry check
    def forbidden(*args, **kwargs):
        raise AssertionError("dense side pass on the threshold path")

    monkeypatch.setattr(operators.TridiagonalOperator, "entries", property(forbidden))
    monkeypatch.setattr(operators, "check_symmetric", forbidden)
    monkeypatch.setattr(efimov, "effective_operator", forbidden)
    rep = find_thresholds("contact_image", 3, (0.1, 2.5), n=150)
    assert 0.0 < rep.C0 <= rep.C1


def test_c0_is_where_the_refined_grid_loses_positivity(thresholds_d3):
    # the refined run (n = 500) is the one reported
    g = build_grid(500, 2e2, "logarithmic", r_min=1e-4)
    c0 = thresholds_d3.C0
    below = operator_spectrum(effective_operator("contact_image", c0 * (1.0 - 1e-3), 3, g))
    above = operator_spectrum(effective_operator("contact_image", c0 * (1.0 + 1e-3), 3, g))
    assert below.count_negative == 0
    assert above.count_negative >= 1


def test_c0_is_the_smallest_inertia_eigenvalue_of_the_refined_grid(thresholds_d3):
    # the contact image is positive exactly for C <= mu_min, so C0 is mu_min
    # itself, not a bisection midpoint within THRESHOLD_REL_TOL of it
    g = build_grid(500, 2e2, "logarithmic", r_min=1e-4)
    assert thresholds_d3.C0 == pytest.approx(efimov._inertia_spectrum(3, g)[0], rel=1e-12, abs=0.0)


def test_threshold_bracket_validation():
    with pytest.raises(ValueError, match="straddle"):
        find_thresholds("contact_image", 3, (2.0, 2.5), n=250)


def test_thresholds_only_for_contact_image():
    with pytest.raises(ValueError, match="scale-invariant"):
        find_thresholds("weak_image", 3, (0.05, 2.5), 300)
    with pytest.raises(ValueError, match="scale-invariant"):
        find_thresholds("three_body_2d", 2, (0.05, 2.5), 300)


# ---------------------------------------------------------------------------
# geometric_ratio


def test_synthetic_geometric_spectrum():
    e = -2.0 * 0.3 ** np.arange(6)
    rep = geometric_ratio(SpectrumReport.from_eigenvalues(e))
    assert rep.ratio == pytest.approx(0.3, rel=1e-12)
    assert rep.deviation < 1e-12
    assert rep.classification == "efimov"


def test_linear_spectrum_not_geometric():
    # harmonic-like equal spacing; enough levels that the ratio spread
    # exceeds the 10% gate
    e = -np.arange(10.0, 0.0, -1.0)
    rep = geometric_ratio(SpectrumReport.from_eigenvalues(e))
    assert rep.classification == "not_geometric"
    assert rep.deviation > 0.10


def test_too_few_negative_eigenvalues_rejected():
    with pytest.raises(ValueError, match="at least 4"):
        geometric_ratio(SpectrumReport.from_eigenvalues(np.array([-1.0, -0.1, 1.0])))


def test_contact_image_tower_is_geometric(log_grid):
    op = effective_operator("contact_image", 2.3, 3, log_grid)
    rep = geometric_ratio(operator_spectrum(op))
    assert rep.classification == "efimov"
    assert rep.deviation < 0.10


def test_thomas_mirror_rmin_decade_deepens_by_scale_factor(log_grid):
    # the UV face of the same scale invariance: truncating r_min by a decade
    # deepens the lowest level by the dilation factor, while new states enter
    # at the tower ratio
    c = 2.3
    base = operator_spectrum(effective_operator("contact_image", c, 3, log_grid))
    fine_grid = build_grid(400, 2e2, "logarithmic", r_min=1e-5)
    fine = operator_spectrum(effective_operator("contact_image", c, 3, fine_grid))
    deep_base = np.abs(base.eigenvalues[base.eigenvalues < 0]).max()
    deep_fine = np.abs(fine.eigenvalues[fine.eigenvalues < 0]).max()
    assert deep_fine / deep_base == pytest.approx(10.0, rel=0.25)


# ---------------------------------------------------------------------------
# kernel22 / hyperradial_reduce


def test_kernel22_unit_vectors():
    v = kernel22(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    assert not v.pole
    assert v.value == pytest.approx(1.0 / 12.0, rel=1e-15)


def test_kernel22_pole_flag():
    v = kernel22(np.array([1.0, 0.3]), np.array([-1.0, -0.3]))
    assert v.pole


@pytest.mark.parametrize("q1", [[np.nan, 0.0], [np.inf, 0.0], [0.0, -np.inf]])
def test_kernel22_rejects_non_finite_momenta(q1):
    # NaN once came back as the value nan with pole False, inf as a pole
    with pytest.raises(ValueError, match="finite"):
        kernel22(np.array(q1), np.array([1.0, 0.0]))


def test_kernel22_homogeneity_degree_minus_four():
    rng = np.random.default_rng(0)
    for _ in range(10):
        q1, q2 = rng.standard_normal((2, 2))
        s = rng.uniform(0.5, 3.0)
        a = kernel22(q1, q2)
        b = kernel22(s * q1, s * q2)
        assert b.value == pytest.approx(a.value / s**4, rel=1e-12)


def test_hyperradial_profile_inverse_r_with_negative_prefactor():
    rep = hyperradial_reduce(np.geomspace(0.01, 10.0, 10))
    assert rep["fitted_exponent"] == pytest.approx(-1.0, abs=0.05)
    assert rep["prefactor"] < 0.0
    # degree -1 law: profile(2r)/profile(r) = 1/2 on a factor-2 pair
    pair = hyperradial_reduce(np.array([1.0, 2.0, 150.0]))
    assert pair["profile"][1] / pair["profile"][0] == pytest.approx(0.5, rel=1e-10)


def test_hyperradial_requires_two_decades():
    with pytest.raises(ValueError, match="decades"):
        hyperradial_reduce(np.array([1.0, 2.0, 3.0]))


@pytest.mark.parametrize("r_list", [[-1.0, 0.01, 10.0], [np.nan, 0.01, 10.0], [0.0, 0.01, 10.0], [0.01, 1.0, np.inf]])
def test_hyperradial_rejects_bad_radii(r_list):
    # these passed the two-decade check (its log10 was NaN) and ended in
    # np.polyfit as a LinAlgError
    with pytest.raises(ValueError, match="radii must be finite and positive"):
        hyperradial_reduce(np.array(r_list))


def test_hyperradial_angular_divergence_flagged():
    # the exact angular average diverges logarithmically on the q1 = -q2
    # circle, so refinement growth is reported as a flag by design
    rep = hyperradial_reduce(np.geomspace(0.01, 10.0, 8))
    assert "angular_quadrature_not_converged" in rep["flags"]


def test_angular_divergence_has_its_closed_form_coefficient():
    # Near the back-to-back circle q1 = -q2 on |Q| = rho, with x = chi - pi/4
    # and y = delta - pi, the kernel's first factor is rho^2/2, |q1 + q2|^2 is
    # rho^2 (2 x^2 + y^2/2) and the weight sin(chi) cos(chi) is 1/2.  So
    # rho^4 times the average is (1/pi) of the integral of du dv / (u^2 + v^2)
    # (u = sqrt(2) x, v = y / sqrt(2)): 2 ln(1/h) for a node spacing h, which
    # grows by 2 ln 2 per doubling of both node counts
    avgs = [efimov._slice_average(k * efimov.N_CHI, k * efimov.N_DELTA, 1.0) for k in (1, 2, 4, 8)]
    steps = np.diff(avgs)
    assert np.all(np.abs(steps - 2.0 * np.log(2.0)) <= 1e-3), steps


# ---------------------------------------------------------------------------
# mass_sweep_2d


@pytest.fixture(scope="module")
def sweep_grid():
    return build_grid(600, 5e2, "logarithmic", r_min=1e-4)


def test_mass_sweep_monotonicity(sweep_grid):
    rep = mass_sweep_2d([1, 2, 4, 8, 16], 1.0, sweep_grid)
    assert rep.counts_nondecreasing
    assert rep.shallowest_nonincreasing
    assert not rep.flags


def test_mass_sweep_reports_a_deepening_shallowest_state(sweep_grid):
    # a 0.1 % mass step admits no new state, so every level deepens with m,
    # the shallowest one too: 5.521e-4 -> 5.571e-4 at a count of 13
    rep = mass_sweep_2d([1, 1.001], 1.0, sweep_grid)
    assert rep.counts.tolist() == [13, 13]
    assert rep.shallowest_depth == pytest.approx([5.521e-4, 5.571e-4], rel=1e-3)
    assert rep.counts_nondecreasing
    assert not rep.shallowest_nonincreasing


def test_mass_sweep_dilation_oracle(sweep_grid):
    # eig((1/m) K - c/r on G) = m * eig(K - c/r on m G), checked end to end
    # through an independently dilated assembly
    from zrange.operators import hyperradial_kinetic

    m = 8.0
    op_m = effective_operator("three_body_2d", 1.0, 2, sweep_grid, m=m)
    ev_m = operator_spectrum(op_m).eigenvalues
    dilated = sweep_grid.dilate(m)
    kin = hyperradial_kinetic(dilated, 1.0).entries
    ham = kin - np.diag(1.0 / dilated.nodes)
    ev_1 = np.sort(eigh(0.5 * (ham + ham.T), eigvals_only=True))
    neg_m = ev_m[ev_m < 0]
    neg_1 = ev_1[ev_1 < 0]
    k = min(neg_m.size, neg_1.size)
    assert k >= 3
    assert np.allclose(neg_m[:k], m * neg_1[:k], rtol=0.01)


@pytest.mark.parametrize("m", [1.0, 16.0])
def test_three_body_spectrum_is_the_dense_spectrum_bit_for_bit(sweep_grid, m):
    # dsterf on the two diagonals is where the dense eigensolve ends up; the
    # bisection route (stebz) is off by about 5 % on this graded matrix
    op = effective_operator("three_body_2d", 1.0, 2, sweep_grid, m=m)
    dense = eigh(op.entries, eigvals_only=True)
    assert np.array_equal(operator_spectrum(op).eigenvalues, dense)


@pytest.mark.parametrize("m,c", [(1.0, 1.0), (4.0, 1.0), (2.0, 0.5)])
def test_three_body_operator_has_the_4d_hydrogen_spectrum(m, c):
    # (1/m)(-Lap_hyper) - c/r is the 4-d s-wave Coulomb problem:
    # E_k = -m c^2 / (4 (k + 3/2)^2).  The relative error of k <= 5 is
    # second order in n (measured 2.00-2.02; k = 1 converges faster), the
    # same at every (m, c), and 4.19e-4 at n = 1200.
    k = np.arange(6)
    exact = -m * c**2 / (4.0 * (k + 1.5) ** 2)
    errors = []
    for n in (600, 1200):
        g = build_grid(n, 5e3, "logarithmic", r_min=1e-5)
        ev = operator_spectrum(effective_operator("three_body_2d", c, 2, g, m=m)).eigenvalues
        errors.append(np.abs(ev[k] - exact) / np.abs(exact))
    assert errors[1].max() <= 5e-4
    assert np.all(np.log2(errors[0] / errors[1]) >= 1.9)


def test_mass_sweep_requires_increasing_masses(sweep_grid):
    with pytest.raises(ValueError, match="increasing"):
        mass_sweep_2d([2, 1], 1.0, sweep_grid)
    with pytest.raises(ValueError, match="positive"):
        mass_sweep_2d([1, 2], -1.0, sweep_grid)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_mass_sweep_rejects_non_finite_inputs(sweep_grid, bad):
    with pytest.raises(ValueError, match="coupling c"):
        mass_sweep_2d([1, 2], bad, sweep_grid)
    with pytest.raises(ValueError, match="masses"):
        mass_sweep_2d([1, bad], 1.0, sweep_grid)


def test_mass_sweep_flags_unresolved_shallow_states():
    # a small box leaves the shallowest state at the box scale
    tight = build_grid(300, 2e2, "logarithmic", r_min=1e-4)
    rep = mass_sweep_2d([1, 2, 4], 1.0, tight)
    assert any("r_max_too_small" in f for f in rep.flags)
