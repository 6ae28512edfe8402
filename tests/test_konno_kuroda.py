import numpy as np
import pytest
from scipy.linalg import eigh

from zrange.birman_schwinger import bs_operator
from zrange.grids import GridFunction, build_grid
from zrange.operators import OperatorMatrix, SingularSystemError, TridiagonalOperator, discretize_h0
from zrange.potentials import BasePotential, ScaledPotential, ScalingLaw, l1_norm
from zrange.konno_kuroda import (
    N_COMPARE,
    DefectReport,
    additivity_defect,
    assemble_resolvent_diff,
    cross_term_norm,
    direct_resolvent_diff,
    independence_spectrum_check,
    negative_count_direct,
)

from oracles import resolvent_independence_discrepancy

WELL = BasePotential("square_well", 1.0, 1.0)
GAUSS = BasePotential("gaussian", 1.0, 1.0)
BROAD = BasePotential("gaussian", 1.0, 2.0)
EPS_LADDER = [0.2, 0.1, 0.05, 0.025, 0.0125]


@pytest.fixture(scope="module")
def box100():
    g = build_grid(100, 12.0, "linear")
    return g, discretize_h0(g, 3, 0.5)


@pytest.fixture(scope="module")
def log_grid():
    return build_grid(1200, 30.0, "logarithmic", r_min=1e-5)


# ---------------------------------------------------------------------------
# assemble_resolvent_diff


def test_zero_potential_gives_zero_difference(box100):
    g, h0 = box100
    diff = assemble_resolvent_diff(GridFunction(g, np.zeros(100)), 1.0, h0=h0)
    assert np.all(diff.matrix.entries == 0.0)


@pytest.mark.parametrize("z", [float("nan"), float("inf")])
def test_non_finite_z_rejected(box100, z):
    g, h0 = box100
    with pytest.raises(ValueError, match="finite"):
        assemble_resolvent_diff(GridFunction(g, np.ones(100)), z, h0=h0)


@pytest.mark.parametrize("z", [float("nan"), float("inf"), 0.0, -1.0])
@pytest.mark.parametrize("route", ["direct", "independence"])
def test_bad_z_rejected_before_any_resolvent(box100, route, z, monkeypatch):
    g, h0 = box100

    def forbidden(*args, **kwargs):
        raise AssertionError("resolvent work started")

    monkeypatch.setattr(TridiagonalOperator, "inverse", forbidden)
    with pytest.raises(ValueError, match="finite and positive"):
        if route == "direct":
            direct_resolvent_diff(GridFunction(g, WELL(g.nodes)), z, h0=h0)
        else:
            independence_spectrum_check(None, None, None, None, GAUSS, [0.4, 0.2], z, h0)


@pytest.mark.parametrize("z", [1e-8, 1.0, 1e3])
@pytest.mark.parametrize("spacing", ["linear", "logarithmic"])
def test_banded_resolvent_matches_dense_inverse(spacing, z):
    # one banded LU solve against the identity in place of inv(H0 - V + z);
    # measured <= 1.2e-13
    g = build_grid(400, 12.0, spacing, r_min=1e-3 if spacing == "logarithmic" else None)
    h0 = discretize_h0(g, 3, 0.5)
    for v in (np.zeros(g.n), 3.0 * WELL(g.nodes)):
        ref = np.linalg.inv(h0.entries - np.diag(v) + z * np.eye(g.n))
        r = h0.inverse(z - v)
        assert np.linalg.norm(r - ref, 2) <= 1e-12 * np.linalg.norm(ref, 2)


@pytest.mark.parametrize("spacing", ["linear", "logarithmic"])
def test_negative_count_sturm_counts_are_the_dense_counts(spacing):
    # the Sturm sweep behind negative_count_direct, moved to every gap of the
    # dense spectrum, counts exactly the dense eigenvalues below it
    g = build_grid(400, 12.0, spacing, r_min=1e-3 if spacing == "logarithmic" else None)
    h0 = discretize_h0(g, 3, 0.5)
    v = GridFunction(g, 9.0 * BasePotential("gaussian", 1.0, 2.0)(g.nodes))
    dense = eigh(h0.entries - np.diag(v.values), eigvals_only=True)
    assert negative_count_direct(h0, v) == int(np.sum(dense < 0.0)) >= 2
    gaps = np.concatenate([[dense[0] - 1.0], 0.5 * (dense[:-1] + dense[1:]), [dense[-1] + 1.0]])
    assert [h0.count_negative(-v.values - level) for level in gaps] == list(range(g.n + 1))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("route", ["assemble", "direct", "count"])
def test_non_finite_potential_is_refused_naming_it(box100, route, bad):
    g, h0 = box100
    vals = WELL(g.nodes)
    vals[3] = bad
    v = GridFunction(g, vals)
    call = {
        "assemble": lambda: assemble_resolvent_diff(v, 1.0, h0=h0),
        "direct": lambda: direct_resolvent_diff(v, 1.0, h0=h0),
        "count": lambda: negative_count_direct(h0, v),
    }[route]
    with pytest.raises(ValueError, match="potential V has non-finite values"):
        call()


def test_non_tridiagonal_h0_rejected(box100):
    g, h0 = box100
    a = h0.entries.copy()
    a[0, 2] = a[2, 0] = 1e-3
    wide = OperatorMatrix(a, g, label="wide")
    v = GridFunction(g, WELL(g.nodes))
    for call in (
        lambda: assemble_resolvent_diff(v, 1.0, h0=wide),
        lambda: direct_resolvent_diff(v, 1.0, h0=wide),
        lambda: negative_count_direct(wide, v),
        lambda: bs_operator(v, 1.0, wide),
    ):
        with pytest.raises(ValueError, match="off its three diagonals"):
            call()


def test_h0_built_on_another_grid_rejected(box100):
    # same n, another r_max: the diagonals fit V's grid, and a square well of
    # strength 5 on the 12-box counts 2 bound states against the H0 of a
    # 30-box, 1 against its own
    g, h0 = box100
    other = discretize_h0(build_grid(100, 30.0, "linear"), 3, 0.5)
    v = GridFunction(g, 5.0 * WELL(g.nodes))
    assert negative_count_direct(h0, v) == 1
    # an equal grid built anew is the same grid
    assert negative_count_direct(discretize_h0(build_grid(100, 12.0, "linear"), 3, 0.5), v) == 1
    for call in (
        lambda: assemble_resolvent_diff(v, 1.0, h0=other),
        lambda: direct_resolvent_diff(v, 1.0, h0=other),
        lambda: negative_count_direct(other, v),
        lambda: bs_operator(v, 1.0, other),
    ):
        with pytest.raises(ValueError, match="another grid"):
            call()
    with pytest.raises(TypeError, match="'h0'"):
        bs_operator(v, 1.0)
    with pytest.raises(ValueError, match="carries no grid"):
        bare = TridiagonalOperator(h0.diag, h0.off, None)
        independence_spectrum_check(None, None, None, None, GAUSS, [0.4, 0.2], 1.0, bare)


@pytest.mark.parametrize("z", [0.5, 1.0, 2.0])
def test_konno_kuroda_equals_direct(box100, z):
    g, h0 = box100
    v = GridFunction(g, WELL(g.nodes))
    kk = assemble_resolvent_diff(v, z, h0=h0)
    direct = direct_resolvent_diff(v, z, h0=h0)
    rel = np.linalg.norm(kk.matrix.entries - direct.matrix.entries, 2) / np.linalg.norm(
        direct.matrix.entries, 2
    )
    assert rel < 1e-8
    assert kk.smallest_one_minus_q > 1e-10


def test_born_defect_quadratic_in_coupling(box100):
    g, h0 = box100
    r0 = np.linalg.inv(h0.entries + np.eye(100))
    defects = []
    for lam in (0.2, 0.1, 0.05):
        v = GridFunction(g, lam * WELL(g.nodes))
        kk = assemble_resolvent_diff(v, 1.0, h0=h0)
        born = r0 @ np.diag(v.values) @ r0
        defects.append(np.linalg.norm(kk.matrix.entries - born, 2))
    ratios = np.array(defects[:-1]) / np.array(defects[1:])
    assert np.all((ratios > 3.4) & (ratios < 4.6))


def test_difference_positive_on_test_functions_at_small_coupling(box100):
    g, h0 = box100
    v = GridFunction(g, 0.3 * WELL(g.nodes))
    diff = assemble_resolvent_diff(v, 1.0, h0=h0).matrix.entries
    rng = np.random.default_rng(3)
    for _ in range(5):
        f = np.abs(rng.standard_normal(100))
        assert f @ diff @ f > 0.0


def test_one_minus_q_singularity_located_at_bound_state(box100):
    # 1 - Q(z) turns singular exactly at z = |E_n| of H0 - V
    g, h0 = box100
    v = GridFunction(g, 5.0 * WELL(g.nodes))
    ham = h0.entries - np.diag(v.values)
    e0 = eigh(ham, eigvals_only=True, subset_by_index=[0, 0])[0]
    assert e0 < 0
    z_star = -e0
    r0 = np.linalg.inv(h0.entries + z_star * np.eye(100))
    b = np.sqrt(v.values)
    q = r0 * np.outer(b, b)
    sv = np.linalg.svd(np.eye(100) - 0.5 * (q + q.T), compute_uv=False)
    assert sv[-1] < 1e-8


def test_singular_kernel_reports_smallest_singular_value(box100):
    # at z = |E_0| of H0 - V the assembly refuses the singular 1 - Q(z)
    g, h0 = box100
    v = GridFunction(g, 5.0 * WELL(g.nodes))
    e0 = eigh(h0.entries - np.diag(v.values), eigvals_only=True, subset_by_index=[0, 0])[0]
    with pytest.raises(SingularSystemError, match="singular") as err:
        assemble_resolvent_diff(v, -e0, h0=h0)
    assert err.value.smallest_eigenvalue == pytest.approx(0.0, abs=1e-10)


def test_bs_count_matches_direct_over_coupling_sweep(box100):
    from zrange.birman_schwinger import bs_count_above_one, bs_operator

    g, h0 = box100
    for lam in (0.5, 2.0, 5.0, 9.0):
        v = GridFunction(g, lam * BasePotential("square_well", 1.0, 2.0)(g.nodes))
        q = bs_operator(v, 1e-8, h0)
        assert bs_count_above_one(q) == negative_count_direct(h0, v)


# ---------------------------------------------------------------------------
# cross_term_norm


def test_cross_term_decreases_for_contact_weak_pair(log_grid):
    rep = cross_term_norm(GAUSS, ScalingLaw(3, 1, 3), GAUSS, ScalingLaw(2, 1, 3), EPS_LADDER, log_grid)
    assert np.all(np.diff(rep.values) < 0)
    assert rep.values[-1] < 0.3 * rep.values[0]
    # exact exponent for the both-scaled pair is 1/2 (computed by change of
    # variables: eps^(-5/2) sqrt(V U)(r/eps) integrates to eps^(1/2) times a
    # constant); the quadrature reproduces it
    assert rep.fitted_exponent == pytest.approx(0.5, abs=0.02)
    assert not rep.flags


def test_cross_term_unscaled_partner_has_steeper_decay(log_grid):
    rep = cross_term_norm(GAUSS, ScalingLaw(3, 1, 3), BROAD, ScalingLaw(None, 1, 3), EPS_LADDER, log_grid)
    assert np.all(np.diff(rep.values) < 0)
    # change of variables gives eps^(3/2) exactly in the limit
    assert rep.fitted_exponent > 0.9


def test_cross_term_homogeneity_in_couplings(log_grid):
    rep1 = cross_term_norm(GAUSS, ScalingLaw(3, 1, 3), GAUSS, ScalingLaw(2, 1, 3), [0.1], log_grid)
    strong = BasePotential("gaussian", 4.0, 1.0)
    rep2 = cross_term_norm(strong, ScalingLaw(3, 1, 3), GAUSS, ScalingLaw(2, 1, 3), [0.1], log_grid)
    assert rep2.values[0] == pytest.approx(2.0 * rep1.values[0], rel=1e-12)


def test_disjoint_supports_give_exact_zero(log_grid):
    # pointwise-disjoint factors integrate to exactly zero
    half = log_grid.n // 2
    f1 = np.zeros(log_grid.n)
    f2 = np.zeros(log_grid.n)
    f1[:half] = 1.0
    f2[half:] = 1.0
    assert l1_norm(np.sqrt(f1) * np.sqrt(f2), log_grid, 3) == 0.0


def test_defect_report_validates_ladder():
    with pytest.raises(ValueError, match="decreasing"):
        DefectReport(np.array([0.1, 0.2]), np.array([1.0, 1.0]), 0.0)


def test_cross_term_flags_unconverged_quadrature():
    coarse = build_grid(16, 30.0, "logarithmic", r_min=1e-2)
    rep = cross_term_norm(GAUSS, ScalingLaw(3, 1, 3), GAUSS, ScalingLaw(2, 1, 3), [0.05], coarse)
    assert any("quadrature_not_converged" in f for f in rep.flags)


# ---------------------------------------------------------------------------
# additivity_defect


def test_additivity_defect_algebraic_identity(log_grid):
    # (sqrt a + sqrt b)^2 - a - b = 2 sqrt(a b), checked at eps = 1
    rep = additivity_defect(GAUSS, ScalingLaw(2, 1, 3), BROAD, [1.0], log_grid)
    f2 = GAUSS(log_grid.nodes)
    f3 = BROAD(log_grid.nodes)
    expected = 2.0 * l1_norm(np.sqrt(f2 * f3), log_grid, 3)
    assert rep.values[0] == pytest.approx(expected, rel=1e-12)


def test_additivity_defect_is_o_of_epsilon(log_grid):
    rep = additivity_defect(GAUSS, ScalingLaw(2, 1, 3), BROAD, EPS_LADDER, log_grid)
    over_eps = rep.values / rep.epsilons
    assert np.all(over_eps <= 2.0 * over_eps[0])
    assert np.all(np.diff(rep.values) < 0)
    assert rep.fitted_exponent > 1.5  # measured ~ eps^2, comfortably o(eps)


# ---------------------------------------------------------------------------
# independence_spectrum_check


@pytest.fixture(scope="module")
def indep_grid():
    return build_grid(300, 14.0, "logarithmic", r_min=1e-3)


def test_single_potential_prediction_exact(indep_grid):
    rep = independence_spectrum_check(
        GAUSS, ScalingLaw(3, 1, 3), None, None, None, [0.5, 0.25], 1.0, discretize_h0(indep_grid)
    )
    assert np.all(rep.discrepancies < 1e-8)


def test_weak_plus_regular_discrepancy_decreases(indep_grid):
    rep = independence_spectrum_check(
        None, None, GAUSS, ScalingLaw(2, 1, 3), BROAD, [0.4, 0.2, 0.1], 1.0, discretize_h0(indep_grid)
    )
    assert rep.decreasing


def test_all_three_discrepancy_decreases(indep_grid):
    rep = independence_spectrum_check(
        GAUSS, ScalingLaw(3, 1, 3), GAUSS, ScalingLaw(2, 1, 3), BROAD, [0.4, 0.2, 0.1], 1.0, discretize_h0(indep_grid)
    )
    assert rep.decreasing


@pytest.mark.parametrize("strength", [1.0, 5.0], ids=["levels_above_minus_z", "one_level_below_minus_z"])
def test_independence_levels_match_the_resolvent_route(indep_grid, strength):
    # the full Hamiltonian's levels come from its tridiagonal spectrum, once
    # from a dense eigensolve of its resolvent; at strength 5 one level
    # (-2.14) lies below -z = -1, where the resolvent route cannot see it
    h0, law, ladder = discretize_h0(indep_grid), ScalingLaw(2, 1, 3), [0.4, 0.2]
    v3 = BasePotential("gaussian", strength, 2.0)
    assert (h0.eigenvalues(-v3(indep_grid.nodes)).min() < -1.0) == (strength > 1.0)
    rep = independence_spectrum_check(None, None, GAUSS, law, v3, ladder, 1.0, h0)
    for eps, delta in zip(ladder, rep.discrepancies):
        parts = [ScaledPotential(GAUSS, law.with_epsilon(eps))(indep_grid.nodes), v3(indep_grid.nodes)]
        assert delta == pytest.approx(resolvent_independence_discrepancy(h0, parts, 1.0, N_COMPARE), abs=1e-12)


@pytest.mark.parametrize("which", [1, 2])
def test_independence_names_a_missing_scaling_law(indep_grid, which):
    # a scaled potential without its law once raised AttributeError:
    # 'NoneType' object has no attribute 'with_epsilon'
    args = [None, None, None, None]
    args[2 * which - 2] = GAUSS
    with pytest.raises(ValueError, match=f"v{which} is given without its scaling law: law{which} is None"):
        independence_spectrum_check(*args, BROAD, [0.4, 0.2], 1.0, discretize_h0(indep_grid))


@pytest.mark.parametrize("ladder", [[0.2, 0.4], [0.2, 0.2]])
def test_independence_rejects_a_ladder_that_is_not_strictly_decreasing(indep_grid, ladder):
    # the ladder rule of DefectReport and convergence_study, with their message
    with pytest.raises(ValueError, match="epsilon ladder must be strictly decreasing"):
        independence_spectrum_check(
            None, None, GAUSS, ScalingLaw(2, 1, 3), BROAD, ladder, 1.0, discretize_h0(indep_grid)
        )
