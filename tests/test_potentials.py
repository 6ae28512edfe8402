import tracemalloc

import numpy as np
import pytest
from scipy.special import xlogy

from zrange import potentials
from zrange.grids import RadialGrid, build_grid
from zrange.potentials import (
    SCALING_REGIMES,
    BasePotential,
    ScaledPotential,
    ScalingLaw,
    ScalingLawError,
    l1_norm,
    l2_norm,
    rollnik_norm,
    scale_potential,
)

from oracles import rollnik_cell_pairs, trapezoid_l1_radial

GAUSS = BasePotential("gaussian", 1.0, 1.0)
WELL = BasePotential("square_well", 1.0, 1.0)


def test_profiles_nonnegative():
    r = np.linspace(0, 20, 500)
    for prof in ("gaussian", "square_well", "exponential"):
        v = BasePotential(prof, 2.5, 0.7)(r)
        assert np.all(v >= 0.0)


def test_invalid_potential_parameters():
    with pytest.raises(ValueError):
        BasePotential("gaussian", -1.0, 1.0)
    with pytest.raises(ValueError):
        BasePotential("gaussian", 1.0, 0.0)
    with pytest.raises(ValueError):
        BasePotential("lorentzian", 1.0, 1.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_parameters_rejected(bad):
    with pytest.raises(ValueError, match="strength"):
        BasePotential("gaussian", bad, 1.0)
    with pytest.raises(ValueError, match="range"):
        BasePotential("gaussian", 1.0, bad)
    with pytest.raises(ScalingLawError, match="epsilon"):
        ScalingLaw(2, bad, 3)


def test_scaling_law_regime_table():
    # contact and weak contact in d=3 and d=2 are the only scaled laws; an
    # unscaled profile (p=None) is taken in either dimension
    assert SCALING_REGIMES == {(3, 3), (2, 3), (2, 2), (1, 2)}
    for p in (None, 1, 2, 3):
        for d in (2, 3):
            if p is None or (p, d) in SCALING_REGIMES:
                ScalingLaw(p, 0.1, d)
            else:
                with pytest.raises(ScalingLawError, match="not a supported regime"):
                    ScalingLaw(p, 0.1, d)
    with pytest.raises(ScalingLawError):
        ScalingLaw(2, -0.1, 3)
    with pytest.raises(ScalingLawError):
        ScalingLaw(2, 0.1, 4)


def test_epsilon_one_is_identity():
    grid = build_grid(400, 10.0, "linear")
    rep = scale_potential(GAUSS, ScalingLaw(3, 1.0, 3), grid)
    assert np.allclose(rep["profile"].values, GAUSS(grid.nodes), rtol=0, atol=0)


def test_contact_l1_epsilon_independent():
    # p = d: the L1 norm does not depend on epsilon
    grid = build_grid(2500, 30.0, "logarithmic", r_min=1e-5)
    base = l1_norm(GAUSS(grid.nodes), grid, 3)
    for eps in (0.5, 0.1, 0.02):
        rep = scale_potential(GAUSS, ScalingLaw(3, eps, 3), grid)
        assert rep["l1"] == pytest.approx(base, rel=1e-6)


def test_weak_law_l1_scales_by_epsilon():
    # square well, p=2, d=3, eps=0.5: change of variables gives eps^(d-p);
    # node sampling of the well edge is first order, hence the loose rel tol
    # (the 1e-6 exactness is covered on smooth profiles below)
    grid = build_grid(3000, 5.0, "logarithmic", r_min=1e-5)
    base = l1_norm(WELL(grid.nodes), grid, 3)
    rep = scale_potential(WELL, ScalingLaw(2, 0.5, 3), grid)
    assert rep["l1"] == pytest.approx(0.5 * base, rel=2e-2)


@pytest.mark.parametrize("p,d", [(3, 3), (2, 3), (2, 2), (1, 2)])
def test_norm_scaling_exact_all_regimes(p, d):
    grid = build_grid(2500, 30.0, "logarithmic", r_min=1e-5)
    base = l1_norm(GAUSS(grid.nodes), grid, d)
    for eps in (0.5, 0.25):
        scaled = ScaledPotential(GAUSS, ScalingLaw(p, eps, d))
        ratio = l1_norm(scaled(grid.nodes), grid, d) / base
        assert ratio == pytest.approx(eps ** (d - p), rel=1e-6)


def test_l1_matches_independent_trapezoid():
    grid = build_grid(800, 12.0, "linear")
    v = GAUSS(grid.nodes)
    assert l1_norm(v, grid, 3) == pytest.approx(trapezoid_l1_radial(v, grid.nodes, 3), rel=1e-10)


def test_rollnik_epsilon_invariant_for_weak_law_d3():
    grid = build_grid(2000, 30.0, "logarithmic", r_min=1e-5)
    vals = [
        rollnik_norm(ScaledPotential(GAUSS, ScalingLaw(2, eps, 3))(grid.nodes), grid)
        for eps in (1.0, 0.5, 0.25)
    ]
    spread = (max(vals) - min(vals)) / vals[0]
    assert spread < 1e-4


def test_rollnik_quadrature_converged():
    vals = []
    for n in (1000, 2000):
        grid = build_grid(n, 30.0, "logarithmic", r_min=1e-5)
        vals.append(rollnik_norm(GAUSS(grid.nodes), grid))
    assert abs(vals[1] - vals[0]) / vals[0] < 1e-4


def test_rollnik_square_well_analytic_value():
    # adaptive double quadrature of the reduced kernel gives 39.4784176044,
    # which is 4 pi^2 for the unit well
    grid = build_grid(4000, 1.5, "linear")
    val = rollnik_norm(WELL(grid.nodes), grid)
    assert val == pytest.approx(4.0 * np.pi**2, rel=2e-3)


ORACLE_CASES = {
    "gaussian_eps1": (GAUSS, ScalingLaw(2, 1.0, 3), build_grid(600, 30.0, "logarithmic", r_min=1e-5)),
    "gaussian_eps0.3": (GAUSS, ScalingLaw(2, 0.3, 3), build_grid(600, 30.0, "logarithmic", r_min=1e-5)),
    "square_well": (WELL, ScalingLaw(None, 1.0, 3), build_grid(800, 1.5, "linear")),
    # cut off at r_max = 3 where V r is still 0.05, so the last edge carries weight
    "exponential": (
        BasePotential("exponential", 1.3, 0.7),
        ScalingLaw(None, 1.0, 3),
        build_grid(700, 3.0, "linear"),
    ),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_rollnik_matches_cell_pair_oracle(case):
    # the edge quadratic form is the eight-term cell-pair sum summed by parts
    pot, law, grid = ORACLE_CASES[case]
    v = ScaledPotential(pot, law)(grid.nodes)
    assert rollnik_norm(v, grid) == pytest.approx(rollnik_cell_pairs(v, grid.nodes), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("strength,reach", [(1.0, 1.0), (2.5, 0.7)])
def test_rollnik_gaussian_closed_form_second_order(strength, reach):
    # Fourier: V^(k) = s pi^(3/2) a^3 exp(-a^2 k^2 / 4) and |x|^(-2) -> 2 pi^2 / |k|,
    # so the Rollnik integral of s exp(-r^2/a^2) is pi^3 s^2 a^4
    exact = np.pi**3 * strength**2 * reach**4
    pot = BasePotential("gaussian", strength, reach)
    errs = []
    for n in (1000, 2000):
        grid = build_grid(n, 30.0, "logarithmic", r_min=1e-5)
        errs.append(abs(rollnik_norm(pot(grid.nodes), grid) / exact - 1.0))
    assert errs[1] < 3e-5
    assert 3.6 < errs[0] / errs[1] < 4.4


def test_rollnik_memory_is_row_blocked():
    # ten n x n temporaries would take 1.3 GB here; the row blocks need a few MB
    grid = build_grid(4000, 1.5, "linear")
    v = WELL(grid.nodes)
    tracemalloc.start()
    try:
        rollnik_norm(v, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6


def _xlogy_terms(a, b):
    # s log s and q log q as scipy.special.xlogy forms them, 0 log 0 = 0
    s, q = np.add.outer(a, b) ** 2, np.subtract.outer(a, b) ** 2
    return xlogy(s, s), xlogy(q, q)


def _xlogy_edge_kernel(a, b):
    s_log_s, q_log_q = _xlogy_terms(a, b)
    return s_log_s + q_log_q


@pytest.mark.parametrize("rows", [1, 2, 3, 5, 128])
def test_edge_kernel_matches_xlogy(rows):
    # numpy's log and libm's differ by at most an ulp, so each entry is
    # within a few ulps of its two terms; the zeros (0 log 0 at the origin,
    # 1 log 1) are exact
    a = np.concatenate(([0.0], np.geomspace(1e-3, 7.0, rows - 1)))
    b = np.concatenate((a, np.linspace(0.5, 9.0, 11)))
    s_log_s, q_log_q = _xlogy_terms(a, b)
    k = potentials._edge_kernel(a, b)
    assert k.shape == (rows, b.size)
    assert np.all(np.abs(k - (s_log_s + q_log_q)) <= 1e-15 * (np.abs(s_log_s) + np.abs(q_log_q)))


@pytest.mark.parametrize("profile", ["gaussian", "square_well", "exponential"])
@pytest.mark.parametrize("spacing,eps", [("linear", 1.0), ("logarithmic", 1.0), ("logarithmic", 0.05)])
def test_rollnik_norm_matches_the_xlogy_kernel(profile, spacing, eps, monkeypatch):
    grid = build_grid(700, 12.0, spacing, r_min=1e-5 if spacing == "logarithmic" else None)
    v = ScaledPotential(BasePotential(profile, 1.3, 0.8), ScalingLaw(2, eps, 3))(grid.nodes)
    norm = rollnik_norm(v, grid)
    monkeypatch.setattr(potentials, "_edge_kernel", _xlogy_edge_kernel)
    assert norm == pytest.approx(rollnik_norm(v, grid), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("p,eps,d", [(3, 1e-110, 3), (2, 1e-160, 3), (3, np.float64(1e-105), 3), (1, 1e-309, 2)])
def test_overflowing_epsilon_is_refused_by_name(p, eps, d):
    # eps^(-p) once escaped ScaledPotential as a bare OverflowError (a
    # Python float) or as inf values (a numpy float)
    for make in (lambda: ScalingLaw(p, eps, d), lambda: ScalingLaw(p, 0.1, d).with_epsilon(eps)):
        with pytest.raises(ScalingLawError, match=rf"epsilon={eps:g} is too small for p={p}"):
            make()


def test_scale_potential_refuses_an_overflowing_epsilon():
    grid = build_grid(100, 10.0, "linear")
    with pytest.raises(ScalingLawError, match=r"epsilon=1e-110 is too small for p=3"):
        scale_potential(GAUSS, ScalingLaw(3, 1e-110, 3), grid)
    # the smallest decade that still fits: 1e-102 ** -3 = 1e306
    rep = scale_potential(GAUSS, ScalingLaw(3, 1e-102, 3), grid)
    assert np.isfinite(rep["l1"])


SMALL = build_grid(16, 2.0, "linear")


@pytest.mark.parametrize("norm", [l1_norm, l2_norm, rollnik_norm])
@pytest.mark.parametrize(
    "values,message",
    [
        (np.where(np.arange(16) == 3, np.nan, 1.0), "finite"),
        (np.where(np.arange(16) == 5, -np.inf, 1.0), "finite"),
        (1.0, "shape"),
        (np.ones(15), "shape"),
        (np.ones((16, 1)), "shape"),
    ],
    ids=["nan", "inf", "scalar", "short", "column"],
)
def test_norms_reject_bad_values(norm, values, message):
    with pytest.raises(ValueError, match=message):
        norm(values, SMALL)


@pytest.mark.parametrize("norm", [l1_norm, l2_norm])
@pytest.mark.parametrize("d", [0, 1, 4])
def test_norms_reject_a_dimension_other_than_2_or_3(norm, d):
    # the sphere area of d = 2 once stood in for every d != 3: l1_norm of
    # ones in d = 4 returned 982.1, with no error
    with pytest.raises(ValueError, match=f"dimension d must be 2 or 3, got {d}"):
        norm(np.ones(16), SMALL, d)


def test_rollnik_rejects_one_node_grid():
    grid = RadialGrid(np.array([0.5]), np.array([0.5]), "linear", 0.5)
    with pytest.raises(ValueError, match="at least 2 nodes"):
        rollnik_norm(np.ones(1), grid)
    assert l1_norm(np.ones(1), grid) == pytest.approx(4.0 * np.pi * 0.5 * 0.25)


def test_l2_norm_of_weak_law_scales_as_inverse_sqrt_epsilon():
    # recorded behavior: the d=3 weak law leaves L1 x eps and Rollnik
    # invariant, while the L2 norm grows like eps^(-1/2)
    grid = build_grid(3000, 30.0, "logarithmic", r_min=1e-6)
    base = l2_norm(GAUSS(grid.nodes), grid, 3)
    for eps in (0.5, 0.25):
        scaled = ScaledPotential(GAUSS, ScalingLaw(2, eps, 3))
        assert l2_norm(scaled(grid.nodes), grid, 3) / base == pytest.approx(eps**-0.5, rel=1e-6)


def test_scale_potential_rejects_bad_epsilon():
    with pytest.raises(ScalingLawError):
        ScalingLaw(2, 0.0, 3)
