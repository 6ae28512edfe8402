"""Acceptance suite: one numbered end-to-end criterion per test.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion together with the measured numbers.
"""

import time

import numpy as np
import pytest
from scipy.linalg import eigh

from zrange.grids import GridFunction, build_grid
from zrange.operators import discretize_h0
from zrange.potentials import BasePotential, ScalingLaw
from zrange.birman_schwinger import (
    bs_count_above_one,
    bs_operator,
    find_resonance_coupling,
    two_resonance_matrix,
)
from zrange.konno_kuroda import (
    additivity_defect,
    assemble_resolvent_diff,
    cross_term_norm,
    direct_resolvent_diff,
    negative_count_direct,
)
from zrange.limit_resolvent import ProductFreeResolvent, ProductGrid, convergence_study
from zrange import efimov
from zrange.efimov import (
    effective_operator,
    find_thresholds,
    hyperradial_reduce,
    mass_sweep_2d,
    operator_spectrum,
)

from oracles import halving_orders, shooting_critical_coupling, successive_difference_orders

WELL = BasePotential("square_well", 1.0, 1.0)
GAUSS = BasePotential("gaussian", 1.0, 1.0)


def _line(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {status}: {detail}")
    return ok


@pytest.fixture(scope="module")
def thresholds_both_dims():
    t0 = time.time()
    reps = {d: find_thresholds("contact_image", d, (0.05, 2.5), n=300) for d in (3, 2)}
    return reps, time.time() - t0


def test_criterion_01_birman_schwinger_principle():
    t0 = time.time()
    g = build_grid(400, 12.0, "linear")
    h0 = discretize_h0(g, 3, 0.5)
    rng = np.random.default_rng(7)
    lams = rng.uniform(0.5, 10.0, 10)
    mismatches = 0
    for prof in ("square_well", "gaussian"):
        pot = BasePotential(prof, 1.0, 2.0)
        for lam in lams:
            v = GridFunction(g, lam * pot(g.nodes))
            q = bs_operator(v, 1e-8, resolvent="grid", h0=h0)
            if bs_count_above_one(q) != negative_count_direct(h0, v):
                mismatches += 1
    dt = time.time() - t0
    ok = mismatches == 0 and dt < 30.0
    assert _line(1, ok, f"BS counting exact on {2 * len(lams)} couplings, {mismatches} mismatches, {dt:.1f}s")


def test_criterion_02_konno_kuroda_identity():
    t0 = time.time()
    g = build_grid(100, 12.0, "linear")
    h0 = discretize_h0(g, 3, 0.5)
    v = GridFunction(g, WELL(g.nodes))
    worst = 0.0
    for z in (0.5, 1.0, 2.0):
        kk = assemble_resolvent_diff(v, z, h0=h0)
        direct = direct_resolvent_diff(v, z, h0=h0)
        worst = max(
            worst,
            np.linalg.norm(kk.matrix.entries - direct.matrix.entries, 2)
            / np.linalg.norm(direct.matrix.entries, 2),
        )
    dt = time.time() - t0
    ok = worst < 1e-8 and dt < 10.0
    assert _line(2, ok, f"max rel operator-norm distance {worst:.2e} (< 1e-8), {dt:.1f}s")


def test_criterion_03_critical_coupling():
    t0 = time.time()
    rep = find_resonance_coupling(WELL, ScalingLaw(None, 1.0, 3), (1.0, 5.0))
    oracle = shooting_critical_coupling(WELL, 1.0)
    exact = np.pi**2 / 4.0
    rel = abs(rep.lambda_critical - exact) / exact
    rel_oracle = abs(oracle - exact) / exact
    dt = time.time() - t0
    ok = rel < 1e-4 and rel_oracle < 1e-4 and dt < 5.0
    assert _line(
        3,
        ok,
        f"lambda_c = {rep.lambda_critical:.6f} vs pi^2/4 (rel {rel:.1e}), shooting rel {rel_oracle:.1e}, {dt:.1f}s",
    )


def test_criterion_04_cross_term_decay():
    t0 = time.time()
    grid = build_grid(1200, 30.0, "logarithmic", r_min=1e-5)
    eps = [0.2, 0.1, 0.05, 0.025, 0.0125]
    # U unscaled: the Cauchy mechanism with the regular partner, whose exact
    # limit exponent is 3/2 (the both-scaled pair carries exactly 1/2)
    rep = cross_term_norm(
        GAUSS, ScalingLaw(3, 1, 3), BasePotential("gaussian", 1.0, 2.0), ScalingLaw(None, 1, 3), eps, grid
    )
    decreasing = bool(np.all(np.diff(rep.values) < 0))
    dt = time.time() - t0
    ok = decreasing and rep.fitted_exponent >= 0.9 and dt < 10.0
    assert _line(
        4, ok, f"strictly decreasing {decreasing}, fitted exponent {rep.fitted_exponent:.3f} (>= 0.9), {dt:.1f}s"
    )


def test_criterion_05_additivity_defect():
    t0 = time.time()
    grid = build_grid(1200, 30.0, "logarithmic", r_min=1e-5)
    eps = np.array([0.2, 0.1, 0.05, 0.025, 0.0125])
    rep = additivity_defect(GAUSS, ScalingLaw(2, 1, 3), BasePotential("gaussian", 1.0, 2.0), eps, grid)
    over_eps = rep.values / eps
    bound = 2.0 * over_eps[0]
    ok_bound = bool(np.all(over_eps <= bound))
    dt = time.time() - t0
    ok = ok_bound and dt < 10.0
    assert _line(5, ok, f"defect/eps max {over_eps.max():.3f} <= 2x first {bound:.3f}: {ok_bound}, {dt:.1f}s")


def test_criterion_06_two_resonance_matrix():
    t0 = time.time()
    res = find_resonance_coupling(WELL, ScalingLaw(None, 1.0, 3), (1.0, 5.0))
    grid = build_grid(56, 30.0, "logarithmic", r_min=1e-3)
    zs = np.array([1e-8 * 4**k for k in range(4)])
    mats = two_resonance_matrix(WELL, ScalingLaw(None, 1.0, 3), res.lambda_critical, zs, grid)
    diags = np.array([abs(m.diagonal) for m in mats])
    slope = np.polyfit(np.log(zs), np.log(diags), 1)[0]
    m0 = mats[0]
    ratio = abs(m0.off_diagonal) / abs(m0.diagonal)
    dt = time.time() - t0
    ok = slope > 0.0 and ratio >= 100.0 and m0.determinant != 0.0 and dt < 20.0
    assert _line(
        6,
        ok,
        f"|diag| -> 0 with slope {slope:.2f} > 0, off/diag {ratio:.0f} (>= 100), det {m0.determinant:.2e} != 0, {dt:.1f}s",
    )


def test_criterion_07_zero_range_limit():
    t0 = time.time()
    z = 2.0
    g = build_grid(64, 160.0, "logarithmic", r_min=3e-4)
    pg = ProductGrid(g, g)
    res = ProductFreeResolvent(pg, 1.0)
    rng = np.random.default_rng(11)
    fs = rng.standard_normal((5, pg.n))
    for _ in range(2):
        fs = np.stack([res.apply(z, f) for f in fs])
    fs /= np.linalg.norm(fs, axis=1)[:, None]

    study = convergence_study(z, GAUSS, [0.4, 0.2, 0.1, 0.05, 0.025], pg, fs)
    monotone = study.monotone
    min_reduction = float(study.reduction_factors.min())

    # the finite-eps error decays like sqrt(eps): the observed order of the
    # family's own successive differences is 1/2 on every rung triplet,
    # whatever its limit.  Toward W(z) the per-halving orders and the total
    # reduction are printed only.  Pure sqrt(eps) decay gives a reduction of
    # exactly (0.4/0.025)^(1/2) = 4; the sub-leading term measured on this
    # grid is positive, so the reduction stays below 4 (3.48 toward limit_w,
    # 3.82 toward the STM-form oracle).  Whether W(z) is the limit is gated
    # by test_limit_operator_is_reached_at_the_sqrt_eps_rate.
    orders = successive_difference_orders(study.w_eps_f)
    order_dev = float(np.abs(orders - 0.5).max())
    w_orders = halving_orders(study.discrepancies)
    dt = time.time() - t0
    ok = monotone and order_dev <= 0.05 and dt < 60.0
    assert _line(
        7,
        ok,
        f"monotone {monotone}, sqrt(eps) orders {orders.min():.3f}-{orders.max():.3f} "
        f"(|p - 0.5| <= 0.05), toward W(z): orders {w_orders.min():.3f}-{w_orders.max():.3f} and "
        f"min reduction {min_reduction:.2f} (diagnostics), {dt:.0f}s",
    )


def test_criterion_08_efimov_geometric_ratio(thresholds_both_dims):
    reps, _ = thresholds_both_dims
    t0 = time.time()
    c = 2.0 * reps[3].C1
    window = slice(2, 5)  # ratios between eigenvalues 3-6 (1-indexed depths)
    ratios = {}
    for n in (1000, 2000):
        grid = build_grid(n, 1e2, "logarithmic", r_min=1e-4)
        rep = operator_spectrum(effective_operator("contact_image", c, 3, grid))
        neg = np.abs(rep.eigenvalues[rep.eigenvalues < 0.0])
        ratios[n] = (neg[1:] / neg[:-1])[window]
    n_base = rep.count_negative  # the n = 2000, r_max = 1e2 spectrum
    # one refinement extrapolation (first order in 1/n)
    extrap = 2.0 * ratios[2000] - ratios[1000]
    gm = float(np.exp(np.mean(np.log(extrap))))
    deviation = float(np.max(np.abs(extrap / gm - 1.0)))

    grid10 = build_grid(2000, 1e3, "logarithmic", r_min=1e-4)
    rep10 = operator_spectrum(effective_operator("contact_image", c, 3, grid10))
    n_10 = rep10.count_negative
    neg10 = np.abs(rep10.eigenvalues[rep10.eigenvalues < 0.0])
    new_state_ratio = neg10[-2] / neg10[-3]  # ratio feeding the added shallow level
    consistent = abs(new_state_ratio - gm) / gm < 0.10
    dt = time.time() - t0
    ok = deviation < 0.03 and n_10 >= n_base + 1 and consistent and dt < 60.0
    assert _line(
        8,
        ok,
        f"C = 2 C1 = {c:.3f}: ratio {gm:.4f}, window deviation {deviation:.3%} (< 3%), "
        f"r_max x10 count {n_base} -> {n_10}, new-state ratio {new_state_ratio:.4f}, {dt:.0f}s",
    )


def test_criterion_09_thresholds(thresholds_both_dims):
    reps, dt_fixture = thresholds_both_dims
    t0 = time.time()
    details = []
    ok = True
    for d in (3, 2):
        rep = reps[d]
        ordered = rep.C0 <= rep.C1
        stable = rep.grid_refinement_drift < 0.01
        # classification transitions: positive -> one bound state -> growing
        g = build_grid(300, 2e2, "logarithmic", r_min=1e-4)
        below = operator_spectrum(effective_operator("contact_image", 0.8 * rep.C0, d, g)).count_negative
        mid = operator_spectrum(
            effective_operator("contact_image", 0.5 * (rep.C0 + rep.C1), d, g)
        ).count_negative
        counts_above = []
        for k in range(3):
            gk = build_grid(300, 2e2, "logarithmic", r_min=1e-4 * 10.0**-k)
            counts_above.append(
                operator_spectrum(effective_operator("contact_image", 1.5 * rep.C1, d, gk)).count_negative
            )
        growing = all(counts_above[i + 1] > counts_above[i] for i in range(2))
        ok_d = ordered and stable and below == 0 and mid >= 1 and growing
        ok = ok and ok_d
        details.append(
            f"d={d}: C0={rep.C0:.4f} C1={rep.C1:.4f} drift={rep.grid_refinement_drift:.2%} "
            f"counts {below}/{mid}/{counts_above}"
        )
    dt = dt_fixture + (time.time() - t0)
    ok = ok and dt < 120.0
    assert _line(9, ok, "; ".join(details) + f", {dt:.0f}s")


def test_criterion_10_mass_sweep_2d():
    t0 = time.time()
    grid = build_grid(600, 5e2, "logarithmic", r_min=1e-4)
    rep = mass_sweep_2d([1, 2, 4, 8, 16], 1.0, grid)
    # dilation-substitution oracle at m = 8
    from zrange.operators import hyperradial_kinetic

    m = 8.0
    ev_m = rep.spectra[3].eigenvalues
    dilated = grid.dilate(m)
    ham = hyperradial_kinetic(dilated, 1.0).entries - np.diag(1.0 / dilated.nodes)
    ev_1 = np.sort(eigh(0.5 * (ham + ham.T), eigvals_only=True))
    neg_m, neg_1 = ev_m[ev_m < 0], ev_1[ev_1 < 0]
    k = min(neg_m.size, neg_1.size)
    oracle_dev = float(np.max(np.abs(neg_m[:k] - m * neg_1[:k]) / np.abs(neg_m[:k])))
    dt = time.time() - t0
    ok = (
        rep.counts_nondecreasing
        and rep.shallowest_nonincreasing
        and oracle_dev < 0.01
        and not rep.flags
        and dt < 30.0
    )
    assert _line(
        10,
        ok,
        f"counts {[int(c) for c in rep.counts]} nondecreasing {rep.counts_nondecreasing}, threshold-side |E| "
        f"nonincreasing {rep.shallowest_nonincreasing}, dilation oracle dev {oracle_dev:.2e} (< 1%), {dt:.0f}s",
    )


def test_criterion_11_hyperradial_reduction():
    t0 = time.time()
    rep = hyperradial_reduce(np.geomspace(0.01, 10.0, 12))
    dt = time.time() - t0
    ok = abs(rep["fitted_exponent"] + 1.0) <= 0.05 and rep["prefactor"] < 0.0 and dt < 10.0
    assert _line(
        11,
        ok,
        f"angular-averaged kernel exponent {rep['fitted_exponent']:.4f} (-1 +/- 0.05), "
        f"prefactor {rep['prefactor']:.3f} < 0, {dt:.1f}s",
    )


@pytest.mark.parametrize("degree", [-3, -5])
def test_criterion_11_fails_for_a_kernel_of_another_degree(degree, monkeypatch):
    # kernel22's formula times |Q|^(degree + 4): the slice average samples
    # it at |Q| = 1/r, so the profile carries r^(-degree - 5), not 1/r
    formula = efimov._kernel22_formula
    norm = lambda q1, q2: np.sqrt(np.sum(q1 * q1 + q2 * q2, axis=-1))
    monkeypatch.setattr(efimov, "_kernel22_formula", lambda q1, q2: formula(q1, q2) * norm(q1, q2) ** (degree + 4))
    rep = hyperradial_reduce(np.geomspace(0.01, 10.0, 12))
    assert abs(rep["fitted_exponent"] + 1.0) > 0.05
    assert rep["fitted_exponent"] == pytest.approx(-degree - 5, abs=1e-6)


def test_criterion_12_cli_determinism(tmp_path):
    import json

    from test_cli import CONFIGS
    from zrange.cli import main

    t0 = time.time()
    mismatched = []
    for command, cfg in sorted(CONFIGS.items()):
        outs = []
        for tag in ("a", "b"):
            d = tmp_path / f"{command}-{tag}"
            d.mkdir()
            cfg_path = d / "config.json"
            cfg_path.write_text(json.dumps(cfg))
            assert main([command, "--config", str(cfg_path), "--out", str(d)]) == 0
            outs.append((d / f"{command.replace('-', '_')}.csv").read_bytes())
        if outs[0] != outs[1]:
            mismatched.append(command)
    dt = time.time() - t0
    ok = not mismatched
    assert _line(
        12, ok, f"byte-identical CSV for all {len(CONFIGS)} commands (mismatches: {mismatched or 'none'}), {dt:.0f}s"
    )
