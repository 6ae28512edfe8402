import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (
    convergence_per_vector,
    four_term_w_eps_apply,
    halving_orders,
    line_source_limit_apply,
    stm_limit_apply,
    successive_difference_orders,
    w_eps_family,
)
from zrange import limit_resolvent, operators
from zrange.birman_schwinger import resonance
from zrange.grids import build_grid
from zrange.operators import TridiagonalOperator, discretize_h0
from zrange.potentials import BasePotential, ScaledPotential, ScalingLaw
from zrange.limit_resolvent import (
    SUPPORT_FLOOR,
    ProductFreeResolvent,
    ProductGrid,
    assemble_w_eps,
    calibrate_couplings,
    convergence_study,
    limit_w,
)

GAUSS = BasePotential("gaussian", 1.0, 1.0)
BAD_Z = [float("nan"), float("inf"), 0.0, -1.0]


@pytest.fixture(scope="module")
def small_product():
    g = build_grid(40, 40.0, "logarithmic", r_min=1e-3)
    return ProductGrid(g, g)


@pytest.fixture(scope="module")
def resonant_setup(small_product):
    pg = small_product
    law = ScalingLaw(2, 0.05, 3)
    r = resonance(ScaledPotential(GAUSS, law), pg.gx)
    v_ref = ScaledPotential(BasePotential("gaussian", r.coupling, 1.0), law)
    res = ProductFreeResolvent(pg, 1.0)
    return pg, v_ref, res


# ---------------------------------------------------------------------------
# batched applies


def _rel(a, b) -> float:
    return float(np.abs(a - b).max() / np.abs(b).max())


def _dense_h0_z(pg, m, z):
    """a K (+) a K + z, a = (m + 1) / (2 m), K the kinetic at mass 1/2, assembled densely with np.kron."""
    a = (m + 1.0) / (2.0 * m)
    k = a * discretize_h0(pg.gx, 3, 0.5).entries
    eye = np.eye(pg.gx.n)
    return np.kron(k, eye) + np.kron(eye, k) + z * np.eye(pg.n)


def _v_sum(pg, v_scaled):
    """V(x) + V(y) on the flattened product grid."""
    v = v_scaled(pg.gx.nodes)
    return (v[:, None] + v[None, :]).reshape(-1)


def _square_grids(n_log, n_linear):
    """One square product grid per spacing: a log grid and a linear one of other size and extent."""
    return (
        ProductGrid(*[build_grid(n_log, 30.0, "logarithmic", r_min=1e-2)] * 2),
        ProductGrid(*[build_grid(n_linear, 20.0, "linear")] * 2),
    )


def test_batched_r0_apply_equals_column_applies_and_dense_kron():
    # R0(z) on a block of columns against one column at a time, and against
    # (a K (+) a K + z)^(-1) assembled densely with np.kron, at m = 2 on a
    # square log grid and a square linear one
    m, z = 2.0, 1.5
    for pg in _square_grids(20, 24):
        res = ProductFreeResolvent(pg, m)
        fs = np.random.default_rng(21).standard_normal((pg.n, 7))
        block = res.apply(z, fs)
        assert block.shape == fs.shape
        columns = np.column_stack([res.apply(z, f) for f in fs.T])
        assert _rel(block, columns) <= 1e-14
        ref = np.linalg.solve(_dense_h0_z(pg, m, z), fs)
        assert _rel(block, ref) <= 1e-12
        assert _rel(res.apply(z, fs[:, 0]), ref[:, 0]) <= 1e-12
        # a transposed (Fortran-ordered) block is the same block
        assert _rel(res.apply(z, np.ascontiguousarray(fs.T).T), block) <= 1e-15


def test_batched_w_eps_apply_equals_column_applies(resonant_setup):
    pg, v_ref, res = resonant_setup
    w_eps = assemble_w_eps(2.0, v_ref, res)
    fs = np.random.default_rng(22).standard_normal((pg.n, 5))
    block = w_eps.apply(fs)
    assert block.shape == fs.shape
    columns = np.column_stack([w_eps.apply(f) for f in fs.T])
    assert _rel(block, columns) <= 1e-14


def test_batched_limit_apply_equals_column_applies(resonant_setup):
    pg, v_ref, res = resonant_setup
    w = limit_w(2.0, res)
    fs = np.random.default_rng(23).standard_normal((pg.n, 5))
    block = w.apply(fs)
    assert block.shape == fs.shape
    assert _rel(block, np.column_stack([w.apply(f) for f in fs.T])) <= 1e-14
    assert _rel(block, w.apply(np.eye(pg.n)) @ fs) <= 1e-12


# ---------------------------------------------------------------------------
# limit_w


def test_limit_w_symmetric_and_positive(resonant_setup):
    pg, v_ref, res = resonant_setup
    w = limit_w(2.0, res)
    wm = w.apply(np.eye(pg.n))
    assert np.abs(wm - wm.T).max() < 1e-10 * np.abs(wm).max()
    rng = np.random.default_rng(1)
    for _ in range(20):
        f = rng.standard_normal(pg.n)
        assert f @ w.apply(f) >= 0.0


def test_limit_w_channel_swap_invariance(resonant_setup):
    # the particles are identical, so R0(z), W_eps(z) and W(z) each commute
    # with the transposition x <-> y of the flattened product grid, at m = 1
    # and m = 2.  Mutants this fails: a denominator
    # mu[:, None] + 1.01 mu[None, :], V(y) entering H_eps with a factor 1.01,
    # and a y = 0 line weight 1.01 times the x = 0 one
    pg, v_ref, res = resonant_setup
    n, z, eps = pg.gx.n, 1.0, 0.05

    def swap(f):
        return f.reshape(n, n, -1).transpose(1, 0, 2).reshape(f.shape)

    fs = np.random.default_rng(2).standard_normal((pg.n, 3))
    for m in (1.0, 2.0):
        res_m = ProductFreeResolvent(pg, m)
        lam = calibrate_couplings(GAUSS, [eps], res_m)[eps]
        w_eps = assemble_w_eps(z, ScaledPotential(BasePotential("gaussian", lam, 1.0), ScalingLaw(2, eps, 3)), res_m)
        for apply in (lambda f: res_m.apply(z, f), w_eps.apply, limit_w(z, res_m).apply):
            assert np.allclose(swap(apply(swap(fs))), apply(fs), rtol=1e-12, atol=1e-14)


def test_limit_w_rank_bound(resonant_setup):
    # T is supported on the 2n - 1 line nodes (the corner is on both
    # lines).  Measured on this 40 x 40 grid: sv[78] / sv[0] = 4.5e-6,
    # sv[79] / sv[0] = 1.1e-15
    pg, v_ref, res = resonant_setup
    w = limit_w(1.0, res)
    sv = np.linalg.svd(w.apply(np.eye(pg.n)), compute_uv=False)
    rank = 2 * pg.gx.n - 1
    assert sv[rank] < 1e-10 * sv[0] < sv[rank - 1]


@pytest.mark.parametrize("m", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("z", [0.5, 2.0, 8.0])
def test_limit_w_matches_line_source_oracle(m, z):
    # R0 T R0 against the Gram form of the R0 images of every one-hot line
    # source, on a square log grid and a square linear one
    for pg in _square_grids(14, 11):
        res = ProductFreeResolvent(pg, m)
        w = limit_w(z, res)
        fs = np.random.default_rng(24).standard_normal((res.grid.n, 4))
        assert _rel(w.apply(fs), line_source_limit_apply(z, res, fs)) <= 1e-12
        assert _rel(w.apply(fs[:, 1]), line_source_limit_apply(z, res, fs[:, 1])) <= 1e-12


def test_limit_w_and_one_block_apply_stay_within_eight_blocks():
    # limit_w lays out no line source or R0 image (n^2 x n each): on the
    # criterion-7 grid it and one apply to an (n^2, 5) block peak at about
    # 0.6 MB under tracemalloc, where the images took 10.5 MB
    g = build_grid(64, 160.0, "logarithmic", r_min=3e-4)
    res = ProductFreeResolvent(ProductGrid(g, g), 1.0)
    fs = np.random.default_rng(25).standard_normal((res.grid.n, 5))
    tracemalloc.start()
    try:
        limit_w(2.0, res).apply(fs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * fs.nbytes


def test_w_eps_assembly_and_one_block_apply_stay_within_five_blocks():
    # W_eps f is two Kronecker-sum solves, with no support gather or
    # scatter: on the criterion-7 grid at its last rung, the assembly and one
    # apply to an (n^2, 5) block peak at 3.8 blocks under tracemalloc, where
    # the Konno-Kuroda sandwich took 6.5
    g = build_grid(64, 160.0, "logarithmic", r_min=3e-4)
    res = ProductFreeResolvent(ProductGrid(g, g), 1.0)
    eps = 0.025
    lam = calibrate_couplings(GAUSS, [eps], res)[eps]
    v = ScaledPotential(BasePotential("gaussian", lam, 1.0), ScalingLaw(2, eps, 3))
    fs = np.random.default_rng(26).standard_normal((res.grid.n, 5))
    tracemalloc.start()
    try:
        assemble_w_eps(2.0, v, res).apply(fs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * fs.nbytes


@pytest.mark.parametrize("z", BAD_Z)
def test_limit_w_rejects_bad_z(resonant_setup, z):
    pg, v_ref, res = resonant_setup
    with pytest.raises(ValueError, match="finite and positive"):
        limit_w(z, res)


# ---------------------------------------------------------------------------
# finite-epsilon assembly


def test_four_term_split_matches_single_b_up_to_overlap_defect(resonant_setup):
    # the outer factors sqrt(V(x)) + sqrt(V(y)) versus sqrt(V(x) + V(y))
    # differ only on the overlap corner, whose contribution dies with eps;
    # unsplit, the Konno-Kuroda form is the resolvent difference itself
    pg, v_ref, res = resonant_setup
    rng = np.random.default_rng(4)
    fs = rng.standard_normal((3, pg.n))
    rels = []
    for eps in (0.2, 0.1, 0.05):
        lam = resonance(ScaledPotential(GAUSS, ScalingLaw(2, eps, 3)), pg.gx).coupling
        scaled = ScaledPotential(BasePotential("gaussian", lam, 1.0), ScalingLaw(2, eps, 3))
        w_eps = assemble_w_eps(2.0, scaled, res)
        wf = w_eps.apply(fs.T)
        assert _rel(four_term_w_eps_apply(w_eps, scaled, fs.T, split=False), wf) <= 1e-12
        split = four_term_w_eps_apply(w_eps, scaled, fs.T)
        rels.append(np.linalg.norm(wf - split, axis=0) / np.linalg.norm(wf, axis=0))
    rels = np.array(rels)
    assert np.all(rels < 0.12)
    assert np.all(np.diff(rels, axis=0) < 0.0)  # per function, each halving shrinks it
    assert np.all(rels[-1] < 2e-2)


def _reported_top(err) -> float:
    return float(re.search(r"top eigenvalue ([-+0-9.e]+)", str(err.value)).group(1))


def test_w_eps_detects_level_below_minus_z(small_product):
    # a deep potential pushes a three-body level below -z and 1 - Q loses
    # invertibility; the assembly reports it instead of returning garbage,
    # with the lowest level of H_eps, which the dense kron H_eps confirms
    pg = small_product
    z = 0.05
    deep = ScaledPotential(BasePotential("gaussian", 60.0, 1.0), ScalingLaw(2, 0.5, 3))
    with pytest.raises(ValueError, match="not invertible") as err:
        assemble_w_eps(z, deep, ProductFreeResolvent(pg, 1.0))
    assert _reported_top(err) >= 1.0
    level = float(re.search(r"lowest level ([-+0-9.e]+) of H_eps", str(err.value)).group(1))
    dense_level = np.linalg.eigvalsh(_dense_h0_z(pg, 1.0, z) - np.diag(_v_sum(pg, deep)))[0] - z
    assert level < -z
    assert level == pytest.approx(dense_level, rel=1e-9, abs=0.0)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(8, 15),
    spacing=st.sampled_from(["logarithmic", "linear"]),
    m=st.sampled_from([0.5, 1.0, 2.0]),
    z=st.floats(0.05, 5.0),
    factor=st.floats(0.5, 2.0),
)
@example(n=9, spacing="logarithmic", m=2.0, z=0.7, factor=1.0 - 1e-8)
@example(n=12, spacing="linear", m=0.5, z=0.7, factor=1.0 + 1e-8)
def test_w_eps_gate_matches_dense_kron_spectrum(n, spacing, m, z, factor):
    # on square log and linear product grids of drawn size, the coupling is
    # drawn as a factor of the crossing, where the top eigenvalue of
    # sqrt(V) (H0 + z)^(-1) sqrt(V) is 1: the assembly must raise exactly
    # when the dense kron H_eps + z has an eigenvalue <= 0, and otherwise
    # apply the dense resolvent difference
    assume(abs(factor - 1.0) > 1e-9)
    g = build_grid(n, 6.0, "logarithmic", r_min=0.05) if spacing == "logarithmic" else build_grid(n, 4.0, "linear")
    pg = ProductGrid(g, g)
    law = ScalingLaw(2, 0.5, 3)
    h0_z = _dense_h0_z(pg, m, z)
    s = np.sqrt(_v_sum(pg, ScaledPotential(GAUSS, law)))
    crossing = 1.0 / np.linalg.eigvalsh(s[:, None] * np.linalg.inv(h0_z) * s[None, :])[-1]
    v = ScaledPotential(BasePotential("gaussian", factor * crossing, 1.0), law)
    h_z = h0_z - np.diag(_v_sum(pg, v))
    spectrum = np.linalg.eigvalsh(h_z)
    res = ProductFreeResolvent(pg, m)
    if spectrum[0] <= 0.0:
        with pytest.raises(ValueError, match="not invertible"):
            assemble_w_eps(z, v, res)
        return
    w_eps = assemble_w_eps(z, v, res)
    fs = np.random.default_rng(24).standard_normal((pg.n, 3))
    ref = np.linalg.solve(h_z, fs) - np.linalg.solve(h0_z, fs)
    # both routes are backward stable, so near the crossing their difference
    # grows like the rounding unit times cond(H_eps + z)
    cond = np.abs(spectrum).max() / spectrum[0]
    assert np.linalg.norm(w_eps.apply(fs) - ref) <= 1e-10 * max(1.0, cond / 1e6) * np.linalg.norm(ref)


def _dense_q(res, z, v_scaled, pg, r0=None):
    """Independent Q = B R0(z) B on the support, symmetrized, and its pieces."""
    v_sum = _v_sum(pg, v_scaled)
    sup = np.flatnonzero(v_sum > SUPPORT_FLOOR * v_sum.max())
    b = np.sqrt(v_sum[sup])
    block = res.block(z, sup, sup) if r0 is None else r0[np.ix_(sup, sup)]
    q = block * np.outer(b, b)
    return 0.5 * (q + q.T), sup, b


def test_w_eps_gate_is_exact_across_the_level_crossing(small_product):
    # Q is linear in the coupling, so a sweep of couplings around 1 / top_q(1)
    # carries the top eigenvalue of Q through 1; the assembly must raise
    # exactly on the far side, and report the same top eigenvalue
    pg = small_product
    z, law = 0.05, ScalingLaw(2, 0.5, 3)
    res = ProductFreeResolvent(pg, 1.0)
    unit_top = np.linalg.eigvalsh(_dense_q(res, z, ScaledPotential(GAUSS, law), pg)[0])[-1]
    outcomes = set()
    for factor in (0.5, 0.999, 1.001, 2.0):
        v = ScaledPotential(BasePotential("gaussian", factor / unit_top, 1.0), law)
        top = np.linalg.eigvalsh(_dense_q(res, z, v, pg)[0])[-1]
        if abs(top - 1.0) < 1e-10:
            continue
        if top >= 1.0:
            with pytest.raises(ValueError, match="not invertible") as err:
                assemble_w_eps(z, v, res)
            assert _reported_top(err) == pytest.approx(top, abs=2e-6)
        else:
            assemble_w_eps(z, v, res)
        outcomes.add(bool(top >= 1.0))
    assert outcomes == {False, True}


def test_w_eps_matches_dense_konno_kuroda_form(resonant_setup):
    # W_eps f = R0 B (1 - Q)^(-1) B R0 f with every piece dense
    pg, v_ref, res = resonant_setup
    z = 2.0
    r0 = _dense_r0(res, z, pg)
    q, sup, b = _dense_q(res, z, v_ref, pg, r0)
    w_eps = assemble_w_eps(z, v_ref, res)
    for f in np.random.default_rng(12).standard_normal((3, pg.n)):
        g = np.linalg.solve(np.eye(sup.size) - q, b * (r0 @ f)[sup])
        ref = r0[:, sup] @ (b * g)
        assert np.linalg.norm(w_eps.apply(f) - ref) <= 1e-12 * np.linalg.norm(ref)


def test_w_eps_success_path_runs_no_support_sized_eigensolve(resonant_setup, monkeypatch):
    # the gate and the solver are one eigensolve of the channel operator
    # K - V on its two diagonals, n in size: nothing the size of the support,
    # and no dense eigh
    pg, v_ref, res = resonant_setup
    sizes = []
    pairs = TridiagonalOperator.eigenpairs

    def counted(self, shift):
        sizes.append(self.n)
        return pairs(self, shift)

    def dense(*args, **kwargs):
        raise AssertionError("dense eigh on the success path of assemble_w_eps")

    monkeypatch.setattr(TridiagonalOperator, "eigenpairs", counted)
    monkeypatch.setattr(limit_resolvent, "_eigenvalues_in_place", dense)
    monkeypatch.setattr(operators, "_tridiagonal_in_place", dense)
    monkeypatch.setattr(limit_resolvent.np.linalg, "eigvalsh", dense)
    monkeypatch.setattr(limit_resolvent.np.linalg, "eigh", dense)
    w_eps = assemble_w_eps(2.0, v_ref, res)
    assert sizes == [pg.gx.n]
    f = np.random.default_rng(13).standard_normal(pg.n)
    assert np.all(np.isfinite(w_eps.apply(f)))


def test_w_eps_success_path_builds_no_dense_block(resonant_setup, monkeypatch):
    pg, v_ref, res = resonant_setup

    def no_block(*args, **kwargs):
        raise AssertionError("dense R0 block on the success path of assemble_w_eps")

    monkeypatch.setattr(ProductFreeResolvent, "block", no_block)
    w_eps = assemble_w_eps(2.0, v_ref, res)
    f = np.random.default_rng(14).standard_normal(pg.n)
    assert np.all(np.isfinite(w_eps.apply(f)))


def test_w_eps_matches_dense_kron_resolvent_difference():
    # W_eps f = (H_eps + z)^(-1) f - (H0 + z)^(-1) f with both operators
    # assembled densely from np.kron of the kinetic matrices, on a square
    # log grid and a square linear one, at m = 2
    m, z, eps = 2.0, 1.5, 0.2
    for pg in _square_grids(20, 24):
        res = ProductFreeResolvent(pg, m)
        lam = calibrate_couplings(GAUSS, [eps], res)[eps]
        v = ScaledPotential(BasePotential("gaussian", lam, 1.0), ScalingLaw(2, eps, 3))
        w_eps = assemble_w_eps(z, v, res)
        h0_z = _dense_h0_z(pg, m, z)
        v_sum = _v_sum(pg, v)
        b_sq = np.where(v_sum > SUPPORT_FLOOR * v_sum.max(), v_sum, 0.0)
        assert 0 < w_eps.support.size < pg.n
        fs = np.random.default_rng(15).standard_normal((3, pg.n))
        ref = np.linalg.solve(h0_z - np.diag(b_sq), fs.T).T - np.linalg.solve(h0_z, fs.T).T
        for f, r in zip(fs, ref):
            assert np.linalg.norm(w_eps.apply(f) - r) <= 1e-10 * np.linalg.norm(r)


@pytest.mark.parametrize("z", BAD_Z)
def test_assemble_w_eps_rejects_bad_z(resonant_setup, z):
    pg, v_ref, res = resonant_setup
    with pytest.raises(ValueError, match="finite and positive"):
        assemble_w_eps(z, v_ref, res)


# ---------------------------------------------------------------------------
# convergence study


def test_w_annihilates_channel_orthogonal_vectors(resonant_setup):
    # f orthogonal to both channel ranges: W(z) f = 0 and the distance to
    # W_eps f is just ||W_eps f||, which is small
    pg, v_ref, res = resonant_setup
    z = 2.0
    w = limit_w(z, res)
    rng = np.random.default_rng(9)
    f = rng.standard_normal(pg.n)
    # the range of W is R0 applied to the unit vectors on the two contact lines
    n = pg.gx.n
    on_lines = np.union1d(np.arange(n), np.arange(n) * n)  # (0, j) and (i, 0)
    units = np.zeros((pg.n, on_lines.size))
    units[on_lines, np.arange(on_lines.size)] = 1.0
    basis = res.apply(z, units)
    q, _ = np.linalg.qr(basis)
    f -= q @ (q.T @ f)
    assert np.linalg.norm(w.apply(f)) < 1e-10 * np.linalg.norm(f)
    w_eps = assemble_w_eps(z, v_ref, res)
    assert np.linalg.norm(w_eps.apply(f)) < 0.05 * np.linalg.norm(f)


def _smoothed_tests(res, z, count):
    fs = np.random.default_rng(11).standard_normal((count, res.grid.n))
    fs = np.stack([res.apply(z, res.apply(z, f)) for f in fs])
    return fs / np.linalg.norm(fs, axis=1)[:, None]


@pytest.mark.slow
def test_convergence_study_monotone(small_product):
    pg = small_product
    z = 2.0
    res = ProductFreeResolvent(pg, 1.0)
    fs = _smoothed_tests(res, z, 2)
    rep = convergence_study(z, GAUSS, [0.2, 0.1, 0.05], pg, fs)
    assert rep.monotone
    assert np.all(rep.reduction_factors > 1.5)


def test_convergence_study_is_not_monotone_once_the_well_sits_inside_the_first_node():
    # from eps = 0.00625 on, the scaled gaussian (cut at 5.8 eps) lies inside
    # the first node, 5e-2: only that node carries the well to rounding, and
    # calibration to resonance fixes its depth, so W_eps(z) f stops changing
    # and the discrepancies stop falling.  Measured: the last three rows
    # agree to 10 decimal places and the last two are equal
    g = build_grid(24, 40.0, "logarithmic", r_min=5e-2)
    pg = ProductGrid(g, g)
    z = 2.0
    fs = _smoothed_tests(ProductFreeResolvent(pg, 1.0), z, 2)
    rep = convergence_study(z, GAUSS, [0.1 / 2**k for k in range(6)], pg, fs)
    assert np.array_equal(rep.w_eps_f[-1], rep.w_eps_f[-2])
    assert np.all(np.diff(rep.discrepancies[:3], axis=0) < 0.0)
    assert not rep.monotone


def test_convergence_study_matches_per_vector_reference(small_product):
    # the batched study (one W apply, one W_eps apply per rung) against a
    # loop that applies W and W_eps to one test function at a time
    pg = small_product
    z, ladder = 2.0, [0.2, 0.1, 0.05]
    res = ProductFreeResolvent(pg, 1.0)
    fs = _smoothed_tests(res, z, 3)
    rep = convergence_study(z, GAUSS, ladder, pg, fs)
    disc, family = convergence_per_vector(z, GAUSS, rep.couplings, res, fs)
    assert _rel(rep.w_eps_f, family) <= 1e-12
    assert np.allclose(rep.discrepancies, disc, rtol=1e-12, atol=0.0)


def test_sqrt_eps_order_rejects_detuned_ladder(small_product):
    # the observed order of W_eps f is 1/2 when every rung sits on the
    # two-body resonance (measured 0.498-0.499); 10 % below it the order
    # falls to 0.043-0.044, and the rate check of criterion 7 must reject it
    pg = small_product
    z = 2.0
    ladder = [0.2, 0.1, 0.05]
    res = ProductFreeResolvent(pg, 1.0)
    fs = _smoothed_tests(res, z, 2)
    couplings = calibrate_couplings(GAUSS, ladder, res)

    def orders(scale):
        scaled = {eps: scale * lam for eps, lam in couplings.items()}
        return successive_difference_orders(w_eps_family(z, "gaussian", scaled, res, fs))

    assert np.all(np.abs(orders(1.0) - 0.5) <= 0.05)
    assert np.all(np.abs(orders(0.9) - 0.5) > 0.3)


@pytest.fixture(scope="module")
def fine_ladder():
    # r_min far below the smallest rung, so every rung's well stays resolved
    g = build_grid(48, 40.0, "logarithmic", r_min=1e-5)
    pg = ProductGrid(g, g)
    z = 2.0
    ladder = [0.2, 0.1, 0.05, 0.025, 0.0125]
    res = ProductFreeResolvent(pg, 1.0)
    fs = _smoothed_tests(res, z, 2)
    couplings = calibrate_couplings(GAUSS, ladder, res)
    return z, ladder, res, fs, w_eps_family(z, "gaussian", couplings, res, fs)


@pytest.mark.parametrize("operator", ["stm_oracle", "limit_w"])
def test_limit_operator_is_reached_at_the_sqrt_eps_rate(fine_ladder, operator):
    # the finite-eps error decays like sqrt(eps), so if W(z) is the eps -> 0
    # limit, ||W_eps f - W f|| has every per-halving order within 0.05 of
    # 1/2.  A fixed error in W(z) shows as a floor: the orders fall away.
    # Measured: STM-form oracle 0.483-0.497; limit_w 0.363-0.469, its
    # constant sqrt(z)/(4 pi) denominator and uncoupled channels leave a
    # floor (red until limit_w changes, see ROADMAP item 4).
    z, ladder, res, fs, family = fine_ladder
    if operator == "stm_oracle":
        wf = stm_limit_apply(z, res, fs)
    else:
        w = limit_w(z, res)
        wf = np.stack([w.apply(f) for f in fs])
    orders = halving_orders(np.linalg.norm(family - wf[None], axis=-1))
    assert np.all(np.abs(orders - 0.5) <= 0.05), orders


@pytest.mark.parametrize(
    "z, ladder",
    [(z, [0.2, 0.1]) for z in BAD_Z]
    + [(2.0, rungs) for rungs in ([0.2, float("nan")], [float("inf"), 0.2], [1.5, 0.2], [0.2, 0.0], [0.2, -0.1], [])],
)
def test_convergence_study_rejects_bad_z_and_rungs(small_product, z, ladder):
    pg = small_product
    fs = np.ones((1, pg.n))
    with pytest.raises(ValueError, match="finite and positive|epsilon ladder"):
        convergence_study(z, GAUSS, ladder, pg, fs)


@pytest.mark.parametrize("defect", ["nan", "inf", "zero_norm", "short", "long"])
def test_convergence_study_rejects_bad_test_functions(small_product, defect):
    pg = small_product
    fs = np.ones((2, pg.n))
    if defect == "nan":
        fs[1, 3], match = np.nan, "finite"
    elif defect == "inf":
        fs[0, 0], match = -np.inf, "finite"
    elif defect == "zero_norm":
        fs[1], match = 0.0, "nonzero norm"
    elif defect == "short":
        fs, match = fs[:, :-1], "length"
    else:
        fs, match = np.ones(pg.n + 1), "length"
    with pytest.raises(ValueError, match=match):
        convergence_study(2.0, GAUSS, [0.2, 0.1], pg, fs)


def test_convergence_study_independent_of_profile_strength():
    # every rung is recalibrated to the two-body resonance, so the profile's
    # own strength drops out: both studies assemble the same potentials
    g = build_grid(16, 40.0, "logarithmic", r_min=1e-3)
    pg = ProductGrid(g, g)
    fs = np.ones((1, pg.n))
    unit = convergence_study(2.0, GAUSS, [0.2, 0.1], pg, fs)
    double = convergence_study(2.0, BasePotential("gaussian", 2.0, 1.0), [0.2, 0.1], pg, fs)
    assert double.couplings == pytest.approx(unit.couplings, rel=1e-10)
    assert np.allclose(double.discrepancies, unit.discrepancies, rtol=1e-8, atol=0.0)


def _dense_r0(res, z, pg):
    d = 1.0 / res.denom(z)
    m = np.kron(res.q, res.q)
    return (m * d.reshape(-1)[None, :]) @ m.T


def test_successive_difference_orders_recover_synthetic_rates():
    eps = 0.4 / 2.0 ** np.arange(5)
    limit = np.array([1.0, -2.0, 3.0])
    for p in (0.5, 1.0, 2.0):
        family = np.stack([limit + e**p * np.array([0.5, 1.0, -1.0]) for e in eps])
        assert np.allclose(successive_difference_orders(family), p, atol=1e-12)
    # a second term of higher order shows in the early triplets only
    family = np.stack([limit + np.sqrt(e) + 4.0 * e for e in eps])[:, None, :]
    orders = successive_difference_orders(family)
    assert orders.shape == (3, 1)
    assert np.all(np.diff(np.abs(orders[:, 0] - 0.5)) < 0.0)
    with pytest.raises(ValueError, match="three rungs"):
        successive_difference_orders(family[:2])
    # distances to the limit itself give the same order, one per halving
    assert np.allclose(halving_orders(np.sqrt(eps)[:, None] * [1.0, 3.0]), 0.5, atol=1e-12)


def test_convergence_study_solves_one_resonance_per_rung(small_product, monkeypatch):
    # calibrate_couplings solves one critical coupling per rung, and W(z) needs none
    calls = []
    solve = limit_resolvent._critical_coupling
    monkeypatch.setattr(limit_resolvent, "_critical_coupling", lambda *args: calls.append(args) or solve(*args))
    ladder = [0.2, 0.1, 0.05]
    convergence_study(2.0, GAUSS, ladder, small_product, np.ones((1, small_product.n)))
    assert len(calls) == len(ladder)


def test_convergence_study_solves_with_one_r0_image_of_the_block(small_product, monkeypatch):
    # R0(z) f is solved once for the block of test functions: W(z) adds one
    # R0 solve and each rung one solve of H_eps + z, 2 + len(eps) in all,
    # where applying W and every W_eps to the block on its own takes 2 + 2 len(eps)
    shapes = []
    solve = limit_resolvent._kronecker_sum_solve
    monkeypatch.setattr(limit_resolvent, "_kronecker_sum_solve", lambda *a: shapes.append(a[2].shape) or solve(*a))
    ladder = [0.2, 0.1, 0.05]
    fs = np.random.default_rng(27).standard_normal((3, small_product.n))
    convergence_study(2.0, GAUSS, ladder, small_product, fs)
    assert shapes == [(small_product.n, 3)] * (2 + len(ladder))


def test_convergence_study_runs_on_a_two_node_support():
    # rung 0.4 of this ladder covers two nodes of the 24-node grid, where
    # scipy's f2py dgttrf refused ("unexpected array size"); at 0.025 the
    # gaussian underflows on every node, a separate, named ValueError
    g = build_grid(24, 20.0, "linear")
    v = ScaledPotential(GAUSS, ScalingLaw(2, 0.4, 3))(g.nodes)
    assert np.sum(v > SUPPORT_FLOOR * v.max()) == 2
    pg = ProductGrid(g, g)
    fs = np.random.default_rng(24).standard_normal((2, pg.n))
    rep = convergence_study(2.0, GAUSS, [0.4, 0.2, 0.1], pg, fs)
    assert rep.discrepancies.shape == (3, 2) and np.all(np.isfinite(rep.discrepancies))
    assert all(np.isfinite(c) and c > 0.0 for c in rep.couplings.values())


@pytest.mark.parametrize("log_grid", [False, True])
def test_calibrated_couplings_are_the_resonance_couplings_bit_for_bit(log_grid):
    # calibrate_couplings stops at the singular values; resonance() goes on
    # to the vector and the profile.  On the 24-node linear grid rung 0.4
    # covers two nodes, the smallest support with an inverse iteration
    g = build_grid(64, 20.0, "logarithmic", r_min=1e-3) if log_grid else build_grid(24, 20.0, "linear")
    ladder = [0.4, 0.2, 0.1, 0.05, 0.025] if log_grid else [0.4, 0.2, 0.1]
    pot = BasePotential("gaussian", 1.3, 1.0)
    res = ProductFreeResolvent(ProductGrid(g, g), 1.0)
    got = calibrate_couplings(pot, ladder, res)
    want = [resonance(ScaledPotential(pot, ScalingLaw(2, eps, 3)), g, res.reduced_mass).coupling * 1.3 for eps in ladder]
    assert np.array_equal(list(got.values()), want)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_calibrate_couplings_names_a_non_finite_potential(small_product, bad, monkeypatch):
    # one bad sample of the scaled well, which GridFunction accepts
    sample = ScaledPotential.__call__

    def poisoned(self, r):
        v = sample(self, r)
        v[0] = bad
        return v

    monkeypatch.setattr(ScaledPotential, "__call__", poisoned)
    with pytest.raises(ValueError, match="potential V has non-finite values"):
        calibrate_couplings(GAUSS, [0.2], ProductFreeResolvent(small_product, 1.0))


@pytest.mark.parametrize("m", [0.0, -1.0, -0.5, -3.0, float("nan"), float("inf")])
def test_bad_mass_rejected_where_it_enters(small_product, m):
    # at m = -3 both a = (m + 1) / (2 m) and m / (m + 1) are positive, so only
    # the entry check stops it
    entries = (
        lambda: ProductFreeResolvent(small_product, m),
        lambda: resonance(GAUSS, small_product.gx, m),
    )
    for entry in entries:
        with pytest.raises(ValueError, match="mass m must be finite and positive"):
            entry()


def test_calibrated_couplings_stable_in_epsilon(small_product):
    pg = small_product
    cpl = calibrate_couplings(GAUSS, [0.2, 0.1], ProductFreeResolvent(pg, 1.0))
    assert cpl[0.2] == pytest.approx(cpl[0.1], rel=5e-3)


def test_convergence_study_rejects_a_y_factor_unlike_its_x_factor():
    # the rungs are calibrated on gx alone: on these 32-node log grids with
    # r_min 1e-4 and 1e-3 the y channel sat 1.29 % off its resonance, and
    # the study still reported monotone.  The product grid refuses them
    gx = build_grid(32, 40.0, "logarithmic", r_min=1e-4)
    gy = build_grid(32, 40.0, "logarithmic", r_min=1e-3)
    fs = np.ones((1, gx.n * gy.n))
    with pytest.raises(ValueError, match="y factor must equal its x factor"):
        ProductGrid(gx, gy)
    with pytest.raises(ValueError, match="y factor must equal its x factor"):
        convergence_study(2.0, GAUSS, [0.2, 0.1, 0.05], ProductGrid(gx, gy), fs)
    # an equal copy of gx is accepted
    copy = build_grid(32, 40.0, "logarithmic", r_min=1e-4)
    assert convergence_study(2.0, GAUSS, [0.2, 0.1], ProductGrid(gx, copy), fs).monotone


MASS_LAW_GRID = build_grid(24, 40.0, "logarithmic", r_min=1e-4)


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(m=st.floats(0.05, 5.0), z=st.floats(0.3, 8.0), eps=st.sampled_from([0.2, 0.1]))
@example(m=2.0, z=0.3, eps=0.2)
@example(m=0.5, z=2.0, eps=0.2)
@example(m=0.05, z=8.0, eps=0.1)
@example(m=5.0, z=2.0, eps=0.1)
def test_mass_is_a_dilation_of_z_on_the_product_grid(m, z, eps):
    # a K (+) a K + z = a (K (+) K + z / a), a = (m + 1) / (2 m), and the
    # channel resonance scales with a: so at calibrated couplings W_eps at
    # mass m is the equal-mass W_eps at z / a, divided by a.  Measured on
    # this 24^2 grid at m in {2, 0.5, 0.05, 5}, z in {0.3, 2, 8}, eps in
    # {0.2, 0.1}: 1.1e-15 on the couplings and 2.9e-13 relative on W_eps f
    pg = ProductGrid(MASS_LAW_GRID, MASS_LAW_GRID)
    a = (m + 1.0) / (2.0 * m)
    res_m, res_1 = ProductFreeResolvent(pg, m), ProductFreeResolvent(pg, 1.0)
    lam_m = calibrate_couplings(GAUSS, [eps], res_m)[eps]
    lam_1 = calibrate_couplings(GAUSS, [eps], res_1)[eps]
    assert abs(lam_m - a * lam_1) <= 1e-12 * lam_m
    law = ScalingLaw(2, eps, 3)
    fs = np.random.default_rng(27).standard_normal((pg.n, 2))
    w_m = assemble_w_eps(z, ScaledPotential(BasePotential("gaussian", lam_m, 1.0), law), res_m).apply(fs)
    w_1 = assemble_w_eps(z / a, ScaledPotential(BasePotential("gaussian", lam_1, 1.0), law), res_1).apply(fs) / a
    assert np.linalg.norm(w_m - w_1) <= 1e-10 * np.linalg.norm(w_1)
