"""Property tests of the scaling laws, the zero-energy resonance, the
Konno-Kuroda identity and the dilation covariance of the contact image.

The paper's invariants, checked on drawn inputs.
"""

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from zrange.birman_schwinger import resonance, support_radius
from zrange.efimov import effective_operator, operator_spectrum
from zrange.grids import GridFunction, build_grid
from zrange.konno_kuroda import assemble_resolvent_diff, direct_resolvent_diff
from zrange.operators import SingularSystemError, discretize_h0
from zrange.potentials import BasePotential, ScaledPotential, ScalingLaw, l1_norm, rollnik_norm

from oracles import ladder_q0

PROFILES = st.sampled_from(["gaussian", "square_well", "exponential"])
# Few, reproducible examples, and no example database left on disk.
FEW = settings(max_examples=8, deadline=None, derandomize=True, database=None)


STRENGTHS = st.floats(0.1, 10.0)
REACHES = st.floats(0.3, 3.0)
EPSILONS = st.floats(1e-3, 1e3)


def _grid(pot, n):
    return build_grid(n, support_radius(pot, ScalingLaw(None, 1.0, 3)), "linear")


@FEW
@given(profile=PROFILES, eps=st.floats(0.005, 1.0), n=st.integers(60, 200))
@example(profile="gaussian", eps=0.005, n=200)
def test_critical_coupling_dilation_covariant(profile, eps, n):
    # The weak-contact law eps^(-2) V(r/eps) on the grid dilated by eps gives
    # the same Q(0) up to rounding: lambda_c does not depend on eps.
    pot = BasePotential(profile, 1.0, 1.0)
    g = _grid(pot, n)
    base = resonance(ScaledPotential(pot, ScalingLaw(2, 1.0, 3)), g).coupling
    scaled = resonance(ScaledPotential(pot, ScalingLaw(2, eps, 3)), g.dilate(eps)).coupling
    assert scaled == pytest.approx(base, rel=1e-13, abs=0.0)


@FEW
@given(profile=PROFILES, c=st.floats(0.05, 20.0), reach=st.floats(0.3, 3.0), m=st.floats(0.25, 4.0))
def test_critical_coupling_inverse_linear_in_strength(profile, c, reach, m):
    pot = BasePotential(profile, 1.0, reach)
    g = _grid(pot, 120)
    base = resonance(pot, g, m).coupling
    scaled = resonance(BasePotential(profile, c, reach), g, m).coupling
    assert scaled == pytest.approx(base / c, rel=1e-12, abs=0.0)


@FEW
@given(
    profile=st.sampled_from(["gaussian", "square_well"]),
    reach=st.floats(0.25, 1.5),
    m=st.floats(0.5, 1.0),
    n=st.integers(60, 240),
)
def test_zero_energy_operator_matches_richardson_ladder(profile, reach, m, n):
    # The ladder's own error is O((kappa r)^3), so the drawn reach and mass
    # keep sqrt(m) r of order one, where it stays below 1e-10.
    pot = BasePotential(profile, 1.0, reach)
    g = _grid(pot, n)
    q0 = resonance(pot, g, m).q0
    assert q0 == pytest.approx(ladder_q0(g.nodes, g.weights, pot(g.nodes), m), rel=1e-10, abs=0.0)


def _law_invariance(norm, p, profile, strength, reach, eps, n):
    # eps^(-p) V(r/eps) sampled on the grid dilated by eps against V on the grid
    pot = BasePotential(profile, strength, reach)
    g = build_grid(n, 30.0, "logarithmic", r_min=1e-5)
    gd = g.dilate(eps)
    return norm(ScaledPotential(pot, ScalingLaw(p, eps, 3))(gd.nodes), gd), norm(pot(g.nodes), g)


@FEW
@given(profile=PROFILES, strength=STRENGTHS, reach=REACHES, eps=EPSILONS, n=st.integers(60, 400))
@example(profile="square_well", strength=1.0, reach=1.0, eps=1e-3, n=400)
@example(profile="gaussian", strength=1.0, reach=1.0, eps=1e3, n=400)
def test_weak_law_keeps_rollnik_norm(profile, strength, reach, eps, n):
    scaled, base = _law_invariance(rollnik_norm, 2, profile, strength, reach, eps, n)
    assert scaled == pytest.approx(base, rel=1e-12, abs=0.0)


@FEW
@given(profile=PROFILES, strength=STRENGTHS, reach=REACHES, eps=EPSILONS, n=st.integers(60, 400))
@example(profile="exponential", strength=1.0, reach=1.0, eps=1e-3, n=400)
def test_contact_law_keeps_l1_norm(profile, strength, reach, eps, n):
    scaled, base = _law_invariance(l1_norm, 3, profile, strength, reach, eps, n)
    assert scaled == pytest.approx(base, rel=1e-12, abs=0.0)


@FEW
@given(data=st.data(), n=st.integers(8, 60), r_max=st.floats(2.0, 20.0), z=st.floats(1e-3, 1e2))
def test_konno_kuroda_identity_holds_for_random_potentials(data, n, r_max, z):
    # R0 B (1 - Q)^(-1) B R0 against (H0 - V + z)^(-1) - R0 for a drawn V >= 0
    # on a small box; draws that put an eigenvalue of H0 - V at -z are skipped
    g = build_grid(n, r_max, "linear")
    v = GridFunction(g, data.draw(arrays(float, n, elements=st.floats(0.0, 20.0))))
    h0 = discretize_h0(g)
    try:
        kk = assemble_resolvent_diff(v, z, h0).matrix.entries
    except SingularSystemError:
        reject()
    direct = direct_resolvent_diff(v, z, h0).matrix.entries
    assert np.linalg.norm(kk - direct, 2) <= 1e-8 * np.linalg.norm(direct, 2)


@FEW
@given(d=st.sampled_from([2, 3]), c=st.floats(0.8, 3.0), s=st.floats(0.01, 100.0))
@example(d=3, c=2.0, s=0.01)  # r_max / r_min of the dilated grid reads 999999.9999999999
def test_contact_image_levels_scale_inversely_with_a_dilation(d, c, s):
    # sqrt(-Lap) - C/r is homogeneous of degree -1: on the grid dilated by s
    # the negative count is the same and every level E becomes E/s
    g = build_grid(200, 1e2, "logarithmic", r_min=1e-4)
    base = operator_spectrum(effective_operator("contact_image", c, d, g))
    dilated = operator_spectrum(effective_operator("contact_image", c, d, g.dilate(s)))
    k = base.count_negative
    assert dilated.count_negative == k > 0
    assert np.allclose(s * dilated.eigenvalues[:k], base.eigenvalues[:k], rtol=1e-9, atol=0.0)
