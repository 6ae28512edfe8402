"""Property tests of the scaling laws and the zero-energy resonance.

The paper's invariants, checked on drawn inputs.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zrange.birman_schwinger import resonance, support_radius
from zrange.grids import build_grid
from zrange.potentials import BasePotential, ScaledPotential, ScalingLaw, l1_norm, rollnik_norm

from oracles import ladder_q0

PROFILES = st.sampled_from(["gaussian", "square_well", "exponential"])
# Few, reproducible examples, and no example database left on disk.
FEW = settings(max_examples=8, deadline=None, derandomize=True, database=None)


STRENGTHS = st.floats(0.1, 10.0)
REACHES = st.floats(0.3, 3.0)
EPSILONS = st.floats(1e-3, 1e3)


def _grid(pot, n):
    return build_grid(n, support_radius(pot), "linear")


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
