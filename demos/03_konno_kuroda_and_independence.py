#!/usr/bin/env python3
"""Konno-Kuroda resolvent assembly and the independence mechanisms.

First verifies R(z) - R0(z) = R0 B (1 - Q)^(-1) B R0 against direct dense
inversion, then quantifies the two finite-epsilon mechanisms behind the
independence of contact, weak-contact, and regular potentials:

  * the L1 cross term  || sqrt(V1_eps) sqrt(U_eps) ||_1 -> 0,
  * the additivity defect || (sqrt(V2_eps)+sqrt(V3))^2 - V2_eps - V3 ||_1,

and the spectral discrepancy between the combined Hamiltonian and the
additively composed resolvent prediction.
"""

import numpy as np

from zrange import (
    BasePotential,
    ScalingLaw,
    additivity_defect,
    assemble_resolvent_diff,
    build_grid,
    cross_term_norm,
    direct_resolvent_diff,
    discretize_h0,
    independence_spectrum_check,
)

gauss = BasePotential("gaussian", 1.0, 1.0)
broad = BasePotential("gaussian", 1.0, 2.0)

print("=" * 72)
print("  factorized resolvent difference vs direct inversion")
print("=" * 72)
grid = build_grid(100, 12.0, "linear")
v = BasePotential("square_well", 1.0, 1.0).on_grid(grid)
h0 = discretize_h0(grid)
for z in (0.5, 1.0, 2.0):
    kk = assemble_resolvent_diff(v, z, h0)
    d = direct_resolvent_diff(v, z, h0)
    rel = np.linalg.norm(kk.matrix.entries - d.matrix.entries, 2) / np.linalg.norm(d.matrix.entries, 2)
    print(f"  z = {z:4.1f}: relative operator-norm distance {rel:.2e}")

print("\n" + "=" * 72)
print("  cross-term decay and additivity defect along eps halvings")
print("=" * 72)
logg = build_grid(1200, 30.0, "logarithmic", r_min=1e-5)
eps = [0.2, 0.1, 0.05, 0.025, 0.0125]
both = cross_term_norm(gauss, ScalingLaw(3, 1, 3), gauss, ScalingLaw(2, 1, 3), eps, logg)
regular = cross_term_norm(gauss, ScalingLaw(3, 1, 3), broad, ScalingLaw(None, 1, 3), eps, logg)
defect = additivity_defect(gauss, ScalingLaw(2, 1, 3), broad, eps, logg)
print(f"{'eps':>8} {'contact x weak':>16} {'contact x regular':>18} {'defect':>12}")
for k, e in enumerate(eps):
    print(f"{e:8.4f} {both.values[k]:16.6f} {regular.values[k]:18.6f} {defect.values[k]:12.6f}")
print(f"{'exponent':>8} {both.fitted_exponent:16.3f} {regular.fitted_exponent:18.3f} {defect.fitted_exponent:12.3f}")

print("\n" + "=" * 72)
print("  spectral independence: combined vs additively composed resolvents")
print("=" * 72)
igrid = build_grid(300, 14.0, "logarithmic", r_min=1e-3)
rep = independence_spectrum_check(
    gauss, ScalingLaw(3, 1, 3), gauss, ScalingLaw(2, 1, 3), broad, [0.4, 0.2, 0.1], 1.0, discretize_h0(igrid)
)
for e, delta in zip(rep.epsilons, rep.discrepancies):
    print(f"  eps = {e:5.2f}: max eigenvalue discrepancy {delta:.4e}")
print(f"  decreasing along the ladder: {rep.decreasing}")
