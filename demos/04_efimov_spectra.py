#!/usr/bin/env python3
"""Efimov towers, Thomas mirror, and the thresholds of the singular images.

The contact-type effective operator sqrt(-Lap) - C/r is scale invariant, so
a finite log grid shows its supercritical physics as geometric towers: the
infrared face (Efimov, states accumulating at zero) and the ultraviolet face
(Thomas, the deepest level tracking the r_min cutoff).  The thresholds C0
(positivity) and C1 (one state gained per r_min decade) are located by
bisection on the counts of one inertia spectrum per grid, and the drift
under grid refinement is reported.
"""

from zrange import build_grid, effective_operator, find_thresholds, geometric_ratio, operator_spectrum

print("=" * 72)
print("  thresholds of sqrt(-Lap) - C/r")
print("=" * 72)
reports = {}
for d in (3, 2):
    rep = find_thresholds("contact_image", d, (0.05, 2.5), n=300)
    reports[d] = rep
    print(f"  d={d}: C0 = {rep.C0:.5f}  C1 = {rep.C1:.5f}  refinement drift {rep.grid_refinement_drift:.2%}")

c = 2.0 * reports[3].C1
print("\n" + "=" * 72)
print(f"  geometric tower at C = 2 C1 = {c:.4f}, d = 3")
print("=" * 72)
grid = build_grid(1000, 1e2, "logarithmic", r_min=1e-4)
spec = operator_spectrum(effective_operator("contact_image", c, 3, grid))
neg = spec.eigenvalues[spec.eigenvalues < 0]
print("  negative eigenvalues:")
for e in neg:
    print(f"    {e:14.6e}")
geo = geometric_ratio(spec)
print(f"  geometric ratio {geo.ratio:.5f}, deviation {geo.deviation:.2%}, class {geo.classification}")

print("\n  growing r_max by 10 adds shallow states at the same ratio:")
grid10 = build_grid(1000, 1e3, "logarithmic", r_min=1e-4)
spec10 = operator_spectrum(effective_operator("contact_image", c, 3, grid10))
neg10 = spec10.eigenvalues[spec10.eigenvalues < 0]
print(f"    count {neg.size} -> {neg10.size}; shallowest now {neg10[-1]:.3e}")

print("\n  shrinking r_min by 10 deepens the lowest level by the dilation factor:")
gridm = build_grid(1000, 1e2, "logarithmic", r_min=1e-5)
specm = operator_spectrum(effective_operator("contact_image", c, 3, gridm))
negm = specm.eigenvalues[specm.eigenvalues < 0]
print(f"    deepest {neg[0]:.4e} -> {negm[0]:.4e}  (factor {negm[0] / neg[0]:.2f})")
