#!/usr/bin/env python3
"""The zero-range limit of the two-channel resolvent on a product grid.

Assembles W_eps(z) = (H_eps + z)^(-1) - (H0 + z)^(-1) for a resonant
weak-contact family on the square product of one n-node radial grid, and
compares it with the rank-structured operator W(z) = (4 pi / sqrt(z))
(L1 L1^T + L2 L2^T), Li = R0(z) applied to the delta-line sources of
channel i, which is built from the free resolvent alone and applied as
R0(z) T R0(z), T the diagonal of line weights on the 2n - 1 nodes of the
two contact lines.  The family W_eps(z) f converges at the sqrt(eps) rate.  W(z) is not yet its
limit: its constant denominator and uncoupled channels leave a floor in the
discrepancy (ROADMAP item 4).
"""

import numpy as np

from zrange import BasePotential, build_grid
from zrange.limit_resolvent import ProductFreeResolvent, ProductGrid, convergence_study, limit_w

z = 2.0
g = build_grid(48, 160.0, "logarithmic", r_min=3e-4)
pg = ProductGrid(g, g)
gauss = BasePotential("gaussian", 1.0, 1.0)

print("=" * 72)
print("  strong convergence of W_eps(z) f to W(z) f,  z = 2")
print("=" * 72)
res = ProductFreeResolvent(pg, 1.0)
rng = np.random.default_rng(11)
fs = rng.standard_normal((3, pg.n))
for _ in range(2):
    fs = np.stack([res.apply(z, f) for f in fs])
fs /= np.linalg.norm(fs, axis=1)[:, None]
rep = convergence_study(z, gauss, [0.4, 0.2, 0.1, 0.05], pg, fs)
print(f"{'eps':>8} {'mean discrepancy':>18}")
for k, e in enumerate(rep.epsilons):
    print(f"{e:8.3f} {rep.discrepancies[k].mean():18.4e}")
print(f"  monotone: {rep.monotone}; per-function reductions {np.round(rep.reduction_factors, 2)}")

print("\n" + "=" * 72)
print("  structure of the limit operator W(z)")
print("=" * 72)
w = limit_w(z, res)
wm = w.apply(np.eye(pg.n))
sv = np.linalg.svd(wm, compute_uv=False)
rank = 2 * g.n - 1  # the line nodes; the corner is on both lines
print(f"  symmetric to {np.abs(wm - wm.T).max():.1e}; rank bound {rank} "
      f"(next singular value {sv[rank] / sv[0]:.1e} of top)")
f = rng.standard_normal(pg.n)
print(f"  positivity on a random vector: <f, W f> = {f @ w.apply(f):.4f} >= 0")
