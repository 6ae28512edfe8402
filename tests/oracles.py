"""Independent oracles used by the test suite.

Everything here is deliberately written without the package's operator
machinery: a plain RK4 shooting integrator for the radial zero-energy
problem, the z -> 0+ Richardson ladder of the top Birman-Schwinger
eigenvalue, the whole-space s-wave Green kernels and the dense d=3
Birman-Schwinger matrix built on them, a classical Jacobi rotation
eigensolver, and brute-force quadrature helpers (the radial L1 trapezoid,
and the Rollnik integral as the eight-term cell-pair sum on dense n x n
arrays), the kinetic difference factors assembled entry by entry in a loop,
and the Mellin symbol of the contact image from the Gamma function.  The oracles stay
independent of the code paths they check.  The helpers for the zero-range
limit at the end take the package's product-grid free resolvent as given and
build the rest themselves; the four-term Konno-Kuroda split of W_eps is built
from its public applies.
"""

import numpy as np
from scipy.special import i0e, k0e, loggamma


def shoot_zero_energy(potential, coupling, r_end, n_steps=8000, two_m=1.0):
    """Integrate u'' = -2m * coupling * V(r) u from u(0)=0, u'(0)=1 by RK4.

    Returns (u(r_end), u'(r_end)).
    """
    h = r_end / n_steps
    r_nodes = np.linspace(0.0, r_end, n_steps + 1)
    v_lo = potential(r_nodes[:-1])
    v_mid = potential(r_nodes[:-1] + 0.5 * h)
    v_hi = potential(r_nodes[1:])
    u, up = 0.0, 1.0
    c = two_m * coupling
    for i in range(n_steps):
        k1u, k1p = up, -c * v_lo[i] * u
        k2u, k2p = up + 0.5 * h * k1p, -c * v_mid[i] * (u + 0.5 * h * k1u)
        k3u, k3p = up + 0.5 * h * k2p, -c * v_mid[i] * (u + 0.5 * h * k2u)
        k4u, k4p = up + h * k3p, -c * v_hi[i] * (u + h * k3u)
        u += h / 6.0 * (k1u + 2 * k2u + 2 * k3u + k4u)
        up += h / 6.0 * (k1p + 2 * k2p + 2 * k3p + k4p)
    return u, up


def shooting_critical_coupling(potential, r_end, bracket=(0.5, 10.0), two_m=1.0, iters=60):
    """Critical coupling via bisection on u'(r_end) = 0 (zero-energy matching)."""
    lo, hi = bracket
    f_lo = shoot_zero_energy(potential, lo, r_end, two_m=two_m)[1]
    f_hi = shoot_zero_energy(potential, hi, r_end, two_m=two_m)[1]
    if f_lo * f_hi > 0:
        raise ValueError("shooting bracket does not straddle the resonance")
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        f_mid = shoot_zero_energy(potential, mid, r_end, two_m=two_m)[1]
        if f_lo * f_mid <= 0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def shoot_exterior_wave(potential, coupling, r_support, two_m=1.0):
    """Zero-energy u on [0, r_support], continued as u = C + D r outside.

    Returns (C, D) of the exterior solution matched at r_support.
    """
    u, up = shoot_zero_energy(potential, coupling, r_support, two_m=two_m)
    d = up
    c = u - d * r_support
    return c, d


def ladder_q0(nodes, weights, values, m=0.5, z_min=1e-8):
    """Top zero-energy Birman-Schwinger eigenvalue by the z -> 0+ ladder.

    Assembles sqrt(w V) K_z sqrt(w V) with the d=3 reduced kernel
    K_z = 2m sinh(kappa r<) exp(-kappa r>) / kappa written out here, at
    z = z_min, 2 z_min and 4 z_min, and fits the top eigenvalues exactly on
    {1, sqrt(z), z}.  The fit leaves an error of order (kappa r)^3, kappa =
    sqrt(2 m z_min), r the reach of V: below 1e-10 relative only while
    sqrt(m) r stays of order one.
    """
    zs = z_min * np.array([1.0, 2.0, 4.0])
    lo = np.minimum.outer(nodes, nodes)
    hi = np.maximum.outer(nodes, nodes)
    b = np.sqrt(weights * values)
    n = b.size
    tops = []
    for z in zs:
        kappa = np.sqrt(2.0 * m * z)
        kern = 2.0 * m * (np.exp(-kappa * (hi - lo)) - np.exp(-kappa * (hi + lo))) / (2.0 * kappa)
        q = b[:, None] * kern * b[None, :]
        tops.append(np.linalg.eigvalsh(0.5 * (q + q.T))[n - 1])
    basis = np.column_stack([np.ones(3), np.sqrt(zs), zs])
    return float(np.linalg.solve(basis, tops)[0])


def radial_green_kernel(d, z, r, rp, m=0.5):
    """Reduced s-wave kernel of (H0 + z)^(-1) on the whole space, H0 = -(1/2m) Lap.

    d=3:  2m sinh(kappa r_<) exp(-kappa r_>) / kappa,  2m r_< at z = 0
    d=2:  2m sqrt(r r') I0(kappa r_<) K0(kappa r_>)

    with kappa = sqrt(2 m z); real z > 0 is supported, and z = 0 in d=3,
    where the kernel stays bounded (in d=2 K0 diverges).
    """
    if d not in (2, 3):
        raise ValueError("dimension must be 2 or 3")
    if not (np.isfinite(z) and (z > 0.0 or (z == 0.0 and d == 3))):
        raise ValueError("spectral parameter z must be real, finite and positive (z = 0 only in d=3)")
    if not (np.isfinite(m) and m > 0.0):
        raise ValueError(f"mass m must be finite and positive, got {m!r}")
    r = np.asarray(r, dtype=float)
    rp = np.asarray(rp, dtype=float)
    if not (np.all(np.isfinite(r) & (r > 0.0)) and np.all(np.isfinite(rp) & (rp > 0.0))):
        raise ValueError("kernel arguments must be finite, positive radii")
    kappa = np.sqrt(2.0 * m * z)
    lo = np.minimum(r, rp)
    hi = np.maximum(r, rp)
    if d == 3 and kappa == 0.0:
        val = 2.0 * m * lo
    elif d == 3:
        # sinh(k lo) e^(-k hi) = e^(-k(hi-lo)) (1 - e^(-2k lo)) / 2, the bracket through
        # expm1: no cancellation at small k lo, no overflow at large k hi
        val = 2.0 * m * np.exp(-kappa * (hi - lo)) * -np.expm1(-2.0 * kappa * lo) / (2.0 * kappa)
    else:
        # i0e(x) = e^(-x) I0(x), k0e(x) = e^x K0(x); product decays as e^(lo-hi)
        val = 2.0 * m * np.sqrt(r * rp) * i0e(kappa * lo) * k0e(kappa * hi) * np.exp(-kappa * (hi - lo))
    return val if val.ndim else float(val)


def green_kernel_matrix(grid, d, z, m=0.5):
    """Whole-space free resolvent as a weight-scaled kernel matrix on the nodes of grid."""
    r = grid.nodes
    sw = np.sqrt(grid.weights)
    return radial_green_kernel(d, z, r[:, None], r[None, :], m) * np.outer(sw, sw)


def whole_space_q(v, z, m):
    """Dense d=3 whole-space Q(z) = sqrt(V) R0(z) sqrt(V) of the grid function v, mass m.

    The reference for the closed-form bidiagonal route of resonance() and
    the two-resonance deficits; z = 0 is exact (kernel 2m min(r, r')).
    """
    sqv = np.sqrt(v.values)
    q = green_kernel_matrix(v.grid, 3, z, m) * np.outer(sqv, sqv)
    return 0.5 * (q + q.T)


def jacobi_eigenvalues(matrix, tol=1e-14, max_sweeps=100):
    """Full eigenvalues of a symmetric matrix by classical Jacobi rotations."""
    a = np.array(matrix, dtype=float)
    n = a.shape[0]
    for _ in range(max_sweeps):
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2))
        if off < tol * np.linalg.norm(a):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) < 1e-300:
                    continue
                theta = 0.5 * (a[q, q] - a[p, p]) / a[p, q]
                t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                cth = 1.0 / np.sqrt(t * t + 1.0)
                sth = t * cth
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = cth
                rot[p, q] = sth
                rot[q, p] = -sth
                a = rot.T @ a @ rot
    return np.sort(np.diag(a))


def _factor_d3(nodes: np.ndarray) -> np.ndarray:
    """Difference factor of int u'^2 dr, Dirichlet at 0 and r_max."""
    n = nodes.size
    edges = np.concatenate(([0.0], nodes))
    h = np.diff(edges)
    f = np.zeros((n + 1, n))
    f[0, 0] = 1.0 / np.sqrt(h[0])  # cell [0, r_1] with u(0) = 0
    for i in range(n - 1):
        c = 1.0 / np.sqrt(h[i + 1])
        f[i + 1, i] = -c
        f[i + 1, i + 1] = c
    # Dirichlet wall just beyond the last node, one-sided cell of width h[-1]
    f[n, n - 1] = 1.0 / np.sqrt(h[-1])
    return f


def _factor_weighted(nodes: np.ndarray, weight_fn, power: float) -> np.ndarray:
    """Difference factor of int w(r) |(u r^(-power))'|^2 dr, natural at r_min.

    power = 1/2, w = r   gives the d=2 s-wave form (u = sqrt(r) v);
    power = 3/2, w = r^3 gives the 4-d hyperradial s-wave form.
    """
    n = nodes.size
    f = np.zeros((n, n))
    scale = nodes**-power
    for i in range(n - 1):
        h = nodes[i + 1] - nodes[i]
        c = np.sqrt(weight_fn(0.5 * (nodes[i] + nodes[i + 1])) / h)
        f[i, i] = -c * scale[i]
        f[i, i + 1] = c * scale[i + 1]
    h_last = nodes[-1] - nodes[-2]
    f[n - 1, n - 1] = np.sqrt(weight_fn(nodes[-1] + 0.5 * h_last) / h_last) * scale[-1]
    return f


def trapezoid_l1_radial(values, nodes, d=3):
    """Brute-force trapezoid of the radial L1 norm, written independently."""
    area = 4.0 * np.pi if d == 3 else 2.0 * np.pi
    integrand = np.abs(values) * nodes ** (d - 1)
    total = np.trapezoid(integrand, nodes)
    total += 0.5 * nodes[0] * integrand[0]  # half cell down to r = 0
    return area * total


def _log_antideriv(t):
    # G with G'' = log|t|:  G(t) = t^2 (2 log|t| - 3) / 4, G(0) = 0.
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    nz = t != 0.0
    out[nz] = t[nz] * t[nz] * (2.0 * np.log(np.abs(t[nz])) - 3.0) / 4.0
    return out


def rollnik_cell_pairs(values, nodes):
    """Rollnik double integral in d=3 as eight dense antiderivative terms per cell pair.

    V(r) r is frozen on the cells around the nodes, and log((r+s)/|r-s|) is
    integrated exactly over every cell pair [lo_i, hi_i] x [lo_j, hi_j]; this
    builds about ten n x n arrays, so keep n modest.
    """
    r = nodes
    f = np.abs(values) * r  # V(r) * r, frozen per cell
    mid = 0.5 * (r[:-1] + r[1:])
    edges = np.concatenate(([0.0], mid, [r[-1] + 0.5 * (r[-1] - r[-2])]))
    lo, hi = edges[:-1], edges[1:]
    # exact integral of log(r+s) - log|r-s| over [lo_i,hi_i] x [lo_j,hi_j]
    plus = (
        _log_antideriv(hi[:, None] + hi[None, :])
        + _log_antideriv(lo[:, None] + lo[None, :])
        - _log_antideriv(hi[:, None] + lo[None, :])
        - _log_antideriv(lo[:, None] + hi[None, :])
    )
    minus = (
        _log_antideriv(hi[:, None] - lo[None, :])
        + _log_antideriv(lo[:, None] - hi[None, :])
        - _log_antideriv(hi[:, None] - hi[None, :])
        - _log_antideriv(lo[:, None] - lo[None, :])
    )
    quad = float(f @ (plus - minus) @ f)
    return 8.0 * np.pi**2 * quad


def contact_symbol(d, tau):
    """Phi_d(tau) = 2 |Gamma((d+1)/4 + i tau/2)|^2 / |Gamma((d-1)/4 + i tau/2)|^2.

    sqrt(-Lap) - C/r acts on r^(-(d-1)/2 + i tau) as multiplication by
    Phi_d(tau) - C; Phi_d(0) is the sharp fractional Hardy constant (Herbst,
    CMP 53 (1977) 285), and Phi_3(tau) = tau coth(pi tau / 2).
    """
    t = 0.5j * np.asarray(tau, dtype=float)
    return 2.0 * np.exp(2.0 * (loggamma((d + 1) / 4 + t).real - loggamma((d - 1) / 4 + t).real))


def halving_orders(distances):
    """Observed orders of a quantity sampled on a halving ladder.

    distances holds the quantity stacked along axis 0, one entry per rung of
    a ladder eps_0 > eps_1 = eps_0 / 2 > ...; p_k = log2(d_k / d_(k+1)), so
    a quantity decaying like eps^p gives p_k = p.  Returns an array of shape
    (n_rungs - 1, ...).
    """
    d = np.asarray(distances, dtype=float)
    return np.log2(d[:-1] / d[1:])


def successive_difference_orders(vectors):
    """Observed convergence orders of a family sampled on a halving ladder.

    vectors holds the family stacked along axis 0, one entry per rung of a
    ladder eps_0 > eps_1 = eps_0 / 2 > ...; any further axes index
    independent members (say test functions), and the last axis is the
    vector itself.  With d_k = ||v_k - v_(k+1)||, the order of rung triplet k
    is p_k = log2(d_k / d_(k+1)); a family converging like eps^p gives p_k
    -> p whatever its limit is, so the rate is checked without the limit.
    Returns an array of shape (n_rungs - 2, ...).
    """
    v = np.asarray(vectors, dtype=float)
    if v.shape[0] < 3:
        raise ValueError("need at least three rungs for one order")
    return halving_orders(np.linalg.norm(np.diff(v, axis=0), axis=-1))


def w_eps_family(z, profile, couplings, resolvent, test_functions):
    """W_eps(z) f at every rung of a ladder, shape (n_rungs, n_test, n).

    couplings maps each rung eps, in ladder order, to the coupling of the
    p = 2 weak-contact scaling of the unit-range profile (as
    calibrate_couplings returns them); every rung is assembled with the one
    shared free resolvent.
    """
    from zrange.limit_resolvent import assemble_w_eps
    from zrange.potentials import BasePotential, ScaledPotential, ScalingLaw

    family = []
    for eps, lam in couplings.items():
        v_eps = ScaledPotential(BasePotential(profile, lam, 1.0), ScalingLaw(2, eps, 3))
        w_eps = assemble_w_eps(z, v_eps, resolvent)
        family.append([w_eps.apply(f) for f in test_functions])
    return np.array(family)


def convergence_per_vector(z, potential, couplings, resolvent, test_functions):
    """convergence_study's discrepancies and W_eps f family, one vector at a time.

    Equal masses, as in w_eps_family.  W(z) = limit_w(z, resolvent), as
    convergence_study builds it, and W and every W_eps(z) are applied to
    each test function separately.  Returns (discrepancies of shape
    (n_rungs, n_test), family).
    """
    from zrange.limit_resolvent import limit_w

    family = w_eps_family(z, potential.profile, couplings, resolvent, test_functions)
    w = limit_w(z, resolvent)
    disc = np.array(
        [[np.linalg.norm(wf - w.apply(f)) / np.linalg.norm(f) for wf, f in zip(rung, test_functions)] for rung in family]
    )
    return disc, family


def line_sources(grid):
    """The reduced delta-line sources [tau_1 tau_2] as explicit one-hot columns.

    tau_1 has one column per y node, on the contact line x = 0; tau_2 one per
    x node, on y = 0.  The corner node (0, 0) carries one source of each.
    Shape (n^2, 2n) for the square grid of n-node factors, flattened in C order.
    """
    g = grid.gx
    n = g.n
    # weight-scaled amplitude of the reduced delta line at the first node
    c = 1.0 / (np.sqrt(4.0 * np.pi) * g.nodes[0] * np.sqrt(g.weights[0]))
    tau = np.zeros((n * n, 2 * n))
    tau[np.arange(n), np.arange(n)] = c  # (0, j), flattened j
    tau[np.arange(n) * n, n + np.arange(n)] = c  # (i, 0), flattened i n
    return tau


def line_source_limit_apply(z, resolvent, f):
    """(4 pi / sqrt(z)) (L1 L1^T + L2 L2^T) f, Li = R0(z) tau_i, from the line images.

    The construction limit_w is checked against: the R0 images of every
    one-hot line source are laid out, and W(z) is their Gram form.  f is one
    flattened vector or an (n, b) block of them as columns, at any mass.
    """
    lines = resolvent.apply(z, line_sources(resolvent.grid))
    return 4.0 * np.pi / np.sqrt(z) * (lines @ (lines.T @ f))


def stm_limit_apply(z, resolvent, test_functions):
    """Zero-range limit W(z) f in Skorniakov-Ter-Martirosian form.

    Equal masses (the resolvent's reduced mass 1/2).  With tau_1, tau_2
    the reduced delta sources on the contact lines x = 0 and y = 0, one
    column per node of the other coordinate, W = L Gamma^(-1) L^T with
    L = R0 [tau_1 tau_2] and

        Gamma = [[ sqrt(z + K) / 4 pi,   -tau_1^T R0 tau_2 ],
                 [ -tau_2^T R0 tau_1,    sqrt(z + K) / 4 pi ]]:

    a resonant pair at rest relative to its spectator sees sqrt(z)/4 pi, a
    moving one the spectator's kinetic energy K added to z, and the two
    channels couple through the free propagator between the lines.
    """
    if resolvent.reduced_mass != 0.5:
        raise ValueError("the STM oracle is written for equal masses")
    n = resolvent.grid.gx.n
    tau = line_sources(resolvent.grid)
    lines = resolvent.apply(z, tau)
    fiber = (resolvent.q * np.sqrt(resolvent.mu + z)) @ resolvent.q.T / (4.0 * np.pi)
    coupling = tau[:, :n].T @ lines[:, n:]
    gamma = np.block([[fiber, -coupling], [-coupling.T, fiber]])
    fs = np.atleast_2d(np.asarray(test_functions, dtype=float))
    return (lines @ np.linalg.solve(gamma, lines.T @ fs.T)).T


def four_term_w_eps_apply(w_eps, v_scaled, f, split=True):
    """W_eps(z) f in Konno-Kuroda form with the four-term split of the outer factors.

    R0 s (1 - Q)^(-1) s R0 f, with (1 - Q)^(-1) = 1 + b R_eps b and
    R_eps x = w_eps.apply(x) + R0(z) x, from public applies only:
    b = sqrt(V(x) + V(y)) and s = sqrt(V(x)) + sqrt(V(y)) on w_eps.support
    and 0 elsewhere.  split=False takes s = b, the unsplit Konno-Kuroda form
    of W_eps itself; the split differs from it by the O(eps^3) overlap
    defect.  f is one flattened vector or an (n, b) block of them as columns.
    """
    res, z = w_eps.resolvent, w_eps.z
    grid = res.grid
    v = v_scaled(grid.gx.nodes)
    on_support = np.zeros(grid.n, dtype=bool)
    on_support[w_eps.support] = True
    b = np.where(on_support, np.sqrt(v[:, None] + v[None, :]).reshape(-1), 0.0)
    s = np.where(on_support, (np.sqrt(v)[:, None] + np.sqrt(v)[None, :]).reshape(-1), 0.0) if split else b
    f = np.asarray(f, dtype=float)
    b, s = (b, s) if f.ndim == 1 else (b[:, None], s[:, None])
    u = s * res.apply(z, f)
    bu = b * u
    g = u + b * (w_eps.apply(bu) + res.apply(z, bu))
    return res.apply(z, s * g)
