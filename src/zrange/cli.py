"""Command-line driver: every study as a reproducible batch command.

    zrange <command> --config cfg.json [--out DIR] [--grid-n N] [--rmax X]

Configuration is a single JSON object; command-line flags override the
corresponding config fields.  Each run writes one CSV (a row per parameter
point) and one JSON summary (config echo, aggregate metrics, toolkit
version).  Invalid configuration exits nonzero with the offending field
named; numerical flags (non-convergence, poles) are reported through the
row status and exit zero.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .birman_schwinger import find_resonance_coupling
from .efimov import (
    KINDS,
    _require_scale_bracketing,
    effective_operator,
    find_thresholds,
    geometric_ratio,
    kernel22,
    mass_sweep_2d,
    operator_spectrum,
)
from .grids import MIN_GRID_NODES, build_grid
from .konno_kuroda import (
    additivity_defect,
    assemble_resolvent_diff,
    cross_term_norm,
    direct_resolvent_diff,
    independence_spectrum_check,
)
from .limit_resolvent import ProductFreeResolvent, ProductGrid, convergence_study
from .operators import discretize_h0
from .potentials import BasePotential, ScaledPotential, ScalingLaw, l1_norm, scale_potential
from .reports import ReportRow, write_report


class ConfigError(ValueError):
    def __init__(self, field: str, message: str):
        super().__init__(f"config error at {field}: {message}")
        self.field = field


def _get(cfg: dict, path: str, default=None, required: bool = False):
    node = cfg
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            if required:
                raise ConfigError(path, "missing required field")
            return default
        node = node[part]
    return node


def _as_number(raw, field: str) -> float:
    """raw as a float if it is a finite JSON number (not a bool, NaN or inf), else ConfigError(field)."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float)) or not np.isfinite(raw):
        raise ConfigError(field, f"must be a finite number, got {raw!r}")
    return float(raw)


def _as_integer(raw, field: str, minimum: int) -> int:
    """raw if it is a JSON integer (not a bool) of at least minimum, else ConfigError(field)."""
    if type(raw) is not int or raw < minimum:
        raise ConfigError(field, f"must be an integer >= {minimum}, got {raw!r}")
    return raw


def _number(cfg: dict, path: str, default) -> float:
    """The number at path (required when default is None)."""
    return _as_number(_get(cfg, path, default, required=default is None), path)


def _integer(cfg: dict, path: str, default, minimum: int) -> int:
    """The integer of at least minimum at path (required when default is None)."""
    return _as_integer(_get(cfg, path, default, required=default is None), path, minimum)


def _numbers(cfg: dict, path: str, default, length: int | None = None) -> list:
    """The list of numbers at path (required when default is None), exactly length of them if given."""
    raw = _get(cfg, path, default, required=default is None)
    if not isinstance(raw, (list, tuple)) or length not in (None, len(raw)):
        raise ConfigError(path, f"must be a list of {length or 'any number of'} numbers, got {raw!r}")
    return [_as_number(v, path) for v in raw]


def _mass(cfg: dict, default: float) -> float:
    m = _number(cfg, "mass", default)
    if m <= 0.0:
        raise ConfigError("mass", f"must be positive, got {m!r}")
    return m


def _potential(cfg: dict, key: str = "potential") -> BasePotential:
    _get(cfg, key, required=True)  # a missing block is named before its profile
    profile = _get(cfg, f"{key}.profile", required=True)
    strength = _number(cfg, f"{key}.strength", 1.0)
    range_ = _number(cfg, f"{key}.range", 1.0)
    try:
        return BasePotential(profile, strength, range_)
    except (TypeError, ValueError) as exc:
        raise ConfigError(key, str(exc)) from None


def _law(cfg: dict, key: str = "law", required: bool = True) -> ScalingLaw:
    block = _get(cfg, key, required=required)
    if block is None:
        return ScalingLaw(None, 1.0, 3)
    if not isinstance(block, dict):
        raise ConfigError(key, f"must be an object, got {block!r}")
    p = None if block.get("p") is None else _integer(cfg, f"{key}.p", None, 1)
    d = _integer(cfg, f"{key}.d", 3, 2)
    epsilon = _number(cfg, f"{key}.epsilon", 1.0)
    try:
        return ScalingLaw(p, epsilon, d)
    except ValueError as exc:
        raise ConfigError(key, str(exc)) from None


def _physical_memory() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _require_fits(n_floats: int, field: str, what: str):
    """Reject field, before anything is allocated, if n_floats float64 values exceed physical memory."""
    memory = _physical_memory()
    if 8 * n_floats > memory:
        raise ConfigError(field, f"{what} needs more than the {memory / 2**30:.3g} GiB of memory")


# floats a dense run's peak resident memory holds beyond its n^2 term on the smallest grids, where the
# memory the allocator keeps dominates: 0.52 MB for efimov and 0.57 MB for thresholds, at n = 120 ... 300
RESIDENT_FLOATS = 2**17


def _grid(cfg: dict, copies: float = 0, per_node: int = 0, fixed: int = 0):
    """The config's grid, once fixed floats and copies dense n x n matrices, or per_node floats per node, are
    known to fit."""
    n = _integer(cfg, "grid.n", None, MIN_GRID_NODES)
    r_max = _number(cfg, "grid.r_max", None)
    spacing = _get(cfg, "grid.spacing", "logarithmic")
    r_min = None if _get(cfg, "grid.r_min") is None else _number(cfg, "grid.r_min", None)
    what = f"a run on {n} nodes" if per_node else f"{copies:g} x a dense {n} x {n} matrix"
    _require_fits(fixed + copies * n**2 + per_node * n, "grid.n", what)
    try:
        return build_grid(n, r_max, spacing, r_min)
    except (TypeError, ValueError) as exc:
        raise ConfigError("grid", str(exc)) from None


def _effective_grid(cfg: dict, **probe):
    """The config's grid, once it fits (probe as for _grid) and the effective operators accept it
    (logarithmic, scale-bracketing)."""
    grid = _grid(cfg, **probe)
    try:
        _require_scale_bracketing(grid)
    except ValueError as exc:
        raise ConfigError("grid" if grid.spacing == "logarithmic" else "grid.spacing", str(exc)) from None
    return grid


def _defect_rows(rep, metrics) -> list:
    """One row per epsilon of a DefectReport, flagged where its quadrature did not converge."""
    return [
        ReportRow(
            {"epsilon": e, **metrics(e, val)}, "flagged" if any(f"@eps={e:g}" in fl for fl in rep.flags) else "ok"
        )
        for e, val in zip(rep.epsilons, rep.values)
    ]


# ---------------------------------------------------------------------------
# command implementations: each returns (columns, rows, aggregates)


def _run_scale_norms(cfg):
    pot = _potential(cfg)
    law = _law(cfg)
    # tracemalloc peak over n = 100 ... 32000: 135-203 floats per node, the most at n = 100 (Rollnik row blocks)
    grid = _grid(cfg, per_node=225)
    eps_sweep = _numbers(cfg, "sweep", [law.epsilon])
    d = law.d
    base = pot(grid.nodes)
    base_l1 = l1_norm(base, grid, d)
    rows = []
    for eps in eps_sweep:
        rep = scale_potential(pot, law.with_epsilon(eps), grid)
        values = {"epsilon": eps, "l1": rep["l1"], "l2": rep["l2"], "rollnik": rep["rollnik"]}
        rows.append(ReportRow({**values, "l1_ratio": rep["l1"] / base_l1}))
    cols = ["epsilon", "l1", "l2", "rollnik", "l1_ratio"]
    return cols, rows, {"d": d, "p": law.p, "base_l1": base_l1}


def _run_resonance(cfg):
    pot = _potential(cfg)
    law = _law(cfg, required=False)
    bracket = tuple(_numbers(cfg, "bracket", (0.1, 50.0), length=2))
    n = _integer(cfg, "grid.n", 800, MIN_GRID_NODES)
    # tracemalloc peak of a first run over n = 800 ... 16000: 29.3-34.8 floats per node (the most at
    # 800), 24 of them dstebz's bisection arrays, whose 10 integers per node are 64-bit; below that
    # a fixed 0.15 MB of the 600-node profile grid dominates
    _require_fits(40 * n, "grid.n", f"a resonance run on {n} nodes")
    rep = find_resonance_coupling(pot, law, bracket, n=n, m=_mass(cfg, 0.5))
    row = ReportRow(
        {
            "profile": pot.profile,
            "epsilon": law.epsilon,
            "lambda_critical": rep.lambda_critical,
            "bs_top_eigenvalue": rep.bs_top_eigenvalue,
            "boundary_C": rep.boundary_C,
            "boundary_D": rep.boundary_D,
            "fit_residual": rep.fit_residual,
        },
        status="flagged" if rep.flags else "ok",
    )
    cols = ["profile", "epsilon", "lambda_critical", "bs_top_eigenvalue", "boundary_C", "boundary_D", "fit_residual"]
    return cols, [row], {"flags": rep.flags}


def _run_kk_verify(cfg):
    pot = _potential(cfg)
    law = _law(cfg, required=False)
    # tracemalloc peak over n = 80 ... 320: 10.0-10.7 n^2 floats
    grid = _grid(cfg, 12)
    z_sweep = _numbers(cfg, "sweep", [0.5, 1.0, 2.0])
    v = ScaledPotential(pot, law).on_grid(grid)
    h0 = discretize_h0(grid, law.d, _mass(cfg, 0.5))
    rows = []
    worst = 0.0
    for z in z_sweep:
        kk = assemble_resolvent_diff(v, z, h0)
        direct = direct_resolvent_diff(v, z, h0)
        dist = float(
            np.linalg.norm(kk.matrix.entries - direct.matrix.entries, 2)
            / np.linalg.norm(direct.matrix.entries, 2)
        )
        worst = max(worst, dist)
        rows.append(ReportRow({"z": z, "rel_distance": dist, "smallest_one_minus_q": kk.smallest_one_minus_q}))
    cols = ["z", "rel_distance", "smallest_one_minus_q"]
    return cols, rows, {"max_rel_distance": worst}


def _run_cross_term(cfg):
    v1 = _potential(cfg, "potential")
    law1 = _law(cfg, "law")
    u = _potential(cfg, "u_potential") if _get(cfg, "u_potential") else v1
    law_u = _law(cfg, "u_law", required=False)
    # tracemalloc peak over n = 2000 ... 32000: 14.0-16.2 floats per node, as for additivity
    grid = _grid(cfg, per_node=20)
    eps = _numbers(cfg, "sweep", [0.2, 0.1, 0.05, 0.025, 0.0125])
    rep = cross_term_norm(v1, law1, u, law_u, eps, grid)
    rows = _defect_rows(rep, lambda e, val: {"l1_cross": val})
    return ["epsilon", "l1_cross"], rows, {"fitted_exponent": rep.fitted_exponent}


def _run_additivity(cfg):
    v2 = _potential(cfg, "potential")
    law2 = _law(cfg, "law")
    v3 = _potential(cfg, "v3_potential") if _get(cfg, "v3_potential") else BasePotential("gaussian", 1.0, 2.0)
    grid = _grid(cfg, per_node=20)
    eps = _numbers(cfg, "sweep", [0.2, 0.1, 0.05, 0.025, 0.0125])
    rep = additivity_defect(v2, law2, v3, eps, grid)
    rows = _defect_rows(rep, lambda e, val: {"defect": val, "defect_over_eps": val / e})
    return ["epsilon", "defect", "defect_over_eps"], rows, {"fitted_exponent": rep.fitted_exponent}


def _run_independence(cfg):
    # tracemalloc peak over n = 100 ... 300: 4.0-4.4 n^2 floats
    grid = _grid(cfg, 7)
    v1 = _potential(cfg, "potential") if _get(cfg, "potential") else None
    law1 = _law(cfg, "law", required=False) if v1 else None
    v2 = _potential(cfg, "v2_potential") if _get(cfg, "v2_potential") else None
    law2 = _law(cfg, "v2_law", required=False) if v2 else None
    v3 = _potential(cfg, "v3_potential") if _get(cfg, "v3_potential") else None
    eps = _numbers(cfg, "sweep", [0.4, 0.2, 0.1])
    z = _number(cfg, "z", 1.0)
    rep = independence_spectrum_check(v1, law1, v2, law2, v3, eps, z, discretize_h0(grid))
    rows = [ReportRow({"epsilon": e, "delta": d}) for e, d in zip(rep.epsilons, rep.discrepancies)]
    return ["epsilon", "delta"], rows, {"decreasing": rep.decreasing, "z": z}


def _run_limit_resolvent(cfg):
    n_test = _integer(cfg, "n_test_functions", 5, 1)
    # tracemalloc over n = 32 ... 64: the eigenbases, line weights, potentials and
    # support take 7.5-13 n^2 floats (the most at n = 32), and each test function
    # 5-6 n^2 plus 1-1.3 n^2 per rung; the peak is 0.67-0.88 of the second request
    grid = _grid(cfg, 11)
    n = grid.n
    pg = ProductGrid(grid, grid)
    pot = _potential(cfg)
    m = _mass(cfg, 1.0)
    z = _number(cfg, "z", 2.0)
    eps = _numbers(cfg, "sweep", [0.4, 0.2, 0.1, 0.05, 0.025])
    _require_fits((11 + (len(eps) + 10) * n_test) * n**2, "n_test_functions", f"{n_test} test functions")
    seed = _integer(cfg, "seed", 11, 0)
    rng = np.random.default_rng(seed)
    res = ProductFreeResolvent(pg, m)
    cols = rng.standard_normal((n_test, pg.n)).T
    for _ in range(2):
        cols = res.apply(z, cols)
    fs = (cols / np.linalg.norm(cols, axis=0)).T
    rep = convergence_study(z, pot, eps, pg, fs, m)
    rows = [
        ReportRow({"epsilon": e, "mean_discrepancy": float(dis.mean()), "max_discrepancy": float(dis.max())})
        for e, dis in zip(rep.epsilons, rep.discrepancies)
    ]
    agg = {
        "monotone": rep.monotone,
        "min_reduction": float(rep.reduction_factors.min()),
        "z": z,
    }
    return ["epsilon", "mean_discrepancy", "max_discrepancy"], rows, agg


def _run_efimov(cfg):
    # peak resident memory over n = 100 ... 1500 (getrusage maxrss of a fresh process, after a warm-up
    # run on a 50-node grid, less the resident memory before the measured run; it also sees the memory
    # the allocator keeps, which dominates below n = 400): 1.3-1.9 n^2 floats from n = 400 on, where one
    # array holds the root, the operator and its eigensolve, so 2.5 n^2 leaves a quarter over the
    # largest; below that RESIDENT_FLOATS covers the excess over 2.5 n^2
    grid = _effective_grid(cfg, copies=2.5, fixed=RESIDENT_FLOATS)
    kind = _get(cfg, "kind", "contact_image")
    if kind not in KINDS:
        raise ConfigError("kind", f"must be one of {KINDS}, got {kind!r}")
    d = _integer(cfg, "d", 3, 2)
    if d > 3:
        raise ConfigError("d", f"must be 2 or 3, got {d}")
    if kind == "three_body_2d" and d != 2:
        raise ConfigError("kind", f"three_body_2d needs d = 2, got d = {d}")
    c_sweep = _numbers(cfg, "sweep", None)
    rows = []
    for c in c_sweep:
        rep = operator_spectrum(effective_operator(kind, c, d, grid))
        values = {"C": c, "n_negative": rep.count_negative, "grid_n": grid.n, "r_min": grid.r_min, "r_max": grid.r_max}
        try:
            geo = geometric_ratio(rep)
            values.update(ratio=geo.ratio, deviation=geo.deviation, classification=geo.classification)
            status = "ok"
        except ValueError:
            values.update(ratio=float("nan"), deviation=float("nan"), classification="too_few_states")
            status = "flagged"
        rows.append(ReportRow(values, status))
    cols = ["C", "n_negative", "ratio", "deviation", "classification", "grid_n", "r_min", "r_max"]
    return cols, rows, {"kind": kind, "d": d}


def _run_thresholds(cfg):
    kind = _get(cfg, "kind", "contact_image")
    if kind != "contact_image":
        raise ConfigError("kind", f"only contact_image has thresholds, got {kind!r}")
    dims = _get(cfg, "sweep", [2, 3])
    if not isinstance(dims, list):
        raise ConfigError("sweep", f"must be a list of dimensions, got {dims!r}")
    dims = [_as_integer(d, "sweep", 2) for d in dims]
    if any(d > 3 for d in dims):
        raise ConfigError("sweep", f"dimensions must be 2 or 3, got {dims!r}")
    bracket = tuple(_numbers(cfg, "bracket", (0.05, 2.5), length=2))
    n = _integer(cfg, "grid.n", 300, MIN_GRID_NODES)
    # peak resident memory, measured as for efimov, from the run at 2n: 5.7-6.3 n^2 floats over n = 400 ... 800
    # (5.0-5.4 under tracemalloc), so 8 n^2 leaves a quarter over the largest; RESIDENT_FLOATS covers the excess
    # over 8 n^2 below that (6.7-11.8 n^2 at n = 100 ... 300)
    _require_fits(RESIDENT_FLOATS + 8 * n**2, "grid.n", f"8 x a dense {n} x {n} matrix")
    rows = []
    for d in dims:
        rep = find_thresholds(kind, d, bracket, n=n)
        status = "ok" if rep.grid_refinement_drift < 0.01 else "flagged"
        values = {"kind": kind, "d": d, "C0": rep.C0, "C1": rep.C1, "drift": rep.grid_refinement_drift}
        rows.append(ReportRow(values, status))
    return ["kind", "d", "C0", "C1", "drift"], rows, {"bracket": list(bracket)}


def _run_kernel22(cfg):
    pairs = _get(cfg, "sweep", required=True)
    two = lambda x: isinstance(x, list) and len(x) == 2
    if not (isinstance(pairs, list) and all(two(pair) and all(map(two, pair)) for pair in pairs)):
        raise ConfigError("sweep", f"must be a list of pairs of 2-vectors, got {pairs!r}")
    rows = []
    for pair in pairs:
        q1, q2 = (np.array([_as_number(c, "sweep") for c in q]) for q in pair)
        val = kernel22(q1, q2)
        values = {"q1x": q1[0], "q1y": q1[1], "q2x": q2[0], "q2y": q2[1], "value": val.value, "pole": val.pole}
        rows.append(ReportRow(values, status="flagged" if val.pole else "ok"))
    return ["q1x", "q1y", "q2x", "q2y", "value", "pole"], rows, {"n_poles": sum(r.status == "flagged" for r in rows)}


def _run_mass_sweep(cfg):
    # tracemalloc peak over n = 2000 ... 32000: 13.0-13.3 floats per node (tridiagonal spectra)
    grid = _effective_grid(cfg, per_node=16)
    c = _number(cfg, "c", 1.0)
    masses = _numbers(cfg, "sweep", [1, 2, 4, 8, 16])
    rep = mass_sweep_2d(masses, c, grid)
    rows = [
        ReportRow(
            {
                "m": float(m),
                "n_negative": int(rep.counts[k]),
                "shallowest_abs_e": float(rep.shallowest_depth[k]),
                "deepest_abs_e": float(rep.deepest_depth[k]),
            },
            "flagged" if any(f"@m={m:g}" in fl for fl in rep.flags) else "ok",
        )
        for k, m in enumerate(rep.masses)
    ]
    agg = {
        "c": c,
        "counts_nondecreasing": rep.counts_nondecreasing,
        "shallowest_nonincreasing": rep.shallowest_nonincreasing,
    }
    return ["m", "n_negative", "shallowest_abs_e", "deepest_abs_e"], rows, agg


# each command's runner and the top-level fields it reads; main's command and output_path go with every one,
# and any other field is refused, so a stale or misspelt field is named instead of ignored
_RUNNERS = {
    "scale-norms": (_run_scale_norms, ("potential", "law", "grid", "sweep")),
    "resonance": (_run_resonance, ("potential", "law", "bracket", "grid", "mass")),
    "kk-verify": (_run_kk_verify, ("potential", "law", "grid", "sweep", "mass")),
    "cross-term": (_run_cross_term, ("potential", "law", "u_potential", "u_law", "grid", "sweep")),
    "additivity": (_run_additivity, ("potential", "law", "v3_potential", "grid", "sweep")),
    "independence": (_run_independence, ("grid", "potential", "law", "v2_potential", "v2_law", "v3_potential", "sweep", "z")),
    "limit-resolvent": (_run_limit_resolvent, ("n_test_functions", "grid", "potential", "mass", "z", "sweep", "seed")),
    "efimov": (_run_efimov, ("grid", "kind", "d", "sweep")),
    "thresholds": (_run_thresholds, ("kind", "sweep", "bracket", "grid")),
    "kernel22": (_run_kernel22, ("sweep",)),
    "mass-sweep": (_run_mass_sweep, ("grid", "c", "sweep")),
}
COMMANDS = tuple(_RUNNERS)


def run(config: dict, out_dir) -> int:
    """Execute one configured study and write its reports."""
    command = config.get("command")
    if command not in COMMANDS:
        raise ConfigError("command", f"unknown command {command!r}, expected one of {COMMANDS}")
    runner, fields = _RUNNERS[command]
    unknown = sorted(set(config) - {"command", "output_path", *fields})
    if unknown:
        raise ConfigError(unknown[0], f"{command} has no such field; its fields are {', '.join(sorted(fields))}")
    columns, rows, aggregates = runner(config)
    write_report(Path(out_dir), command, columns, rows, config, aggregates)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="zrange", description="zero-range interaction studies")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="JSON configuration file")
    parser.add_argument("--out", default=None, help="output directory (default: config output_path or '.')")
    parser.add_argument("--grid-n", type=int, default=None, help="override grid.n")
    parser.add_argument("--rmax", type=float, default=None, help="override grid.r_max")
    args = parser.parse_args(argv)

    try:
        config = json.loads(Path(args.config).read_text())
    except FileNotFoundError:
        print(f"config error at --config: file not found: {args.config}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"config error at --config: invalid JSON ({exc})", file=sys.stderr)
        return 2
    if not isinstance(config, dict):
        print("config error at <root>: expected a JSON object", file=sys.stderr)
        return 2

    config["command"] = args.command
    if args.grid_n is not None:
        config.setdefault("grid", {})["n"] = args.grid_n
    if args.rmax is not None:
        config.setdefault("grid", {})["r_max"] = args.rmax
    out_dir = args.out or config.get("output_path") or "."

    try:
        return run(config, out_dir)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (ValueError, np.linalg.LinAlgError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
