"""Layer spans recorded from outside zrange, and the per-layer metrics.

`Tracer.install()` rebinds every public function of each zrange module (and
the names sibling modules and the package imported from it), a few hot
methods, and the dense LAPACK entry points the modules call: scipy's `eigh`,
`lu_factor`, `lu_solve` and numpy.linalg's `eigh`, `svd`, `solve`, `inv`,
`lstsq`.  A dense call becomes a span of the innermost open layer span; one
made outside every layer span is not recorded.

A span is (name, start, end, parent); dense spans also carry `n3`, the
operand's rows * cols * min(rows, cols) (n^3 for a square matrix), a
computed operation count that repeats exactly.  Spans stay in memory until
`Tracer.dump()`.  `layer_metrics()` turns them into the per-layer metrics
named in PER_LAYER.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYER_OF_MODULE = {
    "zrange.grids": "grids",
    "zrange.operators": "operators",
    "zrange.potentials": "potentials",
    "zrange.birman_schwinger": "birman_schwinger",
    "zrange.konno_kuroda": "konno_kuroda",
    "zrange.limit_resolvent": "limit_resolvent",
    "zrange.efimov": "efimov",
    "zrange.cli": "cli",
    "zrange.reports": "cli",
}
# (module, class) -> {method: span name}
METHODS = {
    ("zrange.limit_resolvent", "ProductFreeResolvent"): {
        "__init__": "product_resolvent",
        "block": "block",
        "apply": "apply",
    },
    ("zrange.limit_resolvent", "FiniteEpsilonResolvent"): {"apply": "w_eps_apply"},
    ("zrange.limit_resolvent", "LimitResolvent"): {"apply": "limit_apply"},
}
NUMPY_DENSE = ("eigh", "svd", "solve", "inv", "lstsq")
SCIPY_DENSE = ("eigh", "lu_factor", "lu_solve")
DENSE_OPS = frozenset(NUMPY_DENSE + SCIPY_DENSE)

# Per-layer metrics reported by the traced run.  For a span name X:
#   X.s      summed self time (duration minus direct children)
#   X.calls  number of spans
#   X.n3     n3 of dense spans named X, or of the dense calls made directly
#            inside spans named X
# and per layer: self_s (all its self time), errors (calls into the layer
# from outside it that raised), dense.* (all its dense calls together).
PER_LAYER = {
    "limit_resolvent": [
        "assemble_w_eps.s", "assemble_w_eps.calls", "block.s", "apply.s", "apply.calls",
        "eigh.s", "eigh.calls", "eigh.n3", "lu_factor.s", "lu_factor.calls", "lu_factor.n3",
        "lu_solve.s", "sampled_resonance.s", "sampled_resonance.calls", "limit_w.s",
        "support_nodes",
    ],
    "efimov": [
        "find_thresholds.s", "effective_operator.s", "effective_operator.calls",
        "eigh.s", "eigh.calls", "eigh.n3", "operator_spectrum.s", "operator_spectrum.calls",
        "mass_sweep_2d.s", "sqrt_cache.hit_ratio",
    ],
    "operators": [
        "sqrt_kinetic.s", "sqrt_kinetic.calls", "sqrt_kinetic.n3", "svd.s", "svd.calls",
        "green_kernel_matrix.s", "green_kernel_matrix.calls",
        "radial_green_kernel.s", "radial_green_kernel.calls",
        "discretize_h0.s", "discretize_h0.calls", "hyperradial_kinetic.s", "hyperradial_kinetic.calls",
    ],
    "birman_schwinger": [
        "find_resonance_coupling.s", "find_resonance_coupling.calls",
        "two_resonance_matrix.s", "two_resonance_matrix.calls", "bs_operator.s", "bs_operator.calls",
        "eigh.s", "eigh.calls", "eigh.n3", "extrapolate_to_zero.calls",
    ],
    "konno_kuroda": [
        "assemble_resolvent_diff.s", "assemble_resolvent_diff.calls", "direct_resolvent_diff.s",
        "independence_spectrum_check.s", "dense.calls", "dense.n3",
    ],
    "potentials": ["scale_potential.s", "scale_potential.calls", "rollnik_norm.s", "rollnik_norm.calls"],
    "grids": ["build_grid.s", "build_grid.calls"],
    "cli": ["main.s", "run.s", "write_report.s", "write_report.calls"],
}
TRACE_METRICS = ("trace.overhead_s", "trace.coverage")


def metric_names() -> list:
    names = []
    for layer, metrics in PER_LAYER.items():
        names += [f"{layer}.{m}" for m in metrics] + [f"{layer}.self_s", f"{layer}.errors"]
    return names + list(TRACE_METRICS)


def metric_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("hit_ratio") or name.endswith("coverage"):
        return "1"
    return "count"


def metric_better(name: str) -> str:
    return "higher" if metric_unit(name) == "1" else "lower"


def _n3(a) -> int:
    shape = getattr(a[0] if isinstance(a, tuple) else a, "shape", ())
    if len(shape) != 2:
        return 0
    rows, cols = shape
    return int(rows) * int(cols) * min(int(rows), int(cols))


class Tracer:
    def __init__(self):
        # one list per span: [name, layer, start, end, parent, n3, raised, value]
        self.spans: list = []
        self._stack: list = []

    def _call(self, name, layer, n3, fn, args, kwargs, observe=None):
        idx = len(self.spans)
        span = [name, layer, 0.0, 0.0, self._stack[-1] if self._stack else -1, n3, False, None]
        self.spans.append(span)
        self._stack.append(idx)
        span[2] = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            span[6] = True
            raise
        finally:
            span[3] = time.perf_counter()
            self._stack.pop()
        if observe is not None:
            span[7] = observe(out)
        return out

    def wrap(self, layer: str, name: str, fn, observe=None):
        """Wrap a zrange function or method as a span `layer.name`."""
        full = f"{layer}.{name}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(full, layer, 0, fn, args, kwargs, observe)

        return traced

    def wrap_dense(self, op: str, fn):
        """Wrap a LAPACK entry point; it is attributed to the innermost layer span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            layer = self.spans[self._stack[-1]][1]
            operand = args[0] if args else next(iter(kwargs.values()), None)
            return self._call(f"{layer}.{op}", layer, _n3(operand), fn, args, kwargs)

        return traced

    def install(self):
        """Rebind zrange's public functions, hot methods and dense entry points."""
        import numpy as np
        import scipy.linalg

        modules = {name: importlib.import_module(name) for name in LAYER_OF_MODULE}
        wrapped = {}
        for mod_name, mod in modules.items():
            layer = LAYER_OF_MODULE[mod_name]
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and not name.startswith("_") and obj.__module__ == mod_name:
                    observe = _support_size if (layer, name) == ("limit_resolvent", "assemble_w_eps") else None
                    wrapped[obj] = self.wrap(layer, name, obj, observe)
        scipy_eigh = scipy.linalg.eigh
        wrapped[scipy_eigh] = self.wrap_dense("eigh", scipy_eigh)
        for mod in [*modules.values(), sys.modules["zrange"]]:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, name, wrapped[obj])
        for (mod_name, cls_name), methods in METHODS.items():
            cls = getattr(modules[mod_name], cls_name)
            for meth, span_name in methods.items():
                setattr(cls, meth, self.wrap(LAYER_OF_MODULE[mod_name], span_name, getattr(cls, meth)))
        # limit_resolvent imports lu_factor / lu_solve inside its functions
        for op in SCIPY_DENSE:
            setattr(scipy.linalg, op, self.wrap_dense(op, getattr(scipy.linalg, op)))
        for op in NUMPY_DENSE:
            setattr(np.linalg, op, self.wrap_dense(op, getattr(np.linalg, op)))

    def dump(self) -> list:
        """The recorded spans as JSON-ready dicts."""
        keys = ("name", "layer", "start", "end", "parent", "n3", "raised", "value")
        return [dict(zip(keys, s)) for s in self.spans]


def _support_size(w_eps) -> int:
    return int(w_eps.support.size)


def self_times(spans: list) -> list:
    """Each span's duration minus the durations of its direct children."""
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def layer_metrics(spans: list, wall_s: float) -> dict:
    """Per-layer metric values (PER_LAYER and trace.coverage) from one traced pass."""
    self_t = self_times(spans)
    s, calls, n3, layer_self, errors, dense = {}, {}, {}, {}, {}, {}
    for span, t in zip(spans, self_t):
        name, layer, parent = span["name"], span["layer"], span["parent"]
        s[name] = s.get(name, 0.0) + t
        calls[name] = calls.get(name, 0) + 1
        layer_self[layer] = layer_self.get(layer, 0.0) + t
        if span["n3"]:
            n3[name] = n3.get(name, 0) + span["n3"]
            if parent >= 0:
                pname = spans[parent]["name"]
                n3[pname] = n3.get(pname, 0) + span["n3"]
        if name.rsplit(".", 1)[1] in DENSE_OPS:
            d = dense.setdefault(layer, [0, 0])
            d[0] += 1
            d[1] += span["n3"]
        if span["raised"] and (parent < 0 or spans[parent]["layer"] != layer):
            errors[layer] = errors.get(layer, 0) + 1

    values = {}
    for layer, metrics in PER_LAYER.items():
        for m in metrics:
            key = f"{layer}.{m}"
            base, _, kind = key.rpartition(".")
            if m == "support_nodes":
                sizes = [sp["value"] for sp in spans if sp["name"] == "limit_resolvent.assemble_w_eps"]
                values[key] = max((v for v in sizes if v is not None), default=0)
            elif m == "sqrt_cache.hit_ratio":
                ops = calls.get("efimov.effective_operator", 0)
                misses = sum(
                    1
                    for sp in spans
                    if sp["name"] == "operators.sqrt_kinetic"
                    and sp["parent"] >= 0
                    and spans[sp["parent"]]["name"] == "efimov.effective_operator"
                )
                values[key] = 1.0 - misses / ops if ops else 0.0
            elif base == f"{layer}.dense":
                values[key] = dense.get(layer, [0, 0])[0 if kind == "calls" else 1]
            elif kind == "s":
                values[key] = s.get(base, 0.0)
            elif kind == "calls":
                values[key] = calls.get(base, 0)
            elif kind == "n3":
                values[key] = n3.get(base, 0)
            else:
                raise ValueError(f"unknown per-layer metric {key}")
        values[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
        values[f"{layer}.errors"] = errors.get(layer, 0)
    covered = sum(sp["end"] - sp["start"] for sp in spans if sp["parent"] < 0)
    values["trace.coverage"] = covered / wall_s if wall_s > 0 else 0.0
    return values
