import dataclasses
import importlib
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import zrange
from zrange.birman_schwinger import find_resonance_coupling
from zrange.efimov import effective_operator, operator_spectrum
from zrange.grids import build_grid
from zrange import operators
from zrange.operators import OperatorMatrix, SquareRootOperator, TridiagonalOperator
from zrange.potentials import BasePotential, ScalingLaw, rollnik_norm
from zrange.reports import ReportRow, write_report

MAX_OPTIONS = 18


def _options():
    """(owner, parameter) for every defaulted parameter of the public functions and methods of zrange.

    Generated dataclass __init__s and the cli.main entry point are left out:
    the former restate fields, the latter parses argv.
    """
    found = []
    for info in pkgutil.iter_modules(zrange.__path__):
        module = importlib.import_module(f"zrange.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                if (info.name, name) != ("cli", "main"):
                    found += [(f"{info.name}.{name}", p) for p in _defaulted(obj)]
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    fn = member.__func__ if isinstance(member, (staticmethod, classmethod)) else member
                    generated = attr == "__init__" and dataclasses.is_dataclass(obj)
                    public = not attr.startswith("_") or attr == "__init__"
                    if inspect.isfunction(fn) and public and not generated:
                        found += [(f"{info.name}.{name}.{attr}", p) for p in _defaulted(fn)]
    return found


def _defaulted(fn):
    return [p for p, v in inspect.signature(fn).parameters.items() if v.default is not inspect.Parameter.empty]


def test_option_count_stays_within_max_options():
    options = _options()
    assert len(options) <= MAX_OPTIONS, options


def test_one_version_string(tmp_path):
    # the project metadata, the package and every summary name one version
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    project = re.search(r'^version = "(.*)"$', pyproject, re.M).group(1)
    _, summary = write_report(tmp_path, "probe", ["x"], [ReportRow({"x": 1.0})], {}, {})
    assert project == zrange.__version__ == json.loads(summary.read_text())["toolkit_version"]


def test_operators_carry_no_mass_field():
    # the mass is in an operator's entries; a field beside them could disagree
    for cls in (OperatorMatrix, TridiagonalOperator, SquareRootOperator):
        assert "m" not in {f.name for f in dataclasses.fields(cls)}


_ONE_LAPACK = """
import importlib, pkgutil, sys
first = sys.argv[1:]
if first:
    importlib.import_module(first[0])
import numpy as np
import zrange
for info in pkgutil.iter_modules(zrange.__path__):
    importlib.import_module(f"zrange.{info.name}")
from zrange.birman_schwinger import find_resonance_coupling
from zrange.efimov import effective_operator, operator_spectrum
from zrange.grids import build_grid
from zrange.potentials import BasePotential, ScalingLaw, rollnik_norm

g = build_grid(40, 5.0, "logarithmic", r_min=1e-2)
print(repr(rollnik_norm(np.exp(-g.nodes**2), g)))
ge = build_grid(60, 1e3, "logarithmic", r_min=1e-5)
print(repr(operator_spectrum(effective_operator("contact_image", 1.0, 3, ge)).eigenvalues.tolist()))
rep = find_resonance_coupling(BasePotential("square_well", 1.0, 1.0), ScalingLaw(None, 1.0, 3), (1.0, 5.0), n=200)
print(repr([rep.lambda_critical, rep.boundary_C, *rep.resonance_profile.values.tolist()]))
if first:
    import scipy.linalg
    from zrange import operators
    print(sys.modules["scipy.linalg.cython_lapack"] is scipy.linalg.cython_lapack and not hasattr(operators, "cython_lapack"))
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def _run_fresh(script: str, *args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter's run of script with args, with this checkout's src first on its path."""
    src = str(Path(zrange.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", script, *args], env=env, capture_output=True, text=True)


def _fresh_interpreter(script: str, *args: str) -> list:
    """The lines a fresh interpreter prints running script with args; it must exit 0."""
    out = _run_fresh(script, *args)
    out.check_returncode()
    return out.stdout.splitlines()


def _in_process() -> list:
    """The norm, tower spectrum and resonance _ONE_LAPACK prints, as this process computes them."""
    g = build_grid(40, 5.0, "logarithmic", r_min=1e-2)
    ge = build_grid(60, 1e3, "logarithmic", r_min=1e-5)
    rep = find_resonance_coupling(BasePotential("square_well", 1.0, 1.0), ScalingLaw(None, 1.0, 3), (1.0, 5.0), n=200)
    return [repr(rollnik_norm(np.exp(-g.nodes**2), g)),
            repr(operator_spectrum(effective_operator("contact_image", 1.0, 3, ge)).eigenvalues.tolist()),
            repr([rep.lambda_critical, rep.boundary_C, *rep.resonance_profile.values.tolist()])]


def test_import_leaves_scipy_special_to_first_use():
    # every LAPACK kernel comes from the library numpy links, so no zrange
    # module imports scipy: importing each one, a norm, a tower spectrum and a
    # resonance leave scipy.special, and every other scipy module, unloaded
    *alone, loaded = _fresh_interpreter(_ONE_LAPACK)
    assert loaded == "[]"
    assert alone == _in_process()


@pytest.mark.parametrize("first", ["scipy.linalg", "scipy.linalg.cython_lapack"])
def test_lapack_table_is_scipys_own_when_scipy_comes_first(first):
    # with scipy's LAPACK table and its own OpenBLAS loaded first, as the
    # traced benchmark pass does, zrange neither takes nor replaces that
    # module, and a norm, a tower spectrum and a resonance give the bits they
    # give without scipy
    *after_scipy, same_table, loaded = _fresh_interpreter(_ONE_LAPACK, first)
    assert "'scipy.linalg.cython_lapack'" in loaded
    assert same_table == "True"
    assert after_scipy == _in_process()


def test_a_lapack_without_the_routines_fails_at_import():
    # numpy's FFT extension links no LAPACK: read as numpy's LAPACK, it lacks every routine, and the
    # import names each missing symbol instead of failing at a routine's first caller
    script = "import numpy.fft._pocketfft_umath as fft, numpy.linalg._umath_linalg as la; la.__file__ = fft.__file__; import zrange"
    out = _run_fresh(script)
    assert out.returncode == 1
    last = out.stderr.strip().splitlines()[-1]
    assert last.startswith("ImportError: numpy's LAPACK") and "_pocketfft_umath" in last
    assert all(f"scipy_{name}_64_" in last for name in operators.LAPACK_ROUTINES)
