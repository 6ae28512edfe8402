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
from zrange.efimov import effective_operator, operator_spectrum
from zrange.grids import build_grid
from zrange.operators import OperatorMatrix, SquareRootOperator, TridiagonalOperator
from zrange.potentials import rollnik_norm
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


_COLD_START = """
import importlib, pkgutil, sys
import numpy as np
import zrange
for info in pkgutil.iter_modules(zrange.__path__):
    importlib.import_module(f"zrange.{info.name}")
from zrange import operators
from zrange.efimov import effective_operator, operator_spectrum
from zrange.grids import build_grid
from zrange.potentials import rollnik_norm

def loaded():
    print(*(name in sys.modules for name in ("scipy.linalg", "scipy.special")))

loaded()
g = build_grid(40, 5.0, "logarithmic", r_min=1e-2)
print(repr(rollnik_norm(np.exp(-g.nodes**2), g)))
ge = build_grid(60, 1e3, "logarithmic", r_min=1e-5)
print(repr(operator_spectrum(effective_operator("contact_image", 1.0, 3, ge)).eigenvalues.tolist()))
loaded()
import scipy.linalg.cython_lapack
print(operators.cython_lapack is sys.modules["scipy.linalg.cython_lapack"] is scipy.linalg.cython_lapack)
"""

_SCIPY_FIRST = """
import sys
import {}
from zrange import operators
print(operators.cython_lapack is sys.modules["scipy.linalg.cython_lapack"] is scipy.linalg.cython_lapack)
"""


def _fresh_interpreter(script: str) -> list:
    """The lines a fresh interpreter prints running script, with this checkout's src first on its path."""
    src = str(Path(zrange.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    return out.stdout.splitlines()


def test_import_leaves_scipy_special_to_first_use():
    # zrange reads LAPACK from cython_lapack's own file and eigensolves through
    # numpy, so scipy.linalg's package init (about 0.1 s) never runs; no zrange
    # module imports scipy.special, before or after a norm and a spectrum
    before, rollnik, spectrum, after, same_table = _fresh_interpreter(_COLD_START)
    assert (before, after) == ("False False", "False False")
    g = build_grid(40, 5.0, "logarithmic", r_min=1e-2)
    assert rollnik == repr(rollnik_norm(np.exp(-g.nodes**2), g))
    ge = build_grid(60, 1e3, "logarithmic", r_min=1e-5)
    assert spectrum == repr(operator_spectrum(effective_operator("contact_image", 1.0, 3, ge)).eigenvalues.tolist())
    assert same_table == "True"


@pytest.mark.parametrize("first", ["scipy.linalg", "scipy.linalg.cython_lapack"])
def test_lapack_table_is_scipys_own_when_scipy_comes_first(first):
    # scipy.linalg imports the table itself; zrange takes that module object
    # and leaves its sys.modules entry and package attribute in place
    assert _fresh_interpreter(_SCIPY_FIRST.format(first)) == ["True"]
