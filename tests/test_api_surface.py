import dataclasses
import importlib
import inspect
import pkgutil

import zrange
from zrange.operators import OperatorMatrix, TridiagonalOperator

MAX_OPTIONS = 30


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


def test_option_count_stays_at_most_thirty():
    options = _options()
    assert len(options) <= MAX_OPTIONS, options


def test_operators_carry_no_mass_field():
    # the mass is in an operator's entries; a field beside them could disagree
    for cls in (OperatorMatrix, TridiagonalOperator):
        assert "m" not in {f.name for f in dataclasses.fields(cls)}
