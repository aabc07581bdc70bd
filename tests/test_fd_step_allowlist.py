"""The finite-difference step h is a parameter of the oracles alone, and a
tolerance is a parameter of nothing that decides a verdict.

Every closed form reads no step; a fallback without one takes its step from
the object that lacks the closed form (a map's `fd_step`, or
`numerics.DEFAULT_FD_STEP` for a manifold). This walks the public functions,
classes and methods of every module and allows a parameter named h only on
the functions that really take a central difference. Thresholds are module
constants read where they decide; a parameter named like a tolerance is
allowed only on a report field.
"""

import importlib
import inspect
import pkgutil

import pytest

import submersion_lab

TAKES_A_STEP = {
    "numerics.central_difference",
    "core.covariant_derivative",
    "core.lie_bracket",
    "submersion.a_tensor",
    "obstruction.obstruction_vector",
    "obstruction.cross_term_check",
}

TAKES_A_TOLERANCE = {"cli.CheckResult"}   # the report field of a validate check

MODULES = sorted(info.name for info in pkgutil.iter_modules(submersion_lab.__path__))


def public_callables(module_name):
    """(qualified name, callable) for the public functions and classes that
    `module_name` defines, and each class's public methods."""
    module = importlib.import_module(f"submersion_lab.{module_name}")
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{module_name}.{name}", obj
        elif inspect.isclass(obj):
            yield f"{module_name}.{name}", obj   # the constructor and its fields
            for meth_name, meth in vars(obj).items():
                if not meth_name.startswith("_") and inspect.isfunction(meth):
                    yield f"{module_name}.{name}.{meth_name}", meth


def parameters(obj):
    try:
        return inspect.signature(obj).parameters
    except (TypeError, ValueError):   # a class without an introspectable constructor
        return {}


def takes_h(obj):
    return "h" in parameters(obj)


def takes_a_tolerance(obj):
    return any("tol" in name for name in parameters(obj))


@pytest.mark.parametrize("module_name", MODULES)
def test_only_the_oracles_take_a_step(module_name):
    stray = [name for name, obj in public_callables(module_name)
             if takes_h(obj) and name not in TAKES_A_STEP]
    assert stray == []


def test_every_oracle_takes_a_step():
    found = {name for module_name in MODULES
             for name, obj in public_callables(module_name) if takes_h(obj)}
    assert found == TAKES_A_STEP


@pytest.mark.parametrize("module_name", MODULES)
def test_no_tolerance_parameters(module_name):
    stray = [name for name, obj in public_callables(module_name)
             if takes_a_tolerance(obj) and name not in TAKES_A_TOLERANCE]
    assert stray == []
