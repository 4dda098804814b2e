"""Every exported callable, and every public method and property of an
exported class, is used by the package itself.

A public name that no code in ``src/`` calls is surface to document, test
and keep compatible without a use, so it is deleted rather than exported.
The few deliberate exceptions are listed with their reason.
"""

import ast
import inspect
from functools import cached_property
from pathlib import Path
from types import FunctionType

import rmtlkit

PACKAGE = Path(rmtlkit.__file__).parent

UNUSED_BY_DESIGN = {
    "load_shipped_scenario": "documented entry point for the packaged scenarios",
}
METHODS_UNUSED_BY_DESIGN = {
    "PiecewiseWeibullCif.cdf": "a scenario's true event-time law, the oracle of tests",
    "PiecewiseWeibullCif.inverse_cdf": (
        "one law's exact inverse, the oracle of tests for the engine's one-table sampler"),
}


def references_outside_own_definition() -> set[str]:
    """Names and attributes read anywhere in the package, except inside the
    top-level definition of the same name and in ``__init__`` re-exports."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            own = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != own:
                    found.add(name)
    return found


def attributes_read_outside_own_method() -> set[str]:
    """Attribute names read anywhere in the package, except inside a
    function or method of the same name."""
    found = set()

    def visit(node, own):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            own = node.name
        elif isinstance(node, ast.Attribute) and node.attr != own:
            found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, own)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def exported_methods() -> set[str]:
    """``Class.name`` of each public method and property that an exported
    class of the package defines itself."""
    kinds = (FunctionType, property, cached_property, classmethod, staticmethod)
    found = set()
    for name in rmtlkit.__all__:
        cls = getattr(rmtlkit, name)
        if isinstance(cls, type) and cls.__module__.startswith("rmtlkit."):
            found.update(f"{name}.{attr}" for attr, value in vars(cls).items()
                         if not attr.startswith("_") and isinstance(value, kinds))
    return found


def unused_methods() -> set[str]:
    read = attributes_read_outside_own_method()
    return {m for m in exported_methods() if m.split(".")[1] not in read}


def exported_callables() -> set[str]:
    return {name for name in rmtlkit.__all__ if callable(getattr(rmtlkit, name))}


def test_every_exported_callable_is_used_in_the_package():
    used = references_outside_own_definition()
    unused = exported_callables() - used - set(UNUSED_BY_DESIGN)
    assert not unused, f"exported but unused in src/: {sorted(unused)}"


def test_exceptions_are_exported_and_still_unused():
    used = references_outside_own_definition()
    assert set(UNUSED_BY_DESIGN) <= exported_callables()
    assert not set(UNUSED_BY_DESIGN) & used


def test_every_public_method_is_used_in_the_package():
    unused = unused_methods() - set(METHODS_UNUSED_BY_DESIGN)
    assert not unused, f"public but unused in src/: {sorted(unused)}"


def test_method_exceptions_exist_and_are_still_unused():
    assert set(METHODS_UNUSED_BY_DESIGN) <= unused_methods()


def test_no_exported_callable_takes_eps():
    # the Brownian series are exact to double precision with a fixed number
    # of terms, so there is no truncation error for a caller to set
    takes_eps = set()
    for name in exported_callables():
        try:
            parameters = inspect.signature(getattr(rmtlkit, name)).parameters
        except ValueError:  # exception classes: builtin constructors
            continue
        if "eps" in parameters:
            takes_eps.add(name)
    assert not takes_eps
