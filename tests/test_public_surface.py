"""Every exported callable is used by the package itself.

A public name that no code in ``src/`` calls is surface to document, test
and keep compatible without a use, so it is deleted rather than exported.
The few deliberate exceptions are listed with their reason.
"""

import ast
from pathlib import Path

import rmtlkit

PACKAGE = Path(rmtlkit.__file__).parent

UNUSED_BY_DESIGN = {
    "SubjectRecord": "the benchmark's trace wraps TwoGroupSample.from_records",
    "load_shipped_scenario": "documented entry point for the packaged scenarios",
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
