"""Every function the benchmark's tracer wraps exists in the package.

``bench/spans.py`` names its span targets as (module, attribute) strings,
so a deleted or renamed function would only surface when a traced
benchmark run crashes. This reads the target list (without changing
anything under ``bench/``) and resolves each entry the way the tracer does.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import rmtlkit  # noqa: F401  (loads every rmtlkit module the tracer patches)
import rmtlkit.cli  # noqa: F401

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def span_targets():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module_name, attr, span", span_targets())
def test_span_target_resolves(module_name, attr, span):
    module = sys.modules.get(f"rmtlkit.{module_name}")
    assert module is not None, f"{span}: no loaded module rmtlkit.{module_name}"
    if "." in attr:
        # a classmethod, wrapped through the class __dict__
        cls_name, method = attr.split(".")
        cls = getattr(module, cls_name)
        assert isinstance(cls.__dict__.get(method), classmethod), f"{span}: {attr}"
    else:
        assert callable(getattr(module, attr, None)), f"{span}: {attr}"
