"""Tracing from outside the program: wrap public functions where callers
look them up, keep spans in memory, and derive per-layer self times.

rmtlkit modules import each other's functions by name, so a wrapper has to
replace every module attribute that refers to the function, not only the
one in the defining module. ``rmtlkit.rmtl`` on the package is the function
``rmtl``; modules are therefore reached through ``sys.modules``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

# (defining module, attribute, span name). A span name is the layer metric
# prefix; simulate.engine is run_monte_carlo, cli is cli.main.
TARGETS = (
    ("simulate", "run_monte_carlo", "simulate.engine"),
    ("simulate", "calibrate_censoring", "simulate.calibrate_censoring"),
    ("simulate", "sample_events", "simulate.sample_events"),
    ("simulate", "apply_censoring", "simulate.apply_censoring"),
    ("data_model", "parse_dataset", "data_model.parse_dataset"),
    ("data_model", "TwoGroupSample.from_records", "data_model.from_records"),
    ("data_model", "build_risk_table", "data_model.build_risk_table"),
    ("cif", "cif_estimate", "cif.cif_estimate"),
    ("cif", "km_overall", "cif.km_overall"),
    ("rmtl", "default_tau", "rmtl.default_tau"),
    ("rmtl", "rmtl_difference", "rmtl.rmtl_difference"),
    ("rmtl", "rmtl_estimate", "rmtl.rmtl_estimate"),
    ("inference", "diff_test", "inference.diff_test"),
    ("inference", "sdiff_test", "inference.sdiff_test"),
    ("inference", "partial_process", "inference.partial_process"),
    ("brownian", "sup_abs_bm_sf", "brownian.sup_abs_bm_sf"),
    ("brownian", "sup_abs_bm_quantile", "brownian.sup_abs_bm_quantile"),
    ("design", "pilot_parameters", "design.pilot_parameters"),
    ("design", "sample_size_diff", "design.sample_size_diff"),
    ("design", "sample_size_sdiff", "design.sample_size_sdiff"),
    ("cli", "main", "cli"),
)

# Calibration draws 10^5 event times per group through sample_events; those
# calls belong to the calibration cost, not to the per-replication sampler,
# so nothing called under an opaque span gets a span of its own.
OPAQUE = frozenset({"simulate.calibrate_censoring"})


class Tracer:
    """In-memory spans: [name, start, end, parent index, root index]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._opaque = 0
        self._undo: list = []

    def _wrap(self, name: str, fn):
        opaque = name in OPAQUE

        def traced(*args, **kwargs):
            if self._opaque:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            span = [name, 0.0, 0.0, parent, self.spans[parent][4] if parent >= 0 else idx]
            self.spans.append(span)
            self._stack.append(idx)
            self._opaque += opaque
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._opaque -= opaque
                self._stack.pop()

        return traced

    def install(self):
        """Patch every lookup site in the loaded rmtlkit modules."""
        modules = [m for k, m in sys.modules.items()
                   if k == "rmtlkit" or k.startswith("rmtlkit.")]
        for mod_name, attr, name in TARGETS:
            mod = sys.modules[f"rmtlkit.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, classmethod(self._wrap(name, original.__func__)))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._undo.append((m, key, original))
                        setattr(m, key, wrapper)

    def uninstall(self):
        for obj, key, original in reversed(self._undo):
            setattr(obj, key, original)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def summary(self) -> dict:
        """Per span name: calls, inclusive and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for (name, start, end, _, _), covered in zip(self.spans, child):
            s = out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            s["calls"] += 1
            s["incl_s"] += end - start
            s["self_s"] += end - start - covered
        return out

    def root_seconds(self) -> float:
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)

    def write(self, path: Path):
        """Write the spans and the per-name summary as one JSON document."""
        path.write_text(json.dumps({
            "fields": ["name", "start", "end", "parent", "root"],
            "spans": self.spans,
            "summary": self.summary(),
        }), encoding="utf-8")
