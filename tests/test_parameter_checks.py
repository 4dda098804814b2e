"""Every scalar numeric parameter is checked the same way: a value that is
not a real number in its range (a bool, a string, None or NaN included)
raises a DataValidationError that names the parameter."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest

from rmtlkit import (
    CensoringSpec,
    DataValidationError,
    DesignInput,
    PiecewiseWeibullCif,
    WeibullSegment,
    diff_test,
    load_shipped_scenario,
    observed_power_at_n,
    partial_process,
    rmtl_difference,
    run_monte_carlo,
    scenario_to_dict,
)
from rmtlkit._normal import ndtri
from rmtlkit.brownian import solve_crossing_drift, sup_abs_bm_quantile

from helpers import sample_with_events

SAMPLE = sample_with_events(3)
SCENARIO = load_shipped_scenario("a_null")
GROUP = SCENARIO.groups[0]
DESIGN = {"delta": 1.0, "var1": 4.0, "var2": 4.0}
SEGMENT = {"start": 0.0, "shape": 1.0, "scale": 2.0}

# (test id, the name the message starts with, a call with the value)
PARAMETERS = [
    ("tau", "tau", lambda v: rmtl_difference(SAMPLE, v)),
    ("alpha", "alpha", lambda v: diff_test(SAMPLE, 1.0, alpha=v)),
    ("rho", "rho", lambda v: partial_process(SAMPLE, 1.0, rho=v)),
    *((f"design-{key}", key, lambda v, key=key: DesignInput(**{**DESIGN, key: v}))
      for key in ("delta", "var1", "var2", "ratio", "alpha", "power")),
    *((f"segment-{key}", f"segment {key}",
       lambda v, key=key: WeibullSegment(**{**SEGMENT, key: v}))
      for key in ("start", "shape", "scale")),
    ("mass", "mass", lambda v: PiecewiseWeibullCif(v, GROUP.interest.segments)),
    ("group-size", "group size", lambda v: dataclasses.replace(GROUP, n=v)),
    ("censoring-target", "censoring target", lambda v: CensoringSpec(target=v)),
    ("censoring-bound", "censoring bound", lambda v: CensoringSpec(bound=v)),
    *((f"study-{key}", key,
       lambda v, key=key: run_monte_carlo(SCENARIO, **{"reps": 2, key: v}))
      for key in ("reps", "workers", "seed", "alpha", "rho")),
    ("n_total", "n_total", lambda v: observed_power_at_n(SCENARIO, v, reps=2)),
    ("power-ratio", "ratio", lambda v: observed_power_at_n(SCENARIO, 100, reps=2, ratio=v)),
    ("ndtri", "p", ndtri),
    ("quantile", "p", sup_abs_bm_quantile),
    ("drift-level", "level", lambda v: solve_crossing_drift(v, 0.8)),
    ("drift-target", "target", lambda v: solve_crossing_drift(2.0, v)),
]

# where None is the default, it stands for a value not given
OPTIONAL = {"censoring-target", "censoring-bound", "power-ratio"}
VALUES = {"string": "0.5", "None": None, "True": True, "nan": math.nan}


@pytest.mark.parametrize("name, call, value", [
    pytest.param(name, call, value, id=f"{pid}-{vid}")
    for pid, name, call in PARAMETERS for vid, value in VALUES.items()
    if not (value is None and pid in OPTIONAL)])
def test_a_value_that_is_not_a_number_in_range_is_refused_by_name(name, call, value):
    with pytest.raises(DataValidationError) as caught:
        call(value)
    assert str(caught.value).startswith(f"{name} must be "), caught.value


@pytest.mark.parametrize("n", [50.0, 2.5, np.float64(50.0)])
def test_a_group_size_that_is_not_an_integer_is_refused(n):
    with pytest.raises(DataValidationError,
                       match=f"^group size must be an integer, got {re.escape(repr(n))}$"):
        dataclasses.replace(GROUP, n=n)


def test_numpy_numbers_in_range_are_accepted():
    assert dataclasses.replace(GROUP, n=np.int64(50)).n == 50
    assert DesignInput(np.float32(1.0), np.float64(4.0), 4, alpha=np.float32(0.05)).var2 == 4


def test_a_spec_keeps_the_plain_number_its_check_returns():
    # numpy numbers are stored as plain floats and ints, so a scenario and
    # a report built from them can be written as JSON
    segment = WeibullSegment(np.float32(0.0), np.int64(2), np.float64(2.2))
    specs = [(segment, ("start", "shape", "scale")),
             (PiecewiseWeibullCif(np.float32(0.5), (segment,)), ("mass",)),
             (CensoringSpec(target=np.float32(0.25)), ("target",)),
             (CensoringSpec(bound=np.float32(2.0)), ("bound",))]
    assert all(type(getattr(spec, name)) is float for spec, names in specs for name in names)
    group = dataclasses.replace(GROUP, n=np.int64(50))
    assert type(group.n) is int
    scn = dataclasses.replace(SCENARIO, groups=(group, group), censoring=specs[-1][0])
    assert json.loads(json.dumps(scenario_to_dict(scn)))["groups"][0]["n"] == 50
    report = run_monte_carlo(scn, reps=2, seed=1).to_dict()
    assert json.loads(json.dumps(report))["censoring_bounds"] == [2.0, 2.0]
