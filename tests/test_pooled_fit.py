"""The pooled fit of a two-group sample against per-group plain-loop
references: interest CIFs, Aalen variances and the sDiff partial process,
with each group's one-group risk table and CIF, on tied, censored,
single-cause and non-overlapping samples (where one group's rows have no
one at risk), and on one large censored Monte Carlo replication."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmtlkit import (
    DegenerateDataError,
    CensoringSpec,
    EventCode,
    TwoGroupSample,
    km_overall,
    load_shipped_scenario,
    partial_process,
)
from rmtlkit.simulate import calibrate_censoring

from helpers import engine_samples, reference_fit, step_at, value_at, variance_at

TOL = 1e-12


@st.composite
def samples(draw):
    """(times, codes, group) of two nonempty groups, each with its own cause
    set, so that one group can be single-cause while the other has
    competing events."""
    scale = draw(st.sampled_from([1.0, 2.0, 4.0, 16.0]))  # small scales tie
    groups = []
    for _ in range(2):
        causes = draw(st.sampled_from([(0, 1, 2), (0, 1), (1,), (1, 2)]))
        n = draw(st.integers(1, 20))
        ticks = draw(st.lists(st.integers(0, 24), min_size=n, max_size=n))
        codes = draw(st.lists(st.sampled_from(causes), min_size=n, max_size=n))
        groups.append((np.array(ticks) / scale, np.array(codes)))
    if draw(st.booleans()):
        # the second group starts after every subject of the first has left
        first_end = groups[0][0].max()
        groups[1] = (groups[1][0] + first_end + 1.0, groups[1][1])
    times = np.concatenate([t for t, _ in groups])
    codes = np.concatenate([c for _, c in groups])
    group = np.repeat([0, 1], [len(t) for t, _ in groups])
    return times, codes, group


def assert_matches_reference(table, cif, times, codes):
    """One group's risk table and interest CIF against plain loops."""
    ref = reference_fit(times, codes)
    assert table.times.tolist() == ref["times"]
    assert table.at_risk.tolist() == ref["at_risk"]
    assert table.events_interest.tolist() == ref["d1"]
    assert table.events_competing.tolist() == ref["d2"]
    assert table.last_observed == cif.last_observed == times.max()
    knots = [i for i, d in enumerate(ref["d1"]) if d > 0]
    assert cif.times.tolist() == [ref["times"][i] for i in knots]
    np.testing.assert_allclose(cif.values, [ref["cif"][i] for i in knots],
                               rtol=0, atol=TOL)
    np.testing.assert_allclose(cif.variances,
                               [ref["variance"][i] for i in knots], rtol=0, atol=TOL)


@settings(max_examples=150, deadline=None)
@given(samples())
def test_pooled_fit_matches_per_group_reference(data):
    times, codes, group = data
    sample = TwoGroupSample(times, codes, group, ("a", "b"))
    for g, (table, cif) in enumerate(zip(sample.pooled.tables, sample.pooled.cifs)):
        # the risk table and CIF the pooled fit holds against plain loops
        assert_matches_reference(table, cif, times[group == g], codes[group == g])
        assert table.n_total == sample.pooled.n_total[g] == int((group == g).sum())
        if not (codes[group == g] == EventCode.COMPETING).any() and len(table.times):
            # single cause: CIF = 1 - KM bitwise, also in the pooled fit
            km = km_overall(table)
            assert np.array_equal(cif.values, 1.0 - km.values[table.events_interest > 0])


@settings(max_examples=150, deadline=None)
@given(samples(), st.floats(0.1, 1.5))
def test_partial_process_matches_reference(data, reach):
    times, codes, group = data
    sample = TwoGroupSample(times, codes, group, ("a", "b"))
    refs = [reference_fit(times[group == g], codes[group == g]) for g in (0, 1)]
    tau = reach * (float(times.max()) + 1.0)
    grid = sorted({t for ref in refs for t in ref["times"] if t < tau})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # tau may lie beyond one group's data
        if not grid:
            with pytest.raises(DegenerateDataError, match="before tau"):
                partial_process(sample, tau)
            return
        proc = partial_process(sample, tau)
    assert proc.times.tolist() == grid
    widths = np.diff(grid + [tau])
    assert proc.widths.tolist() == widths.tolist()

    def at(ref, key):
        knots = [i for i, d in enumerate(ref["d1"]) if d > 0]
        return np.array([step_at([ref["times"][i] for i in knots],
                                 [ref[key][i] for i in knots], t) for t in grid])

    values = np.cumsum((at(refs[1], "cif") - at(refs[0], "cif")) * widths)
    np.testing.assert_allclose(proc.values, values, rtol=0, atol=TOL)
    np.testing.assert_allclose(proc.var_first, at(refs[0], "variance"), rtol=0, atol=TOL)
    np.testing.assert_allclose(proc.var_second, at(refs[1], "variance"), rtol=0, atol=TOL)
    # the pooled rows hold each group's own step function by right-continuity
    for cif, var, row in zip(sample.pooled.cifs, (proc.var_first, proc.var_second),
                             sample.pooled.values):
        assert np.array_equal(var, variance_at(cif, proc.times))
        assert np.array_equal(row[:len(grid)], value_at(cif, proc.times))


def test_large_censored_replication_matches_one_group_fits():
    # the Monte Carlo setting of the power studies: n = 1000 per group,
    # 30% calibrated censoring
    scn = load_shipped_scenario("f_crossing")
    scn = dataclasses.replace(
        scn,
        groups=tuple(dataclasses.replace(g, n=1000) for g in scn.groups),
        censoring=CensoringSpec(target=0.3),
    )
    sample = next(engine_samples(scn, 0, 1, 11, calibrate_censoring(scn)))
    pooled = sample.pooled
    for g, (table, cif) in enumerate(zip(pooled.tables, pooled.cifs)):
        times, codes = sample.times[sample.group == g], sample.codes[sample.group == g]
        assert_matches_reference(table, cif, times, codes)
        assert table.n_total == pooled.n_total[g] == 1000
        # the pooled rows read the group's own fit by right-continuity
        assert np.array_equal(pooled.values[g], value_at(cif, pooled.times))
        assert np.array_equal(pooled.variances[g], variance_at(cif, pooled.times))
