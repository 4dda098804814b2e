"""Shared generators for the test suite."""

import numpy as np

from rmtlkit import EventCode, SubjectRecord, TwoGroupSample


def random_arrays(rng, n, p_interest=0.5, p_competing=0.3, tie_grid=None):
    """(times, codes) with a controllable mix of causes and optional tied times."""
    times = rng.exponential(2.0, n)
    if tie_grid:
        # Snap to a coarse grid to force ties and duplicate rows.
        times = np.maximum(np.round(times * tie_grid) / tie_grid, 1.0 / tie_grid)
    u = rng.random(n)
    codes = np.where(
        u < p_interest,
        EventCode.INTEREST,
        np.where(u < p_interest + p_competing, EventCode.COMPETING, EventCode.CENSORED),
    )
    return times, codes


def random_records(rng, n, group, **kw):
    """The draws of ``random_arrays`` as records of one group."""
    times, codes = random_arrays(rng, n, **kw)
    return [
        SubjectRecord(float(t), EventCode(int(e)), group)
        for t, e in zip(times, codes)
    ]


def columns(records):
    """(times, codes) arrays of a list of records."""
    return (np.array([r.time for r in records], dtype=float),
            np.array([int(r.event) for r in records]))


def swap_groups(sample) -> TwoGroupSample:
    """The same subjects with the group order reversed."""
    return TwoGroupSample(sample.times, sample.codes, 1 - sample.group,
                          sample.groups[::-1])


def random_sample(rng, n1=30, n2=30, **kw) -> TwoGroupSample:
    recs = random_records(rng, n1, "a", **kw) + random_records(rng, n2, "b", **kw)
    return TwoGroupSample.from_records(recs)


def sample_with_events(seed, n1=30, n2=30, **kw) -> TwoGroupSample:
    """Keep drawing until both groups have at least one event of interest."""
    rng = np.random.default_rng(seed)
    for _ in range(100):
        sample = random_sample(rng, n1, n2, **kw)
        with_events = sample.group[sample.codes == EventCode.INTEREST]
        if np.isin([0, 1], with_events).all():
            return sample
    raise AssertionError("could not build a sample with events in both groups")
