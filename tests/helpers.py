"""Shared generators for the test suite."""

import numpy as np

from rmtlkit import EventCode, TwoGroupSample


def engine_samples(scn, start, stop, seed, bounds):
    """The Monte Carlo engine's draws of replications [start, stop), one item
    per replication: its sample built by the public constructor, or None
    where the engine skips it, as its tau rule is undefined."""
    from rmtlkit.rmtl import _block_taus
    from rmtlkit.simulate import _samples

    sizes = [g.n for g in scn.groups]
    group = np.repeat([0, 1], sizes)
    for times, codes in _samples(scn, start, stop, seed, bounds):
        keep = _block_taus(times, codes, sizes) > 0
        for t, c, kept in zip(times, codes, keep):
            yield TwoGroupSample(t, c, group, ("1", "2")) if kept else None


def sample_by_cause(group, u):
    """The engine's draw of one group, cause by cause: the reference for
    ``sample_events``. Each cause's subjects (``u[0]`` below the interest
    mass, or not) are gathered, their ``u[1]`` inverted by that cause's own
    ``inverse_cdf``, and the times scattered back by the same mask."""
    is_interest = u[0] < group.interest.mass
    times = np.empty(is_interest.shape)
    for law, mask in ((group.interest, is_interest), (group.competing, ~is_interest)):
        if mask.any():
            times[mask] = law.inverse_cdf(u[1][mask])
    codes = np.where(is_interest, int(EventCode.INTEREST), int(EventCode.COMPETING))
    return times, codes


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
    """The draws of ``random_arrays`` as (time, status, group) records of one group."""
    times, codes = random_arrays(rng, n, **kw)
    return [(float(t), int(e), group) for t, e in zip(times, codes)]


def columns(records):
    """(times, codes) arrays of a list of records."""
    return (np.array([t for t, _, _ in records], dtype=float),
            np.array([e for _, e, _ in records]))


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


def reference_fit(times, codes):
    """One group's risk table, interest CIF and Aalen variance by plain
    loops, as an oracle for the pooled fit.

    Returns a dict of lists over the group's distinct event times (either
    cause): ``times``, ``at_risk``, ``d1``, ``d2``, ``cif`` and
    ``variance``, each CIF entry taken just after its time.
    """
    obs = [(float(t), int(c)) for t, c in zip(times, codes)]
    event_times = sorted({t for t, c in obs if c != EventCode.CENSORED})
    n = [sum(1 for x, _ in obs if x >= t) for t in event_times]
    d1 = [sum(1 for x, c in obs if x == t and c == EventCode.INTEREST) for t in event_times]
    d2 = [sum(1 for x, c in obs if x == t and c == EventCode.COMPETING) for t in event_times]
    s_prev, inc = [], []
    surv, cif = 1.0, 0.0
    for nk, ak, bk in zip(n, d1, d2):
        s_prev.append(surv)
        cif += ak / nk * surv
        inc.append(cif)
        surv *= 1.0 - (ak + bk) / nk
    # Aalen's estimator as the literal double sum (Pintilie eq. 4.5)
    variance = []
    for i in range(len(n)):
        acc = 0.0
        for k in range(i + 1):
            nk, dk, jk = n[k], d1[k] + d2[k], d1[k]
            if (nk - 1) * (nk - dk) > 0:
                acc += (inc[i] - inc[k]) ** 2 * dk / ((nk - 1) * (nk - dk))
            if nk > 1:
                acc += (nk - jk) * jk * s_prev[k] ** 2 / ((nk - 1) * nk**2)
            if nk * (nk - dk) * (nk - 1) > 0:
                acc -= (2.0 * (inc[i] - inc[k]) * jk * (nk - jk) * s_prev[k]
                        / (nk * (nk - dk) * (nk - 1)))
        variance.append(max(acc, 0.0))
    return {"times": event_times, "at_risk": n, "d1": d1, "d2": d2, "cif": inc,
            "variance": variance}


def true_cif(law, t):
    """True sub-distribution mass * F(t) of a ``PiecewiseWeibullCif`` law."""
    return law.mass * law.cdf(t)


def value_at(fn, t):
    """Right-continuous evaluation of StepFunction ``fn`` at ``t`` (a scalar
    or an array): the value at the largest knot <= t."""
    return _at(fn.times, fn.values, fn.value_before_first, t)


def variance_at(fn, t):
    """Pointwise variance of StepFunction ``fn`` at ``t``, 0 before its first knot."""
    return _at(fn.times, fn.variances, 0.0, t)


def _at(knots, values, before, t):
    padded = np.concatenate(([before], values))
    return padded[np.searchsorted(knots, t, side="right")]


def step_at(knots, values, t, before=0.0):
    """Right-continuous evaluation of a step function given by lists."""
    out = before
    for k, v in zip(knots, values):
        if k <= t:
            out = v
    return out
