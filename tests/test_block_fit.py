"""The block fit of the Monte Carlo engine against PooledFit.from_arrays,
bitwise, sign bits included: each row's pooled grid, each group's CIF and
variance on it and the group sizes, on every replication of the shipped
scenarios, an unequal split, tied and single-cause blocks,
skipped replications, one-row blocks and blocks that cross chunk edges.
Also the padding, the size of each kernel call, and the checks that run
once per chunk."""

import dataclasses

import numpy as np
import pytest

from rmtlkit import (
    SHIPPED_SCENARIOS,
    CensoringSpec,
    DataValidationError,
    PiecewiseWeibullCif,
    PooledFit,
    TwoGroupSample,
    WeibullSegment,
    load_shipped_scenario,
    run_monte_carlo,
)
from rmtlkit import simulate
from rmtlkit.cif import _block_fits
from rmtlkit.rmtl import _block_taus
from rmtlkit.simulate import _CHUNK_UNIFORMS, _samples, calibrate_censoring


def same_array(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_row_matches(fit, r, want):
    """Row r of a block fit against the PooledFit of sample r: the grid
    arrays bitwise, the grid read up to the row's first +inf."""
    m = int(np.isfinite(fit.grid_times[r]).sum())
    got = {"times": fit.grid_times[r, :m], "values": fit.values[:, r, :m],
           "variances": fit.variances[:, r, :m], "n_total": fit.n_total}
    for name, arr in got.items():
        assert same_array(arr, getattr(want, name)), name


def assert_padded(fit):
    """Past each row's finite grid times, times are +inf and values and
    variances 0."""
    counts = np.isfinite(fit.grid_times).sum(axis=-1)
    pad = np.arange(fit.grid_times.shape[-1]) >= counts[:, None]
    assert np.all(fit.grid_times[pad] == np.inf)
    for arr in (fit.values, fit.variances):
        assert np.all(arr[:, pad] == 0.0)


def assert_block_matches(times, codes, sizes):
    """The kernel on an (R, N) block against from_arrays row by row."""
    group = np.repeat(np.arange(len(sizes)), sizes)
    fit = _block_fits(times, codes, sizes)
    assert fit.grid_times.shape[0] == len(times)
    assert_padded(fit)
    for r, (t, c) in enumerate(zip(times, codes)):
        assert_row_matches(fit, r, PooledFit.from_arrays(t, c, group, len(sizes)))


def assert_engine_fits_match(scn, start, stop, seed) -> int:
    """The block fit of the replications the engine keeps from each chunk
    it draws, against from_arrays of each; return the number kept."""
    count = 0
    sizes = [g.n for g in scn.groups]
    for times, codes in _samples(scn, start, stop, seed, calibrate_censoring(scn)):
        keep = _block_taus(times, codes, sizes) > 0
        assert_block_matches(times[keep], codes[keep], sizes)
        count += int(keep.sum())
    return count


def with_censoring(scn, target):
    return dataclasses.replace(scn, censoring=CensoringSpec(target=target))


def resized(scn, n1, n2):
    return dataclasses.replace(scn, groups=(dataclasses.replace(scn.groups[0], n=n1),
                                            dataclasses.replace(scn.groups[1], n=n2)))


def tied_block(rng, rows, sizes, causes):
    """(times, codes) of a block on a coarse time grid, so runs of tied
    times mix censorings, both causes and both groups. Each group of each
    row draws its codes from a cause set taken in turn from ``causes``."""
    times = rng.integers(0, 8, (rows, sum(sizes))) / 2.0
    codes = np.empty(times.shape, dtype=np.int64)
    edges = np.cumsum((0,) + tuple(sizes))
    for r in range(rows):
        for k, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
            allowed = causes[(r * len(sizes) + k) % len(causes)]
            codes[r, a:b] = rng.choice(allowed, b - a)
    return times, codes


class TestEngineFits:
    @pytest.mark.parametrize("name", SHIPPED_SCENARIOS)
    @pytest.mark.parametrize("target", [None, 0.45])
    def test_shipped_scenarios(self, name, target):
        scn = with_censoring(load_shipped_scenario(name), target)
        assert assert_engine_fits_match(scn, 0, 40, 7) == 40

    @pytest.mark.parametrize("target", [None, 0.45])
    def test_unequal_split(self, target):
        scn = resized(with_censoring(load_shipped_scenario("c_nonproportional"), target),
                      30, 70)
        assert assert_engine_fits_match(scn, 3, 43, 5) == 40

    def test_a_block_crossing_two_chunk_edges(self):
        scn = resized(with_censoring(load_shipped_scenario("f_crossing"), 0.3), 700, 1300)
        step = _CHUNK_UNIFORMS // (3 * 2000)
        start, stop = 5, 5 + 2 * step + 4
        assert assert_engine_fits_match(scn, start, stop, 11) == stop - start

    def test_skipped_replications(self):
        # interest mass 0.3 in groups of 2: most replications have a group
        # without an event of interest and are skipped; the rest are fitted
        law = PiecewiseWeibullCif(0.3, (WeibullSegment(0.0, 1.0, 2.0),))
        other = PiecewiseWeibullCif(0.7, (WeibullSegment(0.0, 1.0, 2.5),))
        group = simulate.GroupSpec(law, other, 2)
        scn = simulate.ScenarioSpec((group, group))
        assert 0 < assert_engine_fits_match(scn, 0, 200, 21) < 200


class TestKernel:
    @pytest.mark.parametrize("seed", range(6))
    def test_tied_blocks_with_mixed_cause_sets(self, seed):
        rng = np.random.default_rng(seed)
        # single-cause, two-cause, competing-only and censored-only groups
        # in one block: the last two have no event of interest
        causes = [(0, 1, 2), (0, 1), (1,), (1, 2), (0, 2), (0,), (2,)]
        assert_block_matches(*tied_block(rng, 30, (40, 60), causes), (40, 60))

    def test_a_row_ends_on_the_time_the_next_starts_on(self):
        # sorted, each group's subjects run on into the next row's: the tie
        # runs must still break at every row
        rng = np.random.default_rng(10)
        times = np.concatenate([np.linspace(0, 4, 5) + 4 * np.arange(6)[:, None]] * 2, axis=1)
        codes = rng.choice([0, 1, 2], times.shape)
        assert_block_matches(times, codes, (5, 5))
        assert_block_matches(np.ones((3, 8)), rng.choice([0, 1, 2], (3, 8)), (3, 5))

    def test_single_cause_rows(self):
        rng = np.random.default_rng(11)
        times = rng.exponential(2.0, (20, 50))
        codes = rng.choice([0, 1], (20, 50))
        codes[::3, 10:] = rng.choice([1, 2], (7, 40))  # some rows two-cause
        assert_block_matches(times, codes, (10, 40))

    def test_one_row(self):
        rng = np.random.default_rng(12)
        assert_block_matches(*tied_block(rng, 1, (17, 9), [(0, 1, 2)]), (17, 9))
        times = rng.exponential(2.0, (1, 30))
        assert_block_matches(times, rng.choice([0, 1, 2], (1, 30)), (20, 10))

    def test_no_event_in_any_row(self):
        # a group without a risk-table row in the whole block
        rng = np.random.default_rng(13)
        times = rng.exponential(2.0, (4, 12))
        codes = np.zeros((4, 12), dtype=np.int64)
        codes[:, 5:] = rng.choice([1, 2], (4, 7))
        assert_block_matches(times, codes, (5, 7))

    @pytest.mark.parametrize("sizes", [(3, 9), (120, 40)])
    @pytest.mark.parametrize("bounds", [None, (5.0, 0.02)])
    @pytest.mark.parametrize("decimals", [None, 0])
    def test_drawn_chunks_whole_and_by_one_row(self, sizes, bounds, decimals):
        # every row of a drawn chunk, skipped ones too: under the bounds
        # (5.0, 0.02) group 2 mostly has no event at all, and times rounded
        # to integers tie across groups
        scn = resized(load_shipped_scenario("c_nonproportional"), *sizes)
        for times, codes in _samples(scn, 0, 30, 9, bounds):
            if bounds is not None:  # and some row has no event in group 2
                assert (codes[:, sizes[0]:] == 0).all(axis=1).any()
            if decimals is not None:
                times = times.round(decimals)
            assert_block_matches(times, codes, sizes)
            assert_block_matches(times[-1:], codes[-1:], sizes)

    def test_three_groups(self):
        rng = np.random.default_rng(14)
        assert_block_matches(*tied_block(rng, 12, (5, 7, 9), [(0, 1, 2), (1,)]), (5, 7, 9))


class TestChunks:
    @pytest.mark.parametrize("n, target, reps", [
        (50, None, 700),  # 200 uniforms a replication: three chunks
        (500, 0.3, 30),
        (17_000, None, 2),  # one replication alone needs more than a chunk
    ])
    def test_no_kernel_call_sees_more_than_a_chunk(self, block_fit_shapes, n, target, reps):
        scn = resized(with_censoring(load_shipped_scenario("a_null"), target), n, n)
        run_monte_carlo(scn, ["diff"], reps=reps, seed=3)
        per_rep = (2 if target is None else 3) * 2 * n
        assert sum(rows for rows, _ in block_fit_shapes) == reps
        for rows, width in block_fit_shapes:
            assert width == 2 * n
            assert rows * per_rep <= _CHUNK_UNIFORMS or rows == 1

    def test_samples_are_checked_once_per_chunk(self, monkeypatch):
        checks = []
        original = simulate._check_columns

        def counted(times, *args):
            checks.append(times.shape)
            return original(times, *args)

        monkeypatch.setattr(simulate, "_check_columns", counted)

        def refuse(self):
            raise AssertionError("a replication ran the public constructor's checks")

        monkeypatch.setattr(TwoGroupSample, "__post_init__", refuse)
        scn = load_shipped_scenario("b_proportional")
        step = _CHUNK_UNIFORMS // 200
        report = run_monte_carlo(scn, ["diff"], reps=step + 3, seed=1)
        assert report.degenerate_reps == 0 and report.methods[0].valid_reps == step + 3
        assert checks == [(step, 100), (3, 100)]

    def test_a_non_finite_draw_in_a_chunk_raises(self):
        # with shape 0.001 a time of interest is (-log(1 - u))^1000, which
        # overflows to inf for u above about 0.88
        steep = PiecewiseWeibullCif(0.5, (WeibullSegment(0.0, 0.001, 1.0),))
        other = PiecewiseWeibullCif(0.5, (WeibullSegment(0.0, 1.0, 1.0),))
        group = simulate.GroupSpec(steep, other, 50)
        scn = simulate.ScenarioSpec((group, group))
        with np.errstate(over="ignore"), pytest.raises(DataValidationError, match="finite"):
            run_monte_carlo(scn, reps=20, seed=1)

    def test_a_nan_draw_in_a_chunk_raises(self, monkeypatch):
        original = simulate.sample_events

        def with_nan(group, u):
            times, codes = original(group, u)
            times[-1, -1] = np.nan
            return times, codes

        monkeypatch.setattr(simulate, "sample_events", with_nan)
        with pytest.raises(DataValidationError, match="finite"):
            list(_samples(load_shipped_scenario("a_null"), 0, 5, 1, None))
