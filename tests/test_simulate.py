import dataclasses
import json
import math
import sys
import threading

import numpy as np
import pytest
from scipy.optimize import brentq

from rmtlkit import (
    SHIPPED_SCENARIOS,
    CensoringSpec,
    DataValidationError,
    GroupSpec,
    PiecewiseWeibullCif,
    ScenarioSpec,
    SmallSampleWarning,
    WeibullSegment,
    apply_censoring,
    calibrate_censoring,
    load_scenario,
    load_shipped_scenario,
    observed_power_at_n,
    run_monte_carlo,
    sample_events,
    scenario_from_dict,
    scenario_to_dict,
)
from rmtlkit import simulate
from rmtlkit.simulate import (
    _CALIBRATION_DRAWS,
    _CALIBRATION_SEED,
)

from helpers import engine_samples, sample_by_cause, true_cif


def exponential_cif(mass=0.7, scale=2.0):
    return PiecewiseWeibullCif(
        mass=mass, segments=(WeibullSegment(0.0, 1.0, scale),)
    )


def tiny_scenario(n=30, censoring=CensoringSpec(), mass=0.7):
    g = GroupSpec(
        interest=exponential_cif(mass=mass),
        competing=exponential_cif(mass=round(1.0 - mass, 12), scale=2.5),
        n=n,
    )
    return ScenarioSpec(groups=(g, g), censoring=censoring, label="tiny")


def replicate_one(scn, rep, seed, bounds):
    """One replication drawn on its own, group by group and cause by cause:
    the reference for the block drawer. Its stream is (seed, rep), drawn in
    one call: per group in turn, n causes, n times and, when censored, n
    censoring times.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(rep,)))
    width = 2 if bounds is None else 3
    sizes = [group.n for group in scn.groups]
    u = rng.random(width * sum(sizes))
    times, codes = [], []
    start = 0
    for k, (group, n) in enumerate(zip(scn.groups, sizes)):
        rows = u[start:start + width * n].reshape(width, n)
        start += width * n
        t, c = sample_by_cause(group, rows[:2])
        if bounds is not None:
            t, c = apply_censoring(t, c, bounds[k], rows[2])
        if not (c == 1).any():
            return None
        times.append(t)
        codes.append(c)
    return np.concatenate(times), np.concatenate(codes), np.repeat([0, 1], sizes)


def assert_block_matches_one_replication_draws(scn, start, stop, seed):
    """Draw [start, stop) as one block and compare each replication bitwise
    with its reference draw; return the number skipped."""
    bounds = calibrate_censoring(scn)
    block = list(engine_samples(scn, start, stop, seed, bounds))
    assert len(block) == stop - start
    skipped = 0
    for rep, sample in zip(range(start, stop), block):
        want = replicate_one(scn, rep, seed, bounds)
        if want is None:
            assert sample is None, rep
            skipped += 1
            continue
        assert sample is not None, rep
        for name, arr in zip(("times", "codes", "group"), want):
            got = getattr(sample, name)
            assert got.dtype == arr.dtype and np.array_equal(got, arr), (rep, name)
        assert sample.groups == ("1", "2")
    return skipped


def resized(scn, n1, n2):
    return dataclasses.replace(scn, groups=(dataclasses.replace(scn.groups[0], n=n1),
                                            dataclasses.replace(scn.groups[1], n=n2)))


class TestBlockDrawer:
    @pytest.mark.parametrize("name", SHIPPED_SCENARIOS)
    @pytest.mark.parametrize("target", [None, 0.45])
    @pytest.mark.parametrize("split", [None, (30, 70)])
    def test_matches_one_replication_draws(self, name, target, split):
        scn = load_shipped_scenario(name)
        if target is not None:
            scn = dataclasses.replace(scn, censoring=CensoringSpec(target=target))
        if split is not None:
            scn = resized(scn, *split)
        assert assert_block_matches_one_replication_draws(scn, 3, 40, 7) == 0

    @pytest.mark.parametrize("target", [None, 0.45])
    def test_a_block_crossing_chunks_matches(self, target):
        scn = resized(load_shipped_scenario("f_crossing"), 700, 1300)
        scn = dataclasses.replace(scn, censoring=CensoringSpec(target=target))
        width = 2 if target is None else 3
        start, stop = 5, 80
        # the block spans more than two chunks, and its start is no chunk edge
        assert (stop - start) * width * 2000 > 2 * simulate._CHUNK_UNIFORMS
        assert assert_block_matches_one_replication_draws(scn, start, stop, 11) == 0

    def test_skipped_replications_match(self):
        # interest mass 0.3 in groups of 2: about three in four replications
        # have a group without an event of interest
        scn = tiny_scenario(n=2, mass=0.3)
        skipped = assert_block_matches_one_replication_draws(scn, 0, 200, 21)
        assert 0 < skipped < 200
        scn = dataclasses.replace(scn, censoring=CensoringSpec(bound=1.0))
        skipped = assert_block_matches_one_replication_draws(scn, 0, 200, 21)
        assert 0 < skipped < 200

    def test_a_long_block_is_sampled_in_bounded_chunks(self, monkeypatch):
        seen = []
        original = simulate.sample_events

        def counted(groups, u):
            seen.append(u.shape)
            return original(groups, u)

        monkeypatch.setattr(simulate, "sample_events", counted)
        # 100 reps of 500 + 500 subjects: drawn unchunked, the causes and
        # times alone would be 2 * 10^5 uniforms
        scn = tiny_scenario(n=500)
        rep = run_monte_carlo(scn, ["diff"], reps=100, seed=23, workers=1)
        assert rep.reps == 100
        assert max(math.prod(shape) for shape in seen) <= simulate._CHUNK_UNIFORMS
        # one call per chunk over both groups' 1000 subjects, and the chunks
        # cover every rep
        assert [shape[2] for shape in seen] == [1000] * len(seen)
        assert sum(shape[1] for shape in seen) == 100
        assert len(seen) > 1

    @pytest.mark.parametrize("mixed", [False, True])
    @pytest.mark.parametrize("censoring", [CensoringSpec(), CensoringSpec(bound=2.0),
                                           CensoringSpec(target=0.3)])
    def test_three_segment_laws_match(self, mixed, censoring):
        # every law piecewise (or one single-segment law beside them), so
        # each law's later pieces are stepped through on its own offsets
        scn = dataclasses.replace(three_segment_scenario(mixed), censoring=censoring)
        assert assert_block_matches_one_replication_draws(scn, 2, 30, 17) == 0

    def test_an_unequal_split_with_a_censoring_bound_matches(self):
        # d_early's group 2 has a two-segment law of interest
        scn = resized(load_shipped_scenario("d_early"), 30, 70)
        scn = dataclasses.replace(scn, censoring=CensoringSpec(bound=4.0))
        assert assert_block_matches_one_replication_draws(scn, 0, 40, 29) == 0

    def test_reps_past_two_to_the_32_at_a_wide_seed_match(self):
        # a seed of five uint32 words; reps from 2^32 on are two words, and
        # their states come from numpy's own SeedSequence
        scn = load_shipped_scenario("a_null")
        assert assert_block_matches_one_replication_draws(
            scn, 2**32 - 3, 2**32 + 4, 2**130 + 7) == 0


def scaled(law, mass, factor):
    """``law`` with another mass and every segment's scale times ``factor``
    (which moves the offsets at which its later segments start)."""
    segments = tuple(dataclasses.replace(s, scale=s.scale * factor) for s in law.segments)
    return PiecewiseWeibullCif(mass=mass, segments=segments)


def three_segment_scenario(mixed=False):
    """Groups of 40 and 60 whose four laws are three_segment_law() at
    different scales, or with group 2's competing law a single segment."""
    law = three_segment_law()
    g1 = GroupSpec(scaled(law, 0.6, 1.0), scaled(law, 0.4, 1.7), n=40)
    competing = exponential_cif(mass=0.45) if mixed else scaled(law, 0.45, 0.6)
    g2 = GroupSpec(scaled(law, 0.55, 1.3), competing, n=60)
    return ScenarioSpec(groups=(g1, g2), label="three segments")


class TestEventLaw:
    def test_single_segment_matches_closed_form(self):
        law = exponential_cif(mass=1.0, scale=2.0)
        t = np.linspace(0.0, 10.0, 50)
        assert np.allclose(law.cdf(t), 1.0 - np.exp(-t / 2.0), atol=1e-14)

    def test_weibull_closed_form(self):
        law = PiecewiseWeibullCif(mass=1.0, segments=(WeibullSegment(0.0, 1.7, 3.0),))
        t = np.linspace(0.0, 12.0, 50)
        assert np.allclose(law.cdf(t), 1.0 - np.exp(-((t / 3.0) ** 1.7)), atol=1e-14)

    def test_piecewise_hazard_is_continuous(self):
        law = PiecewiseWeibullCif(
            mass=1.0,
            segments=(WeibullSegment(0.0, 1.0, 1.0), WeibullSegment(2.0, 2.0, 3.0)),
        )
        eps = 1e-9
        below = law.cumulative_hazard(2.0 - eps)
        above = law.cumulative_hazard(2.0 + eps)
        assert above - below < 1e-6
        t = np.linspace(0.01, 8.0, 200)
        assert np.all(np.diff(law.cumulative_hazard(t)) > 0)

    def test_cif_scales_by_mass(self):
        law = exponential_cif(mass=0.4)
        assert true_cif(law, 1e9) == pytest.approx(0.4, abs=1e-12)

    def test_inverse_cdf_round_trip(self):
        law = PiecewiseWeibullCif(
            mass=1.0,
            segments=(WeibullSegment(0.0, 0.8, 1.5), WeibullSegment(1.0, 2.0, 2.0)),
        )
        u = np.linspace(0.001, 0.999, 97)
        t = law.inverse_cdf(u)
        assert np.all(np.diff(t) > 0)
        assert np.allclose(law.cdf(t), u, atol=1e-8)

    def test_inverse_cdf_domain(self):
        with pytest.raises(DataValidationError):
            exponential_cif().inverse_cdf(np.array([1.0]))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_inverse_cdf_rejects_non_finite(self, bad):
        with pytest.raises(DataValidationError):
            exponential_cif().inverse_cdf(np.array([0.5, bad]))

    def test_segment_validation(self):
        with pytest.raises(DataValidationError):
            WeibullSegment(0.0, -1.0, 2.0)
        with pytest.raises(DataValidationError):
            PiecewiseWeibullCif(mass=0.5, segments=(WeibullSegment(1.0, 1.0, 1.0),))
        with pytest.raises(DataValidationError):
            PiecewiseWeibullCif(
                mass=0.5,
                segments=(WeibullSegment(0.0, 1.0, 1.0), WeibullSegment(0.0, 1.0, 2.0)),
            )
        with pytest.raises(DataValidationError):
            PiecewiseWeibullCif(mass=1.5, segments=(WeibullSegment(0.0, 1.0, 1.0),))

    def test_a_law_needs_a_segment(self):
        with pytest.raises(DataValidationError,
                           match="^at least one Weibull segment required$"):
            PiecewiseWeibullCif(mass=0.5, segments=())

    def test_a_groups_masses_must_sum_to_one(self):
        with pytest.raises(DataValidationError, match=r"^interest and competing masses "
                                                      r"must sum to 1, got 0.7 \+ 0.2$"):
            GroupSpec(interest=exponential_cif(mass=0.7), competing=exponential_cif(mass=0.2),
                      n=10)

    def test_a_scenario_has_two_groups(self):
        g = tiny_scenario().groups[0]
        with pytest.raises(DataValidationError, match="^a scenario needs exactly two groups$"):
            ScenarioSpec(groups=(g, g, g))


def three_segment_law():
    # shapes below and above 1, so the hazard both falls and rises
    return PiecewiseWeibullCif(
        mass=1.0,
        segments=(
            WeibullSegment(0.0, 0.8, 1.5),
            WeibullSegment(1.0, 2.0, 2.0),
            WeibullSegment(2.5, 0.5, 0.7),
        ),
    )


class TestExactInverse:
    def test_cdf_of_inverse_is_identity(self):
        law = three_segment_law()
        u = np.linspace(0.0, 0.999999, 20_001)
        assert np.max(np.abs(law.cdf(law.inverse_cdf(u)) - u)) <= 1e-15

    def test_segment_boundaries_map_back(self):
        law = three_segment_law()
        for seg in law.segments:
            t = law.inverse_cdf(law.cdf(np.array([seg.start])))[0]
            assert t == pytest.approx(seg.start, rel=1e-12, abs=0.0)

    def test_zero_maps_to_zero(self):
        assert three_segment_law().inverse_cdf(np.array([0.0]))[0] == 0.0

    def test_far_tail_matches_single_segment_form(self):
        u = 1.0 - 1e-12
        for shape, scale in ((0.8, 1.5), (2.0, 2.0), (0.5, 0.7)):
            law = PiecewiseWeibullCif(
                mass=1.0, segments=(WeibullSegment(0.0, shape, scale),)
            )
            t = law.inverse_cdf(np.array([u]))[0]
            assert math.isfinite(t)
            assert t == pytest.approx(scale * (-math.log1p(-u)) ** (1.0 / shape),
                                      rel=1e-15)
        t = three_segment_law().inverse_cdf(np.array([u]))[0]
        assert math.isfinite(t) and t > 2.5

    def test_monotone_across_boundaries(self):
        law = three_segment_law()
        edges = law.cdf(np.array([s.start for s in law.segments[1:]]))
        u = np.sort(np.concatenate([
            np.linspace(0.0, 0.999, 5001),
            np.nextafter(edges, 0.0), edges, np.nextafter(edges, 1.0),
        ]))
        assert np.all(np.diff(law.inverse_cdf(u)) >= 0.0)


class TestSampling:
    def test_deterministic_given_rng_state(self):
        g = tiny_scenario().groups[0]
        t1, c1 = sample_events(g, np.random.default_rng(5).random((2, g.n)))
        t2, c2 = sample_events(g, np.random.default_rng(5).random((2, g.n)))
        assert np.array_equal(t1, t2) and np.array_equal(c1, c2)

    def test_cause_mix_matches_mass(self):
        g = GroupSpec(
            interest=exponential_cif(mass=0.7),
            competing=exponential_cif(mass=0.3, scale=2.5),
            n=2,
        )
        times, codes = sample_events(g, np.random.default_rng(6).random((2, 200_000)))
        assert np.mean(codes == 1) == pytest.approx(0.7, abs=0.005)
        assert np.all(times > 0) and np.all(np.isfinite(times))

    def test_empirical_cdf_matches_law(self):
        g = tiny_scenario().groups[0]
        times, codes = sample_events(g, np.random.default_rng(7).random((2, 200_000)))
        interest = times[codes == 1]
        for q in (0.25, 0.5, 0.75):
            expected = g.interest.inverse_cdf(np.array([q]))[0]
            got = np.quantile(interest, q)
            assert got == pytest.approx(expected, rel=0.02)

    def test_groups_side_by_side_match_each_group_by_cause(self):
        g1, g2 = three_segment_scenario().groups
        u = np.random.default_rng(12).random((2, 7, g1.n + g2.n))
        times, codes = sample_events((g1, g2), u)
        assert times.shape == codes.shape == (7, 100)
        for g, cols in ((g1, slice(0, g1.n)), (g2, slice(g1.n, None))):
            want_t, want_c = sample_by_cause(g, u[..., cols])
            assert np.array_equal(times[:, cols], want_t)
            assert codes.dtype == want_c.dtype and np.array_equal(codes[:, cols], want_c)

    def test_one_group_or_a_tuple_of_it_draw_the_same(self):
        g = three_segment_scenario().groups[0]
        for shape in ((2, 1000), (2, 5, 40)):
            u = np.random.default_rng(13).random(shape)
            one, pair = sample_events(g, u), sample_events((g,), u)
            assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(one, pair))
            assert all(np.array_equal(a, b) for a, b in zip(one, sample_by_cause(g, u)))

    def test_columns_must_match_the_groups_subjects(self):
        g1, g2 = three_segment_scenario().groups
        u = np.random.default_rng(16).random((2, 3, g1.n + g2.n - 1))
        with pytest.raises(DataValidationError, match="99 columns for 100 subjects"):
            sample_events((g1, g2), u)

    @pytest.mark.parametrize("planes", [1, 3])
    def test_u_must_hold_a_cause_and_a_time_plane(self, planes):
        g = tiny_scenario().groups[0]
        u = np.random.default_rng(17).random((planes, g.n))
        with pytest.raises(DataValidationError, match=f"2 planes.*got {planes}"):
            sample_events(g, u)

    @pytest.mark.parametrize("bad", [1.0, float("nan"), -0.5])
    def test_time_uniforms_outside_the_unit_interval_raise(self, bad):
        g = tiny_scenario().groups[0]
        u = np.random.default_rng(14).random((2, 2, 60))
        u[1, 1, 7] = bad
        with pytest.raises(DataValidationError, match=r"\[0, 1\)"):
            sample_events((g, g), u)

    @pytest.mark.parametrize("bad", [1.5, 1.0, float("nan"), -0.5])
    def test_cause_uniforms_outside_the_unit_interval_raise(self, bad):
        # a cause uniform of 1 or more, or NaN, would draw a competing event
        g = tiny_scenario().groups[0]
        u = np.random.default_rng(14).random((2, 2, 60))
        u[0, 0, 3] = bad
        with pytest.raises(DataValidationError, match=r"^uniform draws must lie in \[0, 1\)$"):
            sample_events((g, g), u)

    @pytest.mark.parametrize("bad", [-0.5, 1.0, float("nan"), float("inf")])
    def test_censoring_uniforms_outside_the_unit_interval_raise(self, bad):
        # -0.5 would give a negative observed time, and NaN an uncensored subject
        times, codes = np.ones(3), np.ones(3, dtype=int)
        for u in (bad, np.array([0.5, bad, 0.25])):
            with pytest.raises(DataValidationError,
                               match=r"^uniform draws must lie in \[0, 1\)$"):
                apply_censoring(times, codes, 2.0, u)

    def test_censoring_bound_per_subject(self):
        rng = np.random.default_rng(15)
        times = rng.exponential(2.0, (4, 30))
        codes = np.where(rng.random((4, 30)) < 0.6, 1, 2)
        bound = np.repeat([1.5, 4.0], 15)
        u = rng.random((4, 30))
        observed, new_codes = apply_censoring(times, codes, bound, u)
        assert 0 < np.count_nonzero(new_codes == 0) < times.size
        for j in range(30):
            want = apply_censoring(times[:, j], codes[:, j], float(bound[j]), u[:, j])
            assert np.array_equal(observed[:, j], want[0])
            assert np.array_equal(new_codes[:, j], want[1])

    @pytest.mark.parametrize("bad", [0.0, float("nan")])
    def test_censoring_bounds_not_positive_raise(self, bad):
        times, codes, u = np.ones(3), np.ones(3, dtype=int), np.full(3, 0.5)
        for bound in (bad, np.array([2.0, bad, 1.0])):
            with pytest.raises(DataValidationError, match="censoring bound must be > 0"):
                apply_censoring(times, codes, bound, u)

    @pytest.mark.parametrize("bound_shape, u_shape", [((3,), (3, 4)), ((4,), (3,)),
                                                      ((), (2, 3))])
    def test_censoring_inputs_that_do_not_broadcast_to_times_raise(self, bound_shape,
                                                                   u_shape):
        # the last pair broadcasts with times, but to a larger shape than times
        times, codes = np.ones(3), np.ones(3, dtype=int)
        bound, u = np.full(bound_shape, 2.0), np.full(u_shape, 0.5)
        with pytest.raises(DataValidationError, match=r"to times of shape \(3,\)") as exc:
            apply_censoring(times, codes, bound, u)
        assert f"bound of shape {bound_shape} and uniforms of shape {u_shape}" in str(exc.value)

    def test_censoring_strictly_before_event(self):
        rng = np.random.default_rng(8)
        times = np.full(1000, 1.0)
        codes = np.ones(1000, dtype=int)
        observed, new_codes = apply_censoring(times, codes, 2.0, rng.random(1000))
        censored = new_codes == 0
        assert np.all(observed[censored] < 1.0)
        assert np.all(observed[~censored] == 1.0)
        # C ~ U(0, 2) censors T = 1 with probability 1/2
        assert np.mean(censored) == pytest.approx(0.5, abs=0.05)


class TestCalibration:
    def test_hits_target_rate(self):
        scn = tiny_scenario(censoring=CensoringSpec(target=0.3))
        b1, b2 = calibrate_censoring(scn)
        rng = np.random.default_rng(9)
        times, codes = sample_events(scn.groups[0], rng.random((2, 200_000)))
        _, new_codes = apply_censoring(times, codes, b1, rng.random(200_000))
        assert np.mean(new_codes == 0) == pytest.approx(0.3, abs=0.01)
        assert b2 > 0

    @pytest.mark.parametrize("name", SHIPPED_SCENARIOS)
    def test_exact_on_the_calibration_draws(self, name):
        shipped = load_shipped_scenario(name)
        for target in (0.01, 0.15, 0.3, 0.45, 0.9):
            scn = dataclasses.replace(shipped, censoring=CensoringSpec(target=target))
            bounds = calibrate_censoring(scn)
            for g, group in enumerate(scn.groups):
                rng = np.random.default_rng(
                    np.random.SeedSequence(entropy=_CALIBRATION_SEED, spawn_key=(g,))
                )
                t, _ = sample_by_cause(group, rng.random((2, _CALIBRATION_DRAWS)))

                def rate(c):
                    return float(np.mean(np.minimum(t, c)) / c)

                c = bounds[g]
                assert rate(c) == pytest.approx(target, abs=1e-12)
                # the rate falls from 1 near 0 to mean(t)/c beyond max(t)
                hi = 2.0 * max(t.max(), t.mean() / target)
                root = brentq(lambda x: rate(x) - target, 1e-12, hi, xtol=1e-14,
                              rtol=1e-15)
                assert c == pytest.approx(root, rel=1e-9)

    def test_zero_target_means_no_censoring(self):
        assert calibrate_censoring(tiny_scenario(censoring=CensoringSpec(target=0.0))) is None
        assert calibrate_censoring(tiny_scenario()) is None

    def test_explicit_bound_passes_through(self):
        scn = tiny_scenario(censoring=CensoringSpec(bound=3.5))
        assert calibrate_censoring(scn) == (3.5, 3.5)

    def test_bad_target_rejected(self):
        with pytest.raises(DataValidationError):
            CensoringSpec(target=0.95)

    def test_target_and_bound_conflict(self):
        with pytest.raises(DataValidationError):
            CensoringSpec(target=0.2, bound=1.0)

    def test_deterministic(self):
        scn = tiny_scenario(censoring=CensoringSpec(target=0.25))
        assert calibrate_censoring(scn) == calibrate_censoring(scn)

    def test_bounds_are_kept_per_laws_and_target(self, monkeypatch):
        calibration_draws = []
        original = simulate.sample_events

        def counted(group, u):
            if u.shape[-1] == _CALIBRATION_DRAWS:
                calibration_draws.append(group)
            return original(group, u)

        monkeypatch.setattr(simulate, "sample_events", counted)
        law = exponential_cif(mass=0.6, scale=1.7)  # used by no other test
        g = GroupSpec(interest=law, competing=exponential_cif(mass=0.4), n=30)
        scn = ScenarioSpec(groups=(g, g), censoring=CensoringSpec(target=0.35))
        first = observed_power_at_n(scn, 40, ["diff"], reps=2, seed=19)
        assert len(calibration_draws) == 2
        second = observed_power_at_n(scn, 60, ["diff"], reps=2, seed=19)
        assert len(calibration_draws) == 2
        assert second.censoring_bounds == first.censoring_bounds
        # another target calibrates again
        calibrate_censoring(dataclasses.replace(scn, censoring=CensoringSpec(target=0.2)))
        assert len(calibration_draws) == 4


class TestMonteCarlo:
    def test_report_shape_and_counts(self):
        rep = run_monte_carlo(tiny_scenario(), ["diff", "sdiff"], reps=30, seed=11)
        assert rep.reps == 30
        assert len(rep.methods) == 2
        for m in rep.methods:
            assert m.valid_reps + m.degenerate_reps + rep.degenerate_reps == 30
            assert 0.0 <= m.rate <= 1.0
            assert m.rejections <= m.valid_reps

    def test_same_seed_same_report(self):
        a = run_monte_carlo(tiny_scenario(), ["diff"], reps=25, seed=12)
        b = run_monte_carlo(tiny_scenario(), ["diff"], reps=25, seed=12)
        assert a.to_dict() == b.to_dict()

    def test_worker_count_invariance(self):
        one = run_monte_carlo(tiny_scenario(), ["diff", "sdiff"], reps=40, seed=13,
                              workers=1)
        three = run_monte_carlo(tiny_scenario(), ["diff", "sdiff"], reps=40, seed=13,
                                workers=3)
        assert json.dumps(one.to_dict()) == json.dumps(three.to_dict())

    def test_to_dict_key_order(self):
        # the frozen tests compare dicts, which ignore order; the simulate
        # command's JSON bytes do not
        d = run_monte_carlo(tiny_scenario(), reps=5, seed=3).to_dict()
        assert list(d) == ["scenario_label", "reps", "degenerate_reps", "seed", "alpha",
                           "rho", "tau_rule", "censoring_bounds", "methods"]
        assert list(d["methods"]) == ["diff", "sdiff"]
        for entry in d["methods"].values():
            assert list(entry) == ["rejections", "valid_reps", "degenerate_reps", "rate",
                                   "mc_se"]

    def test_frozen_regression(self):
        rep = run_monte_carlo(load_shipped_scenario("f_crossing"), reps=200, seed=7)
        assert rep.to_dict() == {
            "scenario_label": "crossing incidence curves",
            "reps": 200,
            "degenerate_reps": 0,
            "seed": 7,
            "alpha": 0.05,
            "rho": 0.5,
            "tau_rule": "min over groups of the last observed event-of-interest time",
            "censoring_bounds": None,
            "methods": {
                "diff": {"rejections": 73, "valid_reps": 200, "degenerate_reps": 0,
                         "rate": 0.365, "mc_se": 0.0340422531569225},
                "sdiff": {"rejections": 78, "valid_reps": 200, "degenerate_reps": 0,
                          "rate": 0.39, "mc_se": 0.03448912872196107},
            },
        }

    def test_frozen_regression_censored(self):
        # pins the censoring stream: one uniform per subject after its cause
        # and time draws, scaled by the calibrated bound
        scn = dataclasses.replace(load_shipped_scenario("a_null"),
                                  censoring=CensoringSpec(target=0.3))
        rep = run_monte_carlo(scn, reps=200, seed=7, workers=2)
        assert rep.to_dict() == {
            "scenario_label": "null: identical groups",
            "reps": 200,
            "degenerate_reps": 0,
            "seed": 7,
            "alpha": 0.05,
            "rho": 0.5,
            "tau_rule": "min over groups of the last observed event-of-interest time",
            "censoring_bounds": [6.897491320863044, 6.887922490768906],
            "methods": {
                "diff": {"rejections": 17, "valid_reps": 200, "degenerate_reps": 0,
                         "rate": 0.085, "mc_se": 0.01971991379291502},
                "sdiff": {"rejections": 9, "valid_reps": 200, "degenerate_reps": 0,
                          "rate": 0.045, "mc_se": 0.014658615214269049},
            },
        }

    def test_frozen_regression_unequal_groups(self):
        # 50/100 split: the groups' uniforms sit at different offsets of
        # each replication's draw and have different lengths
        scn = dataclasses.replace(load_shipped_scenario("c_nonproportional"),
                                  censoring=CensoringSpec(target=0.3))
        rep = observed_power_at_n(scn, 150, reps=200, seed=7, ratio=2, workers=2)
        assert rep.to_dict() == {
            "scenario_label": "non-proportional difference",
            "reps": 200,
            "degenerate_reps": 0,
            "seed": 7,
            "alpha": 0.05,
            "rho": 0.5,
            "tau_rule": "min over groups of the last observed event-of-interest time",
            "censoring_bounds": [7.323893210419427, 8.526932486668795],
            "methods": {
                "diff": {"rejections": 145, "valid_reps": 200, "degenerate_reps": 0,
                         "rate": 0.725, "mc_se": 0.031573327350787724},
                "sdiff": {"rejections": 132, "valid_reps": 200, "degenerate_reps": 0,
                          "rate": 0.66, "mc_se": 0.03349626844888845},
            },
        }

    def test_replication_draws_once(self, monkeypatch):
        # every replication's row of a chunk is its own stream's one draw,
        # bitwise, made straight into one (R, total) buffer per chunk
        outs = []

        class Recorded(np.random.Generator):
            def random(self, size=None, dtype=np.float64, out=None):
                outs.append(out)
                return super().random(size, dtype, out)

        monkeypatch.setattr(simulate.np.random, "Generator", Recorded)
        # a fresh thread cache, so this thread's pair is made with Recorded
        monkeypatch.setattr(simulate, "_thread", threading.local())
        monkeypatch.setattr(simulate, "_CHUNK_UNIFORMS", 3 * 120)  # 3 reps a chunk
        scn = tiny_scenario(n=20, censoring=CensoringSpec(bound=3.0))
        samples = list(engine_samples(scn, 3, 10, 5, calibrate_censoring(scn)))
        assert len(samples) == 7 and None not in samples
        assert len(outs) == 7 and all(out.base is not None for out in outs)
        buffers = [outs[0].base, outs[3].base, outs[6].base]
        assert [b.shape for b in buffers] == [(3, 120), (3, 120), (1, 120)]
        assert [out.base for out in outs] == [buffers[i // 3] for i in range(7)]
        assert np.array_equal(np.concatenate(buffers), np.array(outs))
        for rep, out in zip(range(3, 10), outs):
            stream = np.random.SeedSequence(entropy=5, spawn_key=(rep,))
            assert np.array_equal(out, np.random.default_rng(stream).random(120)), rep

    def test_threads_keep_their_own_generator(self):
        # four threads run the same studies at once and switch often: each
        # gets the serial reports, drawn with a generator of its own
        scenarios = [load_shipped_scenario(name) for name in ("a_null", "f_crossing")]

        def reports():
            return [json.dumps(run_monte_carlo(scn, reps=40, seed=13).to_dict())
                    for scn in scenarios]

        want = reports()
        ready = threading.Barrier(4, timeout=60)
        got, generators = {}, {}

        def study(k):
            ready.wait()
            got[k] = reports()
            generators[k] = simulate._thread.pair[1]

        threads = [threading.Thread(target=study, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == dict.fromkeys(range(4), want)
        # the objects are all alive here, so distinct ids are distinct objects
        held = [simulate._thread.pair[1], *generators.values()]
        assert len({id(generator) for generator in held}) == 5

    def test_stream_states_are_numpys(self):
        # the derived (state, inc) of PCG64(SeedSequence(seed, (rep,))) on
        # 10^4 pairs: seeds of 1 to 5 uint32 words and 0, reps from 0 past
        # 2^32 (two words) and 2^64 (three)
        rng = np.random.default_rng(0)
        seeds = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 5, 2**96 - 3, 2**96,
                 2**127 + 11, 2**128 - 1, 2**128, 2**130 + 2**64 + 9]
        seeds += [int(x) for x in rng.integers(0, 2**63, 8)]
        fixed = [0, 1, 2, 2**31, 2**32 - 1, 2**32, 2**32 + 1, 2**40 + 3, 2**64 - 1,
                 2**64, 2**64 + 2**32 + 7]
        pairs = 0
        for seed in seeds:
            reps = fixed + [int(r) for r in rng.integers(0, 2**16, 350)]
            reps += [int(r) for r in rng.integers(2**32, 2**48, 139)]
            for rep, got in zip(reps, simulate._stream_states(seed)(reps)):
                bit_generator = np.random.PCG64(
                    np.random.SeedSequence(entropy=seed, spawn_key=(rep,)))
                want = bit_generator.state["state"]
                assert got == (want["state"], want["inc"]), (seed, rep)
                pairs += 1
        assert pairs == 10_000

    @pytest.mark.parametrize("workers", [1, 2])
    def test_seed_is_checked_before_any_draw_and_reported_as_an_int(self, workers,
                                                                      monkeypatch):
        scn = tiny_scenario(censoring=CensoringSpec(target=0.2))
        want = run_monte_carlo(scn, ["diff"], reps=6, seed=3, workers=workers).to_dict()
        got = run_monte_carlo(scn, ["diff"], reps=6, seed=np.int64(3),
                              workers=workers).to_dict()
        assert type(got["seed"]) is int
        assert json.dumps(got) == json.dumps(want)

        def refused(*args):
            raise AssertionError("calibrated or drew before checking the seed")

        monkeypatch.setattr(simulate, "calibrate_censoring", refused)
        monkeypatch.setattr(simulate, "_samples", refused)
        for bad in (-1, True, np.bool_(False), 3.0, "3"):
            with pytest.raises(DataValidationError, match="seed must be an integer"):
                run_monte_carlo(scn, ["diff"], reps=6, seed=bad, workers=workers)
        with pytest.raises(DataValidationError, match="seed must be an integer"):
            observed_power_at_n(scn, 40, ["diff"], reps=6, seed=-5, workers=workers)

    def test_counts_are_plain_ints_checked_before_any_draw(self, monkeypatch):
        scn = tiny_scenario()
        want = run_monte_carlo(scn, ["diff"], reps=3, seed=3).to_dict()
        got = run_monte_carlo(scn, ["diff"], reps=np.int64(3), seed=3,
                              workers=np.int64(1)).to_dict()
        assert type(got["reps"]) is int
        assert json.dumps(got) == json.dumps(want)
        got = observed_power_at_n(scn, np.int64(40), ["diff"], reps=3, seed=3).to_dict()
        assert json.dumps(got) == json.dumps(
            observed_power_at_n(scn, 40, ["diff"], reps=3, seed=3).to_dict())

        def refused(*args):
            raise AssertionError("calibrated or drew before checking the counts")

        monkeypatch.setattr(simulate, "calibrate_censoring", refused)
        monkeypatch.setattr(simulate, "_samples", refused)
        for name, bad in (("reps", True), ("reps", 2.5), ("reps", np.bool_(True)),
                          ("reps", "3"), ("workers", 1.5), ("workers", False)):
            with pytest.raises(DataValidationError,
                               match=f"^{name} must be an integer, got {bad!r}$"):
                run_monte_carlo(scn, ["diff"], seed=3, **{"reps": 3, name: bad})
        with pytest.raises(DataValidationError,
                           match=r"^n_total must be an integer, got 100\.5$"):
            observed_power_at_n(scn, 100.5, ["diff"], reps=3)
        # out-of-range values keep their messages
        for kwargs, message in (({"reps": 0}, "reps must be >= 1, got 0"),
                                ({"workers": 0}, "workers must be >= 1, got 0")):
            with pytest.raises(DataValidationError, match=f"^{message}$"):
                run_monte_carlo(scn, ["diff"], **{"reps": 3, **kwargs})
        with pytest.raises(DataValidationError, match="^n_total must be >= 4, got 3$"):
            observed_power_at_n(scn, np.int64(3), ["diff"], reps=3)

    def test_different_seeds_differ(self):
        a = run_monte_carlo(tiny_scenario(), ["diff"], reps=40, seed=1)
        b = run_monte_carlo(tiny_scenario(), ["diff"], reps=40, seed=2)
        assert a.to_dict() != b.to_dict()

    def test_degenerate_replications_are_skipped_and_counted(self):
        # interest mass 0.05 in groups of 2: most replications lack events
        scn = tiny_scenario(n=2, mass=0.05)
        rep = run_monte_carlo(scn, ["diff"], reps=50, seed=14)
        assert rep.degenerate_reps > 0
        m = rep.methods[0]
        assert m.valid_reps + m.degenerate_reps + rep.degenerate_reps == 50

    def test_method_normalization(self):
        rep = run_monte_carlo(tiny_scenario(), "diff", reps=5, seed=15)
        assert [m.method.value for m in rep.methods] == ["diff"]
        with pytest.raises(DataValidationError):
            run_monte_carlo(tiny_scenario(), [], reps=5)

    @pytest.mark.parametrize("methods", [["diff", "diff"],
                                         ["sdiff", "diff", simulate.TestMethod.SDIFF]])
    def test_a_repeated_method_is_refused(self, monkeypatch, methods):
        # its summaries would be one key of the report's dict
        def refuse(*args):
            raise AssertionError("the study drew before its checks")

        monkeypatch.setattr(simulate, "_samples", refuse)
        with pytest.raises(DataValidationError, match="^each test method at most once, got "):
            run_monte_carlo(tiny_scenario(), methods, reps=5)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_methods_are_reported_in_the_order_asked(self, workers):
        # groups of 4 skip some replications, and each method has degenerate
        # ones and a rejection count of its own
        scn = tiny_scenario(n=4, mass=0.5)
        want = run_monte_carlo(scn, ["diff", "sdiff"], reps=60, seed=9, workers=workers)
        got = run_monte_carlo(scn, ["sdiff", "diff"], reps=60, seed=9, workers=workers)
        assert [m.method.value for m in got.methods] == ["sdiff", "diff"]
        assert got.methods == want.methods[::-1]
        assert got.degenerate_reps == want.degenerate_reps > 0
        diff, sdiff = want.methods
        assert diff.rejections != sdiff.rejections and diff.degenerate_reps > 0

    def test_rep_and_worker_validation(self):
        with pytest.raises(DataValidationError):
            run_monte_carlo(tiny_scenario(), ["diff"], reps=0)
        with pytest.raises(DataValidationError):
            run_monte_carlo(tiny_scenario(), ["diff"], reps=5, workers=0)

    @pytest.mark.parametrize("option, value, message", [
        ("alpha", 1.5, r"alpha must be in \(0, 1\), got 1.5"),
        ("rho", 1.5, r"rho must be in \[0, 1\], got 1.5"),
        ("rho", math.nan, r"rho must be in \[0, 1\], got nan"),
    ], ids=["alpha", "rho", "rho-nan"])
    def test_alpha_and_rho_checked_before_any_draw(self, monkeypatch, option, value,
                                                   message):
        def refuse(*args):
            raise AssertionError("the study calibrated or drew before its checks")

        monkeypatch.setattr(simulate, "calibrate_censoring", refuse)
        monkeypatch.setattr(simulate, "_samples", refuse)
        with pytest.raises(DataValidationError, match=message):
            run_monte_carlo(tiny_scenario(), reps=5, **{option: value})

    def test_the_report_keeps_the_checked_alpha_and_rho(self):
        report = run_monte_carlo(tiny_scenario(), ["diff"], reps=3, alpha=np.float32(0.05),
                                 rho=1)
        assert (type(report.alpha), type(report.rho)) == (float, float)
        assert (report.alpha, report.rho) == (float(np.float32(0.05)), 1.0)
        assert json.loads(json.dumps(report.to_dict()))["alpha"] == report.alpha

    @pytest.mark.parametrize("name", ["a_null", "f_crossing"])
    @pytest.mark.parametrize("target", [None, 0.45])
    def test_reports_do_not_depend_on_the_chunk_size(self, monkeypatch, name, target):
        # chunks of 1, of 7 and of the default number of replications: each
        # pads its fits to its own widest row
        scn = dataclasses.replace(load_shipped_scenario(name),
                                  censoring=CensoringSpec(target=target))
        per_rep = (2 if target is None else 3) * 100
        reports = []
        for rows in (1, 7, None):
            if rows is not None:
                monkeypatch.setattr(simulate, "_CHUNK_UNIFORMS", rows * per_rep)
            reports.append(json.dumps(run_monte_carlo(scn, reps=60, seed=31).to_dict()))
        assert reports[0] == reports[1] == reports[2]


# Each shipped scenario, 300 reps at seed 7, as shipped and at 45%
# calibrated censoring: skipped replications, then (rejections, valid,
# degenerate) of Diff and of sDiff, then the censoring bounds. Reports must
# stay byte-identical as the engine's sampling and fitting change.
FROZEN_REPORTS = [
    ("a_null", None, 0, (20, 300, 0), (14, 300, 0), None),
    ("a_null", 0.45, 0, (30, 300, 0), (14, 300, 0), (4.401135479204312, 4.399287701838078)),
    ("b_proportional", None, 0, (151, 300, 0), (148, 300, 0), None),
    ("b_proportional", 0.45, 0, (144, 300, 0), (118, 300, 0),
     (4.064728016108564, 6.28578686496005)),
    ("c_nonproportional", None, 0, (176, 300, 0), (174, 300, 0), None),
    ("c_nonproportional", 0.45, 0, (227, 300, 0), (195, 300, 0),
     (4.304357267258425, 5.418952936672273)),
    ("d_early", None, 0, (37, 300, 0), (41, 300, 0), None),
    ("d_early", 0.45, 0, (102, 300, 0), (83, 300, 0), (4.575538614299915, 3.3107676378716335)),
    ("e_late", None, 0, (35, 300, 0), (34, 300, 0), None),
    ("e_late", 0.45, 0, (35, 300, 0), (21, 300, 0), (4.575538614299915, 3.9223399664000387)),
    ("f_crossing", None, 0, (116, 300, 0), (121, 300, 0), None),
    ("f_crossing", 0.45, 0, (275, 300, 0), (262, 300, 0), (3.1154095409667706, 5.0055517241209175)),
]


@pytest.mark.parametrize("name, target, skipped, diff, sdiff, bounds", FROZEN_REPORTS,
                         ids=[f"{row[0]}-{row[1] or 'uncensored'}" for row in FROZEN_REPORTS])
def test_frozen_shipped_reports(name, target, skipped, diff, sdiff, bounds):
    scn = dataclasses.replace(load_shipped_scenario(name),
                              censoring=CensoringSpec(target=target))
    report = run_monte_carlo(scn, reps=300, seed=7)
    assert report.degenerate_reps == skipped
    assert [(m.rejections, m.valid_reps, m.degenerate_reps) for m in report.methods] == [
        diff, sdiff]
    assert report.censoring_bounds == bounds


class TestObservedPower:
    def test_split_by_scenario_ratio(self):
        scn = tiny_scenario(n=30)
        scn = dataclasses.replace(
            scn, groups=(scn.groups[0], dataclasses.replace(scn.groups[1], n=60))
        )
        rep = observed_power_at_n(scn, 90, ["diff"], reps=5, seed=16)
        assert rep.reps == 5  # ran at the overridden sizes without error

    def test_small_total_warns(self):
        with pytest.warns(SmallSampleWarning):
            observed_power_at_n(tiny_scenario(), 10, ["diff"], reps=3, seed=17)

    def test_tiny_total_rejected(self):
        with pytest.raises(DataValidationError):
            observed_power_at_n(tiny_scenario(), 3, ["diff"], reps=3)

    def test_a_split_leaving_a_group_below_two_rejected(self):
        with pytest.raises(DataValidationError, match=r"^split n1=1, n2=19 leaves a group "
                                                      r"below the minimum size 2$"):
            observed_power_at_n(tiny_scenario(), 20, ["diff"], reps=3, ratio=20)

    def test_original_scenario_untouched(self):
        scn = tiny_scenario(n=30)
        observed_power_at_n(scn, 24, ["diff"], reps=3, seed=18)
        assert scn.groups[0].n == 30 and scn.groups[1].n == 30


class TestScenarioFiles:
    def test_round_trip(self):
        scn = tiny_scenario(censoring=CensoringSpec(target=0.2))
        again = scenario_from_dict(scenario_to_dict(scn))
        assert again == scn

    def test_unknown_root_key_named(self):
        with pytest.raises(DataValidationError, match="bogus"):
            scenario_from_dict({"groups": [], "bogus": 1})

    def test_missing_group_key_named(self):
        data = scenario_to_dict(tiny_scenario())
        del data["groups"][1]["interest"]
        with pytest.raises(DataValidationError, match=r"groups\[1\].interest"):
            scenario_from_dict(data)

    def test_bad_segment_field_named(self):
        data = scenario_to_dict(tiny_scenario())
        data["groups"][0]["interest"]["segments"][0]["shape"] = "x"
        with pytest.raises(DataValidationError,
                           match=r"groups\[0\].interest.segments\[0\].shape"):
            scenario_from_dict(data)

    def test_segment_keys_checked_in_turn(self):
        # a bad shape is reported before the missing scale that follows it
        data = scenario_to_dict(tiny_scenario())
        data["groups"][0]["interest"]["segments"][0] = {"start": 0, "shape": "x"}
        with pytest.raises(DataValidationError,
                           match=r"segments\[0\].shape'?: must be a number"):
            scenario_from_dict(data)

    def test_bool_is_not_a_number(self):
        data = scenario_to_dict(tiny_scenario())
        data["groups"][0]["interest"]["p"] = True
        with pytest.raises(DataValidationError, match="must be a number"):
            scenario_from_dict(data)

    def test_unknown_censoring_key_named(self):
        data = scenario_to_dict(tiny_scenario())
        data["censoring"] = {"rate": 0.2}
        with pytest.raises(DataValidationError, match="rate"):
            scenario_from_dict(data)

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(DataValidationError, match="JSON"):
            load_scenario(path)

    def test_shipped_scenarios_load(self):
        for name in SHIPPED_SCENARIOS:
            scn = load_shipped_scenario(name)
            assert len(scn.groups) == 2
            for g in scn.groups:
                assert g.interest.mass + g.competing.mass == pytest.approx(1.0)

    def test_null_scenario_groups_identical(self):
        scn = load_shipped_scenario("a_null")
        assert scn.groups[0] == scn.groups[1]

    def test_crossing_scenario_curves_cross(self):
        scn = load_shipped_scenario("f_crossing")
        t = np.linspace(0.05, 9.0, 300)
        d = true_cif(scn.groups[1].interest, t) - true_cif(scn.groups[0].interest, t)
        signs = np.sign(d[np.abs(d) > 1e-9])
        assert len(np.unique(signs)) == 2

    def test_unknown_shipped_name(self):
        with pytest.raises(DataValidationError, match="unknown scenario"):
            load_shipped_scenario("zzz")
