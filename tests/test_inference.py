import dataclasses
import warnings

import numpy as np
import pytest
from scipy.special import ndtr

from rmtlkit import (
    DataValidationError,
    DegenerateDataError,
    ExtrapolationWarning,
    TwoGroupSample,
    default_tau,
    diff_test,
    partial_process,
    rmtl_difference,
    sdiff_test,
)
from rmtlkit import TestMethod as Method
from helpers import engine_samples, sample_with_events, swap_groups


def two_group(spec1, spec2):
    recs = [(t, e, "1") for t, e in spec1]
    recs += [(t, e, "2") for t, e in spec2]
    return TwoGroupSample.from_records(recs)


def identical_groups():
    spec = [(1.0, 1), (2.0, 2), (3.0, 1), (4.0, 0)]
    return two_group(spec, spec)


def sigma_reference(widths, var_sum, rho):
    """Literal quadratic-time double sum defining the normalizer."""
    s = widths * np.sqrt(var_sum)
    total = float(np.sum(s**2))
    for i in range(len(s)):
        for j in range(i + 1, len(s)):
            total += 2.0 * rho * s[i] * s[j]
    return float(np.sqrt(max(total, 0.0)))


class TestDiff:
    def test_statistic_and_p_are_consistent(self):
        sample = sample_with_events(1234, n1=40, n2=40,
                                    p_interest=0.6, p_competing=0.2)
        tau = default_tau(sample)
        res = diff_test(sample, tau)
        d = rmtl_difference(sample, tau)
        assert res.statistic == pytest.approx(d.delta / d.se, abs=1e-15)
        assert res.p_value == pytest.approx(
            2.0 * float(ndtr(-abs(res.statistic))), abs=1e-15
        )

    def test_frozen_regression(self):
        sample = sample_with_events(1234, n1=40, n2=40,
                                    p_interest=0.6, p_competing=0.2)
        tau = default_tau(sample)
        res = diff_test(sample, tau)
        assert tau == pytest.approx(4.951385268728716, abs=1e-12)
        assert res.statistic == pytest.approx(0.14224453111900848, abs=1e-12)
        assert res.p_value == pytest.approx(0.8868868586293258, abs=1e-12)

    def test_identical_groups_give_p_one(self):
        res = diff_test(identical_groups(), 4.0)
        assert res.statistic == 0.0
        assert res.p_value == 1.0
        assert not res.reject

    def test_label_swap_invariance(self):
        sample = sample_with_events(77)
        tau = default_tau(sample)
        fwd = diff_test(sample, tau)
        bwd = diff_test(swap_groups(sample), tau)
        assert bwd.statistic == pytest.approx(-fwd.statistic, abs=1e-15)
        assert bwd.p_value == pytest.approx(fwd.p_value, abs=1e-15)

    def test_reject_flag_tracks_alpha(self):
        sample = sample_with_events(78)
        tau = default_tau(sample)
        res = diff_test(sample, tau, alpha=0.9999)
        assert res.reject == (res.p_value < 0.9999)

    def test_zero_standard_error_is_degenerate(self):
        sample = two_group([(1.0, 1)], [(1.0, 1)])
        with pytest.raises(DegenerateDataError, match="standard error"):
            diff_test(sample, 1.0)

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_alpha_domain(self, alpha):
        with pytest.raises(DataValidationError):
            diff_test(identical_groups(), 4.0, alpha=alpha)


class TestPartialProcess:
    def test_hand_example(self):
        sample = two_group([(2.0, 0)], [(1.0, 1), (2.0, 0)])
        proc = partial_process(sample, 2.0)
        assert proc.times.tolist() == [1.0]
        assert proc.widths.tolist() == [1.0]
        assert proc.values.tolist() == [0.5]
        assert proc.var_first.tolist() == [0.0]

    def test_grid_pools_both_groups_before_tau(self):
        sample = two_group(
            [(1.0, 1), (3.0, 2), (6.0, 1)],
            [(2.0, 1), (4.0, 1), (7.0, 1)],
        )
        proc = partial_process(sample, 5.0)
        assert proc.times.tolist() == [1.0, 2.0, 3.0, 4.0]
        assert proc.widths.tolist() == [1.0, 1.0, 1.0, 1.0]
        assert proc.widths.sum() + proc.times[0] == pytest.approx(5.0)

    def test_final_value_telescopes_to_difference(self):
        sample = sample_with_events(91, n1=50, n2=50)
        tau = default_tau(sample)
        proc = partial_process(sample, tau)
        d = rmtl_difference(sample, tau)
        assert proc.values[-1] == pytest.approx(d.delta, abs=1e-12)

    def test_no_grid_before_tau_is_degenerate(self):
        sample = two_group([(2.0, 1), (3.0, 0)], [(2.0, 1), (3.0, 0)])
        with pytest.raises(DegenerateDataError, match="before tau"):
            partial_process(sample, 2.0)

    def test_rho_domain(self):
        with pytest.raises(DataValidationError):
            partial_process(identical_groups(), 4.0, rho=1.5)


class TestSigma:
    @pytest.mark.parametrize("rho", [0.0, 0.3, 0.5, 1.0])
    def test_matches_quadratic_reference(self, rho):
        sample = sample_with_events(92, n1=60, n2=60)
        tau = default_tau(sample)
        proc = partial_process(sample, tau, rho=rho)
        ref = sigma_reference(proc.widths, proc.var_first + proc.var_second, rho)
        assert proc.sigma_tau == pytest.approx(ref, rel=1e-12)

    def test_increasing_in_rho(self):
        sample = sample_with_events(93)
        tau = default_tau(sample)
        lo = partial_process(sample, tau, rho=0.0).sigma_tau
        hi = partial_process(sample, tau, rho=1.0).sigma_tau
        assert lo <= hi

    def test_zero_normalizer_is_degenerate(self):
        sample = two_group([(1.0, 1)], [(1.0, 1)])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ExtrapolationWarning)
            assert partial_process(sample, 2.0).sigma_tau == 0.0
            with pytest.raises(DegenerateDataError, match="normalizer"):
                sdiff_test(sample, 2.0)


class TestSdiff:
    def test_frozen_regression(self):
        sample = sample_with_events(1234, n1=40, n2=40,
                                    p_interest=0.6, p_competing=0.2)
        tau = default_tau(sample)
        res = sdiff_test(sample, tau)
        assert res.statistic == pytest.approx(0.34700418241500497, abs=1e-12)
        assert res.p_value == pytest.approx(0.9999547860531031, abs=1e-12)

    def test_identical_groups_give_p_one(self):
        res = sdiff_test(identical_groups(), 4.0)
        assert res.statistic == 0.0
        assert res.p_value == 1.0

    def test_label_swap_invariance(self):
        sample = sample_with_events(94)
        tau = default_tau(sample)
        fwd = sdiff_test(sample, tau)
        bwd = sdiff_test(swap_groups(sample), tau)
        assert bwd.statistic == pytest.approx(fwd.statistic, abs=1e-15)
        assert bwd.p_value == pytest.approx(fwd.p_value, abs=1e-15)

    def test_statistic_is_normalized_sup(self):
        sample = sample_with_events(95)
        tau = default_tau(sample)
        res = sdiff_test(sample, tau)
        proc = partial_process(sample, tau)
        expected = float(np.max(np.abs(proc.values))) / proc.sigma_tau
        assert res.statistic == pytest.approx(expected, abs=1e-15)

    def test_delta_is_the_diff_test_delta(self):
        sample = sample_with_events(97)
        tau = default_tau(sample)
        got = sdiff_test(sample, tau).delta
        assert dataclasses.astuple(got) == dataclasses.astuple(diff_test(sample, tau).delta)
        assert got.tau == tau and got.per_group[0].tau == tau

    def test_method_tags(self):
        sample = sample_with_events(96)
        tau = default_tau(sample)
        assert diff_test(sample, tau).method is Method.DIFF
        assert sdiff_test(sample, tau).method is Method.SDIFF


class TestNullConservatismPattern:
    def test_sdiff_p_exceeds_diff_p_under_the_null(self):
        # Both groups share the sustained-difference scenario's group-1 law,
        # so the data satisfy the null; the supremum test should then be the
        # more conservative of the two on nearly every dataset.
        from rmtlkit.simulate import load_shipped_scenario

        scn = load_shipped_scenario("b_proportional")
        g1 = dataclasses.replace(scn.groups[0], n=100)
        scn = dataclasses.replace(scn, groups=(g1, g1))
        wins = total = 0
        for sample in engine_samples(scn, 0, 100, 555, None):
            if sample is None:
                continue
            tau = default_tau(sample)
            total += 1
            wins += sdiff_test(sample, tau).p_value > diff_test(sample, tau).p_value
        assert total >= 95
        assert wins / total >= 0.9
