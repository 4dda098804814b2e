import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from rmtlkit import (
    DataValidationError,
    DegenerateDataError,
    EventCode,
    ExtrapolationWarning,
    TwoGroupSample,
    build_risk_table,
    cif_estimate,
    default_tau,
    diff_test,
    km_overall,
    pilot_parameters,
    rmstc,
    rmtl,
    rmtl_ci,
    rmtl_difference,
    rmtl_estimate,
    sdiff_test,
)
from helpers import columns, random_records, sample_with_events, swap_groups, value_at


def three_subject_records(group="g"):
    spec = [(1.0, 1), (2.0, 2), (3.0, 0)]
    return [(t, e, group) for t, e in spec]


def table_of(records):
    return build_risk_table(*columns(records))


def cif_of(records):
    return cif_estimate(table_of(records), EventCode.INTEREST)


def estimate_of(records, tau):
    return rmtl_estimate(cif_of(records), len(records), tau)


class TestPointEstimates:
    def test_example_value(self):
        # CIF = 1/3 on [1, 3), tau = 3: area is 2/3
        assert rmtl(cif_of(three_subject_records()), 3.0) == pytest.approx(
            2 / 3, abs=1e-15
        )

    def test_example_variance(self):
        # 2*tau*A - 2*B - A^2 with A = 2/3, B = t-weighted area 4/3
        got = estimate_of(three_subject_records(), 3.0).variance
        assert got == pytest.approx(8 / 9, abs=1e-12)

    def test_example_rmstc(self):
        km = km_overall(table_of(three_subject_records()))
        assert rmstc(km, 3.0) == pytest.approx(2.0, abs=1e-15)

    def test_decomposition_sums_to_tau(self):
        rt = table_of(three_subject_records())
        tau = 3.0
        total = (
            rmtl(cif_estimate(rt, EventCode.INTEREST), tau)
            + rmtl(cif_estimate(rt, EventCode.COMPETING), tau)
            + rmstc(km_overall(rt), tau)
        )
        assert total == pytest.approx(tau, abs=1e-12)

    def test_areas_match_quadrature(self):
        rng = np.random.default_rng(41)
        recs = random_records(rng, 80, "g", tie_grid=2)
        fn = cif_of(recs)
        tau = float(fn.last_observed)
        knots = [t for t in fn.times if t < tau]
        area = quad(lambda t: value_at(fn, t), 0.0, tau, points=knots, limit=200)[0]
        assert rmtl(fn, tau) == pytest.approx(area, abs=1e-10)

    def test_monotone_in_tau(self):
        fn = cif_of(three_subject_records())
        values = [rmtl(fn, t) for t in (0.5, 1.0, 1.5, 2.0, 3.0)]
        assert values == sorted(values)

    def test_scale_equivariance(self):
        recs = three_subject_records()
        scaled = [(t * 10.0, e, g) for t, e, g in recs]
        assert rmtl(cif_of(scaled), 30.0) == pytest.approx(
            10.0 * rmtl(cif_of(recs), 3.0), rel=1e-14
        )
        assert estimate_of(scaled, 30.0).variance == pytest.approx(
            100.0 * estimate_of(recs, 3.0).variance, rel=1e-12
        )

    def test_tau_before_first_event(self):
        assert rmtl(cif_of(three_subject_records()), 0.5) == 0.0


class TestTauHandling:
    @pytest.mark.parametrize("tau", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_tau_rejected(self, tau):
        with pytest.raises(DataValidationError):
            rmtl(cif_of(three_subject_records()), tau)

    @pytest.mark.parametrize("tau", [np.int64(2), np.float32(2.0), np.float64(2.0)],
                             ids=["int64", "float32", "float64"])
    def test_numpy_tau_accepted(self, tau):
        sample = sample_with_events(46)
        assert rmtl_difference(sample, tau) == rmtl_difference(sample, 2.0)

    def test_bool_tau_rejected(self):
        with pytest.raises(DataValidationError, match="tau must be a positive finite number"):
            rmtl(cif_of(three_subject_records()), True)

    def test_extrapolation_warns(self):
        with pytest.warns(ExtrapolationWarning):
            rmtl(cif_of(three_subject_records()), 5.0)

    def test_extrapolation_strict_raises(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", ExtrapolationWarning)
            with pytest.raises(DataValidationError, match="last observed"):
                rmtl(cif_of(three_subject_records()), 5.0)

    def test_tau_at_last_observed_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", ExtrapolationWarning)
            rmtl(cif_of(three_subject_records()), 3.0)

    def test_repeated_statistic_checks_tau_again(self):
        # each statistic checks tau again, so a filter turned to "error"
        # after the first one must make every later one raise
        sample = sample_with_events(45)
        with pytest.warns(ExtrapolationWarning):
            diff_test(sample, 1e6)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ExtrapolationWarning)
            for statistic in (rmtl_difference, diff_test, sdiff_test):
                with pytest.raises(DataValidationError, match="last observed"):
                    statistic(sample, 1e6)

    @pytest.mark.parametrize("entry", ["rmtl", "rmstc", "rmtl_estimate", "rmtl_difference",
                                       "diff_test", "sdiff_test", "pilot_parameters"])
    def test_extrapolation_warning_names_the_callers_file(self, entry):
        # each entry point reaches the tau check through its own depth of
        # package frames, on a first call and on a repeated one
        sample = sample_with_events(46)
        cif = sample.pooled.cifs[0]
        calls = {
            "rmtl": lambda: rmtl(cif, 1e6),
            "rmstc": lambda: rmstc(km_overall(table_of(three_subject_records())), 1e6),
            "rmtl_estimate": lambda: rmtl_estimate(cif, 30, 1e6),
            "rmtl_difference": lambda: rmtl_difference(sample, 1e6),
            "diff_test": lambda: diff_test(sample, 1e6),
            "sdiff_test": lambda: sdiff_test(sample, 1e6),
            "pilot_parameters": lambda: pilot_parameters(sample, 1e6),
        }
        for _ in range(2):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                calls[entry]()
            assert caught
            assert {w.filename for w in caught} == {__file__}


class TestConfidenceInterval:
    def test_ci_brackets_and_clips(self):
        est = estimate_of(three_subject_records(), 3.0)
        lo, hi = rmtl_ci(est, alpha=0.05)
        assert 0.0 <= lo <= est.value <= hi <= 3.0

    def test_ci_width_shrinks_with_alpha(self):
        est = estimate_of(three_subject_records(), 3.0)
        lo1, hi1 = rmtl_ci(est, alpha=0.05)
        lo2, hi2 = rmtl_ci(est, alpha=0.2)
        assert (hi2 - lo2) < (hi1 - lo1)

    def test_half_width_formula(self):
        est = estimate_of(three_subject_records(), 3.0)
        lo, hi = rmtl_ci(est, alpha=0.1)
        half = 1.6448536269514722 * math.sqrt(est.variance / est.n)
        assert hi == pytest.approx(min(est.value + half, 3.0), abs=1e-12)

    def test_a_group_of_one_has_no_interval(self):
        est = estimate_of([(1.0, 1, "g")], 1.0)
        assert est.n == 1
        with pytest.raises(DataValidationError,
                           match="^confidence interval needs group size n >= 2$"):
            rmtl_ci(est)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, 2.0, float("nan")])
    def test_alpha_validated(self, alpha):
        est = estimate_of(three_subject_records(), 3.0)
        with pytest.raises(DataValidationError,
                           match=rf"^alpha must be in \(0, 1\), got {alpha!r}$"):
            rmtl_ci(est, alpha=alpha)


class TestDifference:
    def test_label_swap_antisymmetry(self):
        sample = sample_with_events(42)
        tau = default_tau(sample)
        fwd = rmtl_difference(sample, tau)
        bwd = rmtl_difference(swap_groups(sample), tau)
        assert bwd.delta == pytest.approx(-fwd.delta, abs=1e-15)
        assert bwd.se == pytest.approx(fwd.se, abs=1e-15)

    def test_per_group_estimates_carried(self):
        sample = sample_with_events(43)
        tau = default_tau(sample)
        d = rmtl_difference(sample, tau)
        assert d.delta == pytest.approx(
            d.per_group[1].value - d.per_group[0].value, abs=1e-15
        )
        assert d.se == pytest.approx(
            math.sqrt(d.per_group[0].variance / d.per_group[0].n
                      + d.per_group[1].variance / d.per_group[1].n),
            abs=1e-15,
        )

    def test_group_without_events_is_degenerate(self):
        recs = three_subject_records("a") + [
            (1.0, EventCode.CENSORED, "b"),
            (2.0, EventCode.COMPETING, "b"),
        ]
        sample = TwoGroupSample.from_records(recs)
        with pytest.raises(DegenerateDataError, match="'b'"):
            rmtl_difference(sample, 2.0)

    def test_require_events_false_allows_it(self):
        recs = three_subject_records("a") + [
            (1.0, EventCode.CENSORED, "b"),
            (2.0, EventCode.COMPETING, "b"),
        ]
        sample = TwoGroupSample.from_records(recs)
        d = rmtl_difference(sample, 2.0, require_events=False)
        assert d.per_group[1].value == 0.0


class TestDefaultTau:
    def test_min_of_last_interest_events(self):
        recs = (
            three_subject_records("a")  # last interest event at 1.0
            + [(0.5, EventCode.INTEREST, "b"),
               (4.0, EventCode.INTEREST, "b")]
        )
        assert default_tau(TwoGroupSample.from_records(recs)) == 1.0

    def test_censoring_does_not_extend(self):
        recs = [
            (1.0, EventCode.INTEREST, "a"),
            (9.0, EventCode.CENSORED, "a"),
            (2.0, EventCode.INTEREST, "b"),
        ]
        assert default_tau(TwoGroupSample.from_records(recs)) == 1.0

    def test_degenerate_without_interest_events(self):
        recs = [
            (1.0, EventCode.COMPETING, "a"),
            (2.0, EventCode.INTEREST, "b"),
        ]
        with pytest.raises(DegenerateDataError, match="'a'"):
            default_tau(TwoGroupSample.from_records(recs))

    def test_last_interest_event_at_time_zero_is_degenerate(self):
        recs = [
            (0.0, EventCode.INTEREST, "a"),
            (2.0, EventCode.CENSORED, "a"),
            (1.0, EventCode.INTEREST, "b"),
        ]
        with pytest.raises(DegenerateDataError, match="group 'a'.*time 0"):
            default_tau(TwoGroupSample.from_records(recs))
