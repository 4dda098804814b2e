import math
import re

import pytest
from scipy.special import ndtri

from rmtlkit import (
    DataValidationError,
    DegenerateDataError,
    DegenerateDesignWarning,
    DesignInput,
    NumericError,
    TwoGroupSample,
    default_tau,
    drift_crossing_prob,
    pilot_parameters,
    rmtl_difference,
    sample_size_diff,
    sample_size_sdiff,
)
from rmtlkit import TestMethod as Method
from helpers import sample_with_events

PANELS = [(0.05, 0.8), (0.05, 0.9), (0.01, 0.8), (0.01, 0.9)]


def base_input(alpha=0.05, power=0.9, **kw):
    return DesignInput(delta=1.0, var1=4.0, var2=4.0, alpha=alpha, power=power, **kw)


class TestDesignInput:
    def test_zero_delta_rejected(self):
        with pytest.raises(DataValidationError, match="infinite sample"):
            DesignInput(delta=0.0, var1=1.0, var2=1.0)

    @pytest.mark.parametrize("var", [-1.0, float("nan")])
    def test_bad_variance_rejected(self, var):
        with pytest.raises(DataValidationError):
            DesignInput(delta=1.0, var1=var, var2=1.0)

    @pytest.mark.parametrize("ratio", [0.0, -2.0, float("inf")])
    def test_bad_ratio_rejected(self, ratio):
        with pytest.raises(DataValidationError):
            DesignInput(delta=1.0, var1=1.0, var2=1.0, ratio=ratio)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, float("nan")])
    def test_alpha_domain(self, alpha):
        with pytest.raises(DataValidationError,
                           match=rf"^alpha must be in \(0, 1\), got {alpha!r}$"):
            DesignInput(delta=1.0, var1=1.0, var2=1.0, alpha=alpha)

    @pytest.mark.parametrize("power", [0.0, 1.0])
    def test_power_domain(self, power):
        with pytest.raises(DataValidationError):
            DesignInput(delta=1.0, var1=1.0, var2=1.0, power=power)


class TestDiffSize:
    def test_example_design(self):
        res = sample_size_diff(base_input())
        assert (res.n_total, res.n1, res.n2) == (170, 85, 85)
        assert res.inflation == 1.0
        assert res.method is Method.DIFF

    def test_matches_direct_formula(self):
        inp = DesignInput(delta=0.7, var1=3.0, var2=5.0, ratio=2.0,
                          alpha=0.1, power=0.85)
        z = ndtri(1.0 - inp.alpha / 2.0) + ndtri(inp.power)
        raw = (1 + inp.ratio) * z * z * (inp.var1 + inp.var2 / inp.ratio) / inp.delta**2
        res = sample_size_diff(inp)
        assert res.n1 == math.ceil(raw / (1 + inp.ratio))
        assert res.n2 == math.ceil(inp.ratio * raw / (1 + inp.ratio))

    def test_allocation_ratio(self):
        res = sample_size_diff(base_input(ratio=2.0))
        assert res.n_total == res.n1 + res.n2
        assert res.n2 == pytest.approx(2 * res.n1, abs=2)

    def test_monotone_in_power(self):
        lo = sample_size_diff(base_input(power=0.8)).n_total
        hi = sample_size_diff(base_input(power=0.9)).n_total
        assert hi > lo

    def test_monotone_in_alpha(self):
        wide = sample_size_diff(base_input(alpha=0.05)).n_total
        narrow = sample_size_diff(base_input(alpha=0.01)).n_total
        assert narrow > wide

    def test_shrinks_with_effect(self):
        small = sample_size_diff(DesignInput(delta=2.0, var1=4.0, var2=4.0)).n_total
        large = sample_size_diff(DesignInput(delta=0.5, var1=4.0, var2=4.0)).n_total
        assert large > small

    def test_degenerate_variances_warn(self):
        with pytest.warns(DegenerateDesignWarning):
            res = sample_size_diff(DesignInput(delta=1.0, var1=0.0, var2=0.0))
        assert res.n1 == 1 and res.n2 == 1

    def test_degenerate_variances_with_an_underflowing_delta_warn(self):
        # delta**2 is 0, yet with no spread the size is still 0
        with pytest.warns(DegenerateDesignWarning):
            res = sample_size_diff(DesignInput(delta=1e-200, var1=0.0, var2=0.0))
        assert res.n1 == 1 and res.n2 == 1

    @pytest.mark.parametrize("size", [sample_size_diff, sample_size_sdiff])
    @pytest.mark.parametrize("inputs", [
        {"delta": 1e-200},
        {"ratio": 1e-320},
        {"delta": 1e-150, "ratio": 1e300},
        {"var1": 1e308, "var2": 1e308},
    ], ids=["delta-squared-underflows", "tiny-ratio", "huge-ratio", "huge-variances"])
    def test_a_size_that_is_not_finite_is_a_numeric_error(self, size, inputs):
        inp = DesignInput(**{"delta": 1.0, "var1": 1.0, "var2": 1.0, **inputs})
        message = (f"design size is not finite at delta={inp.delta!r}, var1={inp.var1!r}, "
                   f"var2={inp.var2!r}, ratio={inp.ratio!r}")
        with pytest.raises(NumericError, match=f"^{re.escape(message)}$"):
            size(inp)


class TestSdiffSize:
    def test_example_design(self):
        res = sample_size_sdiff(base_input())
        assert (res.n_total, res.n1, res.n2) == (178, 89, 89)
        assert res.inflation == pytest.approx(1.0543896272903672, abs=1e-10)

    @pytest.mark.parametrize("alpha,power", PANELS)
    def test_inflation_band_and_drift(self, alpha, power):
        res = sample_size_sdiff(base_input(alpha=alpha, power=power))
        assert 1.0 <= res.inflation <= 1.3
        assert res.drift > res.drift_normal
        assert res.drift_normal == pytest.approx(
            float(ndtri(1 - alpha / 2)) + float(ndtri(power)), abs=1e-12
        )

    @pytest.mark.parametrize("alpha,power", PANELS)
    def test_drift_solves_crossing_equation(self, alpha, power):
        from rmtlkit import sup_abs_bm_quantile

        res = sample_size_sdiff(base_input(alpha=alpha, power=power))
        critical = sup_abs_bm_quantile(alpha)
        assert abs(drift_crossing_prob(critical, res.drift) - power) < 1e-10

    def test_never_below_diff(self):
        for alpha, power in PANELS:
            diff_n = sample_size_diff(base_input(alpha=alpha, power=power)).n_total
            sdiff_n = sample_size_sdiff(base_input(alpha=alpha, power=power)).n_total
            assert sdiff_n >= diff_n

    def test_monotone_in_power_and_alpha(self):
        assert (sample_size_sdiff(base_input(power=0.9)).n_total
                > sample_size_sdiff(base_input(power=0.8)).n_total)
        assert (sample_size_sdiff(base_input(alpha=0.01)).n_total
                > sample_size_sdiff(base_input(alpha=0.05)).n_total)

    @pytest.mark.parametrize("alpha,expected", [
        (0.01, (248, 1.037572038634148, 3.9291775321082123)),
        (0.001, (344, 1.0259682656941478, 4.631062295228581)),
    ])
    def test_frozen_small_alpha_designs(self, alpha, expected):
        n_total, inflation, drift = expected
        res = sample_size_sdiff(base_input(alpha=alpha))
        assert (res.n_total, res.n1, res.n2) == (n_total, n_total // 2, n_total // 2)
        assert res.inflation == pytest.approx(inflation, abs=1e-10)
        assert res.drift == pytest.approx(drift, abs=1e-10)

    def test_inflation_applied_to_raw_size(self):
        res_d = sample_size_diff(base_input())
        res_s = sample_size_sdiff(base_input())
        # per-group ceil of the inflated raw size, never a re-rounded total
        z = ndtri(1 - 0.05 / 2) + ndtri(0.9)
        raw = 2 * z * z * 8.0
        assert res_s.n1 == math.ceil(res_s.inflation * raw / 2)
        assert res_d.n1 == math.ceil(raw / 2)


class TestPilotParameters:
    def test_matches_difference_estimates(self):
        sample = sample_with_events(61, n1=80, n2=80)
        tau = default_tau(sample)
        pp = pilot_parameters(sample, tau)
        d = rmtl_difference(sample, tau)
        assert pp.delta == d.delta
        assert pp.var1 == d.per_group[0].variance
        assert pp.var2 == d.per_group[1].variance
        assert pp.tau == tau

    def test_design_from_pilot_runs(self):
        sample = sample_with_events(62, n1=80, n2=80)
        tau = default_tau(sample)
        pp = pilot_parameters(sample, tau)
        inp = DesignInput(delta=pp.delta, var1=pp.var1, var2=pp.var2)
        assert sample_size_sdiff(inp).n_total >= sample_size_diff(inp).n_total

    @pytest.mark.parametrize("tau", [1.0, 3.0])
    def test_group_without_events_before_tau_is_degenerate(self, tau):
        spec = {"a": [(0.5, 1), (1.5, 1), (4.0, 0)], "b": [(0.5, 2), (3.0, 1), (4.0, 0)]}
        sample = TwoGroupSample.from_records([
            (t, e, g) for g, rows in spec.items() for t, e in rows
        ])
        with pytest.raises(DegenerateDataError,
                           match="group 'b' has no events of interest before tau"):
            pilot_parameters(sample, tau)
        assert pilot_parameters(sample, 3.5).var2 > 0.0
