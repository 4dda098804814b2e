"""Competing-risks toolkit: restricted mean time lost estimation, the Diff
and sDiff two-sample tests, sample-size procedures, and a Monte Carlo
engine for their operating characteristics."""

from .brownian import (
    drift_crossing_prob,
    drift_crossing_prob_deriv,
    solve_crossing_drift,
    sup_abs_bm_quantile,
    sup_abs_bm_sf,
)
from .cif import PooledFit, StepFunction, cif_estimate, km_overall
from .data_model import (
    EventCode,
    RiskTable,
    TwoGroupSample,
    build_risk_table,
    parse_dataset,
)
from .design import (
    DesignInput,
    PilotParameters,
    SampleSizeResult,
    pilot_parameters,
    sample_size_diff,
    sample_size_sdiff,
)
from .errors import (
    DataValidationError,
    DegenerateDataError,
    DegenerateDesignWarning,
    ExtrapolationWarning,
    NumericError,
    RmtlError,
    SmallSampleWarning,
    SolverError,
)
from .inference import (
    PartialDifferenceProcess,
    TestMethod,
    TestResult,
    diff_test,
    partial_process,
    sdiff_test,
)
from .rmtl import (
    RmtlDifference,
    RmtlEstimate,
    default_tau,
    rmstc,
    rmtl,
    rmtl_ci,
    rmtl_difference,
    rmtl_estimate,
)
from .simulate import (
    SHIPPED_SCENARIOS,
    CensoringSpec,
    GroupSpec,
    MethodSummary,
    PiecewiseWeibullCif,
    ScenarioSpec,
    SimulationReport,
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
    shipped_scenario_path,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
