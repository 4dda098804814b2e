"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all).
The empirical bands are checked on fixed seeds, so reruns are deterministic;
the heavy Monte Carlo tests take a couple of minutes in total.
"""

import dataclasses
import json
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import ndtri

import rmtlkit as rk
from rmtlkit import (
    CensoringSpec,
    DesignInput,
    EventCode,
    build_risk_table,
    cif_estimate,
    km_overall,
    load_shipped_scenario,
    rmstc,
    rmtl,
    rmtl_difference,
    rmtl_estimate,
    run_monte_carlo,
    sample_size_diff,
    sample_size_sdiff,
    shipped_scenario_path,
    sup_abs_bm_quantile,
    sup_abs_bm_sf,
)
from rmtlkit.brownian import (
    drift_crossing_prob,
    drift_crossing_prob_deriv,
    solve_crossing_drift,
)
from rmtlkit.cli import main as cli_main
from rmtlkit.simulate import calibrate_censoring

from helpers import engine_samples, random_arrays, true_cif, value_at, variance_at

SEED = 20260817


def report(num, name, ok, detail=""):
    line = f"[{num:>2}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def null_scenario():
    return load_shipped_scenario("a_null")


@pytest.fixture(scope="module")
def null_sizes(null_scenario):
    """5000-replication size study on the null, no censoring (shared by 4/5)."""
    rep = run_monte_carlo(null_scenario, ["diff", "sdiff"], reps=5000,
                          seed=SEED, workers=4)
    return {m.method.value: m.rate for m in rep.methods}


def test_01_decomposition_identity():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for i in range(100):
        n = int(rng.integers(5, 60))
        rt = build_risk_table(*random_arrays(rng, n, p_interest=0.45, p_competing=0.35,
                                             tie_grid=4 if i % 3 == 0 else None))
        tau = float(rng.uniform(0.1, 1.0)) * rt.last_observed
        total = (
            rmtl(cif_estimate(rt, EventCode.INTEREST), tau)
            + rmtl(cif_estimate(rt, EventCode.COMPETING), tau)
            + rmstc(km_overall(rt), tau)
        )
        worst = max(worst, abs(total - tau))
    report(1, "time decomposition RMTL1 + RMTL2 + RMSTc = tau", worst < 1e-9,
           f"max deviation {worst:.2e} over 100 datasets")


def test_02_single_cause_reduction():
    rng = np.random.default_rng(SEED + 1)
    ok = True
    for i in range(100):
        n = int(rng.integers(3, 50))
        rt = build_risk_table(*random_arrays(rng, n, p_interest=0.6, p_competing=0.0,
                                             tie_grid=3 if i % 2 == 0 else None))
        cif = cif_estimate(rt, EventCode.INTEREST)
        km = km_overall(rt)
        ok = ok and np.array_equal(cif.times, km.times)
        ok = ok and np.array_equal(cif.values, 1.0 - km.values)
    report(2, "single-cause CIF equals 1 - KM bitwise", ok,
           "100 datasets without competing events")


def test_03_variance_formula_example():
    # one subject lost to the cause at t=1 (of 3), follow-up to t=3
    hand = cif_estimate(build_risk_table([1.0, 2.0, 3.0], [1, 2, 0]), EventCode.INTEREST)
    tau = 3.0
    value = rmtl(hand, tau)
    var = rmtl_estimate(hand, 3, tau).variance
    ok_hand = abs(value - 2.0 / 3.0) < 1e-12 and abs(var - 8.0 / 9.0) < 1e-12

    # cross-check both step integrals against adaptive quadrature
    worst = 0.0
    rng = np.random.default_rng(SEED + 2)
    random_cif = cif_estimate(build_risk_table(*random_arrays(rng, 40)), EventCode.INTEREST)
    for f, n, t_max in ((hand, 3, tau), (random_cif, 40, 0.9 * random_cif.last_observed)):
        pts = [t for t in f.times if t < t_max]
        a_quad = quad(lambda t: float(value_at(f, t)), 0.0, t_max,
                      points=pts, limit=200, epsabs=1e-13, epsrel=1e-13)[0]
        b_quad = quad(lambda t: t * float(value_at(f, t)), 0.0, t_max,
                      points=pts, limit=200, epsabs=1e-13, epsrel=1e-13)[0]
        a = rmtl(f, t_max)
        b = (2.0 * t_max * a - a * a - rmtl_estimate(f, n, t_max).variance) / 2.0
        worst = max(worst, abs(a_quad - a), abs(b_quad - b))
    report(3, "variance formula hand example and quadrature cross-check",
           ok_hand and worst < 1e-10,
           f"value={value:.12f} var={var:.12f} quad dev {worst:.2e}")


def test_04_null_size_bands(null_sizes):
    d, s = null_sizes["diff"], null_sizes["sdiff"]
    ok = 0.04 <= d <= 0.07 and 0.01 <= s <= 0.055
    report(4, "null rejection rates at 5000 reps", ok,
           f"diff={d:.4f} in [0.04, 0.07], sdiff={s:.4f} in [0.01, 0.055]")


def test_05_censoring_inflates_diff_size(null_scenario, null_sizes):
    scn45 = dataclasses.replace(null_scenario,
                                censoring=CensoringSpec(target=0.45))
    rate45 = run_monte_carlo(scn45, ["diff"], reps=5000, seed=SEED,
                             workers=4).methods[0].rate
    shift = rate45 - null_sizes["diff"]
    report(5, "heavy censoring inflates the normal test's size", shift > 0.01,
           f"size 45% cens = {rate45:.4f}, 0% = {null_sizes['diff']:.4f}, "
           f"shift {shift:+.4f} > 0.01")


def test_06_variance_oracle_ratios(null_scenario):
    g = null_scenario.groups[0]
    # population median all-cause event time; fixed evaluation point
    t_star = brentq(lambda t: true_cif(g.interest, t) + true_cif(g.competing, t) - 0.5,
                    0.05, 20.0)
    tau = 4.0
    scn = dataclasses.replace(
        null_scenario,
        groups=tuple(dataclasses.replace(gg, n=100) for gg in null_scenario.groups),
        censoring=CensoringSpec(target=0.15),
    )
    bounds = calibrate_censoring(scn)
    deltas, plugin, cif_vals, cif_vars = [], [], [], []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", rk.ExtrapolationWarning)
        for sample in engine_samples(scn, 0, 2000, SEED, bounds):
            if sample is None:
                continue
            d = rmtl_difference(sample, tau)
            deltas.append(d.delta)
            plugin.append(d.se ** 2)
            cif = sample.pooled.cifs[0]
            cif_vals.append(float(value_at(cif, t_star)))
            cif_vars.append(float(variance_at(cif, t_star)))
    ratio_delta = float(np.mean(plugin) / np.var(deltas, ddof=1))
    ratio_cif = float(np.mean(cif_vars) / np.var(cif_vals, ddof=1))
    ok = 0.85 <= ratio_delta <= 1.15 and 0.85 <= ratio_cif <= 1.15
    report(6, "plug-in variances track empirical variances", ok,
           f"{len(deltas)} reps at n=100/100, 15% censoring: "
           f"var(delta) ratio {ratio_delta:.4f}, CIF var ratio {ratio_cif:.4f}, "
           f"band [0.85, 1.15]")


def test_07_brownian_numerics():
    # path oracle: simulated BM on a coarse grid, with the Brownian-bridge
    # probability of crossing +-x between grid points, exp(-2(x-a)(x-b)/dt)
    # for +x and the mirror for -x, in place of discrete monitoring (which
    # misses crossings between steps and underestimates the supremum)
    rng = np.random.default_rng(SEED)
    levels = (1.5, 2.0, 2.5)
    n_paths, n_steps, chunk = 100_000, 256, 5000
    dt = 1.0 / n_steps
    survive = np.zeros(len(levels))
    done = 0
    while done < n_paths:
        m = min(chunk, n_paths - done)
        w = np.zeros((m, n_steps + 1))
        np.cumsum(rng.standard_normal((m, n_steps)) * np.sqrt(dt), axis=1,
                  out=w[:, 1:])
        a, b = w[:, :-1], w[:, 1:]
        for i, x in enumerate(levels):
            # a step ending beyond a level crosses it with probability 1
            up = np.exp(-2.0 * np.maximum(x - a, 0.0) * np.maximum(x - b, 0.0) / dt)
            down = np.exp(-2.0 * np.maximum(x + a, 0.0) * np.maximum(x + b, 0.0) / dt)
            survive[i] += np.prod(np.maximum(1.0 - up - down, 0.0), axis=1).sum()
        done += m
    path_dev = max(
        abs(1.0 - s / n_paths - sup_abs_bm_sf(x)) for s, x in zip(survive, levels)
    )

    round_trip = max(
        abs(sup_abs_bm_sf(sup_abs_bm_quantile(p)) - p)
        for p in (0.01, 0.05, 0.1, 0.25, 0.5, 0.9)
    )

    fd_rel = 0.0
    h = 1e-6
    for level, drift in ((1.5, 0.0), (2.0, 0.5), (2.2414, 2.8), (3.0, 1.0)):
        fd = (drift_crossing_prob(level, drift + h)
              - drift_crossing_prob(level, drift - h)) / (2 * h)
        exact = drift_crossing_prob_deriv(level, drift)
        fd_rel = max(fd_rel, abs(fd - exact) / abs(exact))

    solve_ok = True
    residual = 0.0
    for power in (0.8, 0.9):
        q = sup_abs_bm_quantile(0.05)
        eta = solve_crossing_drift(q, power)
        residual = max(residual, abs(drift_crossing_prob(q, eta) - power))
        eta_normal = float(ndtri(power) + ndtri(0.975))
        solve_ok = solve_ok and eta > eta_normal

    ok = (path_dev < 0.01 and round_trip < 1e-9 and fd_rel < 1e-6
          and residual < 1e-10 and solve_ok)
    report(7, "boundary-crossing numerics", ok,
           f"path oracle dev {path_dev:.5f} < 0.01, quantile round-trip "
           f"{round_trip:.1e} < 1e-9, derivative FD rel {fd_rel:.1e} < 1e-6, "
           f"drift solve residual {residual:.1e} < 1e-10 with drift above "
           f"the normal-theory drift")


def test_08_sample_size_ordering():
    panels = [(0.05, 0.8), (0.05, 0.9), (0.01, 0.8), (0.01, 0.9)]
    sizes = {}
    ok = True
    for alpha, power in panels:
        inp = DesignInput(delta=1.0, var1=4.0, var2=4.0, alpha=alpha, power=power)
        res_d = sample_size_diff(inp)
        res_s = sample_size_sdiff(inp)
        sizes[(alpha, power)] = (res_d.n_total, res_s.n_total)
        ok = ok and res_s.inflation >= 1.0 and res_s.n_total >= res_d.n_total
    for k in (0, 1):  # monotone in power at fixed alpha, and in shrinking alpha
        ok = ok and sizes[(0.05, 0.9)][k] > sizes[(0.05, 0.8)][k]
        ok = ok and sizes[(0.01, 0.9)][k] > sizes[(0.01, 0.8)][k]
        ok = ok and sizes[(0.01, 0.8)][k] > sizes[(0.05, 0.8)][k]
        ok = ok and sizes[(0.01, 0.9)][k] > sizes[(0.05, 0.9)][k]
    summary = "; ".join(
        f"a={a:g},p={p:g}: diff {d}, sdiff {s}"
        for (a, p), (d, s) in sizes.items()
    )
    report(8, "supremum-test n at least the normal-test n, monotone panels",
           ok, summary)


def test_09_design_self_consistency():
    scn = load_shipped_scenario("b_proportional")
    g1, g2 = scn.groups

    def true_params(tau):
        out = []
        for g in (g1, g2):
            a = quad(lambda t: true_cif(g.interest, t), 0, tau, limit=200)[0]
            b = quad(lambda t: t * true_cif(g.interest, t), 0, tau, limit=200)[0]
            out.append((a, 2 * tau * a - 2 * b - a * a))
        (a1, v1), (a2, v2) = out
        return a2 - a1, v1, v2

    def typical_tau(n_per_group, reps=200):
        probe = dataclasses.replace(
            scn, groups=tuple(dataclasses.replace(g, n=n_per_group)
                              for g in scn.groups)
        )
        bounds = calibrate_censoring(probe)
        taus = [rk.default_tau(s) for s in engine_samples(probe, 0, reps, 977001, bounds)
                if s is not None]
        # upper quartile: a deliberately long horizon, so the designed n
        # errs toward overshooting the power target rather than missing it
        return float(np.percentile(taus, 75))

    n_guess = 100
    for _ in range(5):
        tau_star = typical_tau(n_guess)
        delta, v1, v2 = true_params(tau_star)
        inp = DesignInput(delta=delta, var1=v1, var2=v2, ratio=1.0,
                          alpha=0.05, power=0.8)
        res_d = sample_size_diff(inp)
        res_s = sample_size_sdiff(inp)
        new_guess = res_s.n_total // 2
        if abs(new_guess - n_guess) <= max(5, n_guess // 20):
            break
        n_guess = new_guess

    p_s = rk.observed_power_at_n(scn, res_s.n_total, ["sdiff"], reps=1000,
                                 seed=31337, workers=4).methods[0].rate
    p_d = rk.observed_power_at_n(scn, res_d.n_total, ["diff"], reps=1000,
                                 seed=31337, workers=4).methods[0].rate
    ok = 0.75 <= p_s <= 0.90 and p_d >= 0.78
    report(9, "designed n delivers the target power", ok,
           f"tau*={tau_star:.3f}, sdiff n={res_s.n_total} power {p_s:.4f} in "
           f"[0.75, 0.90]; diff n={res_d.n_total} power {p_d:.4f} >= 0.78")


def test_10_determinism(null_scenario, capsys):
    small = dataclasses.replace(
        null_scenario,
        groups=tuple(dataclasses.replace(g, n=20) for g in null_scenario.groups),
    )
    payloads = [
        json.dumps(run_monte_carlo(small, ["diff", "sdiff"], reps=60, seed=7,
                                   workers=w).to_dict())
        for w in (1, 3, 1)
    ]
    lib_ok = payloads[0] == payloads[1] == payloads[2]

    outs = []
    for extra in (["--workers", "1"], ["--workers", "2"], ["--workers", "1"]):
        rc = cli_main(["simulate", "--input", str(shipped_scenario_path("a_null")),
                       "--reps", "30", "--seed", "7", "--format", "json"] + extra)
        assert rc == 0
        outs.append(capsys.readouterr().out)
    cli_ok = outs[0] == outs[1] == outs[2]
    report(10, "same seed gives byte-identical reports for any worker count",
           lib_ok and cli_ok,
           "library JSON and CLI output identical across workers 1/2/3 and reruns")
