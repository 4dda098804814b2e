"""Command-line front end: estimate, test, samplesize, simulate."""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import warnings

import numpy as np

from ._normal import ndtri
from .cif import _cif, km_overall
from .data_model import EventCode, parse_dataset, read_text
from .design import DesignInput, pilot_parameters, sample_size_diff, sample_size_sdiff
from .errors import DataValidationError, ExtrapolationWarning, NumericError, RmtlError
from .inference import TestMethod, diff_test, sdiff_test
from .rmtl import default_tau, rmstc, rmtl, rmtl_ci, rmtl_difference
from .simulate import load_scenario, observed_power_at_n, run_monte_carlo, scenario_to_dict

SCHEMA_VERSION = 1
_MAX_SWEEP_TAUS = 10_000
_ARRAY = "\0array\0"  # stands for a spliced float array in the encoded payload


def _number(name: str, cast, ok, what: str):
    """An argparse type: ``cast(text)``, refused as "'text' is not <what>"
    unless ``ok``. argparse names it ``name`` when ``cast`` fails."""
    def parse(text: str):
        value = cast(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
        return value
    parse.__name__ = name
    return parse


_probability = _number("_probability", float, lambda v: 0.0 < v < 1.0, "in (0, 1)")
_unit_interval = _number("_unit_interval", float, lambda v: 0.0 <= v <= 1.0, "in [0, 1]")
_positive_float = _number("_positive_float", float, lambda v: math.isfinite(v) and v > 0.0,
                          "a positive number")
_positive_int = _number("_positive_int", int, lambda v: v >= 1, "a positive integer")
_nonneg_int = _number("_nonneg_int", int, lambda v: v >= 0, "a nonnegative integer")


def _sweep_range(text: str) -> np.ndarray:
    """The taus start, start + step, ... up to stop, at most _MAX_SWEEP_TAUS."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("sweep must be start:stop:step")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"unparseable sweep range {text!r}")
    for name, part, value in zip(("start", "stop", "step"), parts, (start, stop, step)):
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"sweep {name} must be finite, got {part!r}")
    if not (start > 0 and step > 0 and stop >= start):
        raise argparse.ArgumentTypeError(
            "sweep needs start > 0, step > 0 and stop >= start"
        )
    stop += 1e-12 * max(1.0, stop)  # so a stop on the step grid is included
    count = np.ceil((stop - start) / step)  # the length np.arange gives, inf past floats
    if count > _MAX_SWEEP_TAUS:
        raise argparse.ArgumentTypeError(
            f"sweep {text!r} gives {count:.6g} taus; at most {_MAX_SWEEP_TAUS} are allowed")
    return np.arange(start, stop, step)


# Options that several subcommands take, each declared once.
_SHARED_OPTIONS = {
    "--format": dict(choices=("table", "json"), default="table",
                     help="output format (default table)"),
    "--input": dict(required=True, help="dataset file (CSV/TSV)"),
    "--tau": dict(type=_positive_float, default=None,
                  help="truncation time (default: min over groups of the last "
                       "event of interest)"),
    "--alpha": dict(type=_probability, default=0.05,
                    help="two-sided level (default 0.05)"),
    "--strict-tau": dict(action="store_true",
                         help="error instead of warn when tau exceeds the data"),
    "--reference-group": dict(default=None, help="group label to treat as group 1"),
    "--rho": dict(type=_unit_interval, default=0.5,
                  help="cross-interval correlation (default 0.5)"),
    "--method": dict(choices=("diff", "sdiff", "both"), default="both"),
}
_DATA_OPTIONS = ("--format", "--input", "--tau", "--alpha", "--strict-tau",
                 "--reference-group")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rmtlkit",
        description=(
            "Restricted mean time lost under competing risks: estimation, "
            "two-sample tests, sample size, and Monte Carlo studies."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_command(name, handler, help, *shared):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        for option in shared:
            p.add_argument(option, **_SHARED_OPTIONS[option])
        return p

    add_command("estimate", cmd_estimate, "CIF curves, RMTL, RMSTc, difference",
                *_DATA_OPTIONS)
    add_command("test", cmd_test, "Diff and sDiff hypothesis tests",
                *_DATA_OPTIONS, "--rho", "--method")

    p_size = add_command("samplesize", cmd_samplesize, "designed n for Diff and sDiff",
                         "--format", "--tau", "--alpha", "--method",
                         "--strict-tau", "--reference-group")
    p_size.add_argument("--delta", type=float, default=None,
                        help="assumed RMTL difference")
    p_size.add_argument("--var1", type=float, default=None,
                        help="per-subject variance, group 1")
    p_size.add_argument("--var2", type=float, default=None,
                        help="per-subject variance, group 2")
    p_size.add_argument("--pilot", default=None,
                        help="pilot dataset file to estimate delta and variances")
    p_size.add_argument("--ratio", type=_positive_float, default=1.0,
                        help="allocation ratio n2/n1 (default 1)")
    p_size.add_argument("--power", type=_probability, default=0.8)
    p_size.add_argument("--sweep", type=_sweep_range, default=None,
                        metavar="START:STOP:STEP",
                        help="tabulate n against tau over this range (pilot only)")

    p_sim = add_command("simulate", cmd_simulate, "Monte Carlo size/power study",
                        "--format", "--alpha", "--rho", "--method")
    p_sim.add_argument("--input", required=True, help="scenario JSON file")
    p_sim.add_argument("--reps", type=_positive_int, default=5000)
    p_sim.add_argument("--seed", type=_nonneg_int, default=0)
    p_sim.add_argument("--workers", type=_positive_int, default=1,
                       help="parallel worker processes (default 1)")
    p_sim.add_argument("--n-total", type=_positive_int, default=None,
                       help="override total sample size, split by the scenario ratio")
    return parser


def _load_sample(args):
    sample = parse_dataset(read_text(args.input), reference=args.reference_group)
    tau = args.tau if args.tau is not None else default_tau(sample)
    return sample, float(tau)


def _methods(choice: str) -> tuple[TestMethod, ...]:
    if choice == "both":
        return (TestMethod.DIFF, TestMethod.SDIFF)
    return (TestMethod(choice),)


def _dumps(payload) -> str:
    """``json.dumps(payload, indent=2)`` of the payload with its numpy arrays
    as lists, byte for byte.

    ``indent`` puts ``json`` on its pure-Python encoder, so each finite
    float array is written here in one join of ``float.__repr__``, the text
    ``json`` writes for a finite float, and spliced into the encoding of
    the rest at one indent deeper than the line its stand-in lands on.
    Empty, non-finite and non-float arrays are encoded as lists.
    """
    arrays = []

    def stand_in(obj):
        if (isinstance(obj, np.ndarray) and obj.dtype == np.float64 and obj.ndim == 1
                and obj.size and np.isfinite(obj).all()):
            arrays.append(obj)
            return _ARRAY
        return np.ndarray.tolist(obj)  # a TypeError for what is not an array

    parts = json.dumps(payload, indent=2, default=stand_in).split(json.dumps(_ARRAY))
    if len(parts) != len(arrays) + 1:  # a string of the payload reads as a stand-in
        return json.dumps(payload, indent=2, default=np.ndarray.tolist)
    out = []
    for part, array in zip(parts, arrays):
        line = part[part.rfind("\n") + 1:]
        end = "\n" + " " * (len(line) - len(line.lstrip(" ")))
        pad = end + "  "
        out += (part, "[", pad, f",{pad}".join(map(float.__repr__, array.tolist())), end, "]")
    out.append(parts[-1])
    return "".join(out)


def _fmt(x, digits=6):
    # format(x, ".6g") already writes nan, inf and -inf
    return "-" if x is None else f"{x:.{digits}g}"


def cmd_estimate(args) -> str:
    sample, tau = _load_sample(args)
    z = ndtri(1.0 - args.alpha / 2.0)
    diff = rmtl_difference(sample, tau, require_events=False)

    groups = []
    any_competing = bool(np.any(sample.codes == EventCode.COMPETING))
    pooled = sample.pooled
    for label, cif, table, est in zip(sample.groups, pooled.cifs, pooled.tables,
                                      diff.per_group):
        lo, hi = rmtl_ci(est, args.alpha)
        groups.append(
            {
                "label": label,
                "n": est.n,
                "rmtl": est.value,
                "variance": est.variance,
                "ci": [lo, hi],
                "rmtl_competing": rmtl(_cif(table, EventCode.COMPETING, False), tau),
                "rmstc": rmstc(km_overall(table), tau),
                "cif": {"times": cif.times, "values": cif.values,
                        "variances": cif.variances},
            }
        )

    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "estimate",
        "tau": tau,
        "alpha": args.alpha,
        "groups": groups,
        "difference": {
            "groups": list(diff.groups),
            "delta": diff.delta,
            "se": diff.se,
            "ci": [diff.delta - z * diff.se, diff.delta + z * diff.se],
        },
        "notes": []
        if any_competing
        else ["no competing events: the interest CIF equals 1 - KM and "
              "RMTL + RMSTc = tau"],
    }
    if args.format == "json":
        return _dumps(payload)

    level = 100 * (1 - args.alpha)
    lines = [f"RMTL estimates (tau = {_fmt(tau)})", ""]
    lines.append(f"{'group':<12}{'n':>6}  {'RMTL':>10}  {f'{level:g}% CI':>24}  "
                 f"{'RMTL(comp)':>11}  {'RMSTc':>10}")
    for g in groups:
        ci = f"({_fmt(g['ci'][0])}, {_fmt(g['ci'][1])})"
        lines.append(
            f"{g['label']:<12}{g['n']:>6}  {_fmt(g['rmtl']):>10}  {ci:>24}  "
            f"{_fmt(g['rmtl_competing']):>11}  {_fmt(g['rmstc']):>10}"
        )
    d = payload["difference"]
    lines.append("")
    lines.append(
        f"difference ({d['groups'][1]} - {d['groups'][0]}): {_fmt(d['delta'])}  "
        f"se {_fmt(d['se'])}  {level:g}% CI ({_fmt(d['ci'][0])}, {_fmt(d['ci'][1])})"
    )
    for g in groups:
        lines.append("")
        lines.append(f"CIF of the event of interest, group {g['label']}")
        lines.append(f"{'time':>12}  {'estimate':>10}  {'variance':>12}")
        curve = g["cif"]
        for t, v, var in zip(curve["times"].tolist(), curve["values"].tolist(),
                             curve["variances"].tolist()):
            lines.append(f"{t:>12.6g}  {v:>10.6g}  {var:>12.6g}")
    for note in payload["notes"]:
        lines.append("")
        lines.append(f"note: {note}")
    return "\n".join(lines)


def cmd_test(args) -> str:
    sample, tau = _load_sample(args)
    results = {}
    for method in _methods(args.method):
        if method == TestMethod.DIFF:
            res = diff_test(sample, tau, alpha=args.alpha)
        else:
            res = sdiff_test(sample, tau, alpha=args.alpha, rho=args.rho)
        results[method.value] = {
            "statistic": res.statistic,
            "p_value": res.p_value,
            "reject": res.reject,
        }
    diff = res.delta
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "test",
        "tau": tau,
        "alpha": args.alpha,
        "rho": args.rho,
        "difference": {"groups": list(diff.groups), "delta": diff.delta,
                       "se": diff.se},
        "results": results,
    }
    if args.format == "json":
        return _dumps(payload)

    lines = [
        f"RMTL difference tests (tau = {_fmt(tau)}, alpha = {args.alpha:g})",
        "",
        f"difference ({diff.groups[1]} - {diff.groups[0]}): {_fmt(diff.delta)}"
        f"  se {_fmt(diff.se)}",
        "",
        f"{'method':<8}{'statistic':>12}  {'p-value':>10}  {'reject H0':>10}",
    ]
    for name, r in results.items():
        lines.append(
            f"{name:<8}{_fmt(r['statistic']):>12}  {_fmt(r['p_value']):>10}  "
            f"{('yes' if r['reject'] else 'no'):>10}"
        )
    return "\n".join(lines)


def _designs(args, methods, delta, var1, var2) -> dict:
    """Each method's design for the planning values at the run's ratio, alpha
    and power: the fields of its ``SampleSizeResult`` without the method, and
    without the drifts where they are None."""
    inp = DesignInput(delta, var1, var2, args.ratio, args.alpha, args.power)
    out = {}
    for method in methods:
        size = sample_size_diff if method == TestMethod.DIFF else sample_size_sdiff
        entry = dataclasses.asdict(size(inp))
        del entry["method"]
        out[method.value] = {k: v for k, v in entry.items() if v is not None}
    return out


def cmd_samplesize(args) -> str:
    methods = _methods(args.method)
    pilot_sample = None
    if args.pilot is not None:
        pilot_sample = parse_dataset(read_text(args.pilot),
                                     reference=args.reference_group)

    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "samplesize",
        "alpha": args.alpha,
        "power": args.power,
        "ratio": args.ratio,
    }

    if args.sweep is not None:
        rows = []
        for tau in args.sweep:
            row = {"tau": float(tau)}
            try:
                pp = pilot_parameters(pilot_sample, float(tau))
                for name, entry in _designs(args, methods, pp.delta, pp.var1, pp.var2).items():
                    row[name] = entry["n_total"]
            except RmtlError as exc:
                row["error"] = str(exc)
            rows.append(row)
        payload["sweep"] = rows
        if args.format == "json":
            return _dumps(payload)
        names = [m.value for m in methods]
        lines = [f"sample size by tau (alpha {args.alpha:g}, power {args.power:g})",
                 "",
                 f"{'tau':>10}  " + "  ".join(f"{('n_' + n):>10}" for n in names)]
        for row in rows:
            if "error" in row:
                lines.append(f"{_fmt(row['tau']):>10}  {row['error']}")
            else:
                lines.append(f"{_fmt(row['tau']):>10}  "
                             + "  ".join(f"{row[n]:>10}" for n in names))
        return "\n".join(lines)

    if pilot_sample is not None:
        tau = args.tau if args.tau is not None else default_tau(pilot_sample)
        pp = pilot_parameters(pilot_sample, tau)
        payload["pilot"] = dataclasses.asdict(pp)
        planning = pp.delta, pp.var1, pp.var2
    else:
        planning = args.delta, args.var1, args.var2
        payload["inputs"] = {"delta": args.delta, "var1": args.var1, "var2": args.var2}
    payload["results"] = _designs(args, methods, *planning)

    if args.format == "json":
        return _dumps(payload)
    lines = [f"designed sample sizes (alpha {args.alpha:g}, power {args.power:g}, "
             f"ratio {args.ratio:g})", ""]
    lines.append(f"{'method':<8}{'n_total':>9}{'n1':>7}{'n2':>7}  {'inflation':>10}"
                 f"  {'drift':>9}  {'drift_normal':>13}")
    for name, e in payload["results"].items():
        lines.append(
            f"{name:<8}{e['n_total']:>9}{e['n1']:>7}{e['n2']:>7}  "
            f"{_fmt(e['inflation']):>10}  {_fmt(e.get('drift')):>9}  "
            f"{_fmt(e.get('drift_normal')):>13}"
        )
    if "pilot" in payload:
        p = payload["pilot"]
        lines.append("")
        lines.append(f"pilot: delta {_fmt(p['delta'])}, var1 {_fmt(p['var1'])}, "
                     f"var2 {_fmt(p['var2'])}, tau {_fmt(p['tau'])}")
    return "\n".join(lines)


def cmd_simulate(args) -> str:
    scn = load_scenario(args.input)
    kwargs = dict(
        methods=_methods(args.method),
        reps=args.reps,
        seed=args.seed,
        alpha=args.alpha,
        rho=args.rho,
        workers=args.workers,
    )
    if args.n_total is not None:
        report = observed_power_at_n(scn, args.n_total, **kwargs)
    else:
        report = run_monte_carlo(scn, **kwargs)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "simulate",
        "scenario": scenario_to_dict(scn),
        "report": report.to_dict(),
    }
    if args.format == "json":
        return _dumps(payload)

    r = report
    lines = [
        f"simulation: scenario {r.scenario_label or '(unlabeled)'}, "
        f"{r.reps} replications, seed {r.seed}, alpha {r.alpha:g}",
        f"tau rule: {r.tau_rule}",
        f"censoring bounds: "
        + (f"{_fmt(r.censoring_bounds[0])}, {_fmt(r.censoring_bounds[1])}"
           if r.censoring_bounds else "none"),
        f"degenerate replications (no events of interest): {r.degenerate_reps}",
        "",
        f"{'method':<8}{'rejections':>11}{'valid':>8}{'degenerate':>12}"
        f"  {'rate':>8}  {'mc_se':>8}",
    ]
    for m in r.methods:
        lines.append(
            f"{m.method.value:<8}{m.rejections:>11}{m.valid_reps:>8}"
            f"{m.degenerate_reps:>12}  {_fmt(m.rate, 4):>8}  {_fmt(m.mc_se, 4):>8}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.subcommand == "samplesize":
        # Flag-combination problems are usage errors (exit 2), not data errors.
        if args.pilot is None and None in (args.delta, args.var1, args.var2):
            parser.error(
                "samplesize needs either --pilot or all of --delta, --var1, --var2"
            )
        if args.sweep is not None and args.pilot is None:
            parser.error("--sweep requires --pilot (tau-dependent inputs)")
        if args.tau is not None and (args.pilot is None or args.sweep is not None):
            parser.error("--tau needs --pilot and no --sweep (the sweep sets tau)")
    with warnings.catch_warnings(record=True) as caught:
        if getattr(args, "strict_tau", False):
            warnings.simplefilter("error", ExtrapolationWarning)
        try:
            output, code = args.handler(args), 0
        except DataValidationError as exc:  # a raised ExtrapolationWarning too
            output, code = f"error: {exc}", 3
        except NumericError as exc:
            output, code = f"error: {exc}", 4
    # every statistic that integrates past the data warns: print each message once
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(f"warning: {message}", file=sys.stderr)
    print(output, file=sys.stderr if code else sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
