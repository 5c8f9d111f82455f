"""Command-line front end: single runs, arrival-rate sweeps, cooperation comparison.

Exit codes: 0 on success, 1 on I/O failure, 2 on scenario validation failure
(violations printed to stderr, one per line, with no partial outputs).

All CSV files start with a locked header (format version 1, see README) and
are byte-identical across re-runs with the same scenario and seed.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import replace
from pathlib import Path

from . import analytics
from .charts import Series, line_chart
from .engine import run_experiment
from .model import (
    MetricsReport,
    Scenario,
    ScenarioError,
    ServiceKind,
    default_scenario,
    ensure_valid,
    load_scenario,
    validate_scenario,
)

CSV_FORMAT_VERSION = 1

DEFAULT_SWEEP = (2.5, 25.0 / 9.0, 10.0 / 3.0, 5.0)

METRICS_HEADER = (
    "replication", "seed", "scope", "arrivals", "blocked", "blocking_probability",
    "served_home", "served_transferred", "income_own", "income_transferred",
    "income_guests", "cost_paid", "profit",
)
SUMMARY_HEADER = ("scope", "metric", "mean", "stddev", "ci95", "min", "max")
SUMMARY_METRICS = (
    "arrivals", "blocked", "blocking_probability", "served_home",
    "served_transferred", "income_own", "income_transferred", "income_guests",
    "cost_paid", "profit",
)


def _fnum(value) -> str:
    if isinstance(value, bool):
        raise TypeError("no boolean cells in reports")
    if isinstance(value, int):
        return str(value)
    return f"{value:.10g}"


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fnum(cell) if not isinstance(cell, str) else cell
                             for cell in row])


def _scope_rows(result, scenario: Scenario):
    """Yield (scope, counters..., ledger...) tuples for one replication."""
    ledgers = result.ledgers
    transferred_by_home = result.transferred_by_home
    yield ("global", result.arrivals, result.blocked, result.blocking_probability,
           result.served_home, result.served_transferred,
           sum(l.income_own for l in ledgers.values()),
           sum(l.income_transferred for l in ledgers.values()),
           sum(l.income_guests for l in ledgers.values()),
           sum(l.cost_paid for l in ledgers.values()),
           sum(l.profit for l in ledgers.values()))
    for net in scenario.operators:
        arrivals = result.arrivals_by_home[net.id]
        blocked = result.blocked_by_home[net.id]
        ledger = ledgers[net.id]
        yield (f"op{net.id}", arrivals, blocked,
               blocked / arrivals if arrivals else 0.0,
               result.served_home_by_op[net.id], transferred_by_home[net.id],
               ledger.income_own, ledger.income_transferred, ledger.income_guests,
               ledger.cost_paid, ledger.profit)


def write_summary_csv(path: Path, metrics_rows) -> None:
    """Summarize the rows of metrics.csv per scope and metric."""
    per_scope: dict[str, list[tuple]] = {}
    for row in metrics_rows:
        per_scope.setdefault(row[2], []).append(row[3:])
    rows = []
    for scope, samples in per_scope.items():
        for metric_index, metric in enumerate(SUMMARY_METRICS):
            values = [sample[metric_index] for sample in samples]
            stats = analytics.ScopeStats(tuple(float(v) for v in values))
            rows.append((scope, metric, stats.mean, stats.stddev,
                         stats.ci95_halfwidth, min(values), max(values)))
    _write_csv(path, SUMMARY_HEADER, rows)


def sweep_header(scenario: Scenario):
    return ("mean_interarrival_s", "cooperation", "replication", "seed",
            "arrivals", "blocked", "blocking_probability",
            *(f"profit_op{net.id}" for net in scenario.operators))


def compare_header(scenario: Scenario):
    return ("mean_interarrival_s", "cooperation", "arrivals_mean", "blocking_mean",
            "blocking_stddev", "blocking_ci95",
            *(f"blocking_op{net.id}_mean" for net in scenario.operators),
            *(f"profit_op{net.id}_mean" for net in scenario.operators))


def exchange_header(scenario: Scenario):
    return ("from_operator", "service_class",
            *(f"to_op{net.id}" for net in scenario.operators))


def write_exchange_csv(path: Path, scenario: Scenario, results) -> None:
    ids = [net.id for net in scenario.operators]
    matrix = analytics.exchange_matrix(results, op_ids=ids)
    rows = []
    for from_op in ids:
        for kind in ServiceKind:
            pcts = matrix.row_percentages(from_op, kind)
            rows.append((from_op, kind.value,
                         *(pcts.get(to_op, 0.0) for to_op in ids)))
    _write_csv(path, exchange_header(scenario), rows)


def _modes(choice: str):
    return {"on": (True,), "off": (False,), "both": (True, False)}[choice]


def _mode_name(cooperation: bool) -> str:
    return "on" if cooperation else "off"


# --------------------------------------------------------------------------
# commands

def cmd_run(scenario: Scenario, args, out: Path) -> int:
    rows = [(index, result.seed) + scope_row
            for index, result in enumerate(run_experiment(scenario).results)
            for scope_row in _scope_rows(result, scenario)]
    _write_csv(out / "metrics.csv", METRICS_HEADER, rows)
    write_summary_csv(out / "summary.csv", rows)
    return 0


def run_grid(scenario: Scenario, sweep, modes) -> dict[tuple[float, bool], MetricsReport]:
    """One experiment per (mean interarrival, cooperation) cell, rates outer, modes inner.

    Every cell keeps the scenario's base seed, so the modes of one rate see the
    same arrivals (common random numbers).  A rate given twice is run once.
    Experiments go through this module's ``run_experiment``, so wrapping that
    one name sees every replication of the grid.
    """
    return {(mean_interarrival, cooperation):
            run_experiment(replace(scenario, mean_interarrival_s=mean_interarrival,
                                   cooperation=cooperation))
            for mean_interarrival in dict.fromkeys(sweep) for cooperation in modes}


def cmd_sweep(scenario: Scenario, args, out: Path) -> int:
    grid = run_grid(scenario, args.sweep, _modes(args.cooperation))
    rows = [(mean_interarrival, _mode_name(cooperation), index, result.seed,
             result.arrivals, result.blocked, result.blocking_probability,
             *(result.ledgers[net.id].profit for net in scenario.operators))
            for (mean_interarrival, cooperation), report in grid.items()
            for index, result in enumerate(report.results)]
    _write_csv(out / "sweep.csv", sweep_header(scenario), rows)
    if args.svg:
        _write_sweep_charts(out, scenario, grid)
    return 0


def _write_sweep_charts(out: Path, scenario: Scenario, grid) -> None:
    by_mode: dict[bool, list[MetricsReport]] = {}  # reports in sweep order per mode
    for (_, cooperation), report in grid.items():
        by_mode.setdefault(cooperation, []).append(report)

    blocking_series = [
        Series(f"cooperation {_mode_name(cooperation)}",
               tuple((analytics.arrivals_mean(report),
                      analytics.blocking_stats(report).overall.mean)
                     for report in reports),
               dashed=not cooperation)
        for cooperation, reports in by_mode.items()]
    (out / "blocking.svg").write_text(line_chart(
        "Global blocking vs offered arrivals", "mean arrivals per replication",
        "blocking probability", blocking_series))

    profit_series = [
        Series(f"{net.name} {_mode_name(cooperation)}",
               tuple((analytics.arrivals_mean(report),
                      analytics.profit_stats(report)[net.id].mean)
                     for report in reports),
               dashed=not cooperation)
        for net in scenario.operators for cooperation, reports in by_mode.items()]
    (out / "profits.svg").write_text(line_chart(
        "Operator profit vs offered arrivals", "mean arrivals per replication",
        "mean profit", profit_series))


def cmd_compare(scenario: Scenario, args, out: Path) -> int:
    grid = run_grid(scenario, args.sweep, _modes(args.cooperation))
    rows = []
    for (mean_interarrival, cooperation), report in grid.items():
        blocking = analytics.blocking_stats(report)
        profits = analytics.profit_stats(report)
        rows.append((mean_interarrival, _mode_name(cooperation),
                     analytics.arrivals_mean(report), blocking.overall.mean,
                     blocking.overall.stddev, blocking.overall.ci95_halfwidth,
                     *(blocking.per_operator[net.id].mean for net in scenario.operators),
                     *(profits[net.id].mean for net in scenario.operators)))
    _write_csv(out / "compare.csv", compare_header(scenario), rows)
    write_exchange_csv(out / "exchange.csv", scenario,
                       [result for (_, cooperation), report in grid.items() if cooperation
                        for result in report.results])
    return 0


# --------------------------------------------------------------------------
# argument parsing

def _sweep_list(text: str):
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad sweep list {text!r}: {exc}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="accessim",
        description="Multi-operator access selection simulator: run replicated "
                    "experiments and emit CSV/SVG reports.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--scenario", metavar="PATH",
                       help="scenario JSON file (default: built-in reference scenario)")
        p.add_argument("--out", metavar="DIR", default="out",
                       help="output directory (default: %(default)s)")
        p.add_argument("--seed", type=int, metavar="N",
                       help="override the scenario's base seed")
        p.add_argument("--replications", type=int, metavar="N",
                       help="override the scenario's replication count")

    def grid(p: argparse.ArgumentParser) -> None:
        common(p)
        p.add_argument("--sweep", type=_sweep_list, default=DEFAULT_SWEEP,
                       metavar="S1,S2,...",
                       help="mean interarrival values in seconds "
                            "(default: 2.5,25/9,10/3,5)")
        p.add_argument("--cooperation", choices=("on", "off", "both"),
                       default="both", help="which admission modes to run")

    run_p = sub.add_parser("run", help="one experiment; writes metrics.csv and summary.csv")
    common(run_p)
    run_p.add_argument("--cooperation", choices=("on", "off"),
                       help="override the scenario's cooperation flag")
    run_p.set_defaults(func=cmd_run)

    sweep_p = sub.add_parser(
        "sweep", help="one experiment per arrival rate; writes sweep.csv and charts")
    grid(sweep_p)
    sweep_p.add_argument("--no-svg", dest="svg", action="store_false",
                         help="skip blocking.svg and profits.svg")
    sweep_p.set_defaults(func=cmd_sweep)

    compare_p = sub.add_parser(
        "compare", help="paired cooperation on/off metrics per arrival rate; "
                        "writes compare.csv and exchange.csv")
    grid(compare_p)
    compare_p.set_defaults(func=cmd_compare)
    return parser


def _load(args) -> Scenario:
    if args.scenario:
        scenario = load_scenario(args.scenario)
    else:
        scenario = ensure_valid(default_scenario())
    overrides = {}
    if args.seed is not None:
        overrides["base_seed"] = args.seed
    if args.replications is not None:
        overrides["replications"] = args.replications
    cooperation = getattr(args, "cooperation", None)
    if cooperation in ("on", "off"):
        overrides["cooperation"] = cooperation == "on"
    if overrides:
        scenario = ensure_valid(replace(scenario, **overrides))
    # The grid runs the scenario at each sweep value, so each must be valid there.
    violations = [violation for mean_interarrival in dict.fromkeys(getattr(args, "sweep", ()))
                  for violation in validate_scenario(
                      replace(scenario, mean_interarrival_s=mean_interarrival))]
    if violations:
        raise ScenarioError(violations)
    return scenario


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenario = _load(args)
    except ScenarioError as exc:
        for violation in exc.violations:
            print(violation, file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot read scenario: {exc}", file=sys.stderr)
        return 1
    try:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return args.func(scenario, args, out)
    except OSError as exc:
        print(f"cannot write reports: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
