"""Command-line front end: single runs, arrival-rate sweeps, cooperation comparison.

Every command runs a grid of (mean interarrival, cooperation) cells through
``run_grid``; ``run`` is the one-cell grid at the scenario's own rate.  Each
cell is then summarized once, and every report is a projection of those
summaries.

Exit codes: 0 on success, 1 on I/O failure, 2 on scenario validation failure
(violations printed to stderr, one per line, with no partial outputs).

All CSV files start with a locked header (format version 1, see README) and
are byte-identical across re-runs with the same scenario and seed.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from . import analytics
from .charts import Series, line_chart
from .engine import record_tape, replication_seeds, run_experiment
from .model import (
    MAX_TAPE_DRAWS,
    MetricsReport,
    Scenario,
    ScenarioError,
    ServiceKind,
    default_scenario,
    expected_arrivals,
    load_scenario,
    replace,
    validate_scenario,
)

CSV_FORMAT_VERSION = 1

DEFAULT_SWEEP = (2.5, 25.0 / 9.0, 10.0 / 3.0, 5.0)
MODES = {"on": (True,), "off": (False,), "both": (True, False)}  # --cooperation choices

METRICS_HEADER = ("replication", "seed", "scope", *analytics.ScopeRow._fields)
SUMMARY_HEADER = ("scope", "metric", "mean", "stddev", "ci95", "min", "max")


def _cell_text(value) -> str:
    """A report cell's text: floats to 10 significant digits, ints in full, text as it is.

    Only an exact float or int is a number cell; a str (a str-valued enum
    included, which csv writes as its value) is text.  Any other type raises.
    """
    cls = type(value)
    if cls is float:
        return f"{value:.10g}"
    if cls is int:
        return str(value)
    if isinstance(value, str):
        return value
    raise TypeError(f"no {'boolean' if cls is bool else cls.__name__} cells in reports")


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell_text(cell) for cell in row])


def write_summary_csv(path: Path, stats) -> None:
    """One row per scope and metric of ``analytics.scope_stats``."""
    _write_csv(path, SUMMARY_HEADER, [
        (scope, metric, cell.mean, cell.stddev, cell.ci95_halfwidth,
         min(cell.values), max(cell.values))
        for scope, row in stats.items()
        for metric, cell in zip(analytics.ScopeRow._fields, row)])


def _mode_name(cooperation: bool) -> str:
    return "on" if cooperation else "off"


# --------------------------------------------------------------------------
# commands

def run_grid(scenario: Scenario, sweep, modes) -> dict[tuple[float, bool], MetricsReport]:
    """One experiment per (mean interarrival, cooperation) cell, rates outer, modes inner.

    Every cell is validated before any runs: a ``ScenarioError`` lists each
    distinct violation of the cells once.  Every cell keeps the scenario's base
    seed, so the modes of one rate see the same arrivals (common random
    numbers).  A rate given twice is run once.  Experiments go through this
    module's ``run_experiment``, so wrapping that one name sees every
    replication of the grid.

    A grid of more than one cell draws each seed once: before any cell runs,
    it records each seed's tape up to the horizon of its busiest cell, and
    every cell replays those, with the results of live draws.  It does so
    only while the tapes' expected arrivals stay under ``MAX_TAPE_DRAWS``; a
    larger grid, like a one-cell one, draws live.
    """
    cells = {(mean_interarrival, cooperation):
             replace(scenario, mean_interarrival_s=mean_interarrival, cooperation=cooperation)
             for mean_interarrival in dict.fromkeys(sweep) for cooperation in modes}
    violations = dict.fromkeys(violation for cell in cells.values()
                               for violation in validate_scenario(cell))
    if violations:
        raise ScenarioError(violations)
    tapes = None
    if len(cells) > 1:
        # The busiest cell has the shortest mean: a larger `1.0 / mean` rounds no
        # gap longer, so it needs the most draws and its tape serves every cell.
        busiest = min(cells.values(), key=lambda cell: cell.mean_interarrival_s)
        if scenario.replications * max(expected_arrivals(busiest), 1.0) < MAX_TAPE_DRAWS:
            tapes = {seed: record_tape(scenario, seed, busiest.mean_interarrival_s)
                     for seed in replication_seeds(scenario)}
    return {key: run_experiment(cell, tapes=tapes) for key, cell in cells.items()}


def _summaries(grid, stats: bool):
    """Each grid cell once, in grid order: its key, its replications, their
    ``scope_rows`` and, if ``stats``, the ``scope_stats`` of those (else None)."""
    for key, report in grid.items():
        tables = analytics.report_rows(report)
        yield key, report.results, tables, analytics.scope_stats(tables) if stats else None


def cmd_run(scenario: Scenario, grid, args, out: Path) -> int:
    [(_, results, tables, stats)] = _summaries(grid, stats=True)
    _write_csv(out / "metrics.csv", METRICS_HEADER,
               [(index, result.seed, scope, *row)
                for index, (result, table) in enumerate(zip(results, tables))
                for scope, row in table.items()])
    write_summary_csv(out / "summary.csv", stats)
    return 0


def cmd_sweep(scenario: Scenario, grid, args, out: Path) -> int:
    # Chart points: one curve per mode of the global blocking, then of each
    # operator's profit, in the order of the charts' series (colours follow it).
    curves = [(name, {cooperation: [] for _, cooperation in grid})
              for name in ("cooperation", *(net.name for net in scenario.operators))]
    rows = []
    for (mean_interarrival, cooperation), results, tables, stats in _summaries(grid, args.svg):
        for index, (result, table) in enumerate(zip(results, tables)):
            overall, *operators = table.values()
            rows.append((mean_interarrival, _mode_name(cooperation), index, result.seed,
                         *overall[:3], *(row.profit for row in operators)))
        if args.svg:
            overall, *operators = stats.values()
            arrivals = overall.arrivals.mean
            values = (overall.blocking_probability.mean, *(row.profit.mean for row in operators))
            for (_, by_mode), value in zip(curves, values):
                by_mode[cooperation].append((arrivals, value))
    _write_csv(out / "sweep.csv", ("mean_interarrival_s", "cooperation", "replication", "seed",
                                   "arrivals", "blocked", "blocking_probability",
                                   *(f"profit_op{net.id}" for net in scenario.operators)), rows)
    if args.svg:
        blocking, *profits = [[Series(f"{name} {_mode_name(cooperation)}", tuple(points),
                                      dashed=not cooperation)
                               for cooperation, points in by_mode.items()]
                              for name, by_mode in curves]
        (out / "blocking.svg").write_text(line_chart(
            "Global blocking vs offered arrivals", "mean arrivals per replication",
            "blocking probability", blocking))
        (out / "profits.svg").write_text(line_chart(
            "Operator profit vs offered arrivals", "mean arrivals per replication",
            "mean profit", [series for family in profits for series in family]))
    return 0


def cmd_compare(scenario: Scenario, grid, args, out: Path) -> int:
    ids = [net.id for net in scenario.operators]
    rows, cooperating = [], []
    for (mean_interarrival, cooperation), results, _, stats in _summaries(grid, stats=True):
        overall, *operators = stats.values()
        blocking = overall.blocking_probability
        rows.append((mean_interarrival, _mode_name(cooperation), overall.arrivals.mean,
                     blocking.mean, blocking.stddev, blocking.ci95_halfwidth,
                     *(row.blocking_probability.mean for row in operators),
                     *(row.profit.mean for row in operators)))
        if cooperation:
            cooperating.extend(results)
    _write_csv(out / "compare.csv", ("mean_interarrival_s", "cooperation", "arrivals_mean",
                                     "blocking_mean", "blocking_stddev", "blocking_ci95",
                                     *(f"blocking_op{op}_mean" for op in ids),
                                     *(f"profit_op{op}_mean" for op in ids)), rows)
    # Where the cooperating cells' transfers went, as shares of each (home, kind)
    # row; an operator's own column, and every column of an empty row, reads 0.
    transfers = analytics.exchange_matrix(cooperating)
    rows = []
    for from_op in ids:
        for kind in ServiceKind:
            row = [transfers.get((from_op, to_op, kind), 0) for to_op in ids]
            total = sum(row)
            rows.append((from_op, kind.value, *(100.0 * n / total if total else 0.0 for n in row)))
    _write_csv(out / "exchange.csv",
               ("from_operator", "service_class", *(f"to_op{op}" for op in ids)), rows)
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
    run_p.set_defaults(func=cmd_run, sweep=())

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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenario = load_scenario(args.scenario) if args.scenario else default_scenario()
        if args.seed is not None:
            scenario = replace(scenario, base_seed=args.seed)
        if args.replications is not None:
            scenario = replace(scenario, replications=args.replications)
        grid = run_grid(scenario, args.sweep or (scenario.mean_interarrival_s,),
                        MODES[args.cooperation] if args.cooperation else (scenario.cooperation,))
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
        return args.func(scenario, grid, args, out)
    except OSError as exc:
        print(f"cannot write reports: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
