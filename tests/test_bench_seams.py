"""The benchmark's tracer still finds every layer it wraps.

`benchmarks/tracer.py` times each layer by replacing a function where its
caller looks the name up, and `benchmarks/child.py` checks the traced call
counts against the replications' own counters.  A refactor that renames or
bypasses one of those seams breaks traced benchmark runs; this runs the
tracer and the check on a small cooperating experiment instead.  The child
also counts every replication of a command by wrapping `cli.run_experiment`,
so the sweep and compare grids must run through that name.
"""

import csv
from pathlib import Path

import pytest

from accessim import analytics, cli, engine
from accessim.model import default_scenario, replace
from accessim.selection import meets_bounds

ROOT = Path(__file__).resolve().parent.parent
BENCHMARKS = ROOT / "benchmarks"
CALIBRATED = ROOT / "scenarios" / "calibrated.json"


def test_traced_cooperating_experiment_passes_the_trace_check(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import child
    from tracer import Tracer

    scenario = replace(default_scenario(), replications=2, cooperation=True)
    tracer = Tracer().install()
    try:
        engine.run_experiment(scenario)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert len(tracer.results) == 2
    assert child.check_trace(tracer, summary) == []
    assert summary["spans"]["scoring.candidate_score"]["calls"] > 0
    # Bit rates are looked up only while the experiment builds its one admission
    # table, shared by both replications: one per (home, service kind) for the
    # home itself and one more per other operator that meets the class bounds.
    table_lookups = sum(1 + sum(meets_bounds(cand, bounds) for cand in scenario.operators
                                if cand.id != home.id)
                        for home in scenario.operators
                        for bounds in scenario.requirements.values())
    assert summary["spans"]["model.demand_rate"]["calls"] == table_lookups


def test_traced_cli_sweep_patches_the_record_classes(tmp_path, monkeypatch):
    # The tracer wraps methods and properties in the class dicts of records
    # (`ScopeStats.mean`, `DemandTable.rate`) as well as module functions.
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import child
    from tracer import SCOPE_STATS, Tracer

    originals = {name: vars(analytics.ScopeStats)[name] for name in SCOPE_STATS}
    tracer = Tracer().install()
    try:
        assert cli.main(["sweep", "--scenario", str(CALIBRATED), "--out", str(tmp_path),
                         "--sweep", "2.5,5", "--replications", "2"]) == 0
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert len(tracer.results) == 2 * 2 * 2
    assert child.check_trace(tracer, summary) == []
    for name in ("analytics.ScopeStats.mean", "model.demand_rate", "cli.write_csv",
                 "charts.line_chart"):
        assert summary["spans"][name]["calls"] > 0, name
    assert {name: vars(analytics.ScopeStats)[name] for name in SCOPE_STATS} == originals


def test_a_traced_sweep_records_its_tapes_outside_every_replication(tmp_path, monkeypatch):
    # A grid draws each seed's tape before any cell runs, through the traced
    # `generate_arrival`: those calls belong to no replication, and each
    # replication still makes its arrivals + 1.
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import child
    from tracer import NO_REPLICATION, Tracer

    tracer = Tracer().install()
    try:
        assert cli.main(["sweep", "--scenario", str(CALIBRATED), "--out", str(tmp_path),
                         "--sweep", "5,2.5", "--replications", "2", "--no-svg"]) == 0
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert child.check_trace(tracer, summary) == []
    # Each seed's tape runs to the first arrival past the horizon of the 2.5 s cells.
    taped = {result.seed: result.arrivals + 1 for scenario, result in tracer.results
             if scenario.mean_interarrival_s == 2.5}
    assert len(taped) == 2
    recorded = summary["per_replication"][("engine.generate_arrival", NO_REPLICATION)]
    assert recorded == sum(taped.values())


@pytest.mark.parametrize("command", ["sweep", "compare"])
def test_every_grid_replication_goes_through_cli_run_experiment(command, tmp_path,
                                                                monkeypatch):
    # benchmarks/child.py captures the reports exactly this way.
    reports = []
    run_experiment = cli.run_experiment

    def captured(*args, **kwargs):
        report = run_experiment(*args, **kwargs)
        reports.append(report)
        return report

    monkeypatch.setattr(cli, "run_experiment", captured)
    assert cli.main([command, "--scenario", str(CALIBRATED), "--out", str(tmp_path),
                     "--sweep", "2.5,5", "--replications", "2"]) == 0
    results = [result for report in reports for result in report.results]
    assert len(results) == 2 * 2 * 2
    if command == "sweep":
        with open(tmp_path / "sweep.csv", newline="") as fh:
            written = [int(row["arrivals"]) for row in csv.DictReader(fh)]
        assert written == [result.arrivals for result in results]
    else:
        with open(tmp_path / "compare.csv", newline="") as fh:
            written = [float(row["arrivals_mean"]) for row in csv.DictReader(fh)]
        assert written == [pytest.approx(analytics.arrivals_mean(report))
                           for report in reports]
