import csv
import enum
import json
import os
import subprocess
import sys
import xml.dom.minidom
from pathlib import Path

import pytest

import accessim
from accessim import cli
from accessim.charts import Series, line_chart
from accessim.model import (
    MAX_EXPECTED_ARRIVALS,
    MetricsReport,
    ScenarioError,
    ServiceKind,
    replace,
    validate_scenario,
)

# The CLI child process imports accessim from where this process found it,
# so the tests also run from a checkout without an install.
CHILD_PYTHONPATH = os.pathsep.join(filter(None, (
    str(Path(accessim.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH"))))
SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
CALIBRATED = str(SCENARIO_DIR / "calibrated.json")

# Format version 1 headers; changing any of these is a breaking change and
# must bump CSV_FORMAT_VERSION plus the README format notes.
METRICS_HEADER = ("replication,seed,scope,arrivals,blocked,blocking_probability,"
                  "served_home,served_transferred,income_own,income_transferred,"
                  "income_guests,cost_paid,profit")
SUMMARY_HEADER = "scope,metric,mean,stddev,ci95,min,max"
SWEEP_HEADER = ("mean_interarrival_s,cooperation,replication,seed,arrivals,"
                "blocked,blocking_probability,profit_op1,profit_op2,profit_op3")
COMPARE_HEADER = ("mean_interarrival_s,cooperation,arrivals_mean,blocking_mean,"
                  "blocking_stddev,blocking_ci95,blocking_op1_mean,blocking_op2_mean,"
                  "blocking_op3_mean,profit_op1_mean,profit_op2_mean,profit_op3_mean")
EXCHANGE_HEADER = "from_operator,service_class,to_op1,to_op2,to_op3"


def run_cli(*args, cwd=None, timeout=None):
    return subprocess.run([sys.executable, "-m", "accessim.cli", *args],
                          capture_output=True, text=True, cwd=cwd, timeout=timeout,
                          env={**os.environ, "PYTHONPATH": CHILD_PYTHONPATH})


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _header(path):
    return Path(path).read_text().splitlines()[0]


def test_run_emits_metrics_and_summary(tmp_path):
    out = tmp_path / "reports"
    proc = run_cli("run", "--scenario", CALIBRATED, "--out", str(out),
                   "--replications", "3")
    assert proc.returncode == 0, proc.stderr
    assert _header(out / "metrics.csv") == METRICS_HEADER
    assert _header(out / "summary.csv") == SUMMARY_HEADER
    rows = _rows(out / "metrics.csv")
    # Three replications, each reported globally and per operator.
    assert len(rows) == 3 * 4
    assert {row["scope"] for row in rows} == {"global", "op1", "op2", "op3"}
    summary = _rows(out / "summary.csv")
    blocking = [row for row in summary
                if row["scope"] == "global" and row["metric"] == "blocking_probability"]
    assert len(blocking) == 1
    assert 0.0 <= float(blocking[0]["mean"]) <= 1.0


def test_run_is_byte_identical_for_same_seed(tmp_path):
    for name in ("a", "b"):
        proc = run_cli("run", "--scenario", CALIBRATED, "--out",
                       str(tmp_path / name), "--replications", "3", "--seed", "7")
        assert proc.returncode == 0, proc.stderr
    for filename in ("metrics.csv", "summary.csv"):
        assert (tmp_path / "a" / filename).read_bytes() \
            == (tmp_path / "b" / filename).read_bytes()


def test_csv_cells_print_ints_in_full_and_floats_to_ten_digits(tmp_path):
    path = tmp_path / "cells.csv"
    cli._write_csv(path, ("kind", "count", "value"), [
        ("ints", 0, 12345678901234567890),
        ("floats", 1e-300, 0.1 + 0.2, -0.0, 2.0, 1 / 3, 123456789012.0),
        ("text", ServiceKind.INTERACTIVE, "a,b"),
    ])
    assert path.read_bytes() == (
        b"kind,count,value\n"
        b"ints,0,12345678901234567890\n"
        b"floats,1e-300,0.3,-0,2,0.3333333333,1.23456789e+11\n"
        b'text,interactive,"a,b"\n')
    with pytest.raises(TypeError, match="no boolean cells in reports"):
        cli._write_csv(path, ("flag",), [(True,)])


def test_csv_cells_of_no_report_type_are_refused(tmp_path):
    # Only an exact int or float is a number cell: an int subclass such as an
    # IntEnum member is refused, not written as whatever its str() gives.
    path = tmp_path / "cells.csv"
    for cell, name in ((None, "NoneType"), (enum.IntEnum("Ids", "ONE").ONE, "Ids"),
                       (b"x", "bytes")):
        with pytest.raises(TypeError, match=f"^no {name} cells in reports$"):
            cli._write_csv(path, ("cell",), [(cell,)])


def test_seed_override_changes_the_draws(tmp_path):
    run_cli("run", "--scenario", CALIBRATED, "--out", str(tmp_path / "a"),
            "--replications", "2", "--seed", "7")
    run_cli("run", "--scenario", CALIBRATED, "--out", str(tmp_path / "b"),
            "--replications", "2", "--seed", "8")
    assert (tmp_path / "a" / "metrics.csv").read_bytes() \
        != (tmp_path / "b" / "metrics.csv").read_bytes()


def test_invalid_scenario_exits_2_without_partial_outputs(tmp_path):
    doc = json.loads(Path(CALIBRATED).read_text())
    doc["qos_weights"]["conversational"] = [0.5, 0.5, 0.5, 0.5]
    doc["operators"][0]["capacity_kbps"] = -1.0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "never"
    proc = run_cli("run", "--scenario", str(bad), "--out", str(out))
    assert proc.returncode == 2
    lines = [line for line in proc.stderr.splitlines() if line]
    assert len(lines) >= 2
    assert any("weight-sum violation" in line for line in lines)
    assert any("non-positive capacity" in line for line in lines)
    assert not out.exists()


def test_non_object_demand_exits_2_without_partial_outputs(tmp_path):
    for demand in ({"conversational": 5}, [1]):
        doc = json.loads(Path(CALIBRATED).read_text())
        doc["demand"] = demand
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "never"
        proc = run_cli("run", "--scenario", str(bad), "--out", str(out))
        assert proc.returncode == 2, demand
        lines = [line for line in proc.stderr.splitlines() if line]
        assert lines and all("demand" in line for line in lines), proc.stderr
        assert not out.exists(), demand


def test_unknown_scenario_key_exits_2_without_partial_outputs(tmp_path):
    doc = json.loads(Path(CALIBRATED).read_text())
    doc["cooperaton"] = False
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "never"
    proc = run_cli("run", "--scenario", str(bad), "--out", str(out))
    assert proc.returncode == 2
    assert "unknown field: cooperaton" in proc.stderr
    assert not out.exists()


def test_repeated_scenario_key_exits_2_without_partial_outputs(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(Path(CALIBRATED).read_text().replace(
        '"cooperation": true', '"cooperation": false, "cooperation": true', 1))
    out = tmp_path / "never"
    proc = run_cli("run", "--scenario", str(bad), "--out", str(out))
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == ["duplicate field: cooperation"]
    assert not out.exists()


def test_scenario_that_is_not_json_text_exits_2_without_partial_outputs(tmp_path):
    for raw in (b"\xc3\x28", b"\xff\xfe{}"):
        bad = tmp_path / "bad.json"
        bad.write_bytes(raw)
        out = tmp_path / "never"
        proc = run_cli("run", "--scenario", str(bad), "--out", str(out))
        assert proc.returncode == 2, raw
        assert "not valid JSON" in proc.stderr and "Traceback" not in proc.stderr, proc.stderr
        assert not out.exists(), raw


def test_deeply_nested_scenario_exits_2_without_partial_outputs(tmp_path):
    # json recurses once per nested array; too deep a file is not valid JSON.
    bad = tmp_path / "deep.json"
    bad.write_text('{"operators": ' + "[" * 100000 + "]" * 100000 + "}")
    out = tmp_path / "never"
    proc = run_cli("run", "--scenario", str(bad), "--out", str(out))
    assert proc.returncode == 2
    [line] = proc.stderr.splitlines()
    assert line.startswith(f"not valid JSON: {bad}: ")
    assert not out.exists()


def test_scenario_that_is_not_an_object_exits_2_without_partial_outputs(cells, tmp_path,
                                                                       capsys):
    path = tmp_path / "list.json"
    path.write_text("[]")
    out = tmp_path / "never"
    assert cli.main(["run", "--scenario", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "scenario document must be a JSON object\n"
    assert cells == []
    assert not out.exists()


def test_a_scenario_whose_arrival_rate_overflows_exits_2_without_partial_outputs(tmp_path):
    # Valid but for its infinite arrival rate, it would never reach its horizon.
    doc = json.loads(Path(CALIBRATED).read_text())
    doc.update(duration_s=1e-310, mean_interarrival_s=1e-312, replications=1)
    bad = tmp_path / "subnormal.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "never"
    proc = run_cli("run", "--scenario", str(bad), "--out", str(out), timeout=10)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "traffic parameter too small: mean_interarrival_s = 1e-312"]
    assert not out.exists()



def test_a_probability_too_large_for_a_float_exits_2_without_partial_outputs(tmp_path):
    # json writes the int as its 401 digits, and reads it back as that int.
    doc = json.loads(Path(CALIBRATED).read_text())
    doc["profile_mix"][0]["probability"] = 10**400
    bad = tmp_path / "huge-prob.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "never"
    proc = run_cli("run", "--scenario", str(bad), "--out", str(out))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == [
        f"non-finite number: profile_mix[0].probability = {10**400!r}"]
    assert not out.exists()

def test_prices_whose_money_could_overflow_exit_2_without_partial_outputs(tmp_path):
    # Valid but for its prices, whose sweep once wrote nan and inf profit cells and exited 0.
    doc = json.loads(Path(CALIBRATED).read_text())
    for op in doc["operators"]:
        op["sp"] = op["cs"] = 1e306
    bad = tmp_path / "huge-money.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "never"
    proc = run_cli("sweep", "--scenario", str(bad), "--replications", "2", "--out", str(out))
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "money out of range: prices up to 1e+306 could sum past the float range in a report"]
    assert not out.exists()


def test_unreadable_scenario_exits_1(tmp_path):
    proc = run_cli("run", "--scenario", str(tmp_path / "missing.json"),
                   "--out", str(tmp_path / "out"))
    assert proc.returncode == 1
    assert "cannot read scenario" in proc.stderr


def test_bad_sweep_list_is_a_usage_error(tmp_path):
    for sweep in ("2.5,zero", "nan", "inf", "2.5,-1"):
        proc = run_cli("sweep", "--scenario", CALIBRATED, "--out", str(tmp_path / "o"),
                       "--sweep", sweep)
        assert proc.returncode == 2, sweep
        assert not (tmp_path / "o").exists(), sweep


def test_an_unparsable_sweep_value_is_named_in_the_usage_error(tmp_path, capsys):
    out = tmp_path / "never"
    with pytest.raises(SystemExit) as exited:
        cli.main(["sweep", "--scenario", CALIBRATED, "--sweep", "2.5,x", "--out", str(out)])
    assert exited.value.code == 2
    assert "bad sweep list '2.5,x'" in capsys.readouterr().err
    assert not out.exists()


def test_an_out_path_that_is_a_file_exits_1(cells, tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    assert cli.main(["run", "--scenario", CALIBRATED, "--out", str(out)]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("cannot write reports: ")
    assert out.read_text() == "not a directory\n"


def test_sweep_value_above_the_arrival_cap_is_rejected(tmp_path):
    # Each sweep value is validated like the scenario, cap on expected arrivals
    # included: 1e-300 s between arrivals would never finish.
    for command in ("sweep", "compare"):
        proc = run_cli(command, "--scenario", CALIBRATED, "--out", str(tmp_path / "o"),
                       "--sweep", "2.5,1e-300,1e-299")
        assert proc.returncode == 2, command
        assert [line.split(":")[0] for line in proc.stderr.splitlines()] == [
            "too many expected arrivals"] * 2
        assert not (tmp_path / "o").exists(), command


def test_replications_above_the_arrival_cap_are_rejected(tmp_path):
    # 1e9 replications of ~480 arrivals each would run for days.
    proc = run_cli("run", "--scenario", CALIBRATED, "--out", str(tmp_path / "o"),
                   "--replications", "1000000000")
    assert proc.returncode == 2
    assert [line.split(":")[0] for line in proc.stderr.splitlines()] == [
        "too many expected arrivals"]
    assert not (tmp_path / "o").exists()


@pytest.fixture
def cells(monkeypatch):
    """Stands in for ``cli.run_experiment``: records each cell it is given and runs none.

    A grid of several cells passes each cell its seeds' tapes as well.
    """
    ran = []

    def counted(scenario, tapes=None):
        ran.append(scenario)
        return MetricsReport(scenario=scenario, results=[])

    monkeypatch.setattr(cli, "run_experiment", counted)
    return ran


def test_grid_refuses_every_distinct_violation_before_running_a_cell(cells):
    scenario = accessim.load_scenario(CALIBRATED)
    sweep, modes = (2.5, -1.0, 1e-300), (True, False)
    with pytest.raises(ScenarioError) as refused:
        cli.run_grid(scenario, sweep, modes)
    assert cells == []
    # Both modes of a rate break the same rule in the same words: listed once.
    per_cell = [validate_scenario(replace(scenario, mean_interarrival_s=rate,
                                          cooperation=cooperation))
                for rate in sweep for cooperation in modes]
    assert [len(violations) for violations in per_cell] == [0, 0, 1, 1, 1, 1]
    assert refused.value.violations == [per_cell[2][0], per_cell[4][0]]
    assert refused.value.violations[0].startswith("non-positive")
    assert refused.value.violations[1].startswith("too many expected arrivals")


def test_grid_judges_the_cells_it_runs_not_the_scenario_rate(cells, tmp_path):
    # 30000 replications of calibrated.json's 480 arrivals break the arrival cap,
    # but at 5 s between arrivals its one cell expects 30000 x 240, under it.
    scenario = replace(accessim.load_scenario(CALIBRATED), replications=30000)
    assert validate_scenario(scenario)
    grid = cli.run_grid(scenario, [5.0], (True,))
    assert list(grid) == [(5.0, True)]
    assert cells == [replace(scenario, mean_interarrival_s=5.0)]
    assert cli.main(["sweep", "--scenario", CALIBRATED, "--replications", "30000",
                     "--sweep", "5", "--cooperation", "on", "--no-svg",
                     "--out", str(tmp_path / "o")]) == 0
    assert len(cells) == 2
    assert _header(tmp_path / "o" / "sweep.csv") == SWEEP_HEADER


def test_a_scenario_file_is_judged_as_written_before_any_flag(cells, tmp_path, capsys):
    # load_scenario judges the file at its own rate and replications, so its
    # 30000 replications break the arrival cap before --replications 2 applies,
    # although the one cell the command names would be within it.
    doc = json.loads(Path(CALIBRATED).read_text())
    doc["replications"] = 30000
    path = tmp_path / "many.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "never"
    assert cli.main(["sweep", "--scenario", str(path), "--sweep", "5", "--cooperation", "on",
                     "--replications", "2", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "too many expected arrivals: 30000 replications x 480 arrivals, "
        f"above {MAX_EXPECTED_ARRIVALS}\n")
    assert cells == []
    assert not out.exists()


def test_a_violation_of_every_cell_is_printed_once(cells, tmp_path, capsys):
    out = tmp_path / "never"
    assert cli.main(["sweep", "--scenario", CALIBRATED, "--replications", "0",
                     "--out", str(out)]) == 2
    # The default grid has 4 rates x 2 modes, each with zero replications.
    assert [line.split(":")[0] for line in capsys.readouterr().err.splitlines()] == [
        "replications out of range"]
    assert cells == []
    assert not out.exists()


def test_sweep_blocks_and_charts(tmp_path):
    out = tmp_path / "sweep"
    proc = run_cli("sweep", "--scenario", CALIBRATED, "--out", str(out),
                   "--replications", "2", "--sweep", "2.5,5")
    assert proc.returncode == 0, proc.stderr
    assert _header(out / "sweep.csv") == SWEEP_HEADER
    rows = _rows(out / "sweep.csv")
    assert {row["mean_interarrival_s"] for row in rows} == {"2.5", "5"}
    assert {row["cooperation"] for row in rows} == {"on", "off"}
    # 2 rates x 2 modes x 2 replications.
    assert len(rows) == 8
    assert (out / "blocking.svg").exists()
    assert (out / "profits.svg").exists()
    assert (out / "blocking.svg").read_text().startswith("<svg")


def test_charts_escape_operator_names(tmp_path):
    # An operator's name is chart text: "AT&T" must be written as "AT&amp;T".
    scenario = accessim.load_scenario(CALIBRATED)
    operators = (replace(scenario.operators[0], name="AT&T"), *scenario.operators[1:])
    path = tmp_path / "named.json"
    accessim.save_scenario(replace(scenario, operators=operators, duration_s=120.0), path)
    out = tmp_path / "sweep"
    proc = run_cli("sweep", "--scenario", str(path), "--out", str(out),
                   "--replications", "1", "--sweep", "2.5,5")
    assert proc.returncode == 0, proc.stderr
    for chart in ("blocking.svg", "profits.svg"):
        xml.dom.minidom.parse(str(out / chart))
    labels = {node.firstChild.data for node in
              xml.dom.minidom.parse(str(out / "profits.svg")).getElementsByTagName("text")}
    assert {"AT&T on", "AT&T off"} <= labels


def test_one_rate_sweep_draws_well_formed_charts(tmp_path):
    # Both modes of the one rate see the same arrivals, so every point has one x:
    # the flat span is widened around it and the points sit mid-plot.
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--scenario", CALIBRATED, "--replications", "1",
                     "--sweep", "5", "--out", str(out)]) == 0
    for chart in ("blocking.svg", "profits.svg"):
        points = xml.dom.minidom.parse(str(out / chart)).getElementsByTagName("circle")
        assert points
        assert {point.getAttribute("cx") for point in points} == {"275.00"}


def test_a_chart_of_empty_series_is_refused():
    for series in ([], [Series("on", ()), Series("off", (), dashed=True)]):
        with pytest.raises(ValueError, match="nothing to draw"):
            line_chart("title", "x", "y", series)


def test_no_svg_flag_suppresses_charts(tmp_path):
    out = tmp_path / "sweep"
    proc = run_cli("sweep", "--scenario", CALIBRATED, "--out", str(out),
                   "--replications", "2", "--sweep", "2.5", "--no-svg")
    assert proc.returncode == 0, proc.stderr
    assert (out / "sweep.csv").exists()
    assert not (out / "blocking.svg").exists()
    assert not (out / "profits.svg").exists()


def test_sweep_single_mode_only_emits_that_mode(tmp_path):
    out = tmp_path / "sweep"
    proc = run_cli("sweep", "--scenario", CALIBRATED, "--out", str(out),
                   "--replications", "2", "--sweep", "2.5", "--cooperation", "on")
    assert proc.returncode == 0, proc.stderr
    assert {row["cooperation"] for row in _rows(out / "sweep.csv")} == {"on"}


def test_compare_pairs_modes_and_reports_exchange(tmp_path):
    out = tmp_path / "cmp"
    proc = run_cli("compare", "--scenario", CALIBRATED, "--out", str(out),
                   "--replications", "3", "--sweep", "2.5,5")
    assert proc.returncode == 0, proc.stderr
    assert _header(out / "compare.csv") == COMPARE_HEADER
    rows = _rows(out / "compare.csv")
    assert len(rows) == 4
    by_rate = {}
    for row in rows:
        by_rate.setdefault(row["mean_interarrival_s"], set()).add(row["cooperation"])
    assert by_rate == {"2.5": {"on", "off"}, "5": {"on", "off"}}
    for row in rows:
        if row["cooperation"] == "off":
            paired = next(r for r in rows
                          if r["mean_interarrival_s"] == row["mean_interarrival_s"]
                          and r["cooperation"] == "on")
            # Common random numbers: both modes see the same arrival stream.
            assert paired["arrivals_mean"] == row["arrivals_mean"]

    assert _header(out / "exchange.csv") == EXCHANGE_HEADER
    exchange = _rows(out / "exchange.csv")
    assert len(exchange) == 6
    loss_sensitive = [row for row in exchange if row["service_class"] == "interactive"]
    assert all(float(row["to_op1"]) == 0.0 for row in loss_sensitive)


def test_compare_without_cooperation_has_empty_exchange(tmp_path):
    out = tmp_path / "cmp"
    proc = run_cli("compare", "--scenario", CALIBRATED, "--out", str(out),
                   "--replications", "2", "--sweep", "2.5", "--cooperation", "off")
    assert proc.returncode == 0, proc.stderr
    for row in _rows(out / "exchange.csv"):
        assert float(row["to_op1"]) == 0.0
        assert float(row["to_op2"]) == 0.0
        assert float(row["to_op3"]) == 0.0


def test_builtin_default_scenario_is_used_when_none_given(tmp_path):
    out = tmp_path / "out"
    proc = run_cli("run", "--out", str(out), "--replications", "2")
    assert proc.returncode == 0, proc.stderr
    assert (out / "summary.csv").exists()


def test_compare_is_deterministic(tmp_path):
    for name in ("a", "b"):
        proc = run_cli("compare", "--scenario", CALIBRATED, "--out",
                       str(tmp_path / name), "--replications", "2", "--sweep", "2.5")
        assert proc.returncode == 0, proc.stderr
    for filename in ("compare.csv", "exchange.csv"):
        assert (tmp_path / "a" / filename).read_bytes() \
            == (tmp_path / "b" / filename).read_bytes()


def test_run_sweep_and_compare_agree_on_the_same_experiment(tmp_path):
    # calibrated.json's own mean interarrival time is 2.5 s, the one rate run uses.
    common = ("--scenario", CALIBRATED, "--replications", "3", "--seed", "7")
    commands = {"run-on": ("run", "--cooperation", "on"),
                "run-off": ("run", "--cooperation", "off"),
                "sweep": ("sweep", "--sweep", "2.5", "--no-svg"),
                "compare": ("compare", "--sweep", "2.5")}
    for out, args in commands.items():
        proc = run_cli(*args, *common, "--out", str(tmp_path / out))
        assert proc.returncode == 0, proc.stderr
    sweep = _rows(tmp_path / "sweep" / "sweep.csv")
    compare = _rows(tmp_path / "compare" / "compare.csv")
    for mode in ("on", "off"):
        metrics = _rows(tmp_path / f"run-{mode}" / "metrics.csv")
        cells = ("replication", "seed", "arrivals", "blocked", "blocking_probability")
        swept = [row for row in sweep if row["cooperation"] == mode]
        assert [[row[cell] for cell in cells] for row in metrics if row["scope"] == "global"] \
            == [[row[cell] for cell in cells] for row in swept]
        for op in (1, 2, 3):
            assert [row["profit"] for row in metrics if row["scope"] == f"op{op}"] \
                == [row[f"profit_op{op}"] for row in swept]

        summary = {(row["scope"], row["metric"]): row
                   for row in _rows(tmp_path / f"run-{mode}" / "summary.csv")}
        [compared] = [row for row in compare if row["cooperation"] == mode]
        blocking = summary["global", "blocking_probability"]
        assert compared["arrivals_mean"] == summary["global", "arrivals"]["mean"]
        assert (compared["blocking_mean"], compared["blocking_stddev"],
                compared["blocking_ci95"]) == (blocking["mean"], blocking["stddev"],
                                               blocking["ci95"])
        for op in (1, 2, 3):
            assert compared[f"blocking_op{op}_mean"] \
                == summary[f"op{op}", "blocking_probability"]["mean"]
            assert compared[f"profit_op{op}_mean"] == summary[f"op{op}", "profit"]["mean"]


# Run in a fresh interpreter: prints, after each step, which of the heavy
# modules it loaded since the snapshot taken before accessim was imported.
# accessim runs every replication in-process and declares its records without
# dataclasses or typing, so no step may load one.  Comparing with the snapshot
# keeps the guard true where the interpreter's site hooks preload typing.
IMPORT_GUARD = """
import json, sys

HEAVY = ("dataclasses", "inspect", "typing", "concurrent.futures", "multiprocessing")
before = set(sys.modules)
steps = {}

def check(step):
    steps[step] = [name for name in HEAVY if name in sys.modules and name not in before]

import accessim
check("import accessim")
from accessim import cli
check("import accessim.cli")
status = cli.main(["run", "--scenario", sys.argv[1], "--replications", "2",
                   "--out", sys.argv[2]])
check("accessim run")
from accessim.model import replace
scenario = replace(accessim.load_scenario(sys.argv[1]), replications=1)
accessim.run_experiment(scenario)
check("run_experiment")
print(json.dumps({"status": status, "steps": steps}))
"""


def test_runs_never_import_dataclasses_typing_or_the_process_pool(tmp_path):
    proc = subprocess.run([sys.executable, "-c", IMPORT_GUARD, CALIBRATED,
                           str(tmp_path / "out")],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": CHILD_PYTHONPATH})
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["status"] == 0
    assert len(result["steps"]) == 4
    assert result["steps"] == {step: [] for step in result["steps"]}
    assert (tmp_path / "out" / "metrics.csv").exists()
