import csv
import json
import os
import subprocess
import sys
import xml.dom.minidom
from dataclasses import replace
from pathlib import Path

import accessim

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


def run_cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "accessim.cli", *args],
                          capture_output=True, text=True, cwd=cwd,
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


def test_scenario_that_is_not_json_text_exits_2_without_partial_outputs(tmp_path):
    for raw in (b"\xc3\x28", b"\xff\xfe{}"):
        bad = tmp_path / "bad.json"
        bad.write_bytes(raw)
        out = tmp_path / "never"
        proc = run_cli("run", "--scenario", str(bad), "--out", str(out))
        assert proc.returncode == 2, raw
        assert "not valid JSON" in proc.stderr and "Traceback" not in proc.stderr, proc.stderr
        assert not out.exists(), raw


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


# Run in a fresh interpreter: prints, after each step, which process-pool
# modules are loaded.  accessim runs every replication in-process, so no step
# may load one.
POOL_GUARD = """
import json, sys
from dataclasses import replace

POOL = ("concurrent.futures", "multiprocessing")
steps = {}

def check(step):
    steps[step] = [name for name in POOL if name in sys.modules]

import accessim
check("import accessim")
from accessim import cli
check("import accessim.cli")
status = cli.main(["run", "--scenario", sys.argv[1], "--replications", "2",
                   "--out", sys.argv[2]])
check("accessim run")
scenario = replace(accessim.load_scenario(sys.argv[1]), replications=1)
accessim.run_experiment(scenario)
check("run_experiment")
print(json.dumps({"status": status, "steps": steps}))
"""


def test_serial_runs_never_import_the_process_pool(tmp_path):
    proc = subprocess.run([sys.executable, "-c", POOL_GUARD, CALIBRATED,
                           str(tmp_path / "out")],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": CHILD_PYTHONPATH})
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["status"] == 0
    assert len(result["steps"]) == 4
    assert result["steps"] == {step: [] for step in result["steps"]}
    assert (tmp_path / "out" / "metrics.csv").exists()
