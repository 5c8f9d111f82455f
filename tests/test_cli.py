import csv
import json
import os
import subprocess
import sys
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