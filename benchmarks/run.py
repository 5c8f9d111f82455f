"""accessim benchmark: drive the `accessim` CLI on generated workloads and report metrics.

    python3 benchmarks/run.py --workload sweep-calibrated --seed 1 --seconds 40 --trace 0
    python3 benchmarks/run.py --workload all --seconds 40          # every workload in turn

Each repeat is a fresh interpreter (`child.py`), so import cost and peak memory
belong to that repeat.  Repeats run serially until `--seconds` is used up and
every metric is the median over them.  Each repeat also times the fixed
reference work in `reference.py` right after its command, in the same
process, and its set-up, wall and CPU times are scaled by
`REFERENCE_S / reference time`, so that the host's swings in speed cancel
out; the unscaled medians are printed beside them.  `--trace 0` reports the end-to-end
metrics of untraced repeats; `--trace 1` alternates untraced and traced
repeats and reports the per-layer metrics of the traced ones, plus the ratio
of traced to untraced wall time.  Every repeat checks its outputs; the last
line of standard output is one JSON object, and the exit code is 1 when any
check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import REFERENCE_S
from tracer import AGGREGATE_SPANS
from workloads import E2E_METRICS, LAYER_METRICS, SCENARIOS, SRC, WORK, WORKLOADS

CHILD = Path(__file__).resolve().parent / "child.py"
MIN_REPEATS = 3          # per kind of repeat, even when --seconds is too short
CHILD_TIMEOUT_S = 60
# Repeats use cached bytecode, as an installed package does.
ENV = {key: value for key, value in os.environ.items() if key != "PYTHONDONTWRITEBYTECODE"}


def run_child(workload, seed: int, scenario: Path, trace: bool) -> dict:
    """Run one repeat in a fresh interpreter and return its JSON record."""
    out = scenario.parent / "out"
    shutil.rmtree(out, ignore_errors=True)
    argv = [sys.executable, str(CHILD), "--workload", workload.name, "--seed", str(seed),
            "--scenario", str(scenario), "--out", str(out), "--trace", str(int(trace))]
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, env=ENV,
                              timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        record = json.loads(lines[-1]) if lines else None
        problem = proc.stderr.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
    except subprocess.TimeoutExpired:
        record, problem = None, [f"repeat exceeded {CHILD_TIMEOUT_S} s"]
    except json.JSONDecodeError:
        record, problem = None, ["repeat printed no result"]
    if record is None:
        operations = workload.replications + 1 + int(trace)
        return {"attempted": operations, "failed": operations,
                "errors": [f"{workload.name} repeat failed: {problem[0]}"]}
    return record


def measure(workload, seed: int, seconds: float, trace: bool) -> tuple[list, list]:
    """Alternate untraced (and, with trace, traced) repeats until the time is used up."""
    work = WORK / workload.name
    scenario = workload.write_scenario(work / "scenario.json")
    # Fill the bytecode cache so no repeat pays for compiling the package; a
    # package that fails to import fails in the first repeat instead.
    subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r}); "
                    "import accessim.cli"], capture_output=True, env=ENV, timeout=CHILD_TIMEOUT_S)
    kinds = (False, True) if trace else (False,)
    records: dict[bool, list] = {kind: [] for kind in kinds}
    durations: dict[bool, list] = {kind: [] for kind in kinds}
    start = time.perf_counter()
    while True:
        for kind in kinds:
            elapsed = time.perf_counter() - start
            enough = all(len(records[k]) >= MIN_REPEATS for k in kinds)
            if enough and elapsed + statistics.median(durations[kind]) > seconds:
                return records[False], records.get(True, [])
            began = time.perf_counter()
            record = run_child(workload, seed, scenario, kind)
            durations[kind].append(time.perf_counter() - began)
            records[kind].append(record)
            if record["errors"]:
                return records[False], records.get(True, [])


def summarize(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


SCALED = ("setup_s", "wall_s", "cpu_s")


def end_to_end(records: list, scaled: bool = True) -> dict[str, list[float]]:
    """Per-repeat samples of every end-to-end metric; times scaled to the reference host."""
    samples = {name: [] for name in E2E_METRICS}
    for r in records:
        scale = REFERENCE_S / r["reference_s"] if scaled else 1.0
        for name in SCALED:
            samples[name].append(r[name] * scale)
        samples["arrivals_per_s"].append(r["arrivals"] / (r["wall_s"] * scale))
        samples["peak_rss_mb"].append(r["peak_rss_mb"])
    return samples


def layer_values(record: dict) -> dict[str, float]:
    """Per-layer metrics of one traced repeat, except the overhead ratio."""
    spans, counts = record["spans"], record["counts"]

    def span(name, field):
        return spans.get(name, {}).get(field, 0)

    admits = span("selection.admit", "calls")
    examined = counts.get("selection.candidates_examined", 0)
    special = {
        "engine.sessions_logged": counts.get("engine.sessions_logged", 0),
        "selection.home_hit_ratio":
            counts.get("selection.home_hits", 0) / admits if admits else 0.0,
        "selection.blocked_ratio":
            counts.get("selection.blocked", 0) / admits if admits else 0.0,
        "selection.candidate_feasible_ratio":
            span("scoring.candidate_score", "calls") / examined if examined else 0.0,
        "analytics.aggregate.self_s":
            sum(span(name, "self_s") for name in AGGREGATE_SPANS),
        "cli.csv_bytes": counts.get("cli.csv_bytes", 0),
        "charts.svg_bytes": counts.get("charts.svg_bytes", 0),
    }
    values = {}
    for metric in LAYER_METRICS:
        if metric in special:
            values[metric] = special[metric]
        elif metric != "trace.overhead_ratio":
            name, field = metric.rsplit(".", 1)
            values[metric] = span(name, field)
    return values


def counts_of(record: dict) -> dict:
    return {"calls": {name: span["calls"] for name, span in record["spans"].items()},
            "counts": record["counts"]}


def run_workload(workload, seed: int, seconds: float, trace: bool
                 ) -> tuple[dict, list, list]:
    """Measure one workload and print one line per metric.

    Returns the JSON result and the untraced and traced repeat records.
    """
    untraced, traced = measure(workload, seed, seconds, trace)
    records = untraced + traced
    errors = [error for r in records for error in r["errors"]]
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    if trace and not errors:
        # Counts must repeat exactly from one traced repeat to the next.
        attempted += 1
        first = counts_of(traced[0])
        if any(counts_of(r) != first for r in traced[1:]):
            errors.append(f"{workload.name}: traced counts differ between repeats")
            failed += 1
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": {}}
    for error in errors[:20]:
        print(f"CHECK FAILED {error}", file=sys.stderr)
    if errors:
        return result, untraced, traced

    if trace:
        samples = {name: [] for name in LAYER_METRICS if name != "trace.overhead_ratio"}
        for record in traced:
            for name, value in layer_values(record).items():
                samples[name].append(value)
        samples["trace.overhead_ratio"] = [
            statistics.median(end_to_end(traced)["wall_s"])
            / statistics.median(end_to_end(untraced)["wall_s"])]
        units = LAYER_METRICS
        n = len(traced)
    else:
        samples = end_to_end(untraced)
        units = E2E_METRICS
        n = len(untraced)
        raw = end_to_end(untraced, scaled=False)
        speed = [REFERENCE_S / r["reference_s"] for r in untraced]
        print(f"{workload.name:18s} unscaled medians: " + " ".join(
            f"{name}={statistics.median(raw[name]):.6g}" for name in SCALED)
            + f" host speed={statistics.median(speed):.4g} (reference {REFERENCE_S} s / measured)")
    for name, (unit, _) in units.items():
        q1, median, q3 = summarize(samples[name])
        result["metrics"][name] = {"value": median, "unit": unit}
        print(f"{workload.name:18s} {name:42s} {median:14.6g} {unit:6s} "
              f"q1={q1:.6g} q3={q3:.6g} n={n}")
    first = records[0]
    print(f"{workload.name:18s} arrivals={first['arrivals']} served_home="
          f"{first['served_home']} served_transferred={first['served_transferred']} "
          f"blocked={first['blocked']} error_rate={result['failed'] / result['attempted']:.6g}")
    return result, untraced, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "accessim" / "cli.py").is_file() or not SCENARIOS.is_dir():
        print(f"accessim sources not found under {SRC.parent}: run the benchmark "
              "from a full checkout", file=sys.stderr)
        return 2

    if args.workload != "all":
        result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                              bool(args.trace))[0]
    else:
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in WORKLOADS.values():
            one = run_workload(workload, args.seed, args.seconds, bool(args.trace))[0]
            result["correct"] &= one["correct"]
            result["attempted"] += one["attempted"]
            result["failed"] += one["failed"]
            for name, metric in one["metrics"].items():
                result["metrics"][f"{workload.name}.{name}"] = metric
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
