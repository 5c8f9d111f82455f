"""Record the benchmark's reference data next to it.

    python3 benchmarks/record.py digests               # writes benchmarks/digests.json
    python3 benchmarks/record.py baseline --seconds 40  # writes benchmarks/baseline.json

`digests` stores the SHA-256 of every CSV each workload writes for the
recorded seeds; every benchmark repeat on one of those seeds compares its
CSVs against them.  Re-record only when a change to the reports is intended.
`baseline` measures every workload (untraced and traced) on seed 1 and stores
the medians, the exact counts and the environment they were taken in.  Both
commands first check that BENCHMARK.json lists the metrics and workloads
defined in `workloads.py`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import run
from workloads import DIGESTS, E2E_METRICS, LAYER_METRICS, ROOT, SRC, WORKLOADS

RECORDED_SEEDS = (*range(32), 42)
BASELINE = Path(__file__).resolve().parent / "baseline.json"
BASELINE_SEED = 1


def check_manifest() -> None:
    """BENCHMARK.json names exactly the workloads and metrics the scripts produce."""
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    pairs = (
        ([w["name"] for w in manifest["workloads"]], list(WORKLOADS)),
        ([m["name"] for m in manifest["end_to_end"]], list(E2E_METRICS)),
        ([m["name"] for m in manifest["per_layer"]], list(LAYER_METRICS)),
    )
    for listed, defined in pairs:
        if listed != defined:
            raise SystemExit(f"BENCHMARK.json lists {listed}, the scripts define {defined}")
    for section, catalogue in (("end_to_end", E2E_METRICS), ("per_layer", LAYER_METRICS)):
        for metric in manifest[section]:
            if (metric["unit"], metric["better"]) != catalogue[metric["name"]]:
                raise SystemExit(f"BENCHMARK.json {metric['name']}: unit/better differ "
                                 f"from {catalogue[metric['name']]}")


def record_digests() -> None:
    sys.path.insert(0, str(SRC))
    from accessim import cli

    digests = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for workload in WORKLOADS.values():
            scenario = workload.write_scenario(Path(tmp) / f"{workload.name}.json")
            digests[workload.name] = {}
            for seed in RECORDED_SEEDS:
                out = Path(tmp) / f"{workload.name}-{seed}"
                if cli.main(workload.argv(scenario, out, seed)) != 0:
                    raise SystemExit(f"{workload.name} seed {seed}: command failed")
                digests[workload.name][str(seed)] = {
                    name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                    for name in workload.csvs}
            print(f"{workload.name}: {len(RECORDED_SEEDS)} seeds recorded", flush=True)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


def record_baseline(seconds: float) -> None:
    baseline = {
        "environment": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "processor": platform.processor() or "unknown",
        },
        "seed": BASELINE_SEED,
        "seconds": seconds,
        "workloads": {},
    }
    for workload in WORKLOADS.values():
        entry = {"why": workload.why, "command": ["accessim", *workload.command]}
        for trace in (False, True):
            result, untraced, traced = run.run_workload(workload, BASELINE_SEED, seconds,
                                                         trace)
            if not result["correct"]:
                raise SystemExit(f"{workload.name}: output check failed")
            key = "per_layer" if trace else "end_to_end"
            entry[key] = {name: metric["value"] for name, metric in result["metrics"].items()}
            entry[f"{key}_repeats"] = len(traced if trace else untraced)
        last = traced[-1]
        baseline["environment"]["accessim"] = last["version"]
        entry["counts"] = {
            "replications": workload.replications,
            "arrivals": last["arrivals"],
            "served_home": last["served_home"],
            "transfers": last["served_transferred"],
            "blocked": last["blocked"],
            "candidates_examined": last["counts"].get("selection.candidates_examined", 0),
            "candidates_feasible": last["spans"].get(
                "scoring.candidate_score", {}).get("calls", 0),
            "spans": last["span_count"],
        }
        baseline["workloads"][workload.name] = entry
    BASELINE.write_text(json.dumps(baseline, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("what", choices=("digests", "baseline"))
    parser.add_argument("--seconds", type=float, default=40.0)
    args = parser.parse_args(argv)
    check_manifest()
    if args.what == "digests":
        record_digests()
    else:
        record_baseline(args.seconds)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
