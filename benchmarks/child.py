"""One measured repeat of a workload, in a fresh interpreter.

Times set-up (import the package and its CLI, load and validate the scenario)
and the CLI command that follows, checks every replication and report file,
and prints one JSON object on its last line of standard output.  With
`--trace 1` the layer functions are wrapped in spans while the command runs,
and the spans are written next to the output directory.

Run by `run.py`; by hand:
    python3 benchmarks/child.py --workload long-horizon --seed 1 --trace 0 \
        --scenario .bench_work/long-horizon/scenario.json --out .bench_work/long-horizon/out
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

from workloads import DIGESTS, SRC, WORKLOADS


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0   # ru_maxrss is in KiB on Linux


def check_replication(result) -> list[str]:
    """Arrival conservation and zero-sum settlement for one replication."""
    errors = []
    served = result.served_home + result.served_transferred
    if result.arrivals != result.blocked + served:
        errors.append(f"seed {result.seed}: arrivals {result.arrivals} != blocked "
                      f"{result.blocked} + served {served}")
    guests = sum(ledger.income_guests for ledger in result.ledgers.values())
    paid = sum(ledger.cost_paid for ledger in result.ledgers.values())
    if not math.isclose(guests, paid, rel_tol=1e-9, abs_tol=1e-6):
        errors.append(f"seed {result.seed}: settlement not zero-sum: "
                      f"income_guests {guests!r} != cost_paid {paid!r}")
    return errors


def check_outputs(workload, out: Path, seed: int, results) -> list[str]:
    """Every report file exists, CSV arrivals match the replications, digests match."""
    errors = [f"missing {name}" for name in workload.csvs + workload.svgs
              if not (out / name).is_file()]
    if errors:
        return errors
    table = workload.csvs[0]
    with open(out / table, newline="") as fh:
        rows = [row for row in csv.DictReader(fh) if row.get("scope", "global") == "global"]
    written = [int(row["arrivals"]) for row in rows]
    simulated = [result.arrivals for result in results]
    if written != simulated:
        errors.append(f"{table}: arrivals column disagrees with the replications")
    expected = json.loads(DIGESTS.read_text()).get(workload.name, {}).get(str(seed), {})
    for name, digest in expected.items():
        actual = hashlib.sha256((out / name).read_bytes()).hexdigest()
        if actual != digest:
            errors.append(f"{name}: sha256 {actual} != recorded {digest}")
    return errors


def check_trace(tracer, summary) -> list[str]:
    """Traced counts agree with the replications' own counters; self time <= total time."""
    errors = []
    per_replication = summary["per_replication"]
    for replication_id, (scenario, result) in enumerate(tracer.results):
        served = result.served_home + result.served_transferred
        expected = {
            "selection.admit": result.arrivals,
            "selection.select_serving_operator":
                result.arrivals - result.served_home if scenario.cooperation else 0,
            "engine.generate_arrival": result.arrivals + 1,
            "analytics.accrue": served,
        }
        for name, count in expected.items():
            traced = per_replication[(name, replication_id)]
            if traced != count:
                errors.append(f"replication {replication_id}: {name} traced {traced} "
                              f"calls, expected {count}")
    for name, span in summary["spans"].items():
        if not -1e-9 <= span["self_s"] <= span["total_s"]:
            errors.append(f"{name}: self_s {span['self_s']} outside [0, total_s "
                          f"{span['total_s']}]")
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scenario", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    setup_start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import accessim
    from accessim import cli

    accessim.load_scenario(args.scenario)
    setup_s = time.perf_counter() - setup_start

    reports = []
    run_experiment = cli.run_experiment

    def captured(*a, **kw):
        report = run_experiment(*a, **kw)
        reports.append(report)
        return report

    cli.run_experiment = captured
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer().install()

    errors = []
    cpu_start = _cpu_s()
    wall_start = time.perf_counter()
    try:
        code = cli.main(workload.argv(args.scenario, args.out, args.seed))
    except (Exception, SystemExit):
        traceback.print_exc()
        code = None
    wall_s = time.perf_counter() - wall_start
    cpu_s = _cpu_s() - cpu_start
    peak_rss_mb = _peak_rss_mb()
    # How fast the host runs Python right now; run.py scales the times by it.
    # Imported only now, so that set-up still pays for the modules it shares
    # with accessim.
    from reference import time_reference
    reference_s = time_reference()
    if tracer is not None:
        tracer.uninstall()
    cli.run_experiment = run_experiment

    results = [result for report in reports for result in report.results]
    if code != 0 or len(results) != workload.replications:
        errors.append(f"command exited with {code} after {len(results)} of "
                      f"{workload.replications} replications")
        failed = workload.replications + 1
    else:
        replication_errors = [check_replication(result) for result in results]
        output_errors = check_outputs(workload, args.out, args.seed, results)
        for problems in replication_errors + [output_errors]:
            errors.extend(problems)
        failed = sum(bool(problems) for problems in replication_errors) + bool(output_errors)
    record = {
        "setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s, "peak_rss_mb": peak_rss_mb,
        "reference_s": reference_s,
        "version": accessim.__version__,
        "arrivals": sum(r.arrivals for r in results),
        "served_home": sum(r.served_home for r in results),
        "served_transferred": sum(r.served_transferred for r in results),
        "blocked": sum(r.blocked for r in results),
        "attempted": workload.replications + 1,
        "failed": failed,
    }
    if tracer is not None:
        summary = tracer.summary()
        trace_errors = check_trace(tracer, summary)
        errors.extend(trace_errors)
        record["failed"] += int(bool(trace_errors))
        record["attempted"] += 1
        record["spans"] = summary["spans"]
        record["counts"] = dict(tracer.counts)
        record["span_count"] = len(tracer.start)
        tracer.write_spans(args.out.parent / "spans")
    record["errors"] = errors
    print(json.dumps(record))
    return 0 if not errors else 1


if __name__ == "__main__":
    raise SystemExit(main())
