"""Workload definitions and metric catalogue shared by the benchmark's scripts.

A workload is a generated scenario file plus the `accessim` command-line
arguments that run it.  The benchmark seed goes to the command as `--seed`,
so the same seed always gives the same inputs and the same report files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCENARIOS = ROOT / "scenarios"
WORK = ROOT / ".bench_work"
DIGESTS = Path(__file__).resolve().parent / "digests.json"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    base: str                     # shipped scenario the generated file starts from
    command: tuple[str, ...]      # subcommand and flags, before --scenario/--out/--seed
    replications: int             # replications the command runs in total
    csvs: tuple[str, ...]         # every CSV the command writes
    svgs: tuple[str, ...] = ()
    overrides: dict = field(default_factory=dict)

    def write_scenario(self, path: Path) -> Path:
        """Generate this workload's scenario file from the shipped one."""
        doc = json.loads((SCENARIOS / self.base).read_text())
        doc.update(self.overrides)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=2) + "\n")
        return path

    def argv(self, scenario: Path, out: Path, seed: int) -> list[str]:
        return [*self.command, "--scenario", str(scenario), "--out", str(out),
                "--seed", str(seed)]


WORKLOADS = {w.name: w for w in (
    Workload(
        name="sweep-calibrated",
        why="The paper's experiment: 4 arrival rates x cooperation on/off x 20 "
            "replications; half the grid skips transfer scoring, and only this "
            "workload draws charts.",
        base="calibrated.json",
        command=("sweep",),
        replications=4 * 2 * 20,
        csvs=("sweep.csv",),
        svgs=("blocking.svg", "profits.svg"),
    ),
    Workload(
        name="overload-default",
        why="Saturated networks: about 73% of arrivals fail the home gate and go "
            "through candidate scoring, so selection and scoring do most of the work.",
        base="default.json",
        command=("run", "--cooperation", "on", "--replications", "100"),
        replications=100,
        csvs=("metrics.csv", "summary.csv"),
    ),
    Workload(
        name="long-horizon",
        why="One replication with a 100x horizon: engine bookkeeping, accrual and "
            "the session log dominate, memory grows with the horizon, and no grid "
            "can split it.",
        base="calibrated.json",
        command=("run",),
        replications=1,
        csvs=("metrics.csv", "summary.csv"),
        overrides={"duration_s": 100 * 1200.0, "replications": 1},
    ),
)}

# name -> (unit, better); reported with --trace 0.
E2E_METRICS = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "arrivals_per_s": ("1/s", "higher"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# name -> (unit, better); reported with --trace 1 on every workload.  Every time
# here is non-zero on every workload; work that only one workload does (charts)
# is counted, not timed, so no time reads 0 on every run of the others.
LAYER_METRICS = {
    "model.load_scenario.total_s": ("s", "lower"),
    "model.demand_rate.calls": ("count", "lower"),
    "model.demand_rate.self_s": ("s", "lower"),
    "model.service_class.calls": ("count", "lower"),
    "model.service_class.self_s": ("s", "lower"),
    "engine.run_replication.calls": ("count", "lower"),
    "engine.run_replication.self_s": ("s", "lower"),
    "engine.sessions_logged": ("count", "lower"),
    "engine.generate_arrival.calls": ("count", "lower"),
    "engine.generate_arrival.self_s": ("s", "lower"),
    "selection.admit.calls": ("count", "lower"),
    "selection.admit.self_s": ("s", "lower"),
    "selection.home_hit_ratio": ("ratio", "higher"),
    "selection.blocked_ratio": ("ratio", "lower"),
    "selection.select_serving_operator.calls": ("count", "lower"),
    "selection.select_serving_operator.self_s": ("s", "lower"),
    "selection.candidate_feasible_ratio": ("ratio", "higher"),
    "scoring.candidate_score.calls": ("count", "lower"),
    "scoring.candidate_score.self_s": ("s", "lower"),
    "scoring.user_score.calls": ("count", "lower"),
    "scoring.user_score.self_s": ("s", "lower"),
    "analytics.accrue.calls": ("count", "lower"),
    "analytics.accrue.self_s": ("s", "lower"),
    "analytics.aggregate.self_s": ("s", "lower"),
    "cli.write_csv.self_s": ("s", "lower"),
    "cli.csv_bytes": ("bytes", "lower"),
    "charts.line_chart.calls": ("count", "lower"),
    "charts.svg_bytes": ("bytes", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}
