"""Outside-in tracer: spans around the package's layer functions, recorded from outside.

Each traced function is replaced where its caller looks the name up (for
example `engine.admit`, `selection.candidate_score`, `cli.line_chart`), so
the package itself is not edited.  A span is (name, start, end, parent span,
replication id); spans stay in flat in-memory arrays until `write_spans`.
A layer's self time is its span time minus the time of its traced children.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter
from pathlib import Path

NO_PARENT = -1
NO_REPLICATION = -1

AGGREGATES = ("blocking_stats", "profit_stats", "exchange_matrix", "arrivals_mean")
SCOPE_STATS = ("mean", "stddev", "ci95_halfwidth")   # properties, computed on access
# Aggregation spans: the sweep's report functions plus the summary statistics
# every command computes.
AGGREGATE_SPANS = (*(f"analytics.{name}" for name in AGGREGATES),
                   *(f"analytics.ScopeStats.{name}" for name in SCOPE_STATS))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.replication = array("l")
        self.stack: list[int] = []
        self.current_replication = NO_REPLICATION
        self.counts: Counter = Counter()
        self.results: list = []   # (scenario, result) by replication id
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ spans

    def wrap(self, name: str, fn, after=None):
        """Return `fn` wrapped in a span; `after(args, result)` runs once the span has closed."""
        index = len(self.names)
        self.names.append(name)
        clock = time.perf_counter
        name_of, start, end = self.name_of, self.start, self.end
        parent, replication, stack = self.parent, self.replication, self.stack
        tracer = self

        def traced(*args, **kwargs):
            span = len(start)
            name_of.append(index)
            parent.append(stack[-1] if stack else NO_PARENT)
            replication.append(tracer.current_replication)
            end.append(0.0)
            stack.append(span)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[span] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, after=None) -> None:
        original = vars(owner)[attr]
        self._patched.append((owner, attr, original))
        if isinstance(original, property):
            setattr(owner, attr, property(self.wrap(name, original.fget, after)))
        else:
            setattr(owner, attr, self.wrap(name, original, after))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ---------------------------------------------------------------- install

    def install(self) -> "Tracer":
        """Wrap every layer function of an imported `accessim` package."""
        from accessim import analytics, cli, engine, model, selection
        from accessim.selection import Outcome

        counts = self.counts
        tracer = self

        def replication_started(fn):
            def run(scenario, seed, *rest, **kwargs):
                tracer.current_replication = len(tracer.results)
                try:
                    result = fn(scenario, seed, *rest, **kwargs)
                finally:
                    tracer.current_replication = NO_REPLICATION
                tracer.results.append((scenario, result))
                counts["engine.sessions_logged"] += len(result.sessions)
                return result
            return run

        def admitted(args, decision):
            if decision.outcome is Outcome.SERVED_HOME:
                counts["selection.home_hits"] += 1
            elif decision.outcome is Outcome.BLOCKED:
                counts["selection.blocked"] += 1

        def candidates_examined(args, decision):
            request, networks = args[0], args[1]
            counts["selection.candidates_examined"] += sum(
                1 for net in networks if net.id != request.home_op)

        def csv_written(args, result):
            counts["cli.csv_bytes"] += Path(args[0]).stat().st_size

        def chart_drawn(args, svg):
            counts["charts.svg_bytes"] += len(svg.encode())

        self.patch(cli, "load_scenario", "model.load_scenario")
        self.patch(model.DemandTable, "rate", "model.demand_rate")
        self.patch(model.Scenario, "service_class", "model.service_class")
        self.patch(engine, "run_replication", "engine.run_replication")
        # The replication id is set outside the span, so the span itself carries it.
        engine.run_replication = replication_started(engine.run_replication)
        self.patch(engine, "generate_arrival", "engine.generate_arrival")
        self.patch(engine, "admit", "selection.admit", admitted)
        self.patch(selection, "select_serving_operator",
                   "selection.select_serving_operator", candidates_examined)
        self.patch(selection, "candidate_score", "scoring.candidate_score")
        self.patch(selection, "user_score", "scoring.user_score")
        self.patch(analytics, "accrue", "analytics.accrue")
        for aggregate in AGGREGATES:
            self.patch(analytics, aggregate, f"analytics.{aggregate}")
        for statistic in SCOPE_STATS:
            self.patch(analytics.ScopeStats, statistic, f"analytics.ScopeStats.{statistic}")
        self.patch(cli, "_write_csv", "cli.write_csv", csv_written)
        self.patch(cli, "line_chart", "charts.line_chart", chart_drawn)
        return self

    # ---------------------------------------------------------------- summary

    def summary(self) -> dict:
        """Per span name: calls, total_s and self_s; plus calls per (name, replication)."""
        n = len(self.start)
        start, end, parent = self.start, self.end, self.parent
        child_s = array("d", bytes(8 * n))
        for span in range(n):
            up = parent[span]
            if up != NO_PARENT:
                child_s[up] += end[span] - start[span]
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        per_replication: Counter = Counter()
        for span in range(n):
            index = self.name_of[span]
            duration = end[span] - start[span]
            calls[index] += 1
            total[index] += duration
            own[index] += duration - child_s[span]
            per_replication[(self.names[index], self.replication[span])] += 1
        spans = {name: {"calls": calls[i], "total_s": total[i], "self_s": own[i]}
                 for i, name in enumerate(self.names)}
        return {"spans": spans, "per_replication": per_replication}

    def write_spans(self, directory: Path) -> None:
        """Dump the raw spans: one binary array per field plus an index of names."""
        directory.mkdir(parents=True, exist_ok=True)
        fields = {"name": self.name_of, "start": self.start, "end": self.end,
                  "parent": self.parent, "replication": self.replication}
        for field, values in fields.items():
            with open(directory / f"{field}.bin", "wb") as fh:
                values.tofile(fh)
        (directory / "index.json").write_text(json.dumps({
            "names": self.names,
            "fields": {field: values.typecode for field, values in fields.items()},
            "spans": len(self.start),
        }, indent=1) + "\n")
