"""The benchmark's tracer still finds every layer it wraps.

`benchmarks/tracer.py` times each layer by replacing a function where its
caller looks the name up, and `benchmarks/child.py` checks the traced call
counts against the replications' own counters.  A refactor that renames or
bypasses one of those seams breaks traced benchmark runs; this runs the
tracer and the check on a small cooperating experiment instead.
"""

from dataclasses import replace
from pathlib import Path

from accessim import engine
from accessim.model import default_scenario

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def test_traced_cooperating_experiment_passes_the_trace_check(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import child
    from tracer import Tracer

    tracer = Tracer().install()
    try:
        engine.run_experiment(replace(default_scenario(), replications=2, cooperation=True))
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert len(tracer.results) == 2
    assert child.check_trace(tracer, summary) == []
    assert summary["spans"]["scoring.candidate_score"]["calls"] > 0
