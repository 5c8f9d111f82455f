"""Which records are dataclasses and which are named tuples.

The scenario schema, the one mutable ledger and the two records read on
every arrival are dataclasses: the schema's fields drive the JSON codec, the
ledger is written in place, and Python specializes a dataclass's attribute
loads where it does not specialize a named tuple's.  Every other record is
a ``typing.NamedTuple``, which is several times cheaper to create at import.
"""

import inspect
from dataclasses import is_dataclass
from enum import Enum

from accessim import analytics, charts, cli, engine, model, selection
from accessim.model import default_scenario

DATACLASSES = {"ClassRequirements", "UserPreferences", "OperatorNetwork", "TrafficProfile",
               "Scenario", "OperatorLedger", "ServiceClass", "AdmissionDecision"}
CONVERTED = {"ReplicationResult", "MetricsReport", "DemandTable", "RngStreams",
             "ExchangeMatrix", "ScopeStats", "BlockingStats", "Series"}


def _records():
    """Every public class an accessim module defines, less enums, errors and AdmissionTable."""
    for module in (model, selection, engine, analytics, charts, cli):
        for name, cls in vars(module).items():
            if (inspect.isclass(cls) and cls.__module__ == module.__name__
                    and not name.startswith("_") and not issubclass(cls, (Enum, BaseException))
                    and cls is not selection.AdmissionTable):
                yield name, cls


def test_only_schema_ledger_and_per_arrival_records_are_dataclasses():
    records = dict(_records())
    assert {name for name, cls in records.items() if is_dataclass(cls)} == DATACLASSES
    named_tuples = {name for name, cls in records.items()
                    if issubclass(cls, tuple) and hasattr(cls, "_fields")}
    assert named_tuples == set(records) - DATACLASSES
    assert CONVERTED <= named_tuples


def test_converted_records_keep_keywords_defaults_and_replace():
    series = charts.Series(label="a", points=((1.0, 2.0),))
    assert series.dashed is False
    assert series._replace(dashed=True) == charts.Series("a", ((1.0, 2.0),), True)
    stats = analytics.ScopeStats(values=(1.0, 3.0))
    assert (stats.mean, stats._replace(values=(2.0,)).mean) == (2.0, 2.0)
    demand = model.DemandTable(rates={("interactive", "WLAN"): 1024.0})
    assert demand.rate(model.ServiceKind.INTERACTIVE, model.Technology.WLAN) == 1024.0
    matrix = analytics.ExchangeMatrix(op_ids=(1, 2), counts={(1, 2, "interactive"): 3})
    assert matrix.count(1, 2, "interactive") == 3
    streams = engine.RngStreams.from_seed(7)
    assert streams._replace(profile=None).interarrival is streams.interarrival


def test_two_runs_give_equal_replication_results():
    scenario = default_scenario()
    first = engine.run_replication(scenario, 3)
    again = engine.run_replication(scenario, 3)
    assert first == again
    assert first != first._replace(seed=4)
    assert first.sessions == ()
