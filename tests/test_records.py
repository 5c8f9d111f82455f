"""Which records are dataclasses, which are named tuples and which are slot classes.

The scenario schema, the one mutable ledger and two records read on every
arrival are dataclasses: the schema's fields drive the JSON codec, the
ledger is written in place, and Python specializes a dataclass's attribute
loads where it does not specialize a named tuple's.  The request, route and
candidate read on every arrival are plain ``__slots__`` classes, for the
same specialization without a dataclass's import cost.  Every other record
is a ``typing.NamedTuple``, which is several times cheaper to create at
import.
"""

import inspect
from dataclasses import is_dataclass
from enum import Enum

import pytest

from accessim import analytics, charts, cli, engine, model, selection
from accessim.model import default_scenario

DATACLASSES = {"ClassRequirements", "UserPreferences", "OperatorNetwork", "TrafficProfile",
               "Scenario", "OperatorLedger", "ServiceClass", "AdmissionDecision"}
SLOT_CLASSES = {"ServiceRequest", "Route", "Candidate"}
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


def test_records_are_dataclasses_slot_classes_or_named_tuples():
    records = dict(_records())
    assert {name for name, cls in records.items() if is_dataclass(cls)} == DATACLASSES
    slotted = {name for name, cls in records.items()
               if "__slots__" in vars(cls) and not issubclass(cls, tuple)}
    assert slotted == SLOT_CLASSES
    named_tuples = {name for name, cls in records.items()
                    if issubclass(cls, tuple) and hasattr(cls, "_fields")}
    assert named_tuples == set(records) - DATACLASSES - SLOT_CLASSES
    assert CONVERTED <= named_tuples


def test_per_arrival_slot_records_have_no_instance_dict():
    scenario = default_scenario()
    table = engine.admission_table(scenario)
    route = table.routes[1, model.ServiceKind.CONVERSATIONAL]
    request = scenario.arrival_requests[0][0]
    for record in (request, route, route.candidates[0]):
        assert type(record).__name__ in SLOT_CLASSES
        assert not hasattr(record, "__dict__")


def test_arrivals_return_the_scenario_shared_requests():
    scenario = default_scenario()
    shared = {id(request): request for row in scenario.arrival_requests for request in row}
    assert len(shared) == len(scenario.operators) * len(scenario.profile_mix)
    draws = engine.arrival_draws(scenario, engine.RngStreams.from_seed(7))
    drawn = set()
    for _ in range(200):
        _, request = engine.generate_arrival(0.0, draws)
        assert shared[id(request)] is request
        drawn.add(id(request))
    assert drawn == set(shared)
    with pytest.raises(AttributeError):
        request.price_paid = 0.0
    assert scenario.arrival_requests is scenario.arrival_requests


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
