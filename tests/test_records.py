"""Which records are dataclasses, which are named tuples and which are slot classes.

Only the scenario schema is made of dataclasses, because its fields drive
the JSON codec.  The records read on every arrival (the request, its
service class, the route, its candidates and the decisions) and the
mutable ledger are plain ``__slots__`` classes: Python specializes their
field loads, which it does not do for a named tuple's, and such a class
costs microseconds to create at import where a dataclass costs about a
millisecond.  The request, its service class and the decisions are shared,
so they are read-only.  Every other record is a ``typing.NamedTuple``,
which is also cheap to create at import.
"""

import copy
import inspect
import pickle
from dataclasses import FrozenInstanceError, is_dataclass
from enum import Enum

import pytest

from accessim import analytics, charts, cli, engine, model, selection
from accessim.model import default_scenario

DATACLASSES = {"ClassRequirements", "UserPreferences", "OperatorNetwork", "TrafficProfile",
               "Scenario"}
SLOT_CLASSES = {"ServiceRequest", "Route", "Candidate", "OperatorLedger", "ServiceClass",
                "AdmissionDecision"}
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


def test_value_records_compare_hash_and_print_as_dataclasses_did():
    kind = model.ServiceKind.INTERACTIVE
    service_class = model.ServiceClass(kind=kind, qos_weights=(0.16, 0.04, 0.16, 0.64))
    prefs = model.UserPreferences(w_qos=0.7, w_price=0.3)
    request = model.ServiceRequest(2, service_class, prefs, 0.1)
    decision = selection.AdmissionDecision(selection.Outcome.SERVED_TRANSFER, serving_op=3,
                                           rate_kbps=1024.0)
    ledger = model.OperatorLedger(income_own=100.0)
    assert repr(service_class) == ("ServiceClass(kind=<ServiceKind.INTERACTIVE: 'interactive'>, "
                                   "qos_weights=(0.16, 0.04, 0.16, 0.64))")
    assert repr(request) == (f"ServiceRequest(home_op=2, service_class={service_class!r}, "
                             "prefs=UserPreferences(w_qos=0.7, w_price=0.3), price_paid=0.1)")
    assert repr(decision) == ("AdmissionDecision(outcome=<Outcome.SERVED_TRANSFER: "
                              "'served_transfer'>, serving_op=3, rate_kbps=1024.0)")
    assert repr(selection.BLOCKED) == ("AdmissionDecision(outcome=<Outcome.BLOCKED: 'blocked'>, "
                                       "serving_op=None, rate_kbps=None)")
    assert repr(ledger) == ("OperatorLedger(income_own=100.0, income_transferred=0.0, "
                            "income_guests=0.0, cost_paid=0.0)")

    # Equal by value, and only to a record of the same type.
    same_class = model.ServiceClass(kind, (0.16, 0.04, 0.16, 0.64))
    assert service_class == same_class and hash(service_class) == hash(same_class)
    assert service_class != model.ServiceClass(kind, (0.25, 0.25, 0.25, 0.25))
    same_request = model.ServiceRequest(2, same_class, prefs, 0.1)
    assert request == same_request and hash(request) == hash(same_request)
    assert request != model.ServiceRequest(3, service_class, prefs, 0.1)
    assert decision == selection.AdmissionDecision(selection.Outcome.SERVED_TRANSFER, 3, 1024.0)
    assert len({decision, selection.AdmissionDecision(selection.Outcome.SERVED_TRANSFER, 3,
                                                      1024.0)}) == 1
    assert decision != selection.BLOCKED
    assert selection.BLOCKED == selection.AdmissionDecision(selection.Outcome.BLOCKED)
    assert ledger == model.OperatorLedger(100.0, 0.0, 0.0, 0.0)
    assert ledger != model.OperatorLedger(income_own=100.0, cost_paid=1.0)
    assert ledger != (100.0, 0.0, 0.0, 0.0)
    with pytest.raises(TypeError):
        hash(model.OperatorLedger())

    # A read-only record still copies and pickles, as a frozen dataclass does.
    for record in (service_class, request, decision, ledger):
        for clone in (copy.copy(record), copy.deepcopy(record),
                      pickle.loads(pickle.dumps(record))):
            assert type(clone) is type(record) and clone == record
    assert copy.copy(ledger) is not ledger


def test_shared_records_are_read_only_and_the_ledger_is_written_in_place():
    scenario = default_scenario()
    request = scenario.arrival_requests[0][0]
    shared = (request, request.service_class, selection.BLOCKED)
    for record in shared:
        assert type(record).__name__ in SLOT_CLASSES
        assert not hasattr(record, "__dict__")
        name = type(record).__slots__[0]
        before = getattr(record, name)
        with pytest.raises(FrozenInstanceError):
            setattr(record, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(record, name)
        assert getattr(record, name) is before
    ledger = model.OperatorLedger()
    assert not hasattr(ledger, "__dict__")
    assert type(ledger).__setattr__ is object.__setattr__
    ledger.income_own += 2.5
    assert ledger.profit == 2.5
    with pytest.raises(AttributeError):
        ledger.income = 1.0


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
