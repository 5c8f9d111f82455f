"""The record contract: one record base, two named tuples, one dict, no dataclass.

Every record but three is a ``model._Record``, which builds its field tuple
from the annotated class body once, when the class is created: that costs
microseconds at import where a dataclass or a ``typing.NamedTuple`` costs up
to a millisecond.  The records read on every arrival (the request, its
service class, the route, its candidates and the decisions) are read-only
records like the rest.  Only the mutable ledger writes its own ``__init__``
over ``__slots__``, so that a write to a misspelt field raises.  The
engine's ``Session`` and the reports' ``ScopeRow`` are
``collections.namedtuple`` rows, which the reports zip, slice and ``_make``;
the engine books each session as a plain tuple in ``Session``'s field order,
and ``Session`` is its named form.  The demand
table is a ``dict`` of each class's rates by technology, as a file nests
them.  The schema records, the records that were named tuples and the
engine's ``Tape`` keep what a dataclass or a named tuple gave them:
keywords and defaults, read-only fields (but a network's ``used_kbps``),
equality, hash and repr by field, copy and pickle.
"""

import copy
import inspect
import pickle
from array import array
from dataclasses import FrozenInstanceError, is_dataclass
from enum import Enum

import pytest

from accessim import analytics, charts, cli, engine, model, selection
from accessim.model import MISSING, default_scenario, replace

SCHEMA = {"ClassRequirements", "OperatorNetwork", "TrafficProfile", "Scenario"}
PER_ARRIVAL = {"ServiceRequest", "ServiceClass", "AdmissionDecision", "Route", "Candidate"}
SLOT_CLASSES = {"OperatorLedger"}
CONVERTED = {"ReplicationResult", "MetricsReport", "RngStreams",
             "ScopeStats", "BlockingStats", "Series"}
NATIVE = {"Tape"}  # written on the base from the start, to the same contract

# The sampled records by name, in the order of _samples.  Their test cases were
# once numbered by position: the records numbered then keep those numbers as
# their ids, so a list of test ids goes on naming the same records, and a record
# sampled since has its own name as its id.  Number 7 was ExchangeMatrix, since
# deleted, and stays unused.
NUMBERED = {"ClassRequirements": 0, "OperatorNetwork": 1, "TrafficProfile": 2, "Scenario": 3,
            "ReplicationResult": 4, "MetricsReport": 5, "RngStreams": 6,
            "ScopeStats": 8, "BlockingStats": 9, "Series": 10}
SAMPLED = (*NUMBERED, "Tape")


def _records():
    """Every public class an accessim module defines, less enums, errors and AdmissionTable."""
    for module in (model, selection, engine, analytics, charts, cli):
        for name, cls in vars(module).items():
            if (inspect.isclass(cls) and cls.__module__ == module.__name__
                    and not name.startswith("_") and not issubclass(cls, (Enum, BaseException))
                    and cls is not selection.AdmissionTable):
                yield name, cls


def test_records_share_one_base_and_only_two_are_named_tuples():
    records = dict(_records())
    assert not any(is_dataclass(cls) for cls in records.values())
    assert {name for name, cls in records.items() if issubclass(cls, tuple)} == {"Session",
                                                                              "ScopeRow"}
    slotted = {name for name, cls in records.items()
               if "__slots__" in vars(cls) and not issubclass(cls, tuple)}
    assert slotted == SLOT_CLASSES
    on_base = {name for name, cls in records.items() if issubclass(cls, model._Record)}
    assert on_base == SCHEMA | CONVERTED | NATIVE | PER_ARRIVAL | SLOT_CLASSES
    assert on_base | {"Session", "ScopeRow", "DemandTable"} == set(records)
    assert issubclass(records["DemandTable"], dict)
    assert {name for name in on_base if "__init__" in vars(records[name])} == SLOT_CLASSES
    assert all(issubclass(records[name], model._FrozenRecord) for name in PER_ARRIVAL)


def _samples():
    """By class name, one instance of each schema, converted and native record, its
    repr as a dataclass or a named tuple printed it, and whether it hashed there."""
    conversational, interactive = model.ServiceKind
    requirements = model.ClassRequirements(jitter_req=10.0, delay_req=100.0, ber_req=1e-3)
    network = default_scenario().operators[0]
    profile = model.TrafficProfile(service=interactive, w_qos=0.7, w_price=0.3, probability=0.25)
    demand = model.DemandTable({interactive: {model.Technology.WLAN: 1024.0}})
    scenario = model.Scenario(operators=(network,), demand=demand,
                              qos_weights={interactive: (0.25, 0.25, 0.25, 0.25)},
                              requirements={interactive: requirements},
                              profile_mix=(profile,), replications=2)
    ledger = model.OperatorLedger(income_own=2.5)
    result = model.ReplicationResult(seed=3, counts={(1, None, conversational): 1,
                                                     (1, 1, conversational): 1},
                                     ledgers={1: ledger})
    report = model.MetricsReport(scenario=scenario, results=[result])
    streams = engine.RngStreams.from_seed(7)
    stats = analytics.ScopeStats(values=(1.0, 3.0))
    blocking = analytics.BlockingStats(overall=stats, per_operator={1: stats})
    series = charts.Series(label="a", points=((1.0, 2.0),))
    [request, *_] = scenario.arrival_requests[0]
    tape = engine.Tape(log_gaps=array("d", [-0.5, -1.5]), requests=[request, request],
                       service_uniforms=array("d", [0.25]))
    samples = [
        (requirements, "ClassRequirements(jitter_req=10.0, delay_req=100.0, ber_req=0.001)",
         True),
        (network, "OperatorNetwork(id=1, name='Op1', technology=<Technology.UMTS: 'UMTS'>, "
                  "capacity_kbps=1700.0, jitter_ms=6.0, delay_ms=19.0, ber=0.001, sp=0.9, "
                  "cs=0.9, w_u=1.0, w_op=1.0, used_kbps=0.0)", False),
        (profile, "TrafficProfile(service=<ServiceKind.INTERACTIVE: 'interactive'>, "
                  "w_qos=0.7, w_price=0.3, probability=0.25)", True),
        (scenario, f"Scenario(operators=({network!r},), demand={demand!r}, "
                   "qos_weights={<ServiceKind.INTERACTIVE: 'interactive'>: "
                   "(0.25, 0.25, 0.25, 0.25)}, requirements={<ServiceKind.INTERACTIVE: "
                   f"'interactive'>: {requirements!r}}}, profile_mix=({profile!r},), "
                   "mean_interarrival_s=2.5, mean_service_s=240.0, duration_s=1200.0, "
                   "replications=2, base_seed=42, cooperation=True, billing='volume')", False),
        (result, "ReplicationResult(seed=3, counts={(1, None, <ServiceKind.CONVERSATIONAL: "
                 "'conversational'>): 1, (1, 1, <ServiceKind.CONVERSATIONAL: "
                 "'conversational'>): 1}, ledgers={1: OperatorLedger("
                 "income_own=2.5, income_transferred=0.0, income_guests=0.0, cost_paid=0.0)})",
         False),
        (report, f"MetricsReport(scenario={scenario!r}, results=[{result!r}])", False),
        (streams, f"RngStreams(interarrival={streams.interarrival!r}, "
                  f"service_time={streams.service_time!r}, profile={streams.profile!r}, "
                  f"home_assignment={streams.home_assignment!r})", True),
        (stats, "ScopeStats(values=(1.0, 3.0))", True),
        (blocking, "BlockingStats(overall=ScopeStats(values=(1.0, 3.0)), "
                   "per_operator={1: ScopeStats(values=(1.0, 3.0))})", False),
        (series, "Series(label='a', points=((1.0, 2.0),), dashed=False)", True),
        (tape, f"Tape(log_gaps=array('d', [-0.5, -1.5]), requests=[{request!r}, {request!r}], "
               "service_uniforms=array('d', [0.25]))", False),
    ]
    return {type(sample[0]).__name__: sample for sample in samples}


def _same(clone, record):
    """Equal, or for the random streams (equal only to themselves) in the same states."""
    if isinstance(record, engine.RngStreams):
        return all(getattr(clone, name).getstate() == getattr(record, name).getstate()
                   for name, _, _ in model.fields(record))
    return clone == record


def test_samples_cover_every_schema_and_converted_record():
    assert tuple(_samples()) == SAMPLED
    assert set(SAMPLED) == SCHEMA | CONVERTED | NATIVE


@pytest.mark.parametrize("sample", SAMPLED, ids=lambda sample: (
    str(NUMBERED[sample]) if sample in NUMBERED else sample))
def test_records_keep_what_a_dataclass_or_named_tuple_gave_them(sample):
    record, printed, hashable = _samples()[sample]
    cls = type(record)
    assert repr(record) == printed
    values = {name: getattr(record, name) for name, _, _ in model.fields(record)}
    assert model.fields(record) == model.fields(cls)

    # Built by keyword or by position; replace builds a new, equal record.
    assert cls(**values) == record and cls(*values.values()) == record
    copied = replace(record)
    assert copied == record and copied is not record
    with pytest.raises(TypeError):
        replace(record, no_such_field=1)
    with pytest.raises(TypeError):
        cls(**values, no_such_field=1)
    with pytest.raises(TypeError):
        cls(*values.values(), None)
    with pytest.raises(TypeError):
        cls()

    # Read-only but for a network, which the engine writes in place.
    name = next(iter(values))
    if cls is model.OperatorNetwork:
        assert cls.__setattr__ is object.__setattr__
        copied.used_kbps = 5.0
        assert copied.used_kbps == 5.0 and copied != record
    else:
        for field in (name, "no_such_field"):
            with pytest.raises(FrozenInstanceError):
                setattr(record, field, None)
        with pytest.raises(FrozenInstanceError):
            delattr(record, name)
        assert getattr(record, name) is values[name]

    # Hashable exactly where it was: by field, so an equal record hashes the same.
    if hashable:
        assert hash(copied) == hash(record)
    else:
        with pytest.raises(TypeError):
            hash(record)

    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is cls and _same(clone, record)


def test_a_network_lists_its_fields_in_declaration_order():
    assert model.fields(model.OperatorNetwork) == (
        ("id", "int", MISSING), ("name", "str", MISSING),
        ("technology", "Technology", MISSING), ("capacity_kbps", "float", MISSING),
        ("jitter_ms", "float", MISSING), ("delay_ms", "float", MISSING),
        ("ber", "float", MISSING), ("sp", "float", MISSING), ("cs", "float", MISSING),
        ("w_u", "float", 1.0), ("w_op", "float", 1.0), ("used_kbps", "float", 0.0))
    net = default_scenario().operators[0]
    assert type(net).__setattr__ is object.__setattr__
    assert repr(MISSING) == "MISSING"


def test_routes_and_candidates_are_frozen_unhashable_records():
    route = engine.admission_table(default_scenario()).routes[1][model.ServiceKind.CONVERSATIONAL]
    candidate = route.candidates[0]
    assert repr(candidate) == (
        f"Candidate(net={candidate.net!r}, rate=256.0, sp_norm={0.1 / 0.9!r}, "
        f"cs_norm={0.1 / 0.9!r}, served=AdmissionDecision(outcome=<Outcome.SERVED_TRANSFER: "
        "'served_transfer'>, serving_op=2, rate_kbps=256.0, slot=0))")
    assert repr(route) == (f"Route(home={route.home!r}, rate=256.0, served={route.served!r}, "
                           f"blocked={route.blocked!r}, candidates={route.candidates!r})")
    for record in (route, candidate):
        name = model.fields(type(record))[0][0]
        before = getattr(record, name)
        with pytest.raises(FrozenInstanceError):
            setattr(record, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(record, name)
        assert getattr(record, name) is before
        copied = replace(record)
        assert copied == record and copied is not record
        with pytest.raises(TypeError):
            hash(record)


def test_value_records_compare_hash_and_print_as_dataclasses_did():
    kind = model.ServiceKind.INTERACTIVE
    service_class = model.ServiceClass(kind=kind, qos_weights=(0.16, 0.04, 0.16, 0.64))
    request = model.ServiceRequest(2, service_class, 0.7, 0.3, 0.1)
    decision = selection.AdmissionDecision(selection.Outcome.SERVED_TRANSFER, serving_op=3,
                                           rate_kbps=1024.0)
    ledger = model.OperatorLedger(income_own=100.0)
    blocked = engine.admission_table(default_scenario()).routes[1][kind].blocked
    assert repr(service_class) == ("ServiceClass(kind=<ServiceKind.INTERACTIVE: 'interactive'>, "
                                   "qos_weights=(0.16, 0.04, 0.16, 0.64))")
    assert repr(request) == (f"ServiceRequest(home_op=2, service_class={service_class!r}, "
                             "w_qos=0.7, w_price=0.3, price_paid=0.1)")
    assert repr(decision) == ("AdmissionDecision(outcome=<Outcome.SERVED_TRANSFER: "
                              "'served_transfer'>, serving_op=3, rate_kbps=1024.0, slot=None)")
    assert repr(blocked) == ("AdmissionDecision(outcome=<Outcome.BLOCKED: 'blocked'>, "
                             "serving_op=None, rate_kbps=None, slot=7)")
    assert repr(ledger) == ("OperatorLedger(income_own=100.0, income_transferred=0.0, "
                            "income_guests=0.0, cost_paid=0.0)")

    # Equal by value, and only to a record of the same type.
    same_class = model.ServiceClass(kind, (0.16, 0.04, 0.16, 0.64))
    assert service_class == same_class and hash(service_class) == hash(same_class)
    assert service_class != model.ServiceClass(kind, (0.25, 0.25, 0.25, 0.25))
    same_request = model.ServiceRequest(2, same_class, 0.7, 0.3, 0.1)
    assert request == same_request and hash(request) == hash(same_request)
    assert request != model.ServiceRequest(3, service_class, 0.7, 0.3, 0.1)
    assert decision == selection.AdmissionDecision(selection.Outcome.SERVED_TRANSFER, 3, 1024.0)
    assert len({decision, selection.AdmissionDecision(selection.Outcome.SERVED_TRANSFER, 3,
                                                      1024.0)}) == 1
    assert decision != blocked
    assert blocked == selection.AdmissionDecision(selection.Outcome.BLOCKED, slot=7)
    assert blocked != selection.AdmissionDecision(selection.Outcome.BLOCKED)
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
    route = engine.admission_table(scenario).routes[1][request.service_class.kind]
    shared = (request, request.service_class, route.blocked)
    for record in shared:
        assert type(record).__name__ in PER_ARRIVAL
        name = model.fields(type(record))[0][0]
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
    assert replace(series, dashed=True) == charts.Series("a", ((1.0, 2.0),), True)
    stats = analytics.ScopeStats(values=(1.0, 3.0))
    assert (stats.mean, replace(stats, values=(2.0,)).mean) == (2.0, 2.0)
    demand = model.DemandTable({"interactive": {"WLAN": 1024.0}})
    assert demand.rate(model.ServiceKind.INTERACTIVE, model.Technology.WLAN) == 1024.0
    result = model.ReplicationResult(3, {(1, None, "interactive"): 2, (1, 2, "interactive"): 1},
                                     {})
    assert (result.blocked, replace(result, seed=4).served_transferred) == (2, 1)
    streams = engine.RngStreams.from_seed(7)
    assert replace(streams, profile=None).interarrival is streams.interarrival


def test_two_runs_give_equal_replication_results():
    scenario = default_scenario()
    first = engine.run_replication(scenario, 3)
    again = engine.run_replication(scenario, 3)
    assert first == again
    assert first != replace(first, seed=4)
    assert first.sessions == ()
