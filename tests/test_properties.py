"""Randomized invariants over valid scenarios (Hypothesis).

Every scenario drawn here passes validation, so each one must run to
completion; the runs must conserve arrivals and settle to zero across the
ledgers, a cooperating run blocks only when no network could take the
session, and the JSON form must give back the same scenario.  Timing fields
drawn from the whole positive float range must be rejected or run, and a
scalar of another type must be reported as a bad type, never raise.
"""

import json
import math
from dataclasses import replace
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from accessim import engine, model
from accessim.analytics import scope_rows
from accessim.engine import run_experiment
from accessim.model import (
    ClassRequirements,
    DemandTable,
    OperatorNetwork,
    Scenario,
    ServiceKind,
    Technology,
    TrafficProfile,
    UserPreferences,
    expected_arrivals,
    scenario_from_dict,
    scenario_to_dict,
    validate_scenario,
)
from accessim.selection import Outcome, meets_bounds
from test_model import with_scalar

PROPERTY_SETTINGS = settings(deadline=None, database=None, max_examples=60)

positive = st.floats(min_value=0.01, max_value=100.0)
probability = st.floats(min_value=1e-6, max_value=0.5)


def _normalized(values):
    total = sum(values)
    return tuple(v / total for v in values)


@st.composite
def weights(draw, n):
    return _normalized(draw(st.lists(st.integers(0, 10), min_size=n, max_size=n)
                            .filter(any)))


@st.composite
def operators(draw):
    ids = draw(st.lists(st.integers(1, 99), min_size=1, max_size=4, unique=True))
    nets = []
    for op_id in ids:
        capacity = draw(st.floats(min_value=100.0, max_value=5000.0))
        nets.append(OperatorNetwork(
            id=op_id,
            name=f"Op{op_id}",
            technology=draw(st.sampled_from(Technology)),
            capacity_kbps=capacity,
            used_kbps=draw(st.sampled_from((0.0, capacity / 4))),
            jitter_ms=draw(positive),
            delay_ms=draw(positive),
            ber=draw(probability),
            sp=draw(positive),
            cs=draw(positive),
            w_u=draw(st.floats(min_value=0.0, max_value=2.0)),
            w_op=draw(st.floats(min_value=0.0, max_value=2.0)),
        ))
    return tuple(nets)


@st.composite
def scenarios(draw):
    profiles = draw(st.lists(st.tuples(st.sampled_from(ServiceKind), weights(2)),
                             min_size=1, max_size=4))
    mix = _normalized(draw(st.lists(st.integers(1, 10), min_size=len(profiles),
                                    max_size=len(profiles))))
    scenario = Scenario(
        operators=draw(operators()),
        demand=DemandTable({(kind, tech): draw(st.floats(min_value=16.0, max_value=2048.0))
                            for kind in ServiceKind for tech in Technology}),
        qos_weights={kind: draw(weights(4)) for kind in ServiceKind},
        requirements={kind: ClassRequirements(jitter_req=draw(positive),
                                              delay_req=draw(positive),
                                              ber_req=draw(probability))
                      for kind in ServiceKind},
        profile_mix=tuple(TrafficProfile(service=kind, prefs=UserPreferences(*prefs),
                                         probability=p)
                          for (kind, prefs), p in zip(profiles, mix)),
        mean_interarrival_s=draw(st.floats(min_value=0.2, max_value=10.0)),
        mean_service_s=draw(st.floats(min_value=1.0, max_value=120.0)),
        duration_s=draw(st.floats(min_value=1.0, max_value=60.0)),
        replications=draw(st.integers(1, 2)),
        base_seed=draw(st.integers(0, 2**31)),
        cooperation=draw(st.booleans()),
        billing=draw(st.sampled_from(("volume", "per_session"))),
    )
    assert validate_scenario(scenario) == []
    return scenario


@PROPERTY_SETTINGS
@given(scenarios())
def test_valid_scenarios_run_and_conserve_arrivals_and_money(scenario):
    report = run_experiment(scenario)
    assert len(report.results) == scenario.replications
    for result in report.results:
        assert result.arrivals == (result.blocked + result.served_home
                                   + result.served_transferred)
        overall, *operators = scope_rows(
            result, [net.id for net in scenario.operators]).values()
        for row in operators:
            assert row.arrivals == row.blocked + row.served_home + row.served_transferred
        # The operator rows partition the global one: every count sums exactly.
        for count in ("arrivals", "blocked", "served_home", "served_transferred"):
            assert sum(getattr(row, count) for row in operators) == getattr(overall, count)
        guests = sum(ledger.income_guests for ledger in result.ledgers.values())
        paid = sum(ledger.cost_paid for ledger in result.ledgers.values())
        assert math.isclose(guests, paid, rel_tol=1e-9, abs_tol=1e-9)


@PROPERTY_SETTINGS
@given(scenarios())
def test_cooperating_block_leaves_no_network_that_passes_the_gate(scenario):
    scenario = replace(scenario, cooperation=True)
    admit = engine.admit

    # Wrapped where the engine looks it up, as the benchmark's tracer does; the
    # table yields the replication's own networks, at their occupancy right now.
    def checked(request, table, cooperation):
        decision = admit(request, table, cooperation)
        if decision.outcome is Outcome.BLOCKED:
            kind = request.service_class.kind
            bounds = scenario.requirements[kind]
            assert not [net.id for net in table
                        if meets_bounds(net, bounds)
                        and net.capacity_kbps - net.used_kbps
                        >= scenario.demand.rate(kind, net.technology)]
        return decision

    with mock.patch.object(engine, "admit", checked):
        run_experiment(scenario)


@PROPERTY_SETTINGS
@given(scenarios())
def test_json_round_trip_is_exact(scenario):
    doc = json.loads(json.dumps(scenario_to_dict(scenario)))
    assert scenario_from_dict(doc) == scenario


# Log-uniform over [1e-300, 1e300].
any_seconds = st.floats(min_value=-300.0, max_value=300.0).map(lambda e: 10.0 ** e)


@PROPERTY_SETTINGS
@given(scenarios(), any_seconds, any_seconds, any_seconds)
def test_any_timing_is_rejected_or_runs_to_completion(scenario, mean_interarrival_s,
                                                      mean_service_s, duration_s):
    # A low cap keeps every accepted run short; the rule is the same at any cap.
    cap = 200
    timed = replace(scenario, mean_interarrival_s=mean_interarrival_s,
                    mean_service_s=mean_service_s, duration_s=duration_s)
    with mock.patch.object(model, "MAX_EXPECTED_ARRIVALS", cap):
        violations = validate_scenario(timed)
    # Each replication draws at least its first arrival.
    if timed.replications * max(expected_arrivals(timed), 1.0) > cap:
        assert [v.split(":")[0] for v in violations] == ["too many expected arrivals"]
        return
    assert violations == []
    for result in run_experiment(timed).results:
        assert result.arrivals == (result.blocked + result.served_home
                                   + result.served_transferred)


# A value of each JSON type but number: string, null, boolean and array.
other_json = st.one_of(st.text(), st.none(), st.booleans(), st.lists(st.floats(), max_size=2))


def _json_type(value):
    return str if isinstance(value, str) else type(value)  # an enum member is a str


@PROPERTY_SETTINGS
@given(scenarios(), st.data())
def test_a_scalar_of_another_type_is_a_bad_type_and_nothing_else(scenario, data):
    label, _, _, value = data.draw(st.sampled_from(list(model._scalar_fields(scenario))))
    other = data.draw(other_json.filter(lambda x: _json_type(x) is not _json_type(value)))
    violations = validate_scenario(with_scalar(scenario, label, other))
    assert len(violations) == 1
    assert violations[0].startswith(f"bad type: {label} = {other!r}, expected ")
