import random
from dataclasses import FrozenInstanceError, replace

import pytest

from accessim import selection
from accessim.model import (
    ClassRequirements,
    QoSRequirements,
    ServiceKind,
    ServiceRequest,
    UserPreferences,
    default_scenario,
)
from accessim.scoring import candidate_score, user_score
from accessim.selection import (
    BLOCKED,
    AdmissionTable,
    Outcome,
    admit,
    select_serving_operator,
    transfer_objective,
)

from oracles import oracle_admit, random_instance

RT_BOUNDS = ClassRequirements(jitter_req=10.0, delay_req=100.0, ber_req=1e-3)


def _scenario():
    return default_scenario()


def _ops(scenario=None):
    scenario = scenario or _scenario()
    return {net.id: net for net in scenario.operators}


def _table(networks, requirements=None):
    scenario = _scenario()
    return AdmissionTable(networks, scenario.demand, requirements or scenario.requirements)


def _request(home, kind=ServiceKind.CONVERSATIONAL, prefs=(0.7, 0.3), price=None):
    scenario = _scenario()
    return ServiceRequest(
        user_id=1,
        home_op=home,
        service_class=scenario.service_class(kind),
        prefs=UserPreferences(*prefs),
        price_paid=price if price is not None else _ops(scenario)[home].sp,
    )


def _admits_alone(net, kind=ServiceKind.CONVERSATIONAL, bounds=None):
    """Whether ``net`` alone, without cooperation, admits its own client of ``kind``."""
    requirements = dict(_scenario().requirements)
    if bounds is not None:
        requirements[kind] = bounds
    decision = admit(_request(home=net.id, kind=kind), _table([net], requirements),
                     cooperation=False)
    return decision.served


def test_feasible_on_empty_network():
    assert _admits_alone(_ops()[1])


def test_feasibility_boundary_is_inclusive():
    # A conversational session takes 256 kb/s on the 1700 kb/s UMTS network.
    net = replace(_ops()[1], used_kbps=1700.0 - 256.0)
    assert _admits_alone(net)
    nearly = replace(_ops()[1], used_kbps=1700.0 - 256.0 + 1e-9)
    assert not _admits_alone(nearly)


def test_ber_gate_blocks_umts_for_loss_sensitive_class():
    # An empty UMTS network still fails the non-real-time BER bound.
    assert not _admits_alone(_ops()[1], kind=ServiceKind.INTERACTIVE)


def test_jitter_and_delay_gates():
    assert _admits_alone(_ops()[1], bounds=RT_BOUNDS)
    strict = replace(RT_BOUNDS, jitter_req=5.0)
    assert not _admits_alone(_ops()[1], bounds=strict)
    slow = replace(RT_BOUNDS, delay_req=15.0)
    assert not _admits_alone(_ops()[1], bounds=slow)


def test_transfer_objective_components():
    home = replace(_ops()[1], w_u=2.0, w_op=0.5)
    value = transfer_objective(home, s_u=1.0, s_t=1.4, p_norm=1.0, cs_norm=0.25)
    assert value == pytest.approx(2.0 * 0.4 - 0.5 * 0.75)


def hand_scored(request, networks, cand_id):
    """(s_u, s_t, transfer objective) of one candidate, from the public scoring functions.

    ``networks`` are the default scenario's operators, possibly with other loads.
    """
    ops = {net.id: net for net in networks}
    scenario = _scenario()
    kind = request.service_class.kind
    cand = ops[cand_id]
    bounds = scenario.requirements[kind]
    req = QoSRequirements(bw_req=scenario.demand.rate(kind, cand.technology),
                          jitter_req=bounds.jitter_req, delay_req=bounds.delay_req,
                          ber_req=bounds.ber_req)
    sp_max = max(net.sp for net in networks)
    s_u, _, p_norm = user_score(request.prefs, request.price_paid, sp_max)
    s_t, _, _ = candidate_score(cand, request.service_class, request.prefs, req, sp_max)
    return s_u, s_t, transfer_objective(ops[request.home_op], s_u, s_t, p_norm,
                                        cand.cs / sp_max)


def _no_scoring(monkeypatch):
    def scored(*args):
        raise AssertionError("a candidate was scored")

    monkeypatch.setattr(selection, "candidate_score", scored)
    monkeypatch.setattr(selection, "user_score", scored)


def test_reference_transfer_picks_op3():
    scenario = _scenario()
    request = _request(home=1)
    decision = select_serving_operator(request, _table(scenario.operators))
    assert decision.outcome is Outcome.SERVED_TRANSFER
    assert decision.serving_op == 3
    assert hand_scored(request, scenario.operators, 2)[2] == pytest.approx(0.3133506944444445)
    s_u, s_t, objective = hand_scored(request, scenario.operators, 3)
    assert objective == pytest.approx(-0.2941579861111112)
    assert s_u == pytest.approx(1.0)
    assert s_t == pytest.approx(1.4836197916666665)


def test_home_first_skips_scoring(monkeypatch):
    scenario = _scenario()
    _no_scoring(monkeypatch)
    decision = admit(_request(home=2), _table(scenario.operators), cooperation=True)
    assert decision.outcome is Outcome.SERVED_HOME
    assert decision.serving_op == 2


def test_no_cooperation_blocks_when_home_fails():
    scenario = _scenario()
    request = _request(home=1, kind=ServiceKind.INTERACTIVE)
    decision = admit(request, _table(scenario.operators), cooperation=False)
    assert decision.outcome is Outcome.BLOCKED
    assert decision.serving_op is None


def test_forced_route_between_wlans_for_loss_sensitive_class():
    scenario = _scenario()
    ops = list(scenario.operators)
    # Saturate Op2 so its own non-real-time client must be exchanged.
    ops[1] = replace(ops[1], used_kbps=ops[1].capacity_kbps)
    table = _table(ops)
    decision = admit(_request(home=2, kind=ServiceKind.INTERACTIVE), table, cooperation=True)
    assert decision.outcome is Outcome.SERVED_TRANSFER
    assert decision.serving_op == 3
    # The UMTS operator fails the BER gate whatever its load.
    assert [c.net.id for c in table.routes[2, ServiceKind.INTERACTIVE].candidates
            if not c.in_bounds] == [1]

    ops = list(scenario.operators)
    ops[2] = replace(ops[2], used_kbps=ops[2].capacity_kbps)
    table = _table(ops)
    decision = admit(_request(home=3, kind=ServiceKind.INTERACTIVE), table, cooperation=True)
    assert decision.outcome is Outcome.SERVED_TRANSFER
    assert decision.serving_op == 2
    assert [c.net.id for c in table.routes[3, ServiceKind.INTERACTIVE].candidates
            if not c.in_bounds] == [1]


def test_blocked_when_no_candidate_is_feasible(monkeypatch):
    scenario = _scenario()
    ops = [replace(net, used_kbps=net.capacity_kbps) for net in scenario.operators]
    # Scoring runs only for a candidate that passes the gate: here neither does.
    _no_scoring(monkeypatch)
    decision = admit(_request(home=1), _table(ops), cooperation=True)
    assert decision.outcome is Outcome.BLOCKED
    assert decision is BLOCKED


def test_exact_tie_resolves_to_lowest_id():
    scenario = _scenario()
    ops = list(scenario.operators)
    # Make Op3 a clone of Op2: identical offers, identical objectives.
    ops[2] = replace(ops[1], id=3, name="Op3")
    request = _request(home=1)
    decision = select_serving_operator(request, _table(ops))
    assert hand_scored(request, ops, 2) == hand_scored(request, ops, 3)
    assert decision.serving_op == 2


def test_decision_ignores_listing_order():
    scenario = _scenario()
    request = _request(home=1)
    forward = select_serving_operator(request, _table(scenario.operators))
    backward = select_serving_operator(request, _table(tuple(reversed(scenario.operators))))
    assert forward.serving_op == backward.serving_op
    assert forward == backward


def test_unknown_home_operator_raises():
    scenario = _scenario()
    stray = replace(_request(home=1), home_op=9)
    with pytest.raises(KeyError):
        admit(stray, _table(scenario.operators), True)


def test_weight_rescaling_never_changes_the_winner():
    rng = random.Random(20240817)
    checked = 0
    for _ in range(200):
        request, networks, demand, requirements = random_instance(rng)
        base = admit(request, AdmissionTable(networks, demand, requirements),
                     cooperation=True)
        k = 10.0 ** rng.uniform(-2.0, 2.0)
        scaled_nets = [replace(net, w_u=net.w_u * k, w_op=net.w_op * k)
                       for net in networks]
        scaled = admit(request, AdmissionTable(scaled_nets, demand, requirements),
                       cooperation=True)
        assert scaled.outcome == base.outcome
        assert scaled.serving_op == base.serving_op
        if base.outcome is Outcome.SERVED_TRANSFER:
            checked += 1
    assert checked > 20


def test_matches_brute_force_oracle():
    rng = random.Random(424242)
    outcomes = set()
    for _ in range(500):
        request, networks, demand, requirements = random_instance(rng)
        cooperation = rng.random() < 0.8
        decision = admit(request, AdmissionTable(networks, demand, requirements),
                         cooperation)
        outcome, serving = oracle_admit(request, networks, demand,
                                        requirements, cooperation)
        assert decision.outcome.value == outcome
        assert decision.serving_op == serving
        outcomes.add(outcome)
    assert outcomes == {"served_home", "served_transfer", "blocked"}


def test_one_table_follows_live_occupancy():
    # The table caches everything but used_kbps, so occupancy changed in place
    # between decisions must give what a fresh brute-force evaluation gives.
    rng = random.Random(31337)
    outcomes = set()
    for _ in range(300):
        request, networks, demand, requirements = random_instance(rng)
        table = AdmissionTable(networks, demand, requirements)
        for _ in range(4):
            for net in networks:
                net.used_kbps = rng.choice((0.0, net.capacity_kbps,
                                            rng.uniform(0.0, net.capacity_kbps)))
            cooperation = rng.random() < 0.8
            decision = admit(request, table, cooperation)
            outcome, serving = oracle_admit(request, networks, demand,
                                            requirements, cooperation)
            assert decision.outcome.value == outcome
            assert decision.serving_op == serving
            outcomes.add(outcome)
    assert outcomes == {"served_home", "served_transfer", "blocked"}


def test_shared_decisions_are_read_only():
    table = _table(_scenario().operators)
    home = admit(_request(home=2), table, cooperation=True)
    assert admit(_request(home=2), table, cooperation=True) is home
    blocked = admit(_request(home=1, kind=ServiceKind.INTERACTIVE), table,
                    cooperation=False)
    assert blocked is BLOCKED
    for decision in (home, blocked):
        with pytest.raises(FrozenInstanceError):
            decision.serving_op = 3
        with pytest.raises(FrozenInstanceError):
            decision.rate_kbps = 0.0


def test_served_decisions_carry_the_serving_rate():
    # The engine books decision.rate_kbps on the serving network without
    # asking the demand table again, so it must be that network's rate.
    rng = random.Random(8675309)
    outcomes = set()
    for _ in range(300):
        request, networks, demand, requirements = random_instance(rng)
        decision = admit(request, AdmissionTable(networks, demand, requirements),
                         cooperation=True)
        if not decision.served:
            assert decision.rate_kbps is None
            continue
        serving = next(net for net in networks if net.id == decision.serving_op)
        assert decision.rate_kbps == demand.rate(request.service_class.kind,
                                                 serving.technology)
        outcomes.add(decision.outcome)
    assert outcomes == {Outcome.SERVED_HOME, Outcome.SERVED_TRANSFER}
