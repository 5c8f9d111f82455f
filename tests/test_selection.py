import math
import random
from dataclasses import FrozenInstanceError

import pytest

from accessim import selection
from accessim.model import (
    ClassRequirements,
    ServiceKind,
    ServiceRequest,
    default_scenario,
    replace,
)
from accessim.selection import (
    AdmissionTable,
    Outcome,
    admit,
    candidate_score,
    select_serving_operator,
    transfer_objective,
    user_score,
)

from oracles import oracle_admit, oracle_candidates, random_instance

RT_BOUNDS = ClassRequirements(jitter_req=10.0, delay_req=100.0, ber_req=1e-3)


def _scenario():
    return default_scenario()


def _ops(scenario=None):
    scenario = scenario or _scenario()
    return {net.id: net for net in scenario.operators}


def _table(networks, requirements=None, cooperation=True):
    scenario = _scenario()
    return AdmissionTable(networks, scenario.demand, requirements or scenario.requirements,
                          cooperation)


def _tables_by_mode(networks, demand, requirements):
    """One table over ``networks`` per cooperation mode, keyed by the mode."""
    return {cooperation: AdmissionTable(networks, demand, requirements, cooperation)
            for cooperation in (True, False)}


def _request(home, kind=ServiceKind.CONVERSATIONAL, price=None):
    scenario = _scenario()
    return ServiceRequest(
        home_op=home,
        service_class=scenario.service_class(kind),
        w_qos=0.7,
        w_price=0.3,
        price_paid=price if price is not None else _ops(scenario)[home].sp,
    )


def _admits_alone(net, kind=ServiceKind.CONVERSATIONAL, bounds=None):
    """Whether ``net`` alone, without cooperation, admits its own client of ``kind``."""
    requirements = dict(_scenario().requirements)
    if bounds is not None:
        requirements[kind] = bounds
    decision = admit(_request(home=net.id, kind=kind),
                     _table([net], requirements, cooperation=False))
    return decision.outcome is not Outcome.BLOCKED


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
    """(s_u, s_t, transfer objective) of one candidate, from the public score functions.

    ``networks`` are the default scenario's operators, possibly with other loads.
    """
    table = _table(networks)
    route = table.routes[request.home_op][request.service_class.kind]
    cand = next(c for c in route.candidates if c.net.id == cand_id)
    s_u, p_norm = user_score(request.w_qos, request.w_price, request.price_paid, table.sp_max)
    s_t = candidate_score(cand, request.service_class.qos_weights, request.w_qos,
                          request.w_price)
    return s_u, s_t, transfer_objective(route.home, s_u, s_t, p_norm, cand.cs_norm)


def _no_scoring(monkeypatch):
    def scored(*args):
        raise AssertionError("a candidate was scored")

    monkeypatch.setattr(selection, "candidate_score", scored)
    monkeypatch.setattr(selection, "user_score", scored)
    monkeypatch.setattr(selection, "transfer_objective", scored)


def test_reference_transfer_picks_op3():
    scenario = _scenario()
    request = _request(home=1)
    table = _table(scenario.operators)
    decision = select_serving_operator(request, table, table.routes[1][request.service_class.kind])
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
    decision = admit(_request(home=2), _table(scenario.operators))
    assert decision.outcome is Outcome.SERVED_HOME
    assert decision.serving_op == 2


def test_no_cooperation_blocks_when_home_fails():
    scenario = _scenario()
    request = _request(home=1, kind=ServiceKind.INTERACTIVE)
    decision = admit(request, _table(scenario.operators, cooperation=False))
    assert decision.outcome is Outcome.BLOCKED
    assert decision.serving_op is None


def _no_selection(monkeypatch):
    def selected(*args):
        raise AssertionError("select_serving_operator was called")

    monkeypatch.setattr(selection, "select_serving_operator", selected)


def test_a_non_cooperating_table_lists_no_candidates(monkeypatch):
    ops = [replace(net, used_kbps=net.capacity_kbps) if net.id == 1 else net
           for net in _scenario().operators]
    table = _table(ops, cooperation=False)
    assert all(route.candidates == () for routes in table.routes.values()
               for route in routes.values())
    # Only the home and blocked decisions hold a slot: no transfer decision was built.
    assert all(serving in (home, None) for home, serving, _ in table.slot_keys)
    # Op2 and Op3 have room, so a cooperating table moves the client.
    assert admit(_request(home=1), _table(ops)).outcome is Outcome.SERVED_TRANSFER
    _no_selection(monkeypatch)
    route = table.routes[1][ServiceKind.CONVERSATIONAL]
    assert admit(_request(home=1), table) is route.blocked


def test_a_cooperating_route_without_candidates_blocks_without_selection(monkeypatch):
    solo = replace(_ops()[1], used_kbps=_ops()[1].capacity_kbps)
    table = _table([solo])
    route = table.routes[1][ServiceKind.CONVERSATIONAL]
    assert route.candidates == ()
    _no_selection(monkeypatch)
    assert admit(_request(home=1), table) is route.blocked


def test_a_home_outside_its_bounds_is_never_served_at_home():
    # UMTS fails the interactive BER bound, so no spare capacity serves its client at home.
    umts = replace(_ops()[1], capacity_kbps=1e300, used_kbps=0.0)
    kind = ServiceKind.INTERACTIVE
    for cooperation in (True, False):
        table = _table([umts], cooperation=cooperation)
        route = table.routes[1][kind]
        assert route.rate == math.inf
        # The shared served decision keeps the demand rate.
        assert route.served.rate_kbps == _scenario().demand.rate(kind, umts.technology)
        assert admit(_request(home=1, kind=kind), table) is route.blocked


def test_forced_route_between_wlans_for_loss_sensitive_class():
    scenario = _scenario()
    ops = list(scenario.operators)
    # Saturate Op2 so its own non-real-time client must be exchanged.
    ops[1] = replace(ops[1], used_kbps=ops[1].capacity_kbps)
    table = _table(ops)
    decision = admit(_request(home=2, kind=ServiceKind.INTERACTIVE), table)
    assert decision.outcome is Outcome.SERVED_TRANSFER
    assert decision.serving_op == 3
    # The UMTS operator fails the BER gate whatever its load, so it is no candidate.
    assert [c.net.id for c in table.routes[2][ServiceKind.INTERACTIVE].candidates] == [3]

    ops = list(scenario.operators)
    ops[2] = replace(ops[2], used_kbps=ops[2].capacity_kbps)
    table = _table(ops)
    decision = admit(_request(home=3, kind=ServiceKind.INTERACTIVE), table)
    assert decision.outcome is Outcome.SERVED_TRANSFER
    assert decision.serving_op == 2
    assert [c.net.id for c in table.routes[3][ServiceKind.INTERACTIVE].candidates] == [2]


def test_blocked_when_no_candidate_is_feasible(monkeypatch):
    scenario = _scenario()
    ops = [replace(net, used_kbps=net.capacity_kbps) for net in scenario.operators]
    # Scoring runs only for a candidate that passes the gate: here neither does.
    _no_scoring(monkeypatch)
    request, table = _request(home=1), _table(ops)
    decision = admit(request, table)
    route = table.routes[1][request.service_class.kind]
    assert decision.outcome is Outcome.BLOCKED
    assert decision is route.blocked
    assert select_serving_operator(request, table, route) is route.blocked


def _five_operators():
    """Five networks, copies of the default three with ids 1-5, listed out of id order."""
    operators = default_scenario().operators * 2
    networks = [replace(net, id=i + 1) for i, net in enumerate(operators[:5])]
    return tuple(networks[i] for i in (3, 0, 4, 2, 1))


@pytest.mark.parametrize("home, kind, full", [
    (1, ServiceKind.CONVERSATIONAL, (1, 2)),  # candidates 2 and 3; the lower-id one is full
    (2, ServiceKind.INTERACTIVE, (2,)),       # candidate 3 alone: UMTS fails the BER bound
], ids=["lower-id-full", "single-candidate"])
def test_the_only_candidate_with_room_wins_unscored(monkeypatch, home, kind, full):
    ops = [replace(net, used_kbps=net.capacity_kbps) if net.id in full else net
           for net in _scenario().operators]
    _no_scoring(monkeypatch)
    request, table = _request(home=home, kind=kind), _table(ops)
    route = table.routes[home][kind]
    assert route.candidates[-1].net.id == 3
    assert admit(request, table) is route.candidates[-1].served
    assert select_serving_operator(request, table, route) is route.candidates[-1].served


@pytest.mark.parametrize("networks", [_scenario().operators, _five_operators()],
                         ids=["two-with-room", "four-with-room"])
def test_two_candidates_with_room_score_the_user_once(monkeypatch, networks):
    # Home 1 is full, so every other network is a conversational candidate with room.
    ops = [replace(net, used_kbps=net.capacity_kbps) if net.id == 1 else net
           for net in networks]
    calls = []

    def counted(name, score):
        def wrapper(*args):
            calls.append((name, args[0].net.id) if name == "candidate_score" else name)
            return score(*args)
        return wrapper

    for score in (user_score, candidate_score, transfer_objective):
        monkeypatch.setattr(selection, score.__name__, counted(score.__name__, score))
    scenario = _scenario()
    request, table = _request(home=1), _table(ops)
    decision = admit(request, table)
    others = sorted(net.id for net in ops if net.id != 1)
    # The user once, then each candidate in id order, the first one included.
    assert calls == ["user_score", *(step for op in others
                                     for step in (("candidate_score", op), "transfer_objective"))]
    outcome, serving = oracle_admit(request, ops, scenario.demand, scenario.requirements, True)
    assert (decision.outcome.value, decision.serving_op) == (outcome, serving)


def test_exact_tie_resolves_to_lowest_id():
    scenario = _scenario()
    ops = list(scenario.operators)
    # Make Op3 a clone of Op2: identical offers, identical objectives.
    ops[2] = replace(ops[1], id=3, name="Op3")
    request = _request(home=1)
    table = _table(ops)
    decision = select_serving_operator(request, table, table.routes[1][request.service_class.kind])
    assert hand_scored(request, ops, 2) == hand_scored(request, ops, 3)
    assert decision.serving_op == 2


def test_decision_ignores_listing_order():
    scenario = _scenario()
    request = _request(home=1)
    kind = request.service_class.kind
    forward_table = _table(scenario.operators)
    backward_table = _table(tuple(reversed(scenario.operators)))
    forward = select_serving_operator(request, forward_table, forward_table.routes[1][kind])
    backward = select_serving_operator(request, backward_table, backward_table.routes[1][kind])
    assert forward.serving_op == backward.serving_op
    assert forward == backward


def test_unknown_home_operator_raises():
    scenario = _scenario()
    stray = _request(home=9, price=0.9)
    with pytest.raises(KeyError):
        admit(stray, _table(scenario.operators))


def test_weight_rescaling_never_changes_the_winner():
    rng = random.Random(20240817)
    checked = 0
    for _ in range(200):
        request, networks, demand, requirements = random_instance(rng)
        base = admit(request, AdmissionTable(networks, demand, requirements))
        k = 10.0 ** rng.uniform(-2.0, 2.0)
        scaled_nets = [replace(net, w_u=net.w_u * k, w_op=net.w_op * k)
                       for net in networks]
        scaled = admit(request, AdmissionTable(scaled_nets, demand, requirements))
        assert scaled.outcome == base.outcome
        assert scaled.serving_op == base.serving_op
        if base.outcome is Outcome.SERVED_TRANSFER:
            checked += 1
    assert checked > 20


def test_matches_brute_force_oracle():
    rng = random.Random(424242)
    outcomes = set()
    rooms = set()  # transfer attempts by candidates with room: 0, 1, or 2 and more
    for _ in range(500):
        request, networks, demand, requirements = random_instance(rng)
        tables = _tables_by_mode(networks, demand, requirements)
        cooperation = rng.random() < 0.8
        decision = admit(request, tables[cooperation])
        outcome, serving = oracle_admit(request, networks, demand,
                                        requirements, cooperation)
        assert decision.outcome.value == outcome
        assert decision.serving_op == serving
        outcomes.add(outcome)
        if cooperation and outcome != "served_home":
            rooms.add(min(len(oracle_candidates(request, networks, demand, requirements)), 2))
    assert outcomes == {"served_home", "served_transfer", "blocked"}
    # Each exit of the transfer loop is met: blocked, the lone candidate, a scored ranking.
    assert rooms == {0, 1, 2}


def test_one_table_follows_live_occupancy():
    # The table caches everything but used_kbps, so occupancy changed in place
    # between decisions must give what a fresh brute-force evaluation gives.
    rng = random.Random(31337)
    outcomes = set()
    for _ in range(300):
        request, networks, demand, requirements = random_instance(rng)
        tables = _tables_by_mode(networks, demand, requirements)
        for _ in range(4):
            for net in networks:
                net.used_kbps = rng.choice((0.0, net.capacity_kbps,
                                            rng.uniform(0.0, net.capacity_kbps)))
            cooperation = rng.random() < 0.8
            decision = admit(request, tables[cooperation])
            outcome, serving = oracle_admit(request, networks, demand,
                                            requirements, cooperation)
            assert decision.outcome.value == outcome
            assert decision.serving_op == serving
            outcomes.add(outcome)
    assert outcomes == {"served_home", "served_transfer", "blocked"}


def test_shared_decisions_are_read_only():
    ops = list(_scenario().operators)
    ops[1] = replace(ops[1], used_kbps=ops[1].capacity_kbps)  # Op2 full: its client moves
    table = _table(ops)
    home = admit(_request(home=3), table)
    assert admit(_request(home=3), table) is home
    moved = _request(home=2, kind=ServiceKind.INTERACTIVE)
    transfer = admit(moved, table)
    assert transfer.outcome is Outcome.SERVED_TRANSFER
    assert admit(moved, table) is transfer
    lone = _table(ops, cooperation=False)
    blocked = admit(_request(home=1, kind=ServiceKind.INTERACTIVE), lone)
    assert blocked is lone.routes[1][ServiceKind.INTERACTIVE].blocked
    for decision in (home, transfer, blocked):
        with pytest.raises(FrozenInstanceError):
            decision.serving_op = 3
        with pytest.raises(FrozenInstanceError):
            decision.rate_kbps = 0.0


def test_admit_returns_only_prebuilt_decisions():
    # admit allocates nothing: every decision is one the table built in advance.
    rng = random.Random(5551212)
    outcomes = set()
    for _ in range(500):
        request, networks, demand, requirements = random_instance(rng)
        tables = _tables_by_mode(networks, demand, requirements)
        kind = request.service_class.kind
        for cand in tables[True].routes[request.home_op][kind].candidates:
            assert cand.served.outcome is Outcome.SERVED_TRANSFER
            assert (cand.served.serving_op, cand.served.rate_kbps) == (cand.net.id, cand.rate)
        table = tables[rng.random() < 0.8]
        route = table.routes[request.home_op][kind]
        decision = admit(request, table)
        prebuilt = (route.served, route.blocked, *(cand.served for cand in route.candidates))
        assert any(decision is shared for shared in prebuilt)
        outcomes.add(decision.outcome)
    assert outcomes == set(Outcome)


@pytest.mark.parametrize("networks", [default_scenario().operators, _five_operators()],
                         ids=["default", "five-operators"])
def test_every_served_decision_holds_one_distinct_slot(networks):
    # The engine tallies every arrival at its decision's slot and reads the
    # slot's (home, serving, kind) back, so each must name exactly its decision:
    # served at home, transferred, or blocked, whose key names no serving operator.
    scenario = default_scenario()
    table = AdmissionTable(networks, scenario.demand, scenario.requirements)
    slots = []
    for home_id, routes in table.routes.items():
        assert list(routes) == list(scenario.requirements)
        for kind, route in routes.items():
            assert table.slot_keys[route.served.slot] == (home_id, home_id, kind)
            assert table.slot_keys[route.blocked.slot] == (home_id, None, kind)
            assert route.blocked.outcome is Outcome.BLOCKED
            slots += route.served.slot, route.blocked.slot
            for cand in route.candidates:
                assert table.slot_keys[cand.served.slot] == (home_id, cand.net.id, kind)
                slots.append(cand.served.slot)
    assert sorted(table.routes) == sorted(net.id for net in networks)
    assert sorted(slots) == list(range(len(table.slot_keys)))
    # Numbered in id order, so the listing order changes no decision.
    reordered = AdmissionTable(networks[::-1], scenario.demand, scenario.requirements)
    assert reordered.slot_keys == table.slot_keys
    assert all(reordered.routes[home_id][kind].served == route.served
               and reordered.routes[home_id][kind].blocked == route.blocked
               for home_id, routes in table.routes.items() for kind, route in routes.items())


def test_served_decisions_carry_the_serving_rate():
    # The engine books decision.rate_kbps on the serving network without
    # asking the demand table again, so it must be that network's rate.
    rng = random.Random(8675309)
    outcomes = set()
    for _ in range(300):
        request, networks, demand, requirements = random_instance(rng)
        decision = admit(request, AdmissionTable(networks, demand, requirements))
        if decision.outcome is Outcome.BLOCKED:
            assert decision.rate_kbps is None
            continue
        serving = next(net for net in networks if net.id == decision.serving_op)
        assert decision.rate_kbps == demand.rate(request.service_class.kind,
                                                 serving.technology)
        outcomes.add(decision.outcome)
    assert outcomes == {Outcome.SERVED_HOME, Outcome.SERVED_TRANSFER}
