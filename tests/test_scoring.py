import math
import random
from pathlib import Path

import pytest

from accessim.model import (
    ClassRequirements,
    DemandTable,
    ServiceKind,
    Technology,
    default_scenario,
    load_scenario,
    replace,
)
from accessim.selection import AdmissionTable, candidate_score, meets_bounds, user_score

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

CONV = ServiceKind.CONVERSATIONAL
CONV_WEIGHTS = (0.05, 0.45, 0.45, 0.05)
# Unit bandwidth weight and no price weight: candidate_score is then the bare
# bandwidth ratio remaining / rate.
BANDWIDTH_ONLY = ((1.0, 0.0, 0.0, 0.0), 1.0, 0.0)


def _ops():
    return {net.id: net for net in default_scenario().operators}


def _table(networks=None, demand=None, requirements=None):
    scenario = default_scenario()
    return AdmissionTable(networks or scenario.operators, demand or scenario.demand,
                          requirements or scenario.requirements)


def _candidate(table, cand_id):
    """The table's conversational entry for ``cand_id`` on some other home's route."""
    home_id = next(net.id for net in table if net.id != cand_id)
    return next(cand for cand in table.routes[home_id][CONV].candidates
                if cand.net.id == cand_id)


def test_bandwidth_normalization_is_uncapped():
    # Op2 offers 11000 kb/s to a 256 kb/s conversational session.
    n_bw = candidate_score(_candidate(_table(), 2), *BANDWIDTH_ONLY)
    assert n_bw == pytest.approx(42.96875)
    assert n_bw > 1.0


@pytest.mark.parametrize("name", ["default", "calibrated"])
def test_every_route_holds_exactly_the_operators_that_meet_the_bounds(name):
    # candidate_score takes the jitter, delay and BER terms as 1, which holds
    # only for a candidate within every bound of the class.
    scenario = load_scenario(SCENARIO_DIR / f"{name}.json")
    table = _table(scenario.operators, scenario.demand, scenario.requirements)
    for home_id, routes in table.routes.items():
        for kind, route in routes.items():
            bounds = scenario.requirements[kind]
            assert [cand.net.id for cand in route.candidates] == sorted(
                net.id for net in scenario.operators
                if net.id != home_id and meets_bounds(net, bounds))
    # The UMTS network misses the interactive BER bound, so no interactive route has it.
    assert all(cand.net.id != 1 for routes in table.routes.values()
               for cand in routes[ServiceKind.INTERACTIVE].candidates)


def test_zero_divisors_rejected():
    # The candidate's bit rate is the score's only divisor.  Jitter, delay and
    # BER are only compared with the bounds, so a zero there is no divisor.
    for field in ("jitter_ms", "delay_ms", "ber"):
        _table([replace(net, **{field: 0.0}) if net.id == 1 else net
                for net in default_scenario().operators])
    demand = DemandTable({kind: dict(rates) for kind, rates in default_scenario().demand.items()})
    demand[CONV][Technology.WLAN] = 0.0
    with pytest.raises(ValueError):
        _table(demand=demand)


def test_user_score_ideal_qos_part_is_one():
    s_u, p_norm = user_score(0.7, 0.3, price_paid=0.9, sp_max=0.9)
    assert p_norm == 1.0
    assert s_u == pytest.approx(1.0)
    # With no weight on price only the QoS part is left, and it is exactly 1.
    assert user_score(1.0, 0.0, price_paid=0.5, sp_max=0.9)[0] == 1.0


def test_user_score_cheap_contract():
    s_u, p_norm = user_score(0.4, 0.6, price_paid=0.1, sp_max=0.9)
    assert p_norm == pytest.approx(1.0 / 9.0)
    assert s_u == pytest.approx(0.4666666666666667)


def test_candidate_scores_for_real_time_reference_case():
    table = _table()
    assert table.sp_max == 0.9
    op2, op3 = _candidate(table, 2), _candidate(table, 3)
    assert op2.sp_norm == pytest.approx(1.0 / 9.0)
    assert candidate_score(op2, CONV_WEIGHTS, 1.0, 0.0) == pytest.approx(3.0984375)
    assert candidate_score(op2, CONV_WEIGHTS, 0.7, 0.3) == pytest.approx(2.2022395833333333)
    assert candidate_score(op3, CONV_WEIGHTS, 1.0, 0.0) == pytest.approx(2.02421875)
    assert candidate_score(op3, CONV_WEIGHTS, 0.7, 0.3) == pytest.approx(1.4836197916666665)


def test_candidate_score_decreases_with_load():
    # The table reads occupancy live, so one table sees every load in turn.
    table = _table([replace(net) for net in default_scenario().operators])
    cand = _candidate(table, 2)
    previous = math.inf
    for used in (0.0, 2000.0, 4000.0, 8000.0, 10000.0):
        cand.net.used_kbps = used
        s_t = candidate_score(cand, CONV_WEIGHTS, 0.7, 0.3)
        assert s_t < previous
        previous = s_t


def test_scores_invariant_under_price_rescaling():
    base = _candidate(_table(), 3)
    for k in (0.5, 3.0, 100.0):
        base_u = user_score(0.6, 0.4, price_paid=0.9, sp_max=0.9)
        scaled_u = user_score(0.6, 0.4, price_paid=0.9 * k, sp_max=0.9 * k)
        assert scaled_u[0] == pytest.approx(base_u[0])
        scaled_table = _table([replace(net, sp=net.sp * k, cs=net.cs * k)
                               for net in default_scenario().operators])
        assert scaled_table.sp_max == pytest.approx(0.9 * k)
        scaled = _candidate(scaled_table, 3)
        assert candidate_score(scaled, CONV_WEIGHTS, 0.6, 0.4) \
            == pytest.approx(candidate_score(base, CONV_WEIGHTS, 0.6, 0.4))


def test_sp_max_must_be_positive():
    for sp in (0.0, -1.0):
        with pytest.raises(ValueError):
            _table([replace(net, sp=sp) for net in default_scenario().operators])


def test_random_offers_stay_finite_and_bounded():
    rng = random.Random(99)
    scored = 0
    for _ in range(300):
        net = replace(
            _ops()[2],
            used_kbps=rng.uniform(0.0, 11000.0),
            jitter_ms=rng.uniform(0.5, 40.0),
            delay_ms=rng.uniform(1.0, 300.0),
            ber=10.0 ** rng.uniform(-8.0, -2.0),
            sp=rng.uniform(0.01, 2.0),
        )
        home = replace(_ops()[1], sp=2.0)  # sets the table's sp_max
        demand = DemandTable({kind: {tech: rng.uniform(16.0, 2048.0) for tech in Technology}
                              for kind in ServiceKind})
        requirements = {kind: ClassRequirements(jitter_req=rng.uniform(1.0, 30.0),
                                                delay_req=rng.uniform(5.0, 250.0),
                                                ber_req=10.0 ** rng.uniform(-7.0, -2.0))
                        for kind in ServiceKind}
        table = AdmissionTable([home, net], demand, requirements)
        assert table.sp_max == 2.0
        candidates = table.routes[1][CONV].candidates
        assert len(candidates) == meets_bounds(net, requirements[CONV])
        if not candidates:
            continue
        [cand] = candidates
        scored += 1
        assert all(math.isfinite(v) for v in (cand.sp_norm, cand.cs_norm))
        assert candidate_score(cand, *BANDWIDTH_ONLY) >= 0.0
        weights = [rng.uniform(0.01, 1.0) for _ in range(4)]
        total = sum(weights)
        qos_weights = tuple(w / total for w in weights)
        w_qos = rng.uniform(0.05, 0.95)
        s_t = candidate_score(cand, qos_weights, w_qos, 1 - w_qos)
        s_tqos = candidate_score(cand, qos_weights, 1.0, 0.0)
        assert math.isfinite(s_t) and s_t >= 0.0
        assert math.isfinite(s_tqos) and s_tqos >= 0.0
    assert scored >= 20
