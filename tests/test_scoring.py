import math
import random
from dataclasses import replace

import pytest

from accessim.model import (
    QoSRequirements,
    ServiceClass,
    ServiceKind,
    UserPreferences,
    default_scenario,
)
from accessim.scoring import candidate_score, normalize_offer, user_score

RT_REQ = QoSRequirements(bw_req=256.0, jitter_req=10.0, delay_req=100.0, ber_req=1e-3)
NRT_REQ = QoSRequirements(bw_req=1024.0, jitter_req=20.0, delay_req=150.0, ber_req=1e-5)


def _ops():
    return {net.id: net for net in default_scenario().operators}


def test_bandwidth_normalization_is_uncapped():
    offered = normalize_offer(_ops()[2], RT_REQ)
    assert offered.n_bw == pytest.approx(42.96875)
    assert offered.n_bw > 1.0


def test_cost_criteria_saturate_at_one():
    # Op2 meets or beats every real-time bound, so jitter/delay/BER all pin to 1.
    offered = normalize_offer(_ops()[2], RT_REQ)
    assert (offered.n_jitter, offered.n_delay, offered.n_ber) == (1.0, 1.0, 1.0)


def test_cost_criterion_below_requirement_scales():
    # UMTS BER 1e-3 against the non-real-time 1e-5 bound: two orders short.
    offered = normalize_offer(_ops()[1], NRT_REQ)
    assert offered.n_ber == pytest.approx(0.01)
    tight = QoSRequirements(bw_req=256.0, jitter_req=6.0, delay_req=100.0, ber_req=1e-3)
    assert normalize_offer(replace(_ops()[1], jitter_ms=10.0), tight).n_jitter \
        == pytest.approx(0.6)


def test_zero_divisors_rejected():
    with pytest.raises(ValueError):
        normalize_offer(replace(_ops()[1], ber=0.0), RT_REQ)
    with pytest.raises(ValueError):
        normalize_offer(_ops()[1], replace(RT_REQ, bw_req=0.0))


def test_user_score_ideal_qos_part_is_one():
    s_u, s_qos, p_norm = user_score(UserPreferences(0.7, 0.3), price_paid=0.9, sp_max=0.9)
    assert s_qos == 1.0
    assert p_norm == 1.0
    assert s_u == pytest.approx(1.0)


def test_user_score_cheap_contract():
    s_u, _, p_norm = user_score(UserPreferences(0.4, 0.6), price_paid=0.1, sp_max=0.9)
    assert p_norm == pytest.approx(1.0 / 9.0)
    assert s_u == pytest.approx(0.4666666666666667)


def test_candidate_scores_for_real_time_reference_case():
    ops = _ops()
    conv = ServiceClass(kind=ServiceKind.CONVERSATIONAL,
                        qos_weights=(0.05, 0.45, 0.45, 0.05))
    prefs = UserPreferences(0.7, 0.3)
    s_t2, s_tqos2, sp_norm2 = candidate_score(ops[2], conv, prefs, RT_REQ, sp_max=0.9)
    assert s_tqos2 == pytest.approx(3.0984375)
    assert sp_norm2 == pytest.approx(1.0 / 9.0)
    assert s_t2 == pytest.approx(2.2022395833333333)
    s_t3, s_tqos3, _ = candidate_score(ops[3], conv, prefs, RT_REQ, sp_max=0.9)
    assert s_tqos3 == pytest.approx(2.02421875)
    assert s_t3 == pytest.approx(1.4836197916666665)


def test_candidate_score_decreases_with_load():
    conv = ServiceClass(kind=ServiceKind.CONVERSATIONAL,
                        qos_weights=(0.05, 0.45, 0.45, 0.05))
    prefs = UserPreferences(0.7, 0.3)
    previous = math.inf
    for used in (0.0, 2000.0, 4000.0, 8000.0, 10000.0):
        net = replace(_ops()[2], used_kbps=used)
        s_t, _, _ = candidate_score(net, conv, prefs, RT_REQ, sp_max=0.9)
        assert s_t < previous
        previous = s_t


def test_scores_invariant_under_price_rescaling():
    conv = ServiceClass(kind=ServiceKind.CONVERSATIONAL,
                        qos_weights=(0.05, 0.45, 0.45, 0.05))
    prefs = UserPreferences(0.6, 0.4)
    for k in (0.5, 3.0, 100.0):
        base_u = user_score(prefs, price_paid=0.9, sp_max=0.9)
        scaled_u = user_score(prefs, price_paid=0.9 * k, sp_max=0.9 * k)
        assert scaled_u[0] == pytest.approx(base_u[0])
        net = _ops()[3]
        base_t = candidate_score(net, conv, prefs, RT_REQ, sp_max=0.9)
        scaled_t = candidate_score(replace(net, sp=net.sp * k), conv, prefs,
                                   RT_REQ, sp_max=0.9 * k)
        assert scaled_t[0] == pytest.approx(base_t[0])


def test_sp_max_must_be_positive():
    with pytest.raises(ValueError):
        user_score(UserPreferences(0.5, 0.5), price_paid=0.1, sp_max=0.0)
    conv = ServiceClass(kind=ServiceKind.CONVERSATIONAL,
                        qos_weights=(0.05, 0.45, 0.45, 0.05))
    with pytest.raises(ValueError):
        candidate_score(_ops()[2], conv, UserPreferences(0.5, 0.5), RT_REQ, sp_max=-1.0)


def test_random_offers_stay_finite_and_bounded():
    rng = random.Random(99)
    for _ in range(300):
        net = replace(
            _ops()[2],
            used_kbps=rng.uniform(0.0, 11000.0),
            jitter_ms=rng.uniform(0.5, 40.0),
            delay_ms=rng.uniform(1.0, 300.0),
            ber=10.0 ** rng.uniform(-8.0, -2.0),
            sp=rng.uniform(0.01, 2.0),
        )
        req = QoSRequirements(bw_req=rng.uniform(16.0, 2048.0),
                              jitter_req=rng.uniform(1.0, 30.0),
                              delay_req=rng.uniform(5.0, 250.0),
                              ber_req=10.0 ** rng.uniform(-7.0, -2.0))
        offered = normalize_offer(net, req)
        assert all(math.isfinite(v) for v in offered)
        assert 0.0 < offered.n_jitter <= 1.0
        assert 0.0 < offered.n_delay <= 1.0
        assert 0.0 < offered.n_ber <= 1.0
        assert offered.n_bw >= 0.0
        weights = [rng.uniform(0.01, 1.0) for _ in range(4)]
        total = sum(weights)
        klass = ServiceClass(kind=ServiceKind.CONVERSATIONAL,
                             qos_weights=tuple(w / total for w in weights))
        w_qos = rng.uniform(0.05, 0.95)
        s_t, s_tqos, _ = candidate_score(net, klass, UserPreferences(w_qos, 1 - w_qos),
                                         req, sp_max=2.0)
        assert math.isfinite(s_t) and s_t >= 0.0
        assert math.isfinite(s_tqos) and s_tqos >= 0.0
