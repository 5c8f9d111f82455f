"""Score computation for the nearest-performance selection rule.

The ideal solution is the score a candidate would get if it delivered exactly
what the application requires at the price the user already pays; every
requirement therefore normalizes to 1 against itself.  Candidate networks
normalize their offered QoS against the same requirements: jitter, delay and
BER saturate at 1 once they meet the requirement, while spare bandwidth is
left uncapped so that load keeps discriminating between otherwise-equal
networks.
"""

from __future__ import annotations

from typing import NamedTuple

from .model import OperatorNetwork, QoSRequirements, ServiceClass, UserPreferences


class NormalizedQoS(NamedTuple):
    """Offered over required QoS, in the criteria order (bandwidth, jitter, delay, BER)."""

    n_bw: float
    n_jitter: float
    n_delay: float
    n_ber: float


def normalize_offer(net: OperatorNetwork, req: QoSRequirements) -> NormalizedQoS:
    """Normalize one network's offered QoS against an application's requirements.

    Cost criteria (jitter, delay, BER) use min(required/offered, 1): meeting the
    requirement is worth exactly 1 and overshooting earns nothing extra.
    Bandwidth is remaining/required and deliberately uncapped.
    """
    if net.jitter_ms == 0 or net.delay_ms == 0 or net.ber == 0 or req.bw_req == 0:
        raise ValueError("normalization divisors must be non-zero")
    return NormalizedQoS(
        n_bw=net.remaining_kbps / req.bw_req,
        n_jitter=min(req.jitter_req / net.jitter_ms, 1.0),
        n_delay=min(req.delay_req / net.delay_ms, 1.0),
        n_ber=min(req.ber_req / net.ber, 1.0),
    )


def user_score(prefs: UserPreferences, price_paid: float, sp_max: float):
    """Score of the ideal solution for this user.

    Each required QoS parameter normalized against itself is 1, so the QoS part
    collapses to the weight sum (= 1).  Returns (s_u, s_qos, p_norm).
    """
    if sp_max <= 0:
        raise ValueError("sp_max must be positive")
    s_qos = 1.0
    p_norm = price_paid / sp_max
    s_u = prefs.w_qos * s_qos + prefs.w_price * p_norm
    return s_u, s_qos, p_norm


def candidate_score(net: OperatorNetwork, service_class: ServiceClass,
                    prefs: UserPreferences, req: QoSRequirements, sp_max: float):
    """Score of one candidate network for this user.  Returns (s_t, s_tqos, sp_norm)."""
    if sp_max <= 0:
        raise ValueError("sp_max must be positive")
    offered = normalize_offer(net, req)
    s_tqos = sum(w * n for w, n in zip(service_class.qos_weights, offered))
    sp_norm = net.sp / sp_max
    s_t = prefs.w_qos * s_tqos + prefs.w_price * sp_norm
    return s_t, s_tqos, sp_norm
