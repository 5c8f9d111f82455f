"""Admission policy: home first, then profit-aware transfer to a cooperating operator.

A feasible home operator always serves its own client without any scoring.
Only when the home network fails the hard QoS/capacity gate does the transfer
objective run: each feasible candidate is scored and the one minimizing

    w_u * |s_u - s_t|  -  w_op * (p_norm - cs_norm)

wins, i.e. the operator closest to the user's ideal score after crediting the
home operator's settlement margin.  The weights are the home operator's: it
owns the transfer decision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Sequence

from .model import (
    ClassRequirements,
    DemandTable,
    OperatorNetwork,
    QoSRequirements,
    ServiceKind,
    ServiceRequest,
)
from .scoring import ScoreBreakdown, candidate_score, user_score

# Objectives closer than this are treated as tied and broken by lowest operator id.
TIE_EPS = 1e-12


class Outcome(Enum):
    SERVED_HOME = "served_home"
    SERVED_TRANSFER = "served_transfer"
    BLOCKED = "blocked"


@dataclass(frozen=True)
class AdmissionDecision:
    outcome: Outcome
    serving_op: int | None = None
    breakdowns: Mapping[int, ScoreBreakdown] = field(default_factory=dict)
    objectives: Mapping[int, float] = field(default_factory=dict)
    infeasible: tuple[int, ...] = ()

    @property
    def served(self):
        return self.outcome is not Outcome.BLOCKED


def feasible(net: OperatorNetwork, req: ClassRequirements | QoSRequirements,
             rate_kbps: float) -> bool:
    """Hard gate on all four axes; remaining bandwidth exactly equal to the rate admits.

    Only the jitter, delay and BER bounds of ``req`` are read, so the per-class
    requirements serve as they are; bandwidth comes in as ``rate_kbps``.
    """
    return (net.jitter_ms <= req.jitter_req
            and net.delay_ms <= req.delay_req
            and net.ber <= req.ber_req
            and net.remaining_kbps >= rate_kbps)


def transfer_objective(home: OperatorNetwork, s_u: float, s_t: float,
                       p_norm: float, cs_norm: float) -> float:
    """Distance to the ideal score minus the home operator's settlement margin."""
    return home.w_u * abs(s_u - s_t) - home.w_op * (p_norm - cs_norm)


def select_serving_operator(request: ServiceRequest,
                            networks: Sequence[OperatorNetwork],
                            demand: DemandTable,
                            requirements: Mapping[ServiceKind, ClassRequirements],
                            ) -> AdmissionDecision:
    """Pick the best cooperating operator (home excluded), or block if none is feasible."""
    home = _by_id(networks, request.home_op)
    kind = request.service_class.kind
    bounds = requirements[kind]
    sp_max = max(net.sp for net in networks)
    s_u, s_qos, p_norm = user_score(request.prefs, request.price_paid, sp_max)

    breakdowns: dict[int, ScoreBreakdown] = {}
    objectives: dict[int, float] = {}
    infeasible: list[int] = []
    best_id = None
    best_obj = 0.0
    for cand in sorted((n for n in networks if n.id != home.id), key=lambda n: n.id):
        rate = demand.rate(kind, cand.technology)
        if not feasible(cand, bounds, rate):
            infeasible.append(cand.id)
            continue
        req = QoSRequirements(bw_req=rate, jitter_req=bounds.jitter_req,
                              delay_req=bounds.delay_req, ber_req=bounds.ber_req)
        s_t, s_tqos, sp_norm = candidate_score(cand, request.service_class,
                                               request.prefs, req, sp_max)
        cs_norm = cand.cs / sp_max
        breakdowns[cand.id] = ScoreBreakdown(s_u=s_u, s_qos=s_qos, s_t=s_t, s_tqos=s_tqos,
                                             p_norm=p_norm, sp_norm=sp_norm, cs_norm=cs_norm)
        obj = transfer_objective(home, s_u, s_t, p_norm, cs_norm)
        objectives[cand.id] = obj
        if best_id is None or obj < best_obj - TIE_EPS:
            best_id, best_obj = cand.id, obj

    if best_id is None:
        return AdmissionDecision(Outcome.BLOCKED, infeasible=tuple(infeasible))
    return AdmissionDecision(Outcome.SERVED_TRANSFER, serving_op=best_id,
                             breakdowns=breakdowns, objectives=objectives,
                             infeasible=tuple(infeasible))


def admit(request: ServiceRequest,
          networks: Sequence[OperatorNetwork],
          demand: DemandTable,
          requirements: Mapping[ServiceKind, ClassRequirements],
          cooperation: bool) -> AdmissionDecision:
    """Home-first admission; never mutates network state, the engine applies the outcome."""
    home = _by_id(networks, request.home_op)
    kind = request.service_class.kind
    if feasible(home, requirements[kind], demand.rate(kind, home.technology)):
        return AdmissionDecision(Outcome.SERVED_HOME, serving_op=home.id)
    if not cooperation:
        return AdmissionDecision(Outcome.BLOCKED)
    return select_serving_operator(request, networks, demand, requirements)


def _by_id(networks, op_id) -> OperatorNetwork:
    for net in networks:
        if net.id == op_id:
            return net
    raise KeyError(f"unknown operator id {op_id}")
