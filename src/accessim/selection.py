"""Admission policy: home first, then profit-aware transfer to a cooperating operator.

A feasible home operator always serves its own client without any scoring.
Only when the home network fails the hard QoS/capacity gate does the transfer
objective run: each feasible candidate is scored and the one minimizing

    w_u * |s_u - s_t|  -  w_op * (p_norm - cs_norm)

wins, i.e. the operator closest to the user's ideal score after crediting the
home operator's settlement margin.  The weights are the home operator's: it
owns the transfer decision.

Everything but the networks' occupancy is constant during a run, so an
``AdmissionTable`` compiles it once per replication; each decision then reads
only the live ``used_kbps`` and scores the candidates that pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, NamedTuple

from .model import (
    ClassRequirements,
    DemandTable,
    OperatorNetwork,
    QoSRequirements,
    ServiceKind,
    ServiceRequest,
)
from .scoring import candidate_score, user_score

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
    rate_kbps: float | None = None  # what the session takes on serving_op

    @property
    def served(self):
        return self.outcome is not Outcome.BLOCKED


# Every blocked request, at home or after a failed transfer, gets this one decision.
BLOCKED = AdmissionDecision(Outcome.BLOCKED)


def meets_bounds(net: OperatorNetwork, req: ClassRequirements | QoSRequirements) -> bool:
    """The static part of the gate: offered jitter, delay and BER within the class bounds."""
    return (net.jitter_ms <= req.jitter_req
            and net.delay_ms <= req.delay_req
            and net.ber <= req.ber_req)


def transfer_objective(home: OperatorNetwork, s_u: float, s_t: float,
                       p_norm: float, cs_norm: float) -> float:
    """Distance to the ideal score minus the home operator's settlement margin."""
    return home.w_u * abs(s_u - s_t) - home.w_op * (p_norm - cs_norm)


class Candidate(NamedTuple):
    """A cooperating operator as seen from one (home, service kind) route."""

    net: OperatorNetwork
    rate: float                # kb/s a session of the kind takes on this network
    in_bounds: bool            # passes meets_bounds, which no load changes
    req: QoSRequirements
    cs_norm: float             # settlement price over the table's sp_max


class Route(NamedTuple):
    """Admission constants of one (home operator, service kind) pair."""

    home: OperatorNetwork
    rate: float
    in_bounds: bool
    served: AdmissionDecision  # the shared SERVED_HOME decision
    candidates: tuple[Candidate, ...]  # every other operator, by id


class AdmissionTable:
    """Every per-run constant of admission, compiled once over a set of networks.

    Only ``used_kbps`` changes during a run.  The table holds the network
    objects themselves, so each decision reads their occupancy live; iterating
    the table yields the networks.
    """

    def __init__(self, networks: Iterable[OperatorNetwork], demand: DemandTable,
                 requirements: Mapping[ServiceKind, ClassRequirements]):
        self.networks = tuple(networks)
        self.sp_max = max(net.sp for net in self.networks)
        in_id_order = sorted(self.networks, key=lambda net: net.id)
        self.routes: dict[tuple[int, ServiceKind], Route] = {}
        for home in self.networks:
            for kind, bounds in requirements.items():
                candidates = []
                for cand in in_id_order:
                    if cand.id == home.id:
                        continue
                    rate = demand.rate(kind, cand.technology)
                    req = QoSRequirements(bw_req=rate, jitter_req=bounds.jitter_req,
                                          delay_req=bounds.delay_req, ber_req=bounds.ber_req)
                    candidates.append(Candidate(cand, rate, meets_bounds(cand, bounds), req,
                                                cand.cs / self.sp_max))
                rate = demand.rate(kind, home.technology)
                served = AdmissionDecision(Outcome.SERVED_HOME, serving_op=home.id,
                                           rate_kbps=rate)
                self.routes[home.id, kind] = Route(
                    home, rate, meets_bounds(home, bounds), served, tuple(candidates))

    def __iter__(self):
        return iter(self.networks)


def select_serving_operator(request: ServiceRequest, table: AdmissionTable
                            ) -> AdmissionDecision:
    """Pick the best cooperating operator (home excluded), or block if none is feasible."""
    service_class = request.service_class
    route = table.routes[request.home_op, service_class.kind]
    home = route.home
    prefs = request.prefs
    sp_max = table.sp_max

    best_id = None
    best_obj = best_rate = 0.0
    for cand, rate, in_bounds, req, cs_norm in route.candidates:
        if not (in_bounds and cand.remaining_kbps >= rate):
            continue
        if best_id is None:  # the first candidate to pass: score the user once
            s_u, _, p_norm = user_score(prefs, request.price_paid, sp_max)
        s_t, _, _ = candidate_score(cand, service_class, prefs, req, sp_max)
        obj = transfer_objective(home, s_u, s_t, p_norm, cs_norm)
        if best_id is None or obj < best_obj - TIE_EPS:
            best_id, best_obj, best_rate = cand.id, obj, rate

    if best_id is None:
        return BLOCKED
    return AdmissionDecision(Outcome.SERVED_TRANSFER, serving_op=best_id, rate_kbps=best_rate)


def admit(request: ServiceRequest, table: AdmissionTable,
          cooperation: bool) -> AdmissionDecision:
    """Home-first admission; never mutates network state, the engine applies the outcome."""
    route = table.routes[request.home_op, request.service_class.kind]
    home = route.home
    if route.in_bounds and home.remaining_kbps >= route.rate:
        return route.served
    if not cooperation:
        return BLOCKED
    return select_serving_operator(request, table)
