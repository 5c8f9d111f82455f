"""Admission policy: home first, then profit-aware transfer to a cooperating operator.

A feasible home operator always serves its own client without any scoring.
Only when the home network fails the hard QoS/capacity gate does the transfer
objective run.  A lone feasible candidate wins unscored; when two or more are
feasible, each is scored and the one minimizing

    w_u * |s_u - s_t|  -  w_op * (p_norm - cs_norm)

wins, i.e. the operator closest to the user's ideal score after crediting the
home operator's settlement margin.  The weights are the home operator's: it
owns the transfer decision.

The user's ideal score is what a candidate would get if it delivered exactly
what the application requires at the price the user already pays, so every
QoS requirement normalizes to 1 against itself.  A candidate's offer
normalizes against the same requirements: jitter, delay and BER saturate at 1
once they meet the bound, while spare bandwidth is left uncapped so that load
keeps discriminating between otherwise-equal networks.  Only a candidate that
meets every bound is ever scored, so its jitter, delay and BER terms are
exactly 1 and the score weighs them by their weights alone.  Prices normalize
by the highest access price among the networks.

Everything but the networks' occupancy is constant during a run, so an
``AdmissionTable`` compiles it once per experiment: which candidates meet
the bounds (none without cooperation), their normalized prices and every
decision; a home outside its bounds gets an infinite rate.  Its ``routes``
map a home operator's id to that home's ``Route`` per service kind, so
``admit`` finds one by two plain lookups and builds no key.  Each admission
then reads only the live ``used_kbps``, scores the candidates that have room
when at least two do, and returns a shared decision, so it allocates none.
Each shared decision holds a ``slot``, its index in the table's
``slot_keys``, which give the ``(home, serving, kind)`` it counts for
(``serving`` is None for a block): the engine tallies every arrival with one
list increment and derives its outcome counts from that tally after the run.
The table's ``Route`` and ``Candidate`` records and every
``AdmissionDecision``, like the engine's shared ``ServiceRequest``, are
read-only records.
The gates compute the spare capacity ``capacity_kbps - used_kbps`` inline; a
precomputed ``capacity - rate`` threshold could round the other way.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from enum import Enum
from math import inf

from .model import (
    ClassRequirements,
    DemandTable,
    OperatorNetwork,
    ServiceKind,
    ServiceRequest,
    _FrozenRecord,
)

# Objectives closer than this are treated as tied and broken by lowest operator id.
TIE_EPS = 1e-12


class Outcome(Enum):
    SERVED_HOME = "served_home"
    SERVED_TRANSFER = "served_transfer"
    BLOCKED = "blocked"


class AdmissionDecision(_FrozenRecord):
    """What admission decided: every decision is built with the table and shared."""

    outcome: Outcome
    serving_op: int | None = None
    rate_kbps: float | None = None  # what the session takes on serving_op
    slot: int | None = None  # index into the table's slot_keys; None unless the table built it


def meets_bounds(net: OperatorNetwork, req: ClassRequirements) -> bool:
    """The static part of the gate: offered jitter, delay and BER within the class bounds."""
    return (net.jitter_ms <= req.jitter_req
            and net.delay_ms <= req.delay_req
            and net.ber <= req.ber_req)


def transfer_objective(home: OperatorNetwork, s_u: float, s_t: float,
                       p_norm: float, cs_norm: float) -> float:
    """Distance to the ideal score minus the home operator's settlement margin."""
    return home.w_u * abs(s_u - s_t) - home.w_op * (p_norm - cs_norm)


class Candidate(_FrozenRecord):
    """A cooperating operator that meets the bounds of one (home, service kind) route."""

    __hash__ = None  # it holds a live network, so unhashable

    net: OperatorNetwork
    rate: float                 # kb/s a session of the kind takes on this network
    sp_norm: float              # access price over the table's sp_max
    cs_norm: float              # settlement price over the table's sp_max
    served: AdmissionDecision   # the shared SERVED_TRANSFER decision to this network


class Route(_FrozenRecord):
    """Admission constants of one (home operator, service kind) pair."""

    __hash__ = None  # it holds a live network, so unhashable

    home: OperatorNetwork
    rate: float                           # kb/s at home; inf when the home fails the bounds
    served: AdmissionDecision             # the shared SERVED_HOME decision
    blocked: AdmissionDecision            # the shared blocked decision
    candidates: tuple[Candidate, ...]     # every other operator that meets the bounds, by id


class AdmissionTable:
    """Every per-run constant of admission, compiled once over a set of networks.

    Only ``used_kbps`` changes during a run.  The table holds the network
    objects themselves, so each decision reads their occupancy live; iterating
    the table yields the networks.  ``routes[home_id][kind]`` is a home's
    ``Route`` for a service kind.  Every decision the table builds, a route's
    served and blocked ones and each candidate's, holds a distinct ``slot``
    numbered from 0 in operator id order, so the listing order of the networks
    changes no decision; ``slot_keys[slot]`` is the ``(home, serving, kind)``
    it counts for, ``serving`` None when blocked.  Without ``cooperation`` no
    route lists a candidate.  Raises
    ``ValueError`` when the price normalization or a candidate's bandwidth
    ratio would divide by zero.
    """

    def __init__(self, networks: Iterable[OperatorNetwork], demand: DemandTable,
                 requirements: Mapping[ServiceKind, ClassRequirements],
                 cooperation: bool = True):
        self.networks = tuple(networks)
        self.sp_max = max(net.sp for net in self.networks)
        if self.sp_max <= 0:
            raise ValueError("sp_max must be positive")
        in_id_order = sorted(self.networks, key=lambda net: net.id)
        self.routes: dict[int, dict[ServiceKind, Route]] = {}
        slot_keys = []
        for home in in_id_order:
            routes = self.routes[home.id] = {}
            for kind, bounds in requirements.items():
                candidates = []
                for cand in in_id_order if cooperation else ():
                    if cand.id == home.id or not meets_bounds(cand, bounds):
                        continue
                    rate = demand.rate(kind, cand.technology)
                    if rate == 0:
                        raise ValueError("a candidate's demand rate must be non-zero")
                    candidates.append(Candidate(
                        cand, rate, cand.sp / self.sp_max, cand.cs / self.sp_max,
                        AdmissionDecision(Outcome.SERVED_TRANSFER, serving_op=cand.id,
                                          rate_kbps=rate, slot=len(slot_keys))))
                    slot_keys.append((home.id, cand.id, kind))
                rate = demand.rate(kind, home.technology)
                served = AdmissionDecision(Outcome.SERVED_HOME, serving_op=home.id,
                                           rate_kbps=rate, slot=len(slot_keys))
                slot_keys.append((home.id, home.id, kind))
                blocked = AdmissionDecision(Outcome.BLOCKED, slot=len(slot_keys))
                slot_keys.append((home.id, None, kind))
                routes[kind] = Route(home, rate if meets_bounds(home, bounds) else inf,
                                     served, blocked, tuple(candidates))
        self.slot_keys: tuple[tuple[int, int | None, ServiceKind], ...] = tuple(slot_keys)

    def __iter__(self):
        return iter(self.networks)


def user_score(w_qos: float, w_price: float, price_paid: float, sp_max: float):
    """The user's ideal score and normalized price paid: returns (s_u, p_norm).

    Each required QoS parameter normalized against itself is 1, so the QoS
    part collapses to the weight sum, 1.
    """
    p_norm = price_paid / sp_max
    return w_qos * 1.0 + w_price * p_norm, p_norm


def candidate_score(cand: Candidate, qos_weights, w_qos: float, w_price: float) -> float:
    """Score s_t of one candidate for this user; only the bandwidth term reads the load.

    ``qos_weights`` are the service class's, in the order (bandwidth, jitter,
    delay, BER).  The candidate meets the class bounds, so its jitter, delay
    and BER ratios are 1 and each term is its bare weight.
    """
    w_bw, w_jitter, w_delay, w_ber = qos_weights
    net = cand.net
    s_tqos = (w_bw * ((net.capacity_kbps - net.used_kbps) / cand.rate)
              + w_jitter + w_delay + w_ber)
    return w_qos * s_tqos + w_price * cand.sp_norm


def select_serving_operator(request: ServiceRequest, table: AdmissionTable, route: Route
                            ) -> AdmissionDecision:
    """Pick the best cooperating operator (home excluded), or block if none has room.

    ``route`` is ``table.routes[request.home_op][request.service_class.kind]``,
    which the caller has already looked up.  A ranking decides something only
    between two candidates with room, so the first one with room becomes the
    incumbent unscored, and a lone one wins unscored.  Once a second has room,
    the user is scored once, then the incumbent, then the second and every
    later one with room; a blocked call tests capacity alone.
    """
    best = None
    best_obj = None  # None until a second candidate with room calls for scoring
    for cand in route.candidates:
        net = cand.net
        if net.capacity_kbps - net.used_kbps < cand.rate:
            continue
        if best is None:
            best = cand
            continue
        if best_obj is None:  # the second candidate with room: score the user and the first
            w_qos, w_price = request.w_qos, request.w_price
            qos_weights = request.service_class.qos_weights
            home = route.home
            s_u, p_norm = user_score(w_qos, w_price, request.price_paid, table.sp_max)
            s_t = candidate_score(best, qos_weights, w_qos, w_price)
            best_obj = transfer_objective(home, s_u, s_t, p_norm, best.cs_norm)
        s_t = candidate_score(cand, qos_weights, w_qos, w_price)
        obj = transfer_objective(home, s_u, s_t, p_norm, cand.cs_norm)
        if obj < best_obj - TIE_EPS:
            best, best_obj = cand, obj
    return route.blocked if best is None else best.served


def admit(request: ServiceRequest, table: AdmissionTable) -> AdmissionDecision:
    """Home-first admission; never mutates network state, the engine applies the outcome."""
    route = table.routes[request.home_op][request.service_class.kind]
    home = route.home
    if home.capacity_kbps - home.used_kbps >= route.rate:
        return route.served
    if not route.candidates:
        return route.blocked
    return select_serving_operator(request, table, route)
