"""Brute-force re-implementation of the admission rules, used as a test oracle.

Everything here is recomputed from the model types alone, without touching
the package's scoring or selection code, so agreement between the two
implementations means both encode the same rules rather than one calling
the other.  ``oracle_arrivals`` keeps the plain arrival generator the
engine's compiled one must reproduce draw for draw.
"""

import math
import random

from accessim.engine import RngStreams
from accessim.model import (
    ClassRequirements,
    DemandTable,
    OperatorNetwork,
    ServiceClass,
    ServiceKind,
    ServiceRequest,
    Technology,
)


def oracle_fits(net, request, demand, requirements):
    """Whether ``net`` passes the hard gate for ``request``: the bounds and spare capacity."""
    kind = request.service_class.kind
    bounds = requirements[kind]
    return (net.jitter_ms <= bounds.jitter_req
            and net.delay_ms <= bounds.delay_req
            and net.ber <= bounds.ber_req
            and net.capacity_kbps - net.used_kbps >= demand.rate(kind, net.technology))


def oracle_candidates(request, networks, demand, requirements):
    """The networks other than the home that pass the gate: a transfer's candidates with room."""
    return [net for net in networks if net.id != request.home_op
            and oracle_fits(net, request, demand, requirements)]


def oracle_admit(request, networks, demand, requirements, cooperation):
    """Return (outcome_name, serving_op_or_None) by exhaustive evaluation."""
    home = next(n for n in networks if n.id == request.home_op)
    kind = request.service_class.kind
    bounds = requirements[kind]

    def rate_on(net):
        return demand.rate(kind, net.technology)

    if oracle_fits(home, request, demand, requirements):
        return "served_home", home.id
    if not cooperation:
        return "blocked", None

    sp_max = max(n.sp for n in networks)
    p_norm = request.price_paid / sp_max
    s_u = request.w_qos * 1.0 + request.w_price * p_norm

    scored = []
    for net in oracle_candidates(request, networks, demand, requirements):
        w_bw, w_jitter, w_delay, w_ber = request.service_class.qos_weights
        s_tqos = (w_bw * ((net.capacity_kbps - net.used_kbps) / rate_on(net))
                  + w_jitter * min(bounds.jitter_req / net.jitter_ms, 1.0)
                  + w_delay * min(bounds.delay_req / net.delay_ms, 1.0)
                  + w_ber * min(bounds.ber_req / net.ber, 1.0))
        s_t = request.w_qos * s_tqos + request.w_price * (net.sp / sp_max)
        objective = (home.w_u * abs(s_u - s_t)
                     - home.w_op * (p_norm - net.cs / sp_max))
        scored.append((objective, net.id))
    if not scored:
        return "blocked", None
    _, winner = min(scored)
    return "served_transfer", winner


def random_instance(rng: random.Random):
    """One randomized admission problem: (request, networks, demand, requirements).

    All continuous parameters are drawn from continuous distributions so exact
    objective ties (other than duplicated operators) have probability zero.
    """
    n_ops = rng.randint(2, 4)
    networks = []
    for op_id in range(1, n_ops + 1):
        capacity = rng.uniform(100.0, 20000.0)
        networks.append(OperatorNetwork(
            id=op_id,
            name=f"Op{op_id}",
            technology=rng.choice((Technology.UMTS, Technology.WLAN)),
            capacity_kbps=capacity,
            used_kbps=rng.uniform(0.0, capacity),
            jitter_ms=rng.uniform(1.0, 30.0),
            delay_ms=rng.uniform(5.0, 200.0),
            ber=10.0 ** rng.uniform(-7.0, -2.0),
            sp=rng.uniform(0.05, 1.0),
            cs=rng.uniform(0.05, 1.0),
            w_u=rng.uniform(0.2, 3.0),
            w_op=rng.uniform(0.2, 3.0),
        ))

    demand = DemandTable({
        kind: {tech: rng.uniform(32.0, 2048.0) for tech in Technology}
        for kind in ServiceKind
    })
    requirements = {
        kind: ClassRequirements(
            jitter_req=rng.uniform(2.0, 25.0),
            delay_req=rng.uniform(10.0, 250.0),
            ber_req=10.0 ** rng.uniform(-6.0, -2.0),
        )
        for kind in ServiceKind
    }

    raw = [rng.uniform(0.05, 1.0) for _ in range(4)]
    total = sum(raw)
    kind = rng.choice((ServiceKind.CONVERSATIONAL, ServiceKind.INTERACTIVE))
    w_qos = rng.uniform(0.05, 0.95)
    home = rng.choice(networks)
    request = ServiceRequest(
        home_op=home.id,
        service_class=ServiceClass(kind=kind,
                                   qos_weights=tuple(w / total for w in raw)),
        w_qos=w_qos,
        w_price=1.0 - w_qos,
        price_paid=home.sp,
    )
    return request, networks, demand, requirements


def oracle_arrivals(scenario, seed, count):
    """The first ``count`` arrivals of ``seed`` as ``[(time, ServiceRequest)]``.

    Per arrival: ``expovariate`` on the interarrival stream, ``randrange`` on
    the home-assignment stream, and one uniform on the profile stream matched
    by a linear scan for the first cumulative probability above it (the last
    profile of positive probability when rounding leaves the draw above all).
    """
    streams = RngStreams.from_seed(seed)
    mix = scenario.profile_mix
    last = max(i for i, profile in enumerate(mix) if profile.probability > 0)
    cumulative = []
    acc = 0.0
    for i, profile in enumerate(mix):
        acc += profile.probability
        cumulative.append((math.inf if i >= last else acc,
                           scenario.service_class(profile.service), profile))
    arrivals = []
    clock = 0.0
    for _ in range(count):
        gap = streams.interarrival.expovariate(1.0 / scenario.mean_interarrival_s)
        home = scenario.operators[streams.home_assignment.randrange(len(scenario.operators))]
        u = streams.profile.random()
        for bound, service_class, profile in cumulative:
            if u < bound:
                break
        clock = clock + gap
        arrivals.append((clock, ServiceRequest(home.id, service_class, profile.w_qos,
                                               profile.w_price, home.sp)))
    return arrivals
