"""Event-driven simulation core.

Single replication = one pass over a heap-ordered event queue: Poisson
arrivals, exponential service times, admission via the selection policy,
capacity bookkeeping on the serving network and ledger accrual at departure.
Replications differ only by seed and are safe to run in parallel.
"""

from __future__ import annotations

import heapq
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

from . import analytics
from .model import (
    MetricsReport,
    OperatorLedger,
    ReplicationResult,
    Scenario,
    ServiceRequest,
    Session,
)
from .selection import AdmissionTable, Outcome, admit

# Heap tie-break: departures before arrivals at the same instant, so capacity
# freed at t is available to an arrival at t.
DEPARTURE = 0
ARRIVAL = 1


class CapacityAccountingError(RuntimeError):
    """Occupancy went negative, past capacity or off its background load: an engine bug."""


@dataclass
class RngStreams:
    """Independent substreams so that policy toggles never perturb the traffic draws."""

    interarrival: random.Random
    service_time: random.Random
    profile: random.Random
    home_assignment: random.Random

    @classmethod
    def from_seed(cls, seed):
        # String seeding hashes via sha512, stable across processes and platforms.
        return cls(
            interarrival=random.Random(f"{seed}/interarrival"),
            service_time=random.Random(f"{seed}/service_time"),
            profile=random.Random(f"{seed}/profile"),
            home_assignment=random.Random(f"{seed}/home_assignment"),
        )


def generate_arrival(clock, scenario: Scenario, streams: RngStreams, user_id):
    """Draw the next arrival: its time, home operator, profile and contracted price."""
    gap = streams.interarrival.expovariate(1.0 / scenario.mean_interarrival_s)
    home = scenario.operators[streams.home_assignment.randrange(len(scenario.operators))]
    u = streams.profile.random()
    # Without a break the loop leaves the last profile bound: the rounding fallback.
    for cumulative, service_class, prefs in scenario.arrival_profiles:
        if u < cumulative:
            break
    request = ServiceRequest(
        user_id=user_id,
        home_op=home.id,
        service_class=service_class,
        prefs=prefs,
        price_paid=home.sp,
    )
    return clock + gap, request


def run_replication(scenario: Scenario, seed, streams: RngStreams | None = None
                    ) -> ReplicationResult:
    """Simulate one replication and return its raw counts, exchange and ledgers.

    Arrivals stop at the horizon; departures keep draining afterwards so the
    system always returns to its starting occupancy, but session volume is
    truncated at the horizon.  A network's scenario ``used_kbps`` is background
    load: it takes capacity for the whole run and is never released.
    """
    streams = streams if streams is not None else RngStreams.from_seed(seed)
    world = [replace(net) for net in scenario.operators]
    by_id = {net.id: net for net in world}
    table = AdmissionTable(world, scenario.demand, scenario.requirements)
    horizon = scenario.duration_s

    op_ids = [net.id for net in world]
    result = ReplicationResult(
        seed=seed, arrivals=0, blocked=0, served_home=0, served_transferred=0,
        arrivals_by_home={i: 0 for i in op_ids},
        blocked_by_home={i: 0 for i in op_ids},
        served_home_by_op={i: 0 for i in op_ids},
        transferred_by_home={i: 0 for i in op_ids},
        exchange={}, ledgers={i: OperatorLedger() for i in op_ids},
        sessions=[], interarrival_sum=0.0,
    )

    heap = []
    seq = 0
    next_user = 1
    clock = 0.0
    t, request = generate_arrival(clock, scenario, streams, next_user)
    if t < horizon:
        heapq.heappush(heap, (t, ARRIVAL, seq, request))
        result.interarrival_sum += t - clock
        seq += 1

    while heap:
        t, kind, _, payload = heapq.heappop(heap)
        if kind == DEPARTURE:
            session: Session = payload
            net = by_id[session.serving_op]
            net.used_kbps -= session.rate_kbps
            if net.used_kbps < -1e-9:
                raise CapacityAccountingError(
                    f"operator {net.id} used_kbps went negative at t={t}")
            analytics.accrue(session, by_id, result.ledgers, horizon, scenario.billing)
            continue

        request = payload
        result.arrivals += 1
        result.arrivals_by_home[request.home_op] += 1

        next_user += 1
        nt, nreq = generate_arrival(t, scenario, streams, next_user)
        if nt < horizon:
            heapq.heappush(heap, (nt, ARRIVAL, seq, nreq))
            result.interarrival_sum += nt - t
            seq += 1

        decision = admit(request, table, scenario.cooperation)
        if not decision.served:
            result.blocked += 1
            result.blocked_by_home[request.home_op] += 1
            continue

        serving = by_id[decision.serving_op]
        rate = decision.rate_kbps
        serving.used_kbps += rate
        if serving.used_kbps > serving.capacity_kbps + 1e-9:
            raise CapacityAccountingError(
                f"operator {serving.id} exceeded capacity at t={t}")
        duration = streams.service_time.expovariate(1.0 / scenario.mean_service_s)
        session = Session(request=request, serving_op=serving.id, rate_kbps=rate,
                          start_s=t, duration_s=duration)
        result.sessions.append(session)
        heapq.heappush(heap, (t + duration, DEPARTURE, seq, session))
        seq += 1

        if decision.outcome is Outcome.SERVED_HOME:
            result.served_home += 1
            result.served_home_by_op[serving.id] += 1
        else:
            result.served_transferred += 1
            result.transferred_by_home[request.home_op] += 1
            key = (request.home_op, serving.id, request.service_class.kind)
            result.exchange[key] = result.exchange.get(key, 0) + 1

    for net, start in zip(world, scenario.operators):
        if abs(net.used_kbps - start.used_kbps) > 1e-9:
            raise CapacityAccountingError(
                f"operator {net.id} did not drain to its background load "
                f"{start.used_kbps}: {net.used_kbps}")
    return result


def replication_seeds(scenario: Scenario):
    return [scenario.base_seed + i for i in range(scenario.replications)]


def run_experiment(scenario: Scenario, workers: int = 1) -> MetricsReport:
    """Run all replications (optionally in parallel); output is independent of scheduling."""
    seeds = replication_seeds(scenario)
    if workers > 1 and len(seeds) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_replication, [scenario] * len(seeds), seeds))
    else:
        results = [run_replication(scenario, seed) for seed in seeds]
    return MetricsReport(scenario=scenario, results=results)
