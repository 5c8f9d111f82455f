"""Event-driven simulation core.

Single replication = one pass over the Poisson arrivals in time order, with
the pending departures on a heap: exponential service times, admission via
the selection policy, capacity bookkeeping on the serving network and ledger
accrual at departure.  Each pass of the loop first handles every departure
due by the next arrival's time ``t``, so departures at an arrival's instant go
first, and then admits that arrival.  The first arrival at or past the horizon
is not admitted: one last pass with ``t = inf`` drains the heap.
An experiment's replications share one ``AdmissionTable``; each resets its
networks' ``used_kbps`` first, so each depends on its seed alone.

Everything an arrival draws from is bound once per replication by
``arrival_draws``, and ``generate_arrival(clock, draws)`` makes three draws
per arrival, one from each of three streams: the gap to it
(``interarrival``), its home operator (``getrandbits`` on
``home_assignment``, by ``randrange``'s own rejection loop) and its profile
(one ``profile.random()`` looked up in the cumulative mix).  It returns the
arrival's time and one of the scenario's ``arrival_requests``, shared by
every arrival of that home and profile, so it builds no request.  Each served
arrival then draws its service time from ``service_time``.  Both exponential
draws inline ``Random.expovariate``'s body, ``-log(1.0 - random()) / rate``.
"""

from __future__ import annotations

import heapq
import random
from bisect import bisect_right
from itertools import accumulate
from math import inf, log

from . import analytics
from .model import (
    MetricsReport,
    OperatorLedger,
    ReplicationResult,
    Scenario,
    Session,
    _FrozenRecord,
    replace,
)
from .selection import BLOCKED, AdmissionTable, Outcome, admit


class CapacityAccountingError(RuntimeError):
    """Occupancy went negative, past capacity or off its background load: an engine bug."""


class RngStreams(_FrozenRecord):
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


def arrival_draws(scenario: Scenario, streams: RngStreams) -> tuple:
    """What every arrival of one replication draws from, bound once per replication.

    A plain tuple, which ``generate_arrival`` unpacks in one specialized step:

        gap_uniform  the interarrival stream's ``random``
        rate         1 / mean interarrival time
        home_bits    the home-assignment stream's ``getrandbits``
        n            number of operators
        k            ``n.bit_length()``, as ``randrange(n)`` uses
        uniform      the profile stream's ``random``
        cums         cumulative profile probabilities in mix order, a list
                     whose last entry is infinity
        requests     ``scenario.arrival_requests`` as they are
    """
    n = len(scenario.operators)
    cums = list(accumulate(p.probability for p in scenario.profile_mix))
    # A draw above every cumulative probability, which rounding allows, takes
    # the last profile.  Probabilities are non-negative, so cums stays sorted.
    cums[-1] = inf
    return (streams.interarrival.random, 1.0 / scenario.mean_interarrival_s,
            streams.home_assignment.getrandbits, n, n.bit_length(), streams.profile.random,
            cums, scenario.arrival_requests)


def generate_arrival(clock, draws):
    """Draw the next arrival: its time and the shared request of its home and profile.

    ``draws`` is the replication's ``arrival_draws``.  Negation is exact, so
    ``clock - log(...)`` is ``clock + expovariate(rate)``.  The home is
    ``randrange(n)`` made from its own rejection loop on ``getrandbits(k)``,
    which consumes the stream exactly as ``randrange`` does; the profile is
    the first whose cumulative probability exceeds the draw.
    """
    gap_uniform, rate, home_bits, n, k, uniform, cums, requests = draws
    t = clock - log(1.0 - gap_uniform()) / rate
    r = home_bits(k)
    while r >= n:
        r = home_bits(k)
    return t, requests[r][bisect_right(cums, uniform())]


def admission_table(scenario: Scenario) -> AdmissionTable:
    """An ``AdmissionTable`` over working copies of the scenario's networks."""
    return AdmissionTable([replace(net) for net in scenario.operators],
                          scenario.demand, scenario.requirements)


def run_replication(scenario: Scenario, seed, streams: RngStreams | None = None,
                    table: AdmissionTable | None = None) -> ReplicationResult:
    """Simulate one replication and return its raw counts, exchange and ledgers.

    ``table`` is the experiment's ``admission_table(scenario)``, or None to
    build one.  A served session is booked into the ledgers at its departure
    and then dropped; the result keeps no per-session record.

    The next arrival is held apart from the heap, which holds only departures,
    as ``(end_s, seq, session, serving network)``; ``seq`` is unique, so no
    comparison reaches the session.  Before the arrival at ``t`` is admitted,
    every departure with ``end_s <= t`` is handled, so capacity freed at ``t``
    is there for an arrival at ``t``; departures that end together are handled
    in admission order (``seq``).

    Arrivals stop at the horizon.  Departures keep draining afterwards, in one
    last pass with ``t`` set to infinity, so the system always returns to its
    starting occupancy, but session volume is truncated at the horizon.  A
    network's scenario ``used_kbps`` is background load: it takes capacity for
    the whole run and is never released.
    """
    streams = streams if streams is not None else RngStreams.from_seed(seed)
    table = table if table is not None else admission_table(scenario)
    world = table.networks
    by_id = {net.id: net for net in world}
    # Assigned, not carried over: an earlier replication's sums may have drifted.
    for net, start in zip(world, scenario.operators):
        net.used_kbps = start.used_kbps
    # Occupancy sums round at the scale of the capacities, not of one kbit/s.
    tolerance = 1e-9 * max(net.capacity_kbps for net in world)
    draws = arrival_draws(scenario, streams)
    horizon = scenario.duration_s
    cooperation = scenario.cooperation
    billing = scenario.billing
    service_uniform = streams.service_time.random
    service_lambda = 1.0 / scenario.mean_service_s
    heappush, heappop = heapq.heappush, heapq.heappop
    # Every blocked decision is the one shared BLOCKED.
    served_home, blocked = Outcome.SERVED_HOME, BLOCKED

    op_ids = [net.id for net in world]
    blocked_by_home = {i: 0 for i in op_ids}
    served_home_by_op = {i: 0 for i in op_ids}
    exchange = {}
    ledgers = {i: OperatorLedger() for i in op_ids}

    heap = []
    seq = 0
    t, request = generate_arrival(0.0, draws)
    # `while True`, not `while t < horizon`: CPython 3.11 specializes a function's
    # bytecode once a warm-up counter runs out, and only calls and an unconditional
    # jump back advance it.  A conditional loop ends in POP_JUMP_BACKWARD_IF_TRUE,
    # which does not, so a replication entered once (one long horizon) would run
    # its whole loop unspecialized.
    while True:
        while heap and heap[0][0] <= t:
            end_s, _, session, net = heappop(heap)
            net.used_kbps -= session.rate_kbps
            if net.used_kbps < -tolerance:
                raise CapacityAccountingError(
                    f"operator {net.id} used_kbps went negative at t={end_s}")
            analytics.accrue(session, by_id, ledgers, horizon, billing)
        if t >= horizon:
            if t == inf:
                break
            t = inf  # no arrival is left: one more pass makes every departure due
            continue

        decision = admit(request, table, cooperation)
        if decision is blocked:
            blocked_by_home[request.home_op] += 1
        else:
            serving_op = decision.serving_op
            serving = by_id[serving_op]
            rate = decision.rate_kbps
            serving.used_kbps += rate
            if serving.used_kbps > serving.capacity_kbps + tolerance:
                raise CapacityAccountingError(
                    f"operator {serving_op} exceeded capacity at t={t}")
            duration = -log(1.0 - service_uniform()) / service_lambda
            # Positional: what namedtuple._make does, less its length check.
            session = tuple.__new__(Session, (request, serving_op, rate, t, duration))
            heappush(heap, (t + duration, seq, session, serving))
            seq += 1
            if decision.outcome is served_home:
                served_home_by_op[serving_op] += 1
            else:
                key = (request.home_op, serving_op, request.service_class.kind)
                exchange[key] = exchange.get(key, 0) + 1
        t, request = generate_arrival(t, draws)

    for net, start in zip(world, scenario.operators):
        if abs(net.used_kbps - start.used_kbps) > tolerance:
            raise CapacityAccountingError(
                f"operator {net.id} did not drain to its background load "
                f"{start.used_kbps}: {net.used_kbps}")
    return ReplicationResult(
        seed=seed, blocked_by_home=blocked_by_home, served_home_by_op=served_home_by_op,
        exchange=exchange, ledgers=ledgers)


def replication_seeds(scenario: Scenario):
    return [scenario.base_seed + i for i in range(scenario.replications)]


def run_experiment(scenario: Scenario) -> MetricsReport:
    """Run every replication in seed order, all over one admission table."""
    table = admission_table(scenario)
    return MetricsReport(scenario=scenario, results=[
        run_replication(scenario, seed, table=table) for seed in replication_seeds(scenario)])
