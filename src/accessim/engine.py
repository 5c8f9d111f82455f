"""Event-driven simulation core.

Single replication = one pass over the Poisson arrivals in time order, with
the pending departures on a heap: exponential service times, admission via
the selection policy, capacity bookkeeping on the serving network and ledger
accrual at departure.  Each pass of the loop first handles every departure
due by the next arrival's time ``t``, so departures at an arrival's instant go
first, and then admits that arrival.  The first arrival at or past the horizon
is not admitted: one last pass with ``t = inf`` drains the heap.
A served session is the plain tuple ``(request, serving_op, rate_kbps,
start_s, duration_s)``, in ``model.Session``'s field order: ``Session`` is its
named form, and ``analytics.accrue`` books either one at the departure.
An experiment's replications share one ``AdmissionTable``; each resets its
networks' ``used_kbps`` first, so each depends on its seed alone.  Every
arrival counts as ``tally[decision.slot] += 1``, one entry per shared decision
of the table, blocked ones included, so the loop builds no key; the result's
``counts`` pairs the tally with the table's ``slot_keys``, zeros included.

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

A grid of several cells runs each seed once per cell, and common random
numbers give every cell the same draws for a seed; only the arrival rate
differs.  ``record_tape`` makes those draws once per seed, before the seed's
first replication: each gap's ``log(1.0 - u)``, each arrival's shared request
and each served session's service-time uniform, up to the horizon of the
grid's busiest cell.  ``run_replication(..., tape=tape)`` replays them: the
same ``generate_arrival`` then returns ``clock - log_gap / rate``, and the
service uniforms take the place of the live stream's ``random``.  Those are
the live draw's own operations on the same values, so a replayed replication
is bit-identical to a live one, and the arrival loop is the same code.
"""

from __future__ import annotations

import heapq
import random
from bisect import bisect_right
from itertools import accumulate, chain
from math import inf, log

from . import analytics
from .model import (
    MetricsReport,
    OperatorLedger,
    ReplicationResult,
    Scenario,
    ServiceRequest,
    _FrozenRecord,
    replace,
)
from .selection import AdmissionTable, admit


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
                     that is infinity from the last profile of positive
                     probability on
        requests     ``scenario.arrival_requests`` as they are
    """
    n = len(scenario.operators)
    mix = scenario.profile_mix
    cums = list(accumulate(p.probability for p in mix))
    # A draw above every cumulative probability, which rounding allows, takes the
    # last profile of positive probability, never a later one of probability 0.
    # Probabilities are non-negative, so cums stays sorted.
    last = max(i for i, p in enumerate(mix) if p.probability > 0)
    cums[last:] = [inf] * (len(cums) - last)
    return (streams.interarrival.random, 1.0 / scenario.mean_interarrival_s,
            streams.home_assignment.getrandbits, n, n.bit_length(), streams.profile.random,
            cums, scenario.arrival_requests)


def generate_arrival(clock, draws):
    """Draw the next arrival: its time and the shared request of its home and profile.

    ``draws`` is the replication's ``arrival_draws``.  Negation is exact, so
    ``clock - log(...)`` is ``clock + expovariate(rate)``.  The home is
    ``randrange(n)`` made from its own rejection loop on ``getrandbits(k)``,
    which consumes the stream exactly as ``randrange`` does; the profile is
    the first whose cumulative probability exceeds the draw.  Given a
    ``replay_draws`` tuple instead, it returns the tape's next arrival.
    """
    if draws[0] is None:
        _, rate, log_gap, request = draws
        return clock - log_gap() / rate, request()
    gap_uniform, rate, home_bits, n, k, uniform, cums, requests = draws
    t = clock - log(1.0 - gap_uniform()) / rate
    r = home_bits(k)
    while r >= n:
        r = home_bits(k)
    return t, requests[r][bisect_right(cums, uniform())]


class Tape(_FrozenRecord):
    """One seed's draws, recorded once to be replayed by every cell of a grid.

    log_gaps      each interarrival gap's ``log(1.0 - u)``, the last one the
                  first arrival at or past the horizon of the recording rate
    requests      each arrival's shared request, one per gap
    service_uniforms  each service time's uniform draw, one per arrival
                      before that horizon, in the order sessions are served
    """

    log_gaps: array
    requests: list[ServiceRequest]
    service_uniforms: array


def record_tape(scenario: Scenario, seed, fastest_mean_interarrival_s) -> Tape:
    """Draw seed ``seed``'s tape for the cells of ``scenario`` with this mean or more.

    Called before the seed's first replication, so a wrapped
    ``generate_arrival`` sees these calls outside every replication.  At rate
    1.0, ``0.0 - L / 1.0`` is exactly ``-L``, so ``generate_arrival`` itself
    yields each gap's log ``L``; the clock then advances as a replication at
    ``fastest_mean_interarrival_s`` would, and stops where that one stops.
    A slower cell reaches its horizon no later (``replay_draws``), so the
    tape holds every draw of every cell at that mean or a larger one.
    """
    from array import array  # loaded only by a grid that records tapes

    streams = RngStreams.from_seed(seed)
    gap_uniform, _, *rest = arrival_draws(scenario, streams)
    unit_rate = (gap_uniform, 1.0, *rest)
    rate = 1.0 / fastest_mean_interarrival_s
    horizon = scenario.duration_s
    log_gaps, requests = array("d"), []
    clock = 0.0
    while True:
        minus_log_gap, request = generate_arrival(0.0, unit_rate)
        log_gap = -minus_log_gap
        log_gaps.append(log_gap)
        requests.append(request)
        clock = clock - log_gap / rate
        if clock >= horizon:
            break
    service_uniform = streams.service_time.random
    service_uniforms = array("d", [service_uniform() for _ in requests[1:]])
    return Tape(log_gaps=log_gaps, requests=requests, service_uniforms=service_uniforms)


def _tape_ended():
    raise RuntimeError("the tape ended before the horizon: it was recorded for a slower "
                       "arrival rate or a shorter horizon than this replication's")


def _replayed(values):
    """``values`` one at a time; past the last, a ``RuntimeError``, not a short run."""
    return chain(values, iter(_tape_ended, None)).__next__


def replay_draws(scenario: Scenario, tape: Tape) -> tuple:
    """``generate_arrival``'s draws for a replay of ``tape`` at ``scenario``'s rate.

    ``(None, rate, next gap log, next request)``.  Its times are the live
    ones: the live draw computes ``clock - log(1.0 - u) / rate`` and the
    replay ``clock - log_gap / rate`` on the same ``log_gap``.  A larger
    ``rate`` rounds no gap longer and rounded addition is monotone, so the
    replication at the tape's recording rate arrives first at each index and
    uses the whole tape, and a slower one stops short of its end.
    """
    return (None, 1.0 / scenario.mean_interarrival_s, _replayed(tape.log_gaps),
            _replayed(tape.requests))


def admission_table(scenario: Scenario) -> AdmissionTable:
    """An ``AdmissionTable`` over copies of the scenario's networks, in its cooperation mode."""
    return AdmissionTable([replace(net) for net in scenario.operators],
                          scenario.demand, scenario.requirements, scenario.cooperation)


def run_replication(scenario: Scenario, seed, table: AdmissionTable | None = None,
                    tape: Tape | None = None) -> ReplicationResult:
    """Simulate one replication and return its slot counts and ledgers.

    ``table`` is the experiment's ``admission_table(scenario)``, or None to
    build one.  With a ``tape``, the seed's ``record_tape``, the replication
    replays its draws and seeds no streams; the result is the live one.  A
    served session is booked into the ledgers at its departure and then
    dropped; the result keeps no per-session record.

    The next arrival is held apart from the heap, which holds only departures,
    as ``(end_s, seq, session, serving network)``, the session being a plain
    tuple in ``Session``'s field order; ``seq`` is unique, so no comparison
    reaches the session.  Before the arrival at ``t`` is admitted, every
    departure with ``end_s <= t`` is handled, so capacity freed at ``t`` is
    there for an arrival at ``t``; departures that end together are handled in
    admission order (``seq``).

    Arrivals stop at the horizon.  Departures keep draining afterwards, in one
    last pass with ``t`` set to infinity, so the system always returns to its
    starting occupancy, but session volume is truncated at the horizon.  A
    network's scenario ``used_kbps`` is background load: it takes capacity for
    the whole run and is never released.

    Each arrival adds one to its decision's ``slot`` of a tally; the result's
    ``counts`` maps each of the table's ``slot_keys`` to its entry, zeros included.
    """
    if tape is None:
        streams = RngStreams.from_seed(seed)
        draws = arrival_draws(scenario, streams)
        service_uniform = streams.service_time.random
    else:
        # Recorded uniforms, not logs: the loop draws a duration with one
        # expression whichever its source, so live replications pay nothing for replay.
        draws = replay_draws(scenario, tape)
        service_uniform = _replayed(tape.service_uniforms)
    table = table if table is not None else admission_table(scenario)
    world = table.networks
    by_id = {net.id: net for net in world}
    # Assigned, not carried over: an earlier replication's sums may have drifted.
    for net, start in zip(world, scenario.operators):
        net.used_kbps = start.used_kbps
    # Occupancy sums round at the scale of the capacities, not of one kbit/s.
    tolerance = 1e-9 * max(net.capacity_kbps for net in world)
    horizon = scenario.duration_s
    billing = scenario.billing
    service_lambda = 1.0 / scenario.mean_service_s
    heappush, heappop = heapq.heappush, heapq.heappop

    # Arrivals per shared decision, by its slot.
    tally = [0] * len(table.slot_keys)
    ledgers = {net.id: OperatorLedger() for net in world}

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
            net.used_kbps -= session[2]  # rate_kbps
            if net.used_kbps < -tolerance:
                raise CapacityAccountingError(
                    f"operator {net.id} used_kbps went negative at t={end_s}")
            analytics.accrue(session, by_id, ledgers, horizon, billing)
        if t >= horizon:
            if t == inf:
                break
            t = inf  # no arrival is left: one more pass makes every departure due
            continue

        decision = admit(request, table)
        tally[decision.slot] += 1
        serving_op = decision.serving_op
        if serving_op is not None:
            serving = by_id[serving_op]
            rate = decision.rate_kbps
            serving.used_kbps += rate
            if serving.used_kbps > serving.capacity_kbps + tolerance:
                raise CapacityAccountingError(
                    f"operator {serving_op} exceeded capacity at t={t}")
            duration = -log(1.0 - service_uniform()) / service_lambda
            # A plain tuple in Session's field order: a tuple subclass costs ~170 ns
            # more to build, and accrue's unpack of one goes through the iterator protocol.
            session = (request, serving_op, rate, t, duration)
            heappush(heap, (t + duration, seq, session, serving))
            seq += 1
        t, request = generate_arrival(t, draws)

    for net, start in zip(world, scenario.operators):
        if abs(net.used_kbps - start.used_kbps) > tolerance:
            raise CapacityAccountingError(
                f"operator {net.id} did not drain to its background load "
                f"{start.used_kbps}: {net.used_kbps}")
    return ReplicationResult(seed=seed, counts=dict(zip(table.slot_keys, tally)),
                             ledgers=ledgers)


def replication_seeds(scenario: Scenario):
    return [scenario.base_seed + i for i in range(scenario.replications)]


def run_experiment(scenario: Scenario, tapes=None) -> MetricsReport:
    """Run every replication in seed order, all over one admission table.

    ``tapes``, if given, maps each seed to the ``Tape`` its replication replays.
    """
    table = admission_table(scenario)
    return MetricsReport(scenario=scenario, results=[
        run_replication(scenario, seed, table=table,
                        tape=None if tapes is None else tapes[seed])
        for seed in replication_seeds(scenario)])
