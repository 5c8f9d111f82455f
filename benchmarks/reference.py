"""Fixed reference work that measures how fast the host runs Python right now.

The benchmark runs on a few cores of a shared host whose speed swings by up
to 2x, in spells that last minutes; process CPU time swings with wall time,
so it cannot tell the two apart.  Every repeat (`child.py`) times this
work, which never changes, right after its command and in the same process,
and `run.py` scales the repeat's times by `REFERENCE_S / reference time`:
the end-to-end times are then seconds on a host where the reference takes
`REFERENCE_S`.  A change to accessim moves the repeat's time but not the
reference's, so it still shows in full.

The work mixes what accessim's hot path does: a heap-ordered event loop
over dataclass records with exponential draws, dict lookups and ledger
accrual, then a tight heap/dict loop.  It imports nothing from accessim.
"""

from __future__ import annotations

import gc
import heapq
import random
import time
from dataclasses import dataclass

# Seconds the reference takes on an unloaded host (Intel Xeon, Python 3.11).
REFERENCE_S = 0.40

EVENT_LOOP_ARRIVALS = 30_000
HEAP_LOOP_STEPS = 200_000
KINDS = ("voice", "video", "data")
RATES = {(kind, net): rate for net, rates in enumerate(((12.0, 384.0, 64.0),
                                                        (16.0, 512.0, 96.0),
                                                        (12.0, 256.0, 128.0)))
         for kind, rate in zip(KINDS, rates)}


@dataclass
class _Net:
    id: int
    capacity: float
    used: float = 0.0


@dataclass
class _Ledger:
    income: float = 0.0
    cost: float = 0.0


@dataclass(frozen=True)
class _Request:
    user: int
    home: int
    kind: str
    price: float


@dataclass
class _Session:
    request: _Request
    serving: int
    rate: float
    start: float
    duration: float


def event_loop(arrivals: int) -> tuple[int, int]:
    """A three-network loss system; returns (blocked, served)."""
    gaps, holds, draws = (random.Random(f"reference/{name}") for name in "ghd")
    nets = [_Net(i, 300.0 + 150.0 * i) for i in range(3)]
    ledgers = {net.id: _Ledger() for net in nets}
    heap, seq, blocked, served = [(gaps.expovariate(1.0), 1, 0, None)], 1, 0, 0
    made = 1
    while heap:
        t, kind, _, session = heapq.heappop(heap)
        if kind == 0:
            nets[session.serving].used -= session.rate
            ledgers[session.serving].income += session.rate * session.duration * 1e-3
            ledgers[session.request.home].cost += session.request.price * session.duration
            continue
        if made < arrivals:
            heapq.heappush(heap, (t + gaps.expovariate(1.0), 1, seq, None))
            seq += 1
            made += 1
        home = draws.randrange(3)
        request = _Request(made, home, KINDS[int(draws.random() * 3)], 0.01 * (home + 1))
        for net in sorted(nets, key=lambda n: (n.id != home, n.used / n.capacity)):
            rate = RATES[(request.kind, net.id)]
            if net.used + rate <= net.capacity:
                break
        else:
            blocked += 1
            continue
        net.used += rate
        session = _Session(request, net.id, rate, t, holds.expovariate(1 / 6.0))
        served += 1
        heapq.heappush(heap, (t + session.duration, 0, seq, session))
        seq += 1
    return blocked, served


def heap_loop(steps: int) -> float:
    draws = random.Random("reference/heap")
    heap, totals, popped = [], {}, 0.0
    for i in range(steps):
        x = draws.random()
        heapq.heappush(heap, (x, i))
        totals[i % 97] = totals.get(i % 97, 0.0) + x * 1.5
        if len(heap) > 64:
            popped += heapq.heappop(heap)[0]
    return popped


def time_reference() -> float:
    """Seconds the reference work takes now.

    The collector is off while it runs: the work makes no cycles, and a full
    collection would walk the caller's heap, so the time would depend on how
    much memory accessim still holds.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        event_loop(EVENT_LOOP_ARRIVALS)
        heap_loop(HEAP_LOOP_STEPS)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
