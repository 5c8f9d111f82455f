"""Ledger accrual, exchange direction, and the per-scope metrics behind every report."""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable, Mapping

from .model import (
    MetricsReport,
    OperatorLedger,
    OperatorNetwork,
    ReplicationResult,
    ServiceKind,
    Session,
    _FrozenRecord,
)


def session_volume_kbytes(session: Session, horizon_s: float) -> float:
    """Volume actually carried, truncated at the horizon: rate x duration / 8."""
    end = min(session.start_s + session.duration_s, horizon_s)
    return session.rate_kbps * max(end - session.start_s, 0.0) / 8.0


def accrue(session: Session | tuple, networks: Mapping[int, OperatorNetwork],
           ledgers: Mapping[int, OperatorLedger], horizon_s: float,
           billing: str = "volume") -> None:
    """Book one session that started before the horizon into the operator ledgers.

    ``session`` is a ``Session`` or a plain tuple in its field order, which is
    what the engine books: it is unpacked by position, so both book the same.
    Its volume is truncated at the horizon.  Home-served revenue goes to
    income_own.  A transferred session pays the home operator in full
    (income_transferred) while the serving operator's settlement price flows
    cost_paid -> income_guests.
    """
    request, serving, rate, start, duration = session
    if billing == "per_session":
        volume = 1.0
    else:
        # session_volume_kbytes inlined, its min as an if.  Its max is not needed: the
        # engine books only sessions that start before the horizon, and a duration is
        # never negative, so end >= start.
        end = start + duration
        if end > horizon_s:
            end = horizon_s
        volume = rate * (end - start) / 8.0
    p = request.price_paid
    home = request.home_op
    if serving == home:
        ledgers[home].income_own += p * volume
    else:
        cs = networks[serving].cs
        ledgers[home].income_transferred += p * volume
        ledgers[home].cost_paid += cs * volume
        ledgers[serving].income_guests += cs * volume


# --------------------------------------------------------------------------
# exchange direction

class ExchangeMatrix(_FrozenRecord):
    """Transferred-session counts by (home, serving, service kind), summed over replications."""

    op_ids: tuple[int, ...]
    counts: dict[tuple[int, int, ServiceKind], int]

    def count(self, from_op, to_op, kind):
        return self.counts.get((from_op, to_op, ServiceKind(kind)), 0)

    def row_total(self, from_op, kind):
        return sum(self.count(from_op, to_op, kind) for to_op in self.op_ids)

    def row_percentages(self, from_op, kind):
        """Share of each destination within one (home, kind) row; zeros when the row is empty."""
        total = self.row_total(from_op, kind)
        return {to_op: 100.0 * self.count(from_op, to_op, kind) / total if total else 0.0
                for to_op in self.op_ids if to_op != from_op}


def exchange_matrix(results: Iterable[ReplicationResult], op_ids) -> ExchangeMatrix:
    """Sum the exchange counts of replications whose operators are ``op_ids``."""
    counts: dict[tuple[int, int, ServiceKind], int] = {}
    for result in results:
        for key, n in result.exchange.items():
            counts[key] = counts.get(key, 0) + n
    return ExchangeMatrix(op_ids=tuple(op_ids), counts=counts)


# --------------------------------------------------------------------------
# per-scope metrics and their statistics

ScopeRow = namedtuple("ScopeRow", (
    "arrivals blocked blocking_probability served_home served_transferred "
    "income_own income_transferred income_guests cost_paid profit"))
ScopeRow.__doc__ = """The metrics.csv columns after ``scope``, for one scope.

The four counts are ints and the rest floats.  ``scope_rows`` fills it with
one replication's values, ``scope_stats`` with each metric's ``ScopeStats``
over the replications.
"""


def _row(arrivals, blocked, served_home, served_transferred, ledgers) -> ScopeRow:
    return ScopeRow(arrivals, blocked, blocked / arrivals if arrivals else 0.0,
                    served_home, served_transferred,
                    sum(ledger.income_own for ledger in ledgers),
                    sum(ledger.income_transferred for ledger in ledgers),
                    sum(ledger.income_guests for ledger in ledgers),
                    sum(ledger.cost_paid for ledger in ledgers),
                    sum(ledger.profit for ledger in ledgers))


def scope_rows(result: ReplicationResult, op_ids) -> dict[str, ScopeRow]:
    """One replication's metrics: the ``global`` row, then one ``op<id>`` row per operator.

    An operator's row counts its own clients (a block or a transfer belongs
    to the home operator) and holds its own ledger.  Each of its clients was
    blocked, served at home or transferred, so their sum is its arrivals.
    """
    ledgers = result.ledgers
    transferred = dict.fromkeys(op_ids, 0)
    for (home, _, _), n in result.exchange.items():
        transferred[home] += n
    rows = {"global": _row(result.arrivals, result.blocked, result.served_home,
                           result.served_transferred, tuple(ledgers.values()))}
    for op in op_ids:
        blocked, served_home = result.blocked_by_home[op], result.served_home_by_op[op]
        rows[f"op{op}"] = _row(blocked + served_home + transferred[op], blocked, served_home,
                               transferred[op], (ledgers[op],))
    return rows


class ScopeStats(_FrozenRecord):
    """Per-replication values of one metric plus mean / stddev / 95% interval."""

    values: tuple[float, ...]

    @property
    def mean(self):
        return sum(self.values) / len(self.values) if self.values else 0.0

    @property
    def stddev(self):
        if len(self.values) < 2:
            return 0.0
        m = self.mean
        return math.sqrt(sum((v - m) ** 2 for v in self.values) / len(self.values))

    @property
    def ci95_halfwidth(self):
        if len(self.values) < 2:
            return 0.0
        return 1.96 * self.stddev / math.sqrt(len(self.values))


def scope_stats(tables: Iterable[Mapping[str, ScopeRow]]) -> dict[str, ScopeRow]:
    """Per scope, a ``ScopeRow`` of ``ScopeStats``, from each replication's ``scope_rows``."""
    by_scope: dict[str, list[ScopeRow]] = {}
    for table in tables:
        for scope, row in table.items():
            by_scope.setdefault(scope, []).append(row)
    return {scope: ScopeRow._make(ScopeStats(values) for values in zip(*rows))
            for scope, rows in by_scope.items()}


def report_rows(report: MetricsReport) -> list[dict[str, ScopeRow]]:
    """Each replication's ``scope_rows``, in seed order."""
    op_ids = [net.id for net in report.scenario.operators]
    return [scope_rows(result, op_ids) for result in report.results]


class BlockingStats(_FrozenRecord):
    overall: ScopeStats
    per_operator: dict[int, ScopeStats]


def blocking_stats(report: MetricsReport) -> BlockingStats:
    """Blocking probability per scope; a block is attributed to the user's home operator."""
    stats = scope_stats(report_rows(report))
    return BlockingStats(overall=stats["global"].blocking_probability,
                         per_operator={net.id: stats[f"op{net.id}"].blocking_probability
                                       for net in report.scenario.operators})


def profit_stats(report: MetricsReport) -> dict[int, ScopeStats]:
    stats = scope_stats(report_rows(report))
    return {net.id: stats[f"op{net.id}"].profit for net in report.scenario.operators}


def arrivals_mean(report: MetricsReport):
    return scope_stats(report_rows(report))["global"].arrivals.mean
