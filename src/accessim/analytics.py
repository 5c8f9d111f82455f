"""Ledger accrual, blocking and profit statistics, and exchange direction."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

from .model import (
    MetricsReport,
    OperatorLedger,
    OperatorNetwork,
    ReplicationResult,
    ServiceKind,
    Session,
)


def session_volume_kbytes(session: Session, horizon_s: float) -> float:
    """Volume actually carried, truncated at the horizon: rate x duration / 8."""
    end = min(session.start_s + session.duration_s, horizon_s)
    return session.rate_kbps * max(end - session.start_s, 0.0) / 8.0


def accrue(session: Session, networks: Mapping[int, OperatorNetwork],
           ledgers: Mapping[int, OperatorLedger], horizon_s: float,
           billing: str = "volume") -> None:
    """Book one finished (or horizon-truncated) session into the operator ledgers.

    Home-served revenue goes to income_own.  A transferred session pays the
    home operator in full (income_transferred) while the serving operator's
    settlement price flows cost_paid -> income_guests.
    """
    if billing == "per_session":
        volume = 1.0
    else:
        volume = session_volume_kbytes(session, horizon_s)
    p = session.request.price_paid
    home = session.request.home_op
    serving = session.serving_op
    if serving == home:
        ledgers[home].income_own += p * volume
    else:
        cs = networks[serving].cs
        ledgers[home].income_transferred += p * volume
        ledgers[home].cost_paid += cs * volume
        ledgers[serving].income_guests += cs * volume


# --------------------------------------------------------------------------
# exchange direction

@dataclass
class ExchangeMatrix:
    """Transferred-session counts by (home, serving, service kind), summed over replications."""

    op_ids: tuple[int, ...]
    counts: dict[tuple[int, int, ServiceKind], int]

    def count(self, from_op, to_op, kind):
        return self.counts.get((from_op, to_op, ServiceKind(kind)), 0)

    def row_total(self, from_op, kind):
        kind = ServiceKind(kind)
        return sum(n for (f, _, k), n in self.counts.items() if f == from_op and k == kind)

    def row_percentages(self, from_op, kind):
        """Share of each destination within one (home, kind) row; zeros when the row is empty."""
        total = self.row_total(from_op, kind)
        out = {}
        for to_op in self.op_ids:
            if to_op == from_op:
                continue
            n = self.count(from_op, to_op, kind)
            out[to_op] = 100.0 * n / total if total else 0.0
        return out


def exchange_matrix(results: Iterable[ReplicationResult], op_ids) -> ExchangeMatrix:
    """Sum the exchange counts of replications whose operators are ``op_ids``."""
    counts: dict[tuple[int, int, ServiceKind], int] = {}
    for result in results:
        for key, n in result.exchange.items():
            counts[key] = counts.get(key, 0) + n
    return ExchangeMatrix(op_ids=tuple(op_ids), counts=counts)


# --------------------------------------------------------------------------
# blocking statistics

@dataclass
class ScopeStats:
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


@dataclass
class BlockingStats:
    overall: ScopeStats
    per_operator: dict[int, ScopeStats]


def blocking_stats(report: MetricsReport) -> BlockingStats:
    """Blocking probability per scope; a block is attributed to the user's home operator."""
    overall = ScopeStats(tuple(r.blocking_probability for r in report.results))
    per_op = {}
    for net in report.scenario.operators:
        values = []
        for r in report.results:
            arrivals = r.arrivals_by_home.get(net.id, 0)
            blocked = r.blocked_by_home.get(net.id, 0)
            values.append(blocked / arrivals if arrivals else 0.0)
        per_op[net.id] = ScopeStats(tuple(values))
    return BlockingStats(overall=overall, per_operator=per_op)


def profit_stats(report: MetricsReport) -> dict[int, ScopeStats]:
    return {
        net.id: ScopeStats(tuple(r.ledgers[net.id].profit for r in report.results))
        for net in report.scenario.operators
    }


def arrivals_mean(report: MetricsReport):
    return sum(r.arrivals for r in report.results) / len(report.results)

