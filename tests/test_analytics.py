import math
import random
from pathlib import Path
from types import SimpleNamespace

import pytest

from accessim import run_grid
from accessim.analytics import (
    ExchangeMatrix,
    ScopeStats,
    accrue,
    arrivals_mean,
    blocking_stats,
    exchange_matrix,
    profit_stats,
    scope_rows,
    session_volume_kbytes,
)
from accessim.engine import run_experiment
from accessim.model import (
    DemandTable,
    MetricsReport,
    OperatorLedger,
    OperatorNetwork,
    ReplicationResult,
    Scenario,
    ServiceKind,
    ServiceRequest,
    Session,
    Technology,
    TrafficProfile,
    default_scenario,
    ensure_valid,
    fields,
    load_scenario,
    replace,
)

from session_log import run_logged

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
CONV = ServiceKind.CONVERSATIONAL
INT = ServiceKind.INTERACTIVE


def _networks():
    return {net.id: net for net in default_scenario().operators}


def _session(home, serving, rate=8.0, start=0.0, duration=100.0, price=0.9):
    scenario = default_scenario()
    request = ServiceRequest(home_op=home, service_class=scenario.service_class(CONV),
                             w_qos=0.7, w_price=0.3, price_paid=price)
    return Session(request=request, serving_op=serving, rate_kbps=rate,
                   start_s=start, duration_s=duration)


def _ledgers():
    return {i: OperatorLedger() for i in (1, 2, 3)}


def test_volume_is_rate_times_duration_in_kbytes():
    assert session_volume_kbytes(_session(1, 1), horizon_s=1200.0) == pytest.approx(100.0)


def test_volume_truncates_at_horizon():
    session = _session(1, 1, start=1150.0, duration=100.0)
    assert session_volume_kbytes(session, horizon_s=1200.0) == pytest.approx(50.0)
    beyond = _session(1, 1, start=1200.0, duration=100.0)
    assert session_volume_kbytes(beyond, horizon_s=1200.0) == 0.0


@pytest.mark.parametrize("billing", ["volume", "per_session"])
@pytest.mark.parametrize("start, duration", [
    (10.3, 97.1),      # ends before the horizon
    (1150.7, 123.9),   # straddles the horizon
    (500.2, 0.0),      # zero length
])
@pytest.mark.parametrize("serving", [1, 3])
def test_booked_volume_is_price_times_session_volume(billing, start, duration, serving):
    session = _session(1, serving, rate=256.0, start=start, duration=duration, price=0.37)
    networks = _networks()
    ledgers = _ledgers()
    accrue(session, networks, ledgers, horizon_s=1200.0, billing=billing)
    volume = 1.0 if billing == "per_session" else session_volume_kbytes(session, 1200.0)
    if serving == 1:
        assert ledgers[1].income_own == 0.37 * volume
    else:
        assert ledgers[1].income_transferred == 0.37 * volume
        assert ledgers[1].cost_paid == networks[3].cs * volume
        assert ledgers[3].income_guests == networks[3].cs * volume
    # The engine books each session as a plain tuple in Session's field order.
    plain = tuple(session)
    assert type(plain) is tuple
    plain_ledgers = _ledgers()
    accrue(plain, networks, plain_ledgers, horizon_s=1200.0, billing=billing)
    for op, ledger in ledgers.items():
        for field, _, _ in fields(ledger):
            assert getattr(plain_ledgers[op], field) == getattr(ledger, field), (op, field)


def test_home_service_pays_the_home_operator():
    ledgers = _ledgers()
    accrue(_session(1, 1), _networks(), ledgers, horizon_s=1200.0)
    assert ledgers[1].income_own == pytest.approx(90.0)
    assert ledgers[1].profit == pytest.approx(90.0)
    assert ledgers[2].profit == 0.0 and ledgers[3].profit == 0.0


def test_transfer_splits_revenue_between_home_and_serving():
    # 100 kB from an Op1 client carried by Op3: client pays 0.9, Op3 charges 0.2.
    ledgers = _ledgers()
    accrue(_session(1, 3), _networks(), ledgers, horizon_s=1200.0)
    assert ledgers[1].income_transferred == pytest.approx(90.0)
    assert ledgers[1].cost_paid == pytest.approx(20.0)
    assert ledgers[1].profit == pytest.approx(70.0)
    assert ledgers[3].income_guests == pytest.approx(20.0)
    assert ledgers[3].profit == pytest.approx(20.0)
    assert ledgers[2].profit == 0.0


def test_transfer_to_equal_cost_operator_leaves_zero_margin_for_serving_share():
    # When cs equals the client's contract price the home operator keeps nothing.
    ledgers = _ledgers()
    networks = _networks()
    networks[3] = replace(networks[3], cs=0.9)
    accrue(_session(1, 3, price=0.9), networks, ledgers, horizon_s=1200.0)
    assert ledgers[1].profit == pytest.approx(0.0)
    assert ledgers[3].income_guests == pytest.approx(90.0)


def test_per_session_billing_charges_flat_units():
    ledgers = _ledgers()
    accrue(_session(1, 3), _networks(), ledgers, horizon_s=1200.0,
           billing="per_session")
    assert ledgers[1].income_transferred == pytest.approx(0.9)
    assert ledgers[1].cost_paid == pytest.approx(0.2)
    assert ledgers[3].income_guests == pytest.approx(0.2)


def test_exchange_matrix_row_percentages():
    matrix = ExchangeMatrix(op_ids=(1, 2, 3),
                            counts={(1, 3, CONV): 3, (1, 2, CONV): 1})
    assert matrix.row_total(1, CONV) == 4
    assert matrix.row_percentages(1, CONV) == {2: 25.0, 3: 75.0}
    assert matrix.row_percentages(1, INT) == {2: 0.0, 3: 0.0}
    assert matrix.row_percentages(2, CONV) == {1: 0.0, 3: 0.0}
    assert matrix.count(1, 3, CONV) == 3
    assert matrix.count(3, 1, CONV) == 0


def _result(seed, arrivals_per_op, blocked_by_home=None, exchange=None, ledgers=None):
    """A replication in which each of three homes has ``arrivals_per_op`` arrivals:
    those neither blocked nor transferred are served at home."""
    ids = (1, 2, 3)
    blocked_by_home = blocked_by_home or {i: 0 for i in ids}
    exchange = exchange or {}
    transferred = {i: sum(n for (home, _, _), n in exchange.items() if home == i) for i in ids}
    result = ReplicationResult(
        seed=seed,
        blocked_by_home=blocked_by_home,
        served_home_by_op={i: arrivals_per_op - blocked_by_home[i] - transferred[i]
                           for i in ids},
        exchange=exchange,
        ledgers=ledgers or {i: OperatorLedger() for i in ids},
    )
    _, *homes = scope_rows(result, ids).values()
    assert [row.arrivals for row in homes] == [arrivals_per_op] * len(ids)
    return result


def test_exchange_matrix_aggregates_replications():
    results = [
        _result(0, 3, exchange={(1, 3, CONV): 2, (2, 3, INT): 1}),
        _result(1, 3, exchange={(1, 3, CONV): 1, (1, 2, CONV): 1}),
    ]
    matrix = exchange_matrix(results, op_ids=(1, 2, 3))
    assert matrix.count(1, 3, CONV) == 3
    assert matrix.count(1, 2, CONV) == 1
    assert matrix.count(2, 3, INT) == 1
    assert matrix.row_percentages(1, CONV) == {2: 25.0, 3: 75.0}



def test_exchange_rows_beyond_three_operators_match_a_brute_force_sum():
    # Six operators, random counts summed over two replications, and one empty
    # row (operator 6's interactive clients never move); kinds asked both ways.
    rng = random.Random(27)
    ids = (1, 2, 3, 4, 5, 6)
    replications = [{(home, to, kind): rng.randint(0, 9)
                     for home in ids for to in ids for kind in ServiceKind
                     if to != home and (home, kind) != (6, INT) and rng.random() < 0.7}
                    for _ in range(2)]
    matrix = exchange_matrix([SimpleNamespace(exchange=counts) for counts in replications],
                             op_ids=ids)
    assert matrix.row_total(6, INT) == 0
    for home in ids:
        for kind in (*ServiceKind, *(kind.value for kind in ServiceKind)):
            row = {to: sum(counts.get((home, to, ServiceKind(kind)), 0)
                           for counts in replications) for to in ids if to != home}
            total = sum(n for (f, _, k), n in matrix.counts.items() if f == home and k == kind)
            assert total == sum(row.values())
            assert matrix.row_total(home, kind) == total
            assert matrix.row_percentages(home, kind) == {
                to: 100.0 * n / total if total else 0.0 for to, n in row.items()}

def test_scope_stats_population_moments():
    stats = ScopeStats(values=(0.1, 0.2, 0.3))
    assert stats.mean == pytest.approx(0.2)
    assert stats.stddev == pytest.approx(math.sqrt(1.0 / 150.0))
    assert stats.ci95_halfwidth == pytest.approx(1.96 * stats.stddev / math.sqrt(3))
    single = ScopeStats(values=(0.4,))
    assert single.mean == 0.4
    assert single.stddev == 0.0
    assert single.ci95_halfwidth == 0.0


@pytest.mark.xfail(raises=OverflowError, strict=True,
                   reason="ROADMAP item 1: (v - m) ** 2 overflows where the spread does not")
def test_stddev_of_values_whose_squares_overflow():
    # A valid scenario can give such profits: prices of 1e160 on calibrated.json.
    # With item 1's sample deviation (n - 1), the expected value becomes sqrt(2) * 1e160.
    assert ScopeStats((1e160, -1e160)).stddev == 1e160


def test_blocking_stats_means_and_attribution():
    report = MetricsReport(
        scenario=default_scenario(),
        results=[
            _result(0, 10, blocked_by_home={1: 6, 2: 0, 3: 0}),
            _result(1, 10),
        ],
    )
    stats = blocking_stats(report)
    assert stats.overall.mean == pytest.approx(0.1)
    assert stats.per_operator[1].mean == pytest.approx(0.3)
    assert stats.per_operator[2].mean == 0.0
    assert stats.per_operator[3].mean == 0.0


def test_profit_and_ledger_means():
    ledgers_a = {1: OperatorLedger(income_own=100.0), 2: OperatorLedger(),
                 3: OperatorLedger(income_guests=10.0)}
    ledgers_b = {1: OperatorLedger(income_own=50.0, cost_paid=20.0),
                 2: OperatorLedger(), 3: OperatorLedger(income_guests=30.0)}
    report = MetricsReport(
        scenario=default_scenario(),
        results=[_result(0, 3, ledgers=ledgers_a),
                 _result(1, 3, ledgers=ledgers_b)],
    )
    profits = profit_stats(report)
    assert profits[1].mean == pytest.approx(65.0)
    assert profits[3].mean == pytest.approx(20.0)
    assert arrivals_mean(report) == pytest.approx(9.0)


def _single_op_scenario():
    base = default_scenario()
    operator = OperatorNetwork(id=1, name="Solo", technology=Technology.UMTS,
                               capacity_kbps=4096.0, jitter_ms=6.0, delay_ms=19.0,
                               ber=1e-3, sp=0.9, cs=0.9)
    mix = (TrafficProfile(service=CONV, w_qos=0.7, w_price=0.3, probability=1.0),)
    return ensure_valid(Scenario(
        operators=(operator,),
        demand=DemandTable({CONV: {Technology.UMTS: 256.0, Technology.WLAN: 256.0},
                            INT: {Technology.UMTS: 512.0, Technology.WLAN: 1024.0}}),
        qos_weights=base.qos_weights,
        requirements=base.requirements,
        profile_mix=mix,
        duration_s=200.0,
        replications=3,
    ))


def _blocking_delta(off, on):
    """Mean off-minus-on global blocking: positive when cooperation helps."""
    return blocking_stats(off).overall.mean - blocking_stats(on).overall.mean


def test_comparison_is_neutral_when_nothing_can_transfer():
    grid = run_grid(_single_op_scenario(), [2.5, 5.0], (True, False))
    assert list(grid) == [(2.5, True), (2.5, False), (5.0, True), (5.0, False)]
    for rate in (2.5, 5.0):
        on, off = grid[rate, True], grid[rate, False]
        assert on.results == off.results
        assert _blocking_delta(off, on) == 0.0
        assert profit_stats(on)[1].mean - profit_stats(off)[1].mean == pytest.approx(0.0)


def test_comparison_shares_random_draws_between_modes():
    scenario = replace(load_scenario(SCENARIO_DIR / "calibrated.json"),
                       replications=4, duration_s=600.0)
    grid = run_grid(scenario, [2.5], (True, False))
    on, off = grid[2.5, True], grid[2.5, False]
    assert [r.arrivals for r in on.results] == [r.arrivals for r in off.results]
    assert [r.seed for r in on.results] == [r.seed for r in off.results]
    assert _blocking_delta(off, on) >= 0.0


def test_grid_runs_a_repeated_rate_once():
    grid = run_grid(_single_op_scenario(), [5.0, 2.5, 5.0], (False,))
    assert list(grid) == [(5.0, False), (2.5, False)]


def test_ledgers_reconcile_with_session_log():
    scenario = replace(load_scenario(SCENARIO_DIR / "calibrated.json"),
                       replications=3)
    report, log = run_logged(run_experiment, scenario)
    cs = {net.id: net.cs for net in scenario.operators}
    for result in report.results:
        recon = {net.id: {"own": [], "transferred": [], "guests": [], "cost": []}
                 for net in scenario.operators}
        sessions = log(result)
        assert sessions
        for session in sessions:
            volume = session_volume_kbytes(session, scenario.duration_s)
            home = session.request.home_op
            serving = session.serving_op
            if serving == home:
                recon[home]["own"].append(session.request.price_paid * volume)
            else:
                recon[home]["transferred"].append(session.request.price_paid * volume)
                recon[home]["cost"].append(cs[serving] * volume)
                recon[serving]["guests"].append(cs[serving] * volume)
        for op_id, parts in recon.items():
            ledger = result.ledgers[op_id]
            assert ledger.income_own == pytest.approx(math.fsum(parts["own"]))
            assert ledger.income_transferred == pytest.approx(math.fsum(parts["transferred"]))
            assert ledger.income_guests == pytest.approx(math.fsum(parts["guests"]))
            assert ledger.cost_paid == pytest.approx(math.fsum(parts["cost"]))
        paid = math.fsum(amount for parts in recon.values() for amount in parts["cost"])
        received = math.fsum(amount for parts in recon.values() for amount in parts["guests"])
        assert paid == received
        assert result.served_transferred > 0
        ledger_paid = math.fsum(result.ledgers[i].cost_paid for i in result.ledgers)
        ledger_received = math.fsum(result.ledgers[i].income_guests for i in result.ledgers)
        assert abs(ledger_paid - ledger_received) < 1e-9