import csv
import math
import random
from pathlib import Path

import pytest

from accessim import cli, run_grid
from accessim.analytics import (
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


def _result(seed, arrivals_per_op, blocked=None, transfers=None, ledgers=None):
    """A replication in which each of three homes has ``arrivals_per_op`` arrivals:
    its ``blocked`` ones, its ``transfers`` by (home, serving, kind) and the rest
    served at home; blocked and home-served arrivals are conversational."""
    ids = (1, 2, 3)
    blocked = blocked or {}
    transfers = transfers or {}
    counts = {}
    for home in ids:
        moved = sum(n for (from_op, _, _), n in transfers.items() if from_op == home)
        counts[home, None, CONV] = blocked.get(home, 0)
        counts[home, home, CONV] = arrivals_per_op - blocked.get(home, 0) - moved
    result = ReplicationResult(seed=seed, counts=counts | transfers,
                               ledgers=ledgers or {i: OperatorLedger() for i in ids})
    _, *homes = scope_rows(result, ids).values()
    assert [row.arrivals for row in homes] == [arrivals_per_op] * len(ids)
    return result


def test_scope_rows_split_each_home_s_counts_by_the_serving_key():
    # Blocks, home service and transfers over both kinds, with zero keys, and
    # operator 3 holding zeros only; a transfer belongs to its home's row.
    counts = {(1, None, CONV): 2, (1, None, INT): 1, (1, 1, CONV): 5, (1, 1, INT): 0,
              (1, 2, CONV): 3, (1, 3, INT): 1, (2, None, CONV): 0, (2, 2, INT): 4,
              (2, 1, INT): 2, (3, None, CONV): 0, (3, 3, CONV): 0, (3, 2, INT): 0}
    result = ReplicationResult(seed=0, counts=counts, ledgers=_ledgers())
    rows = scope_rows(result, (1, 2, 3))
    assert list(rows) == ["global", "op1", "op2", "op3"]
    triples = {name: (row.arrivals, row.blocked, row.served_home, row.served_transferred)
               for name, row in rows.items()}
    assert triples == {"global": (18, 3, 9, 6), "op1": (12, 3, 5, 4), "op2": (6, 0, 4, 2),
                       "op3": (0, 0, 0, 0)}
    assert (rows["op1"].blocking_probability, rows["op3"].blocking_probability) == (0.25, 0.0)
    assert (result.arrivals, result.blocked, result.served_home,
            result.served_transferred) == triples["global"]


def _exchange_shares(out, results, ids):
    """The cells of the exchange.csv that ``cli.cmd_compare`` writes to ``out`` for
    cooperating ``results`` over operators ``ids``, by (home, kind value) and
    destination."""
    base = default_scenario()
    scenario = replace(base, operators=tuple(replace(base.operators[0], id=i) for i in ids))
    grid = {(scenario.mean_interarrival_s, True): MetricsReport(scenario=scenario,
                                                                results=results)}
    assert cli.cmd_compare(scenario, grid, None, out) == 0
    with open(out / "exchange.csv", newline="") as fh:
        return {(int(row.pop("from_operator")), row.pop("service_class")):
                {int(column.removeprefix("to_op")): cell for column, cell in row.items()}
                for row in csv.DictReader(fh)}


def test_exchange_matrix_row_percentages(tmp_path):
    result = _result(0, 4, transfers={(1, 3, CONV): 3, (1, 2, CONV): 1})
    transfers = exchange_matrix([result])
    assert sum(n for (home, _, kind), n in transfers.items() if (home, kind) == (1, CONV)) == 4
    shares = _exchange_shares(tmp_path, [result], (1, 2, 3))
    assert shares[1, "conversational"] == {1: "0", 2: "25", 3: "75"}
    assert shares[1, "interactive"] == {1: "0", 2: "0", 3: "0"}
    assert shares[2, "conversational"] == {1: "0", 2: "0", 3: "0"}
    assert transfers[1, 3, CONV] == 3
    assert transfers.get((3, 1, CONV), 0) == 0


def test_exchange_matrix_aggregates_replications(tmp_path):
    results = [
        _result(0, 3, transfers={(1, 3, CONV): 2, (2, 3, INT): 1, (2, 1, CONV): 0}),
        _result(1, 3, transfers={(1, 3, CONV): 1, (1, 2, CONV): 1}),
    ]
    # Transfer keys only, summed, a zero one included; no block and no home service.
    assert exchange_matrix(results) == {(1, 3, CONV): 3, (1, 2, CONV): 1, (2, 3, INT): 1,
                                        (2, 1, CONV): 0}
    assert _exchange_shares(tmp_path, results, (1, 2, 3))[1, "conversational"] == {
        1: "0", 2: "25", 3: "75"}


def test_exchange_rows_beyond_three_operators_match_a_brute_force_sum(tmp_path):
    # Six operators, random counts summed over two replications, and one empty
    # row (operator 6's interactive clients never move); kinds asked both ways.
    rng = random.Random(27)
    ids = (1, 2, 3, 4, 5, 6)
    replications = [{(home, to, kind): rng.randint(0, 9)
                     for home in ids for to in ids for kind in ServiceKind
                     if to != home and (home, kind) != (6, INT) and rng.random() < 0.7}
                    for _ in range(2)]
    results = [ReplicationResult(seed=seed, counts=counts,
                                 ledgers={op: OperatorLedger() for op in ids})
               for seed, counts in enumerate(replications)]
    transfers = exchange_matrix(results)
    assert transfers == {key: sum(counts.get(key, 0) for counts in replications)
                         for key in set().union(*replications)}
    shares = _exchange_shares(tmp_path, results, ids)
    assert set(shares) == {(home, kind.value) for home in ids for kind in ServiceKind}
    assert shares[6, "interactive"] == dict.fromkeys(ids, "0")
    for home in ids:
        for kind in (*ServiceKind, *(kind.value for kind in ServiceKind)):
            row = {to: sum(counts.get((home, to, ServiceKind(kind)), 0)
                           for counts in replications) for to in ids if to != home}
            total = sum(n for (f, _, k), n in transfers.items() if f == home and k == kind)
            assert total == sum(row.values())
            # Each share as exchange.csv prints a float: 10 significant digits.
            assert shares[home, ServiceKind(kind).value] == {
                to: f"{100.0 * row.get(to, 0) / total if total else 0.0:.10g}" for to in ids}


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
            _result(0, 10, blocked={1: 6, 2: 0, 3: 0}),
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