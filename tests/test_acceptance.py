"""End-to-end acceptance checks, one printed verdict line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Criteria 1-3 are exact structural checks on the default scenario.  Criteria
4, 5 and 9 are stochastic and run on the shipped calibrated scenario, whose
lighter demand rates keep the system out of saturation (the default demand
table saturates all three networks, which buries the cooperation effect).
"""

import math
import random
from pathlib import Path

import pytest

from accessim.analytics import (
    blocking_stats,
    exchange_matrix,
    report_rows,
    session_volume_kbytes,
)
from accessim.cli import run_grid
from accessim.engine import run_experiment
from accessim.model import (
    ServiceKind,
    ServiceRequest,
    default_scenario,
    load_scenario,
    replace,
)
from accessim.selection import AdmissionTable, Outcome, admit

from oracles import oracle_admit, oracle_candidates, random_instance
from session_log import SessionLog
from test_cli import run_cli
from test_engine import recorded_gaps, replay_capacity
from test_selection import hand_scored

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
SWEEP = (2.5, 25.0 / 9.0, 10.0 / 3.0, 5.0)
INT = ServiceKind.INTERACTIVE


def _verdict(ok: bool, number: int, text: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {number}: {text}")
    assert ok, f"criterion {number}: {text}"


@pytest.fixture(scope="module")
def session_log():
    """The sessions served by this module's experiments, recorded as they run."""
    return SessionLog()


@pytest.fixture(scope="module")
def default_on_reports(session_log):
    scenario = default_scenario()
    with session_log.recording():
        return {rate: run_experiment(replace(scenario, mean_interarrival_s=rate))
                for rate in SWEEP}


@pytest.fixture(scope="module")
def calibrated_comparison(session_log):
    scenario = load_scenario(SCENARIO_DIR / "calibrated.json")
    with session_log.recording():
        return run_grid(scenario, SWEEP, (True, False))


def test_criterion_1_no_loss_sensitive_sessions_on_umts(default_on_reports, session_log):
    violations = walked = 0
    for report in default_on_reports.values():
        for result in report.results:
            sessions = session_log(result)
            walked += len(sessions)
            violations += sum(1 for s in sessions
                              if s.serving_op == 1
                              and s.request.service_class.kind is INT)
    _verdict(violations == 0 and walked > 0, 1,
             f"interactive sessions carried by the UMTS operator: {violations} of "
             f"{walked} served (required: exactly 0 across 4 arrival rates x 20 "
             "replications)")


def test_criterion_2_forced_exchange_routes_between_wlans(default_on_reports):
    results = [r for report in default_on_reports.values() for r in report.results]
    matrix = exchange_matrix(results, op_ids=(1, 2, 3))
    total_2 = matrix.row_total(2, INT)
    total_3 = matrix.row_total(3, INT)
    ok = (total_2 > 0 and matrix.count(2, 3, INT) == total_2
          and total_3 > 0 and matrix.count(3, 2, INT) == total_3)
    _verdict(ok, 2,
             f"interactive transfers went Op2->Op3 {matrix.count(2, 3, INT)}/{total_2} "
             f"and Op3->Op2 {matrix.count(3, 2, INT)}/{total_3} (required: 100%)")


def test_criterion_3_reference_transfer_picks_op3():
    # Saturate the UMTS home so its real-time client must transfer while both
    # WLANs are still empty, then trace the decision by hand and by oracle.
    scenario = default_scenario()
    networks = list(scenario.operators)
    networks[0] = replace(networks[0], used_kbps=networks[0].capacity_kbps)
    request = ServiceRequest(
        home_op=1,
        service_class=scenario.service_class(ServiceKind.CONVERSATIONAL),
        w_qos=0.7, w_price=0.3, price_paid=networks[0].sp)
    decision = admit(request,
                     AdmissionTable(networks, scenario.demand, scenario.requirements))
    oracle_outcome, oracle_serving = oracle_admit(
        request, networks, scenario.demand, scenario.requirements, True)
    objectives = {op: hand_scored(request, networks, op)[2] for op in (2, 3)}
    ok = (decision.outcome is Outcome.SERVED_TRANSFER
          and decision.serving_op == 3
          and oracle_outcome == "served_transfer" and oracle_serving == 3
          and math.isclose(objectives[2], 0.3133506944444445)
          and math.isclose(objectives[3], -0.2941579861111112))
    _verdict(ok, 3,
             "real-time transfer from the full UMTS network to empty WLANs "
             f"selects Op3 (objectives: Op2 {objectives[2]:+.6f}, "
             f"Op3 {objectives[3]:+.6f}; brute-force oracle agrees)")


def test_criterion_4_cooperation_never_hurts_and_cuts_blocking(calibrated_comparison):
    dominated = True
    for rate in SWEEP:
        # Each replication's scope_rows; modes of one rate share their seeds.
        for on, off in zip(report_rows(calibrated_comparison[rate, True]),
                           report_rows(calibrated_comparison[rate, False])):
            if off["global"].blocking_probability < on["global"].blocking_probability - 1e-12:
                dominated = False
    reduction = (blocking_stats(calibrated_comparison[2.5, False]).overall.mean
                 - blocking_stats(calibrated_comparison[2.5, True]).overall.mean)
    ok = dominated and reduction >= 0.10
    _verdict(ok, 4,
             "cooperation-on blocking <= cooperation-off in every replication at "
             f"every rate; mean reduction at 1/lambda=2.5 is {reduction:.3f} "
             "(required: >= 0.10)")


def test_criterion_5_umts_operator_gains_the_most(calibrated_comparison):
    on = blocking_stats(calibrated_comparison[2.5, True]).per_operator
    off = blocking_stats(calibrated_comparison[2.5, False]).per_operator
    reductions = {op: off[op].mean - on[op].mean for op in (1, 2, 3)}
    ok = reductions[1] > reductions[2] and reductions[1] > reductions[3]
    _verdict(ok, 5,
             "per-operator blocking reduction at the highest load: "
             f"Op1 {reductions[1]:+.3f}, Op2 {reductions[2]:+.3f}, "
             f"Op3 {reductions[3]:+.3f} (required: Op1 strictly largest)")


def test_criterion_6_conservation_suite(default_on_reports, calibrated_comparison,
                                       session_log):
    reports = list(default_on_reports.values())
    reports.extend(calibrated_comparison.values())
    counts_ok = payments_ok = capacity_ok = True
    checked = walked = 0
    for report in reports:
        scenario = report.scenario
        cs = {net.id: net.cs for net in scenario.operators}
        for result in report.results:
            checked += 1
            if result.arrivals != (result.blocked + result.served_home
                                   + result.served_transferred):
                counts_ok = False
            sessions = session_log(result)
            walked += len(sessions)
            paid, received = [], []
            for session in sessions:
                if session.serving_op != session.request.home_op:
                    amount = (cs[session.serving_op]
                              * session_volume_kbytes(session, scenario.duration_s))
                    paid.append(amount)
                    received.append(amount)
            if math.fsum(paid) != math.fsum(received):
                payments_ok = False
            ledger_paid = math.fsum(l.cost_paid for l in result.ledgers.values())
            ledger_received = math.fsum(l.income_guests for l in result.ledgers.values())
            if abs(ledger_paid - ledger_received) > 1e-9:
                payments_ok = False
            used, _ = replay_capacity(scenario, sessions)
            if any(value != 0.0 for value in used.values()):
                capacity_ok = False
    ok = counts_ok and payments_ok and capacity_ok and walked > 0
    _verdict(ok, 6,
             f"over {checked} replications and {walked} served sessions: "
             "arrivals = blocked + served "
             f"({'ok' if counts_ok else 'VIOLATED'}), settlement paid = received "
             f"({'ok' if payments_ok else 'VIOLATED'}), occupancy within capacity "
             f"and drained to zero ({'ok' if capacity_ok else 'VIOLATED'})")


def test_criterion_7_selection_is_scale_invariant_and_matches_oracle():
    rng = random.Random(777)
    mismatches = scale_flips = transfers = 0
    rooms = [0, 0, 0]  # transfer attempts by candidates with room: 0, 1, or 2 and more
    for _ in range(1000):
        request, networks, demand, requirements = random_instance(rng)
        decision = admit(request, AdmissionTable(networks, demand, requirements))
        outcome, serving = oracle_admit(request, networks, demand, requirements, True)
        if decision.outcome.value != outcome or decision.serving_op != serving:
            mismatches += 1
        if outcome != "served_home":
            rooms[min(len(oracle_candidates(request, networks, demand, requirements)), 2)] += 1
        k = 10.0 ** rng.uniform(-2.0, 2.0)
        scaled = admit(request,
                       AdmissionTable([replace(net, w_u=net.w_u * k, w_op=net.w_op * k)
                                       for net in networks], demand, requirements))
        if scaled.serving_op != decision.serving_op or scaled.outcome != decision.outcome:
            scale_flips += 1
        if decision.outcome is Outcome.SERVED_TRANSFER:
            transfers += 1
    ok = mismatches == 0 and scale_flips == 0 and transfers > 100 and all(rooms)
    _verdict(ok, 7,
             f"1000 randomized instances ({transfers} transfers; transfer attempts "
             f"with 0, 1 and 2+ candidates with room: {rooms[0]}, {rooms[1]}, {rooms[2]}): "
             f"{mismatches} oracle mismatches, {scale_flips} winners changed by "
             "rescaling (w_u, w_op) (required: 0 and 0, and each room class met)")


def test_criterion_8_determinism_and_arrival_statistics(tmp_path, monkeypatch):
    for name in ("a", "b"):
        proc = run_cli("run", "--scenario", str(SCENARIO_DIR / "default.json"),
                       "--out", str(tmp_path / name), "--seed", "42")
        assert proc.returncode == 0, proc.stderr
    identical = all(
        (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()
        for f in ("metrics.csv", "summary.csv"))
    scenario = default_scenario()
    gaps = recorded_gaps(monkeypatch, scenario.duration_s)
    report = run_experiment(scenario)
    assert len(gaps) == sum(r.arrivals for r in report.results)
    pooled = sum(gaps) / len(gaps)
    stat_ok = abs(pooled - 2.5) / 2.5 <= 0.05
    _verdict(identical and stat_ok, 8,
             f"same seed reproduces CSVs byte for byte ({identical}); pooled mean "
             f"interarrival {pooled:.4f} s vs 2.5 s (required within 5%)")


def test_criterion_9_calibrated_blocking_stays_under_five_percent(calibrated_comparison):
    means = {rate: blocking_stats(report).overall.mean
             for (rate, cooperation), report in calibrated_comparison.items() if cooperation}
    worst = max(means.values())
    _verdict(worst < 0.05, 9,
             "cooperation-on global blocking on the calibrated scenario: worst "
             f"mean {worst:.4f} across 1/lambda in {sorted(means)} "
             "(required: < 0.05 at every rate)")