import math
from pathlib import Path

import pytest

from accessim import analytics, engine
from accessim.analytics import scope_rows
from accessim.engine import (
    CapacityAccountingError,
    RngStreams,
    admission_table,
    arrival_draws,
    generate_arrival,
    record_tape,
    replication_seeds,
    run_experiment,
    run_replication,
)
from accessim.model import (
    DemandTable,
    OperatorNetwork,
    Scenario,
    ServiceKind,
    Session,
    Technology,
    TrafficProfile,
    default_scenario,
    ensure_valid,
    load_scenario,
    replace,
)

from oracles import oracle_arrivals
from session_log import run_logged, served_counts

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def _global(result):
    """The ``global`` metrics row of a replication of a three-operator scenario."""
    return scope_rows(result, [1, 2, 3])["global"]


class _Scripted:
    """Stands in for one random.Random stream and replays canned raw draws."""

    def __init__(self, values):
        self.values = list(values)

    def _next(self):
        if not self.values:
            raise AssertionError("script exhausted")
        return self.values.pop(0)

    def random(self):
        return self._next()

    def getrandbits(self, k):
        value = self._next()
        assert 0 <= value < 2 ** k
        return value


def _fake_streams(interarrivals, services=(), homes=(), profiles=()):
    """Streams that replay raw draws: uniforms, and home-assignment bits."""
    return RngStreams(
        interarrival=_Scripted(interarrivals),
        service_time=_Scripted(services),
        profile=_Scripted(profiles),
        home_assignment=_Scripted(homes),
    )


def _scripted_run(monkeypatch, scenario, arrival_times, service_uniforms=(), clocks=None,
                  table=None):
    """One replication whose arrivals land at exactly ``arrival_times``.

    The times go through the engine's ``generate_arrival`` seam; each arrival
    still draws its home and profile (both 0 here) from the streams.  Served
    arrivals draw their service times from ``service_uniforms`` in admission
    order: ``RngStreams.from_seed`` returns those scripted streams.  The clock
    the engine passes to each draw is appended to ``clocks`` when it is
    given.  ``table`` is passed on to ``run_replication``.  Returns the result
    and its session log.
    """
    times = list(arrival_times)

    def scripted(clock, draws):
        if clocks is not None:
            clocks.append(clock)
        _, request = generate_arrival(clock, draws)
        return times.pop(0), request

    monkeypatch.setattr(engine, "generate_arrival", scripted)
    n = len(arrival_times)
    streams = _fake_streams(interarrivals=[0.0] * n, services=service_uniforms,
                            homes=[0] * n, profiles=[0.0] * n)
    monkeypatch.setattr(engine.RngStreams, "from_seed", lambda seed: streams)
    result, log = run_logged(run_replication, scenario, seed=0, table=table)
    assert times == []
    return result, log(result)


def _service_s(scenario, uniform):
    """The service time the engine draws from ``uniform``, by its own expression."""
    return -math.log(1.0 - uniform) / (1.0 / scenario.mean_service_s)


def _single_op_scenario(capacity=256.0, cooperation=False):
    base = default_scenario()
    operator = OperatorNetwork(id=1, name="Solo", technology=Technology.UMTS,
                               capacity_kbps=capacity, jitter_ms=6.0, delay_ms=19.0,
                               ber=1e-3, sp=0.9, cs=0.9)
    mix = (TrafficProfile(service=ServiceKind.CONVERSATIONAL,
                          w_qos=0.7, w_price=0.3, probability=1.0),)
    return ensure_valid(Scenario(
        operators=(operator,),
        demand=DemandTable({
            ServiceKind.CONVERSATIONAL: {Technology.UMTS: 256.0, Technology.WLAN: 256.0},
            ServiceKind.INTERACTIVE: {Technology.UMTS: 512.0, Technology.WLAN: 1024.0}}),
        qos_weights=base.qos_weights,
        requirements=base.requirements,
        profile_mix=mix,
        cooperation=cooperation,
    ))


def test_no_arrivals_before_horizon_means_empty_run(monkeypatch):
    clocks = []
    result, sessions = _scripted_run(monkeypatch, _single_op_scenario(), [5000.0],
                                     clocks=clocks)
    assert result.arrivals == 0
    assert result.blocked == 0
    assert sessions == []
    assert clocks == [0.0]


def test_departure_frees_capacity_for_simultaneous_arrival(monkeypatch):
    # One-session network: session 1 ends exactly when arrival 2 lands.
    scenario = _single_op_scenario()
    first, second = _service_s(scenario, 0.5), _service_s(scenario, 0.25)
    clocks = []
    result, _ = _scripted_run(monkeypatch, scenario, [1.0, 1.0 + first, 9999.0],
                              service_uniforms=[0.5, 0.25], clocks=clocks)
    assert result.arrivals == 2
    assert result.blocked == 0
    assert result.served_home == 2
    # Each draw starts from the last arrival, so the gaps up to the last arrival
    # before the horizon telescope to its time.
    assert clocks == [0.0, 1.0, 1.0 + first]
    # 256 kbit/s for each session's duration at 0.9 per kByte.
    expected = 0.9 * (256.0 * first / 8.0) + 0.9 * (256.0 * second / 8.0)
    assert result.ledgers[1].income_own == pytest.approx(expected)
    assert result.ledgers[1].profit == pytest.approx(expected)


def test_zero_length_session_frees_capacity_for_an_arrival_at_its_instant(monkeypatch):
    # A uniform of 0 draws a zero duration: session 1 ends at t=1.0, the instant
    # arrival 2 lands on the one-session network.
    scenario = _single_op_scenario()
    result, sessions = _scripted_run(monkeypatch, scenario, [1.0, 1.0, 9999.0],
                                     service_uniforms=[0.0, 0.25])
    assert (result.arrivals, result.served_home, result.blocked) == (2, 2, 0)
    # Both start at 1.0; service times are drawn in admission order, so the
    # zero-length session is the first admitted, and it is accrued first.
    assert [(s.start_s, s.duration_s) for s in sessions] == [
        (1.0, 0.0), (1.0, _service_s(scenario, 0.25))]


def test_sessions_ending_together_are_accrued_in_admission_order(monkeypatch):
    # Four sessions admitted one after another, each shorter than the last,
    # all end at t=1000.
    scenario = _single_op_scenario(capacity=4 * 256.0)
    uniforms = [0.9, 0.8, 0.7, 0.6]
    durations = [_service_s(scenario, u) for u in uniforms]
    starts = [1000.0 - d for d in durations]
    assert starts == sorted(starts)
    assert [start + d for start, d in zip(starts, durations)] == [1000.0] * 4
    result, sessions = _scripted_run(monkeypatch, scenario, starts + [9999.0],
                                     service_uniforms=uniforms)
    assert (result.served_home, result.blocked) == (4, 0)
    assert {s.start_s + s.duration_s for s in sessions} == {1000.0}
    assert [s.start_s for s in sessions] == starts


def test_arrival_at_the_horizon_is_not_admitted_and_the_heap_drains(monkeypatch):
    # A session that ends exactly at the horizon, then an arrival drawn exactly at it,
    # on a network that carries one session beside its background load.
    base = _single_op_scenario(capacity=2 * 256.0)
    scenario = replace(base, operators=(replace(base.operators[0], used_kbps=256.0),))
    horizon = scenario.duration_s
    duration = _service_s(scenario, 0.5)
    start = horizon - duration
    assert start + duration == horizon
    table = admission_table(scenario)
    result, sessions = _scripted_run(monkeypatch, scenario, [start, horizon],
                                     service_uniforms=[0.5], table=table)
    assert (result.arrivals, result.served_home, result.blocked) == (1, 1, 0)
    [session] = sessions
    assert (session.start_s, session.duration_s) == (start, duration)
    # Accrued once, at its full volume: 256 kbit/s for its whole duration at 0.9 per kByte.
    assert result.ledgers[1].income_own == pytest.approx(0.9 * 256.0 * duration / 8.0)
    [net] = table.networks
    assert net.used_kbps == 256.0


def test_busy_network_blocks_second_arrival(monkeypatch):
    scenario = _single_op_scenario()
    assert _service_s(scenario, 0.5) > 1.0
    result, _ = _scripted_run(monkeypatch, scenario, [1.0, 2.0, 9999.0],
                              service_uniforms=[0.5])
    assert result.arrivals == 2
    assert result.served_home == 1
    assert result.blocked == 1
    assert result.blocked_by_home[1] == 1


def test_session_volume_truncates_at_horizon(monkeypatch):
    scenario = _single_op_scenario()
    assert _service_s(scenario, 0.5) > 1.0
    result, sessions = _scripted_run(monkeypatch, scenario, [1199.0, 9999.0],
                                     service_uniforms=[0.5])
    assert result.arrivals == 1
    [session] = sessions
    assert session.start_s == 1199.0
    # Only one second of the session fits before the horizon.
    assert result.ledgers[1].income_own == pytest.approx(0.9 * 256.0 / 8.0)


def test_arrival_at_or_after_horizon_is_not_scheduled(monkeypatch):
    result, _ = _scripted_run(monkeypatch, _single_op_scenario(), [1200.0])
    assert result.arrivals == 0


def test_replication_is_deterministic():
    scenario = replace(default_scenario(), duration_s=300.0)
    assert run_replication(scenario, seed=5) == run_replication(scenario, seed=5)


def test_different_seeds_differ():
    scenario = replace(default_scenario(), duration_s=300.0)
    assert run_replication(scenario, seed=5) != run_replication(scenario, seed=6)


def test_rng_substreams_are_decoupled():
    a, b = RngStreams.from_seed(7), RngStreams.from_seed(7)
    assert [a.interarrival.random() for _ in range(5)] \
        == [b.interarrival.random() for _ in range(5)]
    assert a.interarrival.random() != a.service_time.random()


def test_replication_seeds_are_consecutive():
    scenario = default_scenario()
    seeds = replication_seeds(scenario)
    assert seeds == list(range(42, 62))
    assert [r.seed for r in run_experiment(replace(scenario, duration_s=50.0,
                                                   replications=3)).results] == [42, 43, 44]


def test_experiment_matches_standalone_replications_in_either_order():
    # One admission table serves every replication of an experiment; each
    # result must still depend on its seed alone.  Op2 carries background load,
    # which every replication starts from.
    base = load_scenario(SCENARIO_DIR / "default.json")
    operators = (base.operators[0], replace(base.operators[1], used_kbps=500.0),
                 *base.operators[2:])
    scenario = ensure_valid(replace(base, operators=operators, duration_s=300.0,
                                    replications=6))
    seeds = replication_seeds(scenario)
    standalone = [run_replication(scenario, seed) for seed in seeds]
    assert run_experiment(scenario).results == standalone
    table = admission_table(scenario)
    backward = [run_replication(scenario, seed, table=table) for seed in reversed(seeds)]
    assert backward == standalone[::-1]
    # Occupancy left off its background, as drifted sums would leave it, is reset.
    for net in table:
        net.used_kbps = net.capacity_kbps
    assert [run_replication(scenario, seed, table=table) for seed in seeds] == standalone


def test_inline_exponential_draws_equal_expovariate():
    # Both draws are Random.expovariate's body written inline; on every Python
    # version they must give its values bit for bit.
    scenario = replace(default_scenario(), duration_s=300.0)
    gap_rate = 1.0 / scenario.mean_interarrival_s
    service_rate = 1.0 / scenario.mean_service_s
    for seed in range(50):
        draws = arrival_draws(scenario, RngStreams.from_seed(seed))
        reference = RngStreams.from_seed(seed).interarrival
        clock = 0.0
        for arrival in range(200):
            expected = clock + reference.expovariate(gap_rate)
            clock, _ = generate_arrival(clock, draws)
            assert clock == expected, (seed, arrival)

        result, log = run_logged(run_replication, scenario, seed)
        # Served arrivals draw their service times in admission order, which
        # is start order: no two arrivals of a real run share a start.
        served = sorted(log(result), key=lambda s: s.start_s)
        assert served
        assert len({s.start_s for s in served}) == len(served)
        reference = RngStreams.from_seed(seed).service_time
        assert [s.duration_s for s in served] == [
            reference.expovariate(service_rate) for _ in served], seed


def test_count_conservation_across_seeds():
    scenario = replace(default_scenario(), duration_s=400.0)
    for seed in range(10, 15):
        r, log = run_logged(run_replication, scenario, seed)
        assert r.arrivals == r.blocked + r.served_home + r.served_transferred
        _, *ops = scope_rows(r, [net.id for net in scenario.operators]).values()
        assert sum(row.arrivals for row in ops) == r.arrivals
        assert sum(r.blocked_by_home.values()) == r.blocked
        assert sum(r.served_home_by_op.values()) == r.served_home
        assert sum(row.served_transferred for row in ops) == r.served_transferred
        # A transfer counts for the client's home, so each home's clients balance.
        for row in ops:
            assert row.arrivals == row.blocked + row.served_home + row.served_transferred
        assert sum(r.exchange.values()) == r.served_transferred
        served = log(r)
        assert served
        assert sum(s.serving_op == s.request.home_op for s in served) == r.served_home


@pytest.mark.parametrize("replayed", [False, True], ids=["live", "replayed"])
@pytest.mark.parametrize("cooperation", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("name", ["default.json", "calibrated.json"])
def test_served_counts_equal_the_sessions_key_by_key(name, cooperation, replayed):
    # The loop tallies every arrival by its decision's slot and reads the blocked,
    # per-operator and exchange counts off the tally; the sessions it accrued
    # must give the same served counts, key by key, with no zero exchange entry,
    # and each home's blocks are its clients drawn before the horizon less its
    # clients served.
    scenario = replace(load_scenario(SCENARIO_DIR / name), cooperation=cooperation,
                       replications=5)
    op_ids = [net.id for net in scenario.operators]
    tapes = ({seed: record_tape(scenario, seed, scenario.mean_interarrival_s)
              for seed in replication_seeds(scenario)} if replayed else None)
    report, log = run_logged(run_experiment, scenario, tapes)
    for result in report.results:
        sessions = log(result)
        served_home_by_op, exchange = served_counts(sessions, op_ids)
        assert result.served_home_by_op == served_home_by_op, result.seed
        assert result.exchange == exchange, result.seed
        assert 0 not in result.exchange.values()
        drawn = oracle_arrivals(scenario, result.seed, 2000)
        assert drawn[-1][0] >= scenario.duration_s
        blocked_by_home = dict.fromkeys(op_ids, 0)
        for t, request in drawn:
            blocked_by_home[request.home_op] += t < scenario.duration_s
        for session in sessions:
            blocked_by_home[session.request.home_op] -= 1
        assert result.blocked_by_home == blocked_by_home, result.seed
    assert any(result.exchange for result in report.results) is cooperation


@pytest.mark.parametrize("replayed", [False, True], ids=["live", "replayed"])
@pytest.mark.parametrize("cooperation", [True, False], ids=["on", "off"])
def test_the_engine_books_each_session_as_a_plain_tuple(monkeypatch, cooperation, replayed):
    # An exact tuple, not a Session: a tuple subclass costs ~170 ns more to build,
    # and accrue unpacks one through the iterator protocol, not the tuple fast path.
    booked = []
    accrue = analytics.accrue

    def recorded(session, *args):
        booked.append(session)
        return accrue(session, *args)

    monkeypatch.setattr(analytics, "accrue", recorded)
    scenario = replace(load_scenario(SCENARIO_DIR / "default.json"), cooperation=cooperation)
    seed = scenario.base_seed
    tape = record_tape(scenario, seed, scenario.mean_interarrival_s) if replayed else None
    result = run_replication(scenario, seed, tape=tape)
    assert len(booked) == result.served_home + result.served_transferred > 0
    assert all(type(session) is tuple and len(session) == 5 for session in booked)
    served_home_by_op, exchange = served_counts(
        [Session._make(session) for session in booked], [net.id for net in scenario.operators])
    assert (served_home_by_op, exchange) == (result.served_home_by_op, result.exchange)
    assert bool(exchange) is cooperation


def test_each_home_counts_every_arrival_drawn_for_it(monkeypatch):
    # Tallied from the draws themselves, apart from the outcome counts that
    # scope_rows sums into each home's arrivals.
    drawn = []

    def recorded(clock, draws):
        t, request = generate_arrival(clock, draws)
        drawn.append((t, request.home_op))
        return t, request

    monkeypatch.setattr(engine, "generate_arrival", recorded)
    scenario = replace(load_scenario(SCENARIO_DIR / "default.json"),
                       cooperation=True, duration_s=400.0)
    for seed in range(10, 15):
        drawn.clear()
        r = run_replication(scenario, seed)
        assert r.blocked and r.served_home and r.served_transferred
        expected = {net.id: 0 for net in scenario.operators}
        for t, home_op in drawn:
            if t < scenario.duration_s:
                expected[home_op] += 1
        _, *homes = scope_rows(r, list(expected)).values()
        assert dict(zip(expected, (row.arrivals for row in homes))) == expected


def test_arrival_volume_matches_poisson_rate():
    report = run_experiment(default_scenario())
    mean_arrivals = sum(r.arrivals for r in report.results) / len(report.results)
    assert mean_arrivals == pytest.approx(1200.0 / 2.5, rel=0.05)


def recorded_gaps(monkeypatch, horizon):
    """A list that gets the gap before each arrival the engine draws before ``horizon``."""
    gaps = []

    def recorded(clock, draws):
        t, request = generate_arrival(clock, draws)
        if t < horizon:
            gaps.append(t - clock)
        return t, request

    monkeypatch.setattr(engine, "generate_arrival", recorded)
    return gaps


def test_pooled_interarrival_mean_matches_rate(monkeypatch):
    scenario = default_scenario()
    gaps = recorded_gaps(monkeypatch, scenario.duration_s)
    report = run_experiment(scenario)
    assert len(gaps) == sum(r.arrivals for r in report.results)
    assert sum(gaps) / len(gaps) == pytest.approx(2.5, rel=0.05)


def test_generated_traffic_matches_profile_mix():
    scenario = default_scenario()
    draws = arrival_draws(scenario, RngStreams.from_seed(123))
    profile_counts = {i: 0 for i in range(len(scenario.profile_mix))}
    home_counts = {net.id: 0 for net in scenario.operators}
    sp_by_id = {net.id: net.sp for net in scenario.operators}
    arrivals = 12000
    lookup = {(p.service, p.w_qos): i for i, p in enumerate(scenario.profile_mix)}
    for _ in range(arrivals):
        _, request = generate_arrival(0.0, draws)
        profile_counts[lookup[(request.service_class.kind, request.w_qos)]] += 1
        home_counts[request.home_op] += 1
        assert request.price_paid == sp_by_id[request.home_op]
    for count in profile_counts.values():
        assert count / arrivals == pytest.approx(0.25, abs=0.02)
    for count in home_counts.values():
        assert count / arrivals == pytest.approx(1.0 / 3.0, abs=0.02)


def _n_op_scenario(n):
    base = default_scenario()
    operators = tuple(replace(base.operators[i % 3], id=i + 1, name=f"Op{i + 1}",
                              sp=0.1 * (i + 1))
                      for i in range(n))
    return ensure_valid(replace(base, operators=operators))


@pytest.mark.parametrize("n_ops", [1, 2, 3, 4, 5])
def test_compiled_arrivals_match_the_plain_generator(n_ops):
    # 1, 2 and 4 operators make randrange's draw width k = n.bit_length() reject
    # half the raw bits at worst; 3 and 5 reject some; all must consume alike.
    scenario = _n_op_scenario(n_ops)
    for seed in range(50):
        draws = arrival_draws(scenario, RngStreams.from_seed(seed))
        clock = 0.0
        compiled = []
        for _ in range(2000):
            clock, request = generate_arrival(clock, draws)
            compiled.append((clock, request))
        assert compiled == oracle_arrivals(scenario, seed, 2000), (n_ops, seed)


_PROFILES = ((ServiceKind.CONVERSATIONAL, 0.7, 0.3),
             (ServiceKind.INTERACTIVE, 0.2, 0.8),
             (ServiceKind.CONVERSATIONAL, 0.4, 0.6))


def _mix_scenario(probabilities):
    """The default scenario with one profile of distinct weights per probability."""
    mix = tuple(TrafficProfile(service=service, w_qos=w_qos, w_price=w_price,
                               probability=probability)
                for (service, w_qos, w_price), probability in zip(_PROFILES, probabilities))
    return ensure_valid(replace(default_scenario(), profile_mix=mix))


def _two_profile_scenario(second_probability):
    return _mix_scenario((0.5, second_probability))


def _requests_drawn(scenario, uniforms, homes=None):
    homes = [0] * len(uniforms) if homes is None else homes
    streams = _fake_streams(interarrivals=[0.0] * len(uniforms), homes=homes,
                            profiles=uniforms)
    draws = arrival_draws(scenario, streams)
    return [generate_arrival(0.0, draws)[1] for _ in uniforms]


def _profiles_drawn(probabilities, uniforms):
    """The mix index of the profile each uniform draw takes from a mix of these probabilities."""
    scenario = _mix_scenario(probabilities)
    index = {(profile.w_qos, profile.w_price): i
             for i, profile in enumerate(scenario.profile_mix)}
    return [index[request.w_qos, request.w_price]
            for request in _requests_drawn(scenario, uniforms)]


# At zero, just below one half, at one half and just below one.
_DRAWS = [0.0, 0.4999999999999999, 0.5, 0.9999999999999999]


def test_a_draw_equal_to_a_cumulative_probability_takes_the_next_profile():
    requests = _requests_drawn(_two_profile_scenario(0.5), [0.0, 0.5, 0.4999999999999999])
    assert [r.service_class.kind for r in requests] == [
        ServiceKind.CONVERSATIONAL, ServiceKind.INTERACTIVE, ServiceKind.CONVERSATIONAL]
    # A last sum just above 1, and a last profile of probability 0 whose sum
    # equals the one before it: no draw takes that profile.
    for probabilities in [(0.5, 0.5 + 1e-12), (0.5, 0.5, 0.0)]:
        assert _profiles_drawn(probabilities, _DRAWS) == [0, 0, 1, 1], probabilities


def test_a_draw_above_the_last_cumulative_probability_takes_the_last_profile():
    # The mix sums to 1 - 1e-12, within WEIGHT_SUM_TOL, so a uniform in
    # [1 - 1e-12, 1) lies above every cumulative probability.
    scenario = _two_profile_scenario(0.5 - 1e-12)
    last = sum(profile.probability for profile in scenario.profile_mix)
    assert last < 1.0
    requests = _requests_drawn(scenario, [last, (last + 1.0) / 2, 0.9999999999999999])
    assert [r.service_class.kind for r in requests] == [ServiceKind.INTERACTIVE] * 3
    assert [(r.w_qos, r.w_price) for r in requests] == [(0.2, 0.8)] * 3
    # It takes the last profile even when that profile's probability is 0.
    assert _profiles_drawn((0.5, 0.5 - 1e-12, 0.0), _DRAWS) == [0, 0, 1, 2]


def test_home_draw_rejects_raw_bits_at_or_above_the_operator_count():
    # Three operators draw two bits; 3 is rejected and drawn again, as randrange(3) does.
    requests = _requests_drawn(default_scenario(), [0.0, 0.0], homes=[3, 3, 2, 1])
    assert [r.home_op for r in requests] == [3, 2]


def test_more_capacity_never_hurts_on_average():
    scenario = default_scenario()
    doubled = replace(scenario, operators=tuple(
        replace(net, capacity_kbps=2.0 * net.capacity_kbps)
        for net in scenario.operators))
    base = run_experiment(replace(scenario, duration_s=600.0, replications=5))
    bigger = run_experiment(replace(doubled, duration_s=600.0, replications=5))
    base_mean = sum(_global(r).blocking_probability for r in base.results) / 5
    bigger_mean = sum(_global(r).blocking_probability for r in bigger.results) / 5
    assert bigger_mean <= base_mean


def test_unlimited_capacity_leaves_only_structural_blocking():
    scenario = default_scenario()
    unlimited = replace(scenario, duration_s=300.0, replications=5,
                        operators=tuple(replace(net, capacity_kbps=1e9)
                                        for net in scenario.operators))
    for r in run_experiment(unlimited).results:
        # Every class is feasible somewhere, so cooperative admission never blocks.
        assert r.blocked == 0
    standalone, log = run_logged(run_experiment, replace(unlimited, cooperation=False))
    for r in standalone.results:
        # Without exchange the UMTS operator still cannot carry loss-sensitive
        # sessions, so exactly its interactive home arrivals are lost.
        assert r.served_transferred == 0
        assert r.blocked == r.blocked_by_home[1]
        assert r.blocked_by_home[2] == 0 and r.blocked_by_home[3] == 0
        served = log(r)
        assert served
        assert all(s.request.service_class.kind is ServiceKind.CONVERSATIONAL
                   for s in served if s.request.home_op == 1)
        assert math.isclose(_global(r).blocking_probability, r.blocked / r.arrivals)


def replay_capacity(scenario, sessions):
    """Re-derive per-operator occupancy from a replication's sessions alone.

    Departures sort before arrivals at equal timestamps, mirroring the event
    queue, so a slot freed at t is available to a session starting at t.
    """
    events = []
    for session in sessions:
        events.append((session.start_s, 1, session.rate_kbps, session.serving_op))
        events.append((session.start_s + session.duration_s, 0,
                       -session.rate_kbps, session.serving_op))
    events.sort(key=lambda e: (e[0], e[1]))
    used = {net.id: 0.0 for net in scenario.operators}
    capacity = {net.id: net.capacity_kbps for net in scenario.operators}
    peak = {net.id: 0.0 for net in scenario.operators}
    for _, _, delta, op_id in events:
        used[op_id] += delta
        peak[op_id] = max(peak[op_id], used[op_id])
        assert -1e-9 <= used[op_id] <= capacity[op_id] + 1e-9
    return used, peak


def test_session_log_replay_confirms_capacity_accounting():
    scenario = replace(default_scenario(), duration_s=400.0)
    for seed in (7, 77):
        result, log = run_logged(run_replication, scenario, seed)
        sessions = log(result)
        assert sessions
        used, peak = replay_capacity(scenario, sessions)
        # Demand rates are whole numbers, so the walk is exact arithmetic.
        assert all(value == 0.0 for value in used.values())
        assert any(value > 0.0 for value in peak.values())


def test_initial_load_is_background_the_run_drains_back_to():
    scenario = default_scenario()
    ops = list(scenario.operators)
    ops[1] = replace(ops[1], used_kbps=500.0)
    ops[2] = replace(ops[2], used_kbps=ops[2].capacity_kbps)
    loaded = ensure_valid(replace(scenario, operators=tuple(ops), duration_s=600.0,
                                  replications=3))
    served_on_op2 = 0
    report, log = run_logged(run_experiment, loaded)
    for r in report.results:
        assert r.arrivals == r.blocked + r.served_home + r.served_transferred
        # A network whose background load fills it serves no one, home or guest.
        assert r.served_home_by_op[3] == 0
        sessions = log(r)
        assert sessions
        assert all(s.serving_op != 3 for s in sessions)
        _, peak = replay_capacity(loaded, sessions)
        assert peak[2] <= ops[1].capacity_kbps - 500.0
        served_on_op2 += sum(s.serving_op == 2 for s in sessions)
    assert served_on_op2 > 0
    assert loaded.operators[1].used_kbps == 500.0


def _tampered_run(monkeypatch, scenario, tamper):
    """One replication that calls ``tamper(networks, clock)`` before each arrival's draw.

    ``networks`` are the replication's working copies, so ``tamper`` can move
    their occupancy between events, as an accounting bug would.
    """
    table = admission_table(scenario)
    draw = engine.generate_arrival

    def tampered(clock, draws):
        tamper(table.networks, clock)
        return draw(clock, draws)

    monkeypatch.setattr(engine, "generate_arrival", tampered)
    return run_replication(scenario, seed=1, table=table)


def test_occupancy_that_goes_negative_is_an_accounting_error(monkeypatch):
    def forget_occupancy(networks, clock):
        networks[0].used_kbps = 0.0

    with pytest.raises(CapacityAccountingError,
                       match=r"^operator 1 used_kbps went negative at t=\d"):
        _tampered_run(monkeypatch, _single_op_scenario(capacity=1024.0), forget_occupancy)


def test_serving_a_full_network_is_an_accounting_error(monkeypatch):
    # Admission that always serves at home, room or not: the second session
    # that overlaps another overfills the 256 kbps network.
    monkeypatch.setattr(engine, "admit", lambda request, table:
                        table.routes[request.home_op][request.service_class.kind].served)
    with pytest.raises(CapacityAccountingError,
                       match=r"^operator 1 exceeded capacity at t=\d"):
        run_replication(_single_op_scenario(capacity=256.0), seed=1)


def test_occupancy_that_does_not_drain_is_an_accounting_error(monkeypatch):
    def add_load_once(networks, clock):
        if clock == 0.0:  # the first draw, after the replication reset the load
            networks[0].used_kbps += 0.5

    with pytest.raises(CapacityAccountingError) as err:
        _tampered_run(monkeypatch, _single_op_scenario(capacity=1024.0), add_load_once)
    assert str(err.value) == "operator 1 did not drain to its background load 0.0: 0.5"


def test_occupancy_checks_tolerate_rounding_at_the_scale_of_the_capacities():
    # At 10^4 times the default capacities a 0.1 kbps background load comes back
    # as (0.1 + 1e8) - 1e8 = 0.09999999403953552: no accounting error.
    base = default_scenario()
    scale = 10**4
    scenario = ensure_valid(replace(
        base, replications=2,
        operators=tuple(replace(net, capacity_kbps=net.capacity_kbps * scale, used_kbps=0.1)
                        for net in base.operators),
        demand=DemandTable({kind: {tech: rate * scale for tech, rate in per_tech.items()}
                            for kind, per_tech in base.demand.items()})))
    report, log = run_logged(run_experiment, scenario)
    assert [r.seed for r in report.results] == replication_seeds(scenario)
    for result in report.results:
        drawn = oracle_arrivals(scenario, result.seed, 2000)
        assert drawn[-1][0] >= scenario.duration_s
        assert result.arrivals == sum(t < scenario.duration_s for t, _ in drawn) > 0
        assert len(log(result)) == result.served_home + result.served_transferred > 0


def test_capacity_below_every_rate_blocks_all_arrivals():
    scenario = default_scenario()
    starved = replace(scenario, duration_s=300.0, operators=tuple(
        replace(net, capacity_kbps=1.0) for net in scenario.operators))
    result, log = run_logged(run_replication, ensure_valid(starved), seed=5)
    assert result.arrivals > 0
    assert result.blocked == result.arrivals
    assert log(result) == []
    assert _global(result).blocking_probability == 1.0


def test_cooperation_serves_a_superset_of_non_cooperative_users():
    # Under shared draws a transfer only ever rescues a request the home
    # operator turned down, so as long as no operator runs out of room the
    # cooperative run serves everyone the standalone run does.  The shipped
    # calibrated demand stays below saturation across the sweep; the heavier
    # default demand does not, and there the inclusion genuinely breaks.
    scenario = replace(load_scenario(SCENARIO_DIR / "calibrated.json"),
                       replications=4)
    def served_ids(log, result):
        # Both modes draw the same arrival times, and no two arrivals of a
        # real run share one, so a start time names an arrival.
        sessions = log(result)
        assert sessions
        starts = {s.start_s for s in sessions}
        assert len(starts) == len(sessions)
        return starts

    strict = 0
    for interarrival in (2.5, 5.0):
        rated = replace(scenario, mean_interarrival_s=interarrival)
        on, on_log = run_logged(run_experiment, rated)
        off, off_log = run_logged(run_experiment, replace(rated, cooperation=False))
        for with_coop, without in zip(on.results, off.results):
            assert served_ids(off_log, without) <= served_ids(on_log, with_coop)
            strict += served_ids(off_log, without) < served_ids(on_log, with_coop)
    assert strict > 0
