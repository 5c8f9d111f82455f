"""A grid draws each seed once and every cell replays that seed's tape.

Common random numbers give every cell of a grid the same draws for a seed,
so ``cli.run_grid`` records them once per seed (``engine.record_tape``) and
each cell replays them.  Replay must give exactly the live results, whatever
the order or repetition of the rates; the busiest cell must use its whole
tape; a grid whose tapes would not fit ``MAX_TAPE_DRAWS``, and a one-cell
grid, must draw live; and a replay that runs past its tape must fail, not
return a short replication.
"""

from pathlib import Path

import pytest

from accessim import cli
from accessim.engine import (
    RngStreams,
    Tape,
    arrival_draws,
    generate_arrival,
    record_tape,
    replication_seeds,
    run_experiment,
    run_replication,
)
from accessim.model import ensure_valid, expected_arrivals, load_scenario, replace

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def _loaded(name):
    """A shipped scenario at 3 replications, its second operator under background load."""
    base = load_scenario(SCENARIO_DIR / name)
    first, second, *rest = base.operators
    loaded = replace(second, used_kbps=0.2 * second.capacity_kbps)
    return ensure_valid(replace(base, operators=(first, loaded, *rest), replications=3))


@pytest.fixture
def tapes(monkeypatch):
    """Each tape ``cli.run_grid`` records, as (seed, recording mean, tape), in order."""
    recorded = []

    def recording(scenario, seed, fastest_mean_interarrival_s):
        tape = record_tape(scenario, seed, fastest_mean_interarrival_s)
        recorded.append((seed, fastest_mean_interarrival_s, tape))
        return tape

    monkeypatch.setattr(cli, "record_tape", recording)
    return recorded


def _results(grid):
    return {key: report.results for key, report in grid.items()}


@pytest.mark.parametrize("mode", ["on", "off", "both"])
@pytest.mark.parametrize("sweep", [(5.0, 2.5, 10.0 / 3.0), (2.5, 2.5, 4.0)],
                         ids=["fastest-not-first", "repeated-rate"])
@pytest.mark.parametrize("name", ["default.json", "calibrated.json"])
def test_every_cell_replays_its_seeds_tape_with_the_live_results(name, sweep, mode, tapes):
    scenario = _loaded(name)
    modes = cli.MODES[mode]
    grid = cli.run_grid(scenario, sweep, modes)
    fastest = min(sweep)
    assert [(seed, mean) for seed, mean, _ in tapes] == [
        (seed, fastest) for seed in replication_seeds(scenario)]
    assert list(grid) == [(rate, cooperation) for rate in dict.fromkeys(sweep)
                          for cooperation in modes]
    for (rate, cooperation), report in grid.items():
        cell = replace(scenario, mean_interarrival_s=rate, cooperation=cooperation)
        assert report.results == run_experiment(cell).results, (rate, cooperation)
    by_seed = {seed: tape for seed, _, tape in tapes}
    for cooperation in modes:
        for result in grid[fastest, cooperation].results:
            tape = by_seed[result.seed]
            assert result.arrivals + 1 == len(tape.log_gaps) == len(tape.requests)
            assert len(tape.service_uniforms) == result.arrivals


def test_a_grid_whose_tapes_pass_the_budget_draws_live(monkeypatch, tapes):
    scenario = _loaded("calibrated.json")
    sweep, modes = (5.0, 2.5), (True, False)
    busiest = scenario.replications * expected_arrivals(
        replace(scenario, mean_interarrival_s=2.5))
    monkeypatch.setattr(cli, "MAX_TAPE_DRAWS", busiest + 1)
    taped = _results(cli.run_grid(scenario, sweep, modes))
    assert len(tapes) == scenario.replications
    tapes.clear()
    monkeypatch.setattr(cli, "MAX_TAPE_DRAWS", busiest)
    assert _results(cli.run_grid(scenario, sweep, modes)) == taped
    assert tapes == []


@pytest.mark.parametrize("sweep, modes", [((2.5,), (True,)), ((2.5, 2.5), (False,))])
def test_a_one_cell_grid_draws_live(sweep, modes, tapes):
    scenario = _loaded("calibrated.json")
    grid = cli.run_grid(scenario, sweep, modes)
    assert tapes == []
    assert _results(grid) == {(2.5, modes[0]): run_experiment(
        replace(scenario, cooperation=modes[0])).results}


def test_a_tape_holds_the_live_draws_up_to_the_horizon_of_its_rate():
    scenario = replace(_loaded("default.json"), mean_interarrival_s=2.0)
    seed = 7
    tape = record_tape(scenario, seed, scenario.mean_interarrival_s)
    # The scenario's own shared requests, in the order its live draws take them.
    draws = arrival_draws(scenario, RngStreams.from_seed(seed))
    rate = 1.0 / scenario.mean_interarrival_s
    clock = 0.0
    for log_gap, request in zip(tape.log_gaps, tape.requests):
        assert clock < scenario.duration_s
        replayed = clock - log_gap / rate
        clock, drawn = generate_arrival(clock, draws)
        assert replayed == clock and request is drawn
    assert clock >= scenario.duration_s
    services = RngStreams.from_seed(seed).service_time
    assert len(tape.service_uniforms) == len(tape.log_gaps) - 1
    assert list(tape.service_uniforms) == [services.random() for _ in tape.service_uniforms]


def test_a_replay_past_its_tape_raises_rather_than_end_short():
    scenario = _loaded("calibrated.json")
    seed = scenario.base_seed
    slow = replace(scenario, mean_interarrival_s=5.0)
    tape = record_tape(scenario, seed, slow.mean_interarrival_s)
    assert run_replication(slow, seed, tape=tape) == run_replication(slow, seed)
    for beyond in (scenario, replace(slow, duration_s=2 * slow.duration_s)):
        with pytest.raises(RuntimeError, match="^the tape ended before the horizon"):
            run_replication(beyond, seed, tape=tape)
    # The service draws run out first when the tape holds fewer of them.
    short = Tape(log_gaps=tape.log_gaps, requests=tape.requests,
                 service_uniforms=tape.service_uniforms[:10])
    with pytest.raises(RuntimeError, match="^the tape ended before the horizon"):
        run_replication(slow, seed, tape=short)
