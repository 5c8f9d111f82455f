"""Golden digests: the CSV reports and SVG charts of both shipped scenarios, byte for byte.

A change to any digest means the simulator's output changed.  That is only
allowed when the change declares it; then re-record the digests below with
the commands the test runs and say why in CHANGES.md.
"""

import hashlib
from pathlib import Path

import pytest

from accessim.cli import main

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
COMMON = ("--replications", "2", "--seed", "3")
SHORT_SWEEP = ("--sweep", "2.5,5")

GOLDEN = {
    "default": {
        "metrics.csv": "dde2361e1cc6002275688bc9e79354a7303a612cc4d2b402d7acda37d860fd34",
        "summary.csv": "773fd1ab9480bffbe767f7f1a06dc1455ddc7bfab694cd58e329c4885d25a61a",
        "sweep.csv": "d0878f38c906fdc6b8974e8e3ad1451b9d3f8ff0614750fda6dd9a6f617184e8",
        "compare.csv": "37442a30df3e0aeda38f9ef8c8c988035fd4bd0194997e1413e91e6ce2aea6fa",
        "exchange.csv": "610183a14ad318cb0d34e9bfd2eda74c53fe68440fcaf8e2b24e818f3c35a540",
    },
    "calibrated": {
        "metrics.csv": "df53d7fe712e53e67ccc1fd31eb4ade29cf89457bf46c028e2f3cf1e6fbc7e00",
        "summary.csv": "db916a3219948111faa595c1043d2043caa67f7cde284e60cc22d8bb58b917bf",
        "sweep.csv": "91677689fb94f32cb58ef22e30bd7eb8f0494c24812269dd9c72db0ca276d780",
        "compare.csv": "b020c31039489ece3f777618c20f203d67b3fcb58ef1f4adec9e3f16599440d6",
        "exchange.csv": "4e0dbb83c3db2d1fe31d8c3ac05cd3adc209a7f05eb0e37e92f9d9455d2cc871",
    },
}

GOLDEN_CHARTS = {
    "default": {
        "blocking.svg": "ee25cdd1c24899999c67546b3ad15ba41496e2c15ee16e4541eb3b55c03283ab",
        "profits.svg": "cca11a254401544ff2fffb75ac7613e2fb2ddff64cd436255a2f5a33afa0057e",
    },
    "calibrated": {
        "blocking.svg": "40d46702b3a041fd9ceb2704aac6b992b5db27e36ad32b72af7e5f9747b200c9",
        "profits.svg": "0e40761030446a98f9221d018711361b53c52462ca605483f778b94ee594455e",
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_shipped_scenario_reports_match_golden_digests(name, tmp_path):
    scenario = str(SCENARIO_DIR / f"{name}.json")
    out = str(tmp_path)
    assert main(["run", "--scenario", scenario, "--out", out, *COMMON]) == 0
    assert main(["sweep", "--scenario", scenario, "--out", out, "--no-svg",
                 *SHORT_SWEEP, *COMMON]) == 0
    assert main(["compare", "--scenario", scenario, "--out", out,
                 *SHORT_SWEEP, *COMMON]) == 0
    digests = {csv: hashlib.sha256((tmp_path / csv).read_bytes()).hexdigest()
               for csv in GOLDEN[name]}
    assert digests == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_CHARTS))
def test_shipped_scenario_charts_match_golden_digests(name, tmp_path):
    scenario = str(SCENARIO_DIR / f"{name}.json")
    assert main(["sweep", "--scenario", scenario, "--out", str(tmp_path),
                 *SHORT_SWEEP, *COMMON]) == 0
    digests = {svg: hashlib.sha256((tmp_path / svg).read_bytes()).hexdigest()
               for svg in GOLDEN_CHARTS[name]}
    assert digests == GOLDEN_CHARTS[name]
