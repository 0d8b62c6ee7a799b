"""tools/pairs.py's statistics on fixed numbers: quartiles, wins, the claim
verdict and the unresolved mark, with no benchmark run."""

import importlib.util
import pathlib

import pytest

PAIRS = pathlib.Path(__file__).resolve().parent.parent / "tools" / "pairs.py"


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location("pairs", PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PARENT = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]


def test_median_and_exclusive_quartiles(pairs):
    # positions (n + 1) / 4 and 3 (n + 1) / 4 of the sorted runs: 2.75
    # and 8.25 of 10, so 11.75 and 17.25, whatever the run order
    assert pairs.quartiles(PARENT[::-1]) == (11.75, 14.5, 17.25)
    assert pairs.quartiles([3.0]) == (3.0, 3.0, 3.0)


def test_a_met_claim(pairs):
    # 9 of 10 pairs lower, ties none; medians 14.5 -> 7.5, a gap of 7
    # against the parent's quartile distance 5.5
    change = [a - 7 for a in PARENT[:9]] + [PARENT[9] + 1]
    entry = pairs.compare(PARENT, change, "lower", 0.5)
    assert entry["change_wins"] == 9
    assert entry["parent"]["median"] == 14.5
    assert entry["change"]["median"] == 7.5
    assert entry["median_change_pct"] == round(100 * -7 / 14.5, 2)
    assert entry["parent"]["runs"] == PARENT
    assert not entry["unresolved"]
    assert pairs.claim_verdict(entry, "lower") == "met"
    # the same numbers read as higher-is-better win no pair
    entry = pairs.compare(PARENT, change, "higher", 0.5)
    assert entry["change_wins"] == 1
    assert pairs.claim_verdict(entry, "higher") == "not met"


def test_unmet_claims(pairs):
    # 10 of 10 wins by 1, a median gap of 1 inside the quartile distance
    change = [a - 1 for a in PARENT]
    entry = pairs.compare(PARENT, change, "lower", 0.5)
    assert entry["change_wins"] == 10
    assert pairs.claim_verdict(entry, "lower") == "not met"
    # a median gap of 10, but a tie and a loss leave 8 of 10 wins
    change = [a - 10 for a in PARENT[:8]] + [PARENT[8], PARENT[9] + 1]
    entry = pairs.compare(PARENT, change, "lower", 0.5)
    assert entry["change_wins"] == 8
    assert entry["change"]["median"] < entry["parent"]["median"] - 5.5
    assert pairs.claim_verdict(entry, "lower") == "not met"


def test_a_metric_wider_than_its_bound_is_unresolved(pairs):
    # the parent's spread (17.25 - 11.75) / 14.5 is 37.9%
    change = list(PARENT)
    entry = pairs.compare(PARENT, change, "lower", 0.25)
    assert entry["parent_spread_pct"] == 37.93
    assert entry["unresolved"] and entry["change_wins"] == 0
    assert not pairs.compare(PARENT, change, "lower", 0.4)["unresolved"]
    # unless every change run reads better than every parent run
    below = [a - 10 for a in PARENT]
    assert not pairs.compare(PARENT, below, "lower", 0.25)["unresolved"]
    assert pairs.compare(PARENT, below, "higher", 0.25)["unresolved"]
