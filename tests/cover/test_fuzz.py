"""Tests for the coverage-driven fuzz loop."""

import pytest

from repro import obs
from repro.cover import fuzz_campaign, random_campaign
from repro.cover.fuzz import _shape_for, _structural_targets
from repro.gen.generator import parse_app_token

import random


#: Small shared budget: keeps the fuzz-vs-random comparison fast
#: while leaving targeting enough room to pull ahead.
BUDGET = 32
DURATION = 0.5


@pytest.fixture(scope="module")
def fuzz():
    return fuzz_campaign(budget=BUDGET, saturation=BUDGET,
                         duration_s=DURATION)


@pytest.fixture(scope="module")
def blind():
    return random_campaign(budget=BUDGET, saturation=BUDGET,
                           duration_s=DURATION)


def test_fuzz_is_deterministic(fuzz):
    assert len(fuzz.attempts) == BUDGET
    again = fuzz_campaign(budget=BUDGET, saturation=BUDGET,
                          duration_s=DURATION)
    assert [a.token for a in again.attempts] == \
        [a.token for a in fuzz.attempts]
    assert again.coverage.covered() == fuzz.coverage.covered()
    assert again.status_counts == fuzz.status_counts


def test_fuzz_reaches_adversarial_coverpoints(fuzz):
    hits = fuzz.coverage.adversarial_hits()
    for name in ("deep-chain", "wide-fan-in", "diamond-shared",
                 "triggered-subgraph"):
        assert hits[name] > 0, name
        assert fuzz.coverage.adversarial_first(name)


def test_fuzz_beats_random_by_at_least_25_percent(fuzz, blind):
    """The acceptance bar: >= 25 % more bins at equal budget."""
    fuzzed = len(fuzz.coverage.covered())
    blinded = len(blind.coverage.covered())
    assert blinded > 0
    assert fuzzed >= blinded * 1.25, (fuzzed, blinded)


def test_random_mode_never_uses_shape_knobs(blind):
    for attempt in blind.attempts:
        assert attempt.target == ""
        _, _, _, shape = parse_app_token(attempt.token)
        assert not shape


def test_fuzz_attempts_log_targets_and_tokens(fuzz):
    assert len(fuzz.attempts) <= BUDGET
    covered = sum(a.new_bins for a in fuzz.attempts)
    assert covered == len(fuzz.coverage.covered())
    for attempt in fuzz.attempts:
        parse_app_token(attempt.token)  # every token regenerates


def test_saturation_stops_the_loop():
    report = fuzz_campaign(budget=64, saturation=1, duration_s=DURATION)
    assert report.saturated
    assert len(report.attempts) < 64
    assert report.attempts[-1].new_bins == 0


def test_campaign_rejects_bad_parameters():
    with pytest.raises(ValueError, match="budget"):
        fuzz_campaign(budget=0)
    with pytest.raises(ValueError, match="saturation"):
        fuzz_campaign(saturation=0)
    with pytest.raises(ValueError, match="policy"):
        fuzz_campaign(policies=("nonsense",), budget=1)


def test_structural_targets_collapse_outcome_axis():
    uncovered = [
        "pipeline/d2-4/f1/private/ok/r1",
        "pipeline/d2-4/f1/private/rejected/r1",
        "random-dag/d9+/f1/private/ok/r1",
    ]
    assert _structural_targets(uncovered) == [
        "pipeline/d2-4/f1/private/r1",
        "random-dag/d9+/f1/private/r1",
    ]


def test_shape_for_steers_toward_target_bands():
    rng = random.Random(0)
    family, shape = _shape_for(
        rng, "random-dag/d9+/f5+/shared/r5+", force_triggered=True)
    assert family == "random-dag"
    assert shape.depth >= 9
    assert shape.fan_in >= 5
    assert shape.diamond and shape.triggered
    assert shape.replicas >= 5
    family, shape = _shape_for(
        rng, "pipeline/d2-4/f1/private/r1", force_triggered=False)
    assert family == "pipeline" and shape is None


def test_fuzz_hot_path_reports_obs_counters():
    with obs.collecting() as registry:
        fuzz_campaign(budget=4, saturation=4, duration_s=DURATION)
    counters = registry.snapshot()["counters"]
    assert counters["cover.attempts"] == 4
    assert counters["cover.new_bins"] > 0
