"""The vectorised analytic model against the exact cost oracle.

The model claims to be a closed-form reduction of the multicore tick
loop, exact up to float associativity — so every test here compares
populations scored in one batched call against per-candidate
``simulate()`` and demands agreement at float-noise level (1e-9
relative, orders of magnitude above the observed ~1e-15).
"""

import pytest

from repro.apps import rp_class, three_lead_mf, three_lead_mmd
from repro.gen.explorer import repair_app
from repro.gen.generator import app_from_token
from repro.oracle import AnalyticModel, score_population
from repro.search.cost import ORACLE_KINDS, get_oracle
from repro.search.space import plan_from_candidate
from repro.oracle import sample_candidates
from repro.sysc.engine import BeatEvent, uniform_schedule

#: Built-in benchmarks plus generated shapes (the fork-join and
#: RP-CLASS entries exercise lock-step replicas and triggered
#: phases — the two terms that are not a plain per-slot sum).
_APPS = (
    three_lead_mf(),
    three_lead_mmd(),
    rp_class(),
    app_from_token("pipeline:2014:0"),
    app_from_token("fork-join:2014:1"),
    app_from_token("fan-in:2014:2"),
    app_from_token("independent:2014:3"),
)


def _repaired(app):
    repaired, _ = repair_app(app, 8)
    return repaired


@pytest.mark.parametrize("kind", ORACLE_KINDS)
@pytest.mark.parametrize(
    "app", _APPS, ids=[app.name for app in _APPS])
def test_population_scores_match_exact_oracle(app, kind):
    app = _repaired(app)
    candidates = sample_candidates(app, samples=6, seed=3)
    assert candidates
    scores = score_population(app, candidates, kind=kind,
                              duration_s=1.0)
    oracle = get_oracle(kind, 1.0)
    for index, candidate in enumerate(candidates):
        plan = plan_from_candidate(app, candidate)
        exact_cost, exact_metrics = oracle.evaluate(app, plan, 8)
        assert exact_cost > 0
        assert float(scores.cost[index]) == \
            pytest.approx(exact_cost, rel=1e-9)
        analytic = scores.metrics(index)
        assert set(analytic) == set(exact_metrics)
        for key, value in exact_metrics.items():
            assert analytic[key] == pytest.approx(value, rel=1e-9), key


def test_metrics_integer_fields_are_python_ints():
    app = _repaired(three_lead_mf())
    candidates = sample_candidates(app, samples=2, seed=0)
    metrics = score_population(app, candidates,
                               duration_s=1.0).metrics(0)
    assert isinstance(metrics["active_cores"], int)
    assert isinstance(metrics["im_banks"], int)


def test_scoring_is_deterministic_across_calls():
    app = _repaired(three_lead_mmd())
    candidates = sample_candidates(app, samples=8, seed=5)
    first = score_population(app, candidates, duration_s=1.0)
    second = score_population(app, candidates, duration_s=1.0)
    assert first.cost.tolist() == second.cost.tolist()
    assert first.power_uw.tolist() == second.power_uw.tolist()


def test_batched_equals_singleton_scoring():
    """One 8-wide call == eight 1-wide calls, bit for bit."""
    app = _repaired(rp_class())
    candidates = sample_candidates(app, samples=8, seed=5)
    model = AnalyticModel(app, kind="power", duration_s=1.0)
    batched = model.score(candidates)
    assert len(batched) == len(candidates)
    for index, candidate in enumerate(candidates):
        assert model.score_one(candidate) == batched.cost[index]


def _mixed_schedules(app, duration_s):
    """Schedules with 0, few, many and doubled-up abnormal beats."""
    ticks = int(round(duration_s * app.fs))
    doubled = [BeatEvent(sample, True)
               for sample in (ticks // 5, ticks // 5, ticks // 2)]
    return [
        uniform_schedule(duration_s, app.fs, abnormal_ratio=0.0),
        uniform_schedule(duration_s, app.fs, abnormal_ratio=0.2),
        uniform_schedule(duration_s, app.fs, abnormal_ratio=0.7),
        doubled + [BeatEvent(ticks + 10, True)],  # last one clipped
        uniform_schedule(duration_s, app.fs, abnormal_ratio=1.0),
    ]


def _assert_rows_equal(batched, row, single):
    """Every per-candidate figure of ``batched[row]`` == ``single[0]``."""
    assert batched.cost[row] == single.cost[0]
    assert batched.power_uw[row] == single.power_uw[0]
    assert batched.sync_overhead[row] == single.sync_overhead[0]
    assert batched.duty_cycle[row] == single.duty_cycle[0]
    for name, values in single.categories_uw.items():
        assert batched.categories_uw[name][row] == values[0], name


@pytest.mark.parametrize("app", [rp_class(), app_from_token(
    "fork-join:2014:1")], ids=["rp-class", "fork-join"])
def test_per_row_schedules_equal_single_schedule_models(app):
    """A mixed-schedule batch == one model per schedule, bit for bit."""
    app = _repaired(app)
    schedules = _mixed_schedules(app, 2.0)
    candidates = sample_candidates(app, samples=len(schedules), seed=4)
    candidates = (candidates * len(schedules))[:len(schedules)]
    model = AnalyticModel(app, kind="power", duration_s=2.0,
                          schedule=schedules[1])
    batched = model.score(candidates, schedules=schedules)
    for row, (candidate, schedule) in enumerate(
            zip(candidates, schedules)):
        single = AnalyticModel(app, kind="power", duration_s=2.0,
                               schedule=schedule).score([candidate])
        _assert_rows_equal(batched, row, single)


def test_constructor_schedule_equals_explicit_schedules():
    """``schedules=None`` == the constructor's schedule on every row."""
    app = _repaired(rp_class())
    candidates = sample_candidates(app, samples=6, seed=5)
    schedule = uniform_schedule(1.0, app.fs, abnormal_ratio=0.3)
    model = AnalyticModel(app, kind="power", duration_s=1.0,
                          schedule=schedule)
    implicit = model.score(candidates)
    explicit = model.score(candidates,
                           schedules=[schedule] * len(candidates))
    for row in range(len(candidates)):
        _assert_rows_equal(explicit, row, model.score([candidates[row]]))
        assert explicit.cost[row] == implicit.cost[row]
    for name, values in implicit.categories_uw.items():
        assert (explicit.categories_uw[name] == values).all(), name
    with pytest.raises(ValueError, match="schedules"):
        model.score(candidates, schedules=[schedule])


def test_model_validates_inputs():
    app = _repaired(three_lead_mf())
    with pytest.raises(ValueError):
        AnalyticModel(app, kind="nope")
    with pytest.raises(ValueError):
        AnalyticModel(app, duration_s=0.0)
    model = AnalyticModel(app, duration_s=1.0)
    with pytest.raises(ValueError):
        model.score([])


def test_model_rejects_foreign_candidates():
    """Candidates of one app cannot score under another's model."""
    mf = _repaired(three_lead_mf())
    mmd = _repaired(three_lead_mmd())
    foreign = sample_candidates(mmd, samples=1, seed=0)
    model = AnalyticModel(mf, duration_s=1.0)
    with pytest.raises(ValueError):
        model.score(foreign)
