"""Differential test: the queue replay against the per-tick loop.

``simulate()`` replays each core's work queue, stepping only the ticks
on which the queue is busy, and reduces its running sums block by
block.  ``_reference_simulate`` below is the per-tick loop it replaced,
frozen here verbatim (its state class inlined); every
``SimulationResult`` field of the two must compare ``==``.
"""

import dataclasses
import random
from dataclasses import dataclass

import pytest

from repro import obs
from repro.apps import (
    MappingError,
    map_multicore,
    rp_class,
    three_lead_mf,
    three_lead_mmd,
)
from repro.apps.phases import Trigger
from repro.gen import generate_suite
from repro.power.components import DEFAULT_ENERGY
from repro.power.energy import ActivityVector, compute_power
from repro.power.process import DEFAULT_PROCESS
from repro.power.vfs import MIN_SYSTEM_CLOCK_MHZ, plan_operating_point
from repro.search.space import candidate_from_plan, plan_from_candidate
from repro.sysc import engine
from repro.sysc.engine import (
    BLOCK_TICKS,
    SPIN_DM_RATE,
    SYNC_WRITE_FRACTION,
    BeatEvent,
    Mode,
    SimulationResult,
    simulate,
    uniform_schedule,
)

MODES = (Mode.SINGLE_CORE, Mode.MULTI_CORE, Mode.MULTI_CORE_NO_SYNC)


@dataclass
class _RefCore:
    phase_name: str
    streaming_cycles: float
    streaming_sync: float
    dm_rate: float
    queue: float = 0.0
    executed: float = 0.0
    spin: float = 0.0
    dm_accesses: float = 0.0
    sync_ops: float = 0.0
    executed_this_tick: float = 0.0
    group: str | None = None
    shared_read_fraction: float = 0.0
    alignment: float = 0.0


def _reference_simulate(app, mode, schedule, duration_s=60.0, num_cores=8,
                        energy=DEFAULT_ENERGY, process=DEFAULT_PROCESS,
                        floor_mhz=MIN_SYSTEM_CLOCK_MHZ, mapping=None):
    """The per-tick ``simulate()`` loop, as it was before the replay."""
    app.validate()
    multicore = mode is not Mode.SINGLE_CORE
    if mapping is None:
        mapping = map_multicore(app, num_cores) if multicore \
            else engine.map_singlecore(app)
    elif mapping.multicore != multicore:
        raise ValueError(
            f"mapping is {'multi' if mapping.multicore else 'single'}"
            f"-core but mode is {mode.value}")
    required = engine._required_clock_mhz(app, mode, schedule, duration_s,
                                          mapping)
    point = plan_operating_point(required, process=process,
                                 single_core=not multicore,
                                 floor_mhz=floor_mhz)

    with_sync = mode is Mode.MULTI_CORE
    cores = []
    triggered_cores = {}
    if multicore:
        for assignment in mapping.assignments:
            phase = app.phase(assignment.phase)
            streaming = phase.trigger is Trigger.STREAMING
            state = _RefCore(
                phase_name=phase.name,
                streaming_cycles=phase.cycles_per_sample
                if streaming else 0.0,
                streaming_sync=phase.sync_ops_per_sample
                if (streaming and with_sync) else 0.0,
                dm_rate=phase.dm_access_rate,
                group=phase.name if (phase.replicas > 1
                                     and phase.lockstep_alignment > 0)
                else None,
                shared_read_fraction=phase.shared_read_fraction,
                alignment=phase.lockstep_alignment if with_sync else 0.0,
            )
            cores.append(state)
            if not streaming:
                triggered_cores.setdefault(phase.name, []).append(
                    len(cores) - 1)
    else:
        streaming_total = app.streaming_cycles_per_sample
        rates = [(phase.cycles_per_sample * phase.replicas,
                  phase.dm_access_rate) for phase in app.phases]
        total = sum(cycles for cycles, _ in rates) or 1.0
        blended_rate = sum(cycles * rate for cycles, rate in rates) / total
        cores.append(_RefCore(
            phase_name="all", streaming_cycles=streaming_total,
            streaming_sync=0.0, dm_rate=blended_rate))
        for phase in app.phases:
            if phase.trigger is not Trigger.STREAMING:
                triggered_cores.setdefault(phase.name, []).append(0)

    fs = app.fs
    ticks = int(round(duration_s * fs))
    capacity = point.cycles_per_second / fs
    beats_by_tick = {}
    for event in schedule:
        if event.abnormal and 0 <= event.sample < ticks:
            beats_by_tick[event.sample] = \
                beats_by_tick.get(event.sample, 0) + 1

    groups = {}
    for state in cores:
        if state.group is not None:
            groups.setdefault(state.group, []).append(state)

    im_merged = 0.0
    dm_merged = 0.0
    max_queue = 0.0
    triggered_sync = {
        phase.name: (phase.sync_ops_per_sample if with_sync else 0.0)
        for phase in app.phases
    }
    for tick in range(ticks):
        arrivals = beats_by_tick.get(tick, 0)
        if arrivals:
            for phase in app.phases:
                if phase.trigger is not Trigger.ON_ABNORMAL:
                    continue
                work = (phase.cycles_per_sample
                        + triggered_sync[phase.name]) \
                    * app.beat_span_samples * arrivals
                for core_index in triggered_cores.get(phase.name, []):
                    state = cores[core_index]
                    state.queue += work
                    state.sync_ops += (triggered_sync[phase.name]
                                       * app.beat_span_samples * arrivals)
        for state in cores:
            state.queue += state.streaming_cycles + state.streaming_sync
            state.sync_ops += state.streaming_sync
            executed = min(state.queue, capacity)
            state.queue -= executed
            state.executed += executed
            state.executed_this_tick = executed
            state.dm_accesses += executed * state.dm_rate
            if mode is Mode.MULTI_CORE_NO_SYNC:
                spin = capacity - executed
                state.spin += spin
                state.dm_accesses += spin * SPIN_DM_RATE
            max_queue = max(max_queue, state.queue)
        for members in groups.values():
            active = [m for m in members if m.executed_this_tick > 0]
            if len(active) < 2:
                continue
            share = (len(active) - 1) / len(active)
            fetched = sum(m.executed_this_tick for m in active)
            alignment = active[0].alignment
            im_merged += alignment * share * fetched
            dm_merged += (alignment * share
                          * active[0].shared_read_fraction
                          * sum(m.executed_this_tick * m.dm_rate
                                for m in active))

    total_executed = sum(state.executed for state in cores)
    total_spin = sum(state.spin for state in cores)
    total_fetch = total_executed + total_spin
    total_dm = sum(state.dm_accesses for state in cores)
    total_sync = sum(state.sync_ops for state in cores) if with_sync else 0.0
    sync_writes = total_sync * SYNC_WRITE_FRACTION
    wall_cycles = ticks * capacity

    activity = ActivityVector(
        cycles=wall_cycles,
        core_active_cycles=total_fetch,
        im_accesses=total_fetch - im_merged,
        dm_accesses=total_dm - dm_merged + sync_writes,
        interconnect_grants=total_fetch + total_dm + sync_writes,
        sync_ops=total_sync,
        cores_on=mapping.active_cores,
        im_banks_on=len(mapping.im_banks_used),
        dm_banks_on=mapping.dm_banks_active,
        platform_cores=num_cores if multicore else 1,
    )
    power = compute_power(activity, point, multicore=multicore,
                          params=energy, process=process)
    return SimulationResult(
        mode=mode,
        mapping=mapping,
        operating_point=point,
        required_mhz=required,
        activity=activity,
        power=power,
        im_broadcast_fraction=im_merged / total_fetch if total_fetch else 0.0,
        dm_broadcast_fraction=dm_merged / total_dm if total_dm else 0.0,
        runtime_overhead=total_sync / total_executed
        if total_executed else 0.0,
        max_latency_s=max_queue / point.cycles_per_second,
        duration_s=duration_s,
    )


def _assert_same(app, mode, schedule, **kwargs):
    """Both engines give ``==`` results, or raise the same error."""
    try:
        expected = _reference_simulate(app, mode, schedule, **kwargs)
    except (MappingError, ValueError) as exc:
        with pytest.raises(type(exc)) as raised:
            simulate(app, mode, schedule, **kwargs)
        assert str(raised.value) == str(exc)
        return None
    got = simulate(app, mode, schedule, **kwargs)
    for field in ("activity", "power", "operating_point", "required_mhz",
                  "im_broadcast_fraction", "dm_broadcast_fraction",
                  "runtime_overhead", "max_latency_s", "duration_s"):
        assert getattr(got, field) == getattr(expected, field), field
    # ``==`` on floats also equates 0.0 and -0.0; repr does not.
    assert repr(got) == repr(expected)
    return got


def _random_schedule(rng, ticks, beats):
    """Abnormal and normal beats, duplicates and out-of-range samples."""
    events = [BeatEvent(sample=rng.randrange(-50, ticks + 50),
                        abnormal=rng.random() < 0.6)
              for _ in range(beats)]
    doubled = [event for event in events[:beats // 4] if event.abnormal]
    return events + doubled


PAPER_APPS = {
    "3L-MF": three_lead_mf,
    "3L-MMD": three_lead_mmd,
    "RP-CLASS": rp_class,
    "RP-CLASS-50": lambda: rp_class(0.5),
}


@pytest.mark.parametrize("mode", MODES, ids=lambda mode: mode.value)
@pytest.mark.parametrize("name", sorted(PAPER_APPS))
def test_paper_apps_match_reference(name, mode):
    app = PAPER_APPS[name]()
    for ratio in (0.0, 0.2, 1.0):
        _assert_same(app, mode, uniform_schedule(12.0, app.fs,
                                                 abnormal_ratio=ratio),
                     duration_s=12.0)


@pytest.mark.parametrize("mode", MODES, ids=lambda mode: mode.value)
def test_generated_apps_match_reference(mode):
    rng = random.Random(14)
    for app in generate_suite(14, 12):
        duration = rng.choice((0.5, 3.0, 9.0))
        ticks = int(round(duration * app.fs))
        for floor_mhz in (MIN_SYSTEM_CLOCK_MHZ, 0.5):
            _assert_same(app, mode, _random_schedule(rng, ticks, 40),
                         duration_s=duration, floor_mhz=floor_mhz)


@pytest.mark.parametrize("mode", MODES, ids=lambda mode: mode.value)
def test_beats_sharing_a_tick_and_out_of_range(mode):
    app = rp_class(0.5)
    ticks = int(round(4.0 * app.fs))
    schedule = [BeatEvent(sample=sample, abnormal=True)
                for sample in (-1, 0, 0, 0, 7, 7, 300, ticks - 1, ticks,
                               ticks + 9)]
    schedule.append(BeatEvent(sample=300, abnormal=False))
    _assert_same(app, mode, schedule, duration_s=4.0)


def test_single_core_hosts_every_triggered_phase():
    app = rp_class(0.5)
    triggered = [phase for phase in app.phases
                 if phase.trigger is Trigger.ON_ABNORMAL]
    assert len(triggered) >= 2  # several phases feed core 0
    rng = random.Random(3)
    ticks = int(round(6.0 * app.fs))
    _assert_same(app, Mode.SINGLE_CORE, _random_schedule(rng, ticks, 60),
                 duration_s=6.0)


@pytest.mark.parametrize("mode", (Mode.MULTI_CORE, Mode.MULTI_CORE_NO_SYNC),
                         ids=lambda mode: mode.value)
def test_overloaded_core_matches_reference(mode):
    # Size the clock for a lighter copy of the app, then replay the
    # full load: the busiest streaming cores fall behind on every tick.
    app = three_lead_mmd()
    light = dataclasses.replace(app, phases=[
        dataclasses.replace(phase,
                            cycles_per_sample=phase.cycles_per_sample / 2)
        for phase in app.phases])
    mapping = dataclasses.replace(map_multicore(app), app=light)
    with obs.collecting() as registry:
        result = _assert_same(app, mode, uniform_schedule(3.0, app.fs),
                              duration_s=3.0, mapping=mapping,
                              floor_mhz=0.01)
    counters = registry.counters
    assert result.max_latency_s > 0
    # Every tick of every core the clock cannot keep up with took the
    # scalar path.
    capacity = result.operating_point.cycles_per_second / app.fs
    overloaded = 0
    for assignment in mapping.assignments:
        phase = app.phase(assignment.phase)
        if phase.trigger is not Trigger.STREAMING:
            continue
        load = phase.cycles_per_sample + (
            phase.sync_ops_per_sample if mode is Mode.MULTI_CORE else 0.0)
        overloaded += load > capacity
    assert overloaded
    assert counters["engine.ticks.stepped"] >= overloaded * 3 * app.fs


def test_coalesced_mapping_matches_reference():
    app = three_lead_mmd()
    candidate = candidate_from_plan(map_multicore(app))
    cores = [0] * len(candidate.cores)
    cores[-1] = 1
    mapping = plan_from_candidate(app, dataclasses.replace(
        candidate, cores=tuple(cores)))
    rng = random.Random(5)
    ticks = int(round(5.0 * app.fs))
    for mode in (Mode.MULTI_CORE, Mode.MULTI_CORE_NO_SYNC):
        _assert_same(app, mode, _random_schedule(rng, ticks, 30),
                     duration_s=5.0, mapping=mapping)


@pytest.mark.parametrize("mode", MODES, ids=lambda mode: mode.value)
def test_blocks_and_boundaries(mode):
    app = rp_class(0.5)
    ticks = 3 * BLOCK_TICKS + 17
    duration = ticks / app.fs
    samples = (BLOCK_TICKS - 1, BLOCK_TICKS, 2 * BLOCK_TICKS,
               2 * BLOCK_TICKS, 3 * BLOCK_TICKS - 2)
    schedule = [BeatEvent(sample=sample, abnormal=True)
                for sample in samples]
    assert int(round(duration * app.fs)) == ticks
    _assert_same(app, mode, schedule, duration_s=duration)


@pytest.mark.parametrize("mode", MODES, ids=lambda mode: mode.value)
def test_zero_tick_run(mode):
    app = three_lead_mmd()
    # Both replay nothing, then refuse to average power over no cycle.
    assert _assert_same(app, mode, [BeatEvent(sample=0, abnormal=True)],
                        duration_s=0.0) is None
    with pytest.raises(ValueError, match="at least one cycle"):
        simulate(app, mode, [], duration_s=0.0)


def test_mismatched_mapping_raises_like_reference():
    app = three_lead_mf()
    _assert_same(app, Mode.SINGLE_CORE, [], duration_s=1.0,
                 mapping=map_multicore(app))


def test_steady_runs_are_not_stepped():
    # No abnormal beat arrives and every core keeps up at the platform
    # floor, so no core-tick needs the scalar recurrence.
    app = three_lead_mf()
    with obs.collecting() as registry:
        simulate(app, Mode.MULTI_CORE, uniform_schedule(10.0, app.fs),
                 duration_s=10.0)
    assert registry.counters["engine.ticks"] == 2500
    assert "engine.ticks.stepped" not in registry.counters
