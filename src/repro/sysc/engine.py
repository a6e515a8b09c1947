"""System-level behavioural simulator (the paper's SystemC analogue).

Sec. IV-C: cycle-accurate (RTL) simulation of 60 s of ECG is
infeasible, so the paper annotates a SystemC architectural model with
per-component energies and simulates at the application level.  This
module is that model: it replays a beat schedule through a mapped
application at *sample granularity*, tracking per-core work queues,
clock-gated cycles, instruction/data traffic, broadcast merging and
synchronization activity — everything
:func:`repro.power.energy.compute_power` needs, plus the behavioural
rows of Table I.

Three execution modes mirror the paper's comparisons:

* ``SINGLE_CORE`` — the baseline: all phases time-share one core that
  is sized to the average workload (duty ~1 at the chosen clock).
* ``MULTI_CORE`` — the proposed system: one core per phase replica,
  clock-gating through the synchronizer, lock-step broadcast.
* ``MULTI_CORE_NO_SYNC`` — the Fig. 6 strawman: same mapping but
  *active waiting* instead of SLEEP (idle capacity burns as spin
  loops) and no lock-step recovery (no instruction broadcast).

The model is a per-tick recurrence: on every sample each core enqueues
its streaming load (plus the work of any abnormal beat arriving), then
executes ``min(queue, capacity)`` cycles.  The replay steps a core only
when its queue has work.  A tick on which the queue is ``0.0``, no beat
arrives and ``load <= capacity`` executes exactly ``load`` and leaves
the queue at ``0.0``, so whole runs of such ticks up to the next
arrival are filled in bulk.  The scalar recurrence runs on arrival
ticks, on the ticks that drain the queue after them and on every tick
of an overloaded core; ``engine.ticks.stepped`` counts those
core-ticks.

The results are bit-identical to stepping every tick.  Each running
sum (per-core executed, spin, data accesses and sync ops; the merged
IM and DM accesses) is formed from the same per-tick terms, laid out in
the loop's order and reduced with ``np.add.accumulate``, which adds
strictly left to right.  A skipped add appears as a ``0.0`` term, which
leaves these non-negative sums unchanged.  A lock-step group's merge
term is a function of its members' executed cycles, so it is computed
once for the steady tick and in Python, with the loop's own
expression, for every other distinct tick.  The tick axis is walked in
blocks of :data:`BLOCK_TICKS`, carrying queues and sums across blocks,
so scratch memory does not grow with the simulated duration.
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .. import obs
from ..apps.mapping import (
    MappingPlan,
    map_multicore,
    map_singlecore,
    plan_required_mhz,
)
from ..apps.phases import AppSpec, Trigger
from ..power.components import DEFAULT_ENERGY, EnergyParams
from ..power.energy import ActivityVector, PowerReport, compute_power
from ..power.process import DEFAULT_PROCESS, ProcessModel
from ..power.vfs import (
    MIN_SYSTEM_CLOCK_MHZ,
    OperatingPoint,
    plan_operating_point,
)
from ..signals.records import EcgRecord

#: Data accesses per cycle of a busy-wait polling loop (one flag load
#: every ~3 instructions).
SPIN_DM_RATE = 1.0 / 3.0

#: Fraction of executed synchronization instructions that end up as a
#: (merged) memory modification of a sync point; SLEEPs never write
#: and same-cycle batches collapse into single writes.
SYNC_WRITE_FRACTION = 0.5

#: Ticks replayed per block.  Scratch arrays are ``cores x BLOCK_TICKS``
#: wide, so the replay's memory does not grow with ``duration_s``.
BLOCK_TICKS = 512


class Mode(enum.Enum):
    """Execution configuration being simulated."""

    SINGLE_CORE = "single-core"
    MULTI_CORE = "multi-core"
    MULTI_CORE_NO_SYNC = "multi-core-no-sync"


@dataclass(frozen=True)
class BeatEvent:
    """One heartbeat in the input schedule.

    Attributes:
        sample: R-peak position in samples.
        abnormal: True when the beat triggers the on-demand chain.
    """

    sample: int
    abnormal: bool


def schedule_from_record(record: EcgRecord) -> list[BeatEvent]:
    """Extract the beat schedule of a synthesised record."""
    return [BeatEvent(sample=beat.sample, abnormal=beat.is_pathological)
            for beat in record.annotations]


def uniform_schedule(duration_s: float, fs: float, bpm: float = 72.0,
                     abnormal_ratio: float = 0.0) -> list[BeatEvent]:
    """Synthetic schedule with uniformly spread abnormal beats.

    Matches the Fig. 7 setting ("the abnormal heartbeats have been
    distributed uniformly") without synthesising waveforms.
    """
    period = 60.0 / bpm * fs
    count = int(duration_s * fs / period)
    if count <= 0:
        return []
    abnormal_target = abnormal_ratio * count
    events = []
    credit = 0.0
    for index in range(count):
        credit += abnormal_target / count
        abnormal = credit >= 1.0
        if abnormal:
            credit -= 1.0
        events.append(BeatEvent(sample=int((index + 0.6) * period),
                                abnormal=abnormal))
    return events


@lru_cache(maxsize=4096)
def cached_uniform_schedule(duration_s: float, fs: float,
                            bpm: float = 72.0,
                            abnormal_ratio: float = 0.0
                            ) -> tuple[BeatEvent, ...]:
    """Memoised :func:`uniform_schedule` (immutable tuple form).

    Fleets rebuild identical schedules for every node that shares a
    ``(duration, fs, bpm, abnormal_ratio)`` shape; this caches the
    construction per process.  The result is a tuple of frozen
    :class:`BeatEvent` values, so sharing one schedule across nodes
    (and threads) is safe — ``simulate()`` only ever reads it.
    """
    return tuple(uniform_schedule(duration_s, fs, bpm=bpm,
                                  abnormal_ratio=abnormal_ratio))


@dataclass
class SimulationResult:
    """Everything one (application, mode) simulation produces.

    Attributes:
        mode: simulated configuration.
        mapping: the mapping plan used.
        operating_point: chosen clock and voltage (VFS).
        required_mhz: clock requirement before the platform floor.
        activity: platform-neutral counters for the power model.
        power: average-power decomposition.
        im_broadcast_fraction: Table I "IM Broadcast".
        dm_broadcast_fraction: Table I "DM Broadcast".
        runtime_overhead: Table I "Run-time Overhead".
        max_latency_s: worst work-queue latency observed (real-time
            check; streaming phases must stay near zero).
        duration_s: simulated time span.
    """

    mode: Mode
    mapping: MappingPlan
    operating_point: OperatingPoint
    required_mhz: float
    activity: ActivityVector
    power: PowerReport
    im_broadcast_fraction: float
    dm_broadcast_fraction: float
    runtime_overhead: float
    max_latency_s: float
    duration_s: float

    @property
    def app_name(self) -> str:
        """Benchmark name."""
        return self.mapping.app.name

    @property
    def code_overhead(self) -> float:
        """Table I "Code Overhead" (static, from the mapping)."""
        return self.mapping.code_overhead


@dataclass
class _CoreState:
    """Static work description of one simulated core."""

    phase_name: str
    streaming_cycles: float  # enqueued every sample
    streaming_sync: float
    dm_rate: float
    group: str | None = None  # lock-step group (phase name)
    shared_read_fraction: float = 0.0
    alignment: float = 0.0

    @property
    def load(self) -> float:
        """Cycles enqueued on every tick."""
        return self.streaming_cycles + self.streaming_sync


def _chain(totals: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """``totals[j] + terms[0, j] + terms[1, j] + ...``, top to bottom.

    ``np.add.accumulate`` adds strictly in sequence, so every column
    gets the rounding of a scalar ``+=`` loop (``np.sum`` pairs terms
    up and ``n * x`` rounds once, so neither would).
    """
    return np.add.accumulate(
        np.concatenate((totals[None, :], terms)), axis=0)[-1]


def _replay_core(queue: float, load: float, capacity: float,
                 steady: bool, arrivals: list[tuple[int, int]],
                 work: list[float], ticks: int
                 ) -> tuple[float, list[int], list[float], float]:
    """Step one core's queue through a block of ``ticks`` ticks.

    Ticks on which the queue is empty, no beat arrives and the core
    can absorb its load (``steady``) execute exactly ``load`` and leave
    the queue at ``0.0``; they are skipped.  Every other tick runs the
    scalar queue recurrence.

    Args:
        queue: queued cycles carried in from the previous block.
        load: cycles enqueued on every tick.
        capacity: cycles a tick can execute.
        steady: ``load <= capacity``.
        arrivals: ``(tick, beats)`` of this block, block-relative and
            ascending (empty when no arrival feeds this core).
        work: cycles one beat enqueues, per feeding phase in order.
        ticks: block length.

    Returns:
        ``(queue, stepped ticks, cycles executed on each, peak queue)``.
    """
    stepped: list[int] = []
    executed: list[float] = []
    peak = 0.0
    pending = 0
    tick = 0
    while tick < ticks:
        if queue == 0.0 and steady:
            if pending == len(arrivals):
                break
            tick = arrivals[pending][0]
        if pending < len(arrivals) and arrivals[pending][0] == tick:
            beats = arrivals[pending][1]
            pending += 1
            for cycles in work:
                queue += cycles * beats
        queue += load
        done = capacity if capacity < queue else queue
        queue -= done
        stepped.append(tick)
        executed.append(done)
        if queue > peak:
            peak = queue
        tick += 1
    return queue, stepped, executed, peak


def _merge_terms(executed: list[float], members: list[_CoreState]
                 ) -> tuple[float, float]:
    """One tick's broadcast-merged (IM, DM) accesses of a lock-step group.

    ``(0.0, 0.0)`` when fewer than two members execute; adding that to
    the non-negative running sums changes no bit.
    """
    active = [(done, state) for done, state in zip(executed, members)
              if done > 0]
    if len(active) < 2:
        return 0.0, 0.0
    share = (len(active) - 1) / len(active)
    fetched = sum(done for done, _ in active)
    lead = active[0][1]
    im = lead.alignment * share * fetched
    dm = (lead.alignment * share * lead.shared_read_fraction
          * sum(done * state.dm_rate for done, state in active))
    return im, dm


@dataclass
class _Replay:
    """Running sums of one replay (per-core lists are in core order)."""

    executed: list[float]
    spin: list[float]
    dm_accesses: list[float]
    sync_ops: list[float]
    im_merged: float
    dm_merged: float
    max_queue: float
    stepped: int  # core-ticks that ran the scalar recurrence


def _replay(cores: list[_CoreState], work: list[list[float]],
            sync: list[list[float]], arrivals: list[tuple[int, int]],
            ticks: int, capacity: float, spin: bool) -> _Replay:
    """Replay every core's work queue over ``ticks`` ticks.

    Args:
        cores: the simulated cores.
        work: per core, cycles one beat enqueues, per feeding phase.
        sync: per core, sync ops one beat adds, aligned with ``work``.
        arrivals: ``(tick, abnormal beats)`` in ``[0, ticks)``,
            ascending.
        ticks: ticks to replay.
        capacity: cycles a tick can execute.
        spin: idle capacity busy-waits (``MULTI_CORE_NO_SYNC``).
    """
    count = len(cores)
    load = np.array([state.load for state in cores])
    steady = [state.load <= capacity for state in cores]
    dm_rate = np.array([state.dm_rate for state in cores])
    streaming_sync = np.array([state.streaming_sync for state in cores])
    # Beat terms padded with zero units to one width: a 0.0 term added
    # to a non-negative sum changes no bit.
    width = max(len(units) for units in sync)
    sync_units = np.zeros((count, width))
    for index, units in enumerate(sync):
        sync_units[index, :len(units)] = units
    groups: dict[str, list[int]] = {}
    for index, state in enumerate(cores):
        if state.group is not None:
            groups.setdefault(state.group, []).append(index)
    members = [[cores[index] for index in indices]
               for indices in groups.values()]
    steady_merge = [_merge_terms([state.load for state in group], group)
                    for group in members]

    queues = [0.0] * count
    executed = np.zeros(count)
    spun = np.zeros(count)
    dm_accesses = np.zeros(count)
    sync_ops = np.zeros(count)
    merged = np.zeros(2)  # IM, DM
    max_queue = 0.0
    stepped = 0
    arrival_ticks = [tick for tick, _ in arrivals]
    for start in range(0, ticks, BLOCK_TICKS):
        length = min(BLOCK_TICKS, ticks - start)
        first = bisect.bisect_left(arrival_ticks, start)
        last = bisect.bisect_left(arrival_ticks, start + length)
        block_arrivals = [(tick - start, number)
                          for tick, number in arrivals[first:last]]
        beats = np.zeros(length)
        for tick, number in block_arrivals:
            beats[tick] = number

        # Cycles each core executes per tick: ``load`` unless stepped.
        done = np.repeat(load[None, :], length, axis=0)
        for index in range(count):
            queue, at, values, peak = _replay_core(
                queues[index], cores[index].load, capacity,
                steady[index], block_arrivals if work[index] else [],
                work[index], length)
            queues[index] = queue
            if at:
                done[at, index] = values
                stepped += len(at)
                if peak > max_queue:
                    max_queue = peak

        # Per-tick terms of each running sum, tick-major in the scalar
        # loop's order.
        executed = _chain(executed, done)
        accesses = done * dm_rate
        if spin:
            idle = capacity - done
            spun = _chain(spun, idle)
            accesses = np.stack((accesses, idle * SPIN_DM_RATE), axis=1)
        dm_accesses = _chain(dm_accesses, accesses.reshape(-1, count))
        ops = np.empty((length, width + 1, count))
        ops[:, :width] = beats[:, None, None] * sync_units.T[None]
        ops[:, width] = streaming_sync
        sync_ops = _chain(sync_ops, ops.reshape(-1, count))

        # Merged accesses, tick-major then group order.  A tick on which
        # every member executed its load repeats the steady term.
        terms = np.empty((length, len(members), 2))
        for column, indices in enumerate(groups.values()):
            terms[:, column] = steady_merge[column]
            rows = done[:, indices]
            odd = np.flatnonzero((rows != load[indices]).any(axis=1))
            memo: dict[tuple[float, ...], tuple[float, float]] = {}
            found = []
            for values in rows[odd].tolist():
                key = tuple(values)
                term = memo.get(key)
                if term is None:
                    term = memo[key] = _merge_terms(values, members[column])
                found.append(term)
            if found:
                terms[odd, column] = found
        merged = _chain(merged, terms.reshape(-1, 2))

    return _Replay(
        executed=executed.tolist(), spin=spun.tolist(),
        dm_accesses=dm_accesses.tolist(), sync_ops=sync_ops.tolist(),
        im_merged=float(merged[0]), dm_merged=float(merged[1]),
        max_queue=max_queue, stepped=stepped)


def _required_clock_mhz(app: AppSpec, mode: Mode,
                        schedule: Sequence[BeatEvent],
                        duration_s: float,
                        mapping: MappingPlan) -> float:
    """Sizing step of Sec. V-A: the minimum clock for real time."""
    if mode is Mode.SINGLE_CORE:
        abnormal = sum(1 for event in schedule if event.abnormal)
        streaming = app.streaming_cycles_per_sample * app.fs
        triggered = (abnormal * app.triggered_cycles_per_beat
                     / duration_s if duration_s > 0 else 0.0)
        return (streaming + triggered) / 1e6
    # Multi-core: the busiest *streaming* core sets the clock; the
    # on-demand chain runs at beat rate with a relaxed (multi-beat)
    # deadline and never dominates.  Cores hosting several streaming
    # phases (coalesced search placements) are sized for their summed
    # load.
    return plan_required_mhz(mapping, with_sync=mode is Mode.MULTI_CORE)


def simulate(app: AppSpec, mode: Mode, schedule: Sequence[BeatEvent],
             duration_s: float = 60.0, num_cores: int = 8,
             energy: EnergyParams = DEFAULT_ENERGY,
             process: ProcessModel = DEFAULT_PROCESS,
             floor_mhz: float = MIN_SYSTEM_CLOCK_MHZ,
             mapping: MappingPlan | None = None) -> SimulationResult:
    """Simulate one application in one configuration.

    Args:
        app: benchmark application.
        mode: configuration to simulate.
        schedule: input beat schedule (drives the on-demand phases).
        duration_s: simulated time span (the paper uses 60 s).
        num_cores: cores of the multi-core platform.
        energy: component-energy calibration.
        process: VFS process model.
        floor_mhz: minimum system clock the VFS planner may choose
            (the paper's platform floor is 1 MHz; sweeps raise it to
            probe VFS sensitivity).
        mapping: a precomputed mapping plan for ``app`` (the policy
            explorer evaluates alternative placements this way); the
            paper's default placement is derived when omitted.

    Raises:
        ValueError: ``mapping`` targets the wrong platform kind for
            ``mode``.
    """
    app.validate()
    multicore = mode is not Mode.SINGLE_CORE
    if mapping is None:
        mapping = map_multicore(app, num_cores) if multicore \
            else map_singlecore(app)
    elif mapping.multicore != multicore:
        raise ValueError(
            f"mapping is {'multi' if mapping.multicore else 'single'}"
            f"-core but mode is {mode.value}")
    required = _required_clock_mhz(app, mode, schedule, duration_s,
                                   mapping)
    point = plan_operating_point(required, process=process,
                                 single_core=not multicore,
                                 floor_mhz=floor_mhz)

    # ------------------------------------------------------------------
    # Build per-core state.
    # ------------------------------------------------------------------
    with_sync = mode is Mode.MULTI_CORE
    cores: list[_CoreState] = []
    triggered_cores: dict[str, list[int]] = {}
    if multicore:
        for assignment in mapping.assignments:
            phase = app.phase(assignment.phase)
            streaming = phase.trigger is Trigger.STREAMING
            state = _CoreState(
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
        cores.append(_CoreState(
            phase_name="all", streaming_cycles=streaming_total,
            streaming_sync=0.0, dm_rate=blended_rate))
        for phase in app.phases:
            if phase.trigger is not Trigger.STREAMING:
                triggered_cores.setdefault(phase.name, []).append(0)

    # ------------------------------------------------------------------
    # Replay the work queues at sample granularity.
    # ------------------------------------------------------------------
    fs = app.fs
    ticks = int(round(duration_s * fs))
    capacity = point.cycles_per_second / fs  # cycles per tick
    beats_by_tick: dict[int, int] = {}
    for event in schedule:
        if event.abnormal and 0 <= event.sample < ticks:
            beats_by_tick[event.sample] = \
                beats_by_tick.get(event.sample, 0) + 1

    obs.add("engine.simulations")
    obs.add(f"engine.mode.{mode.value}")
    obs.add("engine.ticks", ticks)
    abnormal_beats = sum(beats_by_tick.values())
    if abnormal_beats:
        obs.add("engine.beats.abnormal", abnormal_beats)

    triggered_sync = {
        phase.name: (phase.sync_ops_per_sample if with_sync else 0.0)
        for phase in app.phases
    }
    # What one beat enqueues on each core, in the phase order of the
    # arrival stage (a single core hosts every triggered phase).
    work: list[list[float]] = [[] for _ in cores]
    sync: list[list[float]] = [[] for _ in cores]
    for phase in app.phases:
        if phase.trigger is not Trigger.ON_ABNORMAL:
            continue
        for core_index in triggered_cores.get(phase.name, []):
            work[core_index].append(
                (phase.cycles_per_sample + triggered_sync[phase.name])
                * app.beat_span_samples)
            sync[core_index].append(
                triggered_sync[phase.name] * app.beat_span_samples)

    replay = _replay(cores, work, sync, sorted(beats_by_tick.items()),
                     ticks, capacity,
                     spin=mode is Mode.MULTI_CORE_NO_SYNC)
    if replay.stepped:
        obs.add("engine.ticks.stepped", replay.stepped)
    im_merged = replay.im_merged
    dm_merged = replay.dm_merged

    # ------------------------------------------------------------------
    # Aggregate.
    # ------------------------------------------------------------------
    total_executed = sum(replay.executed)
    total_spin = sum(replay.spin)
    total_fetch = total_executed + total_spin
    total_dm = sum(replay.dm_accesses)
    total_sync = sum(replay.sync_ops) if with_sync else 0.0
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
        max_latency_s=replay.max_queue / point.cycles_per_second,
        duration_s=duration_s,
    )
