"""Vectorised analytic cost model over populations of candidates.

The behavioural simulator's tick loop is closed-form reducible for
multi-core placements: streaming phases always drain within their tick
(the VFS clock is sized for the busiest core, so per-replica capacity
covers per-replica load by construction) and triggered phases drain a
known work batch per abnormal beat.  Every activity counter the power
model consumes therefore splits into

* a **base** that depends only on ``(application, duration)`` — the
  per-replica executed/sync/data-access totals of the phases — and
* a **candidate part** that depends only on the chosen clock (the
  per-core summed streaming load), the distinct cores and the distinct
  IM banks of the placement.

:class:`AnalyticModel` precomputes the base once and scores whole
populations of :class:`~repro.search.space.Candidate` mappings per
call with batched numpy arithmetic: an ``N x num_cores`` scatter-add
for the clock floor, a ``searchsorted`` over the process fmax grid for
the voltage, and the :func:`repro.power.energy.compute_power` formulas
replicated element-wise.  The reduction is *exact up to float
associativity* — :mod:`repro.oracle.calibrate` keeps that claim
honest against ``simulate()`` — and everything is a pure function of
its inputs, so populations score byte-deterministically across
processes and ``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..apps.mapping import distinct_sections
from ..apps.phases import AppSpec, Trigger
from ..isa.layout import DmGeometry, ImGeometry
from ..power.components import DEFAULT_ENERGY, EnergyParams
from ..power.energy import PowerReport
from ..power.process import DEFAULT_PROCESS, ProcessModel
from ..power.vfs import MIN_SYSTEM_CLOCK_MHZ, OperatingPoint
from ..search.cost import (
    COMPOSITE_CLOCK_WEIGHT_UW_PER_MHZ,
    ORACLE_ABNORMAL_RATIO,
    ORACLE_DURATION_S,
    ORACLE_KINDS,
)
from ..search.space import Candidate
from ..sysc.engine import (
    SYNC_WRITE_FRACTION,
    BeatEvent,
    uniform_schedule,
)


@dataclass(frozen=True)
class PopulationScores:
    """Analytic scores of one scored population (parallel arrays).

    Attributes:
        kind: cost kind the ``cost`` array minimises.
        cost: scalar cost per candidate (the screen ranking key).
        power_uw: average platform power per candidate.
        clock_mhz: VFS operating clock per candidate.
        voltage: supply voltage per candidate.
        required_mhz: clock requirement before the platform floor.
        duty_cycle: executed cycles / provisioned core cycles.
        sync_overhead: executed sync ops / executed cycles.
        code_overhead: inserted sync words / total code words
            (placement-independent, one scalar for the population).
        active_cores: distinct cores per candidate.
        im_banks: distinct IM banks per candidate.
        run_s: exact simulated span (``ticks / fs``) the power figures
            average over — the duration a matching ``simulate()`` run
            reports on its :class:`~repro.power.energy.PowerReport`.
        categories_uw: per-category power arrays in
            ``compute_power``'s category order (one array per
            category, one entry per candidate).
    """

    kind: str
    cost: np.ndarray
    power_uw: np.ndarray
    clock_mhz: np.ndarray
    voltage: np.ndarray
    required_mhz: np.ndarray
    duty_cycle: np.ndarray
    sync_overhead: np.ndarray
    code_overhead: float
    active_cores: np.ndarray
    im_banks: np.ndarray
    run_s: float = 0.0
    categories_uw: dict[str, np.ndarray] | None = None

    def __len__(self) -> int:
        return len(self.cost)

    def power_report(self, index: int) -> PowerReport:
        """The exact-oracle-shaped power report of one candidate.

        Categories come out in ``compute_power``'s insertion order, so
        ``total_uw`` sums in the same float order as the exact path.
        """
        if self.categories_uw is None:
            raise ValueError("population was scored without categories")
        return PowerReport(
            operating_point=OperatingPoint(
                frequency_mhz=float(self.clock_mhz[index]),
                voltage=float(self.voltage[index])),
            duration_s=self.run_s,
            categories={name: float(values[index])
                        for name, values in self.categories_uw.items()},
        )

    def metrics(self, index: int) -> dict:
        """The metric mapping of one candidate (exact-oracle shape)."""
        return {
            "power_uw": float(self.power_uw[index]),
            "clock_mhz": float(self.clock_mhz[index]),
            "voltage": float(self.voltage[index]),
            "required_mhz": float(self.required_mhz[index]),
            "duty_cycle": float(self.duty_cycle[index]),
            "sync_overhead": float(self.sync_overhead[index]),
            "code_overhead": float(self.code_overhead),
            "im_banks": int(self.im_banks[index]),
            "active_cores": int(self.active_cores[index]),
        }


def _code_overhead(app: AppSpec) -> float:
    """Table I "Code Overhead" of any multi-core placement of ``app``.

    Mirrors :meth:`repro.apps.mapping.MappingPlan.code_overhead`:
    phases sharing the same section tuple carry the same inserted
    instructions, counted once.  Placement-independent.
    """
    by_sections: dict[tuple[str, ...], int] = {}
    for phase in app.phases:
        key = tuple(section.name for section in phase.sections)
        by_sections[key] = phase.sync_code_words
    sync_words = sum(by_sections.values())
    total = (app.runtime_words
             + sum(s.words for s in distinct_sections(app))
             + sync_words)
    return sync_words / total if total else 0.0


@dataclass(frozen=True)
class _TriggeredPhase:
    """Precomputed base of one ON_ABNORMAL phase."""

    work_per_beat: float  # cycles + sync, over the whole beat span
    replicas: int
    dm_rate: float
    merge_weight: float  # alignment * (replicas - 1), 0 if no group
    shared_read_fraction: float


class AnalyticModel:
    """Closed-form reduction of ``simulate()`` for one application.

    Precomputes the per-``(app, duration)`` activity base in the
    constructor (one pass over the phases plus one beat schedule — no
    tick loop), then scores arbitrarily many candidates per
    :meth:`score` call with vectorised numpy arithmetic.

    Args:
        app: the (already repaired) application being placed.
        num_cores: provisioned platform width.
        kind: cost kind, one of
            :data:`repro.search.cost.ORACLE_KINDS`.
        duration_s: simulated seconds the scores correspond to.
        geometry: IM geometry (platform default when omitted).
        floor_mhz: minimum system clock of the VFS planner.
        energy: per-component energies at the reference voltage.
        process: VFS process model.
        abnormal_ratio: pathological-beat ratio applied when the app
            has triggered phases (the exact oracle's convention).
        schedule: explicit beat schedule to reduce instead of the
            synthesised uniform one — fleet nodes carry their own
            bpm-specific schedules; only the abnormal beats matter to
            the reduction, exactly as in ``simulate()``.

    Raises:
        ValueError: unknown cost kind or non-positive duration.
    """

    def __init__(self, app: AppSpec, num_cores: int = 8,
                 kind: str = "power",
                 duration_s: float = ORACLE_DURATION_S,
                 geometry: ImGeometry | None = None,
                 floor_mhz: float = MIN_SYSTEM_CLOCK_MHZ,
                 energy: EnergyParams = DEFAULT_ENERGY,
                 process: ProcessModel = DEFAULT_PROCESS,
                 abnormal_ratio: float = ORACLE_ABNORMAL_RATIO,
                 schedule: "Sequence[BeatEvent] | None" = None) -> None:
        if kind not in ORACLE_KINDS:
            raise ValueError(
                f"unknown cost oracle {kind!r}; choose from "
                f"{list(ORACLE_KINDS)}")
        if duration_s <= 0.0:
            raise ValueError("oracle duration must be positive")
        app.validate()
        self.app = app
        self.num_cores = num_cores
        self.kind = kind
        self.duration_s = duration_s
        self.geometry = geometry or ImGeometry()
        self.floor_mhz = floor_mhz
        self.energy = energy
        self.process = process

        fs = app.fs
        self.ticks = int(round(duration_s * fs))
        self._run_s = self.ticks / fs  # cycles / cycles_per_second
        self._fs = fs
        self._code_overhead = _code_overhead(app)
        self._dm_banks_on = DmGeometry().banks

        # Canonical slot order: (phase, replica) pairs, app phase
        # order, replicas ascending — the Candidate convention.
        self._slot_loads: list[float] = []
        self._section_names = tuple(sorted(
            section.name for section in distinct_sections(app)))

        if schedule is None:
            has_triggered = any(phase.trigger is Trigger.ON_ABNORMAL
                                for phase in app.phases)
            ratio = abnormal_ratio if has_triggered else 0.0
            schedule = uniform_schedule(duration_s, fs,
                                        abnormal_ratio=ratio)
        # Candidate-independent activity base (streaming phases drain
        # every tick; triggered sync ops are counted at enqueue).
        exec_stream = 0.0
        dm_stream = 0.0
        im_merged = 0.0
        dm_merged = 0.0
        span = app.beat_span_samples
        # Sync-op terms in phase order: (coefficient, per_arrival).  A
        # triggered phase's term scales with the schedule's abnormal
        # arrivals, so every schedule sums its own sync total.
        self._sync_terms: list[tuple[float, bool]] = []
        self._triggered: list[_TriggeredPhase] = []
        for phase in app.phases:
            grouped = phase.replicas > 1 and phase.lockstep_alignment > 0
            if phase.trigger is Trigger.STREAMING:
                load = phase.cycles_per_sample + phase.sync_ops_per_sample
                self._slot_loads.extend(
                    [load * fs / 1e6] * phase.replicas)
                member = load * self.ticks
                exec_stream += phase.replicas * member
                self._sync_terms.append((
                    phase.replicas * phase.sync_ops_per_sample
                    * self.ticks, False))
                dm_stream += phase.replicas * member * phase.dm_access_rate
                if grouped and load > 0:
                    weight = (phase.lockstep_alignment
                              * (phase.replicas - 1))
                    im_merged += weight * member
                    dm_merged += (weight * member * phase.dm_access_rate
                                  * phase.shared_read_fraction)
            else:
                self._slot_loads.extend([0.0] * phase.replicas)
                work = (phase.cycles_per_sample
                        + phase.sync_ops_per_sample) * span
                self._sync_terms.append((
                    phase.replicas * phase.sync_ops_per_sample * span,
                    True))
                self._triggered.append(_TriggeredPhase(
                    work_per_beat=work,
                    replicas=phase.replicas,
                    dm_rate=phase.dm_access_rate,
                    merge_weight=(phase.lockstep_alignment
                                  * (phase.replicas - 1))
                    if grouped else 0.0,
                    shared_read_fraction=phase.shared_read_fraction,
                ))
        self._counts, self._gaps = self._beat_steps(schedule)
        self._sync_total = self._sync_sum(sum(self._counts))
        self._exec_stream = exec_stream
        self._dm_stream = dm_stream
        self._im_merged_stream = im_merged
        self._dm_merged_stream = dm_merged

        # fmax grid as arrays for the vectorised voltage lookup.
        self._grid_fmax = np.array(
            [fmax for _, fmax in process.fmax_table])
        self._grid_volts = np.array(
            [volt for volt, _ in process.fmax_table])

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def _as_arrays(self, candidates) -> tuple[np.ndarray, np.ndarray]:
        """(N, slots) core ids and (N, sections) bank ids, validated."""
        slots = len(self._slot_loads)
        cores = np.empty((len(candidates), slots), dtype=np.int64)
        banks = np.empty((len(candidates), len(self._section_names)),
                         dtype=np.int64)
        for row, candidate in enumerate(candidates):
            if len(candidate.cores) != slots:
                raise ValueError(
                    f"candidate has {len(candidate.cores)} core slots; "
                    f"{self.app.name} needs {slots}")
            names = tuple(name for name, _ in candidate.section_banks)
            if names != self._section_names:
                raise ValueError(
                    f"candidate section set {names} does not match "
                    f"{self._section_names}")
            cores[row] = candidate.cores
            banks[row] = [bank for _, bank in candidate.section_banks]
        if cores.size and (cores.min() < 0
                           or cores.max() >= self.num_cores):
            raise ValueError(
                f"candidate uses cores outside 0..{self.num_cores - 1}")
        if banks.size and (banks.min() < 0
                           or banks.max() >= self.geometry.banks):
            raise ValueError(
                f"candidate uses IM banks outside "
                f"0..{self.geometry.banks - 1}")
        return cores, banks

    def _beat_steps(
        self, schedule: Sequence[BeatEvent]
    ) -> tuple[list[int], list[int]]:
        """(counts, gaps) of a schedule's abnormal beats in ``[0, ticks)``.

        One step per distinct beat tick: the beats arriving there and
        the ticks until the next arrival (or the end of the run) —
        the only schedule properties the multi-core reduction reads.
        """
        beats_by_tick: dict[int, int] = {}
        for event in schedule:
            if event.abnormal and 0 <= event.sample < self.ticks:
                beats_by_tick[event.sample] = \
                    beats_by_tick.get(event.sample, 0) + 1
        ticks = sorted(beats_by_tick)
        gaps = [next_tick - tick for tick, next_tick
                in zip(ticks, ticks[1:] + [self.ticks])]
        return [beats_by_tick[tick] for tick in ticks], gaps

    def _row_steps(
        self, schedules: Sequence[Sequence[BeatEvent]]
    ) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray]:
        """Per-row beat steps as padded columns, plus arrivals per row.

        Rows with fewer steps are padded with zero-count, zero-gap
        steps, which leave the replay queue untouched bit for bit.
        """
        steps = [self._beat_steps(schedule) for schedule in schedules]
        width = max(len(counts) for counts, _ in steps)
        counts = np.zeros((len(steps), width), dtype=np.int64)
        gaps = np.zeros((len(steps), width), dtype=np.int64)
        for row, (row_counts, row_gaps) in enumerate(steps):
            counts[row, :len(row_counts)] = row_counts
            gaps[row, :len(row_gaps)] = row_gaps
        return list(counts.T), list(gaps.T), counts.sum(axis=1)

    def _sync_sum(self, arrivals):
        """Executed sync ops of a schedule with ``arrivals`` beats.

        Summed in phase order; ``arrivals`` may be one count or an
        array of per-row counts.
        """
        total = 0.0
        for coefficient, per_arrival in self._sync_terms:
            total += coefficient * arrivals if per_arrival else coefficient
        return total

    def _triggered_executed(
        self, capacity: np.ndarray, counts: Sequence, gaps: Sequence
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(executed, dm, im_merged, dm_merged) parts per candidate.

        Replays the arrival queue of every triggered phase at *beat*
        granularity: between arrivals a queue drains ``min(queue,
        gap_ticks * capacity)`` cycles, exactly as the tick loop
        would, so the per-member executed total is exact even when the
        drain is cut short by the end of the run.  Each step's count
        and gap is either shared by every row or one value per row.
        """
        n = len(capacity)
        executed = np.zeros(n)
        dm = np.zeros(n)
        im_merged = np.zeros(n)
        dm_merged = np.zeros(n)
        if not len(counts):
            return executed, dm, im_merged, dm_merged
        for phase in self._triggered:
            queue = np.zeros(n)
            member = np.zeros(n)
            for count, gap in zip(counts, gaps):
                queue += count * phase.work_per_beat
                drain = np.minimum(queue, gap * capacity)
                member += drain
                queue -= drain
            executed += phase.replicas * member
            dm += phase.replicas * member * phase.dm_rate
            if phase.merge_weight > 0:
                im_merged += phase.merge_weight * member
                dm_merged += (phase.merge_weight * member * phase.dm_rate
                              * phase.shared_read_fraction)
        return executed, dm, im_merged, dm_merged

    def score(self, candidates,
              schedules: "Sequence[Sequence[BeatEvent]] | None" = None
              ) -> PopulationScores:
        """Score a whole population of candidates in one call.

        Args:
            candidates: a sequence of feasible
                :class:`~repro.search.space.Candidate` mappings of
                this model's application.
            schedules: one beat schedule per candidate, so rows with
                different schedules (fleet nodes with their own
                abnormal beats) score in the same call; only their
                abnormal beats matter, as for the constructor's
                ``schedule``.  None scores every row against the
                constructor's schedule.  Either way a row's figures
                are bit-identical to scoring it alone against a model
                built with its schedule.

        Returns:
            Parallel score arrays, one entry per candidate, in input
            order.

        Raises:
            ValueError: empty population, ``schedules`` not matching
                the candidates one for one, or a candidate whose
                slots, sections, cores or banks do not fit this
                application and platform.
        """
        if not len(candidates):
            raise ValueError("cannot score an empty population")
        cores, banks = self._as_arrays(candidates)
        n = len(candidates)
        rows = np.arange(n)
        if schedules is None:
            counts, gaps = self._counts, self._gaps
            sync_total = self._sync_total
        else:
            if len(schedules) != n:
                raise ValueError(
                    f"{len(schedules)} schedules for {n} candidates")
            counts, gaps, arrivals = self._row_steps(schedules)
            sync_total = self._sync_sum(arrivals)

        # Clock floor: per-core summed streaming load, slot by slot in
        # the same order plan_required_mhz accumulates it.
        loads = np.zeros((n, self.num_cores))
        for slot, load in enumerate(self._slot_loads):
            if load > 0.0:
                loads[rows, cores[:, slot]] += load
        required = loads.max(axis=1) if self.num_cores else np.zeros(n)
        clock = np.maximum(required, self.floor_mhz)

        # Voltage: smallest grid voltage whose fmax reaches the clock.
        grid = np.searchsorted(self._grid_fmax, clock - 1e-12,
                               side="left")
        if grid.max() >= len(self._grid_fmax):
            worst = float(clock.max())
            raise ValueError(
                f"no grid voltage reaches {worst} MHz "
                f"(max {self._grid_fmax[-1]} MHz)")
        voltage = self._grid_volts[grid]

        capacity = clock * 1e6 / self._fs  # cycles per tick
        wall = self.ticks * capacity
        trig_exec, trig_dm, trig_im_merged, trig_dm_merged = \
            self._triggered_executed(capacity, counts, gaps)

        total_executed = self._exec_stream + trig_exec
        total_dm = self._dm_stream + trig_dm
        sync_writes = sync_total * SYNC_WRITE_FRACTION
        im_accesses = (total_executed
                       - (self._im_merged_stream + trig_im_merged))
        dm_accesses = (total_dm
                       - (self._dm_merged_stream + trig_dm_merged)
                       + sync_writes)
        grants = total_executed + total_dm + sync_writes

        # Footprint: distinct cores and distinct IM banks.
        presence = np.zeros((n, self.num_cores), dtype=bool)
        presence[rows[:, None], cores] = True
        active_cores = presence.sum(axis=1)
        bank_presence = np.zeros((n, self.geometry.banks), dtype=bool)
        bank_presence[rows[:, None], banks] = True
        im_banks = bank_presence.sum(axis=1)

        # compute_power, element-wise (same expressions, same order).
        params = self.energy
        process = self.process
        dyn = (voltage / process.reference_voltage) \
            ** process.dynamic_exponent
        leak = (voltage / process.reference_voltage) \
            ** process.leakage_exponent
        cores_pj = total_executed * params.core_active_pj
        clock_pj = (wall * (params.clock_root_base_pj
                            + params.clock_root_per_core_pj
                            * self.num_cores)
                    + total_executed * params.clock_branch_pj)
        im_pj = im_accesses * params.im_access_pj
        dm_pj = dm_accesses * params.dm_access_pj
        xbar_pj = grants * params.xbar_grant_pj
        sync_pj = (sync_total * params.sync_op_pj
                   + wall * params.sync_idle_pj)

        def to_uw(pico_joules):
            return pico_joules * dyn / self._run_s * 1e-6

        leakage_uw = leak * (
            im_banks * params.leak_im_bank_uw
            + self._dm_banks_on * params.leak_dm_bank_uw
            + active_cores * params.leak_core_uw
            + params.leak_xbar_uw)
        # Per-category arrays in compute_power's insertion order, so a
        # report rebuilt from them sums total_uw in the same float
        # order as the exact path.
        categories_uw = {
            "cores_logic": to_uw(cores_pj),
            "clock_tree": to_uw(clock_pj),
            "instr_mem": to_uw(im_pj),
            "data_mem": to_uw(dm_pj),
            "interconnect": to_uw(xbar_pj),
            "synchronizer": to_uw(sync_pj),
            "leakage": np.asarray(leakage_uw),
        }
        power_uw = (to_uw(cores_pj) + to_uw(clock_pj) + to_uw(im_pj)
                    + to_uw(dm_pj) + to_uw(xbar_pj) + to_uw(sync_pj)
                    + leakage_uw)

        provisioned = wall * active_cores
        duty = np.divide(total_executed, provisioned,
                         out=np.zeros(n), where=provisioned > 0)
        sync_overhead = np.divide(
            np.full(n, sync_total), total_executed,
            out=np.zeros(n), where=total_executed > 0)

        if self.kind == "clock":
            cost = clock.copy()
        elif self.kind == "power":
            cost = power_uw.copy()
        else:
            cost = (power_uw
                    + COMPOSITE_CLOCK_WEIGHT_UW_PER_MHZ * clock)
        return PopulationScores(
            kind=self.kind,
            cost=cost,
            power_uw=power_uw,
            clock_mhz=clock,
            voltage=voltage,
            required_mhz=required,
            duty_cycle=duty,
            sync_overhead=sync_overhead,
            code_overhead=self._code_overhead,
            active_cores=active_cores,
            im_banks=im_banks,
            run_s=self._run_s,
            categories_uw=categories_uw,
        )

    def score_one(self, candidate: Candidate) -> float:
        """The scalar analytic cost of one candidate."""
        return float(self.score([candidate]).cost[0])


def score_population(app: AppSpec, candidates,
                     num_cores: int = 8, kind: str = "power",
                     duration_s: float = ORACLE_DURATION_S,
                     geometry: ImGeometry | None = None,
                     floor_mhz: float = MIN_SYSTEM_CLOCK_MHZ
                     ) -> PopulationScores:
    """Score a population of candidate mappings analytically.

    One-shot convenience over :class:`AnalyticModel` — builds the
    model (one pass over the phases, no simulation) and scores the
    whole population in a single vectorised call.  Use the class
    directly when scoring several populations of the same application
    so the activity base is computed once.

    Args:
        app: the application the candidates place.
        candidates: feasible :class:`~repro.search.space.Candidate`
            mappings (see :func:`repro.search.space.violations`).
        num_cores: provisioned platform width.
        kind: cost kind, one of
            :data:`repro.search.cost.ORACLE_KINDS`.
        duration_s: simulated seconds the scores correspond to.
        geometry: IM geometry (platform default when omitted).
        floor_mhz: minimum system clock of the VFS planner.

    Returns:
        :class:`PopulationScores` — parallel arrays in input order;
        ``scores.cost`` is the ranking key of the requested kind.

    Raises:
        ValueError: bad kind/duration, empty population, or a
            candidate that does not fit the application/platform.
    """
    model = AnalyticModel(app, num_cores=num_cores, kind=kind,
                          duration_s=duration_s, geometry=geometry,
                          floor_mhz=floor_mhz)
    return model.score(candidates)
