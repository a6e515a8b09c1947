"""Fleet-scale compute fast path: cache + batched analytic scoring.

Every fleet node pays two kinds of work.  The radio/clock/sync part —
beacon reception, drift replay, residual-error sampling — is cheap,
node-specific and stays exact.  The *app compute* part (the
:class:`~repro.power.energy.PowerReport` from a full cycle-level
:func:`repro.sysc.engine.simulate` run) is expensive and massively
shared: thousands of nodes bind the same ``(app, plan, mode,
num_cores, duration)`` and differ only in heart rate, which the
simulator reduces to the beat schedule's *abnormal* events.

This module resolves that shared part through three tiers:

1. **ComputeCache** — a process-local memo plus an optional disk
   layer, a :class:`repro.store.Store`, keyed by ``(app fingerprint,
   plan hash, mode, num_cores, duration_s, schedule signature)``.
   The memo holds every entry; the disk holds only exact entries and
   calibration blocks, because re-scoring an analytic entry is
   cheaper than writing its file.  A cached entry is served only at
   the tier this run gives its key, so a run's result never depends
   on what ran before it.
2. **Batched analytic tier** — all distinct uncached multi-core keys
   in a fleet/wave are grouped per application (across beat
   schedules: each row of the batch carries its own schedule) and
   scored in one :meth:`repro.oracle.AnalyticModel.score` call per
   application, gated by :func:`repro.oracle.calibrate` (outside
   tolerance = nothing is screened).
3. **Exact fallback** — plain ``simulate()`` for single-core plans,
   unconvertible placements, or when the analytic tier is off.

Results travel as plain JSON payloads (:data:`COMPUTE_ENTRY_SCHEMA`)
and are rebuilt into fresh ``PowerReport`` objects with the category
insertion order of :func:`repro.power.energy.compute_power`, so a
cache hit is byte-identical to the simulation it replaced — cold and
warm runs ``cmp`` equal.

Counters (``net.compute.*``) use *logical* cache semantics — hits are
``requests - distinct keys``, independent of what happens to be on
disk — so metrics artifacts stay deterministic across cache states,
worker counts and resume points.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from .. import obs
from ..apps.mapping import MappingPlan, map_multicore
from ..apps.phases import AppSpec
from ..power.energy import PowerReport
from ..power.vfs import MIN_SYSTEM_CLOCK_MHZ, OperatingPoint
from ..store import Store, digest
from ..sysc.engine import BeatEvent, Mode, simulate

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .appsource import AppBinding

__all__ = [
    "ANALYTIC_TIER",
    "CALIBRATE_DURATION_S",
    "CALIBRATE_SAMPLES",
    "COMPUTE_CACHE_ENV",
    "COMPUTE_ENTRY_SCHEMA",
    "COMPUTE_MODES",
    "EXACT_TIER",
    "ComputeCache",
    "ComputeRequest",
    "ComputeResolution",
    "ComputeResolver",
    "ComputeSettings",
    "ComputeSummary",
    "ResolvedCompute",
    "app_plan_key",
    "build_request",
    "clear_process_caches",
    "compute_key",
    "compute_settings",
    "record_compute_counters",
    "report_from_payload",
    "schedule_signature",
]

#: Environment override for the on-disk compute cache root.  Unlike
#: the sweep cache there is *no* implicit home-directory default: the
#: disk layer is off unless a root is configured here or per run.
COMPUTE_CACHE_ENV = "REPRO_COMPUTE_CACHE"

#: Schema tag of one cached compute entry.
COMPUTE_ENTRY_SCHEMA = "repro-compute-entry/1"

#: Recognised resolver modes (CLI ``--compute`` choices).
COMPUTE_MODES = ("exact", "analytic")

#: Tier labels recorded on resolved entries.
EXACT_TIER = "exact"
ANALYTIC_TIER = "analytic"
_CALIBRATION_TIER = "calibration"

#: Reduced calibration budget: the gate runs once per fleet per
#: platform width, so a couple of short samples per app suffice (the
#: analytic model is closed-form — its error does not depend on the
#: simulated duration).
CALIBRATE_SAMPLES = 2
CALIBRATE_DURATION_S = 0.5

#: Category insertion order of :func:`repro.power.energy.compute_power`
#: — ``PowerReport.total_uw`` sums in this order, so cached payloads
#: must rebuild it to stay float-for-float identical to a live run.
_CATEGORY_ORDER = (
    "cores_logic",
    "clock_tree",
    "instr_mem",
    "data_mem",
    "interconnect",
    "synchronizer",
    "leakage",
)


@dataclass(frozen=True)
class ComputeSettings:
    """How a fleet resolves its app-compute work.

    Attributes:
        mode: ``"exact"`` (cache + dedupe, every miss simulated) or
            ``"analytic"`` (misses screened by the calibrated
            analytic model where possible).
        cache_dir: on-disk cache root; None means the
            :data:`COMPUTE_CACHE_ENV` override or, failing that,
            process-local memoisation only.

    Frozen and hashable so it can ride inside
    :class:`~repro.net.fleet.FleetConfig`.
    """

    mode: str = "exact"
    cache_dir: str | None = None

    def __post_init__(self) -> None:
        if self.mode not in COMPUTE_MODES:
            raise ValueError(
                f"unknown compute mode {self.mode!r}; choose from "
                f"{list(COMPUTE_MODES)}"
            )


def compute_settings(
    compute: "str | ComputeSettings",
    cache_dir: str | None = None,
) -> ComputeSettings:
    """Normalise a user-facing ``compute=`` argument.

    Accepts a mode string or a ready-made :class:`ComputeSettings`;
    anything else raises ``ValueError`` naming the valid modes.
    """
    if isinstance(compute, ComputeSettings):
        return compute
    return ComputeSettings(mode=compute, cache_dir=cache_dir)


@dataclass(frozen=True)
class ComputeRequest:
    """One node's app-compute work, content-addressed.

    Attributes:
        key: content hash — nodes sharing it produce byte-identical
            simulation results (the schedule signature covers every
            schedule property ``simulate()`` reads).
        binding: the node's app binding.
        mode: simulator mode the node would run.
        duration_s: simulated seconds.
        schedule: the node's full beat schedule (used only if this
            request is the first of its key to reach the exact tier).
    """

    key: str
    binding: "AppBinding"
    mode: Mode
    duration_s: float
    schedule: tuple[BeatEvent, ...]


@dataclass(frozen=True)
class ResolvedCompute:
    """A resolved compute entry: JSON payload + provenance tier."""

    key: str
    tier: str
    payload: dict

    def report(self) -> PowerReport:
        """A fresh, mutable ``PowerReport`` (safe to annotate)."""
        return report_from_payload(self.payload)


@dataclass(frozen=True)
class ComputeSummary:
    """Deterministic account of one fleet's compute resolution.

    Cache counts are *logical*: ``cache_hits`` is the dedupe win
    (``requests - distinct_keys``) and ``cache_misses`` /
    ``cache_stores`` equal ``distinct_keys`` — independent of the
    physical cache state, so cold and warm runs report identically.
    """

    mode: str
    requests: int
    distinct_keys: int
    screened: int
    exact: int
    calibration: dict | None = None

    @property
    def cache_hits(self) -> int:
        return self.requests - self.distinct_keys

    @property
    def cache_misses(self) -> int:
        return self.distinct_keys

    @property
    def cache_stores(self) -> int:
        return self.distinct_keys

    def to_mapping(self) -> dict:
        """JSON-ready form (the artifact ``compute_summary`` block)."""
        payload = {
            "mode": self.mode,
            "requests": self.requests,
            "distinct_keys": self.distinct_keys,
            "cache": {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "stores": self.cache_stores,
            },
            "screened": self.screened,
            "exact": self.exact,
        }
        if self.calibration is not None:
            payload["calibration"] = self.calibration
        return payload


@dataclass(frozen=True)
class ComputeResolution:
    """Everything a resolver run produced."""

    table: dict[str, ResolvedCompute]
    summary: ComputeSummary


def schedule_signature(
    schedule: Sequence[BeatEvent], ticks: int
) -> list:
    """The schedule properties ``simulate()`` actually reads.

    Multi-core consumes only abnormal events clipped to
    ``[0, ticks)`` (grouped by sample); the single-core clock
    requirement counts *all* abnormal events.  Normal beats never
    influence the result, so two schedules with equal signatures
    yield byte-identical simulations — dense wards (ratio 0) collapse
    every same-app node onto one signature.
    """
    total = 0
    clipped: list[int] = []
    for event in schedule:
        if event.abnormal:
            total += 1
            if 0 <= event.sample < ticks:
                clipped.append(event.sample)
    clipped.sort()
    return [ticks, total, clipped]


def app_plan_key(
    app: AppSpec, plan: MappingPlan | None, num_cores: int
) -> str:
    """Content hash of ``(app, placement, width)``.

    Reuses :func:`repro.gen.generator.app_fingerprint` for the app
    content and the search :meth:`Candidate.key` for multi-core
    placements, so the hash survives process boundaries and
    regeneration (unlike ``id()``-based memo keys).
    """
    from ..gen.generator import app_fingerprint

    if plan is None:
        plan_key = "default"
    elif plan.multicore:
        from ..search.space import candidate_from_plan

        plan_key = candidate_from_plan(plan).key()
    else:
        plan_key = "single-core"
    return digest(
        {
            "app": app_fingerprint(app),
            "num_cores": num_cores,
            "plan": plan_key,
        },
        16,
    )


def compute_key(
    app_key: str,
    mode: Mode,
    duration_s: float,
    signature: list,
    floor_mhz: float = MIN_SYSTEM_CLOCK_MHZ,
) -> str:
    """Content-addressed cache key of one compute unit."""
    return digest(
        {
            "app": app_key,
            "duration_s": duration_s,
            "floor_mhz": floor_mhz,
            "mode": mode.value,
            "schedule": signature,
            "schema": COMPUTE_ENTRY_SCHEMA,
        },
        40,
    )


def build_request(
    binding: "AppBinding",
    mode: Mode,
    duration_s: float,
    schedule: Sequence[BeatEvent],
) -> ComputeRequest:
    """Content-address one node's compute work."""
    from .appsource import binding_app_key

    ticks = int(round(duration_s * binding.app.fs))
    signature = schedule_signature(schedule, ticks)
    key = compute_key(
        binding_app_key(binding), mode, duration_s, signature
    )
    return ComputeRequest(
        key=key,
        binding=binding,
        mode=mode,
        duration_s=duration_s,
        schedule=tuple(schedule),
    )


def payload_from_report(report: PowerReport, tier: str) -> dict:
    """Serialise a ``PowerReport`` into a cache entry payload."""
    return {
        "schema": COMPUTE_ENTRY_SCHEMA,
        "tier": tier,
        "frequency_mhz": report.operating_point.frequency_mhz,
        "voltage": report.operating_point.voltage,
        "duration_s": report.duration_s,
        "categories": dict(report.categories),
    }


def report_from_payload(payload: dict) -> PowerReport:
    """Rebuild a ``PowerReport`` in canonical category order.

    ``total_uw`` sums the category dict in insertion order; JSON
    round-trips (and ``sort_keys``) would reorder it, so the report
    is rebuilt in :data:`_CATEGORY_ORDER` to keep the float sum
    bit-identical to a live ``compute_power`` result.
    """
    categories = payload["categories"]
    ordered = {
        name: float(categories[name])
        for name in _CATEGORY_ORDER
        if name in categories
    }
    for name in sorted(categories):
        if name not in ordered:
            ordered[name] = float(categories[name])
    return PowerReport(
        operating_point=OperatingPoint(
            frequency_mhz=float(payload["frequency_mhz"]),
            voltage=float(payload["voltage"]),
        ),
        duration_s=float(payload["duration_s"]),
        categories=ordered,
    )


#: Process-wide memo of entries and calibration blocks (cache-root
#: independent: payloads are pure functions of their keys).
_MEMO: dict[str, dict] = {}


def clear_process_caches() -> None:
    """Drop the process-local memo (test isolation hook)."""
    _MEMO.clear()


class ComputeCache:
    """Process memo + optional on-disk :class:`repro.store.Store`.

    The cache is deliberately silent in metrics — physical hit
    patterns depend on prior runs, so only the resolver's logical
    counters surface.
    """

    def __init__(self, root: str | Path | None = None) -> None:
        if root is None:
            root = os.environ.get(COMPUTE_CACHE_ENV) or None
        self.root = Path(root) if root is not None else None
        self.store = Store(self.root) if self.root is not None else None

    def get(self, key: str, tier: str) -> dict | None:
        """The entry of ``key`` if it was made at ``tier``, else None.

        Analytic entries never reach disk, so only the memo can
        hold one.
        """
        payload = _MEMO.get(key)
        if (
            payload is None
            and self.store is not None
            and tier != ANALYTIC_TIER
        ):
            field = "errors" if tier == _CALIBRATION_TIER else "categories"
            payload = self.store.get(key, COMPUTE_ENTRY_SCHEMA, field)
            if payload is not None:
                _MEMO[key] = payload
        if payload is None or payload.get("tier") != tier:
            return None
        return payload

    def put(self, key: str, payload: dict) -> None:
        """Store one entry: memo always, disk unless it is analytic.

        Re-scoring an analytic entry in a batch costs far less than
        writing its file, and gives the same bytes.  A failed disk
        write is dropped: the disk layer is an optimisation.
        """
        _MEMO[key] = payload
        if self.store is None or payload["tier"] == ANALYTIC_TIER:
            return
        try:
            self.store.put(key, payload)
        except OSError:
            pass


class ComputeResolver:
    """Resolve a batch of compute requests through the three tiers."""

    def __init__(self, settings: ComputeSettings) -> None:
        self.settings = settings
        self.cache = ComputeCache(settings.cache_dir)

    def resolve(
        self, requests: Sequence[ComputeRequest]
    ) -> ComputeResolution:
        """Resolve every request; returns a key-indexed table.

        Deterministic for a given request set: dedupe, grouping and
        all tier decisions are functions of the content-addressed
        keys alone (never of the physical cache state).
        """
        from ..gen.generator import app_fingerprint
        from .appsource import binding_app_key

        unique: dict[str, ComputeRequest] = {}
        for request in requests:
            unique.setdefault(request.key, request)
        fingerprints: dict[str, str] = {}

        def fingerprint(request: ComputeRequest) -> str:
            """The request's app fingerprint, hashed once per app."""
            app_key = binding_app_key(request.binding)
            if app_key not in fingerprints:
                fingerprints[app_key] = app_fingerprint(request.binding.app)
            return fingerprints[app_key]

        calibration: dict | None = None
        screen = False
        if self.settings.mode != "exact":
            calibration = self._calibration(unique.values(), fingerprint)
            screen = bool(calibration["within"])

        table: dict[str, ResolvedCompute] = {}
        exact_queue: list[ComputeRequest] = []
        groups: dict[str, list[tuple[ComputeRequest, object]]] = {}
        for key in sorted(unique):
            request = unique[key]
            candidate = None
            if screen and request.mode is Mode.MULTI_CORE:
                candidate = self._candidate(request)
            # Served only at the tier this run gives the key: another
            # tier's entry is a miss and gets replaced.
            tier = EXACT_TIER if candidate is None else ANALYTIC_TIER
            payload = self.cache.get(key, tier)
            if payload is not None:
                table[key] = ResolvedCompute(
                    key=key, tier=tier, payload=payload
                )
                continue
            if candidate is None:
                exact_queue.append(request)
            else:
                groups.setdefault(
                    self._group_key(request, fingerprint(request)), []
                ).append((request, candidate))

        for group in sorted(groups):
            self._score_group(groups[group], table, exact_queue)
        for request in sorted(exact_queue, key=lambda r: r.key):
            self._simulate(request, table)

        screened = sum(
            1
            for request in requests
            if table[request.key].tier == ANALYTIC_TIER
        )
        summary = ComputeSummary(
            mode=self.settings.mode,
            requests=len(requests),
            distinct_keys=len(unique),
            screened=screened,
            exact=len(requests) - screened,
            calibration=calibration,
        )
        return ComputeResolution(table=table, summary=summary)

    def _candidate(self, request: ComputeRequest):
        """The request's placement as a search candidate, or None."""
        from ..search.space import candidate_from_plan

        plan = request.binding.plan
        try:
            if plan is None:
                plan = map_multicore(
                    request.binding.app, request.binding.num_cores
                )
            return candidate_from_plan(plan)
        except ValueError:
            return None

    def _group_key(
        self, request: ComputeRequest, fingerprint: str
    ) -> str:
        """Batch key: requests one ``AnalyticModel`` scores together.

        Per application and platform, across beat schedules — each
        row of the batch carries its own schedule.
        """
        return json.dumps(
            [fingerprint, request.binding.num_cores, request.duration_s],
            separators=(",", ":"),
        )

    def _score_group(
        self,
        items: list[tuple[ComputeRequest, object]],
        table: dict[str, ResolvedCompute],
        exact_queue: list[ComputeRequest],
    ) -> None:
        """Score one app group in a single vectorised model call.

        If the batch is rejected, each schedule signature is retried
        as its own batch, so the requests that fall back to the exact
        tier are exactly those of the rejected signatures.
        """
        from ..oracle.model import AnalyticModel

        first = items[0][0]
        with obs.suspended():
            model = AnalyticModel(
                first.binding.app,
                num_cores=first.binding.num_cores,
                kind="power",
                duration_s=first.duration_s,
                schedule=first.schedule,
            )
        if self._score_batch(model, items, table):
            return
        ticks = int(round(first.duration_s * first.binding.app.fs))
        by_signature: dict[str, list[tuple[ComputeRequest, object]]] = {}
        for request, candidate in items:
            signature = schedule_signature(request.schedule, ticks)
            by_signature.setdefault(json.dumps(signature), []).append(
                (request, candidate)
            )
        for signature in sorted(by_signature):
            batch = by_signature[signature]
            if not self._score_batch(model, batch, table):
                exact_queue.extend(request for request, _ in batch)

    def _score_batch(
        self,
        model,
        items: list[tuple[ComputeRequest, object]],
        table: dict[str, ResolvedCompute],
    ) -> bool:
        """Score and store one batch; False if the model rejects it."""
        with obs.suspended():
            try:
                scores = model.score(
                    [candidate for _, candidate in items],
                    schedules=[request.schedule for request, _ in items],
                )
            except ValueError:
                return False
        for index, (request, _) in enumerate(items):
            payload = payload_from_report(
                scores.power_report(index), ANALYTIC_TIER
            )
            self.cache.put(request.key, payload)
            table[request.key] = ResolvedCompute(
                key=request.key, tier=ANALYTIC_TIER, payload=payload
            )
        return True

    def _simulate(
        self,
        request: ComputeRequest,
        table: dict[str, ResolvedCompute],
    ) -> None:
        """Exact tier: one full cycle-level simulation per key.

        Runs under suspended metrics — how many simulations actually
        execute depends on the cache state, so only the logical
        resolver counters are recorded.
        """
        with obs.suspended():
            result = simulate(
                request.binding.app,
                request.mode,
                request.schedule,
                duration_s=request.duration_s,
                num_cores=request.binding.num_cores,
                mapping=request.binding.plan,
            )
        payload = payload_from_report(result.power, EXACT_TIER)
        self.cache.put(request.key, payload)
        table[request.key] = ResolvedCompute(
            key=request.key, tier=EXACT_TIER, payload=payload
        )

    def _calibration(
        self,
        requests: Iterable[ComputeRequest],
        fingerprint: Callable[[ComputeRequest], str],
    ) -> dict:
        """Gate the analytic tier per platform width.

        Calibrates over *every* distinct multi-core app in the
        request set (not only uncached ones) so the block is
        identical cold and warm; memoised in-process and through the
        disk cache.
        """
        from ..oracle.calibrate import CALIBRATE_TOLERANCE

        groups: dict[int, dict[str, AppSpec]] = {}
        for request in requests:
            if request.mode is not Mode.MULTI_CORE:
                continue
            groups.setdefault(request.binding.num_cores, {})[
                fingerprint(request)
            ] = request.binding.app
        blocks = []
        samples = 0
        apps_total = 0
        for num_cores in sorted(groups):
            by_fingerprint = groups[num_cores]
            block = self._calibrate_group(
                [by_fingerprint[f] for f in sorted(by_fingerprint)],
                sorted(by_fingerprint),
                num_cores,
            )
            blocks.append(block)
            samples += int(block["samples"])
            apps_total += int(block["apps"])
        max_error = max(
            (float(block["errors"]["max"]) for block in blocks),
            default=0.0,
        )
        return {
            "tolerance": CALIBRATE_TOLERANCE,
            "within": max_error <= CALIBRATE_TOLERANCE,
            "max_error": max_error,
            "apps": apps_total,
            "samples": samples,
            "groups": blocks,
        }

    def _calibrate_group(
        self,
        apps: list[AppSpec],
        fingerprints: list[str],
        num_cores: int,
    ) -> dict:
        """Calibrate one platform-width group (memoised)."""
        key = digest(
            {
                "apps": fingerprints,
                "duration_s": CALIBRATE_DURATION_S,
                "kind": _CALIBRATION_TIER,
                "num_cores": num_cores,
                "samples": CALIBRATE_SAMPLES,
                "schema": COMPUTE_ENTRY_SCHEMA,
            },
            40,
        )
        payload = self.cache.get(key, _CALIBRATION_TIER)
        if payload is None:
            from ..oracle.calibrate import calibrate, calibration_payload

            with obs.suspended():
                report = calibrate(
                    apps,
                    kind="power",
                    duration_s=CALIBRATE_DURATION_S,
                    num_cores=num_cores,
                    samples=CALIBRATE_SAMPLES,
                    seed=0,
                )
            payload = calibration_payload(report)
            payload["schema"] = COMPUTE_ENTRY_SCHEMA
            payload["tier"] = _CALIBRATION_TIER
            self.cache.put(key, payload)
        return {
            k: v
            for k, v in payload.items()
            if k not in ("schema", "tier")
        }


def record_compute_counters(summary: ComputeSummary) -> None:
    """Emit the deterministic ``net.compute.*`` counters once."""
    if summary.requests:
        obs.add("net.compute.requests", summary.requests)
    if summary.distinct_keys:
        obs.add("net.compute.keys", summary.distinct_keys)
    if summary.cache_hits:
        obs.add("net.compute.cache.hits", summary.cache_hits)
    if summary.cache_misses:
        obs.add("net.compute.cache.misses", summary.cache_misses)
    if summary.cache_stores:
        obs.add("net.compute.cache.stores", summary.cache_stores)
    if summary.screened:
        obs.add("net.compute.screened", summary.screened)
    if summary.exact:
        obs.add("net.compute.exact", summary.exact)
