"""One WBSN network node: clock + radio + a mapped application.

A :class:`NetworkNode` wraps one :func:`repro.sysc.engine.simulate`
run — the paper's multi-core sensor node with its intra-node
synchronizer — and surrounds it with the network-level concerns the
paper stops short of: a drifting :class:`repro.net.clock.LocalClock`,
a beacon :mod:`radio <repro.net.radio>` whose message energy is folded
into the node's :class:`~repro.power.energy.PowerReport`, and a
pluggable :mod:`time-sync <repro.net.timesync>` protocol estimating
the reference node's clock.

The application itself comes from the scenario's pluggable
:mod:`app source <repro.net.appsource>`: fixed Table I benchmarks,
generated-suite draws placed by a mapping policy, or a weighted mix.
The node simulates whatever plan its binding carries, so
heterogeneous fleets pay each node's *own* clock floor and power.

Nodes are pure functions of ``(scenario, fleet seed, node id)``: every
random draw comes from named per-node streams, so a node simulated in
a worker process is bit-identical to the same node simulated inline
(the contract :mod:`repro.net.fleet` builds on).
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass

from .. import obs
from ..apps.phases import AppSpec
from ..power.energy import PowerReport
from ..sysc.engine import BeatEvent, Mode, cached_uniform_schedule
from .appsource import APPS, AppBinding
from .compute import ComputeRequest, ResolvedCompute, build_request
from .clock import LocalClock, draw_clock
from .hierarchy import hop_error_samples
from .radio import Beacon, RadioEnergy, receive_beacons
from .scenarios import Scenario
from .stats import SyncError

__all__ = [
    "APPS",
    "ERROR_SAMPLE_HZ",
    "REFERENCE_NODE_ID",
    "NetworkNode",
    "NodeReplay",
    "NodeResult",
    "build_node",
    "sample_grid",
]

#: Node id of the sync reference (the continuously powered hub).
REFERENCE_NODE_ID = 0

#: Error-sampling rate of the residual sync error (Hz of global time).
ERROR_SAMPLE_HZ = 5.0


def sample_grid(duration_s: float) -> tuple[list[float], int]:
    """Residual-error sample times of a run and its steady start.

    Samples fall every ``1 / ERROR_SAMPLE_HZ`` s of global time; the
    steady window is the suffix from the first sample at or after
    ``duration_s / 2`` (``steady_index == len(sample_times)`` when
    there is none).
    """
    count = int(duration_s * ERROR_SAMPLE_HZ)
    sample_times = [(i + 1) / ERROR_SAMPLE_HZ for i in range(count)]
    return sample_times, bisect.bisect_left(sample_times, duration_s / 2.0)


@dataclass(frozen=True)
class NodeResult:
    """Everything one node's simulation produces.

    Attributes:
        node_id: fleet-wide id (0 is the reference).
        app_name: application the node ran.
        protocol: sync protocol name ("reference" for node 0).
        drift_ppm: the node's sampled oscillator drift.
        bpm: the node's sampled heart rate.
        resets: power-loss reboots suffered during the run.
        beacons_heard: sync beacons actually received.
        radio_uw: average radio power, µW.
        power: node power decomposition (includes a ``radio``
            category on top of the paper's components).
        sync: residual sync error over the whole run (empty for the
            reference node, which *defines* reference time).
        steady_sync: residual sync error over the second half.
        unsync: the free-running counterfactual — the error the same
            node shows when it ignores every beacon.  Computed in the
            same replay (the baseline is just the raw local clock),
            so one fleet run yields both sides of the comparison.
        steady_unsync: free-running error over the second half.
        token: regeneration token of a generated app ("" for
            benchmarks).
        family: topology family of a generated app ("" for
            benchmarks).
        policy: mapping policy that placed the app ("" = paper
            default).
        floor_mhz: the placement's own clock requirement (0 when the
            paper default was derived inside the simulator).
        repairs: replicas trimmed to fit the platform.
        compute_key: content-addressed key of the node's app-compute
            work.
        compute_tier: which tier resolved it (``"exact"`` /
            ``"analytic"``).
    """

    node_id: int
    app_name: str
    protocol: str
    drift_ppm: float
    bpm: float
    resets: int
    beacons_heard: int
    radio_uw: float
    power: PowerReport
    sync: SyncError
    steady_sync: SyncError
    unsync: SyncError
    steady_unsync: SyncError
    token: str = ""
    family: str = ""
    policy: str = ""
    floor_mhz: float = 0.0
    repairs: int = 0
    compute_key: str = ""
    compute_tier: str = ""


def _stream(fleet_seed: int, node_id: int, stream: str) -> random.Random:
    """A named, order-independent per-node random stream.

    String seeding hashes through SHA-512 inside :class:`random.Random`,
    so streams are stable across processes and Python invocations
    (never ``hash()``, which is salted per process).
    """
    return random.Random(f"{fleet_seed}:{node_id}:{stream}")


class NetworkNode:
    """One node of the fleet, ready to simulate.

    Build with :func:`build_node` so every parameter is drawn from the
    node's own seeded streams.
    """

    def __init__(
        self,
        node_id: int,
        scenario: Scenario,
        binding: AppBinding,
        bpm: float,
        clock: LocalClock,
        rng_radio: random.Random,
        duration_s: float,
    ) -> None:
        self.node_id = node_id
        self.scenario = scenario
        self.binding = binding
        self.bpm = bpm
        self.clock = clock
        self.duration_s = duration_s
        self._rng_radio = rng_radio
        self.is_reference = node_id == REFERENCE_NODE_ID

    @property
    def app_name(self) -> str:
        """Name of the bound application."""
        return self.binding.name

    @property
    def app(self) -> AppSpec:
        """The bound (possibly repaired) application spec."""
        return self.binding.app

    def schedule(self) -> tuple[BeatEvent, ...]:
        """The node's beat schedule (memoised across same-shape nodes)."""
        return cached_uniform_schedule(
            self.duration_s,
            self.app.fs,
            bpm=self.bpm,
            abnormal_ratio=self.scenario.abnormal_ratio,
        )

    def mode(self) -> Mode:
        """Simulator mode the node's placement calls for."""
        plan = self.binding.plan
        return (
            Mode.MULTI_CORE
            if plan is None or plan.multicore
            else Mode.SINGLE_CORE
        )

    def compute_request(self) -> ComputeRequest:
        """Content-address the node's app-compute work."""
        return build_request(
            self.binding, self.mode(), self.duration_s, self.schedule()
        )

    def simulate(
        self,
        beacons: list[Beacon],
        sample_times: list[float],
        ref_readings: list[float],
    ) -> NodeReplay:
        """Run the node's radio and sync over one window.

        Args:
            beacons: the reference node's broadcast schedule.
            sample_times: global times at which the residual sync
                error is sampled (sorted, as :func:`sample_grid`
                builds them).
            ref_readings: the reference clock's exact reading at each
                sample time (``len(sample_times)`` values).

        Returns:
            everything but the app compute, which a fleet resolves
            for all its nodes at once
            (:class:`repro.net.compute.ComputeResolver`);
            :meth:`NodeReplay.result` adds the node's entry.
        """
        energy = RadioEnergy()
        errors: list[float] = []
        base_errors: list[float] = []
        if self.is_reference:
            energy.tx_messages = len(beacons)
            heard = 0
        else:
            receptions = receive_beacons(
                beacons, self.clock, self.scenario.radio, self._rng_radio
            )
            energy.rx_messages = heard = len(receptions)
            errors, base_errors = hop_error_samples(
                self.scenario.protocol,
                receptions,
                self.clock,
                sample_times,
                ref_readings,
            )
        steady = bisect.bisect_left(sample_times, self.duration_s / 2.0)

        radio_uw = energy.average_uw(self.scenario.radio, self.duration_s)
        obs.add("net.node.simulations")
        if heard:
            obs.add("net.node.beacons_heard", heard)
        return NodeReplay(
            request=self.compute_request(),
            fields=dict(
                node_id=self.node_id,
                app_name=self.app_name,
                protocol=(
                    "reference"
                    if self.is_reference
                    else self.scenario.protocol
                ),
                drift_ppm=self.clock.spec.drift_ppm,
                bpm=self.bpm,
                resets=self.clock.resets_before(self.duration_s),
                beacons_heard=heard,
                radio_uw=radio_uw,
                sync=SyncError.from_samples(errors),
                steady_sync=SyncError.from_samples(errors[steady:]),
                unsync=SyncError.from_samples(base_errors),
                steady_unsync=SyncError.from_samples(base_errors[steady:]),
                token=self.binding.token,
                family=self.binding.family,
                policy=self.binding.policy,
                floor_mhz=self.binding.floor_mhz,
                repairs=self.binding.repairs,
            ),
        )


@dataclass(frozen=True)
class NodeReplay:
    """One node's simulated window, short of its app compute.

    It holds none of the node's random streams, so a fleet can keep
    one per node while it resolves every node's compute in one batch.

    Attributes:
        request: the node's content-addressed compute work.
        fields: every :class:`NodeResult` field but ``power`` and the
            compute provenance.
    """

    request: ComputeRequest
    fields: dict

    def result(self, compute: ResolvedCompute) -> NodeResult:
        """The node's result, with its pre-resolved compute entry
        (the radio joins the app's power decomposition)."""
        power = compute.report()
        power.categories["radio"] = self.fields["radio_uw"]
        return NodeResult(
            power=power,
            compute_key=compute.key,
            compute_tier=compute.tier,
            **self.fields,
        )


def build_node(
    scenario: Scenario, node_id: int, fleet_seed: int, duration_s: float
) -> NetworkNode:
    """Construct one node from its seeded streams.

    The node's application comes from the scenario's app source
    (benchmark mix, generated suite or weighted union); everything
    else — heart rate, drift, offset, reset schedule — is drawn from
    the same named streams as before, so benchmark-backed scenarios
    reproduce the historical fleets bit-for-bit.

    The reference node (id 0) is the hub: it is continuously powered
    (no power-loss resets) but its oscillator drifts like any other —
    the fleet synchronizes to it, not to true time.
    """
    rng_app = _stream(fleet_seed, node_id, "app")
    binding = scenario.apps.bind(rng_app, scenario.abnormal_ratio)
    bpm = rng_app.uniform(*scenario.bpm_range)

    loss_rate = (
        0.0 if node_id == REFERENCE_NODE_ID else scenario.power_loss_rate_hz
    )
    clock = draw_clock(
        rng_app,
        scenario,
        _stream(fleet_seed, node_id, "clock"),
        duration_s,
        loss_rate,
    )
    return NetworkNode(
        node_id=node_id,
        scenario=scenario,
        binding=binding,
        bpm=bpm,
        clock=clock,
        rng_radio=_stream(fleet_seed, node_id, "radio"),
        duration_s=duration_s,
    )
