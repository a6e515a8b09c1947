"""Fleet runner tests: determinism, sharding edge cases, scale."""

import pytest

from repro.net import fleet
from repro.net.fleet import FleetConfig, FleetRunner, run_fleet
from repro.net.node import REFERENCE_NODE_ID
from repro.net.scenarios import get_scenario
from repro.net.stats import SyncError


def _config(n_nodes, scenario="dense-ward", duration_s=4.0, seed=3):
    return FleetConfig(scenario=get_scenario(scenario), n_nodes=n_nodes,
                       duration_s=duration_s, seed=seed)


def test_serial_and_parallel_are_bit_identical():
    config = _config(7)
    serial = FleetRunner(config).run(workers=1)
    parallel = FleetRunner(config).run(workers=3)
    assert parallel.mode == "parallel"
    assert serial.mode == "serial"
    assert parallel.summary == serial.summary
    assert parallel.nodes == serial.nodes
    assert serial.summary.n_nodes == 7
    assert serial.nodes_per_second > 0


def test_shard_count_not_dividing_node_count():
    config = _config(7)
    baseline = FleetRunner(config).run(workers=1)
    # 7 nodes on 3 workers -> shards of 3, 3, 1.
    uneven = FleetRunner(config).run(workers=3)
    assert uneven.shards == 3 and uneven.workers == 3
    assert uneven.summary == baseline.summary
    assert uneven.nodes == baseline.nodes


def test_every_node_is_built_once(monkeypatch):
    built = []
    build_node = fleet.build_node

    def counted(scenario, node_id, *args):
        built.append(node_id)
        return build_node(scenario, node_id, *args)

    monkeypatch.setattr(fleet, "build_node", counted)
    result = FleetRunner(_config(5)).run(workers=1)
    assert built == [0, 1, 2, 3, 4]
    assert len(result.nodes) == 5


def test_zero_node_fleet_is_empty_but_valid():
    for workers in (1, 2):
        result = FleetRunner(_config(0)).run(workers=workers)
        assert result.nodes == ()
        assert result.summary.n_nodes == 0
        assert result.summary.total_power_uw == 0
        assert result.summary.sync == SyncError()


def test_single_node_fleet_is_the_reference_alone():
    result = FleetRunner(_config(1)).run(workers=2)
    assert len(result.nodes) == 1
    node = result.nodes[0]
    assert node.node_id == REFERENCE_NODE_ID
    assert node.protocol == "reference"
    assert node.beacons_heard == 0
    assert result.summary.beacons_sent > 0  # it still broadcasts
    assert result.summary.sync.count == 0  # nobody to be out of sync


def test_same_seed_reproduces_different_seed_differs():
    a = FleetRunner(_config(5, seed=42)).run()
    b = FleetRunner(_config(5, seed=42)).run()
    c = FleetRunner(_config(5, seed=43)).run()
    assert a.summary == b.summary and a.nodes == b.nodes
    assert c.summary != a.summary


def test_radio_energy_lands_in_the_power_report():
    result = FleetRunner(_config(3)).run()
    reference, *followers = result.nodes
    # The hub pays per-beacon TX energy on top of the listening floor.
    spec = get_scenario("dense-ward").radio
    assert reference.radio_uw > spec.listen_uw
    for node in followers:
        assert node.power.categories["radio"] == node.radio_uw
        assert node.radio_uw > 0.0
    # Radio is part of the node's total power decomposition.
    assert reference.power.total_uw > sum(
        v for k, v in reference.power.categories.items() if k != "radio")


def test_runner_validates_arguments():
    with pytest.raises(ValueError):
        FleetRunner(_config(-1))
    with pytest.raises(ValueError):
        FleetRunner(FleetConfig(scenario=get_scenario("dense-ward"),
                                n_nodes=1, duration_s=0.0))
    runner = FleetRunner(_config(2))
    with pytest.raises(ValueError):
        runner.run(workers=0)


def test_merged_sync_error_matches_global_statistics():
    result = FleetRunner(_config(6, scenario="drifting-wearables")).run()
    followers = [n for n in result.nodes if n.node_id != 0]
    merged = SyncError.merged([n.sync for n in followers])
    assert merged.count == sum(n.sync.count for n in followers)
    assert merged.max_abs_s == max(n.sync.max_abs_s for n in followers)
    weighted = sum(n.sync.count * n.sync.mean_abs_s for n in followers)
    assert merged.mean_abs_s == pytest.approx(weighted / merged.count)


# ---------------------------------------------------------------------------
# Acceptance: >= 200 drifting nodes for >= 10 s, parallel == serial.
# ---------------------------------------------------------------------------

def test_200_drifting_nodes_parallel_matches_serial():
    common = dict(n_nodes=200, duration_s=10.0, seed=1)
    serial = run_fleet("drifting-wearables", workers=1, **common)
    parallel = run_fleet("drifting-wearables", workers=4, **common)
    assert parallel.mode == "parallel" and parallel.shards == 4
    assert serial.summary.n_nodes == 200
    assert serial.summary.duration_s == 10.0
    assert parallel.summary == serial.summary
    assert parallel.nodes == serial.nodes
    # The fleet really is heterogeneous: drifts spread both ways and
    # several applications are mapped.
    drifts = {round(n.drift_ppm, 3) for n in serial.nodes}
    assert len(drifts) > 100
    assert min(n.drift_ppm for n in serial.nodes) < 0 < \
        max(n.drift_ppm for n in serial.nodes)
    assert len({n.app_name for n in serial.nodes}) > 1
