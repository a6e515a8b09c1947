"""Determinism and reporting of heterogeneous generated-app fleets.

The guarantees under test mirror the homogeneous fleet contract:
identical ``(scenario, seed)`` must produce bit-identical fleets
regardless of worker count, process boundaries or hash
randomisation — now with nodes that regenerate applications and run
mapping policies inside worker processes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.eval.netexp import net_payload, run_net
from repro.net.fleet import run_fleet

_SRC_ROOT = str(Path(repro.__file__).resolve().parent.parent)

#: Serialise one heterogeneous fleet's deterministic artifact.
_DUMP_SCRIPT = """
import json
from repro.eval.netexp import net_payload, run_net
report = run_net(suite_seed=5, suite_count=6, policy="balanced",
                 n_nodes=6, duration_s=2.0, seed=9)
print(json.dumps(net_payload(report), sort_keys=True,
                 separators=(",", ":")))
"""


def _dump_with_hashseed(hashseed: str) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    env["PYTHONPATH"] = _SRC_ROOT + os.pathsep + \
        env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", _DUMP_SCRIPT],
        env=env, capture_output=True, text=True, check=True)
    return result.stdout


def test_heterogeneous_fleet_identical_across_hashseeds():
    dumps = [_dump_with_hashseed(seed) for seed in ("0", "1", "4242")]
    assert dumps[0] == dumps[1] == dumps[2]
    # And the subprocess output matches this very process too.
    report = run_net(suite_seed=5, suite_count=6, policy="balanced",
                     n_nodes=6, duration_s=2.0, seed=9)
    local = json.dumps(net_payload(report), sort_keys=True,
                       separators=(",", ":")) + "\n"
    assert dumps[0] == local


def test_heterogeneous_fleet_workers_do_not_change_bytes():
    """workers=1 and workers=4 produce the same summary and nodes."""
    common = dict(n_nodes=9, duration_s=2.0, seed=4)
    serial = run_fleet("generated-swarm", workers=1, **common)
    parallel = run_fleet("generated-swarm", workers=4, **common)
    assert parallel.mode == "parallel"
    assert parallel.summary == serial.summary
    assert parallel.nodes == serial.nodes
    # the artifact built from either run is the same document
    a = net_payload(run_net(scenario="generated-swarm", workers=1,
                            n_nodes=9, duration_s=2.0, seed=4,
                            suite_seed=None))
    b = net_payload(run_net(scenario="generated-swarm", workers=4,
                            n_nodes=9, duration_s=2.0, seed=4,
                            suite_seed=None))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_mixed_fleet_workers_do_not_change_bytes():
    common = dict(n_nodes=8, duration_s=2.0, seed=6)
    serial = run_fleet("mixed-clinic", workers=1, **common)
    parallel = run_fleet("mixed-clinic", workers=3, **common)
    assert parallel.summary == serial.summary
    assert parallel.nodes == serial.nodes


def test_heterogeneous_summary_carries_breakdowns():
    result = run_fleet("generated-swarm", n_nodes=8, duration_s=2.0,
                       seed=2)
    summary = result.summary
    assert summary.source == "generated-suite"
    assert len(summary.families) > 1 and summary.policies
    assert sum(group.nodes for group in summary.families) == 8
    assert sum(group.nodes for group in summary.policies) == 8
    assert [group.name for group in summary.families] == \
        sorted(group.name for group in summary.families)
    # every node carries its app token and pays its own clock floor
    assert all(node.token for node in result.nodes)
    assert any(node.floor_mhz > 0 for node in result.nodes)
    # follower error samples are fully attributed to family groups
    followers = [n for n in result.nodes if n.node_id != 0]
    assert sum(g.steady_sync.count for g in summary.families) == \
        sum(n.steady_sync.count for n in followers)


def test_benchmark_fleet_summary_stays_benchmark_shaped():
    result = run_fleet("dense-ward", n_nodes=4, duration_s=2.0, seed=2)
    summary = result.summary
    assert summary.source == "benchmark"
    # groups exist (grouped by app name / implicit paper policy) but
    # the artifact and the renderer keep the v1 shape
    payload = net_payload(run_net(scenario="dense-ward", n_nodes=4,
                                  duration_s=2.0, seed=2))
    assert payload["schema"] == "repro-net/1"
    assert "families" not in payload
    assert "token" not in payload["nodes"][0]


def test_heterogeneous_payload_is_v2_with_node_identities():
    report = run_net(suite_seed=5, suite_count=6, policy="balanced",
                     n_nodes=5, duration_s=2.0, seed=9)
    payload = net_payload(report)
    assert payload["schema"] == "repro-net/2"
    assert payload["source"] == "generated-suite"
    assert {group["name"] for group in payload["policies"]} == \
        {"balanced"}
    for node in payload["nodes"]:
        assert node["token"]
        assert node["policy"] == "balanced"


def test_nodes_pay_their_sources_platform_width():
    """num_cores reaches the simulator: narrow platforms cost less."""
    from repro.net.scenarios import generated_scenario

    def fleet(num_cores):
        scenario = generated_scenario(
            base="dense-ward", seed=5, count=4, policy="balanced",
            families=("pipeline",), num_cores=num_cores)
        return run_fleet(scenario, n_nodes=3, duration_s=1.0, seed=2)

    narrow, wide = fleet(4), fleet(12)
    for narrow_node, wide_node in zip(narrow.nodes, wide.nodes):
        assert narrow_node.token == wide_node.token  # same draws
    # clock-tree/leakage power scales with the provisioned width
    assert narrow.summary.mean_power_uw < wide.summary.mean_power_uw


def test_run_fleet_rejects_unknown_scenarios_at_entry():
    """The satellite fix: a clear ValueError before any lookup."""
    with pytest.raises(ValueError, match="unknown scenario 'mars-rover'"):
        run_fleet("mars-rover")
    with pytest.raises(ValueError, match="dense-ward"):
        run_fleet("mars-rover")  # lists the valid names
    with pytest.raises(ValueError, match="must be a name or Scenario"):
        run_fleet(42)  # type: ignore[arg-type]
