"""EXP-NET benchmark: fleet throughput, serial vs. parallel.

Measures nodes-per-second of the :class:`repro.net.fleet.FleetRunner`
on the ``drifting-wearables`` scenario and the speedup of the sharded
multiprocessing path over serial execution.  On a machine with 4+
cores the parallel path should clear 2x; the script prints honest
numbers either way (CI containers are often single-core).

The heterogeneous mode times a *generated-app* fleet (every node
binds a `repro.gen` app through a mapping policy — the new hot path
of the pluggable app-source seam) and is gated by the same
``check_regression.py`` baseline as the homogeneous fleets, via the
``fleet-gen`` campaign.

The ``--mega`` mode exercises the streaming executor instead: it
runs the same two-tier hierarchy at two sizes (~6k and ~100k nodes)
and records peak RSS after each.  An executor that held per-node
results would grow ~16x between the runs; the bounded one barely
moves, and the regression gate pins both the nodes/second floor and
the RSS ceiling from the emitted payload.

The ``--fast`` mode times the compute fast path: the same
heterogeneous fleet is run once through the exact compute resolver
(the default; byte-identical to the pre-resolver artifacts) and once
through the batched analytic tier, with every process-level memo
cleared before each leg so both pay their true cold cost.  The
regression gate holds the analytic/exact speedup to a hard >= 1x
floor: the analytic tier must never be slower than exact (measured
~1.7x, since the exact engine replays its queues).

Run with::

    python benchmarks/bench_fleet.py      # BENCH_fleet.json and
                                          # BENCH_fleet-gen.json (the
                                          # run_all.py flags apply)
    python benchmarks/bench_fleet.py --mega   # BENCH_fleet-mega.json
    python benchmarks/bench_fleet.py --fast   # BENCH_fleet-fast.json
"""

import argparse
import os
import sys
import time
from pathlib import Path

from repro.net import appsource
from repro.net.compute import COMPUTE_CACHE_ENV, clear_process_caches
from repro.net.fleet import run_fleet
from repro.net.streaming import run_streaming
from repro.store import write_json
from repro.sweep import BENCH_SCHEMA
from repro.sweep.specs import BENCH_DURATION_S
from repro.sysc.engine import cached_uniform_schedule

#: Simulated seconds per node of the fast-path benchmark (shorter than
#: the single-node benches: the fleet multiplies per-node work).
FLEET_DURATION_S = min(BENCH_DURATION_S, 10.0)

#: Scenario token of the heterogeneous-fleet benchmark: generated
#: suite, load-levelled placement, drifting-wearables surroundings.
GEN_SCENARIO = "gen:drifting-wearables:1:8:balanced"


#: Hierarchy preset of the mega benchmark (~100k nodes, two tiers).
MEGA_TIERS = "mega-campus"

#: Same shape at 1/16th the subtrees (~6k nodes): the small leg of
#: the bounded-memory comparison.
MEGA_SMALL_TIERS = "tiers:ftsp@10x20~0.5/rbs@2x320:dense-ward"

#: Simulated seconds per node of the mega benchmark (the hierarchy
#: multiplies per-node work by ~100k).
MEGA_DURATION_S = 2.0


def measure_mega() -> dict:
    """Hand-timed streaming mega-fleet; returns the BENCH payload.

    Runs the small hierarchy first, then the ~16x larger one, and
    records the process peak RSS after each.  ``rss_growth_mb`` is
    the high-water delta the big run added: near zero for the
    bounded streaming executor, hundreds of MB for anything holding
    per-node results.  ``nodes_per_s`` is the big run's throughput,
    which the regression gate holds to a floor.
    """
    small = run_streaming(MEGA_SMALL_TIERS,
                          duration_s=MEGA_DURATION_S, seed=1)
    big = run_streaming(MEGA_TIERS, duration_s=MEGA_DURATION_S,
                        seed=1)
    nodes = big.summary.n_nodes + small.summary.n_nodes
    wall = big.elapsed_s + small.elapsed_s
    simulated = nodes * MEGA_DURATION_S
    return {
        "aggregates": {},
        "schema": BENCH_SCHEMA,
        "name": "fleet-mega",
        "points": 2,
        "cache": {"hits": 0, "misses": 2},
        "wall_s": wall,
        "executed_wall_s": wall,
        "simulated_s": simulated,
        "sim_s_per_s": simulated / wall if wall > 0 else 0.0,
        "workers": 1,
        "mode": "streaming",
        "results": [],
        "tiers": big.token,
        "duration_s": MEGA_DURATION_S,
        "wave_size": big.wave_size,
        "n_nodes": big.summary.n_nodes,
        "small_nodes": small.summary.n_nodes,
        "nodes_per_s": big.nodes_per_second,
        "small_nodes_per_s": small.nodes_per_second,
        "peak_rss_mb": big.peak_rss_mb,
        "small_rss_mb": small.peak_rss_mb,
        "rss_growth_mb": big.peak_rss_mb - small.peak_rss_mb,
        "scaling_ratio": (big.nodes_per_second
                          / small.nodes_per_second
                          if small.nodes_per_second > 0 else 0.0),
    }


#: Fleet size of the compute fast-path benchmark.  Large enough that
#: the exact tier pays one full-duration simulation per distinct
#: compute unit while the analytic tier's cost (a fixed handful of
#: short calibration simulations plus vectorised scoring) stays flat.
FAST_NODES = 64


def _clear_compute_memos() -> None:
    """Reset every process-level memo the bench legs could share.

    Both legs must pay their true cold cost: the compute cache, the
    binding resolution memos and the schedule memo all persist per
    process, so a warm second leg would measure dictionary lookups.
    """
    clear_process_caches()
    appsource._resolve_generated.cache_clear()
    appsource._generated_binding.cache_clear()
    appsource._benchmark_binding.cache_clear()
    appsource._suite_tokens.cache_clear()
    cached_uniform_schedule.cache_clear()


def measure_fast() -> dict:
    """Hand-timed exact-vs-analytic compute legs; returns the payload.

    Runs the heterogeneous fleet twice — exact resolver first, then
    the batched analytic tier — clearing all process memos before
    each leg and ignoring any on-disk compute cache for the
    duration.  The payload carries the wall-clock speedup (gated
    hard at >= 1x), the analytic leg's nodes/second (tolerance-scaled
    floor) and the calibration block proving the analytic tier was
    admitted against exact simulation.
    """
    env_cache = os.environ.pop(COMPUTE_CACHE_ENV, None)
    try:
        _clear_compute_memos()
        start = time.perf_counter()
        exact = run_fleet(GEN_SCENARIO, n_nodes=FAST_NODES,
                          duration_s=FLEET_DURATION_S, seed=1,
                          compute="exact")
        exact_wall = time.perf_counter() - start
        _clear_compute_memos()
        start = time.perf_counter()
        analytic = run_fleet(GEN_SCENARIO, n_nodes=FAST_NODES,
                             duration_s=FLEET_DURATION_S, seed=1,
                             compute="analytic")
        analytic_wall = time.perf_counter() - start
    finally:
        if env_cache is not None:
            os.environ[COMPUTE_CACHE_ENV] = env_cache
    # The speedup is only meaningful if both legs agree: the sync
    # path is shared verbatim and power must match to calibration
    # accuracy.  A disagreement is a correctness bug, not a slow run.
    if analytic.summary.steady_sync != exact.summary.steady_sync:
        raise RuntimeError("analytic leg changed the sync statistics")
    rel_err = abs(analytic.summary.mean_power_uw
                  - exact.summary.mean_power_uw)
    rel_err /= exact.summary.mean_power_uw
    if rel_err > 1e-6:
        raise RuntimeError(
            f"analytic mean power off by {rel_err:.2e} (> 1e-6)")
    calibration = analytic.compute.calibration
    if calibration is None or not calibration["within"]:
        raise RuntimeError("analytic tier ran without passing "
                           "calibration")
    wall = exact_wall + analytic_wall
    simulated = 2 * FAST_NODES * FLEET_DURATION_S
    return {
        "aggregates": {},
        "schema": BENCH_SCHEMA,
        "name": "fleet-fast",
        "points": 2,
        "cache": {"hits": 0, "misses": 2},
        "wall_s": wall,
        "executed_wall_s": wall,
        "simulated_s": simulated,
        "sim_s_per_s": simulated / wall if wall > 0 else 0.0,
        "workers": 1,
        "mode": "compute",
        "results": [],
        "scenario": GEN_SCENARIO,
        "n_nodes": FAST_NODES,
        "duration_s": FLEET_DURATION_S,
        "exact_wall_s": exact_wall,
        "analytic_wall_s": analytic_wall,
        "exact_nodes_per_s": exact.nodes_per_second,
        "analytic_nodes_per_s": analytic.nodes_per_second,
        "nodes_per_s": analytic.nodes_per_second,
        "speedup": (exact_wall / analytic_wall
                    if analytic_wall > 0 else 0.0),
        "mean_power_rel_err": rel_err,
        "compute": analytic.compute.to_mapping(),
    }


def fast_main(argv=None) -> int:
    """Emit BENCH_fleet-fast.json (exact vs analytic compute legs)."""
    parser = argparse.ArgumentParser(
        description="emit BENCH_fleet-fast.json (wall-clock speedup "
                    "of the batched analytic compute tier over the "
                    "exact resolver)")
    parser.add_argument(
        "--out-dir", default=".",
        help="where to write the artifact (default: cwd)")
    args = parser.parse_args(argv)
    payload = measure_fast()
    path = write_json(Path(args.out_dir) / "BENCH_fleet-fast.json", payload)
    print(
        f"BENCH_fleet-fast: {payload['n_nodes']} nodes, exact "
        f"{payload['exact_wall_s']:.2f} s vs analytic "
        f"{payload['analytic_wall_s']:.2f} s — speedup "
        f"{payload['speedup']:.1f}x at rel err "
        f"{payload['mean_power_rel_err']:.1e}")
    print(f"wrote {path}")
    return 0


def mega_main(argv=None) -> int:
    """Emit BENCH_fleet-mega.json (throughput + bounded peak RSS)."""
    parser = argparse.ArgumentParser(
        description="emit BENCH_fleet-mega.json (streaming mega-fleet "
                    "throughput and bounded peak RSS)")
    parser.add_argument(
        "--out-dir", default=".",
        help="where to write the artifact (default: cwd)")
    args = parser.parse_args(argv)
    payload = measure_mega()
    path = write_json(Path(args.out_dir) / "BENCH_fleet-mega.json", payload)
    print(
        f"BENCH_fleet-mega: {payload['n_nodes']:,} nodes at "
        f"{payload['nodes_per_s']:,.0f} nodes/s, peak rss "
        f"{payload['peak_rss_mb']:.0f} MB (+{payload['rss_growth_mb']:.0f}"
        f" MB over the {payload['small_nodes']:,}-node run, "
        f"scaling ratio {payload['scaling_ratio']:.2f})")
    print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    """Plain-script mode: ``run_all.py --only fleet fleet-gen``."""
    args = list(sys.argv[1:] if argv is None else argv)
    if "--fast" in args:
        args.remove("--fast")
        return fast_main(args)
    if "--mega" in args:
        args.remove("--mega")
        return mega_main(args)
    import run_all

    return run_all.main(["--only", "fleet", "fleet-gen", *args])


if __name__ == "__main__":
    raise SystemExit(main())
