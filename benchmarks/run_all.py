"""The benchmark entry point: every BENCH document is written here.

Replays every campaign in :data:`repro.sweep.specs.BENCH_SPECS`,
writes one ``BENCH_<name>.json`` per bench plus the merged
``BENCH_all.json`` the CI regression gate consumes.  Two benches are
not sweep campaigns but emit the same schema keys and ride in the
merged document alongside the others: ``oracle``
(``bench_oracle.py``, analytic vs exact candidate scoring) and
``fleet-fast`` (``bench_fleet.py --fast``, the batched analytic
compute tier vs the exact fleet resolver).

Run with::

    python benchmarks/run_all.py --out-dir bench-out --workers 2
    python benchmarks/run_all.py --only search    # one bench
"""

import argparse
import sys
from pathlib import Path

from repro.store import write_json
from repro.sweep import BENCH_SPECS, ResultCache, bench_payload, run_sweep
from repro.sweep.artifacts import merge_bench

import bench_fleet
import bench_oracle

#: Benches that are not sweep campaigns: name -> payload producer.
EXTRA_BENCHES = {
    "oracle": bench_oracle.measure,
    "fleet-fast": bench_fleet.measure_fast,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="run every benchmark, emit BENCH_*.json artifacts"
    )
    parser.add_argument(
        "--out-dir", default=".", help="artifact directory (default: cwd)"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for cache misses (default: 1)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="result-cache directory (default: $REPRO_SWEEP_CACHE "
        "or ~/.cache/repro-sweep)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable cache reads and writes",
    )
    parser.add_argument(
        "--force", action="store_true", help="re-execute every point"
    )
    parser.add_argument(
        "--only",
        nargs="*",
        default=None,
        metavar="NAME",
        choices=sorted([*BENCH_SPECS, *EXTRA_BENCHES]),
        help="run only these benches (default: all)",
    )
    args = parser.parse_args(argv)
    cache = (
        ResultCache(root=args.cache_dir)
        if args.cache_dir is not None and not args.no_cache
        else None
    )
    selected = (
        [*BENCH_SPECS, *EXTRA_BENCHES] if args.only is None else args.only
    )
    # Sweep campaigns first, in name order, then the hand-timed ones.
    names = [name for name in sorted(BENCH_SPECS) if name in selected]
    names += [name for name in EXTRA_BENCHES if name in selected]
    out_dir = Path(args.out_dir)
    payloads = {}
    for name in names:
        if name in EXTRA_BENCHES:
            payload = EXTRA_BENCHES[name]()
        else:
            result = run_sweep(
                BENCH_SPECS[name],
                workers=args.workers,
                cache=cache,
                use_cache=not args.no_cache,
                force=args.force,
            )
            payload = bench_payload(result)
        write_json(out_dir / f"BENCH_{name}.json", payload)
        payloads[name] = payload
    merged = merge_bench(payloads)
    path = write_json(out_dir / "BENCH_all.json", merged)
    for name, payload in merged["benches"].items():
        print(
            f"  {name:<10} {payload['points']:3d} point(s)  "
            f"{payload['wall_s']:7.2f} s  "
            f"{payload['sim_s_per_s']:9.1f} sim-s/s  "
            f"cache {payload['cache']['hits']}/"
            f"{payload['cache']['misses']}"
        )
    print(
        f"total: {merged['points']} point(s), "
        f"{merged['wall_s']:.2f} s wall, "
        f"{merged['sim_s_per_s']:.1f} simulated-s/s"
    )
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
