"""EXP-F7 benchmark: regenerate Figure 7 (pathological-ratio sweep).

Run with::

    python benchmarks/bench_fig7.py       # emit BENCH_fig7.json
"""


def main(argv=None) -> int:
    """Plain-script mode: replay the campaign, emit BENCH_fig7.json."""
    from repro.sweep import bench_main

    return bench_main("fig7", argv)


if __name__ == "__main__":
    raise SystemExit(main())
