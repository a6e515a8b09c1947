"""EXP-F6 benchmark: regenerate Figure 6 (power decomposition).

Run with::

    python benchmarks/bench_fig6.py       # emit BENCH_fig6.json
"""


def main(argv=None) -> int:
    """Plain-script mode: replay the campaign, emit BENCH_fig6.json."""
    from repro.sweep import bench_main

    return bench_main("fig6", argv)


if __name__ == "__main__":
    raise SystemExit(main())
