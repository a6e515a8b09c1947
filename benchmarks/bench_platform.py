"""Platform benchmark: cycle-accurate simulation throughput.

Not a paper artifact — it tracks the performance of the reproduction
itself: the ``platform`` campaign runs a spin kernel on the
cycle-accurate platform at 1, 2, 4 and 8 cores, so regressions in
the substrate are visible.

Run with::

    python benchmarks/bench_platform.py   # emit BENCH_platform.json
"""


def main(argv=None) -> int:
    """Plain-script mode: replay the campaign, emit BENCH_platform.json."""
    from repro.sweep import bench_main

    return bench_main("platform", argv)


if __name__ == "__main__":
    raise SystemExit(main())
