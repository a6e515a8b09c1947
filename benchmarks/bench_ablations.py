"""ABL-1..4 benchmarks: the mechanism ablations of DESIGN.md.

Run with::

    python benchmarks/bench_ablations.py  # emit BENCH_ablations.json
"""


def main(argv=None) -> int:
    """Plain-script mode: replay the campaign, emit BENCH_ablations.json."""
    from repro.sweep import bench_main

    return bench_main("ablations", argv)


if __name__ == "__main__":
    raise SystemExit(main())
