"""EXP-T1 benchmark: regenerate Table I (all benchmarks, SC + MC).

Run with::

    python benchmarks/bench_table1.py     # emit BENCH_table1.json
"""


def main(argv=None) -> int:
    """Plain-script mode: replay the campaign, emit BENCH_table1.json."""
    from repro.sweep import bench_main

    return bench_main("table1", argv)


if __name__ == "__main__":
    raise SystemExit(main())
