"""EXP-SEARCH benchmark: placement-search throughput.

Replays the ``search`` campaign — seeded annealing and greedy walks
(candidate mutation + repair + memoised cost-oracle simulation) over
generated applications — through the sweep subsystem and emits
``BENCH_search.json`` in the ``repro-bench/1`` schema the CI
regression gate tracks.

Run with::

    python benchmarks/bench_search.py     # emit BENCH_search.json
"""


def main(argv=None) -> int:
    """Plain-script mode: replay the campaign, emit BENCH_search.json."""
    from repro.sweep import bench_main

    return bench_main("search", argv)


if __name__ == "__main__":
    raise SystemExit(main())
