"""EXP-COVER benchmark: coverage-driven fuzz-loop throughput.

Replays the ``cover`` campaign (adversarial shaped tokens x mapping
policy) through the sweep subsystem — shape steering, shaped-app
generation, policy screening and bin classification — and emits
``BENCH_cover.json`` in the ``repro-bench/1`` schema the CI
regression gate tracks.

Run with::

    python benchmarks/bench_cover.py      # emit BENCH_cover.json
"""


def main(argv=None) -> int:
    """Plain-script mode: replay the campaign, emit BENCH_cover.json."""
    from repro.sweep import bench_main

    return bench_main("cover", argv)


if __name__ == "__main__":
    raise SystemExit(main())
