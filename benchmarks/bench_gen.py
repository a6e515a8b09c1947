"""EXP-GEN benchmark: generated-workload exploration throughput.

Replays the ``gen`` campaign — suite generation (topology draw +
characterisation-anchored sampling) and (app, policy) exploration
points through the behavioural simulator — through the sweep
subsystem and emits ``BENCH_gen.json`` in the ``repro-bench/1``
schema the CI regression gate tracks.

Run with::

    python benchmarks/bench_gen.py        # emit BENCH_gen.json
"""


def main(argv=None) -> int:
    """Plain-script mode: replay the campaign, emit BENCH_gen.json."""
    from repro.sweep import bench_main

    return bench_main("gen", argv)


if __name__ == "__main__":
    raise SystemExit(main())
