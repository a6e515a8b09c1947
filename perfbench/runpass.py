"""One benchmark pass, run in a fresh interpreter by ``run.py``.

Usage::

    python3 perfbench/runpass.py WORKLOAD SEED T0 WORKDIR RESULT [SPANS]

``T0`` is the parent's ``time.monotonic()`` just before it started this
interpreter (the clock is system-wide on Linux), so ``setup_s`` and
``total_s`` include interpreter start-up, as a CLI user pays it.  The
pass imports ``repro.eval.__main__`` (what every ``python -m
repro.eval`` command imports), builds its inputs, makes the timed
calls, writes the artifact, and only then checks the outputs and
writes its record to ``RESULT`` as JSON.

With ``SPANS`` (``-`` for none) the pass is traced: every layer's
public calls are wrapped from here (see ``tracer.py``), the per-layer
metrics go into the record and, unless ``SPANS`` is ``-``, the spans
are written there as Chrome trace-event JSON.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS


def main(argv: list[str]) -> int:
    name, seed, t0, workdir, result_path = argv[:5]
    traced = len(argv) > 5
    spans_path = argv[5] if traced and argv[5] != "-" else None
    workload = WORKLOADS[name]
    workdir = Path(workdir)
    t0 = float(t0)
    record: dict = {"workload": name, "seed": int(seed)}
    stamps: dict[str, float] = {"start": t0}
    tracer = None
    try:
        import repro.eval.__main__  # noqa: F401  (the CLI's import cost)

        stamps["import"] = time.monotonic()
        if traced:
            from tracer import Tracer

            tracer = Tracer(t0)
            tracer.record("setup.import", t0, stamps["import"])
            tracer.install()
            stamps["install"] = time.monotonic()
        else:
            stamps["install"] = stamps["import"]
        inputs = workload.inputs(int(seed), workdir)
        stamps["inputs"] = time.monotonic()
        if tracer is not None:
            tracer.record("setup.inputs", stamps["install"],
                          stamps["inputs"])
        result = workload.run(inputs)
        stamps["run"] = time.monotonic()
        if tracer is None:
            path = workload.artifact(result, inputs, workdir)
        else:
            with tracer.span("eval.artifact"):
                path = workload.artifact(result, inputs, workdir)
        stamps["done"] = time.monotonic()
        record["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        record["sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()
        attempted, failed, problems = workload.check(result, inputs)
        record.update(attempted=attempted, failed=failed,
                      problems=problems, work=workload.work(result, inputs),
                      extra=workload.extra(result))
        if tracer is not None:
            record["layers"] = tracer.layer_metrics(stamps["done"])
            if spans_path is not None:
                tracer.write_chrome_trace(spans_path)
    except Exception:  # a failed pass is a measured outcome, not a crash
        record["error"] = traceback.format_exc()
    record["stamps"] = stamps
    Path(result_path).write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
