"""The repository benchmark: cold user passes, timed end to end.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all          # every workload
    python3 perfbench/diff.py OLD NEW                # compare results

A run repeats one workload as a closed loop of passes, one client, for
``--seconds``: each pass is a fresh interpreter (``runpass.py``) that
pays the CLI import, builds its inputs from ``--seed``, makes the
workload's calls with ``workers=1`` and writes the artifact.  Process
memos therefore start cold, every pass gets fresh scratch directories
for its checkpoints and compute cache, and ``REPRO_COMPUTE_CACHE`` and
``REPRO_SWEEP_CACHE`` are removed from its environment.  No new pass
starts once the median pass would run past ``--seconds``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` as
medians over the passes, with each pass's times stated at a reference
host speed measured by ``probe()`` around it (see ``end_to_end``; the
report and the result file also give them as the clock read them).
``--trace 1`` alternates untraced and traced passes (``tracer.py``)
and reports the per-layer metrics, in clock time, as medians over the
traced ones, plus the tracing overhead (traced wall minus untraced
wall); the first traced pass also writes its spans as Chrome
trace-event JSON.

Every pass's outputs are checked (``workloads.py``); the artifact's
sha256 must be the same in every pass.  The last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``; the lines above it
are a readable report, and the full result, every pass included, is
written as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
PASS_TIMEOUT_S = 170.0

#: Seconds ``probe()`` takes at the host speed end-to-end times are
#: stated in (about a quiet run on a 2.1 GHz Xeon core).
PROBE_REFERENCE_S = 0.4

sys.path.insert(0, str(HERE))
from tracer import SELF_TIME_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def fail(message: str) -> None:
    print(f"perfbench: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def load_config() -> tuple[dict, dict]:
    """BENCHMARK.json and the manifest, checked against each other."""
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
        manifest = json.loads((HERE / "manifest.json").read_text("utf-8"))
    except (OSError, ValueError) as exc:
        fail(f"cannot read the benchmark configuration: {exc}")
    grouped = [name for layer in manifest["layers"]
               for name in layer["metrics"]]
    listed = [metric["name"] for metric in bench["per_layer"]]
    if sorted(grouped) != sorted(listed):
        fail("manifest.json layers and BENCHMARK.json per_layer differ")
    return bench, manifest


def child_env(tmp: Path) -> dict:
    env = dict(os.environ)
    for name in ("REPRO_COMPUTE_CACHE", "REPRO_SWEEP_CACHE"):
        env.pop(name, None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(tmp)
    return env


def run_pass(name: str, seed: int, traced: bool, spans: Path | None,
             scratch: Path, deadline: float) -> dict:
    """One cold pass in a fresh interpreter; returns its record."""
    workdir = Path(tempfile.mkdtemp(prefix="pass-", dir=scratch))
    result = workdir / "record.json"
    argv = [sys.executable, str(HERE / "runpass.py"), name, str(seed)]
    tail = [str(workdir), str(result)]
    if traced:
        tail.append(str(spans) if spans is not None else "-")
    env = child_env(workdir)
    timeout = max(10.0, deadline - time.monotonic())
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            argv + [repr(t0)] + tail, env=env, cwd=ROOT,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            timeout=timeout)
        wall = time.monotonic() - t0
        try:
            record = json.loads(result.read_text("utf-8"))
        except (OSError, ValueError):
            record = {"error": f"pass exited {proc.returncode}: "
                               + proc.stderr.decode()[-2000:]}
    except subprocess.TimeoutExpired:
        wall = time.monotonic() - t0
        record = {"error": f"pass timed out after {timeout:.0f} s"}
    record["traced"] = traced
    record["wall_s"] = wall
    os.sync()
    shutil.rmtree(workdir)
    return record


def warm_up(tmp: Path) -> None:
    """Compile the bytecode once, as any earlier CLI run would have."""
    tmp.mkdir(parents=True, exist_ok=True)
    proc = subprocess.run(
        [sys.executable, "-c", "import repro.eval.__main__"],
        env=child_env(tmp), cwd=ROOT, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        fail("cannot import repro.eval: "
             + proc.stderr.decode().strip().splitlines()[-1])


def probe(n: int = 1_600_000) -> float:
    """Seconds a fixed interpreter-bound loop takes on this host now.

    The loop uses nothing from ``repro``, so a change to the program
    cannot move it; only the host's speed does.  The host's speed
    swung within fractions of a second, so the loop is long enough to
    average over them: in paired runs, a probe of 0.3 or 0.4 s in place
    of 0.1 s cut the spread of ``work_per_s`` across runs by half or
    more on ``fleet-analytic`` and ``search``.
    """
    start = time.monotonic()
    acc = 0.0
    table: dict[int, int] = {}
    items: list[float] = []
    for i in range(n):
        x = (i * 0.618) % 1.0
        acc += x * x
        key = i & 1023
        table[key] = table.get(key, 0) + 1
        items.append(x)
        if len(items) > 64:
            items.clear()
    return time.monotonic() - start


def measure(name: str, seed: int, seconds: float, trace: bool,
            spans: Path | None) -> list[dict]:
    """Closed loop of passes until the next would overrun ``seconds``.

    Each pass starts on a quiet disk in the same state, as a lone CLI
    command would: the last pass's writes are synced, its scratch
    directory is deleted and the deletion is synced before the next
    pass starts.  On an ext4 volume mounted with ``discard``, the
    previous pass's unsynced writes made a pass's ~2,000 compute-cache
    writes up to 10x slower; and with the passes' directories kept
    until the run ended, the kernel time of those writes ranged from
    0.1 to 0.8 s between passes of one run, where deleting each
    pass's directory held it within 0.56-0.84 s.

    ``probe()`` runs before the first pass and after every pass; each
    record keeps the mean of the probes on either side of it as
    ``probe_s``, the host's speed while the pass ran.
    """
    start = time.monotonic()
    deadline = start + PASS_TIMEOUT_S
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT / "tmp"))
    records: list[dict] = []
    before = probe()
    try:
        while True:
            traced = trace and len(records) % 2 == 1
            wrote = any(r["traced"] for r in records)
            record = run_pass(name, seed, traced,
                              spans if traced and not wrote else None,
                              scratch, deadline)
            records.append(record)
            os.sync()
            after = probe()
            record["probe_s"] = (before + after) / 2.0
            before = after
            if "error" in record:
                break
            next_traced = trace and len(records) % 2 == 1
            same = [r["wall_s"] for r in records
                    if r["traced"] == next_traced]
            expected = statistics.median(same) if same \
                else record["wall_s"]
            enough = not trace or any(r["traced"] for r in records)
            if enough and time.monotonic() + expected > start + seconds:
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        os.sync()
    return records


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(records: list[dict], adjust: bool = True
               ) -> dict[str, float]:
    """Medians over the passes, as BENCHMARK.json names them.

    The host this was written on ran the same pass up to 2.5x slower
    for minutes at a time, from load outside the benchmark.  So each
    pass's times are stated at the probe's reference speed: multiplied
    by ``PROBE_REFERENCE_S / probe_s``.  Over ten runs per workload
    this cut the spread of ``work_per_s`` from 0.19-0.30 to 0.05-0.08
    on ``paper``, ``fleet-stream`` and ``search``, and left it near
    0.08-0.09 on ``fleet-analytic``, whose runs met a steady host;
    ``adjust=False`` gives the times as the clock read them.
    """
    setup, total, work, rss = [], [], [], []
    for record in records:
        stamps = record["stamps"]
        scale = PROBE_REFERENCE_S / record["probe_s"] if adjust else 1.0
        setup.append(scale * (stamps["inputs"] - stamps["start"]))
        total.append(scale * (stamps["done"] - stamps["start"]))
        work.append(record["work"]
                    / (scale * (stamps["run"] - stamps["inputs"])))
        rss.append(record["peak_rss_mb"])
    return {"setup_s": _median(setup), "total_s": _median(total),
            "work_per_s": _median(work), "peak_rss_mb": _median(rss)}


def per_layer(records: list[dict], plain: list[dict]) -> dict[str, float]:
    """Medians of each layer metric over the traced passes."""
    names = records[0]["layers"].keys()
    metrics = {name: _median([r["layers"][name] for r in records])
               for name in names}
    metrics["trace.overhead_s"] = (
        _median([r["layers"]["trace.wall_s"] for r in records])
        - _median([r["stamps"]["done"] - r["stamps"]["start"]
                   for r in plain]))
    return metrics


def summarise(name: str, seed: int, seconds: float, trace: bool,
              records: list[dict], bench: dict, manifest: dict) -> dict:
    workload = WORKLOADS[name]
    good = [r for r in records if "error" not in r]
    attempted = failed = 0
    for record in records:
        if "error" in record:
            attempted += workload.operations
            failed += workload.operations
        else:
            attempted += record["attempted"]
            failed += record["failed"]
    digests = sorted({r["sha256"] for r in good})
    plain = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    return {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "passes": len(records),
        "correct": len(good) == len(records) and failed == 0
        and len(digests) == 1,
        "attempted": attempted, "failed": failed,
        "failed_ratio": failed / attempted if attempted else 1.0,
        "sha256": digests, "extra": good[0]["extra"] if good else {},
        "end_to_end": end_to_end(plain) if plain else {},
        "end_to_end_unadjusted": end_to_end(plain, False) if plain else {},
        "probe_s": _median([r["probe_s"] for r in good]),
        "per_layer": per_layer(traced, plain) if traced and plain else {},
        # Layers plus the unattributed rest must add up to the wall.
        "layer_sum_error_s": max((abs(
            sum(r["layers"][metric] for metric in SELF_TIME_METRICS)
            - r["layers"]["trace.wall_s"]) for r in traced), default=0.0),
        "units": {m["name"]: m["unit"]
                  for m in bench["end_to_end"] + bench["per_layer"]},
        "work_name": manifest["workloads"][name]["work_per_s"],
        "work_unit": manifest["workloads"][name]["work_unit"],
        "operation": manifest["workloads"][name]["operation"],
        "records": records,
    }


def report(summary: dict) -> None:
    """Readable lines above the result line."""
    units = summary["units"]
    plain = sum(1 for r in summary["records"] if not r["traced"])
    print(f"perfbench {summary['workload']} seed={summary['seed']} "
          f"trace={summary['trace']}: {summary['passes']} passes "
          f"({plain} untraced), correct={summary['correct']}")
    clock = summary["end_to_end_unadjusted"]
    for name, value in summary["end_to_end"].items():
        note = f"  (clock: {clock[name]:.4f})"
        if name == "work_per_s":
            note += f"  = {summary['work_name']} ({summary['work_unit']})"
        print(f"  {name:<20} {value:14.4f} {units[name]}{note}")
    if clock:
        print(f"  {'host probe':<20} {summary['probe_s']:14.4f} s"
              f"  (times are stated at {PROBE_REFERENCE_S} s)")
    print(f"  {'failed_ratio':<20} {summary['failed_ratio']:14.4f} 1"
          f"  ({summary['failed']} failed of {summary['attempted']}; "
          f"one operation is one {summary['operation']})")
    for name, value in summary["extra"].items():
        print(f"  {name:<20} {value:14.4f} 1")
    for digest in summary["sha256"]:
        print(f"  artifact sha256      {digest}")
    layers = summary["per_layer"]
    if layers:
        wall = layers["trace.wall_s"]
        for name, value in layers.items():
            share = ""
            if name in SELF_TIME_METRICS and wall:
                share = f"  {100.0 * value / wall:5.1f}% of traced wall"
            print(f"  {name:<36} {value:14.4f} {units[name]}{share}")
        print(f"  layers + unattributed - traced wall: at most "
              f"{summary['layer_sum_error_s']:.2e} s in any traced pass")
    for record in summary["records"]:
        if "error" in record:
            print("  pass failed: " + record["error"].strip()
                  .splitlines()[-1])
        for problem in record.get("problems", []):
            print(f"  check failed: {problem}")


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 out: Path | None, spans: Path | None, bench: dict,
                 manifest: dict) -> dict:
    records = measure(name, seed, seconds, trace, spans)
    summary = summarise(name, seed, seconds, trace, records, bench,
                        manifest)
    out = out or OUT / "results" / f"{name}-seed{seed}-trace{int(trace)}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    report(summary)
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per workload "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="result file (default: .perfbench/results/)")
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "eval" / "__main__.py").is_file():
        fail(f"no repro sources under {ROOT / 'src'}")
    bench, manifest = load_config()
    seconds = args.seconds or float(bench["run_seconds"])
    names = sorted(WORKLOADS) if args.workload == "all" \
        else [args.workload]
    if args.workload == "all" and args.out is not None:
        fail("--out takes one workload")
    warm_up(OUT / "tmp")
    summaries = []
    for name in names:
        seed = args.seed
        if seed is None:
            seed = manifest["workloads"][name]["default_seed"] or 0
        spans = OUT / "traces" / f"{name}-seed{seed}.trace.json"
        summaries.append(run_workload(name, seed, seconds, bool(args.trace),
                                      args.out, spans, bench, manifest))
    key = "per_layer" if args.trace else "end_to_end"
    wanted = [metric["name"] for metric in bench[key]]
    metrics = {}
    for summary in summaries:
        values = summary[key]
        if not values:
            fail(f"{summary['workload']}: no pass completed")
        found = {name: {"value": values[name],
                        "unit": summary["units"][name]}
                 for name in wanted}
        metrics.update(found if len(summaries) == 1
                       else {summary["workload"]: found})
    print(json.dumps({
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
