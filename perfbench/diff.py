"""Compare two sets of benchmark results, workload by workload.

Usage::

    python3 perfbench/diff.py OLD NEW

``OLD`` and ``NEW`` are result files written by ``run.py --out`` or
directories of them (``.perfbench/results`` by default).  For each
workload found on either side the report prints the end-to-end
medians (the median over every untraced run of that workload), then
each layer's self time as a share of the traced wall time and each
layer count, side by side with the ratio NEW/OLD.  Read it to see in
which layer a change's saving sits.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from tracer import SELF_TIME_METRICS


def load(path: Path) -> dict[str, dict[str, dict[str, list[float]]]]:
    """``{workload: {"end_to_end"|"per_layer": {metric: [values]}}}``."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    found: dict[str, dict[str, dict[str, list[float]]]] = {}
    for file in files:
        summary = json.loads(file.read_text(encoding="utf-8"))
        sides = found.setdefault(summary["workload"],
                                 {"end_to_end": {}, "per_layer": {}})
        for key in ("end_to_end", "per_layer"):
            for name, value in summary.get(key, {}).items():
                sides[key].setdefault(name, []).append(value)
    return found


def _median(values: list[float] | None) -> float | None:
    return statistics.median(values) if values else None


def _cell(value: float | None, percent: bool = False) -> str:
    if value is None:
        return f"{'-':>12}"
    return f"{100.0 * value:11.1f}%" if percent else f"{value:12.4f}"


def _ratio(old: float | None, new: float | None) -> str:
    if not old or new is None:
        return f"{'-':>8}"
    return f"{new / old:8.3f}"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    old, new = (load(Path(arg)) for arg in argv)
    for workload in sorted(set(old) | set(new)):
        before = old.get(workload, {"end_to_end": {}, "per_layer": {}})
        after = new.get(workload, {"end_to_end": {}, "per_layer": {}})
        print(f"== {workload} ==")
        print(f"  {'end to end (median)':<36}{'old':>12}{'new':>12}"
              f"{'new/old':>8}")
        for name in sorted(set(before["end_to_end"])
                           | set(after["end_to_end"])):
            a = _median(before["end_to_end"].get(name))
            b = _median(after["end_to_end"].get(name))
            print(f"  {name:<36}{_cell(a)}{_cell(b)}{_ratio(a, b)}")
        layers = sorted(set(before["per_layer"]) | set(after["per_layer"]))
        if not layers:
            continue
        walls = [_median(side["per_layer"].get("trace.wall_s"))
                 for side in (before, after)]
        print(f"  {'layers (self time: share of wall)':<36}{'old':>12}"
              f"{'new':>12}{'new/old':>8}")
        for name in layers:
            a, b = (_median(side["per_layer"].get(name))
                    for side in (before, after))
            share = name in SELF_TIME_METRICS
            if share:
                a = a / walls[0] if a is not None and walls[0] else None
                b = b / walls[1] if b is not None and walls[1] else None
            print(f"  {name:<36}{_cell(a, share)}{_cell(b, share)}"
                  f"{_ratio(a, b)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
