"""Per-layer tracing from outside the program.

:class:`Tracer` wraps the public calls of each layer of :mod:`repro`
(see ``TARGETS``) with spans recorded in memory; ``src/repro`` itself
is never edited.  A span is (name, start, end, id, parent), with the
parent taken from a stack, so a layer's *self time* is its spans'
durations minus the durations of their direct children.  Every second
of a pass lands in exactly one bucket: a named layer, the tracer's own
install time, or ``unattributed`` (the pass's root span), so the
buckets sum to the traced wall time.

Three wrapping rules keep the spans complete:

* a function bound elsewhere with ``from x import y`` is replaced in
  every ``repro`` module that holds it, not just where it is defined;
* modules are taken from ``sys.modules``, because a package attribute
  can shadow a submodule (``repro.oracle.calibrate`` is the function);
* ``pool_map`` is wrapped only where streaming imported it, so each of
  its calls there is one wave.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import statistics
import sys
import time
from array import array
from pathlib import Path

ROOT = "pass"

#: (span name, module, attribute, replace everywhere it is bound).
TARGETS = (
    ("sysc.engine", "repro.sysc.engine", "simulate", True),
    ("oracle.score", "repro.oracle.model", "AnalyticModel.score", True),
    ("oracle.calibrate", "repro.oracle.calibrate", "calibrate", True),
    ("search", "repro.search.anneal", "search_mapping", True),
    ("gen", "repro.gen.generator", "app_from_token", True),
    ("net.node.build", "repro.net.node", "build_node", True),
    ("net.node.simulate", "repro.net.node", "NetworkNode.simulate", True),
    ("net.radio", "repro.net.radio", "receive_beacons", True),
    ("net.hierarchy.build_member", "repro.net.hierarchy", "build_member",
     True),
    ("net.hierarchy.replay", "repro.net.hierarchy", "hop_error_samples",
     True),
    ("net.hierarchy.compose", "repro.net.hierarchy", "compose_errors",
     True),
    ("net.stats.from_samples", "repro.net.stats", "SyncError.from_samples",
     True),
    ("net.stats.merged", "repro.net.stats", "SyncError.merged", True),
    ("net.streaming", "repro.net.streaming", "run_streaming", True),
    ("net.streaming.wave", "repro.net.streaming", "pool_map", False),
    ("net.streaming.checkpoint", "repro.net.streaming",
     "StreamingRunner._write", True),
    ("net.compute.resolve", "repro.net.compute", "ComputeResolver.resolve",
     True),
    ("net.compute.cache.get", "repro.net.compute", "ComputeCache.get",
     True),
    ("net.compute.cache.put", "repro.net.compute", "ComputeCache.put",
     True),
)

#: The per-layer metrics that partition a traced pass's wall time.
SELF_TIME_METRICS = (
    "setup.import_s", "setup.inputs_s", "trace.install_s",
    "sysc.engine.self_s", "oracle.score.self_s", "oracle.calibrate.self_s",
    "search.self_s", "gen.self_s", "net.node.build.self_s",
    "net.node.simulate.self_s", "net.radio.self_s",
    "net.hierarchy.build_member.self_s", "net.hierarchy.replay.self_s",
    "net.hierarchy.compose.self_s", "net.stats.from_samples.self_s",
    "net.stats.merged.self_s", "net.streaming.self_s",
    "net.streaming.checkpoint_s", "net.compute.resolve.self_s",
    "net.compute.cache.get.self_s", "net.compute.cache.put.self_s",
    "eval.artifact.self_s", "unattributed.self_s",
)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self, t0: float) -> None:
        self.t0 = t0
        self.names: list[str] = [ROOT]
        self._codes: dict[str, int] = {ROOT: 0}
        # Span 0 is the pass itself; its end is set by layer_metrics.
        self.code = array("H", [0])
        self.start = array("d", [t0])
        self.end = array("d", [t0])
        self.parent = array("l", [-1])
        self._stack = [0]
        self.counts: dict[str, float] = {}
        self.cache_roots: set[Path] = set()

    def _name_code(self, name: str) -> int:
        code = self._codes.get(name)
        if code is None:
            code = self._codes[name] = len(self.names)
            self.names.append(name)
        return code

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished top-level span (for phases timed by hand)."""
        self.code.append(self._name_code(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(0)

    @contextlib.contextmanager
    def span(self, name: str):
        """Time the ``with`` body as one span under the current one."""
        index = self._open(self._name_code(name))
        try:
            yield
        finally:
            self._close(index)

    def _open(self, code: int) -> int:
        index = len(self.start)
        self.code.append(code)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.monotonic())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.monotonic()
        self._stack.pop()

    def wrap(self, name: str, fn, hook=None):
        """``fn`` inside a span; ``hook(args, result)`` counts work."""
        code = self._name_code(name)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = open_(code)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(index)
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def _count(self, key: str, amount: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def _hooks(self) -> dict:
        count = self._count

        def engine(args, result):
            count("sysc.engine.ticks", round(result.duration_s * args[0].fs))

        def score(args, result):
            count("oracle.score.candidates", len(result.cost))

        def calibrate(args, result):
            key = "oracle.calibrate.rel_err_max"
            self.counts[key] = max(self.counts.get(key, 0.0),
                                   float(result.errors.get("max", 0.0)))

        def search(args, result):
            count("oracle.twotier.screened", result.screened)
            count("oracle.twotier.verified", result.evaluations)

        def resolve(args, result):
            summary = result.summary
            count("net.compute.requests", summary.requests)
            count("net.compute.distinct_keys", summary.distinct_keys)
            count("net.compute.screened", summary.screened)

        def put(args, result):
            if args[0].root is not None:
                self.cache_roots.add(Path(args[0].root))

        return {"sysc.engine": engine, "oracle.score": score,
                "oracle.calibrate": calibrate, "search": search,
                "net.compute.resolve": resolve,
                "net.compute.cache.put": put}

    def install(self) -> None:
        """Wrap every target; the time it takes is its own bucket."""
        started = time.monotonic()
        hooks = self._hooks()
        for _, module_name, _, _ in TARGETS:
            importlib.import_module(module_name)
        modules = [module for name, module in list(sys.modules.items())
                   if name.split(".")[0] == "repro" and module is not None]
        for name, module_name, attribute, everywhere in TARGETS:
            module = sys.modules[module_name]
            owner_name, _, method = attribute.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                raw = owner.__dict__[method]
                if isinstance(raw, classmethod):
                    setattr(owner, method, classmethod(
                        self.wrap(name, raw.__func__, hooks.get(name))))
                else:
                    setattr(owner, method,
                            self.wrap(name, raw, hooks.get(name)))
                continue
            original = getattr(module, method)
            traced = self.wrap(name, original, hooks.get(name))
            holders = [module]
            if everywhere:
                holders += [other for other in modules
                            if other is not module]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, traced)
        self.record("trace.install", started, time.monotonic())

    def self_times(self, end: float) -> tuple[dict, dict, dict]:
        """Per-name self seconds, call counts and inclusive durations."""
        self.end[0] = end
        count = len(self.start)
        duration = [self.end[i] - self.start[i] for i in range(count)]
        children = [0.0] * count
        for i in range(1, count):
            children[self.parent[i]] += duration[i]
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        inclusive: dict[str, list[float]] = {}
        for i in range(count):
            name = self.names[self.code[i]]
            self_s[name] = self_s.get(name, 0.0) + duration[i] - children[i]
            calls[name] = calls.get(name, 0) + 1
            inclusive.setdefault(name, []).append(duration[i])
        return self_s, calls, inclusive

    def layer_metrics(self, done: float) -> dict:
        """Every per-layer metric of a pass that ended at ``done``.

        A layer that did no work in the pass reports 0.
        """
        self_s, calls, inclusive = self.self_times(done)
        counts = self.counts

        def s(name):
            return self_s.get(name, 0.0)

        def n(name):
            return calls.get(name, 0)

        ticks = counts.get("sysc.engine.ticks", 0.0)
        candidates = counts.get("oracle.score.candidates", 0.0)
        screened = counts.get("oracle.twotier.screened", 0.0)
        verified = counts.get("oracle.twotier.verified", 0.0)
        requests = counts.get("net.compute.requests", 0.0)
        distinct = counts.get("net.compute.distinct_keys", 0.0)
        waves = inclusive.get("net.streaming.wave", [])
        written = sum(
            entry.stat().st_size for root in self.cache_roots
            for entry in root.rglob("*.json") if entry.is_file())
        return {
            "setup.import_s": s("setup.import"),
            "setup.inputs_s": s("setup.inputs"),
            "sysc.engine.calls": n("sysc.engine"),
            "sysc.engine.self_s": s("sysc.engine"),
            "sysc.engine.ticks": ticks,
            "sysc.engine.ns_per_tick": 1e9 * _ratio(s("sysc.engine"),
                                                    ticks),
            "sysc.engine.ms_per_call": 1e3 * _ratio(
                s("sysc.engine"), n("sysc.engine")),
            "oracle.score.calls": n("oracle.score"),
            "oracle.score.candidates": candidates,
            "oracle.score.self_s": s("oracle.score"),
            "oracle.score.candidates_per_call": _ratio(
                candidates, n("oracle.score")),
            "oracle.score.us_per_candidate": 1e6 * _ratio(
                s("oracle.score"), candidates),
            "oracle.calibrate.self_s": s("oracle.calibrate"),
            "oracle.calibrate.rel_err_max": counts.get(
                "oracle.calibrate.rel_err_max", 0.0),
            "oracle.twotier.screened": screened,
            "oracle.twotier.verified": verified,
            "oracle.twotier.verify_ratio": _ratio(verified, screened),
            "search.calls": n("search"),
            "search.self_s": s("search"),
            "gen.calls": n("gen"),
            "gen.self_s": s("gen"),
            "net.node.build.calls": n("net.node.build"),
            "net.node.build.self_s": s("net.node.build"),
            "net.node.builds_per_node": _ratio(n("net.node.build"),
                                               n("net.node.simulate")),
            "net.node.simulate.self_s": s("net.node.simulate"),
            "net.radio.calls": n("net.radio"),
            "net.radio.self_s": s("net.radio"),
            "net.hierarchy.build_member.self_s": s(
                "net.hierarchy.build_member"),
            "net.hierarchy.replay.self_s": s("net.hierarchy.replay"),
            "net.hierarchy.compose.self_s": s("net.hierarchy.compose"),
            "net.stats.from_samples.calls": n("net.stats.from_samples"),
            "net.stats.from_samples.self_s": s("net.stats.from_samples"),
            "net.stats.merged.calls": n("net.stats.merged"),
            "net.stats.merged.self_s": s("net.stats.merged"),
            "net.streaming.waves": len(waves),
            "net.streaming.wave_s_p50": _median(waves),
            "net.streaming.wave_s_max": max(waves, default=0.0),
            "net.streaming.self_s": s("net.streaming")
            + s("net.streaming.wave"),
            "net.streaming.checkpoint.writes": n("net.streaming.checkpoint"),
            "net.streaming.checkpoint_s": s("net.streaming.checkpoint"),
            "net.compute.resolve.self_s": s("net.compute.resolve"),
            "net.compute.requests": requests,
            "net.compute.distinct_keys": distinct,
            "net.compute.dedup_ratio": _ratio(requests - distinct, requests),
            "net.compute.screened_ratio": _ratio(
                counts.get("net.compute.screened", 0.0), requests),
            "net.compute.cache.get.calls": n("net.compute.cache.get"),
            "net.compute.cache.get.self_s": s("net.compute.cache.get"),
            "net.compute.cache.put.calls": n("net.compute.cache.put"),
            "net.compute.cache.put.self_s": s("net.compute.cache.put"),
            "net.compute.cache.bytes_written": float(written),
            "eval.artifact.self_s": s("eval.artifact"),
            "unattributed.self_s": s(ROOT),
            "trace.install_s": s("trace.install"),
            "trace.spans": len(self.start),
            "trace.wall_s": done - self.t0,
        }

    def write_chrome_trace(self, path: str) -> None:
        """All spans as Chrome trace-event JSON (opens in Perfetto)."""
        t0 = self.t0
        events = []
        for i in range(len(self.start)):
            start = (self.start[i] - t0) * 1e6
            end = (self.end[i] - t0) * 1e6
            events.append(json.dumps({
                "name": self.names[self.code[i]], "ph": "X", "pid": 1,
                "tid": 1, "ts": round(start, 3),
                "dur": round(end - start, 3),
                "args": {"span_id": i, "parent_id": self.parent[i]}}))
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"displayTimeUnit": "ms", "traceEvents": [\n')
            handle.write(",\n".join(events))
            handle.write("\n]}\n")
