"""The benchmark's workloads: inputs from a seed, timed calls, checks.

Each workload is one closed-loop pass of a user command, run by
``perfbench/runpass.py`` in a fresh interpreter with ``workers=1``.
A workload splits the pass into the phases the metrics time:

* ``inputs(seed, workdir)`` builds the generated tokens and fresh
  scratch directories (part of ``setup_s``);
* ``run(inputs)`` makes the public calls being measured (the timed
  phase behind ``work_per_s``);
* ``artifact(result, inputs, workdir)`` renders or writes the
  deterministic artifact (last step of ``total_s``);
* ``check(result, inputs)`` verifies the outputs after the clock has
  stopped and returns ``(attempted, failed, problems)``.

Nothing here imports :mod:`repro` at module level, so a pass can time
the CLI import itself.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

#: Tolerance of the Table I power check (tier-1 asserts the same).
TABLE1_POWER_TOLERANCE = 0.05

#: Fig. 7 reduction every pathological ratio must exceed.
FIG7_MIN_REDUCTION = 0.15

#: The hierarchy ``fleet-stream`` streams: 70 wards of 140 leaves in
#: 5 waves.  It is half the 140-ward fleet of the ROADMAP's profile,
#: so that a run holds twice the passes; each ward is unchanged.
STREAM_TIERS = "tiers:ftsp@10x70/rbs@2x140:dense-ward"
STREAM_NODES = 9_870
STREAM_WAVE = 14

#: simulate() calls of the paper's evaluation: Table I 6, Fig. 6 9,
#: Fig. 7 14 and the ablations 11.
PAPER_SIMULATIONS = 40

ANALYTIC_NODES = 2_000
SEARCH_COUNT = 48


class Workload:
    """Base of the four workloads (see the module docstring)."""

    name = ""
    #: Operations one pass attempts (see ``perfbench/manifest.json``).
    operations = 1

    def inputs(self, seed: int, workdir: Path) -> dict:
        raise NotImplementedError

    def run(self, inputs: dict):
        raise NotImplementedError

    def artifact(self, result, inputs: dict, workdir: Path) -> Path:
        raise NotImplementedError

    def work(self, result, inputs: dict) -> float:
        raise NotImplementedError

    def check(self, result, inputs: dict) -> tuple[int, int, list[str]]:
        raise NotImplementedError

    def extra(self, result) -> dict:
        """Deterministic figures reported beside the timings."""
        return {}


class Paper(Workload):
    name = "paper"
    operations = 4

    def inputs(self, seed, workdir):
        from repro.eval.runconfig import DURATION_S

        return {"duration_s": DURATION_S}

    def run(self, inputs):
        from repro.eval import (
            run_all_ablations, run_fig6, run_fig7, run_table1)

        duration = inputs["duration_s"]
        return {
            "table1": run_table1(duration),
            "fig6": run_fig6(duration),
            "fig7": run_fig7(duration_s=duration),
            "ablations": run_all_ablations(duration),
        }

    def artifact(self, result, inputs, workdir):
        from repro.eval.report import (
            render_ablations, render_fig6, render_fig7, render_table1)

        text = "\n\n".join([
            render_table1(result["table1"]),
            render_fig6(result["fig6"]),
            render_fig7(result["fig7"]),
            render_ablations(result["ablations"]),
        ])
        path = workdir / "paper.txt"
        path.write_text(text + "\n", encoding="utf-8")
        return path

    def work(self, result, inputs):
        # The evaluation's size, not the calls the code happens to
        # make: a change that avoids a simulation earns its speed-up.
        return PAPER_SIMULATIONS * inputs["duration_s"]

    def table1_power_err(self, result) -> float:
        from repro.eval.table1 import PAPER_TABLE1

        worst = 0.0
        for column in result["table1"]:
            paper = PAPER_TABLE1[column.benchmark]
            rows = column.as_dict()
            for key in ("sc_power", "mc_power"):
                worst = max(worst,
                            abs(rows[key] - paper[key]) / paper[key])
        return worst

    def check(self, result, inputs):
        problems = []
        err = self.table1_power_err(result)
        if not err <= TABLE1_POWER_TOLERANCE:
            problems.append(f"table1: power error {err:.4f} > "
                            f"{TABLE1_POWER_TOLERANCE}")
        for group in result["fig6"]:
            sync = group.multi_sync.total_uw
            if not (sync < group.single.total_uw
                    and sync < group.multi_no_sync.total_uw):
                problems.append(f"fig6: {group.benchmark} synchronized "
                                "multi-core is not the lowest bar")
                break
        for point in result["fig7"]:
            if not point.reduction > FIG7_MIN_REDUCTION:
                problems.append(f"fig7: reduction {point.reduction:.3f} "
                                f"at ratio {point.ratio}")
                break
        if not result["ablations"]:
            problems.append("ablations: no results")
        failed = len({p.split(":")[0] for p in problems})
        return self.operations, failed, problems

    def extra(self, result):
        return {"table1_power_err": self.table1_power_err(result)}


class FleetStream(Workload):
    name = "fleet-stream"

    def inputs(self, seed, workdir):
        checkpoints = workdir / "checkpoints"
        checkpoints.mkdir()
        return {"tiers": STREAM_TIERS, "seed": seed,
                "checkpoint_dir": str(checkpoints)}

    def run(self, inputs):
        from repro.net.streaming import run_streaming

        return run_streaming(
            inputs["tiers"], duration_s=10.0, seed=inputs["seed"],
            workers=1, wave_size=STREAM_WAVE,
            checkpoint_dir=inputs["checkpoint_dir"])

    def artifact(self, result, inputs, workdir):
        from repro.eval.netexp import write_hierarchy_json

        return write_hierarchy_json(result, workdir / "hierarchy.json")

    def work(self, result, inputs):
        return float(sum(tier.nodes for tier in result.tiers))

    def check(self, result, inputs):
        problems = []
        if not result.completed:
            problems.append("run did not complete")
        nodes = sum(tier.nodes for tier in result.tiers)
        if nodes != STREAM_NODES:
            problems.append(f"tiers hold {nodes} nodes, not "
                            f"{STREAM_NODES}")
        for tier in result.tiers:
            for field in ("hop_sync", "steady_hop_sync", "sync",
                          "steady_sync", "unsync", "steady_unsync"):
                error = getattr(tier, field)
                if not all(math.isfinite(value) for value in (
                        error.mean_abs_s, error.rms_s, error.max_abs_s)):
                    problems.append(f"tier {tier.name}: {field} is "
                                    "not finite")
        if result.waves_run != result.waves:
            problems.append(f"ran {result.waves_run} of {result.waves} "
                            "waves")
        try:
            saved = json.loads(Path(result.checkpoint).read_text(
                encoding="utf-8"))
        except (OSError, ValueError) as exc:
            problems.append(f"checkpoint unreadable: {exc}")
        else:
            if saved.get("subtrees_done") != result.subtrees:
                problems.append("checkpoint does not hold every subtree")
        return self.operations, int(bool(problems)), problems


class FleetAnalytic(Workload):
    name = "fleet-analytic"

    def inputs(self, seed, workdir):
        cache = workdir / "compute-cache"
        cache.mkdir()
        return {"scenario": f"gen:drifting-wearables:{seed}:64:balanced",
                "seed": seed, "compute_cache": str(cache)}

    def run(self, inputs):
        from repro.net.fleet import run_fleet

        return run_fleet(
            inputs["scenario"], n_nodes=ANALYTIC_NODES, duration_s=10.0,
            seed=inputs["seed"], workers=1, compute="analytic",
            compute_cache=inputs["compute_cache"])

    def artifact(self, result, inputs, workdir):
        from repro.eval.netexp import NetReport, write_net_json

        report = NetReport(scenario=result.summary.scenario,
                           result=result, seed=inputs["seed"])
        return write_net_json(report, workdir / "net.json")

    def work(self, result, inputs):
        return float(result.summary.n_nodes)

    def check(self, result, inputs):
        problems = []
        if result.summary.n_nodes != ANALYTIC_NODES:
            problems.append(f"{result.summary.n_nodes} nodes, not "
                            f"{ANALYTIC_NODES}")
        calibration = (result.compute.calibration or {}) \
            if result.compute is not None else {}
        if calibration.get("within") is not True:
            problems.append("compute calibration is not within its "
                            "tolerance")
        return self.operations, int(bool(problems)), problems


class Search(Workload):
    name = "search"
    operations = SEARCH_COUNT

    def inputs(self, seed, workdir):
        from repro.gen.generator import suite_tokens

        return {"seed": seed,
                "tokens": suite_tokens(seed, SEARCH_COUNT, None)}

    def run(self, inputs):
        from repro.eval.searchexp import run_search

        return run_search(seed=inputs["seed"], count=SEARCH_COUNT,
                          oracle="two-tier")

    def artifact(self, result, inputs, workdir):
        from repro.eval.searchexp import write_search_json

        return write_search_json(result, workdir / "search.json")

    def work(self, result, inputs):
        return float(len(result.outcomes))

    def check(self, result, inputs):
        from repro.gen.explorer import (
            STATUS_OK, STATUS_REJECTED, STATUS_REPAIRED)
        from repro.oracle.calibrate import CALIBRATE_TOLERANCE

        problems = []
        if [o.token for o in result.outcomes] != list(inputs["tokens"]):
            problems.append("outcomes do not follow the suite tokens")
        worst = (result.calibration or {}).get("errors", {}).get("max")
        if worst is None or not worst <= CALIBRATE_TOLERANCE:
            problems.append(f"calibration error {worst} exceeds "
                            f"{CALIBRATE_TOLERANCE}")
        if problems:
            return self.operations, self.operations, problems
        bad = [outcome.token for outcome in result.outcomes
               if outcome.status not in (
                   STATUS_OK, STATUS_REPAIRED, STATUS_REJECTED)
               or not outcome.gap >= 0.0]
        if bad:
            problems.append(f"{len(bad)} apps with a bad status or gap")
        return self.operations, len(bad), problems


WORKLOADS = {workload.name: workload for workload in (
    Paper(), FleetStream(), FleetAnalytic(), Search())}
