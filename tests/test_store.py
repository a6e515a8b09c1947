"""Tests for the shared content-addressed store (``repro.store``).

Every on-disk cache goes through one key hash, one atomic writer and
one corrupt-is-a-miss reader, and every artifact through one
canonical JSON writer.  The literal hashes below pin the keys of
entries already on disk: a changed hash would orphan them.  The
full-disk cases make the writer fail with ``ENOSPC`` after its temp
file exists, and check that each store keeps its previous file.
"""

import errno
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.apps import three_lead_mmd
from repro.apps.mapping import map_multicore
from repro.eval.__main__ import main
from repro.eval.netexp import write_hierarchy_json
from repro.gen.generator import app_fingerprint, generate_app
from repro.net.compute import (
    COMPUTE_CACHE_ENV,
    COMPUTE_ENTRY_SCHEMA,
    ComputeCache,
    app_plan_key,
    clear_process_caches,
    compute_key,
)
from repro.net.fleet import run_fleet
from repro.net.streaming import run_streaming
from repro.store import (
    Store,
    canonical_json,
    digest,
    json_safe,
    write_json,
)
from repro.sweep import ResultCache, SweepSpec, run_sweep
from repro.sweep.spec import point_key
from repro.sysc.engine import Mode

GEN = "gen:drifting-wearables:1:8:balanced"
TIERS = "tiers:ftsp@5x3/rbs@1x4:dense-ward"
GOLDEN = Path(__file__).resolve().parent / "net" / "golden"


def _reference_text(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", sorted(
    path.name for path in GOLDEN.glob("*.json")))
def test_write_json_reproduces_the_golden_artifacts(tmp_path, name):
    golden = (GOLDEN / name).read_bytes()
    payload = json.loads(golden)
    path = write_json(tmp_path / "sub" / name, payload)
    assert path == tmp_path / "sub" / name
    assert path.read_bytes() == golden
    assert canonical_json(payload) == _reference_text(payload)


_LEAVES = st.none() | st.booleans() | st.integers() | st.text(max_size=8) \
    | st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=20))
def test_canonical_json_is_sorted_indented_and_lf_terminated(payload):
    text = canonical_json(payload)
    assert text == _reference_text(payload)
    assert json.loads(text) == payload


def test_json_safe_spells_out_non_finite_floats():
    assert [json_safe(v) for v in (math.inf, -math.inf, math.nan)] == [
        "inf", "-inf", "nan"]
    for value in (1.5, 0, "inf", None, [math.inf]):
        assert json_safe(value) is value


def test_canonical_keys_are_unchanged():
    app = three_lead_mmd()
    assert point_key("app", {"app": "3L-MF", "duration_s": 1.0}) == (
        "73511c84e870173c0bf3756d3c33d0695dcd6b4f")
    assert app_fingerprint(app) == "7aabe491be8eeed8"
    assert app_fingerprint(generate_app("pipeline", seed=5, index=3)) == (
        "f13172a14050d83d")
    assert app_plan_key(app, None, 8) == "36e3c6db65f29363"
    assert app_plan_key(app, map_multicore(app, 8), 8) == (
        "216ba90afb4157ab")
    assert compute_key("0123456789abcdef", Mode.MULTI_CORE, 2.0,
                       [500, 2, [5, 40]]) == (
        "471769162048d8970ccd606b435af11f5ccd004d")
    assert digest({"b": 1, "a": [2.0, None]}, 64) == digest(
        {"a": [2.0, None], "b": 1}, 64)


def test_calibration_and_checkpoint_names_are_unchanged(tmp_path):
    clear_process_caches()
    run_fleet(GEN, n_nodes=8, duration_s=2.0, compute="analytic",
              compute_cache=str(tmp_path / "compute"))
    names = [path.name for path in (tmp_path / "compute").rglob("*.json")]
    assert names == ["2baf779cde6a249e19f6734d1c60745c95566cdc.json"]
    partial = run_streaming(TIERS, duration_s=2.0, seed=7, wave_size=1,
                            checkpoint_dir=tmp_path / "ckpt", max_waves=1)
    assert Path(partial.checkpoint).name == "stream-4e335ef2e474ce71.json"


@pytest.mark.parametrize("text", [
    "{not json",
    json.dumps({"schema": "other/9", "data": {"x": 1}}),
    json.dumps({"schema": "entry/1"}),
    json.dumps({"schema": "entry/1", "data": [1]}),
    json.dumps(["entry/1"]),
], ids=["corrupt", "foreign-schema", "missing-field", "field-not-mapping",
        "not-an-object"])
def test_bad_entries_read_as_misses(tmp_path, text):
    store = Store(tmp_path, "f1")
    entry = {"schema": "entry/1", "data": {"x": 1}}
    store.put("ab12", entry)
    assert store.get("ab12", "entry/1", "data") == entry
    assert store.path("ab12") == tmp_path / "f1" / "ab" / "ab12.json"
    store.path("ab12").write_text(text, encoding="utf-8")
    assert store.get("ab12", "entry/1", "data") is None
    assert store.get("cd34", "entry/1", "data") is None  # absent


def _fill_disk(monkeypatch):
    """Make every file write stop half-way with ``ENOSPC``."""
    write_text = Path.write_text

    def full(self, text, *args, **kwargs):
        write_text(self, text[: len(text) // 2], *args, **kwargs)
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(Path, "write_text", full)


def _fail_write(monkeypatch, nth):
    """Make only the ``nth`` file write stop half-way with ``ENOSPC``."""
    write_text = Path.write_text
    calls = []

    def flaky(self, text, *args, **kwargs):
        calls.append(self)
        if len(calls) == nth:
            write_text(self, text[: len(text) // 2], *args, **kwargs)
            raise OSError(errno.ENOSPC, "No space left on device")
        return write_text(self, text, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", flaky)


def test_full_disk_keeps_the_previous_sweep_entry(tmp_path, monkeypatch):
    cache = ResultCache(root=tmp_path, fingerprint="f1")
    point = {"a": 1}
    cache.put("app", point, {"m": 1.0}, wall_s=0.0)
    _fill_disk(monkeypatch)
    with pytest.raises(OSError) as excinfo:
        cache.put("app", point, {"m": 2.0}, wall_s=0.0)
    assert excinfo.value.errno == errno.ENOSPC
    assert cache.get("app", point)["metrics"] == {"m": 1.0}
    assert not list(tmp_path.rglob("*.tmp"))


def _files(root):
    return sorted(path for path in root.rglob("*") if path.is_file())


def test_full_disk_leaves_compute_runs_whole(tmp_path, monkeypatch):
    monkeypatch.delenv(COMPUTE_CACHE_ENV, raising=False)
    payload = {"schema": COMPUTE_ENTRY_SCHEMA, "tier": "exact",
               "frequency_mhz": 12.0, "voltage": 1.0, "duration_s": 2.0,
               "categories": {"cores_logic": 10.0}}
    key = "ab" + "0" * 38
    ComputeCache(tmp_path).put(key, payload)
    clear_process_caches()
    bare = run_fleet(GEN, n_nodes=8, duration_s=2.0, compute="analytic")
    before = _files(tmp_path)

    _fill_disk(monkeypatch)
    ComputeCache(tmp_path).put(key, dict(payload, voltage=2.0))
    clear_process_caches()
    full = run_fleet(GEN, n_nodes=8, duration_s=2.0, compute="analytic",
                     compute_cache=str(tmp_path))
    assert full.summary == bare.summary
    assert full.nodes == bare.nodes
    assert full.compute == bare.compute
    assert _files(tmp_path) == before  # no entry or temp file added
    clear_process_caches()
    assert ComputeCache(tmp_path).get(key, "exact") == payload


def test_full_disk_checkpoint_resumes_to_cold_bytes(tmp_path, monkeypatch):
    checkpoints = tmp_path / "ckpt"
    first = run_streaming(TIERS, duration_s=2.0, seed=7, wave_size=1,
                          checkpoint_dir=checkpoints, max_waves=1)
    path = Path(first.checkpoint)
    saved = path.read_bytes()

    with monkeypatch.context() as patch:
        _fill_disk(patch)
        with pytest.raises(OSError) as excinfo:
            run_streaming(TIERS, duration_s=2.0, seed=7, wave_size=1,
                          checkpoint_dir=checkpoints)
    assert excinfo.value.errno == errno.ENOSPC
    assert path.read_bytes() == saved
    assert not list(checkpoints.rglob("*.tmp"))

    resumed = run_streaming(TIERS, duration_s=2.0, seed=7, wave_size=1,
                            checkpoint_dir=checkpoints)
    assert resumed.resumed_subtrees == 1
    cold = run_streaming(TIERS, duration_s=2.0, seed=7, wave_size=1)
    assert write_hierarchy_json(resumed, tmp_path / "a.json").read_bytes() \
        == write_hierarchy_json(cold, tmp_path / "b.json").read_bytes()


THREE = SweepSpec(
    name="three",
    runner="app",
    axes=(("app", ("3L-MF", "3L-MMD", "RP-CLASS")),),
    base=(("duration_s", 1.0), ("mode", "multi-core")),
)


def test_failed_cache_write_keeps_the_sweep_result(tmp_path, monkeypatch):
    with monkeypatch.context() as patch, obs.collecting() as registry:
        _fail_write(patch, 2)
        result = run_sweep(THREE, cache=ResultCache(tmp_path, "f1"))
    assert registry.snapshot()["counters"]["sweep.cache.store"] == 2
    assert [point.metrics["power_uw"] > 0 for point in result.results] \
        == [True, True, True]
    assert result.cache_misses == 3 and result.cache_stores == 2
    assert not list(tmp_path.rglob("*.tmp"))
    rerun = run_sweep(THREE, cache=ResultCache(tmp_path, "f1"))
    assert rerun.cache_misses == 1 and rerun.cache_hits == 2
    assert [point.metrics for point in rerun.results] == [
        point.metrics for point in result.results]


def test_full_disk_keeps_the_previous_cli_artifact(
        tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(COMPUTE_CACHE_ENV, raising=False)
    out = tmp_path / "net.json"
    argv = ["net", "--scenario", "dense-ward", "--nodes", "3",
            "--duration", "1", "--json", str(out)]
    assert main(argv) == 0
    before = out.read_bytes()
    capsys.readouterr()

    with monkeypatch.context() as patch:
        _fill_disk(patch)
        assert main(argv + ["--seed", "9"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("python -m repro.eval: error: ")
    assert "No space left on device" in err
    assert err.count("\n") == 1  # one line, no traceback
    assert out.read_bytes() == before
    assert sorted(path.name for path in tmp_path.iterdir()) == ["net.json"]
