"""Tier-1 smoke test of the benchmark itself.

One ``run --smoke`` (1 round, ~5 % of the op counts, traced round
included) into ``tmp_path``.  It fails loudly — instead of a metric
silently going missing — when a wrapped callable is renamed, a metric
name drifts between ``BENCHMARK.json``, the catalog and the README, an
op fails its oracle audit, the run dirties the working tree, or
``measure`` returns while a process it started is still there.
"""

import ctypes
import json
import subprocess
import sys
from pathlib import Path

from perfbench.catalog import END_TO_END, FAILED_RATIO, PER_LAYER, manifest
from perfbench.supervise import PR_SET_CHILD_SUBREAPER, children
from perfbench.tracer import TARGETS

ROOT = Path(__file__).resolve().parent.parent


def _git_status() -> str | None:
    try:
        done = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout if done.returncode == 0 else None


def test_manifest_catalog_and_readme_agree():
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert document == manifest()
    assert any(metric.name == "setup_s" for metric in END_TO_END)
    readme = (ROOT / "perfbench" / "README.md").read_text()
    names = (
        [workload["name"] for workload in document["workloads"]]
        + [metric["name"] for metric in document["end_to_end"]]
        + [layer["name"] for layer in document["per_layer"]]
        + [FAILED_RATIO]
    )
    assert len(names) == len(set(names))
    missing = [name for name in names if f"`{name}`" not in readme]
    assert not missing, f"not documented in perfbench/README.md: {missing}"
    for workload in document["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_measure_leaves_no_process_behind():
    """The pool workload starts the ``multiprocessing`` resource tracker,
    which ends only after the process that started it: ``measure`` must
    have waited for it too when it returns."""
    prctl = ctypes.CDLL(None, use_errno=True).prctl
    # Orphans of our children come to us, not to PID 1, so we see them.
    assert prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    try:
        before = set(children())
        done = subprocess.run(
            [sys.executable, "-m", "perfbench", "measure", "--workload",
             "hot_semijoin_shm", "--ops", "8", "--setups", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout.splitlines()[-1])["correct"]
        assert set(children()) <= before
    finally:
        prctl(PR_SET_CHILD_SUBREAPER, 0, 0, 0, 0)


def test_smoke_run_emits_every_metric(tmp_path):
    status_before = _git_status()
    done = subprocess.run(
        [sys.executable, "-m", "perfbench", "run", "--smoke",
         "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.rstrip().endswith('"claim": null')
    results = json.loads((tmp_path / "results.json").read_text())
    trace = json.loads((tmp_path / "trace.json").read_text())
    assert list(results)[-1] == "claim" and results["claim"] is None
    assert results["problems"] == []
    for field in ("available_cpus", "os_cpu_count", "python", "platform",
                  "loadavg_1min_start", "loadavg_1min_end"):
        assert field in results["host"]
    for field in ("seed", "rounds", "git_commit", "ops"):
        assert field in results["provenance"]

    printed = done.stdout
    for workload in manifest()["workloads"]:
        name = workload["name"]
        record = results["workloads"][name]
        assert record["failed"] == 0, record["failed_reasons"]
        assert record["end_to_end"][FAILED_RATIO]["max"] == 0
        assert all(record["checks"].values()), record["checks"]
        assert record["input_rows"] and record["oracle_s"] >= 0
        for metric in END_TO_END:
            emitted = record["end_to_end"][metric.name]
            assert emitted["unit"] == metric.unit
            assert emitted["median"] > 0, (name, metric.name)
        for layer in PER_LAYER:
            emitted = record["per_layer"][layer.name]
            assert emitted["unit"] == layer.unit
            assert f"{name:18s} {layer.name:34s}" in printed

    # Every wrapped callable still resolves, everywhere it is looked for,
    # and fires on the workload that is there to exercise it.
    pooled = results["host"]["pool_workers"] >= 2
    for target in TARGETS:
        for name, traced in trace["workloads"].items():
            assert traced["wrapped"].get(target.span), (target.span, name)
        if target.on is not None and (pooled or not target.pool):
            produced = trace["workloads"][target.on]["spans_produced"]
            assert target.span in produced, (target.span, target.on)
    # Layers a workload is "on" are really doing work there.
    for layer in PER_LAYER:
        if layer.unit != "ms" or not layer.name.endswith("_ms_per_op"):
            continue
        for name in layer.on:
            if name == "hot_semijoin_shm" and not pooled:
                continue
            value = results["workloads"][name]["per_layer"][layer.name]
            assert value["value"] > 0, (layer.name, name)

    status_after = _git_status()
    if status_before is not None:
        assert status_after == status_before
