"""The benchmark's own tests: hooks resolve, workloads pass their checks small.

    PYTHONPATH=src python3 -m pytest benchmark/tests -q
"""

import json
import os
import subprocess
import sys
import threading
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (os.path.join(ROOT, "src"), BENCH):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def run_phases(workload, tracer=None):
    for phase, method in workload.phases:
        if tracer is None:
            method(workload)
        else:
            with tracer.span(f"phase.{phase}"):
                method(workload)


@pytest.mark.parametrize("name,module,attr,counter", spans.HOOKS, ids=spans.SPAN_NAMES)
def test_hook_resolves(name, module, attr, counter):
    assert spans.resolve(module, attr) is not None, f"{name} no longer exists in uhwt"


def test_missing_hook_is_absent_not_fatal(monkeypatch):
    monkeypatch.setattr(spans, "HOOKS", spans.HOOKS + (("core.gone", "core", "gone", None),))
    with spans.Tracer() as tracer:
        pass
    assert tracer.absent == ["core.gone"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_checks_pass_at_smoke_size(name, tmp_path):
    workload = workloads.WORKLOADS[name](str(tmp_path), smoke=True)
    workload.setup(1)
    run_phases(workload)
    failed = [check for check, ok in workload.checks() if not ok]
    assert not failed
    assert set(workload.reference_values()) == set(run.load_reference(name))


def test_traced_run_covers_spans_and_restores_originals(tmp_path):
    from uhwt import core, sphere

    originals = (sphere.split_triangle, core.UHTree.split_node)
    workload = workloads.WORKLOADS["sphere_forest"](str(tmp_path), smoke=True)
    workload.setup(2)
    with spans.Tracer() as tracer:
        assert sphere.split_triangle is not originals[0]
        run_phases(workload, tracer)
    assert (sphere.split_triangle, core.UHTree.split_node) == originals
    summary = tracer.summary(threading.main_thread().ident)
    for span in ("sphere_geom.split_triangle", "sphere.fit_sphere",
                 "ensembles.quantile_weights_batch"):
        assert summary["calls"].get(span, 0) > 0, span
    assert summary["counts"]["nodes_grown"] > 0
    assert all(value >= 0.0 for value in summary["self_s"].values())
    assert summary["learner_busy_s"] > 0.0


def test_main_thread_self_times_add_up_to_wall(tmp_path):
    workload = workloads.WORKLOADS["grid_denoise"](str(tmp_path), smoke=True)
    workload.setup(3)
    with spans.Tracer() as tracer:
        began = time.perf_counter()
        with tracer.span("outer"):
            run_phases(workload, tracer)
        wall = time.perf_counter() - began
    summary = tracer.summary(threading.main_thread().ident)
    assert summary["calls"]["grid.greedy_split"] > 0
    assert summary["main_self_s"] == pytest.approx(wall, rel=0.01, abs=1e-3)


def test_benchmark_json_matches_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(run.PER_LAYER)


def test_reference_mismatch_detection():
    reference = {"node_count": 10, "mse": 0.5}
    assert run.reference_mismatches(reference, {"node_count": 10, "mse": 0.5 * (1 + 1e-12)}) == []
    assert run.reference_mismatches(reference, {"node_count": 11, "mse": 0.5 * (1 + 1e-6)}) == [
        "node_count", "mse"]


def test_runner_refuses_a_directory_without_the_library(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "grid_denoise",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
