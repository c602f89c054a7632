"""Self-tests of the end-to-end benchmark.

Run from the root of a checkout::

    python3 -m pytest e2ebench/tests -q

They use the ``tiny`` workload sizes, so the whole file takes well under
a minute.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

from spans import Tracer, layer_metrics, metric_units, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def run_cli(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "e2ebench", "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_emits_every_declared_metric(workload, trace):
    done = run_cli("--workload", workload, "--seed", "1", "--seconds", "0",
                   "--trace", str(trace), "--size", "tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    key = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in declared()[key]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    printed = {line.split()[0] for line in done.stdout.splitlines()}
    if not trace:
        # Every end-to-end metric is printed, declared or not.
        assert {"wall_s", "setup_s", "warm_wall_s", "items_per_s", "cpu_s",
                "peak_rss_mb", "failed_ratio"} <= printed


def test_declared_per_layer_metrics_match_the_tracer():
    assert {m["name"]: m["unit"] for m in declared()["per_layer"]} == (
        metric_units()
    )


def test_runs_refuse_without_the_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = run_cli("--workload", "model-check", "--seed", "0",
                   "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_self_time_subtracts_the_union_of_children():
    spans = [
        {"name": "a", "start": 0.0, "end": 10.0, "parent": None},
        {"name": "b", "start": 1.0, "end": 4.0, "parent": 0},
        {"name": "b", "start": 3.0, "end": 6.0, "parent": 0},
        {"name": "c", "start": 2.0, "end": 3.0, "parent": 1},
    ]
    assert self_times(spans) == [5.0, 2.0, 3.0, 1.0]


def _traced_run(name, workdir):
    workload = WORKLOADS[name]
    workload.imports()
    inputs = workload.prepare(1, "tiny")
    with Tracer() as tracer:
        cold = workload.cold(inputs, str(workdir))
    return layer_metrics(tracer.spans, 1.0), workload, inputs, cold


def _patch_everywhere(monkeypatch, module, attr, replacement):
    """Rebind ``module.attr`` in every module that imported it."""
    original = getattr(module, attr)
    for loaded in list(sys.modules.values()):
        if loaded is None or not loaded.__name__.startswith("repro"):
            continue
        for key, value in list(vars(loaded).items()):
            if value is original:
                monkeypatch.setattr(loaded, key, replacement)


def _self_times(values):
    return {k: v for k, v in values.items() if k.endswith(".self_s")}


@pytest.mark.parametrize(
    "workload,layer,target,delay",
    [
        # a method boundary, patched on its class
        ("experiments-all", "runtime.cache_put",
         ("repro.runtime.cache", "ResultCache", "put"), 0.03),
        # a function boundary that callers bind with ``from ... import``
        ("model-check", "datalink.check_execution",
         ("repro.datalink.spec", None, "check_execution"), 0.1),
    ],
)
def test_a_slow_boundary_shows_in_its_own_self_time_only(
    workload, layer, target, delay, monkeypatch, tmp_path
):
    import importlib

    before, _, _, _ = _traced_run(workload, tmp_path / "base")
    calls = before[f"{layer}.calls"]
    assert calls >= 1

    module_name, class_name, attr = target
    module = importlib.import_module(module_name)
    owner = getattr(module, class_name) if class_name else module
    original = getattr(owner, attr)

    def slow(*args, **kwargs):
        time.sleep(delay)
        return original(*args, **kwargs)

    if class_name:
        monkeypatch.setattr(owner, attr, slow)
    else:
        _patch_everywhere(monkeypatch, module, attr, slow)
    after, _, _, _ = _traced_run(workload, tmp_path / "slow")

    added = calls * delay
    grown = {
        name: after[name] - before[name]
        for name in _self_times(after)
    }
    assert grown[f"{layer}.self_s"] >= 0.9 * added
    others = {k: v for k, v in grown.items() if k != f"{layer}.self_s"}
    assert max(others.values()) < 0.3 * added, others


def test_tracer_restores_every_binding(tmp_path):
    import repro.checker.trace as trace
    import repro.datalink.spec as spec
    from repro.datalink.system import DataLinkSystem

    run = DataLinkSystem.run
    check = spec.check_execution
    tracer = Tracer().install()
    assert trace.check_execution is not check
    assert DataLinkSystem.run is not run
    tracer.uninstall()
    assert trace.check_execution is check and spec.check_execution is check
    assert DataLinkSystem.run is run


def _failed_ratio(checks):
    return sum(1 for _, ok in checks if not ok) / len(checks)


def test_a_corrupted_trial_raises_failed_ratio(monkeypatch, tmp_path):
    from repro.core.vectrials import VectorTrialEngine

    workload = WORKLOADS["trial-grid"]
    workload.imports()
    inputs = workload.prepare(1, "tiny")
    clean = workload.cold(inputs, str(tmp_path))
    assert _failed_ratio(workload.verify(inputs, clean, True)) == 0

    original = VectorTrialEngine.run_trials

    def corrupted(self, *args, **kwargs):
        return [
            dataclasses.replace(r, steps=r.steps + 1)
            for r in original(self, *args, **kwargs)
        ]

    monkeypatch.setattr(VectorTrialEngine, "run_trials", corrupted)
    bad = workload.cold(inputs, str(tmp_path))
    assert _failed_ratio(workload.verify(inputs, bad, True)) > 0
    assert _failed_ratio(workload.same(clean, bad, "cold")) > 0


def test_a_lost_counterexample_raises_failed_ratio(monkeypatch, tmp_path):
    import repro.checker

    workload = WORKLOADS["model-check"]
    workload.imports()
    inputs = workload.prepare(1, "tiny")
    original = repro.checker.check_protocol

    def forgetful(*args, **kwargs):
        result = original(*args, **kwargs)
        result.counterexample = None
        return result

    monkeypatch.setattr(repro.checker, "check_protocol", forgetful)
    bad = workload.cold(inputs, str(tmp_path))
    assert _failed_ratio(workload.verify(inputs, bad, False)) > 0
