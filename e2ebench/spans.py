"""Span recorder and layer wrappers for the end-to-end benchmark.

The benchmark measures each layer of ``repro`` from outside: while a
:class:`Tracer` is installed, the public functions and methods listed in
:data:`BOUNDARIES` are replaced by thin wrappers that record one span
(name, start, end, parent) per call, and :meth:`Tracer.uninstall` puts
the originals back.  Nothing in ``repro`` itself is changed.

A function is wrapped wherever a caller looks it up: every ``repro``
module attribute that *is* the original function is rebound (so
``from repro.datalink.spec import check_execution`` in an experiment
module is covered too), unless the boundary is marked ``only`` one
binding.  Methods are patched on their class.

Spans cross the ``campaign-grid`` process pool: pool workers are forked
after :meth:`Tracer.install`, so they inherit the wrappers; the wrapped
task body returns the worker's spans inside the task result, and the
parent adopts them under its open ``runtime.executor`` span.  Both
sides read ``time.perf_counter``, a system-wide monotonic clock on
Linux, so the intervals are comparable.

Self time is a span's duration minus the part of its interval that its
child spans cover (children of one span may overlap when they ran in
different pool workers).
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import os
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Key under which a pool worker returns its spans inside a task result.
SPANS_KEY = "_e2ebench_spans"

#: The eight registered experiments, in registry order.
EXPERIMENTS = (
    "boundness", "headers", "backlog", "probabilistic", "hoeffding",
    "ablation", "transport", "window",
)


def _trial_count(result, args, kwargs) -> Dict[str, Any]:
    return {"trials": len(result)}


def _explored(result, args, kwargs) -> Dict[str, Any]:
    perf = result.perf
    return {
        "configurations": result.configurations,
        "duplicates": perf.get("duplicate_successors_skipped", 0),
    }


def _checked(result, args, kwargs) -> Dict[str, Any]:
    stats = result.stats
    return {
        "configurations": stats.get("configurations", 0),
        "unique": stats.get("seen", 0),
        "duplicates": stats.get("dup_skipped", 0),
    }


def _checker_name(args, kwargs) -> str:
    return "checker.check." + kwargs.get("store", "memory")


def _cache_hit(result, args, kwargs) -> Dict[str, Any]:
    return {"hit": result is not None}


def _executed(result, args, kwargs) -> Dict[str, Any]:
    ran = [o for o in result if o.status == "ok"]
    return {
        "workers": max(1, int(kwargs.get("workers", 1))),
        "ran": len(ran),
        "task_wall_s": sum(o.wall_time for o in ran),
    }


@dataclasses.dataclass(frozen=True)
class Boundary:
    """One wrapped layer boundary.

    Attributes:
        layer: the span name (``<module>.<boundary>``).
        module: the module defining the function or class.
        attr: ``name`` of a function or ``Class.method``.
        only: wrap only the binding in ``module`` (callers elsewhere
            reach a different, unwrapped binding on purpose).
        namer: ``(args, kwargs) -> span name`` when it depends on the
            call.
        observe: ``(result, args, kwargs) -> attrs`` recorded on the
            span after the call returns.
    """

    layer: str
    module: str
    attr: str
    only: bool = False
    namer: Optional[Callable] = None
    observe: Optional[Callable] = None


BOUNDARIES: Tuple[Boundary, ...] = (
    Boundary("datalink.system_run", "repro.datalink.system",
             "DataLinkSystem.run"),
    Boundary("datalink.check_execution", "repro.datalink.spec",
             "check_execution"),
    Boundary("core.delivery", "repro.core.theorem51",
             "run_probabilistic_delivery"),
    Boundary("core.trials", "repro.core.trials",
             "run_probabilistic_trials", observe=_trial_count),
    Boundary("core.trials_batch", "repro.core.trials",
             "ProbabilisticTrialEngine.run"),
    Boundary("core.vectrials", "repro.core.vectrials",
             "VectorTrialEngine.run_trials", observe=_trial_count),
    Boundary("core.pump_batch", "repro.core.trials", "plant_backlog_batch"),
    Boundary("core.pump_vector", "repro.core.vecpump",
             "VectorPumpEngine.plant"),
    Boundary("ioa.compile", "repro.ioa.compile", "CompiledPair.__init__"),
    Boundary("ioa.explore", "repro.ioa.exploration",
             "explore_station_states", observe=_explored),
    Boundary("checker.check", "repro.checker.engine", "check_protocol",
             namer=_checker_name, observe=_checked),
    Boundary("checker.replay", "repro.checker.trace",
             "replay_counterexample"),
    Boundary("runtime.plan", "repro.runtime.engine", "plan_tasks"),
    # Campaign runs plan through compile_campaign directly; plan_tasks
    # calls the compiler module's binding, which stays unwrapped.
    Boundary("runtime.plan", "repro.campaign.engine", "compile_campaign",
             only=True),
    Boundary("runtime.cache_get", "repro.runtime.cache", "ResultCache.get",
             observe=_cache_hit),
    Boundary("runtime.cache_put", "repro.runtime.cache", "ResultCache.put"),
    Boundary("runtime.executor", "repro.runtime.executor", "run_tasks",
             observe=_executed),
    Boundary("runtime.merge", "repro.runtime.engine", "merge_outcomes",
             only=True),
    # Sharded experiment merges may call merge_campaign themselves;
    # only the campaign engine's own call is the merge step.
    Boundary("runtime.merge", "repro.campaign.engine", "merge_campaign",
             only=True),
    Boundary("runtime.manifest", "repro.runtime.manifest", "build_manifest"),
    Boundary("campaign.cell", "repro.campaign.cells", "run_cell"),
)

#: ``<module>.<boundary>`` names reported with calls/busy_s/self_s.
LAYERS = (
    "datalink.system_run",
    "datalink.check_execution",
    "core.delivery",
    "core.trials",
    "core.trials_batch",
    "core.vectrials",
    "core.pump_batch",
    "core.pump_vector",
    "ioa.compile",
    "ioa.explore",
    "checker.check.memory",
    "checker.check.disk",
    "checker.replay",
    "runtime.plan",
    "runtime.cache_get",
    "runtime.cache_put",
    "runtime.executor",
    "runtime.merge",
    "runtime.manifest",
    "campaign.cell",
)

#: Named ratios, with their units.
RATIOS = (
    ("core.gate.vector_share", "ratio"),
    ("ioa.explore.configs_per_s", "1/s"),
    ("ioa.frontier.unique_ratio", "ratio"),
    ("runtime.cache.hit_ratio", "ratio"),
    ("runtime.executor.utilisation", "ratio"),
    ("trace.overhead_x", "x"),
)


def metric_units() -> Dict[str, str]:
    """Every per-layer metric name the traced run reports, with unit."""
    units: Dict[str, str] = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.busy_s"] = "s"
        units[f"{layer}.self_s"] = "s"
    for name in EXPERIMENTS:
        units[f"experiments.{name}.busy_s"] = "s"
    for name, unit in RATIOS:
        units[name] = unit
    return units


class Tracer:
    """Records spans while installed; keeps them in memory.

    Each span is a dict ``{"name", "start", "end", "parent", "attrs"}``
    where ``parent`` is the index of the enclosing span in
    :attr:`spans` (``None`` at top level).
    """

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        self._pid = os.getpid()
        self._patches: List[Tuple[Any, str, Any, bool]] = []
        self._originals: Dict[int, Any] = {}
        self.adopted = 0

    # -- recording ---------------------------------------------------

    def call(self, name, fn, args, kwargs, observe=None):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        span = {
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "parent": self._stack[-1] if self._stack else None,
            "attrs": {},
        }
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
        if observe is not None:
            span["attrs"].update(observe(result, args, kwargs))
        return result

    def adopt(self, spans: List[Dict[str, Any]]) -> None:
        """Graft spans recorded in a pool worker under the open span."""
        self.adopted += len(spans)
        base = len(self.spans)
        anchor = self._stack[-1] if self._stack else None
        for span in spans:
            parent = span["parent"]
            self.spans.append(
                dict(
                    span,
                    parent=anchor if parent is None else base + parent,
                )
            )

    # -- wrapping ----------------------------------------------------

    def _wrap(self, boundary: Boundary, original):
        tracer = self
        layer, namer, observe = boundary.layer, boundary.namer, boundary.observe

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            name = namer(args, kwargs) if namer is not None else layer
            return tracer.call(name, original, args, kwargs, observe)

        return wrapper

    def _wrap_execute(self, original):
        """The task body: one ``experiments.<name>`` span per task of a
        registered experiment, and span transport out of pool workers."""
        tracer = self

        @functools.wraps(original)
        def execute(spec_dict, *args, **kwargs):
            name = spec_dict.get("experiment")
            in_worker = os.getpid() != tracer._pid
            if in_worker:
                tracer.spans, tracer._stack = [], []
            if name in EXPERIMENTS:
                result = tracer.call(
                    f"experiments.{name}", original,
                    (spec_dict,) + args, kwargs,
                )
            else:
                result = original(spec_dict, *args, **kwargs)
            if in_worker:
                result = dict(result)
                result[SPANS_KEY] = tracer.spans
            return result

        return execute

    def _wrap_outcome(self, original):
        tracer = self

        @functools.wraps(original)
        def outcome_ok(spec, result, *args, **kwargs):
            spans = result.pop(SPANS_KEY, None)
            if spans:
                tracer.adopt(spans)
            return original(spec, result, *args, **kwargs)

        return outcome_ok

    def _patch(self, owner, attr: str, wrapper) -> None:
        own = attr in vars(owner)
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original, own))
        self._originals[id(wrapper)] = original
        setattr(owner, attr, wrapper)

    def _patch_function(self, module, attr: str, wrapper, only: bool) -> None:
        original = getattr(module, attr)
        if only:
            self._patch(module, attr, wrapper)
            return
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self._patch(loaded, key, wrapper)

    def install(self) -> "Tracer":
        """Wrap every boundary; returns ``self``."""
        for boundary in BOUNDARIES:
            module = importlib.import_module(boundary.module)
            if "." in boundary.attr:
                class_name, method = boundary.attr.split(".")
                owner = getattr(module, class_name)
                self._patch(
                    owner, method, self._wrap(boundary, getattr(owner, method))
                )
            else:
                original = getattr(module, boundary.attr)
                self._patch_function(
                    module, boundary.attr, self._wrap(boundary, original),
                    boundary.only,
                )
        worker = importlib.import_module("repro.runtime.worker")
        self._patch_function(
            worker, "execute", self._wrap_execute(worker.execute), False
        )
        executor = importlib.import_module("repro.runtime.executor")
        self._patch(
            executor, "_outcome_ok", self._wrap_outcome(executor._outcome_ok)
        )
        return self

    def uninstall(self) -> None:
        """Restore every original, including bindings that modules
        imported while the tracer was installed copied from a wrapper."""
        for owner, attr, original, own in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not name.startswith("repro"):
                continue
            for key, value in list(vars(loaded).items()):
                original = self._originals.get(id(value))
                if original is not None:
                    setattr(loaded, key, original)
        self._originals.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()


def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: List[Dict[str, Any]]) -> List[float]:
    """Per-span self time: duration minus the union of its children."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        parent = span["parent"]
        if parent is not None:
            children.setdefault(parent, []).append(
                (span["start"], span["end"])
            )
    result = []
    for index, span in enumerate(spans):
        start, end = span["start"], span["end"]
        clipped = [
            (max(s, start), min(e, end))
            for s, e in children.get(index, ())
            if min(e, end) > max(s, start)
        ]
        result.append(max(0.0, (end - start) - _covered(clipped)))
    return result


def _has_ancestor(spans, index: int, names) -> bool:
    parent = spans[index]["parent"]
    while parent is not None:
        if spans[parent]["name"] in names:
            return True
        parent = spans[parent]["parent"]
    return False


def layer_metrics(
    spans: List[Dict[str, Any]], overhead_x: float
) -> Dict[str, float]:
    """Fold spans into the per-layer metrics of :func:`metric_units`.

    ``busy_s`` counts only the outermost span of a name, so a layer
    that re-enters itself is not counted twice.
    """
    own = self_times(spans)
    values: Dict[str, float] = {name: 0.0 for name in metric_units()}
    for index, span in enumerate(spans):
        name = span["name"]
        duration = span["end"] - span["start"]
        if name.startswith("experiments."):
            if not _has_ancestor(spans, index, (name,)):
                values[f"{name}.busy_s"] += duration
            continue
        if f"{name}.calls" not in values:
            continue
        values[f"{name}.calls"] += 1
        values[f"{name}.self_s"] += own[index]
        if not _has_ancestor(spans, index, (name,)):
            values[f"{name}.busy_s"] += duration

    def spans_named(*names):
        return [
            (i, s) for i, s in enumerate(spans) if s["name"] in names
        ]

    vector = sum(s["attrs"].get("trials", 0) for _, s in spans_named("core.vectrials"))
    submitted = sum(s["attrs"].get("trials", 0) for _, s in spans_named("core.trials"))
    submitted += sum(
        1
        for i, _ in spans_named("core.delivery")
        if not _has_ancestor(spans, i, ("core.trials", "core.delivery"))
    )
    values["core.gate.vector_share"] = vector / submitted if submitted else 0.0

    searches = spans_named(
        "ioa.explore", "checker.check.memory", "checker.check.disk"
    )
    configurations = sum(s["attrs"].get("configurations", 0) for _, s in searches)
    search_s = sum(s["end"] - s["start"] for _, s in searches)
    values["ioa.explore.configs_per_s"] = (
        configurations / search_s if search_s > 0 else 0.0
    )
    unique = sum(
        s["attrs"].get("unique", s["attrs"].get("configurations", 0))
        for _, s in searches
    )
    duplicates = sum(s["attrs"].get("duplicates", 0) for _, s in searches)
    values["ioa.frontier.unique_ratio"] = (
        unique / (unique + duplicates) if unique + duplicates else 0.0
    )

    gets = spans_named("runtime.cache_get")
    hits = sum(1 for _, s in gets if s["attrs"].get("hit"))
    values["runtime.cache.hit_ratio"] = hits / len(gets) if gets else 0.0

    # Utilisation over the runs that executed tasks (a fully cached
    # run executes nothing and would only dilute the figure).
    runs = [
        s for _, s in spans_named("runtime.executor") if s["attrs"].get("ran")
    ]
    capacity = sum(s["attrs"]["workers"] * (s["end"] - s["start"]) for s in runs)
    task_wall = sum(s["attrs"]["task_wall_s"] for s in runs)
    values["runtime.executor.utilisation"] = (
        task_wall / capacity if capacity > 0 else 0.0
    )
    values["trace.overhead_x"] = overhead_x
    return values
