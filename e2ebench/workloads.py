"""The benchmark's four workloads.

Each workload is an object with the same steps:

* ``imports()`` -- import every ``repro`` module the workload calls;
* ``prepare(seed, size)`` -- generate the inputs from the seed (the
  same seed gives the same inputs);
* ``cold(inputs, workdir)`` / ``warm(inputs, workdir, cold)`` -- the
  timed phase, and the same run again against whatever the cold run
  left behind (the result cache where the workload uses one, otherwise
  in-process state such as imports and compiled tables);
* ``items(inputs, output)`` -- the workload's units of work;
* ``verify(inputs, cold, oracle)`` -- checks of the cold output, with
  the slower oracle reruns only when ``oracle`` is set;
* ``same(cold, other, kind)`` -- checks that a later run in the same
  process (``kind`` is ``"warm"``) produced the cold output again;
* ``digest(output)`` -- a content hash, equal across processes for
  equal outputs.

Checks are ``(name, passed)`` pairs; all of them run outside the timed
phase.  ``size`` is ``"full"`` for the benchmark and ``"tiny"`` for its
self-tests.  This module imports nothing from ``repro`` at import time,
so a fresh interpreter can time ``imports()`` itself.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import tempfile
from typing import Any, Dict, List, Tuple

Checks = List[Tuple[str, bool]]


def fresh_dir(workdir: str, prefix: str) -> str:
    """A new empty directory under ``workdir``."""
    os.makedirs(workdir, exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=workdir)


def sha(value: Any) -> str:
    text = json.dumps(value, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def task_checks(report) -> Checks:
    """One check per task of a runtime report: it did not fail.  A
    :class:`~repro.runtime.TaskFailure` stands in for a run that
    raised; its failed tasks count as failed checks."""
    from repro.runtime import TaskFailure

    if isinstance(report, TaskFailure):
        return [(f"task {o.spec.task_id}", False) for o in report.outcomes]
    return [
        (f"task {o.spec.task_id}", o.status != "failed")
        for o in report.outcomes
    ]


class _CachedRuns:
    """Steps shared by the workloads that run through the task runtime:
    cold into a fresh cache directory, warm into the same one."""

    def _run(self, inputs, cache_dir):
        raise NotImplementedError

    def _result(self, report):
        raise NotImplementedError

    def cold(self, inputs, workdir):
        cache_dir = fresh_dir(workdir, "cache-")
        return {"cache": cache_dir, "report": self._run(inputs, cache_dir)}

    def warm(self, inputs, workdir, cold):
        return {"cache": cold["cache"],
                "report": self._run(inputs, cold["cache"])}

    def items(self, inputs, output) -> int:
        return len(getattr(output["report"], "outcomes", ()))

    def digest(self, output) -> str:
        from repro.runtime import TaskFailure

        report = output["report"]
        if isinstance(report, TaskFailure):
            return "failed"
        return sha(self._result(report))

    def same(self, cold, other, kind) -> Checks:
        report = other["report"]
        checks = task_checks(report)
        if kind == "warm":
            statuses = [o.status for o in getattr(report, "outcomes", ())]
            checks.append((
                "warm run served every task from the cache",
                bool(statuses) and all(s == "cached" for s in statuses),
            ))
        checks.append(
            (f"{kind} run equals the cold run",
             self.digest(other) == self.digest(cold))
        )
        return checks


class ExperimentsAll(_CachedRuns):
    """``run_experiments`` over all eight experiments, full grids,
    serial, into a fresh result cache: the paper reproduction as users
    run it.  Item = planned task."""

    name = "experiments-all"
    warm_repeats = 400

    def imports(self) -> None:
        import repro.experiments.runner  # noqa: F401
        import repro.runtime  # noqa: F401

    def prepare(self, seed: int, size: str) -> Dict[str, Any]:
        from repro.experiments.runner import REGISTRY

        if size == "tiny":
            return {"names": ["hoeffding", "backlog"], "fast": True,
                    "seed": seed}
        return {"names": list(REGISTRY), "fast": False, "seed": seed}

    def _run(self, inputs, cache_dir):
        from repro.runtime import ResultCache, TaskFailure, run_experiments

        try:
            return run_experiments(
                inputs["names"], fast=inputs["fast"], seed=inputs["seed"],
                workers=1, cache=ResultCache(cache_dir),
            )
        except TaskFailure as failure:
            return failure

    def _result(self, report):
        return {name: r.to_dict() for name, r in report.results.items()}

    def verify(self, inputs, cold, oracle) -> Checks:
        from repro.runtime import TaskFailure, plan_tasks

        report = cold["report"]
        checks = task_checks(report)
        if isinstance(report, TaskFailure):
            return checks
        planned = plan_tasks(inputs["names"], fast=inputs["fast"],
                             seed=inputs["seed"])
        checks.append(("every planned task settled",
                       len(report.outcomes) == len(planned)))
        checks.append(("every experiment reported",
                       list(report.results) == list(inputs["names"])))
        for name, result in report.results.items():
            checks.extend(
                (f"{name}: {check}", bool(ok))
                for check, ok in result.checks.items()
            )
        return checks


class TrialGrid:
    """The library calls a ``vector_sweep`` user makes: a sequence
    protocol trial grid (vector tier), single flooding trajectories
    (refused by every vector gate, so batch tier) and two backlog-cost
    curves (vector pumping tier).  Item = trial or probe."""

    name = "trial-grid"
    warm_repeats = 1

    QS = (0.1, 0.3, 0.5)
    FLOOD_Q = 0.5
    SIZES = {
        # sequence trials per q, flooding trajectories and their packet
        # budget, probe levels per curve, oracle sample per q
        "full": dict(per_q=4096, floods=8, flood_budget=40_000, levels=32,
                     sample=4),
        "tiny": dict(per_q=64, floods=2, flood_budget=2_000, levels=16,
                     sample=2),
    }

    def imports(self) -> None:
        import repro.core.theorem41  # noqa: F401
        import repro.core.trials  # noqa: F401
        import repro.core.vecpump  # noqa: F401
        import repro.core.vectrials  # noqa: F401
        import repro.datalink  # noqa: F401
        import repro.datalink.flooding  # noqa: F401

    def prepare(self, seed: int, size: str) -> Dict[str, Any]:
        from repro.runtime.seeds import derive_seed

        shape = self.SIZES[size]
        rng = random.Random(seed)
        seq = {
            q: [
                dict(q=q, n=30,
                     seed=derive_seed(seed, self.name, f"seq/{q}/{i}"))
                for i in range(shape["per_q"])
            ]
            for q in self.QS
        }
        floods = [
            dict(q=self.FLOOD_Q, n=96,
                 seed=derive_seed(seed, self.name, f"flood/{i}"))
            for i in range(shape["floods"])
        ]
        levels = {
            protocol: sorted(rng.sample(range(4, 260), shape["levels"]))
            for protocol in ("alternating-bit", "capacity-flooding")
        }
        return {"seq": seq, "floods": floods, "levels": levels,
                "shape": shape, "seed": seed}

    @staticmethod
    def _factory(protocol):
        from repro.datalink import make_alternating_bit, make_sequence_protocol
        from repro.datalink.flooding import (
            make_capacity_flooding,
            make_flooding,
        )

        return {
            "sequence": make_sequence_protocol,
            "flooding": lambda: make_flooding(3),
            "alternating-bit": make_alternating_bit,
            "capacity-flooding": lambda: make_capacity_flooding(2, 16),
        }[protocol]

    def _seq(self, trials, engine):
        from repro.core.trials import run_probabilistic_trials

        return run_probabilistic_trials(
            self._factory("sequence"), trials, engine=engine,
            packet_budget=160,
        )

    def _floods(self, inputs, trials, engine):
        from repro.core.trials import run_probabilistic_trials

        return run_probabilistic_trials(
            self._factory("flooding"), trials, engine=engine,
            packet_budget=inputs["shape"]["flood_budget"],
        )

    def _probes(self, protocol, levels, engine):
        from repro.core.theorem41 import probe_backlog_costs

        return probe_backlog_costs(
            self._factory(protocol), levels, engine=engine
        )

    def cold(self, inputs, workdir):
        return {
            "seq": {q: self._seq(t, "auto") for q, t in inputs["seq"].items()},
            "floods": self._floods(inputs, inputs["floods"], "auto"),
            "probes": {
                p: self._probes(p, levels, "auto")
                for p, levels in inputs["levels"].items()
            },
        }

    def warm(self, inputs, workdir, cold):
        return self.cold(inputs, workdir)

    def items(self, inputs, output) -> int:
        return (
            sum(len(r) for r in output["seq"].values())
            + len(output["floods"])
            + sum(len(p) for p in output["probes"].values())
        )

    def digest(self, output) -> str:
        return sha(repr(output))

    def same(self, cold, other, kind) -> Checks:
        return [(f"{kind} run equals the cold run", other == cold)]

    def verify(self, inputs, cold, oracle) -> Checks:
        submitted = (
            sum(len(t) for t in inputs["seq"].values())
            + len(inputs["floods"])
            + sum(len(levels) for levels in inputs["levels"].values())
        )
        checks: Checks = [("every trial and probe returned",
                           self.items(inputs, cold) == submitted)]
        if not oracle:
            return checks

        def agree(label, got, want):
            checks.append((label, len(got) == len(want) and all(
                dataclasses.asdict(g) == dataclasses.asdict(w)
                for g, w in zip(got, want)
            )))

        # The interpreted tier is the oracle: rerun a seeded sample of
        # every grid and compare field by field.
        rng = random.Random(inputs["seed"] + 1)
        k = inputs["shape"]["sample"]
        for q, trials in inputs["seq"].items():
            for i in sorted(rng.sample(range(len(trials)), k)):
                agree(f"sequence q={q} trial {i}", [cold["seq"][q][i]],
                      self._seq([trials[i]], "interpreted"))
        i = rng.randrange(len(inputs["floods"]))
        agree(f"flooding trajectory {i}", [cold["floods"][i]],
              self._floods(inputs, [inputs["floods"][i]], "interpreted"))
        for protocol, levels in inputs["levels"].items():
            picks = sorted(rng.sample(range(len(levels)), 2))
            agree(f"{protocol} probes {picks}",
                  [cold["probes"][protocol][i] for i in picks],
                  self._probes(protocol, [levels[i] for i in picks],
                               "interpreted"))
        return checks


class ModelCheck:
    """``check_protocol`` runs: ``type-ok`` over
    ``capacity-flooding(4,4)`` with the memory and the disk store,
    ``dl1-forgery`` on sequence/eager with concrete replay, and
    ``header-bound=4`` on ``capacity-flooding(3,2)``.  The seed permutes
    the message alphabets.  Item = configuration explored."""

    name = "model-check"
    warm_repeats = 1

    SIZES = {
        # budgets, injected messages, and the configurations the four
        # runs explore in total (fixed by the budgets and the bounding
        # discipline; exact-count truncation makes them exact)
        "full": dict(type_ok=500_000, header=200_000, messages=6,
                     configurations=1_215_711),
        "tiny": dict(type_ok=5_000, header=2_000, messages=3,
                     configurations=2_959),
    }

    def imports(self) -> None:
        import repro.checker  # noqa: F401
        import repro.checker.cli  # noqa: F401

    def prepare(self, seed: int, size: str) -> Dict[str, Any]:
        shape = self.SIZES[size]
        rng = random.Random(seed)
        abc = rng.sample(["a", "b", "c"], 3)
        m01 = rng.sample(["m0", "m1"], 2)
        runs = [
            ("capacity-flooding-4-4", abc, shape["messages"], "type-ok",
             shape["type_ok"], "memory"),
            ("capacity-flooding-4-4", abc, shape["messages"], "type-ok",
             shape["type_ok"], "disk"),
            ("sequence-eager", ["m"], 2, "dl1-forgery", 200_000, "memory"),
            ("capacity-flooding-3-2", m01, 3, "header-bound=4",
             shape["header"], "memory"),
        ]
        return {"runs": runs, "shape": shape}

    def _check(self, run, workdir):
        from repro.checker import check_protocol
        from repro.checker.cli import make_system_pair

        system, alphabet, messages, prop, budget, store = run
        sender, receiver = make_system_pair(system)
        extra = {}
        if store == "disk":
            extra["store_dir"] = fresh_dir(workdir, "store-")
        return check_protocol(
            sender, receiver, alphabet, prop, max_messages=messages,
            max_configurations=budget, store=store, **extra,
        )

    def cold(self, inputs, workdir):
        return [self._check(run, workdir) for run in inputs["runs"]]

    def warm(self, inputs, workdir, cold):
        return self.cold(inputs, workdir)

    def items(self, inputs, output) -> int:
        return sum(r.stats.get("configurations", 0) for r in output)

    @staticmethod
    def _fingerprint(result) -> Dict[str, Any]:
        """Verdict, search counters (timing left out) and the
        counterexample path's content hash."""
        stats = {
            k: v for k, v in result.stats.items()
            if k != "elapsed_s" and isinstance(v, (int, float, bool))
        }
        cex = result.counterexample
        return {
            "verdict": result.verdict,
            "stats": stats,
            "path": None if cex is None else cex.fingerprint(),
        }

    def digest(self, output) -> str:
        return sha([self._fingerprint(r) for r in output])

    def same(self, cold, other, kind) -> Checks:
        return [(f"{kind} run equals the cold run",
                 self.digest(other) == self.digest(cold))]

    def verify(self, inputs, cold, oracle) -> Checks:
        mem, disk, forgery, header = cold
        violations = []
        if forgery.counterexample is not None:
            violations = [
                (v.property_name, v.event_index)
                for v in forgery.counterexample.spec_report.violations
            ]
        return [
            ("configurations explored match the pinned count",
             self.items(inputs, cold) == inputs["shape"]["configurations"]),
            ("type-ok finds no violation",
             mem.verdict in ("holds", "budget-exhausted")
             and mem.stats.get("hits") == 0),
            ("memory store == disk store",
             self._fingerprint(mem) == self._fingerprint(disk)),
            ("dl1-forgery is violated", forgery.verdict == "violated"),
            ("the forgery replays concretely",
             forgery.counterexample is not None
             and forgery.counterexample.concrete),
            ("the replay violates DL1 at event 7",
             violations[:1] == [("DL1", 7)]),
            ("header-bound=4 finds no violation",
             header.verdict in ("holds", "budget-exhausted")
             and header.stats.get("hits") == 0),
        ]


class CampaignGrid(_CachedRuns):
    """A campaign spec generated from the seed -- delivery, adversary
    and backlog cells, ~1.8k of them -- through ``run_campaign`` with
    two workers into a fresh cache, then again warm.  The median cell
    takes under a millisecond, so per-task costs dominate.
    Item = cell."""

    name = "campaign-grid"
    warm_repeats = 8
    workers = 2

    SIZES = {
        "full": dict(delivery_reps=50, adversary_reps=100, levels=16),
        "tiny": dict(delivery_reps=1, adversary_reps=1, levels=2),
    }

    def imports(self) -> None:
        import repro.campaign  # noqa: F401
        import repro.campaign.cells  # noqa: F401
        import repro.campaign.engine  # noqa: F401
        import repro.runtime  # noqa: F401

    def prepare(self, seed: int, size: str) -> Dict[str, Any]:
        from repro.campaign import CampaignSpec, CellGroup

        shape = self.SIZES[size]
        rng = random.Random(seed)
        qs = sorted(rng.sample([0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35], 4))
        levels = sorted(rng.sample(range(4, 96), shape["levels"]))
        spec = CampaignSpec(
            name=f"e2e-grid-{seed}",
            title="benchmark grid: delivery x adversary x backlog cells",
            groups=[
                CellGroup(
                    cell="delivery",
                    label="lossy delivery",
                    grid={
                        "protocol": ["sequence", "alternating-bit",
                                     "flooding"],
                        "q": qs,
                        "rep": list(range(shape["delivery_reps"])),
                    },
                    params={"n": 8, "packet_budget": 4_000},
                    metrics=["delivered", "packets", "completed"],
                ),
                CellGroup(
                    cell="adversary",
                    label="adversary grid",
                    channel="nonfifo",
                    grid={
                        "protocol": ["alternating-bit", "sequence",
                                     "window"],
                        "adversary": ["optimal", "fair", "random",
                                      "replay-flood"],
                        "rep": list(range(shape["adversary_reps"])),
                    },
                    params={"n": 6},
                    metrics=["delivered", "packets", "completed"],
                ),
                CellGroup(
                    cell="backlog",
                    label="abp backlog",
                    protocol="alternating-bit",
                    grid={"backlog": levels},
                    metrics=["backlog_actual", "headers",
                             "extension_packets"],
                ),
            ],
        )
        return {"spec": spec, "seed": seed}

    def _run(self, inputs, cache_dir):
        from repro.campaign.engine import run_campaign
        from repro.runtime import ResultCache, TaskFailure

        try:
            return run_campaign(
                inputs["spec"], fast=False, seed=inputs["seed"],
                workers=self.workers, cache=ResultCache(cache_dir),
            )
        except TaskFailure as failure:
            return failure

    def _result(self, report):
        return report.result.to_dict()

    def verify(self, inputs, cold, oracle) -> Checks:
        from repro.runtime import TaskFailure

        report = cold["report"]
        checks = task_checks(report)
        if isinstance(report, TaskFailure):
            return checks
        checks.append(("every cell ran", len(report.outcomes)
                       == len(inputs["spec"].expand(False))))
        checks.extend(
            (check, bool(ok)) for check, ok in report.result.checks.items()
        )
        return checks


WORKLOADS = {
    w.name: w
    for w in (ExperimentsAll(), TrialGrid(), ModelCheck(), CampaignGrid())
}
