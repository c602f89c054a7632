"""The level-synchronous BFS engine: one search for counting and checking.

Theorem 2.1's state counts and Theorem 3.1's forgery hunt ask two
questions of the same breadth-first search over abstract
configurations (station states plus a set abstraction of each
channel), and this module holds that search once.
:func:`check_protocol` runs it with a
:class:`~repro.checker.properties.Property`: every newly adopted
frontier is scanned, shard-locally, and the search stops at the first
level barrier with a hit -- an invariant violation or a reachability
target.  :func:`repro.ioa.exploration.explore_station_states` and
:func:`repro.ioa.exploration_parallel.explore_station_states_parallel`
run it with no property, no capacity, no delivered counter and no
parents, and read the state counts off the shards' finish reports:
exploration is a check whose property never fires.

The engine has three parts, each with an interpreted and a vector
(:mod:`repro.ioa.vecfrontier`) tier:

* :class:`_CheckerShard` owns one hash-partition of the configuration
  space (the partition and the content digests are described in
  :mod:`repro.ioa.exploration_parallel`) and answers the coordinator's
  requests: ``adopt`` (fold routed configurations into the frontier,
  dedup, scan), ``expand`` (one level; foreign successors are returned
  for routing), ``snapshot``/``restore``, ``resolve`` (parent lookup)
  and ``finish``;
* :func:`_run_search` is the coordinator: one adopt/expand round per
  level across all shards, checkpoints at level barriers;
* with one in-process shard and no parent tracking there is nothing to
  synchronise, so the coordinator hands the search to the shard's own
  level loop (:meth:`_CheckerShard.run_levels_check`), which runs every
  barrier -- scan, budget, checkpoint cadence, hit stop -- at exactly
  the coordinator's level boundaries.

Because BFS levels are a property of the protocol alone, the verdict,
the stop level, the set of hit configurations, the canonically
selected counterexample target and the explored state sets are
**identical for any shard count, any backend, any visited-set store,
either tier, and across checkpoint resume**.  Budget truncation happens
at level barriers; the serial exploration entry point alone asks the
single-shard loop to cut in the middle of the last level
(``exact_cut``), which reproduces a FIFO queue's truncation exactly.

The bounding discipline is the paper's (and the CFSM literature's):
``max_messages`` bounds environment injections per path, ``capacity``
optionally bounds the channel value-set sizes (successors whose
forward/reverse sets would exceed it are pruned -- a per-direction
header budget, making the search finite even for unbounded-header
protocols), and ``max_configurations`` is the visit budget.  A
delivered-message counter is packed into the configuration as a sixth
field -- saturating at ``max_messages + 1`` -- only when the active
property declares ``needs_delivered`` (the Theorem 3.1 forgery
condition reads it); saturation keeps the space finite and still
witnesses every true excess, because injections never exceed
``max_messages``.  None of these extras costs a search that does not
use them: deliveries are counted only when the delivered field exists
(it then joins the delivery memo's key, so the loop adds one delta per
successor either way), the capacity test runs only on new successors
and only when a capacity is set, and with no property there is no
scan.

Counterexample path reconstruction records, per newly discovered
configuration, a **canonical parent pointer**: among every proposal
``(parent digest, move class, argument rank)`` generated for the
configuration at its discovery level -- across all shards -- the
minimum is kept, so the reconstructed path is shard-count-invariant.
Parents ride the existing level-barrier checkpoint machinery
(``trace="inline"``); the default ``trace="auto"`` runs the main
search without parents and re-runs it (single shard, in process) with
parents only when a hit is found, keeping the common no-hit search at
plain-BFS cost.  The path is then re-executed through the faithful
:class:`~repro.datalink.system.DataLinkSystem` /
``FullTraceSink`` pipeline by :mod:`repro.checker.trace`.
"""

from __future__ import annotations

import functools
import hashlib
import os
import pickle
import time
from collections import deque
from typing import Any, Callable, Dict, Hashable, Iterable, List, Optional, Tuple

from repro.ioa import vecfrontier
from repro.ioa.actions import Direction
from repro.ioa.automaton import IOAutomaton
from repro.ioa.exploration import (
    _FIELD_BITS,
    _FIELD_MASK,
    _MISSING,
    _PAIR_MASK,
    _S_INJ,
    _S_R2T,
    _S_RID,
    _S_T2R,
    ExplorationCapacityError,
    ExplorationResult,
)
from repro.ioa.exploration_parallel import (
    _DIGEST_MOD,
    _ShardSearch,
    _canon,
    _load_checkpoint,
    _merge_frontier_perf,
    _save_checkpoint,
    _stable_digest,
    checkpoint_path,
    merge_finishes,
    resolve_engine_tier,
)
from repro.checker.properties import _S_DEL, BindContext, Property, make_property
from repro.checker.result import CheckResult
from repro.checker.store import DiskVisitedStore, LevelLog
from repro.checker.trace import Counterexample, TraceStep, replay_counterexample

__all__ = [
    "CHECKER_CHECKPOINT_FORMAT",
    "check_protocol",
    "checker_checkpoint_key",
    "portable_digest",
]

CHECKER_CHECKPOINT_FORMAT = "repro-checker-checkpoint/1"

#: move-class codes used in parent ranks (coordinate with expand()).
_MOVE_INJECT, _MOVE_OUTPUT, _MOVE_DELIVER, _MOVE_ACK = 0, 1, 2, 3

#: Delivery-memo key of a configuration: ``(cfg & _CLEAR_INJ) >>
#: _S_RID`` keeps the receiver id, both value sets and (when packed)
#: the delivered count -- exactly what a delivery's successor depends
#: on.
_INJ_FIELD = _FIELD_MASK << _S_INJ
_CLEAR_INJ = ~_INJ_FIELD
_KEY_S_DEL = _S_DEL - _S_RID


def portable_digest(portable: Tuple) -> int:
    """Stable digest of a portable configuration.

    Mirrors ``_CheckerShard._config_digest`` exactly (set digests are
    commutative sums of member digests), so a shard without digest
    tables -- the single-shard, no-parents fast path -- reports the
    same hit digests as a sharded run.
    """
    skey, _ssnap, rkey, _rsnap, t2r_values, r2t_values, injected, delivered \
        = portable
    return (
        _stable_digest(skey)
        + 3 * _stable_digest(rkey)
        + 5 * (sum(_stable_digest(v) for v in t2r_values) % _DIGEST_MOD)
        + 7 * (sum(_stable_digest(v) for v in r2t_values) % _DIGEST_MOD)
        + 11 * injected
        + 13 * delivered
    ) % _DIGEST_MOD


class _CheckerSearch(_ShardSearch):
    """Shard search that also counts deliveries per receiver transition.

    ``rcv_dcount[(rid, vid)]`` is the number of ``receive_msg`` outputs
    the memoised transition performs -- measured once per distinct
    transition, alongside the existing memo.  Used only when the
    delivered field is packed (``del_cap > 0``).
    """

    __slots__ = ("rcv_dcount",)

    def __init__(self, sender, receiver, alphabet, result,
                 track_digests: bool) -> None:
        self.rcv_dcount: Dict[Tuple[int, int], int] = {}
        super().__init__(sender, receiver, alphabet, result, track_digests)

    def receiver_after_rcv(self, rid: int, value_id: int):
        key = (rid, value_id)
        memo = self.receiver_rcv_memo.get(key)
        if memo is not None:
            self.memo_hits += 1
            return memo
        if self.receiver_fast:
            before = self.receiver.messages_delivered
            memo = super().receiver_after_rcv(rid, value_id)
            self.rcv_dcount[key] = self.receiver.messages_delivered - before
        else:
            memo = super().receiver_after_rcv(rid, value_id)
            # restore() reset the counter to the snapshot's value, so
            # the transition's deliveries are the difference from it.
            self.rcv_dcount[key] = (
                self.receiver.messages_delivered
                - self.receiver_snaps[rid][2]
            )
        return memo


class _CheckerShard:
    """Owns one hash-partition of the configuration space.

    All mutable search state lives here -- in the child process under
    the process backend, in the coordinator's process otherwise.  The
    coordinator only ever talks to :meth:`handle`:

    * ``("adopt", inbound, level)`` -- inbound items are
      ``(portable, parent_meta)`` pairs; returns ``{"size", "hits"}``
      where hits are ``(digest, canonical)`` pairs for this level's
      property hits;
    * ``("expand",)`` -- expand the frontier; returns the level size
      and the successors owned by other shards;
    * ``("snapshot",)`` / ``("restore", dump)`` -- checkpointing;
    * ``("resolve", digest)`` -- parent-pointer lookup for path
      reconstruction;
    * ``("finish", states)`` -- counters, plus the visited state sets
      and station pairs when ``states`` (exploration).
    """

    def __init__(self, index: int, num_shards: int, sender: IOAutomaton,
                 receiver: IOAutomaton, alphabet: List[Hashable],
                 max_messages: int, options: Dict[str, Any]) -> None:
        self.index = index
        self.num_shards = num_shards
        self.max_messages = max_messages
        self.prop: Optional[Property] = options.get("prop")
        self.track_parents = bool(options.get("track_parents"))
        self.del_cap = int(options.get("del_cap", 0))
        self.capacity: Optional[int] = options.get("capacity")
        self.result = ExplorationResult(
            packet_values={Direction.T2R: set(), Direction.R2T: set()}
        )
        # Digest tables are needed for routing (multi-shard) and for
        # parent digests (path reconstruction); deliveries are counted
        # only when the delivered field is packed.
        search_class = _CheckerSearch if self.del_cap else _ShardSearch
        self.search: Any = search_class(
            sender, receiver, list(alphabet), self.result,
            track_digests=(num_shards > 1 or self.track_parents),
        )
        # In vector mode the kernel owns the visited set (narrow
        # packing) and the level work runs on its array kernels.
        self.engine = options.get("engine", "interpreted")
        self.kernel: Any = (
            vecfrontier.FrontierKernel(
                self.search, max_messages,
                del_cap=self.del_cap, capacity=self.capacity,
            )
            if self.engine == "vector" else None
        )
        # The scalar-protocol scan reads the context's packing layout,
        # so it works on narrow config lists too (adopt barriers and
        # narrow-mode levels); the array scan handles wide levels.
        self.scan: Optional[Callable[[List[int]], List[int]]] = None
        self.scan_vector: Optional[Callable[[Any], Any]] = None
        if self.prop is not None:
            ctx = BindContext(
                self.search, max_messages, list(alphabet), self.del_cap,
                kernel=self.kernel,
            )
            self.scan = self.prop.bind(ctx)
            if self.kernel is not None:
                self.scan_vector = self.prop.bind_vector(ctx)
        self.seen: Any = set()
        self.frontier: List[int] = []
        self.pending: List[int] = []
        self.visited_sids: set = set()
        self.visited_rids: set = set()
        self.visited = 0
        self.dup_skipped = 0
        self.forwarded = 0
        self.pruned = 0
        self.hits_found = 0
        self.scanned = 0
        self._reset_memos()
        # cfg -> (parent digest, move, arg rank, label), None for seed
        self.parents: Dict[int, Optional[Tuple]] = {}
        self.by_digest: Dict[int, int] = {}
        # Proposals for configurations discovered at the level in
        # flight; finalised (min rank wins) at the next adopt barrier.
        self.level_parents: Dict[int, Optional[Tuple]] = {}
        self.store_kind = options.get("store", "memory")
        self.store_dir: Optional[str] = options.get("store_dir")
        self.level_log: Optional[LevelLog] = None
        if self.store_kind == "disk":
            if self.kernel is not None:
                self._attach_vec_disk_store()
            else:
                self._attach_disk_store(seed=None)

    def _reset_memos(self) -> None:
        # Per-move delta memos keyed on the fields each move reads.
        self.inject_memo: Dict[int, Tuple[int, ...]] = {}
        self.output_memo: Dict[int, Optional[int]] = {}
        self.deliver_memo: Dict[int, Tuple[int, ...]] = {}
        self.ack_memo: Dict[int, Tuple[int, ...]] = {}

    def _attach_disk_store(self, seed: Optional[Iterable[int]]) -> None:
        shard_dir = os.path.join(self.store_dir, f"shard-{self.index}")
        store = DiskVisitedStore(os.path.join(shard_dir, "visited"))
        if seed is not None:
            for cfg in seed:  # distinct by construction: no membership test
                store.add(cfg)
        self.seen = store
        self.level_log = LevelLog(os.path.join(shard_dir, "levels"))

    def _attach_vec_disk_store(self) -> None:
        """Disk residency for the vector tier: the kernel's visited set
        spills sorted narrow-int runs (same immutable-run design as
        :class:`DiskVisitedStore`); the level log stays scalar-format
        (the vector drivers convert on append)."""
        shard_dir = os.path.join(self.store_dir, f"shard-{self.index}")
        kernel = self.kernel
        seen = vecfrontier.VecSeen(
            kernel.np, directory=os.path.join(shard_dir, "visited")
        )
        seen.buffer = kernel.seen.buffer
        kernel.seen = seen
        self.level_log = LevelLog(os.path.join(shard_dir, "levels"))

    # -- protocol ------------------------------------------------------
    def handle(self, request: Tuple) -> Any:
        op = request[0]
        if op == "adopt":
            return self.adopt(request[1], request[2])
        if op == "expand":
            if self.kernel is not None:
                return vecfrontier.expand_vector(self)
            return self.expand()
        if op == "snapshot":
            return self.snapshot()
        if op == "restore":
            return self.restore(request[1])
        if op == "resolve":
            return self.resolve(request[1])
        if op == "finish":
            return self.finish(request[1])
        raise ValueError(f"unknown shard request {op!r}")

    # -- config plumbing -----------------------------------------------
    def _config_digest(self, cfg: int) -> int:
        s = self.search
        return (
            s.sender_dg[cfg & _FIELD_MASK]
            + 3 * s.receiver_dg[(cfg >> _S_RID) & _FIELD_MASK]
            + 5 * s.set_dg[(cfg >> _S_T2R) & _FIELD_MASK]
            + 7 * s.set_dg[(cfg >> _S_R2T) & _FIELD_MASK]
            + 11 * ((cfg >> _S_INJ) & _FIELD_MASK)
            + 13 * (cfg >> _S_DEL)
        ) % _DIGEST_MOD

    def _portable(self, cfg: int) -> Tuple:
        return self.search.portable(
            cfg & _FIELD_MASK,
            (cfg >> _S_RID) & _FIELD_MASK,
            (cfg >> _S_T2R) & _FIELD_MASK,
            (cfg >> _S_R2T) & _FIELD_MASK,
            (cfg >> _S_INJ) & _FIELD_MASK,
            cfg >> _S_DEL,
        )

    def _intern_portable(self, portable: Tuple) -> int:
        sid, rid, t2r, r2t, injected, delivered = \
            self.search.intern_portable(portable)
        return (
            sid
            | (rid << _S_RID)
            | (t2r << _S_T2R)
            | (r2t << _S_R2T)
            | (injected << _S_INJ)
            | (delivered << _S_DEL)
        )

    def _canonical(self, cfg: int) -> Tuple:
        """Snapshot-free canonical form, the cross-shard tiebreaker.

        Representative snapshots vary with the partition (whichever
        path reaches a state first donates its snapshot), so they are
        excluded; everything else is content.
        """
        s = self.search
        values = s.values
        return (
            s.sender_keys[cfg & _FIELD_MASK],
            s.receiver_keys[(cfg >> _S_RID) & _FIELD_MASK],
            tuple(sorted(
                (values[v]
                 for v in s.set_members[(cfg >> _S_T2R) & _FIELD_MASK]),
                key=repr)),
            tuple(sorted(
                (values[v]
                 for v in s.set_members[(cfg >> _S_R2T) & _FIELD_MASK]),
                key=repr)),
            (cfg >> _S_INJ) & _FIELD_MASK,
            cfg >> _S_DEL,
        )

    def _hit_digest(self, cfg: int) -> int:
        if self.search.track_digests:
            return self._config_digest(cfg)
        return portable_digest(self._portable(cfg))

    def _scan(self, frontier: List[int]) -> List[Tuple[int, Tuple]]:
        """Scan one adopted frontier; hit reports in scalar packing."""
        if self.scan is None:
            return []
        self.scanned += len(frontier)
        return self._reports(self.scan(frontier))

    def _reports(self, hits: List[int]) -> List[Tuple[int, Tuple]]:
        if not hits:
            return []
        self.hits_found += len(hits)
        if self.kernel is not None:
            hits = [self.kernel.to_scalar(cfg) for cfg in hits]
        return [(self._hit_digest(cfg), self._canonical(cfg)) for cfg in hits]

    def _over_capacity(self, cfg: int) -> bool:
        members = self.search.set_members
        capacity: Any = self.capacity  # callers test for None
        return (
            len(members[(cfg >> _S_T2R) & _FIELD_MASK]) > capacity
            or len(members[(cfg >> _S_R2T) & _FIELD_MASK]) > capacity
        )

    def _build_deliver(self, key: int) -> Tuple[int, ...]:
        """Deltas for delivering each t->r value to the receiver.

        ``key`` is the delivery-memo key (see ``_CLEAR_INJ``); with a
        packed delivered field each delta also moves the saturating
        count, so the loops apply every delivery with one addition.
        """
        rid = key & _FIELD_MASK
        t2r = (key >> _FIELD_BITS) & _FIELD_MASK
        r2t = (key >> (2 * _FIELD_BITS)) & _FIELD_MASK
        search = self.search
        deltas = search.build_deliver_deltas(rid, t2r, r2t)
        del_cap = self.del_cap
        if not del_cap:
            return deltas
        d = key >> _KEY_S_DEL
        dcount = search.rcv_dcount
        return tuple(
            delta + ((min(d + dcount[(rid, vid)], del_cap) - d) << _S_DEL)
            for delta, vid in zip(deltas, search.set_members[t2r])
        )

    # -- rounds --------------------------------------------------------
    def adopt(self, inbound: List[Tuple], level: int) -> Dict[str, Any]:
        """Fold routed configurations in, then scan the new frontier.

        The adopted frontier is exactly the set of configurations
        discovered at this BFS level (own expansion plus inbound), so
        scanning it here tests every reachable configuration exactly
        once, at any shard count.
        """
        if self.kernel is not None:
            return self._adopt_vector(inbound, level)
        frontier = self.pending
        self.pending = []
        seen = self.seen
        multi = self.num_shards > 1
        track = self.track_parents
        level_parents = self.level_parents
        for portable, meta in inbound:
            cfg = self._intern_portable(portable)
            if multi and self._config_digest(cfg) % self.num_shards \
                    != self.index:
                # Not ours (initial seeding broadcasts to everyone).
                continue
            if cfg in seen:
                self.dup_skipped += 1
                if track:
                    old = level_parents.get(cfg)
                    if old is not None and meta is not None \
                            and meta[:3] < old[:3]:
                        level_parents[cfg] = meta
            else:
                seen.add(cfg)
                frontier.append(cfg)
                if track:
                    level_parents[cfg] = meta
        self.frontier = frontier
        if track and level_parents:
            parents = self.parents
            by_digest = self.by_digest
            for cfg, meta in level_parents.items():
                parents[cfg] = meta
                by_digest[self._config_digest(cfg)] = cfg
            level_parents.clear()
        if self.level_log is not None:
            self.level_log.append(level, frontier)
        return {"size": len(frontier), "hits": self._scan(frontier)}

    def _adopt_vector(self, inbound: List[Tuple], level: int
                      ) -> Dict[str, Any]:
        """Vector-tier adopt barrier (narrow configs, no parents).

        Parent metadata is interpreted-only (the gate refuses
        ``track_parents``), so inbound meta is always ``None`` and only
        the portable halves are interned.  Hit reports and the level
        log convert narrow -> scalar so digests, canonical forms and
        the on-disk format are tier-invariant.
        """
        kernel = self.kernel
        frontier = self.pending
        self.pending = []
        seen = kernel.seen
        multi = self.num_shards > 1
        for portable, _meta in inbound:
            cfg = vecfrontier.intern_portable_narrow(self, portable)
            if multi and self._config_digest(kernel.to_scalar(cfg)) \
                    % self.num_shards != self.index:
                # Not ours (initial seeding broadcasts to everyone).
                continue
            if cfg in seen:
                self.dup_skipped += 1
            else:
                seen.add(cfg)
                frontier.append(cfg)
        self.frontier = frontier
        if self.level_log is not None:
            self.level_log.append(level, kernel.to_scalar_list(frontier))
        return {"size": len(frontier), "hits": self._scan(frontier)}

    def expand(self) -> Dict[str, Any]:
        """Expand the frontier for one coordinator round: successors
        this shard owns join its next frontier, the others are returned
        for routing, each with its canonical parent proposal."""
        search = self.search
        seen = self.seen
        pending = self.pending
        num_shards = self.num_shards
        multi = num_shards > 1
        max_messages = self.max_messages
        mask = _FIELD_MASK
        capacity = self.capacity
        track = self.track_parents
        level_parents = self.level_parents
        alphabet = search.alphabet
        values = search.values
        value_dg = search.value_dg
        set_members = search.set_members
        # succ -> min-rank parent meta; portables are built at ship time
        outbox: List[Dict[int, Optional[Tuple]]] = [
            {} for _ in range(num_shards)
        ]
        mark_sid = self.visited_sids.add
        mark_rid = self.visited_rids.add
        inject_memo = self.inject_memo
        output_memo = self.output_memo
        deliver_memo = self.deliver_memo
        ack_memo = self.ack_memo
        dup_skipped = 0
        forwarded = 0
        pruned = 0

        def route(successor: int, meta: Optional[Tuple]) -> None:
            nonlocal dup_skipped, forwarded, pruned
            if capacity is not None and self._over_capacity(successor):
                pruned += 1
                return
            if multi:
                dest = self._config_digest(successor) % num_shards
                if dest != self.index:
                    box = outbox[dest]
                    old = box.get(successor, _MISSING)
                    if old is _MISSING:
                        box[successor] = meta
                        forwarded += 1
                    else:
                        dup_skipped += 1
                        if track and old is not None and meta is not None \
                                and meta[:3] < old[:3]:
                            box[successor] = meta
                    return
            if successor in seen:
                dup_skipped += 1
                if track:
                    old = level_parents.get(successor)
                    if old is not None and meta is not None \
                            and meta[:3] < old[:3]:
                        level_parents[successor] = meta
            else:
                seen.add(successor)
                pending.append(successor)
                if track:
                    level_parents[successor] = meta

        for cfg in self.frontier:
            sid = cfg & mask
            rid = (cfg >> _S_RID) & mask
            t2r = (cfg >> _S_T2R) & mask
            r2t = (cfg >> _S_R2T) & mask
            mark_sid(sid)
            mark_rid(rid)
            pdigest = self._config_digest(cfg) if track else 0
            # The four move classes, always in this order.  The
            # injection count is masked: the delivered field sits above
            # it in the packing.
            if ((cfg >> _S_INJ) & mask) < max_messages:
                deltas = inject_memo.get(sid)
                if deltas is None:
                    deltas = search.build_inject_deltas(sid)
                    inject_memo[sid] = deltas
                for index, delta in enumerate(deltas):
                    route(
                        cfg + delta,
                        (pdigest, _MOVE_INJECT, index,
                         ("inject", alphabet[index])) if track else None,
                    )
            key = sid | (t2r << _FIELD_BITS)
            delta = output_memo.get(key, _MISSING)
            if delta is _MISSING:
                delta = search.build_output_delta(sid, t2r)
                output_memo[key] = delta
            if delta is not None:
                if track:
                    sent_vid = search.out_memo[sid][1]
                    meta = (pdigest, _MOVE_OUTPUT, 0,
                            ("output", values[sent_vid]))
                else:
                    meta = None
                route(cfg + delta, meta)
            if t2r:
                key = (cfg & _CLEAR_INJ) >> _S_RID
                deltas = deliver_memo.get(key)
                if deltas is None:
                    deltas = self._build_deliver(key)
                    deliver_memo[key] = deltas
                members = set_members[t2r]
                for index, delta in enumerate(deltas):
                    vid = members[index]
                    route(
                        cfg + delta,
                        (pdigest, _MOVE_DELIVER, value_dg[vid],
                         ("deliver", values[vid])) if track else None,
                    )
            if r2t:
                key = sid | (r2t << _FIELD_BITS)
                deltas = ack_memo.get(key)
                if deltas is None:
                    deltas = search.build_ack_deltas(sid, r2t)
                    ack_memo[key] = deltas
                members = set_members[r2t]
                for index, delta in enumerate(deltas):
                    vid = members[index]
                    route(
                        cfg + delta,
                        (pdigest, _MOVE_ACK, value_dg[vid],
                         ("ack", values[vid])) if track else None,
                    )

        expanded = len(self.frontier)
        self.visited += expanded
        self.dup_skipped += dup_skipped
        self.forwarded += forwarded
        self.pruned += pruned
        self.frontier = []
        return {
            "expanded": expanded,
            "outbox": [
                [(self._portable(succ), meta) for succ, meta in box.items()]
                for box in outbox
            ],
            "own_next": len(pending),
        }

    def _flush(self, visited: int, dup_skipped: int, pruned: int) -> None:
        """Fold a level loop's local counters into the shard."""
        self.visited = visited
        self.dup_skipped += dup_skipped
        self.pruned += pruned

    def _stage(self, save, level: int, frontier: List[int],
               is_complete: bool, visited: int, dup_skipped: int,
               pruned: int) -> None:
        """Checkpoint barrier of a level loop: fold the loop's counters
        in (the caller zeroes its deltas), stage the frontier, save."""
        self._flush(visited, dup_skipped, pruned)
        self.frontier = list(frontier)
        save(level, is_complete)
        self.frontier = []

    def run_levels_check(self, max_configurations: int,
                         checkpoint_every: int, save, base_level: int,
                         exact_cut: bool = False) -> Dict[str, Any]:
        """Single-shard driver: many levels without round barriers.

        On one shard with no parent tracking there is nothing to
        synchronise, so paying a coordinator round (plus a routing
        closure per successor) per BFS level only slows the search
        down -- near-chain searches run tens of thousands of levels of
        a few configurations each.  Every barrier -- property scan,
        budget truncation, checkpoint cadence, hit stop -- happens at
        exactly the level boundaries of the coordinator loop, so
        verdicts, counterexamples, checkpoints and stats are identical.

        The entry frontier must already be adopted (and therefore
        scanned) by :meth:`adopt`; the caller handles a hit there
        without entering this loop.

        Args:
            max_configurations: visit budget (level-closure).
            checkpoint_every: cadence in levels; meaningful only with
                ``save``.
            save: ``save(session_level, is_complete)`` callback,
                invoked at barriers with the shard counters flushed
                and ``self.frontier`` staged; ``None`` disables.
            base_level: absolute level of the entry frontier (for the
                disk level log; checkpoint levels are the caller's).
            exact_cut: expand only the first configurations of the
                level that reaches the budget, so exactly
                ``max_configurations`` are visited -- the truncation
                of a FIFO queue, whose order a one-shard level order
                is.  Interpreted tier, no checkpointing.
        """
        if self.kernel is not None:
            return self.run_levels_check_vector(
                max_configurations, checkpoint_every, save, base_level
            )
        search = self.search
        seen = self.seen
        # One FIFO queue holding the rest of this level and the next
        # one, walked level by level: no container is allocated per
        # level, which near-chain searches would pay in GC time.
        queue = deque(self.frontier)
        self.frontier = []
        popleft = queue.popleft
        mask = _FIELD_MASK
        max_messages = self.max_messages
        capacity = self.capacity
        over = self._over_capacity
        build_deliver = self._build_deliver
        level_log = self.level_log
        scanning = self.scan is not None
        # Work at the end of a level: a cut, a log append or a scan.
        barriers = exact_cut or scanning or level_log is not None
        inj_field = _INJ_FIELD
        inject_cap = max_messages << _S_INJ
        clear_inj = _CLEAR_INJ
        s_rid, s_t2r, s_r2t = _S_RID, _S_T2R, _S_R2T
        seen_add = seen.add
        push = queue.append
        mark_sid = self.visited_sids.add
        mark_rid = self.visited_rids.add
        inject_memo = self.inject_memo
        output_memo = self.output_memo
        deliver_memo = self.deliver_memo
        ack_memo = self.ack_memo
        inject_get = inject_memo.get
        output_get = output_memo.get
        deliver_get = deliver_memo.get
        ack_get = ack_memo.get
        visited = self.visited
        dup_skipped = 0
        pruned = 0
        level = 0
        truncated = False
        complete = False
        hit_reports: List[Tuple[int, Tuple]] = []

        try:
            while queue:
                if visited >= max_configurations:
                    truncated = True
                    if save is not None:
                        self._stage(save, level, queue, False,
                                    visited, dup_skipped, pruned)
                        dup_skipped = pruned = 0
                    break
                if (
                    save is not None
                    and level > 0
                    and level % checkpoint_every == 0
                ):
                    self._stage(save, level, queue, False,
                                visited, dup_skipped, pruned)
                    dup_skipped = pruned = 0
                width = len(queue)
                cut = exact_cut and width > max_configurations - visited
                if cut:
                    width = max_configurations - visited
                for _ in range(width):
                    cfg = popleft()
                    visited += 1
                    sid = cfg & mask
                    rid = (cfg >> s_rid) & mask
                    t2r = (cfg >> s_t2r) & mask
                    r2t = (cfg >> s_r2t) & mask
                    mark_sid(sid)
                    mark_rid(rid)
                    # 1. The environment injects a message (only into a
                    # ready sender: the paper's one-outstanding-message
                    # regime).  The injection field is masked: the
                    # delivered field sits above it in the packing.
                    if (cfg & inj_field) < inject_cap:
                        deltas = inject_get(sid)
                        if deltas is None:
                            deltas = search.build_inject_deltas(sid)
                            inject_memo[sid] = deltas
                        for delta in deltas:
                            successor = cfg + delta
                            if successor in seen:
                                dup_skipped += 1
                            elif capacity is not None and over(successor):
                                pruned += 1
                            else:
                                seen_add(successor)
                                push(successor)
                    # 2. The sender fires its enabled send_pkt^{t->r}.
                    key = sid | (t2r << _FIELD_BITS)
                    delta = output_get(key, _MISSING)
                    if delta is _MISSING:
                        delta = search.build_output_delta(sid, t2r)
                        output_memo[key] = delta
                    if delta is not None:
                        successor = cfg + delta
                        if successor in seen:
                            dup_skipped += 1
                        elif capacity is not None and over(successor):
                            pruned += 1
                        else:
                            seen_add(successor)
                            push(successor)
                    # 3. The channel delivers a value to the receiver,
                    # whose outputs are flushed atomically (the value
                    # stays available: set abstraction).
                    if t2r:
                        key = (cfg & clear_inj) >> s_rid
                        deltas = deliver_get(key)
                        if deltas is None:
                            deltas = build_deliver(key)
                            deliver_memo[key] = deltas
                        for delta in deltas:
                            successor = cfg + delta
                            if successor in seen:
                                dup_skipped += 1
                            elif capacity is not None and over(successor):
                                pruned += 1
                            else:
                                seen_add(successor)
                                push(successor)
                    # 4. The channel delivers a value to the sender.
                    if r2t:
                        key = sid | (r2t << _FIELD_BITS)
                        deltas = ack_get(key)
                        if deltas is None:
                            deltas = search.build_ack_deltas(sid, r2t)
                            ack_memo[key] = deltas
                        for delta in deltas:
                            successor = cfg + delta
                            if successor in seen:
                                dup_skipped += 1
                            elif capacity is not None and over(successor):
                                pruned += 1
                            else:
                                seen_add(successor)
                                push(successor)
                level += 1
                if not barriers:
                    continue
                if cut:
                    truncated = True
                    break
                # The adopt barrier of the new level: log, then scan.
                if level_log is not None:
                    level_log.append(base_level + level, queue)
                if scanning:
                    hit_reports = self._scan(list(queue))
                    if hit_reports:
                        # Stage the hit frontier, exactly as the
                        # coordinator's hit-barrier checkpoint does: a
                        # resumed run re-adopts and re-scans it.
                        if save is not None:
                            self._stage(save, level, queue, False,
                                        visited, dup_skipped, pruned)
                            dup_skipped = pruned = 0
                        break
            else:
                complete = True
                if save is not None:
                    self._stage(save, level, queue, True,
                                visited, dup_skipped, pruned)
                    dup_skipped = pruned = 0
        except ExplorationCapacityError as exc:
            # Flush progress so the caller's partial accounting (and
            # the annotated error) see how far the loop got.
            self._flush(visited, dup_skipped, pruned)
            if exc.levels_completed is None:
                exc.levels_completed = base_level + level
            if exc.configurations_seen is None:
                exc.configurations_seen = visited
            raise

        self._flush(visited, dup_skipped, pruned)
        self.frontier = list(queue)
        return {
            "levels": level,
            "visited": visited,
            "truncated": truncated,
            "complete": complete,
            "hits": hit_reports,
        }

    def run_levels_check_vector(self, max_configurations: int,
                                checkpoint_every: int, save,
                                base_level: int) -> Dict[str, Any]:
        """Vector twin of :meth:`run_levels_check`.

        Same level barriers (budget truncation, checkpoint cadence,
        log-then-scan, hit stop), with levels below
        :data:`~repro.ioa.vecfrontier.FRONTIER_WIDE_THRESHOLD` on the
        interpreted narrow loop and wider levels on the array kernels
        (one-way switch).  Hit reports convert narrow -> scalar before
        digesting, so the canonical target is tier-invariant.
        """
        kernel = self.kernel
        np = kernel.np
        frontier: List[int] = list(self.frontier)
        self.frontier = []
        frontier_arr = None
        visited = self.visited
        dup_skipped = 0
        pruned = 0
        level = 0
        truncated = False
        complete = False
        hit_reports: List[Tuple[int, Tuple]] = []
        level_log = self.level_log
        scanning = self.scan is not None

        def current() -> List[int]:
            return frontier if frontier_arr is None else frontier_arr.tolist()

        try:
            while True:
                width = (
                    len(frontier_arr) if frontier_arr is not None
                    else len(frontier)
                )
                if width == 0:
                    complete = True
                    if save is not None:
                        self._stage(save, level, current(), True,
                                    visited, dup_skipped, pruned)
                        dup_skipped = pruned = 0
                    break
                if visited >= max_configurations:
                    truncated = True
                    if save is not None:
                        self._stage(save, level, current(), False,
                                    visited, dup_skipped, pruned)
                        dup_skipped = pruned = 0
                    break
                if (
                    save is not None
                    and level > 0
                    and level % checkpoint_every == 0
                ):
                    self._stage(save, level, current(), False,
                                visited, dup_skipped, pruned)
                    dup_skipped = pruned = 0
                if (
                    kernel.wide
                    or width >= vecfrontier.FRONTIER_WIDE_THRESHOLD
                ):
                    if not kernel.wide:
                        kernel.go_wide()
                    if frontier_arr is None:
                        frontier_arr = np.asarray(frontier, dtype=np.int64)
                        frontier = []
                    visited += len(frontier_arr)
                    frontier_arr, dup, prn = vecfrontier._expand_wide_level(
                        kernel, frontier_arr
                    )
                    level += 1
                    # The adopt barrier of the new level: log, scan.
                    if level_log is not None:
                        level_log.append(
                            base_level + level,
                            kernel.to_scalar_list(frontier_arr),
                        )
                    if scanning:
                        self.scanned += len(frontier_arr)
                        hits = self.scan_vector(frontier_arr)
                        hit_reports = self._reports(
                            hits.tolist() if len(hits) else []
                        )
                else:
                    visited += len(frontier)
                    next_frontier: List[int] = []
                    dup, prn = vecfrontier._expand_narrow_level_check(
                        self, kernel, frontier, next_frontier
                    )
                    frontier = next_frontier
                    level += 1
                    if level_log is not None:
                        level_log.append(
                            base_level + level,
                            kernel.to_scalar_list(frontier),
                        )
                    hit_reports = self._scan(frontier)
                dup_skipped += dup
                pruned += prn
                if hit_reports:
                    # Stage the hit frontier, exactly as the
                    # coordinator's hit-barrier checkpoint does: a
                    # resumed run re-adopts and re-scans it.
                    if save is not None:
                        self._stage(save, level, current(), False,
                                    visited, dup_skipped, pruned)
                        dup_skipped = pruned = 0
                    break
        except ExplorationCapacityError as exc:
            # Flush progress so the caller's partial accounting (and
            # the annotated error) see how far the loop got.
            self._flush(visited, dup_skipped, pruned)
            if exc.levels_completed is None:
                exc.levels_completed = base_level + level
            if exc.configurations_seen is None:
                exc.configurations_seen = visited
            raise

        self._flush(visited, dup_skipped, pruned)
        self.frontier = current()
        return {
            "levels": level,
            "visited": visited,
            "truncated": truncated,
            "complete": complete,
            "hits": hit_reports,
        }

    # -- path reconstruction -------------------------------------------
    def resolve(self, digest: int) -> Dict[str, Any]:
        cfg = self.by_digest.get(digest)
        if cfg is None:
            return {"found": False}
        meta = self.parents.get(cfg)
        return {
            "found": True,
            "portable": self._portable(cfg),
            "parent_digest": None if meta is None else meta[0],
            "label": None if meta is None else meta[3],
        }

    # -- checkpointing -------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Portable dump of the shard (taken at an adopt barrier).

        Always in the scalar packing: the vector tier converts its
        narrow configs on the way out, so dumps are format-identical
        across tiers (the checkpoint *key* still separates them).
        """
        s = self.search
        if self.kernel is not None:
            self.kernel.sync_visited(self)
            seen = set(self.kernel.to_scalar_list(list(self.kernel.seen)))
            frontier = self.kernel.to_scalar_list(self.frontier)
        else:
            seen = set(self.seen)
            frontier = list(self.frontier)
        return {
            "sender_keys": list(s.sender_keys),
            "sender_snaps": list(s.sender_snaps),
            "receiver_keys": list(s.receiver_keys),
            "receiver_snaps": list(s.receiver_snaps),
            "values": list(s.values),
            "set_members": list(s.set_members),
            "packet_values": {
                direction: set(values)
                for direction, values in self.result.packet_values.items()
            },
            "seen": seen,
            "frontier": frontier,
            "visited_sids": set(self.visited_sids),
            "visited_rids": set(self.visited_rids),
            "visited": self.visited,
            "dup_skipped": self.dup_skipped,
            "forwarded": self.forwarded,
            "memo_hits": s.memo_hits,
            "memo_misses": s.memo_misses,
            "parents": dict(self.parents),
            "by_digest": dict(self.by_digest),
            "pruned": self.pruned,
            "hits_found": self.hits_found,
            "scanned": self.scanned,
        }

    def restore(self, dump: Dict[str, Any]) -> bool:
        s = self.search
        s.restore_tables(dump)
        for direction, values in dump["packet_values"].items():
            self.result.packet_values[direction] = set(values)
        s.pv_t2r = self.result.packet_values[Direction.T2R]
        s.pv_r2t = self.result.packet_values[Direction.R2T]
        if self.del_cap:
            s.rcv_dcount = {}
        if self.kernel is not None:
            # Fresh kernel over the restored tables; re-pack the dump's
            # scalar configs narrow.  A dump too large for the narrow
            # fields demotes (the coordinator restarts interpreted).
            kernel = vecfrontier.FrontierKernel(
                s, self.max_messages,
                del_cap=self.del_cap, capacity=self.capacity,
            )
            self.kernel = kernel
            from_scalar = kernel.from_scalar
            kernel.seen.buffer = {from_scalar(cfg) for cfg in dump["seen"]}
            self.seen = set()
            # The dumped frontier was adopted but not expanded; stage
            # it as pending so the next adopt barrier swaps it back in.
            self.pending = [from_scalar(cfg) for cfg in dump["frontier"]]
            if self.store_kind == "disk":
                self._attach_vec_disk_store()
        else:
            self.seen = set(dump["seen"])
            self.pending = list(dump["frontier"])
            if self.store_kind == "disk":
                # The checkpoint materialises the full seen-set; rebuild
                # a fresh disk store from it (store directories are
                # scratch space, not caches -- see repro.checker.store).
                self._attach_disk_store(seed=self.seen)
        self.frontier = []
        self.visited_sids = set(dump["visited_sids"])
        self.visited_rids = set(dump["visited_rids"])
        self.visited = dump["visited"]
        self.dup_skipped = dump["dup_skipped"]
        self.forwarded = dump["forwarded"]
        self._reset_memos()
        self.parents = dict(dump["parents"])
        self.by_digest = dict(dump["by_digest"])
        self.level_parents = {}
        self.pruned = dump["pruned"]
        self.hits_found = dump["hits_found"]
        self.scanned = dump["scanned"]
        return True

    # -- results -------------------------------------------------------
    def finish(self, states: bool = False) -> Dict[str, Any]:
        """Counters; with ``states`` also the visited station-state
        keys, station pairs and packet values an exploration reports."""
        s = self.search
        if self.level_log is not None:
            self.level_log.flush()
        kernel = self.kernel
        if kernel is not None:
            kernel.sync_visited(self)
            seen_count = len(kernel.seen)
            store_stats = dict(kernel.seen.stats())
            store_stats["configurations"] = seen_count
        elif isinstance(self.seen, DiskVisitedStore):
            self.seen.flush()
            seen_count = len(self.seen)
            store_stats = self.seen.stats()
        else:
            seen_count = len(self.seen)
            store_stats = {"backend": "memory", "configurations": seen_count}
        finish = {
            "visited": self.visited,
            "seen": seen_count,
            "dup_skipped": self.dup_skipped,
            "forwarded": self.forwarded,
            "pruned": self.pruned,
            "scanned": self.scanned,
            "hits_found": self.hits_found,
            "sender_states": len(self.visited_sids),
            "receiver_states": len(self.visited_rids),
            "memo_hits": s.memo_hits,
            "memo_misses": s.memo_misses,
            "interned_sender_states": len(s.sender_keys),
            "interned_receiver_states": len(s.receiver_keys),
            "interned_packet_values": len(s.values),
            "interned_value_sets": len(s.set_members),
            "store": store_stats,
        }
        if kernel is not None:
            finish["frontier"] = kernel.perf_counters()
        if states:
            sender_keys = s.sender_keys
            receiver_keys = s.receiver_keys
            finish["sender_keys"] = {
                sender_keys[sid] for sid in self.visited_sids
            }
            finish["receiver_keys"] = {
                receiver_keys[rid] for rid in self.visited_rids
            }
            finish["pairs"] = self._pairs()
            finish["packet_values"] = self.result.packet_values
        return finish

    def _pairs(self) -> set:
        """Distinct station pairs over every configuration reached
        (queued ones included).  Pair identity must survive the merge:
        across shards ids differ, so pairs ship as key tuples; with one
        shard the packed id pair is already canonical and avoids
        hashing every key tuple."""
        s = self.search
        kernel = self.kernel
        if kernel is not None:
            # Unique first (vectorized over the seen runs): the
            # key-tuple mapping then touches each distinct pair once.
            unique = kernel.unique_pairs()
            if self.num_shards == 1:
                return set(unique)
            return {
                (s.sender_keys[p & kernel.m_sid],
                 s.receiver_keys[(p >> kernel.sh_rid) & kernel.m_rid])
                for p in unique
            }
        if self.num_shards == 1:
            return {cfg & _PAIR_MASK for cfg in self.seen}
        return {
            (s.sender_keys[cfg & _FIELD_MASK],
             s.receiver_keys[(cfg >> _S_RID) & _FIELD_MASK])
            for cfg in self.seen
        }


def _checker_shard_factory(index: int, num_shards: int, *, sender, receiver,
                   alphabet, max_messages, options):
    """Child-side construction of a shard (module level so the process
    backend can pickle it)."""
    shard = _CheckerShard(
        index, num_shards, sender, receiver, alphabet, max_messages, options
    )
    return shard.handle


# ----------------------------------------------------------------------
# Checkpoint identity
# ----------------------------------------------------------------------

def checker_checkpoint_key(sender: IOAutomaton, receiver: IOAutomaton,
                           alphabet: List[Hashable], max_messages: int,
                           num_shards: int, backend: str,
                           prop_spec: Optional[str],
                           track_parents: bool, del_cap: int,
                           capacity: Optional[int], store: str,
                           engine_tier: Optional[str] = None) -> str:
    """Content key of a search checkpoint: everything that shapes the
    search except the visit budget (so budgets are incremental), plus
    the source digest.  Explorations pass ``prop_spec=None``.

    ``engine_tier`` (``"interpreted"``/``"vector"``) keeps one tier's
    checkpoints from resuming into the other; ``None`` resolves like
    ``engine="auto"`` does, so keys computed outside the coordinator
    agree with default runs.
    """
    from repro.runtime.cache import code_version

    material = (
        CHECKER_CHECKPOINT_FORMAT,
        code_version(),
        type(sender).__module__, type(sender).__qualname__,
        type(receiver).__module__, type(receiver).__qualname__,
        sender.protocol_state(), receiver.protocol_state(),
        tuple(alphabet), max_messages, num_shards, backend,
        prop_spec, track_parents, del_cap, capacity, store,
        engine_tier or resolve_engine_tier("auto"),
    )
    blob = pickle.dumps(_canon(material), protocol=4)
    return hashlib.sha256(blob).hexdigest()[:32]


def _default_checker_dir() -> str:
    from repro.runtime.cache import default_cache_dir

    return os.path.join(default_cache_dir(), "checker")


# ----------------------------------------------------------------------
# The search driver
# ----------------------------------------------------------------------

def _search(sender: IOAutomaton, receiver: IOAutomaton,
            alphabet: List[Hashable], prop: Optional[Property],
            *, engine_tier: str, **kwargs: Any) -> Dict[str, Any]:
    """:func:`_run_search` with the vector tier's demotion rule.

    A narrow-field overflow mid-search demotes the whole run to the
    interpreted tier: results are identical, only the work done so far
    is repaid (overflow needs tens of thousands of distinct station
    states, so this is rare).  The demotion is recorded in the
    outcome's engine report.
    """
    try:
        return _run_search(sender, receiver, alphabet, prop,
                           engine_tier=engine_tier, **kwargs)
    except Exception as exc:
        from repro.runtime.bsp import ShardWorkerError

        demoted = isinstance(exc, vecfrontier.FrontierDemotedError) or (
            isinstance(exc, ShardWorkerError)
            and "FrontierDemotedError" in str(exc)
        )
        if not demoted or engine_tier != "vector":
            raise
        reason = str(exc)
    outcome = _run_search(sender, receiver, alphabet, prop,
                          engine_tier="interpreted", **kwargs)
    outcome["engine"]["frontier"] = {"tier": "interpreted", "demoted": reason}
    return outcome


def _run_search(
    sender: IOAutomaton,
    receiver: IOAutomaton,
    alphabet: List[Hashable],
    prop: Optional[Property],
    *,
    max_messages: int,
    max_configurations: int,
    workers: int,
    use_processes: Optional[bool],
    track_parents: bool = False,
    del_cap: int = 0,
    capacity: Optional[int] = None,
    store: str = "memory",
    store_dir: Optional[str] = None,
    checkpoint_every: int = 0,
    checkpoint_dir: Optional[str] = None,
    resume: bool = True,
    engine_tier: str = "interpreted",
    states: bool = False,
    exact_cut: bool = False,
) -> Dict[str, Any]:
    """One complete level-synchronous search.

    ``prop=None`` is a plain exploration: no scan, never a hit.  With
    ``states`` the shards' finish reports carry the visited state sets
    (see :meth:`_CheckerShard.finish`), and a capacity overflow
    attaches a partial :class:`~repro.ioa.exploration.ExplorationResult`
    to the error.  ``exact_cut`` is the serial exploration's mid-level
    truncation (see :meth:`_CheckerShard.run_levels_check`).

    Returns a dict with the verdict ingredients: ``complete`` /
    ``truncated`` flags, the canonical ``target`` (minimum
    ``(digest, canonical)`` over the hit barrier) or ``None``, the
    reconstructed ``path`` when ``track_parents``, per-shard
    ``finishes``, and engine bookkeeping.  Raises
    :class:`ExplorationCapacityError` (annotated with partial
    progress) when an intern table overflows.
    """
    started = time.perf_counter()

    cpus = os.cpu_count() or 1
    picklable = True
    if use_processes or (use_processes is None and workers >= 2
                         and cpus >= 2):
        try:
            pickle.dumps((sender, receiver, alphabet, prop))
        except Exception:
            picklable = False
    if use_processes is None:
        use_procs = workers >= 2 and cpus >= 2 and picklable
    elif use_processes:
        if not picklable:
            raise ValueError(
                "use_processes=True requires picklable automata, alphabet "
                "and property"
            )
        use_procs = True
    else:
        use_procs = False
    num_shards = max(1, workers) if use_procs else 1
    backend = "process" if use_procs else "in-process"

    checkpointing = checkpoint_every > 0 or checkpoint_dir is not None
    key = ""
    if checkpointing or store == "disk":
        key = checker_checkpoint_key(
            sender, receiver, alphabet, max_messages, num_shards, backend,
            None if prop is None else prop.spec(), track_parents, del_cap,
            capacity, store, engine_tier=engine_tier,
        )
    if store == "disk" and store_dir is None:
        store_dir = os.path.join(_default_checker_dir(), "store", key)

    ckpt_path = ""
    if checkpointing:
        if checkpoint_every <= 0:
            checkpoint_every = 16
        if checkpoint_dir is None:
            checkpoint_dir = _default_checker_dir()
        ckpt_path = checkpoint_path(checkpoint_dir, key)

    state: Optional[Dict[str, Any]] = None
    resumed_from = None
    if checkpointing and resume and os.path.exists(ckpt_path):
        state = _load_checkpoint(
            ckpt_path, key, num_shards, CHECKER_CHECKPOINT_FORMAT
        )
        if state is not None:
            resumed_from = {
                "level": state["level"],
                "visited": state["visited"],
                "complete": state["complete"],
            }

    options = {
        "prop": prop,
        "track_parents": track_parents,
        "del_cap": del_cap,
        "capacity": capacity,
        "store": store,
        "store_dir": store_dir,
        "engine": engine_tier,
    }

    pool = None
    if use_procs:
        factory = functools.partial(
            _checker_shard_factory,
            sender=sender,
            receiver=receiver,
            alphabet=alphabet,
            max_messages=max_messages,
            options=options,
        )
        from repro.runtime.bsp import ShardedPool

        pool = ShardedPool(num_shards, factory)

        def request_all(payloads: List[Tuple]) -> List[Any]:
            return pool.request_all(payloads)

        def request_one(shard_index: int, payload: Tuple) -> Any:
            return pool.request(shard_index, payload)
    else:
        shard = _CheckerShard(
            0, 1, sender, receiver, alphabet, max_messages, options
        )

        def request_all(payloads: List[Tuple]) -> List[Any]:
            return [shard.handle(payloads[0])]

        def request_one(shard_index: int, payload: Tuple) -> Any:
            return shard.handle(payload)

    checkpoints_written = 0
    level = 0
    visited_total = 0

    def write_checkpoint(at_level: int, visited: int, is_complete: bool,
                         dumps: List[Dict[str, Any]]) -> None:
        nonlocal checkpoints_written
        _save_checkpoint(ckpt_path, {
            "format": CHECKER_CHECKPOINT_FORMAT,
            "key": key,
            "num_shards": num_shards,
            "backend": backend,
            "level": at_level,
            "visited": visited,
            "complete": is_complete,
            "dumps": dumps,
        })
        checkpoints_written += 1

    def barrier_checkpoint(is_complete: bool) -> None:
        write_checkpoint(level, visited_total, is_complete,
                         request_all([("snapshot",)] * num_shards))

    try:
        if state is not None:
            request_all([("restore", dump) for dump in state["dumps"]])
            level = state["level"]
            visited_total = state["visited"]
            inbound: List[List[Tuple]] = [[] for _ in range(num_shards)]
        else:
            seed = (
                sender.protocol_state(), sender.snapshot(),
                receiver.protocol_state(), receiver.snapshot(),
                (), (), 0, 0,
            )
            # Broadcast the seed; each shard adopts it only if owner.
            inbound = [[(seed, None)] for _ in range(num_shards)]
        session_base = visited_total

        complete = False
        truncated = False
        levels_this_session = 0
        hit_reports: List[Tuple[int, Tuple]] = []

        if not use_procs and not track_parents:
            # Single shard without parent tracking: skip per-level
            # coordinator rounds (barriers are identical).
            base_level = level
            response = shard.adopt(inbound[0], level)
            hit_reports.extend(response["hits"])
            if hit_reports:
                # The seed/restored frontier already hits.
                if checkpointing:
                    barrier_checkpoint(False)
            else:
                save = None
                if checkpointing:
                    def save(session_level: int, is_complete: bool) -> None:
                        write_checkpoint(
                            base_level + session_level, shard.visited,
                            is_complete, [shard.snapshot()],
                        )

                stats = shard.run_levels_check(
                    max_configurations, checkpoint_every, save,
                    base_level, exact_cut=exact_cut,
                )
                complete = stats["complete"]
                truncated = stats["truncated"]
                visited_total = stats["visited"]
                levels_this_session = stats["levels"]
                level = base_level + levels_this_session
                hit_reports.extend(stats["hits"])
            rounds_done = True
        else:
            rounds_done = False

        while not rounds_done:
            responses = request_all([
                ("adopt", inbound[i], level) for i in range(num_shards)
            ])
            inbound = [[] for _ in range(num_shards)]
            for response in responses:
                hit_reports.extend(response["hits"])
            if hit_reports:
                # Stop at the first hit barrier.  The checkpoint stages
                # the hit frontier, so a resumed run re-adopts and
                # re-scans it -- the hit (and the verdict) reproduce.
                if checkpointing:
                    barrier_checkpoint(False)
                break
            if sum(r["size"] for r in responses) == 0:
                complete = True
                if checkpointing:
                    barrier_checkpoint(True)
                break
            if visited_total >= max_configurations:
                truncated = True
                if checkpointing:
                    barrier_checkpoint(False)
                break
            if (
                checkpointing
                and levels_this_session > 0
                and levels_this_session % checkpoint_every == 0
            ):
                barrier_checkpoint(False)
            responses = request_all([("expand",)] * num_shards)
            for response in responses:
                visited_total += response["expanded"]
                for dest, batch in enumerate(response["outbox"]):
                    if batch:
                        inbound[dest].extend(batch)
            level += 1
            levels_this_session += 1

        target = None
        path = None
        if hit_reports:
            # Min digest selects the canonical target; repr (pure
            # content, unlike pickle's identity-sensitive memo) breaks
            # the astronomically unlikely digest tie.
            target = min(
                hit_reports,
                key=lambda item: (item[0], repr(item[1])),
            )
            if track_parents:
                path = _resolve_path(request_one, num_shards, target[0])

        finishes = request_all([("finish", states)] * num_shards)
    except Exception as exc:
        from repro.runtime.bsp import ShardWorkerError

        # Process-backend overflow arrives as a ShardWorkerError
        # carrying the original type name in its message.
        if isinstance(exc, ExplorationCapacityError):
            error = exc
        elif isinstance(exc, ShardWorkerError) \
                and "ExplorationCapacityError" in str(exc):
            error = ExplorationCapacityError(str(exc))
        else:
            raise
        if error.levels_completed is None:
            error.levels_completed = level
        if error.configurations_seen is None:
            error.configurations_seen = visited_total
        if states:
            # BSP workers survive handler exceptions, so the shards can
            # still report what they reached: the partial result rides
            # on the error instead of being discarded.
            try:
                partial_finishes = request_all(
                    [("finish", True)] * num_shards
                )
            except Exception:
                partial_finishes = None
            if partial_finishes is not None:
                error.partial = merge_finishes(partial_finishes, True)
                error.configurations_seen = error.partial.configurations
        if error is exc:
            raise
        raise error from exc
    finally:
        if pool is not None:
            pool.close()

    elapsed = time.perf_counter() - started
    return {
        "complete": complete,
        "truncated": truncated,
        "level": level,
        "visited": visited_total,
        "session_visited": visited_total - session_base,
        "hit_reports": hit_reports,
        "target": target,
        "path": path,
        "finishes": finishes,
        "elapsed_s": round(elapsed, 6),
        "engine": {
            "name": "checker-level-sync",
            "backend": backend,
            "workers_requested": workers,
            "shards": num_shards,
            "cpus": cpus,
            "picklable": picklable,
            "levels": level,
            "levels_this_session": levels_this_session,
            "store": store,
            "track_parents": track_parents,
            "checkpointing": checkpointing,
            "checkpoints_written": checkpoints_written,
            "resumed_from": resumed_from,
            "frontier": _merge_frontier_perf(
                [f.get("frontier") for f in finishes], engine_tier
            ),
        },
    }


def _resolve_path(request_one: Callable[[int, Tuple], Any], num_shards: int,
                  target_digest: int) -> List[TraceStep]:
    """Walk parent pointers from the target back to the seed.

    Ownership is by ``digest % num_shards`` -- the routing rule -- so
    every configuration on the path is resolved by the single shard
    that discovered it.
    """
    steps: List[TraceStep] = []
    digest = target_digest
    for _ in range(1_000_000):
        owner = digest % num_shards
        response = request_one(owner, ("resolve", digest))
        if not response["found"]:
            raise RuntimeError(
                f"path reconstruction lost configuration digest {digest:#x} "
                f"(owner shard {owner}); parent pointers are inconsistent"
            )
        steps.append(TraceStep(
            label=response["label"], portable=response["portable"]
        ))
        if response["parent_digest"] is None:
            break
        digest = response["parent_digest"]
    else:
        raise RuntimeError("path reconstruction exceeded 1,000,000 steps")
    steps.reverse()
    return steps


# ----------------------------------------------------------------------
# The public entry point
# ----------------------------------------------------------------------

def check_protocol(
    sender: IOAutomaton,
    receiver: IOAutomaton,
    message_alphabet: Iterable[Hashable],
    prop,
    *,
    max_messages: int = 2,
    max_configurations: int = 200_000,
    workers: int = 1,
    use_processes: Optional[bool] = None,
    trace: str = "auto",
    replay: bool = True,
    store: str = "memory",
    store_dir: Optional[str] = None,
    capacity: Optional[int] = None,
    checkpoint_every: int = 0,
    checkpoint_dir: Optional[str] = None,
    resume: bool = True,
    engine: str = "auto",
) -> CheckResult:
    """Bounded model check of one property against one station pair.

    Args:
        sender: the transmitting-station automaton ``A^t``.
        receiver: the receiving-station automaton ``A^r``.
        message_alphabet: message values the environment may submit.
        prop: a :class:`~repro.checker.properties.Property` instance or
            a stock spec string (``"type-ok"``, ``"header-bound=4"``,
            ``"dl1-forgery"``).
        max_messages: injection budget along any explored path.
        max_configurations: visit budget; exceeding it yields the
            ``budget-exhausted`` verdict (with partial-progress stats).
        workers: shard count (``>= 2`` with a multi-core host runs one
            process per shard; see ``use_processes``).
        use_processes: force (``True``) or forbid (``False``) the
            process backend; default auto-detects like the exploration
            engine.
        trace: counterexample reconstruction mode -- ``"auto"``
            (default: re-run with parent tracking only on a hit),
            ``"inline"`` (track parents during the main search; they
            ride the checkpoints), or ``"off"`` (verdict only).
        replay: re-execute the counterexample through the concrete
            :class:`~repro.datalink.system.DataLinkSystem` pipeline and
            attach the spec-checked execution.
        store: visited-set backend -- ``"memory"`` or ``"disk"``
            (see :mod:`repro.checker.store`).
        store_dir: disk-store directory (default under
            ``<cache>/checker/store/<key>``).
        capacity: optional channel value-set bound; successors whose
            per-direction set would exceed it are pruned (the
            bounding discipline for unbounded-header protocols).
        checkpoint_every: checkpoint cadence in levels; ``0`` disables
            unless ``checkpoint_dir`` is given.
        checkpoint_dir: checkpoint directory (default
            ``<cache>/checker``).
        resume: continue from a matching checkpoint.
        engine: BFS tier -- ``"auto"`` (default: the vectorized
            frontier tier whenever numpy is present, the property
            scans vectorize and parents are not tracked inline, else
            the interpreted loop), ``"vector"`` (required: raises
            ``ValueError`` with the gate reason when unsupported), or
            ``"interpreted"``.  Verdicts, counterexamples and stats
            are bit-identical across tiers.

    Returns:
        A :class:`~repro.checker.result.CheckResult`; verdicts and
        counterexample traces are identical for any worker count,
        backend, store, and across checkpoint resume.
    """
    if isinstance(prop, str):
        prop = make_property(prop)
    alphabet: List[Hashable] = list(message_alphabet)
    if trace not in ("auto", "inline", "off"):
        raise ValueError(f"trace must be auto/inline/off, not {trace!r}")
    if store not in ("memory", "disk"):
        raise ValueError(f"store must be memory/disk, not {store!r}")
    del_cap = max_messages + 1 if prop.needs_delivered else 0
    engine_tier = resolve_engine_tier(
        engine, prop=prop, track_parents=(trace == "inline")
    )

    started = time.perf_counter()
    options = {
        "property": prop.spec(),
        "kind": prop.kind,
        "max_messages": max_messages,
        "max_configurations": max_configurations,
        "workers": workers,
        "trace": trace,
        "store": store,
        "capacity": capacity,
        "engine": engine,
    }

    # Every search interns its own clones of the stations (see
    # _InternedSearch), so the originals stay pristine for the trace
    # re-run and the final replay.
    try:
        outcome = _search(
            sender, receiver, alphabet, prop,
            max_messages=max_messages,
            max_configurations=max_configurations,
            workers=workers,
            use_processes=use_processes,
            track_parents=(trace == "inline"),
            del_cap=del_cap,
            capacity=capacity,
            store=store,
            store_dir=store_dir,
            checkpoint_every=checkpoint_every,
            checkpoint_dir=checkpoint_dir,
            resume=resume,
            engine_tier=engine_tier,
        )
    except ExplorationCapacityError as exc:
        return CheckResult(
            verdict="budget-exhausted",
            property_spec=prop.spec(),
            property_kind=prop.kind,
            counterexample=None,
            stats={
                "capacity_error": str(exc),
                "levels": exc.levels_completed,
                "configurations": exc.configurations_seen,
                "elapsed_s": round(time.perf_counter() - started, 6),
            },
            options=options,
        )

    stats = _merge_stats(outcome)

    if outcome["target"] is None:
        verdict = "holds" if outcome["complete"] else "budget-exhausted"
        return CheckResult(
            verdict=verdict,
            property_spec=prop.spec(),
            property_kind=prop.kind,
            counterexample=None,
            stats=stats,
            options=options,
        )

    target_digest = outcome["target"][0]
    steps = outcome["path"]
    if steps is None and trace == "auto":
        # Phase 2: the identical search (single in-process shard -- the
        # canonical parent selection is shard-count-invariant) with
        # parent tracking, stopping at the same hit barrier.  Parent
        # tracking is interpreted-only (the gate); the canonical target
        # is tier-invariant, so the re-run still selects the same
        # counterexample.
        second = _run_search(
            sender, receiver, alphabet, prop,
            max_messages=max_messages,
            max_configurations=max_configurations,
            workers=1,
            use_processes=False,
            track_parents=True,
            del_cap=del_cap,
            capacity=capacity,
            resume=False,
        )
        if second["target"] is None or second["target"][0] != target_digest:
            raise RuntimeError(
                "trace reconstruction re-run selected a different "
                "counterexample target; the search is not deterministic"
            )
        steps = second["path"]
        stats["trace_search"] = {
            "elapsed_s": second["elapsed_s"],
            "visited": second["visited"],
        }

    counterexample = None
    if steps is not None:
        counterexample = Counterexample(
            steps=steps, target_digest=target_digest
        )
        if replay:
            replay_counterexample(
                counterexample, sender, receiver, delivered_cap=del_cap
            )
    stats["target_digest"] = target_digest
    stats["elapsed_s"] = round(time.perf_counter() - started, 6)
    return CheckResult(
        verdict="violated",
        property_spec=prop.spec(),
        property_kind=prop.kind,
        counterexample=counterexample,
        stats=stats,
        options=options,
    )


def _merge_stats(outcome: Dict[str, Any]) -> Dict[str, Any]:
    totals = {
        key: 0
        for key in (
            "visited", "seen", "dup_skipped", "forwarded", "pruned",
            "scanned", "hits_found", "memo_hits", "memo_misses",
            "interned_sender_states", "interned_receiver_states",
            "interned_packet_values", "interned_value_sets",
        )
    }
    stores = []
    for finish in outcome["finishes"]:
        for key in totals:
            totals[key] += finish[key]
        stores.append(finish["store"])
    return {
        "levels": outcome["level"],
        "configurations": outcome["visited"],
        "complete": outcome["complete"],
        "truncated": outcome["truncated"],
        "hits": len(outcome["hit_reports"]),
        "elapsed_s": outcome["elapsed_s"],
        "engine": outcome["engine"],
        "stores": stores,
        **totals,
    }
