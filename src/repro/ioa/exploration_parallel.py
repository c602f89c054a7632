"""Sharded exploration with checkpoint/resume.

:func:`explore_station_states_parallel` counts station states with the
level-synchronous BFS engine of :mod:`repro.checker.engine` -- the
engine :func:`repro.checker.check_protocol` runs, here with no
property, no capacity, no delivered counter and no parents -- and maps
the shards' finish reports onto an
:class:`~repro.ioa.exploration.ExplorationResult`.  This module holds
what that engine shares with exploration: the per-shard interned
search with content digests (:class:`_ShardSearch`), the stable
digests, the engine-tier resolver and the checkpoint file container.

The engine is a **bulk-synchronous parallel** computation: the
configuration space is hash-partitioned across shards, each shard
*owns* the configurations whose content digest lands in it, and the
search proceeds in frontier *levels* -- all configurations at BFS
depth ``d`` are expanded before any at depth ``d + 1``.  Level
synchrony is what makes the parallel search exact: the set of
configurations at each BFS level is a property of the protocol alone
(successors of the previous level, minus everything already seen), so
the visited sets, state counts and packet values are **identical for
any shard count and any backend** on searches that run to completion.
Only the *order* within a level depends on the partition, and nothing
observable reads that order.

Sharding is by a **stable content digest** (BLAKE2b over a canonical
pickle) of the station protocol-states and channel value-sets --
never Python's per-process-randomised ``hash`` -- so every shard
computes the same owner for the same abstract configuration.  Set
digests are commutative sums of member digests.  A digest collision
only skews load balance; it can never merge two distinct
configurations, because dedup happens on the owner's interned
encoding, not the digest.  Configurations cross shards *portably*
(interned table objects, so pickle's memoisation compresses a batch).

When the host has a single CPU (or ``workers <= 1``, or the automata
don't pickle), the engine degrades to a single in-process shard: the
same level-synchronous loop and kernel without process or digest
overhead.  ``use_processes=True`` forces real worker processes (used
by the equivalence tests); the effective backend is recorded in
``result.perf["engine"]``.

Checkpoint/resume
-----------------

With checkpointing enabled, the coordinator snapshots every shard at
level barriers -- intern tables, seen-sets (plain ints), frontier --
every ``checkpoint_every`` levels, plus once at termination, whether
complete or budget-truncated.  Checkpoints live under
``<cache dir>/exploration/<key>.ckpt`` where the key
(:func:`repro.checker.engine.checker_checkpoint_key`) hashes the
protocol, alphabet, budget-independent parameters, shard layout,
engine tier and the source digest -- the same invalidation discipline
as the result cache.  Because the key excludes ``max_configurations``,
a budget-capped search *resumes* where it stopped when rerun with a
larger budget: caps become incremental budgets instead of repeated
work.

Truncation is at level granularity: the search stops at the first
level barrier at or past the budget, so a truncated run may visit up
to one level more than ``max_configurations``.  Truncated results are
still deterministic for any shard count; they differ from the serial
entry point's exact cut, which stops mid-level.
"""

from __future__ import annotations

import hashlib
import logging
import os
import pickle
import tempfile
import time
from typing import Any, Dict, Hashable, Iterable, List, Optional, Tuple

from repro.ioa import vecfrontier
from repro.ioa.actions import Direction
from repro.ioa.automaton import IOAutomaton
from repro.ioa.exploration import (
    ExplorationResult,
    _InternedSearch,
    configs_per_sec,
)

__all__ = [
    "checkpoint_path",
    "explore_station_states_parallel",
    "resolve_engine_tier",
]

#: Engine tiers of the level-synchronous BFS.  ``auto`` picks the
#: vectorized frontier tier (:mod:`repro.ioa.vecfrontier`) whenever
#: its gate accepts, falling back silently to the interpreted loop;
#: both tiers are bit-identical.
ENGINE_TIERS = ("auto", "vector", "interpreted")

_DIGEST_MOD = 1 << 64

logger = logging.getLogger(__name__)

# Checkpoint container: MAGIC + 8-byte big-endian payload length +
# 16-byte blake2b digest of the payload + the pickled payload.  The
# header lets a reader distinguish a torn/corrupted file (partial
# write, disk damage) from a well-formed checkpoint it merely cannot
# use -- the former is logged and treated as a cold start.
_CKPT_MAGIC = b"RXCK1\n"
_CKPT_LEN_BYTES = 8
_CKPT_DIGEST_BYTES = 16
_CKPT_HEADER_BYTES = (
    len(_CKPT_MAGIC) + _CKPT_LEN_BYTES + _CKPT_DIGEST_BYTES
)


# ----------------------------------------------------------------------
# Stable content digests
# ----------------------------------------------------------------------

def _canon(value: Any) -> Any:
    """Canonical form with deterministic iteration order.

    ``pickle`` of a set or dict depends on iteration order, which is
    per-process; sorting (by ``repr`` so mixed types never raise)
    makes the pickled bytes a pure function of the value.  Tags keep
    a canonicalised set distinguishable from a tuple of its members.
    """
    if isinstance(value, dict):
        return (
            "\x00d",
            tuple(sorted(
                ((_canon(k), _canon(v)) for k, v in value.items()),
                key=repr,
            )),
        )
    if isinstance(value, (set, frozenset)):
        return ("\x00s", tuple(sorted((_canon(v) for v in value), key=repr)))
    if isinstance(value, (list, tuple)):
        return tuple(_canon(v) for v in value)
    return value


def _stable_digest(value: Any) -> int:
    """64-bit content digest, identical in every process."""
    blob = pickle.dumps(_canon(value), protocol=4)
    return int.from_bytes(
        hashlib.blake2b(blob, digest_size=8).digest(), "big"
    )


def resolve_engine_tier(engine: str, prop: Any = None,
                        track_parents: bool = False) -> str:
    """Effective BFS tier (``"vector"``/``"interpreted"``) for an
    ``engine=`` request.

    ``auto`` silently falls back to the interpreted tier on any gate
    reason; an explicit ``engine="vector"`` raises ``ValueError`` with
    it -- the PR 7 strict-gate discipline.
    """
    if engine not in ENGINE_TIERS:
        raise ValueError(
            f"engine must be one of {ENGINE_TIERS}, got {engine!r}"
        )
    if engine == "interpreted":
        return "interpreted"
    reason = vecfrontier.frontier_unsupported_reason(
        prop=prop, track_parents=track_parents
    )
    if reason is None:
        return "vector"
    if engine == "vector":
        raise ValueError(f"engine='vector' unsupported here: {reason}")
    return "interpreted"


class _ShardSearch(_InternedSearch):
    """Interned search that also tracks content digests per id.

    Digests are maintained through the ``on_new_*`` interning hooks,
    so each distinct state/value/set is digested exactly once, and
    only when ``track_digests`` (more than one shard) -- a single
    in-process shard pays nothing.
    """

    __slots__ = ("track_digests", "sender_dg", "receiver_dg",
                 "value_dg", "set_dg")

    def __init__(self, sender, receiver, alphabet, result,
                 track_digests: bool) -> None:
        self.track_digests = track_digests
        self.sender_dg: List[int] = []
        self.receiver_dg: List[int] = []
        self.value_dg: List[int] = []
        self.set_dg: List[int] = [0]  # the empty set
        super().__init__(sender, receiver, alphabet, result)

    def on_new_sender(self, sid: int) -> None:
        if self.track_digests:
            self.sender_dg.append(_stable_digest(self.sender_keys[sid]))

    def on_new_receiver(self, rid: int) -> None:
        if self.track_digests:
            self.receiver_dg.append(_stable_digest(self.receiver_keys[rid]))

    def on_new_value(self, vid: int) -> None:
        if self.track_digests:
            self.value_dg.append(_stable_digest(self.values[vid]))

    def on_new_set(self, set_id: int) -> None:
        if self.track_digests:
            value_dg = self.value_dg
            self.set_dg.append(
                sum(value_dg[m] for m in self.set_members[set_id])
                % _DIGEST_MOD
            )

    def rebuild_digests(self) -> None:
        """Recompute every digest table after a checkpoint restore."""
        if not self.track_digests:
            return
        self.sender_dg = [_stable_digest(k) for k in self.sender_keys]
        self.receiver_dg = [_stable_digest(k) for k in self.receiver_keys]
        self.value_dg = [_stable_digest(v) for v in self.values]
        value_dg = self.value_dg
        self.set_dg = [
            sum(value_dg[m] for m in members) % _DIGEST_MOD
            for members in self.set_members
        ]

    def intern_value_set(self, values: Iterable[Hashable]) -> int:
        """Intern a set of packet values by folding extensions."""
        set_id = 0
        for value in values:
            set_id = self.extend_set(set_id, self.intern_value(value))
        return set_id

    def portable(self, sid: int, rid: int, t2r: int, r2t: int,
                 injected: int, delivered: int) -> Tuple:
        """Shard-independent encoding of a configuration's fields.

        Ships the interned table objects themselves (keys, snapshots,
        values); within one pickled batch, repeats collapse to pickle
        memo references.
        """
        values = self.values
        return (
            self.sender_keys[sid], self.sender_snaps[sid],
            self.receiver_keys[rid], self.receiver_snaps[rid],
            tuple(values[v] for v in self.set_members[t2r]),
            tuple(values[v] for v in self.set_members[r2t]),
            injected, delivered,
        )

    def intern_portable(self, portable: Tuple) -> Tuple[int, ...]:
        """Intern a :meth:`portable` encoding; returns its six field
        values ``(sid, rid, t2r, r2t, injected, delivered)``."""
        (skey, ssnap, rkey, rsnap, t2r_values, r2t_values,
         injected, delivered) = portable
        sid = self.sender_ids.get(skey)
        if sid is None:
            sid = self._guard(len(self.sender_keys))
            self.sender_ids[skey] = sid
            self.sender_keys.append(skey)
            self.sender_snaps.append(None if self.sender_fast else ssnap)
            self.on_new_sender(sid)
        rid = self.receiver_ids.get(rkey)
        if rid is None:
            rid = self._guard(len(self.receiver_keys))
            self.receiver_ids[rkey] = rid
            self.receiver_keys.append(rkey)
            self.receiver_snaps.append(None if self.receiver_fast else rsnap)
            self.on_new_receiver(rid)
        return (
            sid, rid, self.intern_value_set(t2r_values),
            self.intern_value_set(r2t_values), injected, delivered,
        )

    def restore_tables(self, dump: Dict[str, Any]) -> None:
        """Reload the intern tables of a shard snapshot; transition
        memos restart empty."""
        self.sender_keys = list(dump["sender_keys"])
        self.sender_snaps = list(dump["sender_snaps"])
        self.sender_ids = {key: i for i, key in enumerate(self.sender_keys)}
        self.receiver_keys = list(dump["receiver_keys"])
        self.receiver_snaps = list(dump["receiver_snaps"])
        self.receiver_ids = {
            key: i for i, key in enumerate(self.receiver_keys)
        }
        self.values = list(dump["values"])
        self.value_ids = {value: i for i, value in enumerate(self.values)}
        self.value_id_by_objid = {}
        self._value_refs = []
        self.set_members = list(dump["set_members"])
        self.set_ids = {
            members: i for i, members in enumerate(self.set_members)
        }
        self.set_extend = {}
        self.ready_memo = {}
        self.msg_memo = {}
        self.out_memo = {}
        self.sender_rcv_memo = {}
        self.receiver_rcv_memo = {}
        self.memo_hits = dump["memo_hits"]
        self.memo_misses = dump["memo_misses"]
        self.rebuild_digests()


# ----------------------------------------------------------------------
# Checkpoint files
# ----------------------------------------------------------------------

def checkpoint_path(checkpoint_dir: str, key: str) -> str:
    return os.path.join(checkpoint_dir, f"{key}.ckpt")


def _default_checkpoint_dir() -> str:
    from repro.runtime.cache import default_cache_dir

    return os.path.join(default_cache_dir(), "exploration")


def _save_checkpoint(path: str, payload: Dict[str, Any]) -> None:
    """Atomic write: a reader never sees a torn checkpoint.

    The file is the self-validating container described at
    ``_CKPT_MAGIC``; ``os.replace`` makes the swap atomic and the
    length/digest header makes any partial or damaged file detectable
    on read.
    """
    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    blob = pickle.dumps(payload, protocol=4)
    digest = hashlib.blake2b(blob, digest_size=_CKPT_DIGEST_BYTES).digest()
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(_CKPT_MAGIC)
            handle.write(len(blob).to_bytes(_CKPT_LEN_BYTES, "big"))
            handle.write(digest)
            handle.write(blob)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def _read_checkpoint_blob(path: str) -> Optional[bytes]:
    """Read and validate a checkpoint container.

    Returns the pickled payload bytes, or ``None`` -- with a logged
    warning -- when the file is unreadable, torn or corrupt.  Callers
    treat ``None`` as a cold start.
    """
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        logger.warning("checkpoint %s unreadable (%s); cold start",
                       path, exc)
        return None
    if len(raw) < _CKPT_HEADER_BYTES:
        logger.warning(
            "checkpoint %s truncated (%d bytes, header needs %d); "
            "cold start", path, len(raw), _CKPT_HEADER_BYTES,
        )
        return None
    if not raw.startswith(_CKPT_MAGIC):
        logger.warning(
            "checkpoint %s has no container header (old format or "
            "foreign file); cold start", path,
        )
        return None
    offset = len(_CKPT_MAGIC)
    length = int.from_bytes(raw[offset:offset + _CKPT_LEN_BYTES], "big")
    offset += _CKPT_LEN_BYTES
    digest = raw[offset:offset + _CKPT_DIGEST_BYTES]
    blob = raw[_CKPT_HEADER_BYTES:]
    if len(blob) != length:
        logger.warning(
            "checkpoint %s truncated (%d payload bytes, header claims "
            "%d); cold start", path, len(blob), length,
        )
        return None
    actual = hashlib.blake2b(blob, digest_size=_CKPT_DIGEST_BYTES).digest()
    if actual != digest:
        logger.warning(
            "checkpoint %s failed its content digest (corrupt); "
            "cold start", path,
        )
        return None
    return blob


def _load_checkpoint(path: str, key: str, num_shards: int,
                     fmt: str) -> Optional[Dict[str, Any]]:
    blob = _read_checkpoint_blob(path)
    if blob is None:
        return None
    try:
        payload = pickle.loads(blob)
    except (pickle.UnpicklingError, EOFError, AttributeError,
            ImportError, IndexError, ValueError) as exc:
        logger.warning("checkpoint %s failed to unpickle (%s); cold start",
                       path, exc)
        return None
    # A digest-valid file that simply belongs to a different search
    # (format bump, other parameters, other shard count) is not
    # corruption; skip it silently, as before.
    if not isinstance(payload, dict):
        return None
    if payload.get("format") != fmt:
        return None
    if payload.get("key") != key:
        return None
    if payload.get("num_shards") != num_shards:
        return None
    if len(payload.get("dumps", ())) != num_shards:
        return None
    return payload


# ----------------------------------------------------------------------
# The entry point
# ----------------------------------------------------------------------

def explore_station_states_parallel(
    sender: IOAutomaton,
    receiver: IOAutomaton,
    message_alphabet: Iterable[Hashable],
    max_messages: int = 2,
    max_configurations: int = 200_000,
    workers: int = 2,
    use_processes: Optional[bool] = None,
    checkpoint_every: int = 0,
    checkpoint_dir: Optional[str] = None,
    resume: bool = True,
    engine: str = "auto",
) -> ExplorationResult:
    """Level-synchronous sharded exploration.

    Args:
        sender: the transmitting-station automaton ``A^t``.
        receiver: the receiving-station automaton ``A^r``.
        message_alphabet: message values the environment may submit.
        max_messages: injection budget along any explored path.
        max_configurations: visit budget, enforced at level barriers
            (a truncated run may overshoot by up to one level).
        workers: requested shard count.
        use_processes: ``True`` forces one OS process per shard,
            ``False`` forces the single in-process shard, ``None``
            (default) picks processes only when ``workers >= 2``, the
            host has more than one CPU, and the automata pickle --
            otherwise processes cannot beat the serial path.
        checkpoint_every: snapshot cadence in levels (``> 0`` enables
            checkpointing; ``checkpoint_dir`` alone enables it with a
            default cadence of 16 levels).  Termination -- complete or
            truncated -- always writes a final checkpoint when
            enabled.
        checkpoint_dir: checkpoint directory; defaults to
            ``<cache dir>/exploration``.
        resume: load a matching checkpoint before starting.
        engine: BFS tier -- ``"auto"`` (vectorized frontier kernels
            when :mod:`repro.ioa.vecfrontier`'s gate accepts, else the
            interpreted loop), ``"vector"`` (strict: raises when
            unsupported) or ``"interpreted"``.  Tiers are
            bit-identical; the choice changes speed only.

    Returns:
        An :class:`ExplorationResult`.  ``perf["engine"]`` records the
        backend, effective shard count, CPU count, level count,
        cross-shard traffic and the frontier tier's counters.  On a
        resumed run ``configurations`` is the cumulative total and
        ``configs_per_sec`` covers only this session's work.
    """
    tier = resolve_engine_tier(engine)
    if checkpoint_every > 0 and checkpoint_dir is None:
        checkpoint_dir = _default_checkpoint_dir()
    return run_exploration(
        sender, receiver, message_alphabet,
        max_messages=max_messages,
        max_configurations=max_configurations,
        workers=workers,
        use_processes=use_processes,
        checkpoint_every=checkpoint_every,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
        engine_tier=tier,
    )


def run_exploration(sender: IOAutomaton, receiver: IOAutomaton,
                    message_alphabet: Iterable[Hashable],
                    report_engine: bool = True,
                    **search: Any) -> ExplorationResult:
    """Run the BFS engine with no property and read an
    :class:`ExplorationResult` off its shards.

    ``search`` are :func:`repro.checker.engine._run_search`'s keyword
    arguments.  ``report_engine=False`` leaves the engine bookkeeping
    out of ``perf`` (the serial entry point's flat report).
    """
    # The engine imports this module, so it is imported at call time.
    from repro.checker.engine import _search

    started = time.perf_counter()
    outcome = _search(
        sender, receiver, list(message_alphabet), None, states=True,
        **search,
    )
    finishes = outcome["finishes"]
    result = merge_finishes(
        finishes, outcome["truncated"] and not outcome["complete"]
    )
    elapsed = time.perf_counter() - started
    session_visited = outcome["session_visited"]

    def total(key: str) -> int:
        return sum(finish[key] for finish in finishes)

    result.perf = {
        "elapsed_s": round(elapsed, 6),
        "configs_per_sec": configs_per_sec(session_visited, elapsed),
        "memo_hits": total("memo_hits"),
        "memo_misses": total("memo_misses"),
        "duplicate_successors_skipped": total("dup_skipped"),
        "interned_sender_states": total("interned_sender_states"),
        "interned_receiver_states": total("interned_receiver_states"),
        "interned_packet_values": total("interned_packet_values"),
        "interned_value_sets": total("interned_value_sets"),
    }
    if report_engine:
        engine = outcome["engine"]
        result.perf["engine"] = {
            "name": "level-sync-sharded",
            "backend": engine["backend"],
            "workers_requested": engine["workers_requested"],
            "shards": engine["shards"],
            "cpus": engine["cpus"],
            "picklable": engine["picklable"],
            "levels": engine["levels"],
            "levels_this_session": engine["levels_this_session"],
            "session_configurations": session_visited,
            "cross_shard_forwards": total("forwarded"),
            "checkpointing": engine["checkpointing"],
            "checkpoints_written": engine["checkpoints_written"],
            "resumed_from": engine["resumed_from"],
            "frontier": engine["frontier"],
        }
    return result


def merge_finishes(finishes: List[Dict[str, Any]],
                   truncated: bool) -> ExplorationResult:
    """Map the engine's per-shard ``finish`` reports (taken with
    ``states``) onto an :class:`ExplorationResult`."""

    def union(key: str) -> set:
        # One shard's sets are already complete; skip copying them.
        sets = [finish[key] for finish in finishes]
        return sets[0] if len(sets) == 1 else set().union(*sets)

    return ExplorationResult(
        sender_states=union("sender_keys"),
        receiver_states=union("receiver_keys"),
        pair_count=len(union("pairs")),
        configurations=sum(finish["visited"] for finish in finishes),
        truncated=truncated,
        packet_values={
            direction: set().union(*(
                finish["packet_values"][direction] for finish in finishes
            ))
            for direction in (Direction.T2R, Direction.R2T)
        },
    )


def _merge_frontier_perf(
    per_shard: List[Optional[Dict[str, Any]]], tier: str
) -> Dict[str, Any]:
    """Fold per-shard frontier counters into one perf dict.

    Interpreted-tier shards report no ``"frontier"`` key; the merged
    dict then carries only the tier name so ``perf["engine"]
    ["frontier"]["tier"]`` is always present (the None/0 discipline of
    ``configs_per_sec``: absent work reads as zero, never as a missing
    key).
    """
    shards = [p for p in per_shard if p]
    if tier != "vector" or not shards:
        return {"tier": "interpreted"}
    generated = sum(p["generated_successors"] for p in shards)
    unique_new = sum(p["unique_new"] for p in shards)
    merged = {
        "tier": "vector",
        "wide": any(p["wide"] for p in shards),
        "frontier_batches": sum(p["frontier_batches"] for p in shards),
        "generated_successors": generated,
        "unique_new": unique_new,
        "unique_ratio": (
            round(unique_new / generated, 6) if generated else 0.0
        ),
        "fallback_expansions": sum(
            p["fallback_expansions"] for p in shards
        ),
    }
    return merged
