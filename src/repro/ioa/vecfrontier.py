"""Vectorized frontier tier for the level-synchronous BFS.

The BFS engine (:mod:`repro.checker.engine`, which also runs every
exploration as a check with no property) expands one packed-integer
configuration at a time in Python, even though delta-memoisation
already reduced every successor to ``config + precomputed integer
delta``.  This module is the frontier analogue of
:mod:`repro.core.vectrials`: it runs whole BFS levels as numpy array
programs.  It supplies the vector tier's level hooks to the engine's
one shard class -- the narrow-mode level loop, the array level, the
sharded round (:func:`expand_vector`) and the portable codecs -- while
the engine keeps the level barriers.

* **narrow packing** -- the scalar kernels pack six 24-bit interning
  ids into one Python bigint; bigints cannot live in an int64 ndarray.
  The vector tier therefore re-packs the *same* interning ids into 63
  bits with per-run field widths sized from the injection budget and
  delivered-counter cap (:class:`FrontierKernel`).  Both packings
  share the id spaces, so narrow <-> scalar conversion is a pure field
  remap and every checkpoint/snapshot stays in the scalar format the
  interpreted tier reads.
* **delta tables** -- each move class (inject, sender output, t->r
  delivery, r->t ack) keeps its delta memo twice: the scalar kernels'
  ``key -> tuple(deltas)`` dict, and a CSR mirror (``starts``,
  ``counts``, flat delta pool) grown lazily from it
  (:class:`_DeltaTable`).  A frontier level expands as
  ``np.repeat``-indexed broadcast adds of the pools; keys whose
  transitions are not memoised yet resolve scalar-side through the
  interpreted :class:`~repro.ioa.exploration._InternedSearch`
  primitives and patch both structures -- lazy table growth survives
  vectorization.
* **sorted-array visited set** -- candidates dedupe via ``np.unique``
  and then merge against the visited set held as a sorted base array
  plus recent sorted runs (:class:`VecSeen`), probed with
  ``np.searchsorted``; the run files of the disk-backed variant mirror
  :class:`repro.checker.store.DiskVisitedStore`'s design (sorted
  immutable spills, RAM-resident for membership).
* **adaptive width** -- near-chain searches (tens of thousands of
  levels of a handful of configurations) would pay per-level array
  dispatch for nothing, so a search starts in *narrow* mode -- the
  interpreted level loop on narrow ints and the dict memos -- and
  switches one-way to array kernels at the first level wider than
  :data:`FRONTIER_WIDE_THRESHOLD`.  Narrow-mode expansions are
  reported as ``fallback_expansions`` in ``perf``.

Equality with the interpreted tier is structural, not incidental: a
BFS level set is canonical (engine- and shard-count-independent), both
tiers apply the same interned transition functions, and budget
truncation happens at the same level barriers -- so configuration
counts, level counts, verdicts and counterexample fingerprints are
bit-identical.  The support gate (:func:`frontier_unsupported_reason`)
refuses numpy absence, parent tracking (``trace="inline"`` path
reconstruction walks per-config parent pointers, which stays
interpreted) and properties without a vectorizable classifier; auto
engine selection falls back silently, explicit ``engine="vector"``
raises.  If an interning table outgrows its narrow field mid-search
the run is *demoted*: the coordinator restarts it on the interpreted
tier from scratch (narrow overflow needs tens of thousands of distinct
station states, so the restart is rare) and records the demotion in
``perf``.  Checkpoint keys carry the tier name, so a checkpoint
written by one tier is never resumed by the other.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.ioa import compile as compile_mod
from repro.ioa.exploration import (
    _FIELD_BITS,
    _FIELD_MASK,
    _S_INJ,
    _S_R2T,
    _S_RID,
    _S_T2R,
)

#: Frontier width at which a search switches (one-way) from the
#: narrow-mode interpreted loop to array kernels.  Below this, numpy
#: dispatch overhead exceeds the expansion work.
FRONTIER_WIDE_THRESHOLD = 64

#: Scalar shift of the checker's delivered counter (field 5).
_S_DEL = _S_INJ + _FIELD_BITS

_numpy_module: Any = None


def _numpy():
    """The numpy module, or ``None`` when not installed (memoized)."""
    global _numpy_module
    if _numpy_module is None:
        try:
            import numpy
        except ImportError:
            _numpy_module = False
        else:
            _numpy_module = numpy
    return _numpy_module or None


def numpy_available() -> bool:
    """Whether the optional ``repro[perf]`` dependency is importable."""
    return _numpy() is not None


def frontier_unsupported_reason(
    prop: Any = None,
    track_parents: bool = False,
) -> Optional[str]:
    """Why the vector frontier tier cannot run this search, or ``None``.

    The strict-gate twin of ``vector_unsupported_reason`` in
    :mod:`repro.core.vectrials`: auto tiers silently fall back to the
    interpreted tier on any reason; explicit ``engine="vector"``
    raises with it.
    """
    if _numpy() is None:
        return "numpy is not installed (the repro[perf] extra)"
    if track_parents:
        return (
            "parent tracking (trace='inline' path reconstruction) is "
            "interpreted-only"
        )
    if prop is not None and not getattr(prop, "vector_scannable", False):
        return (
            f"property {getattr(prop, 'name', prop)!r} has no "
            "vectorized classifier (vector_scannable is False)"
        )
    return None


class FrontierDemotedError(RuntimeError):
    """An interning table outgrew its narrow int64 field mid-search.

    The coordinator catches this and restarts the search on the
    interpreted tier (results are identical; only the work done so far
    is repaid).  Never escapes to callers.
    """

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class _GrowArray:
    """An append-only int64 ndarray with amortised doubling."""

    def __init__(self, np_mod: Any, dtype: Any = None) -> None:
        self.np = np_mod
        self.dtype = dtype or np_mod.int64
        self.data = np_mod.empty(32, dtype=self.dtype)
        self.size = 0

    def extend(self, values: List[int]) -> None:
        need = self.size + len(values)
        if need > len(self.data):
            capacity = len(self.data)
            while capacity < need:
                capacity *= 2
            grown = self.np.empty(capacity, dtype=self.dtype)
            grown[: self.size] = self.data[: self.size]
            self.data = grown
        self.data[self.size:need] = values
        self.size = need

    def view(self):
        return self.data[: self.size]


class _DeltaTable:
    """One move class's delta memo, dict- and CSR-shaped at once.

    ``memo`` is the scalar kernels' shape (``key -> payload``) used by
    the narrow-mode loop; the CSR mirror (``starts``/``counts`` per
    row, one flat delta ``pool``, optionally a parallel delivery-count
    pool) is appended row-by-row the first time the array path meets a
    key.  Payloads are tuples of narrow deltas -- for the delivering
    move class of the checker, tuples of ``(delta, dcount)`` pairs.
    """

    def __init__(self, np_mod: Any, with_dcounts: bool = False) -> None:
        self.np = np_mod
        self.memo: Dict[int, Any] = {}
        # Sorted key array + aligned row-index array: the CSR row
        # lookup is a vectorized searchsorted, not a per-key dict get.
        self.key_arr = np_mod.empty(0, dtype=np_mod.int64)
        self.row_arr = np_mod.empty(0, dtype=np_mod.int64)
        self.starts = _GrowArray(np_mod)
        self.counts = _GrowArray(np_mod)
        self.pool = _GrowArray(np_mod)
        self.dpool = _GrowArray(np_mod) if with_dcounts else None

    def _append_row(self, payload: Any) -> int:
        return self._append_rows([payload])

    def _append_rows(self, payloads: List[Any]):
        """Batch row append: one grow-array extend per pool.

        The payload -> CSR conversion lives with the rest of the
        table-export idiom in :func:`repro.ioa.compile
        .export_move_deltas`; this method only offsets the batch into
        the table's flat pools.
        """
        row0 = self.starts.size
        pool0 = self.pool.size
        starts, counts, pool, dpool = compile_mod.export_move_deltas(
            payloads, with_dcounts=self.dpool is not None
        )
        if pool0:
            starts = [pool0 + start for start in starts]
        self.starts.extend(starts)
        self.counts.extend(counts)
        self.pool.extend(pool)
        if dpool is not None:
            self.dpool.extend(dpool)
        return row0

    def rows_for(self, unique_keys, resolve: Callable[[int], Any]):
        """Row index per (sorted-unique) key; appends missing keys.

        Warm keys resolve in one vectorized ``searchsorted``; only
        first-seen keys take the Python resolve loop, after which they
        merge into the sorted lookup (misses shrink level over level,
        so the merge cost amortises out).
        """
        np = self.np
        memo = self.memo
        key_arr = self.key_arr
        out = np.empty(len(unique_keys), dtype=np.int64)
        if len(key_arr):
            idx = np.searchsorted(key_arr, unique_keys)
            idx[idx == len(key_arr)] = 0
            hit = key_arr[idx] == unique_keys
            out[hit] = self.row_arr[idx[hit]]
            miss_keys = unique_keys[~hit]
        else:
            hit = None
            miss_keys = unique_keys
        misses = 0
        if len(miss_keys):
            payloads: List[Any] = []
            for key in miss_keys.tolist():
                payload = memo.get(key, _UNRESOLVED)
                if payload is _UNRESOLVED:
                    payload = resolve(key)
                    memo[key] = payload
                    misses += 1
                payloads.append(payload)
            row0 = self._append_rows(payloads)
            new_rows = np.arange(
                row0, row0 + len(miss_keys), dtype=np.int64
            )
            if hit is None:
                out = new_rows
            else:
                out[~hit] = new_rows
            merged_keys = np.concatenate([key_arr, miss_keys])
            merged_rows = np.concatenate([self.row_arr, new_rows])
            order = np.argsort(merged_keys, kind="stable")
            self.key_arr = merged_keys[order]
            self.row_arr = merged_rows[order]
        return out, misses


_UNRESOLVED = object()


class VecSeen:
    """The visited set over narrow ints: a Python-set *buffer* plus
    sorted immutable int64 *runs*.

    Narrow-mode membership and insertion go through the buffer (pure
    set operations, exactly the interpreted tier's cost profile); the
    array path flushes the buffer into a run and from then on filters
    whole candidate arrays with ``np.searchsorted`` probes.  Runs
    merge when they accumulate, bounding the probe count.  With
    ``directory`` set, every run is also spilled to an immutable file
    (8-byte little-endian records) -- same audit/residency story as
    :class:`repro.checker.store.DiskVisitedStore`, whose sorted runs
    stay RAM-resident for membership too.
    """

    MAX_RUNS = 8

    def __init__(self, np_mod: Any, directory: Optional[str] = None,
                 spill_threshold: int = 65_536) -> None:
        self.np = np_mod
        self.buffer: set = set()
        self.runs: List[Any] = []
        self.directory = directory
        self.spill_threshold = spill_threshold
        self.runs_written = 0
        self.bytes_written = 0
        if directory is not None:
            os.makedirs(directory, exist_ok=True)
            for name in os.listdir(directory):
                if name.startswith("vecrun-"):
                    os.unlink(os.path.join(directory, name))

    # -- scalar (narrow-mode) protocol ---------------------------------
    def __contains__(self, cfg: int) -> bool:
        if cfg in self.buffer:
            return True
        np = self.np
        for run in self.runs:
            idx = int(np.searchsorted(run, cfg))
            if idx < len(run) and int(run[idx]) == cfg:
                return True
        return False

    def add(self, cfg: int) -> None:
        self.buffer.add(cfg)
        if self.directory is not None \
                and len(self.buffer) >= self.spill_threshold:
            self.flush_buffer()

    def __len__(self) -> int:
        return len(self.buffer) + sum(len(run) for run in self.runs)

    def __iter__(self):
        for run in self.runs:
            yield from (int(cfg) for cfg in run)
        yield from self.buffer

    # -- array protocol ------------------------------------------------
    def flush_buffer(self) -> None:
        if self.buffer:
            np = self.np
            run = np.fromiter(self.buffer, dtype=np.int64,
                              count=len(self.buffer))
            run.sort()
            self.buffer = set()
            self._push_run(run)

    def _push_run(self, run) -> None:
        self.runs.append(run)
        if self.directory is not None:
            path = os.path.join(
                self.directory, f"vecrun-{self.runs_written:08d}.bin"
            )
            blob = run.astype("<i8").tobytes()
            with open(path, "wb") as handle:
                handle.write(blob)
            self.runs_written += 1
            self.bytes_written += len(blob)
        if len(self.runs) > self.MAX_RUNS:
            np = self.np
            merged = np.concatenate(self.runs)
            merged.sort()
            self.runs = [merged]

    def filter_new(self, candidates):
        """Sorted-unique ``candidates`` minus everything seen."""
        np = self.np
        new = candidates
        for run in self.runs:
            if not len(new):
                return new
            idx = np.searchsorted(run, new)
            idx[idx == len(run)] = len(run) - 1 if len(run) else 0
            new = new[run[idx] != new] if len(run) else new
        if self.buffer and len(new):
            mask = np.fromiter(
                (cfg not in self.buffer for cfg in new.tolist()),
                dtype=bool, count=len(new),
            )
            new = new[mask]
        return new

    def add_run(self, run) -> None:
        """Fold a sorted array known to be disjoint from the set."""
        if len(run):
            self._push_run(run)

    def stats(self) -> Dict[str, Any]:
        return {
            "backend": "vector" if self.directory is None
            else "vector-disk",
            "ram_records": len(self.buffer),
            "run_records": sum(len(run) for run in self.runs),
            "runs": len(self.runs),
            "runs_written": self.runs_written,
            "bytes_written": self.bytes_written,
        }


class FrontierKernel:
    """Narrow int64 packing + array kernels for one shard's search.

    Field layout (low to high): sender id, receiver id, t->r set id,
    r->t set id, injected count, and -- when ``del_cap > 0`` -- the
    checker's saturating delivered counter.  Widths are fixed per run
    from the injection budget and ``del_cap``; the id fields split the
    remaining bits of a non-negative int64, with the receiver field
    taking the surplus (receiver state spaces dominate in practice).
    Sharing the interning id spaces with the scalar kernels makes
    narrow <-> scalar conversion a pure field remap.
    """

    def __init__(self, search: Any, max_messages: int,
                 del_cap: int = 0, capacity: Optional[int] = None) -> None:
        np = _numpy()
        if np is None:  # pragma: no cover - callers gate on numpy
            raise RuntimeError("FrontierKernel requires numpy")
        self.np = np
        self.search = search
        self.max_messages = max_messages
        self.del_cap = del_cap
        self.capacity = capacity

        inj_bits = max(1, max_messages.bit_length())
        del_bits = del_cap.bit_length() if del_cap else 0
        id_bits = 63 - inj_bits - del_bits
        set_bits = id_bits // 4
        sid_bits = set_bits - 2
        rid_bits = id_bits - 2 * set_bits - sid_bits
        self.sh_rid = sid_bits
        self.sh_t2r = sid_bits + rid_bits
        self.sh_r2t = self.sh_t2r + set_bits
        self.sh_inj = self.sh_r2t + set_bits
        self.sh_del = self.sh_inj + inj_bits
        self.m_sid = (1 << sid_bits) - 1
        self.m_rid = (1 << rid_bits) - 1
        self.m_set = (1 << set_bits) - 1
        self.m_inj = (1 << inj_bits) - 1
        self.cap_sid = 1 << sid_bits
        self.cap_rid = 1 << rid_bits
        self.cap_set = 1 << set_bits
        self.one_inj = 1 << self.sh_inj

        self.wide = False
        self.seen = VecSeen(np)
        self.t_inject = _DeltaTable(np)
        self.t_output = _DeltaTable(np)
        self.t_deliver = _DeltaTable(np, with_dcounts=del_cap > 0)
        self.t_ack = _DeltaTable(np)
        # Watermarked mirrors of per-id tables (grown on demand).
        self._set_size = _GrowArray(np, np.int64)
        self._sdg = _GrowArray(np, np.uint64)
        self._rdg = _GrowArray(np, np.uint64)
        self._gdg = _GrowArray(np, np.uint64)
        self._rcv_dcount = getattr(search, "rcv_dcount", None)
        # Visited station ids as scatter masks (synced into the
        # shard's Python sets at barriers, not per level).
        self._sid_mask = np.zeros(self.cap_sid, dtype=bool)
        self._rid_mask = np.zeros(self.cap_rid, dtype=bool)
        # Vector-tier perf counters (ExplorationResult.perf).
        self.batches = 0
        self.generated = 0
        self.unique_new = 0
        self.fallback_expansions = 0
        self.guard()

    # -- packing -------------------------------------------------------
    def guard(self) -> None:
        """Demote when any interning table outgrew its narrow field."""
        s = self.search
        if len(s.sender_keys) > self.cap_sid:
            raise FrontierDemotedError(
                f"sender table ({len(s.sender_keys)}) outgrew the "
                f"narrow field ({self.cap_sid})"
            )
        if len(s.receiver_keys) > self.cap_rid:
            raise FrontierDemotedError(
                f"receiver table ({len(s.receiver_keys)}) outgrew the "
                f"narrow field ({self.cap_rid})"
            )
        if len(s.set_members) > self.cap_set:
            raise FrontierDemotedError(
                f"value-set table ({len(s.set_members)}) outgrew the "
                f"narrow field ({self.cap_set})"
            )

    def pack(self, sid: int, rid: int, t2r: int, r2t: int,
             injected: int, delivered: int = 0) -> int:
        return (
            sid
            | (rid << self.sh_rid)
            | (t2r << self.sh_t2r)
            | (r2t << self.sh_r2t)
            | (injected << self.sh_inj)
            | (delivered << self.sh_del)
        )

    def to_scalar(self, cfg: int) -> int:
        """Narrow packed config -> the scalar kernels' packing."""
        return (
            (cfg & self.m_sid)
            | (((cfg >> self.sh_rid) & self.m_rid) << _S_RID)
            | (((cfg >> self.sh_t2r) & self.m_set) << _S_T2R)
            | (((cfg >> self.sh_r2t) & self.m_set) << _S_R2T)
            | (((cfg >> self.sh_inj) & self.m_inj) << _S_INJ)
            | ((cfg >> self.sh_del) << _S_DEL)
        )

    def from_scalar(self, cfg: int) -> int:
        return self.pack(
            cfg & _FIELD_MASK,
            (cfg >> _S_RID) & _FIELD_MASK,
            (cfg >> _S_T2R) & _FIELD_MASK,
            (cfg >> _S_R2T) & _FIELD_MASK,
            (cfg >> _S_INJ) & _FIELD_MASK,
            cfg >> _S_DEL,
        )

    def to_scalar_list(self, configs) -> List[int]:
        """Bulk narrow -> scalar (object-dtype field recombination)."""
        np = self.np
        arr = np.asarray(configs, dtype=np.int64)
        sid = (arr & self.m_sid).astype(object)
        rid = ((arr >> self.sh_rid) & self.m_rid).astype(object)
        t2r = ((arr >> self.sh_t2r) & self.m_set).astype(object)
        r2t = ((arr >> self.sh_r2t) & self.m_set).astype(object)
        inj = ((arr >> self.sh_inj) & self.m_inj).astype(object)
        out = (
            sid | (rid << _S_RID) | (t2r << _S_T2R)
            | (r2t << _S_R2T) | (inj << _S_INJ)
        )
        if self.del_cap:
            out = out | ((arr >> self.sh_del).astype(object) << _S_DEL)
        return out.tolist()

    # -- watermarked per-id mirrors ------------------------------------
    def _sync_set_sizes(self) -> None:
        members = self.search.set_members
        if self._set_size.size < len(members):
            self._set_size.extend([
                len(members[i])
                for i in range(self._set_size.size, len(members))
            ])

    def _sync_digests(self) -> None:
        s = self.search
        mod = 1 << 64
        for grow, table in ((self._sdg, s.sender_dg),
                            (self._rdg, s.receiver_dg),
                            (self._gdg, s.set_dg)):
            if grow.size < len(table):
                grow.extend([
                    value % mod
                    for value in table[grow.size:len(table)]
                ])

    def digests(self, configs):
        """Routing digests of an array of narrow configs (uint64)."""
        np = self.np
        self._sync_digests()
        sdg = self._sdg.view()
        rdg = self._rdg.view()
        gdg = self._gdg.view()
        with np.errstate(over="ignore"):
            out = (
                sdg[configs & self.m_sid]
                + np.uint64(3) * rdg[(configs >> self.sh_rid) & self.m_rid]
                + np.uint64(5) * gdg[(configs >> self.sh_t2r) & self.m_set]
                + np.uint64(7) * gdg[(configs >> self.sh_r2t) & self.m_set]
                + np.uint64(11) * (
                    (configs >> self.sh_inj) & self.m_inj
                ).astype(np.uint64)
            )
            if self.del_cap:
                out = out + np.uint64(13) * (
                    configs >> self.sh_del
                ).astype(np.uint64)
        return out

    # -- narrow delta resolution (interpreted primitives) --------------
    def resolve_inject(self, sid: int) -> Tuple[int, ...]:
        s = self.search
        return tuple(
            (nsid - sid) + self.one_inj for nsid in s.inject_targets(sid)
        )

    def resolve_output(self, sid: int, t2r: int) -> Optional[int]:
        s = self.search
        fired = s.sender_output(sid)
        if fired is None:
            return None
        nsid, vid = fired
        return (nsid - sid) + (
            (s.extend_set(t2r, vid) - t2r) << self.sh_t2r
        )

    def resolve_deliver(self, rid: int, t2r: int, r2t: int) -> Tuple:
        """Narrow deliver payload: deltas, or (delta, dcount) pairs."""
        s = self.search
        entries = []
        append = entries.append
        dcount_of = self._rcv_dcount
        rcv_get = s.receiver_rcv_memo.get
        after_rcv = s.receiver_after_rcv
        extend_set = s.extend_set
        sh_rid = self.sh_rid
        sh_r2t = self.sh_r2t
        del_cap = self.del_cap
        for vid in s.set_members[t2r]:
            memo = rcv_get((rid, vid))
            if memo is None:
                memo = after_rcv(rid, vid)
            else:
                s.memo_hits += 1
            new_rid, emitted = memo
            new_r2t = r2t
            for emitted_id in emitted:
                new_r2t = extend_set(new_r2t, emitted_id)
            delta = (
                ((new_rid - rid) << sh_rid)
                + ((new_r2t - r2t) << sh_r2t)
            )
            if del_cap:
                append((delta, dcount_of[(rid, vid)]))
            else:
                append(delta)
        return tuple(entries)

    def resolve_ack(self, sid: int, r2t: int) -> Tuple[int, ...]:
        s = self.search
        return tuple(
            (s.sender_after_rcv(sid, vid) - sid)
            for vid in s.set_members[r2t]
        )

    # -- array expansion -----------------------------------------------
    def _expand_class(self, sub, keys, table: _DeltaTable,
                      resolve: Callable[[int], Any]):
        """Candidate successors of ``sub`` for one move class."""
        np = self.np
        if not len(sub):
            return None
        # Row lookup is a searchsorted against the table's sorted key
        # array; only first-seen keys pay a unique + resolve pass, so
        # warm levels never hash their key columns.
        key_arr = table.key_arr
        all_hit = False
        if len(key_arr):
            idx = np.searchsorted(key_arr, keys)
            idx[idx == len(key_arr)] = 0
            hit = key_arr[idx] == keys
            all_hit = bool(hit.all())
        if not all_hit:
            miss = np.unique(keys if not len(key_arr) else keys[~hit])
            table.rows_for(miss, resolve)
            # Resolution interns new ids; re-check the narrow fields
            # once per batch of misses rather than per key.
            self.guard()
            key_arr = table.key_arr
            idx = np.searchsorted(key_arr, keys)
            idx[idx == len(key_arr)] = 0
        row_per_cfg = table.row_arr[idx]
        counts = table.counts.view()[row_per_cfg]
        total = int(counts.sum())
        if total == 0:
            return None
        rep = np.repeat(np.arange(len(sub), dtype=np.int64), counts)
        ends = np.cumsum(counts)
        within = np.arange(total, dtype=np.int64) \
            - np.repeat(ends - counts, counts)
        pool_idx = np.repeat(
            table.starts.view()[row_per_cfg], counts
        ) + within
        base = sub[rep]
        cand = base + table.pool.view()[pool_idx]
        if table.dpool is not None and self.del_cap:
            d = base >> self.sh_del
            nd = np.minimum(
                d + table.dpool.view()[pool_idx], self.del_cap
            )
            cand = cand + ((nd - d) << self.sh_del)
        return cand

    def gen_candidates(self, frontier) -> Tuple[Any, int]:
        """All successor candidates of a frontier array, capacity-
        pruned; returns ``(candidates, pruned_instances)``."""
        np = self.np
        parts = []
        sid = frontier & self.m_sid
        rid = (frontier >> self.sh_rid) & self.m_rid
        t2r = (frontier >> self.sh_t2r) & self.m_set
        r2t = (frontier >> self.sh_r2t) & self.m_set
        inj = (frontier >> self.sh_inj) & self.m_inj

        eligible = inj < self.max_messages
        part = self._expand_class(
            frontier[eligible], sid[eligible], self.t_inject,
            lambda key: self.resolve_inject(key),
        )
        if part is not None:
            parts.append(part)
        part = self._expand_class(
            frontier, sid | (t2r << _FIELD_BITS), self.t_output,
            lambda key: self.resolve_output(
                key & _FIELD_MASK, key >> _FIELD_BITS
            ),
        )
        if part is not None:
            parts.append(part)
        has_t2r = t2r != 0
        part = self._expand_class(
            frontier[has_t2r],
            (rid | (t2r << _FIELD_BITS)
             | (r2t << (2 * _FIELD_BITS)))[has_t2r],
            self.t_deliver,
            lambda key: self.resolve_deliver(
                key & _FIELD_MASK,
                (key >> _FIELD_BITS) & _FIELD_MASK,
                key >> (2 * _FIELD_BITS),
            ),
        )
        if part is not None:
            parts.append(part)
        has_r2t = r2t != 0
        part = self._expand_class(
            frontier[has_r2t], (sid | (r2t << _FIELD_BITS))[has_r2t],
            self.t_ack,
            lambda key: self.resolve_ack(
                key & _FIELD_MASK, key >> _FIELD_BITS
            ),
        )
        if part is not None:
            parts.append(part)

        self.batches += 1
        if not parts:
            empty = np.empty(0, dtype=np.int64)
            return empty, 0
        candidates = np.concatenate(parts)
        self.generated += len(candidates)
        pruned = 0
        if self.capacity is not None:
            self._sync_set_sizes()
            sizes = self._set_size.view()
            keep = (
                (sizes[(candidates >> self.sh_t2r) & self.m_set]
                 <= self.capacity)
                & (sizes[(candidates >> self.sh_r2t) & self.m_set]
                   <= self.capacity)
            )
            pruned = int(len(candidates) - int(keep.sum()))
            if pruned:
                candidates = candidates[keep]
        return candidates, pruned

    def go_wide(self) -> None:
        """One-way switch from the narrow set loop to array kernels."""
        if not self.wide:
            self.wide = True
            self.seen.flush_buffer()

    def sync_visited(self, shard: Any) -> None:
        """Fold the scatter masks into the shard's visited-id sets.

        Called at barriers (snapshot/finish); the narrow loop marks the
        sets directly, the array path marks the masks.
        """
        np = self.np
        shard.visited_sids.update(np.nonzero(self._sid_mask)[0].tolist())
        shard.visited_rids.update(np.nonzero(self._rid_mask)[0].tolist())

    def unique_pairs(self) -> List[int]:
        """Unique station-id pairs over the whole seen set.

        Each entry is a config masked down to its sid+rid fields;
        computed run-at-a-time so no Python loop touches individual
        configurations.
        """
        np = self.np
        pair_mask = (1 << self.sh_t2r) - 1
        parts = [run & pair_mask for run in self.seen.runs]
        buffer = self.seen.buffer
        if buffer:
            arr = np.fromiter(buffer, dtype=np.int64, count=len(buffer))
            parts.append(arr & pair_mask)
        if not parts:
            return []
        return np.unique(np.concatenate(parts)).tolist()

    # -- perf ----------------------------------------------------------
    def perf_counters(self) -> Dict[str, Any]:
        """Vector-tier counters merged into ``perf["engine"]``.

        ``unique_ratio`` follows ``configs_per_sec`` semantics: ``0.0``
        only when the array path did zero work, the true ratio
        otherwise.
        """
        ratio = (
            round(self.unique_new / self.generated, 4)
            if self.generated else 0.0
        )
        return {
            "tier": "vector",
            "wide": self.wide,
            "frontier_batches": self.batches,
            "generated_successors": self.generated,
            "unique_new": self.unique_new,
            "unique_ratio": ratio,
            "fallback_expansions": self.fallback_expansions,
            "seen": self.seen.stats(),
        }


# ---------------------------------------------------------------------------
# Level hooks of the engine's shard (repro.checker.engine._CheckerShard)
# ---------------------------------------------------------------------------

def _expand_narrow_level_check(shard: Any, kernel: FrontierKernel,
                               frontier: List[int],
                               next_frontier: List[int]) -> Tuple[int, int]:
    """Interpreted expansion of one narrow-mode level.

    The same loop shape (and local-binding discipline) as the scalar
    tier's ``run_levels_check``, on narrow ints and the kernel's dict
    memos, with the checker's delivered-count folding and capacity pruning
    (successors whose channel value-set would exceed
    ``kernel.capacity`` are dropped, counted separately from duplicates
    -- a seen config always passed the capacity check when first
    admitted, so the two classes are disjoint).  New successors are
    deduped against the seen-set's plain buffer inline -- before
    :meth:`FrontierKernel.go_wide` the buffer *is* the whole set unless
    a disk spill ran, and the rare spilled-run probe takes the slow
    path.  Appends new configs to ``next_frontier`` and returns
    ``(duplicates, pruned)``.  Counted as ``fallback_expansions``.
    """
    set_members = shard.search.set_members
    mm = kernel.max_messages
    sh_rid, sh_t2r, sh_r2t = kernel.sh_rid, kernel.sh_t2r, kernel.sh_r2t
    sh_inj, sh_del = kernel.sh_inj, kernel.sh_del
    m_sid, m_rid, m_set = kernel.m_sid, kernel.m_rid, kernel.m_set
    m_inj = kernel.m_inj
    del_cap = kernel.del_cap
    capacity = kernel.capacity
    inject_memo = kernel.t_inject.memo
    output_memo = kernel.t_output.memo
    deliver_memo = kernel.t_deliver.memo
    ack_memo = kernel.t_ack.memo
    mark_sid = shard.visited_sids.add
    mark_rid = shard.visited_rids.add
    seen = kernel.seen
    buffer = seen.buffer
    buffer_add = buffer.add
    runs = seen.runs
    append = next_frontier.append
    dup = 0
    pruned = 0

    def over(cfg):
        return (
            len(set_members[(cfg >> sh_t2r) & m_set]) > capacity
            or len(set_members[(cfg >> sh_r2t) & m_set]) > capacity
        )

    for cfg in frontier:
        sid = cfg & m_sid
        rid = (cfg >> sh_rid) & m_rid
        t2r = (cfg >> sh_t2r) & m_set
        r2t = (cfg >> sh_r2t) & m_set
        mark_sid(sid)
        mark_rid(rid)
        if ((cfg >> sh_inj) & m_inj) < mm:
            deltas = inject_memo.get(sid)
            if deltas is None:
                deltas = kernel.resolve_inject(sid)
                inject_memo[sid] = deltas
                kernel.guard()
            for delta in deltas:
                successor = cfg + delta
                if successor in buffer or (runs and successor in seen):
                    dup += 1
                elif capacity is not None and over(successor):
                    pruned += 1
                else:
                    buffer_add(successor)
                    append(successor)
        key = sid | (t2r << _FIELD_BITS)
        delta = output_memo.get(key, _UNRESOLVED)
        if delta is _UNRESOLVED:
            delta = kernel.resolve_output(sid, t2r)
            output_memo[key] = delta
            kernel.guard()
        if delta is not None:
            successor = cfg + delta
            if successor in buffer or (runs and successor in seen):
                dup += 1
            elif capacity is not None and over(successor):
                pruned += 1
            else:
                buffer_add(successor)
                append(successor)
        if t2r:
            key = rid | (t2r << _FIELD_BITS) | (r2t << (2 * _FIELD_BITS))
            entries = deliver_memo.get(key)
            if entries is None:
                entries = kernel.resolve_deliver(rid, t2r, r2t)
                deliver_memo[key] = entries
                kernel.guard()
            if del_cap:
                # (delta, dcount) pairs: fold the saturating count.
                d = cfg >> sh_del
                entries = [
                    delta + ((min(d + dcount, del_cap) - d) << sh_del)
                    for delta, dcount in entries
                ]
            for delta in entries:
                successor = cfg + delta
                if successor in buffer or (runs and successor in seen):
                    dup += 1
                elif capacity is not None and over(successor):
                    pruned += 1
                else:
                    buffer_add(successor)
                    append(successor)
        if r2t:
            key = sid | (r2t << _FIELD_BITS)
            deltas = ack_memo.get(key)
            if deltas is None:
                deltas = kernel.resolve_ack(sid, r2t)
                ack_memo[key] = deltas
                kernel.guard()
            for delta in deltas:
                successor = cfg + delta
                if successor in buffer or (runs and successor in seen):
                    dup += 1
                elif capacity is not None and over(successor):
                    pruned += 1
                else:
                    buffer_add(successor)
                    append(successor)
    kernel.fallback_expansions += len(frontier)
    if seen.directory is not None \
            and len(buffer) >= seen.spill_threshold:
        seen.flush_buffer()
    return dup, pruned


def _expand_wide_level(kernel: FrontierKernel,
                       frontier) -> Tuple[Any, int, int]:
    """Array expansion of one level.

    Returns ``(new_frontier_array, dup_instances, pruned_instances)``;
    the new frontier is sorted-unique, already folded into the visited
    set, with visited sender/receiver ids marked.
    """
    np = kernel.np
    kernel._sid_mask[frontier & kernel.m_sid] = True
    kernel._rid_mask[(frontier >> kernel.sh_rid) & kernel.m_rid] = True
    candidates, pruned = kernel.gen_candidates(frontier)
    if not len(candidates):
        return candidates, 0, pruned
    unique = np.unique(candidates)
    new = kernel.seen.filter_new(unique)
    kernel.seen.add_run(new)
    kernel.unique_new += len(new)
    dup = len(candidates) - pruned - len(new)
    return new, dup, pruned


def intern_portable_narrow(shard: Any, portable: Tuple) -> int:
    """Intern a portable config and pack it narrow (the scalar tier's
    ``_intern_portable`` with the kernel's packing)."""
    kernel: FrontierKernel = shard.kernel
    fields = shard.search.intern_portable(portable)
    kernel.guard()
    return kernel.pack(*fields)


def expand_vector(shard: Any) -> Dict[str, Any]:
    """Vector twin of the shard's ``expand`` (one sharded round).

    The whole level expands through the array kernels; unique
    candidates route by digest, foreign ones ship as
    ``(portable, None)`` pairs -- parent metadata is interpreted-only,
    so it is always ``None`` here.
    """
    kernel: FrontierKernel = shard.kernel
    np = kernel.np
    num_shards = shard.num_shards
    frontier = np.asarray(shard.frontier, dtype=np.int64)
    expanded = len(frontier)

    outbox: List[List[Tuple]] = [[] for _ in range(num_shards)]
    dup = 0
    pruned = 0
    forwarded = 0
    if expanded:
        kernel.go_wide()
        candidates, pruned = kernel.gen_candidates(frontier)
        kernel._sid_mask[frontier & kernel.m_sid] = True
        kernel._rid_mask[(frontier >> kernel.sh_rid) & kernel.m_rid] = True
        if len(candidates):
            unique = np.unique(candidates)
            if num_shards > 1:
                dest = (
                    kernel.digests(unique) % np.uint64(num_shards)
                ).astype(np.int64)
                own = unique[dest == shard.index]
                for shard_index in range(num_shards):
                    if shard_index == shard.index:
                        continue
                    batch = unique[dest == shard_index]
                    outbox[shard_index].extend(
                        (narrow_portable(shard, int(cfg)), None)
                        for cfg in batch
                    )
                    forwarded += len(batch)
            else:
                own = unique
            new = kernel.seen.filter_new(own)
            kernel.seen.add_run(new)
            kernel.unique_new += len(new)
            shard.pending.extend(new.tolist())
            dup = len(candidates) - pruned - forwarded - len(new)

    shard.visited += expanded
    shard.dup_skipped += dup
    shard.forwarded += forwarded
    shard.pruned += pruned
    shard.frontier = []
    return {
        "expanded": expanded,
        "outbox": outbox,
        "own_next": len(shard.pending),
    }


def narrow_portable(shard: Any, cfg: int) -> Tuple:
    """Portable encoding of a narrow config (see ``_portable``)."""
    kernel: FrontierKernel = shard.kernel
    return shard.search.portable(
        cfg & kernel.m_sid,
        (cfg >> kernel.sh_rid) & kernel.m_rid,
        (cfg >> kernel.sh_t2r) & kernel.m_set,
        (cfg >> kernel.sh_r2t) & kernel.m_set,
        (cfg >> kernel.sh_inj) & kernel.m_inj,
        cfg >> kernel.sh_del,
    )
