"""Struct-of-arrays pumping engine for Theorem 4.1 backlog planting.

:func:`~repro.core.trials.plant_backlog_batch` already runs one
pumping trial entirely in value-id space (compiled kernels, integer
bags).  This module runs whole *grids* of such trials as numpy array
programs -- the third engine tier behind
:func:`~repro.core.theorem41.plant_backlog` /
:func:`~repro.core.theorem41.probe_backlog_cost` /
:func:`~repro.core.theorem41.run_dichotomy`, following Pachl's CFSM
abstraction of non-FIFO channels as multisets over a finite value
space:

* per-trial scalars (state ids, Definition-2 counters, quotas, phase
  flags) become int64/int32 columns, one row per trial;
* the insertion-ordered active-copy map of the batch engine becomes
  rank-stamped count columns: each hoarded copy is logged as
  ``(trial, copy id, value id, send index)`` and per-value hoard
  quotas are a ``(trials, values)`` count matrix;
* the flood/deliver rounds are masked gathers over the shared
  :class:`~repro.core.vectrials._TableMirror` transition tables, with
  finished trials masked out of the alive index vector;
* the final configurations materialise through
  ``CompiledSender.materialise_state`` /
  ``CompiledReceiver.materialise_state`` into live systems
  indistinguishable from the batch and interpreted tiers -- same
  station states, same channel bags (copy ids, values, send indices,
  insertion order), same counters, distinct-packet sets and reserve
  pools, same error messages on the same trials.

Unlike the Theorem 5.1 trial engine, pumping draws **no coins** (the
optimal channel is deterministic), so there is no MT19937 machinery
here and the gate (:func:`pump_unsupported_reason`) checks only numpy
and table-compilability.  Results are bit-identical by construction
and pinned field-for-field by ``tests/core/test_vecpump.py``.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Callable, List, Optional, Sequence, Tuple

from repro.channels.packets import TransitCopy
from repro.core.pumping import ReservePool
from repro.core.vectrials import _TableMirror, _numpy
from repro.ioa.compile import (
    CompiledPair,
    table_compilable_receiver,
    table_compilable_sender,
)
from repro.ioa.execution import TraceMode

#: Below this many trials the auto tier keeps the batch engine: the
#: array dispatch overhead beats the Python loop only at grid scale.
PUMP_MIN_TRIALS = 16

#: Per-trial settings, defaulted exactly like ``plant_backlog_batch``.
PUMP_TRIAL_DEFAULTS = dict(
    message="m",
    max_messages=4096,
    max_steps_per_message=50_000,
    discovery_messages=8,
)
PUMP_TRIAL_KEYS = frozenset({"backlog", *PUMP_TRIAL_DEFAULTS})

_UNREADY_ERROR = (
    "pump_message needs the sender to be ready; deliver the "
    "outstanding message first"
)
_DISCOVERY_ERROR = "protocol failed to deliver during backlog discovery"


def pump_unsupported_reason(
    pair_factory: Callable[[], Tuple],
) -> Optional[str]:
    """Why the vector pumping engine cannot run this pair, or ``None``.

    Pumping is deterministic (no channel coins), so unlike the trial
    engine there is no RNG-stream condition: the gate is numpy plus a
    fully table-compilable pair (the oracle-reading flooding stations
    fail the latter and stay on the batch tier).
    """
    if _numpy() is None:
        return "numpy is not installed (the repro[perf] extra)"
    sender, receiver = pair_factory()
    if not table_compilable_sender(sender):
        return (
            f"{type(sender).__name__} is not table-compilable "
            "(overridden plumbing or oracle reads)"
        )
    if not table_compilable_receiver(receiver):
        return (
            f"{type(receiver).__name__} is not table-compilable "
            "(overridden plumbing or oracle reads)"
        )
    return None


def pump_supported(pair_factory: Callable[[], Tuple]) -> bool:
    """Whether the vector pumping engine is exact for this pair."""
    return pump_unsupported_reason(pair_factory) is None


class VectorPumpEngine(_TableMirror):
    """Run grids of backlog-planting trials as numpy array programs.

    One engine shares one :class:`~repro.ioa.compile.CompiledPair`
    (one value-id space, one set of table mirrors) across every trial
    of every :meth:`plant` call.  Raises :class:`ValueError` at
    construction when numpy is absent or the pair is not fully
    table-compilable -- callers wanting a soft fallback gate first
    (:func:`pump_supported`).
    """

    def __init__(
        self,
        pair_factory: Callable[[], Tuple],
        pair: Optional[CompiledPair] = None,
    ) -> None:
        if _numpy() is None:
            raise ValueError(
                "the vector pumping engine needs numpy (install the "
                "repro[perf] extra)"
            )
        super().__init__(pair_factory, pair)

    # ------------------------------------------------------------------
    # per-plant state columns
    # ------------------------------------------------------------------
    def _init_columns(self, merged: Sequence[dict]) -> None:
        np = self._np
        n = len(merged)
        i64 = np.int64
        self.n = n
        # grid parameters
        self.mvid = np.array(
            [self.values.intern(t["message"]) for t in merged], dtype=i64
        )
        self.backlog = np.array([t["backlog"] for t in merged], dtype=i64)
        self.max_messages = np.array(
            [t["max_messages"] for t in merged], dtype=i64
        )
        self.max_steps = np.array(
            [t["max_steps_per_message"] for t in merged], dtype=i64
        )
        self.disc_left = np.array(
            [t["discovery_messages"] for t in merged], dtype=i64
        )
        # station cursors
        self.scur = np.full(n, self.snd.initial, dtype=np.int32)
        self.rcur = np.full(n, self.rcv.initial, dtype=np.int32)
        # Definition-2 counters
        self.length = np.zeros(n, dtype=i64)
        self.sm = np.zeros(n, dtype=i64)
        self.rm = np.zeros(n, dtype=i64)
        self.sp_t2r = np.zeros(n, dtype=i64)
        self.sp_r2t = np.zeros(n, dtype=i64)
        self.rp_t2r = np.zeros(n, dtype=i64)
        self.rp_r2t = np.zeros(n, dtype=i64)
        self.last_t2r = np.full(n, -1, dtype=i64)
        self.last_r2t = np.full(n, -1, dtype=i64)
        # message-loop bookkeeping
        self.goal = np.zeros(n, dtype=i64)
        self.steps_in_msg = np.zeros(n, dtype=i64)
        self.messages_spent = np.zeros(n, dtype=i64)
        # hoarding quotas (garbage until the phase transition)
        self.phase2 = np.zeros(n, dtype=bool)
        self.per_value = np.zeros(n, dtype=i64)
        self.target = np.zeros(n, dtype=i64)
        self.reserved_total = np.zeros(n, dtype=i64)
        self.k_t2r = np.zeros(n, dtype=i64)
        # distinct-value tracking and per-value hoard counts; columns
        # grow with the value intern space
        width = max(len(self.values), 1)
        self.seen_t2r = np.zeros((n, width), dtype=bool)
        self.seen_r2t = np.zeros((n, width), dtype=bool)
        self.pool_counts = np.zeros((n, width), dtype=i64)
        # the reverse bag: controls queued at the end of one step,
        # drained at the start of the next (or left in transit at
        # retirement -- they are the final r2t channel contents)
        self.pend_vid = np.zeros((n, 1), dtype=i64)
        self.pend_cid = np.zeros((n, 1), dtype=i64)
        self.pend_at = np.zeros((n, 1), dtype=i64)
        self.pend_n = np.zeros(n, dtype=i64)
        # the hoard log: per-step chunks of (trial, cid, vid, at_index)
        self._hoard_log: List[Tuple] = []
        self.errors: List[Optional[str]] = [None] * n
        self.active = np.ones(n, dtype=bool)

    def _ensure_width(self) -> None:
        """Grow the value-indexed matrices to the intern space."""
        need = len(self.values)
        width = self.seen_t2r.shape[1]
        if need > width:
            width = max(need, 2 * width)
            self.seen_t2r = self._grown(self.seen_t2r, self.n, width, fill=0)
            self.seen_r2t = self._grown(self.seen_r2t, self.n, width, fill=0)
            self.pool_counts = self._grown(
                self.pool_counts, self.n, width, fill=0
            )

    def _ensure_pend_depth(self, min_depth: int) -> None:
        depth = self.pend_vid.shape[1]
        if min_depth > depth:
            depth = max(min_depth, 2 * depth)
            self.pend_vid = self._grown(self.pend_vid, self.n, depth, fill=0)
            self.pend_cid = self._grown(self.pend_cid, self.n, depth, fill=0)
            self.pend_at = self._grown(self.pend_at, self.n, depth, fill=0)

    # ------------------------------------------------------------------
    # the message-boundary logic (phase transition, retirement, the
    # next accept_message) -- the vectorized transcription of the
    # phase-1/phase-2 driver loops of ``plant_backlog_batch``
    # ------------------------------------------------------------------
    def _fail(self, idx) -> None:
        """An undelivered message: spend it, record the phase's error,
        retire the trial (the sequential engine raises here; the grid
        raises the first recorded error at materialisation)."""
        self.messages_spent[idx] += 1
        for i in idx.tolist():
            if self.phase2[i]:
                self.errors[i] = (
                    f"backlog pumping starved the protocol after "
                    f"{int(self.messages_spent[i])} messages with pool "
                    f"{int(self.reserved_total[i])}"
                )
            else:
                self.errors[i] = _DISCOVERY_ERROR
        self.active[idx] = False

    def _at_boundary(self, idx, check_ready: bool = False) -> None:
        """Trials between messages: transition the ones that finished
        discovery, retire the satisfied (or message-budget-exhausted)
        phase-2 ones, accept the next message for the rest."""
        np = self._np
        p1 = idx[~self.phase2[idx]]
        trans = p1[self.disc_left[p1] <= 0]
        if trans.size:
            k = np.maximum(self.k_t2r[trans], 1)
            self.per_value[trans] = np.maximum(self.backlog[trans] // k, 1)
            self.target[trans] = self.per_value[trans] * k
            self.phase2[trans] = True
        p2 = idx[self.phase2[idx]]
        retire = p2[
            (self.reserved_total[p2] >= self.target[p2])
            | (self.messages_spent[p2] >= self.max_messages[p2])
        ]
        self.active[retire] = False
        cont = idx[self.active[idx]]
        if cont.size == 0:
            return
        if check_ready:
            # Only the very first pump_message can find the sender
            # unready (later boundaries imply readiness).
            ready = self._ready(self.scur[cont])
            bad = cont[~ready]
            if bad.size:
                for i in bad.tolist():
                    self.errors[i] = _UNREADY_ERROR
                self.active[bad] = False
                cont = cont[ready]
                if cont.size == 0:
                    return
        self.length[cont] += 1
        self.sm[cont] += 1
        self.scur[cont] = self._sender2(
            "s_msg", self.scur[cont], self.mvid[cont], self.snd.resolve_msg
        )
        self.goal[cont] = self.rm[cont] + 1
        self.steps_in_msg[cont] = 0
        # A non-positive step budget fails the message before its
        # first step, exactly like the sequential while-loop guard.
        zero = cont[self.max_steps[cont] <= 0]
        if zero.size:
            self._fail(zero)

    # ------------------------------------------------------------------
    # one lockstep pumping step over every alive trial
    # ------------------------------------------------------------------
    def _super_step(self, a) -> None:
        np = self._np
        # -- sender: offer, send (stamping copy id and send index),
        #    commit.  The distinct set is tracked as a seen matrix --
        #    equivalent to the batch engine's last-value guard because
        #    set insertion is idempotent.
        offers = self.s_out[self.scur[a]]
        smask = offers >= 0
        si = a[smask]
        di = si[:0]
        if si.size:
            svid = offers[smask].astype(np.int64)
            self._ensure_width()
            acid = self.sp_t2r[si].copy()
            aat = self.length[si].copy()
            self.length[si] += 1
            self.sp_t2r[si] += 1
            newly = ~self.seen_t2r[si, svid]
            if newly.any():
                self.seen_t2r[si[newly], svid[newly]] = True
                self.k_t2r[si[newly]] += 1
            self.last_t2r[si] = svid
            self.scur[si] = self._commit(self.scur[si])
            # -- forward bag: hoard up to the per-value quota, deliver
            #    the rest (the rank-stamped replacement for the batch
            #    engine's insertion-ordered active-copy sweep; at most
            #    one live copy per trial per step, so the hoard log
            #    stays chronological per trial by construction)
            hoard = (
                self.phase2[si]
                & (self.reserved_total[si] < self.target[si])
                & (self.pool_counts[si, svid] < self.per_value[si])
            )
            h = si[hoard]
            if h.size:
                hvid = svid[hoard]
                self._hoard_log.append((h, acid[hoard], hvid, aat[hoard]))
                self.pool_counts[h, hvid] += 1
                self.reserved_total[h] += 1
            di = si[~hoard]
            if di.size:
                dvid = svid[~hoard]
                self.length[di] += 1
                self.rp_t2r[di] += 1
                rnext, ndeliv, nout, outs = self._accept(self.rcur[di], dvid)
                self.rcur[di] = rnext
        # -- reverse bag: drain the controls queued at the previous
        #    step's end, in send order (sequential over the burst
        #    position, vectorized over trials)
        pend = a[self.pend_n[a] > 0]
        if pend.size:
            counts = self.pend_n[pend]
            for j in range(int(counts.max())):
                m = pend[counts > j]
                self.length[m] += 1
                self.rp_r2t[m] += 1
                self.scur[m] = self._sender2(
                    "s_rcv", self.scur[m], self.pend_vid[m, j],
                    self.snd.resolve_rcv,
                )
            self.pend_n[pend] = 0
        # -- receiver pump: pop every queued delivery, then send every
        #    queued control into the reverse bag (stamping copy id and
        #    send index)
        if di.size:
            ndeliv64 = ndeliv.astype(np.int64)
            self.rm[di] += ndeliv64
            self.length[di] += ndeliv64
            self._ensure_width()
            burst = int(nout.max()) if nout.size else 0
            if burst:
                self._ensure_pend_depth(burst)
                for j in range(burst):
                    emask = nout > j
                    e = di[emask]
                    pvid = outs[emask, j].astype(np.int64)
                    self.pend_vid[e, j] = pvid
                    self.pend_cid[e, j] = self.sp_r2t[e]
                    self.pend_at[e, j] = self.length[e]
                    self.length[e] += 1
                    self.sp_r2t[e] += 1
                    fresh = ~self.seen_r2t[e, pvid]
                    if fresh.any():
                        self.seen_r2t[e[fresh], pvid[fresh]] = True
                    self.last_r2t[e] = pvid
            self.pend_n[di] = nout.astype(np.int64)
        self.steps_in_msg[a] += 1

    # ------------------------------------------------------------------
    # the grid loop
    # ------------------------------------------------------------------
    def plant(self, trials: Sequence[dict]) -> List[Tuple]:
        """Plant one backlog per trial; ``(system, pool,
        messages_spent)`` triples in input order, bit-identical to
        :func:`~repro.core.trials.plant_backlog_batch` trial for trial.

        ``trials`` is a sequence of per-trial keyword dicts --
        ``backlog`` (required) / ``message`` / ``max_messages`` /
        ``max_steps_per_message`` / ``discovery_messages``.  Where the
        sequential engines raise (discovery failure, starvation, an
        unready sender), the grid raises the same error for the
        lowest-index failing trial, matching a sequential sweep.
        """
        np = self._np
        merged = []
        for trial in trials:
            t = {**PUMP_TRIAL_DEFAULTS, **trial}
            unknown = set(t) - PUMP_TRIAL_KEYS
            if unknown:
                raise TypeError(
                    "vector pumping engine got unsupported trial "
                    f"settings: {sorted(unknown)}"
                )
            if "backlog" not in t:
                raise TypeError("each pumping trial needs a 'backlog'")
            merged.append(t)
        if not merged:
            return []
        self._sync_sender()
        self._sync_receiver()
        self._init_columns(merged)
        self._ensure_width()

        self._at_boundary(np.flatnonzero(self.active), check_ready=True)
        while True:
            alive = np.flatnonzero(self.active)
            if alive.size == 0:
                break
            self._super_step(alive)
            # message boundaries: the sequential loop re-tests
            # ``rm >= goal and snd_ready()`` before every step and
            # gives delivery precedence over step exhaustion
            a = np.flatnonzero(self.active)
            over = self.rm[a] >= self.goal[a]
            done_mask = np.zeros(a.size, dtype=bool)
            if over.any():
                cand = np.flatnonzero(over)
                done_mask[cand] = self._ready(self.scur[a[cand]])
            fail_mask = ~done_mask & (self.steps_in_msg[a] >= self.max_steps[a])
            done = a[done_mask]
            if done.size:
                self.messages_spent[done] += 1
                self.disc_left[done[~self.phase2[done]]] -= 1
            failed = a[fail_mask]
            if failed.size:
                self._fail(failed)
            if done.size:
                self._at_boundary(done[self.active[done]])
        return self._materialise()

    # ------------------------------------------------------------------
    # materialisation: SoA columns -> live systems
    # ------------------------------------------------------------------
    def _materialise(self) -> List[Tuple]:
        from repro.datalink.system import make_system

        np = self._np
        for error in self.errors:
            if error is not None:
                raise RuntimeError(error)
        vals = self.values.values
        if self._hoard_log:
            ht = np.concatenate([c[0] for c in self._hoard_log])
            order = np.argsort(ht, kind="stable")
            ht = ht[order]
            hc = np.concatenate([c[1] for c in self._hoard_log])[order]
            hv = np.concatenate([c[2] for c in self._hoard_log])[order]
            ha = np.concatenate([c[3] for c in self._hoard_log])[order]
            offsets = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum(np.bincount(ht, minlength=self.n), out=offsets[1:])
        else:
            hc = hv = ha = np.zeros(0, dtype=np.int64)
            offsets = np.zeros(self.n + 1, dtype=np.int64)

        # Per-copy and per-trial columns as Python lists up front: one
        # C-loop conversion each, instead of a numpy-scalar box per
        # element inside the build loops below (the loops dominate the
        # whole engine at grid scale -- the array program itself is
        # two orders of magnitude cheaper).
        hc_l, hv_l, ha_l = hc.tolist(), hv.tolist(), ha.tolist()
        off_l = offsets.tolist()
        scur_l, rcur_l = self.scur.tolist(), self.rcur.tolist()
        sm_l, rm_l = self.sm.tolist(), self.rm.tolist()
        sp_t2r_l, sp_r2t_l = self.sp_t2r.tolist(), self.sp_r2t.tolist()
        rp_t2r_l, rp_r2t_l = self.rp_t2r.tolist(), self.rp_r2t.tolist()
        last_t2r_l = self.last_t2r.tolist()
        last_r2t_l = self.last_r2t.tolist()
        length_l = self.length.tolist()
        spent_l = self.messages_spent.tolist()
        pend_n_l = self.pend_n.tolist()

        results = []
        for i in range(self.n):
            sender = self.snd.materialise_state(scur_l[i], sp_t2r_l[i])
            receiver = self.rcv.materialise_state(rcur_l[i], rm_l[i])
            system = make_system(
                sender, receiver, trace_mode=TraceMode.COUNTS
            )
            lo, hi = off_l[i], off_l[i + 1]
            cids = hc_l[lo:hi]
            # dict(zip(..., map(...))) keeps the half-million-copy
            # build in C loops; a Python for-loop here costs more than
            # the whole array program.
            system.chan_t2r._in_transit = dict(
                zip(cids, map(
                    TransitCopy,
                    cids,
                    map(vals.__getitem__, hv_l[lo:hi]),
                    ha_l[lo:hi],
                ))
            )
            system.chan_t2r._sent_total = sp_t2r_l[i]
            system.chan_t2r._delivered_total = rp_t2r_l[i]
            system.chan_t2r._copy_ids = itertools.count(sp_t2r_l[i])
            system.chan_r2t._in_transit = {
                int(self.pend_cid[i, j]): TransitCopy(
                    int(self.pend_cid[i, j]),
                    vals[int(self.pend_vid[i, j])],
                    int(self.pend_at[i, j]),
                )
                for j in range(pend_n_l[i])
            }
            system.chan_r2t._sent_total = sp_r2t_l[i]
            system.chan_r2t._delivered_total = rp_r2t_l[i]
            system.chan_r2t._copy_ids = itertools.count(sp_r2t_l[i])
            counts = system.execution._counts
            counts.sm = sm_l[i]
            counts.rm = rm_l[i]
            counts.sp_t2r = sp_t2r_l[i]
            counts.sp_r2t = sp_r2t_l[i]
            counts.rp_t2r = rp_t2r_l[i]
            counts.rp_r2t = rp_r2t_l[i]
            counts.distinct_t2r = {
                vals[int(v)] for v in np.flatnonzero(self.seen_t2r[i])
            }
            counts.distinct_r2t = {
                vals[int(v)] for v in np.flatnonzero(self.seen_r2t[i])
            }
            if last_t2r_l[i] >= 0:
                counts._last_sent_t2r = vals[last_t2r_l[i]]
            if last_r2t_l[i] >= 0:
                counts._last_sent_r2t = vals[last_r2t_l[i]]
            system.execution.length = length_l[i]
            # Bulk-build the pool: ``reserve`` per copy would hash the
            # packet value half a million times on a wide grid.
            # Counting value *ids* first (int hashing, C loop) and
            # mapping to packets afterwards preserves the Counter's
            # first-hoard key order exactly.
            pool = ReservePool()
            pool.reserved_ids.update(cids)
            for vid, count in Counter(hv_l[lo:hi]).items():
                pool.counts[vals[vid]] = count
            results.append((system, pool, spent_l[i]))
        return results


def plant_backlog_vector(
    pair_factory: Callable[[], Tuple],
    trials: Sequence[dict],
    pair: Optional[CompiledPair] = None,
) -> List[Tuple]:
    """One-shot grid entry point (fresh engine per call)."""
    return VectorPumpEngine(pair_factory, pair).plant(trials)
