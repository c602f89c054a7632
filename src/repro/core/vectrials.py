"""Vectorized struct-of-arrays trial engine for Theorem 5.1 sweeps.

The batch engine of :mod:`repro.core.trials` already reduced a
probabilistic trial to integer table lookups, but it still advances
one trial at a time through a Python loop.  This module runs a whole
*batch* of trials in lockstep as numpy array programs:

* **struct of arrays** -- every per-trial scalar of the batch engine
  (sender/receiver state id, the Definition-2 counters, the pending
  flag and per-message goal, the step and packet budgets) becomes one
  array indexed by trial; a "channel bag" collapses to the counter
  pair ``sent - received`` because under ``TricklePolicy.NEVER``
  nothing else about the delayed pool is observable;
* **masked table gathers** -- each engine step advances every live
  trial with a handful of fancy-indexing passes over the compiled
  transition tables (``table[state_vec, input_vec]``), exported by
  :func:`repro.ioa.compile.export_sender_arrays` /
  ``export_receiver_arrays`` and mirrored as contiguous int32
  ndarrays (state and value ids are interning indices, far below
  2**31).  A gather that hits an undiscovered ``(state, input)`` slot
  resolves it scalar-side through the kernels' ``resolve_*`` methods
  and patches the mirror cell -- lazy table growth survives
  vectorization;
* **bit-identical coins** -- the q-coin streams are themselves a
  struct-of-arrays program: one ``(trials, 624)`` MT19937 state
  matrix per channel, seeded by a vectorized transcription of
  CPython's ``init_by_array`` and advanced by a vectorized twist, so
  each trial's coins are the exact ``random.Random(seed)`` /
  ``Random(seed + 1)`` sequences the scalar engines draw, consumed in
  the same per-trial order (:class:`_CoinColumn`);
* **masking discipline** -- finished trials drop out of the ``alive``
  index vector (budget-exhausted trials retire through the scalar
  engine's exact post-loop completion check); all array work happens
  on the compacted alive set, so a batch with one straggler costs
  per-step work proportional to the stragglers, not the batch.

Bit-identity with the batch engine (and hence with the interpreted
engine) is the contract: same :class:`~repro.core.theorem51.
ProbabilisticRunResult` field for field, for every trial, because the
per-step decision order of the scalar loop -- at most one sender
burst send, one forward delivery, the receiver macro-accept's
deliveries then control sends in pop order, then the reverse
deliveries in send order -- is reproduced exactly, stream for stream.

The support gate (:func:`vector_unsupported_reason`) refuses anything
outside that envelope: numpy missing (it is the optional
``repro[perf]`` extra), a numpy whose MT19937 stream stops matching
CPython's (checked at runtime, memoized), a station pair that is not
fully table-compilable (Go-Back-N/window senders, oracle-mode
flooding), or a configuration outside the batch-engine envelope.
Auto engine selection falls back to the batch engine, then the
interpreted engine -- exactly the PR 5 tiering.
"""

from __future__ import annotations

import random
import sys
from typing import Callable, List, Optional, Sequence, Tuple

from repro.channels.probabilistic import TricklePolicy
from repro.core.trials import probabilistic_batch_supported
from repro.ioa.compile import (
    CompiledPair,
    export_receiver_arrays,
    export_sender_arrays,
    table_compilable_receiver,
    table_compilable_sender,
)
from repro.ioa.execution import TraceMode
from repro.ioa.sinks import ExecutionSink

#: Below this many trials the auto tier stays on the batch engine:
#: array-op dispatch overhead beats the Python loop only once a batch
#: amortises it.
VECTOR_MIN_TRIALS = 16

#: ``packet_budget=None`` sentinel (budgets are compared with ``>=``).
_NO_BUDGET = 2**62

_TRIAL_DEFAULTS = {
    "seed": 0,
    "message": "m",
    "max_steps": 2_000_000,
    "packet_budget": None,
}
_TRIAL_KEYS = frozenset(("q", "n", *_TRIAL_DEFAULTS))

_numpy_module = None  # resolved lazily; False = import failed


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


# ---------------------------------------------------------------------------
# struct-of-arrays MT19937: CPython's random.Random, many streams at once
# ---------------------------------------------------------------------------

_MT_N = 624
_MT_U = 0x80000000
_MT_L = 0x7FFFFFFF
_MT_MAG = 0x9908B0DF

#: Doubles per twist: each ``random()`` consumes two 32-bit outputs,
#: and seeding always leaves the word index at 624, so positions stay
#: word-pair aligned and one twist yields exactly 312 coins.
_COINS_PER_TWIST = _MT_N // 2

#: Which uint32 half of a buffered coin pair holds the low 32 bits of
#: its uint64 view: the pair is stored so the view reads as
#: ``(a << 32) | b`` on either endianness.
_B_SLOT = 0 if sys.byteorder == "little" else 1
_A_SLOT = 1 - _B_SLOT

_mt_base_state = None  # init_genrand(19650218), shared by every seed


def _seed_key(seed: int) -> Tuple[int, ...]:
    """CPython ``random_seed``'s key: the absolute value's 32-bit
    little-endian digits (a single zero word for seed 0)."""
    v = abs(int(seed))
    if v == 0:
        return (0,)
    words = []
    while v:
        words.append(v & 0xFFFFFFFF)
        v >>= 32
    return tuple(words)


def _mt_base(np):
    global _mt_base_state
    if _mt_base_state is None:
        mt = [19650218]
        for i in range(1, _MT_N):
            prev = mt[i - 1]
            mt.append((1812433253 * (prev ^ (prev >> 30)) + i) & 0xFFFFFFFF)
        _mt_base_state = np.array(mt, dtype=np.uint32)
    return _mt_base_state


def _seed_groups(np, seeds: Sequence[int]):
    """Trials grouped by seed-key length: ``{klen: (rows, keymatrix)}``
    with ``rows`` an index array and ``keymatrix`` ``(len(rows), klen)``
    uint32.  The common case -- every seed in ``[0, 2**64)`` -- is
    vectorized; negative or wider seeds fall back to per-seed digits.
    """
    try:
        arr = np.array(seeds, dtype=np.uint64)
    except (OverflowError, TypeError):
        arr = None
    groups: dict = {}
    if arr is not None and arr.shape == (len(seeds),):
        lo = (arr & np.uint64(0xFFFFFFFF)).astype(np.uint32)
        hi = (arr >> np.uint64(32)).astype(np.uint32)
        wide = hi != 0
        narrow_rows = np.flatnonzero(~wide)
        wide_rows = np.flatnonzero(wide)
        if narrow_rows.size:
            groups[1] = (narrow_rows, lo[narrow_rows][:, None])
        if wide_rows.size:
            groups[2] = (
                wide_rows,
                np.stack([lo[wide_rows], hi[wide_rows]], axis=1),
            )
        return groups
    buckets: dict = {}
    for row, seed in enumerate(seeds):
        key = _seed_key(seed)
        rows, keys = buckets.setdefault(len(key), ([], []))
        rows.append(row)
        keys.append(key)
    for klen, (rows, keys) in buckets.items():
        groups[klen] = (
            np.array(rows, dtype=np.int64),
            np.array(keys, dtype=np.uint32),
        )
    return groups


def _init_states(np, seeds: Sequence[int]):
    """A ``(trials, 624)`` uint32 state matrix holding, per trial, the
    exact MT19937 state of ``random.Random(seed)``.

    CPython's ``init_by_array`` seeding is sequential in the word
    index but independent across streams, so the two reference loops
    run here in lockstep over all trials of a group -- one in-place
    batch-wide uint32 op per reference-loop line (unsigned arithmetic
    wraps mod 2**32 for free).  Trials are grouped by seed-key length
    so the key cursor ``j`` stays a Python scalar; every
    64-bit-or-less seed lands in one of two groups.
    """
    out = np.empty((len(seeds), _MT_N), dtype=np.uint32)
    for klen, (rows, kmat) in _seed_groups(np, seeds).items():
        # (624, trials) during seeding so the word rows are contiguous.
        mt = np.repeat(_mt_base(np)[:, None], len(rows), axis=1)
        kj = [kmat[:, j] + np.uint32(j) for j in range(klen)]
        tmp = np.empty(len(rows), dtype=np.uint32)
        i, j = 1, 0
        for _ in range(max(_MT_N, klen)):
            prev = mt[i - 1]
            np.right_shift(prev, np.uint32(30), out=tmp)
            tmp ^= prev
            tmp *= np.uint32(1664525)
            row = mt[i]
            row ^= tmp
            row += kj[j]
            i += 1
            j += 1
            if i >= _MT_N:
                mt[0] = mt[_MT_N - 1]
                i = 1
            if j >= klen:
                j = 0
        for _ in range(_MT_N - 1):
            prev = mt[i - 1]
            np.right_shift(prev, np.uint32(30), out=tmp)
            tmp ^= prev
            tmp *= np.uint32(1566083941)
            row = mt[i]
            row ^= tmp
            row -= np.uint32(i)
            i += 1
            if i >= _MT_N:
                mt[0] = mt[_MT_N - 1]
                i = 1
        mt[0] = np.uint32(_MT_U)
        out[rows] = mt.T
    return out


class _CoinColumn:
    """Per-trial q-coin streams as one struct-of-arrays twister.

    Coins come out in per-trial stream order, bit-identical to what
    ``random.Random(seed)`` (forward channel) / ``random.Random(seed
    + 1)`` (reverse channel) would produce at the same point of the
    same trial.  A refill runs one MT19937 twist for every exhausted
    row at once -- the in-place lag-397 recurrence resolves into
    three chained lag-227 vector hops -- then tempers and buffers
    word pairs as 312 coins per row.

    A coin is the integer 53-bit numerator ``c = a * 2**26 + b`` of
    CPython's ``random()`` recipe ``c * 2**-53``: the float is ``c``
    scaled by an exact power of two, so ``coin >= q`` is exactly
    ``c >= ceil(ldexp(q, 53))`` (see :func:`_q_threshold`) and the
    float conversion never needs to happen.  The buffer keeps the
    27/26-bit halves as native-endian uint32 pairs ordered so that a
    uint64 *view* of the pair is ``(a << 32) | b`` -- numerically
    different from ``c`` but ordered identically (lexicographic in
    ``(a, b)`` either way), so the whole threshold test is one
    unsigned 64-bit compare against the same-packed threshold, and
    the refill never pays a join pass.
    """

    __slots__ = ("_np", "_mt", "_buf", "_buf64", "_pos", "_scr", "_uniform")

    def __init__(self, np, states) -> None:
        self._np = np
        self._mt = states
        rows = states.shape[0]
        # Scalar fast-path flag: positions are known uniform until a
        # subset draw breaks lockstep (draw_all_ge then re-verifies
        # and may restore it).
        self._uniform = True
        self._buf = np.empty((rows, _COINS_PER_TWIST, 2), dtype=np.uint32)
        self._buf64 = self._buf.view(np.uint64).reshape(
            rows, _COINS_PER_TWIST
        )
        self._pos = np.full(rows, _COINS_PER_TWIST, dtype=np.int32)
        # Preallocated refill scratch (fresh 20 MiB allocations per
        # twist would re-pay page faults every refill): gathered
        # state, recurrence words, temper words and staging buffer.
        self._scr = (
            np.empty((rows, _MT_N), dtype=np.uint32),
            np.empty((rows, _MT_N - 1), dtype=np.uint32),
            np.empty((rows, _MT_N - 1), dtype=np.uint32),
            np.empty((rows, _MT_N), dtype=np.uint32),
            np.empty((rows, _MT_N), dtype=np.uint32),
        )

    def _refill(self, rows) -> None:
        np = self._np
        k = rows.size
        full = k == self._mt.shape[0]
        scr_m, scr_y, scr_t, scr_x, scr_t2 = self._scr
        # The twist rewrites the state strictly left to right and each
        # vector hop reads only not-yet-overwritten (or already-new)
        # words, so the full-batch case runs in place on the state
        # matrix; a partial refill works on a gathered copy.
        if full:
            m = self._mt
        else:
            m = scr_m[:k]
            np.take(self._mt, rows, axis=0, out=m)
        y = scr_y[:k]
        t = scr_t[:k]
        np.bitwise_and(m[:, :623], np.uint32(_MT_U), out=y)
        np.bitwise_and(m[:, 1:], np.uint32(_MT_L), out=t)
        y |= t
        np.bitwise_and(y, np.uint32(1), out=t)
        t *= np.uint32(_MT_MAG)
        y >>= np.uint32(1)
        y ^= t
        np.bitwise_xor(m[:, 397:], y[:, :227], out=m[:, :227])
        np.bitwise_xor(m[:, :227], y[:, 227:454], out=m[:, 227:454])
        np.bitwise_xor(m[:, 227:396], y[:, 454:623], out=m[:, 454:623])
        y_last = (m[:, 623] & np.uint32(_MT_U)) | (m[:, 0] & np.uint32(_MT_L))
        m[:, 623] = (
            m[:, 396] ^ (y_last >> 1) ^ ((y_last & 1) * np.uint32(_MT_MAG))
        )
        if not full:
            self._mt[rows] = m
        x = scr_x[:k]
        t2 = scr_t2[:k]
        np.right_shift(m, np.uint32(11), out=x)
        x ^= m
        np.left_shift(x, np.uint32(7), out=t2)
        t2 &= np.uint32(0x9D2C5680)
        x ^= t2
        np.left_shift(x, np.uint32(15), out=t2)
        t2 &= np.uint32(0xEFC60000)
        x ^= t2
        np.right_shift(x, np.uint32(18), out=t2)
        x ^= t2
        buf = self._buf if full else self._buf[rows]
        np.right_shift(x[:, 0::2], np.uint32(5), out=buf[:, :, _A_SLOT])
        np.right_shift(x[:, 1::2], np.uint32(6), out=buf[:, :, _B_SLOT])
        if full:
            self._pos.fill(0)
        else:
            self._buf[rows] = buf
            self._pos[rows] = 0

    def draw(self, idx):
        """One 53-bit coin numerator per trial in ``idx`` (distinct
        trial indices) -- the joined form, for the stream self-check;
        the engine itself only ever compares (:meth:`draw_ge`)."""
        np = self._np
        pos = self._pos
        pidx = pos[idx]
        need = idx[pidx >= _COINS_PER_TWIST]
        if need.size:
            self._refill(need)
            pidx = pos[idx]
        self._uniform = False
        packed = self._buf64[idx, pidx]
        pos[idx] = pidx + 1
        a = packed >> np.uint64(32)
        return (a << np.uint64(26)) | (packed & np.uint64(0xFFFFFFFF))

    def draw_ge(self, idx, threshold):
        """Per trial in ``idx``: does the next coin clear the packed
        threshold (a scalar or an aligned uint64 array, packed like
        the buffer -- see :func:`_q_threshold`)?  One boolean per
        trial, streams advanced."""
        pos = self._pos
        pidx = pos[idx]
        need = idx[pidx >= _COINS_PER_TWIST]
        if need.size:
            self._refill(need)
            pidx = pos[idx]
        self._uniform = False
        packed = self._buf64[idx, pidx]
        pos[idx] = pidx + 1
        return packed >= threshold

    def draw_all_ge(self, idx, threshold):
        """:meth:`draw_ge` for *every* trial (``idx`` is ``arange``).

        While a batch advances in lockstep the stream positions stay
        uniform, so the gather collapses to one buffer column and the
        cursor bump to a whole-array increment."""
        pos = self._pos
        p = int(pos[0])
        if self._uniform or bool((pos == p).all()):
            self._uniform = True
            if p >= _COINS_PER_TWIST:
                self._refill(idx)
                p = 0
            win = self._buf64[:, p] >= threshold
            pos += 1
            return win
        return self.draw_ge(idx, threshold)


#: Single-slot cache of the last batch's freshly seeded state matrix.
#: Sweeps re-run the same seed grid per q value (and benchmarks
#: repeat it verbatim), and seeding -- a 1247-iteration reference
#: loop -- is the one batch cost that is a pure function of the
#: seeds, so a hit replaces it with one matrix copy.
_seed_cache: Optional[Tuple[Tuple[int, ...], object, object]] = None


def _make_coin_columns(np, seeds: Sequence[int]):
    """The forward/reverse coin columns for a trial batch -- streams
    ``Random(seed)`` and ``Random(seed + 1)``.

    Both columns seed in a single :func:`_init_states` pass (seeding
    cost is per reference-loop iteration, not per stream) over the
    *distinct* seeds only: a contiguous seed sweep shares almost every
    state between ``seed + 1`` of one trial and ``seed`` of the next.
    """
    global _seed_cache
    key = tuple(seeds)
    cached = _seed_cache
    if cached is not None and cached[0] == key:
        inv = cached[1]
        states = cached[2].copy()
    else:
        both = list(seeds) + [seed + 1 for seed in seeds]
        index: dict = {}
        uniq = []
        inv = np.empty(len(both), dtype=np.int64)
        for k, seed in enumerate(both):
            j = index.get(seed)
            if j is None:
                j = len(uniq)
                index[seed] = j
                uniq.append(seed)
            inv[k] = j
        states = _init_states(np, uniq)
        if len(uniq) == len(both):
            inv = None
        _seed_cache = (key, inv, states.copy())
    b = len(seeds)
    if inv is None:
        return _CoinColumn(np, states[:b]), _CoinColumn(np, states[b:])
    return (
        _CoinColumn(np, states[inv[:b]]),
        _CoinColumn(np, states[inv[b:]]),
    )


def _q_threshold(q: float) -> int:
    """The exact integer coin threshold of error probability ``q``,
    packed like the coin buffer: the 53-bit coin numerator
    ``c = a * 2**26 + b`` satisfies ``c * 2**-53 >= q`` iff
    ``c >= ceil(ldexp(q, 53))`` (``ldexp`` is exact for ``q`` in
    ``[0, 1)`` -- scaling by a power of two keeps the significand),
    and since ``(a << 32) | b`` orders exactly like ``(a << 26) | b``
    (both lexicographic in ``(a, b)``) the comparison carries over to
    the packed form unchanged."""
    import math

    c = math.ceil(math.ldexp(q, 53))
    return ((c >> 26) << 32) | (c & 0x3FFFFFF)


_stream_ok: Optional[bool] = None


def _stream_matches() -> bool:
    """Memoized self-check that the SoA twister reproduces CPython's
    ``random.Random`` streams bit for bit on this installation.

    Draws enough coins to cross two twist boundaries, over seed-key
    lengths 1 and 3.  If numpy semantics ever drift this degrades to
    a gate refusal (auto falls back to the batch engine) instead of
    silently non-identical results.
    """
    global _stream_ok
    if _stream_ok is None:
        np = _numpy()
        if np is None:
            return False
        seeds = (0, 1, 0xC0FFEE, 2**64 + 12345)
        column = _CoinColumn(np, _init_states(np, seeds))
        idx = np.arange(len(seeds))
        drawn = np.stack([column.draw(idx) for _ in range(650)], axis=1)
        floats = drawn * (1.0 / 9007199254740992.0)
        streams = [random.Random(seed) for seed in seeds]
        refs = [[stream.random() for _ in range(650)] for stream in streams]
        _stream_ok = floats.tolist() == refs
    return bool(_stream_ok)


def vector_unsupported_reason(
    pair_factory: Callable[[], Tuple],
    trickle: TricklePolicy = TricklePolicy.NEVER,
    trace_mode: TraceMode = TraceMode.COUNTS,
    sinks: Optional[Sequence[ExecutionSink]] = None,
) -> Optional[str]:
    """Why the vector engine cannot run this configuration, or ``None``
    when it can.

    The strict-gate twin of :func:`~repro.core.trials.
    probabilistic_batch_supported`: auto tiers silently skip the
    vector engine on any reason; ``engine="vector"`` raises with it.
    """
    if _numpy() is None:
        return "numpy is not installed (the repro[perf] extra)"
    if not _stream_matches():
        return (
            "this numpy's MT19937 stream does not reproduce "
            "random.Random, so results would not be bit-identical"
        )
    if not probabilistic_batch_supported(trickle, trace_mode, sinks):
        return (
            "the configuration is outside the batch-engine envelope "
            "(TricklePolicy.NEVER, TraceMode.COUNTS and fresh "
            "step-mark-declining MetricsSink observers only)"
        )
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


def vector_supported(
    pair_factory: Callable[[], Tuple],
    trickle: TricklePolicy = TricklePolicy.NEVER,
    trace_mode: TraceMode = TraceMode.COUNTS,
    sinks: Optional[Sequence[ExecutionSink]] = None,
) -> bool:
    """Whether the vector engine is exact for this configuration."""
    return (
        vector_unsupported_reason(pair_factory, trickle, trace_mode, sinks)
        is None
    )


def vector_trials_unsupported_reason(
    pair_factory: Callable[[], Tuple],
    trials: Sequence[dict],
    common: dict,
) -> Optional[str]:
    """Gate for a whole trial grid (the ``run_probabilistic_trials``
    auto tier): the pair gate plus per-trial setting checks."""
    reason = vector_unsupported_reason(pair_factory, sinks=common.get("sinks"))
    if reason is not None:
        return reason
    unknown = (set(common) - {"sinks"}).union(*map(set, trials), set()) - _TRIAL_KEYS
    if unknown:
        return f"unsupported trial settings: {sorted(unknown)}"
    if any("sinks" in trial for trial in trials):
        return "per-trial sinks are outside the vector envelope"
    return None


class _TableMirror:
    """Shared ndarray mirrors of one compiled pair's transition tables.

    The base of every struct-of-arrays engine (the Theorem 5.1 trial
    engine below, the Theorem 4.1 pumping engine in
    :mod:`repro.core.vecpump`): it owns the
    :class:`~repro.ioa.compile.CompiledPair`, the int32 table mirrors,
    the geometric capacity growth that follows the kernels' lazy state
    and value interning, and the masked gathers with scalar-side miss
    resolution.  Subclasses add the batch loop and its per-trial
    state; they must validate their own envelope (numpy presence, RNG
    stream, batch size) *before* calling ``__init__`` so refusal
    ordering stays theirs.
    """

    def __init__(
        self,
        pair_factory: Callable[[], Tuple],
        pair: Optional[CompiledPair] = None,
    ) -> None:
        np = _numpy()
        if np is None:
            raise ValueError(
                "struct-of-arrays engines need numpy (install the "
                "repro[perf] extra)"
            )
        self._np = np
        self.pair = pair if pair is not None else CompiledPair(pair_factory)
        self.snd, self.rcv = self.pair.table_kernels()
        self.values = self.pair.values

    # ------------------------------------------------------------------
    # ndarray table mirrors
    #
    # A full export is taken once per batch; after that every resolved
    # miss is patched into the mirrors cell by cell, with capacity
    # growing geometrically as the kernels intern new states and
    # values.  (Protocols like the sequence stations mint a fresh
    # state and value per sequence number, so a re-export per miss
    # would cost O(states x values) each -- quadratic in messages.)
    # ------------------------------------------------------------------
    def _sync_sender(self) -> None:
        np = self._np
        (
            self.s_ready,
            self.s_out,
            self.s_commit,
            self.s_msg,
            self.s_rcv,
        ) = (
            table.astype(np.int32)
            for table in export_sender_arrays(self.snd, len(self.values))
        )
        self._s_states = self.s_ready.shape[0]

    def _sync_receiver(self) -> None:
        np = self._np
        (
            self.r_next,
            self.r_ndeliv,
            self.r_nout,
            self.r_outs,
        ) = (
            table.astype(np.int32)
            for table in export_receiver_arrays(self.rcv, len(self.values))
        )
        self._refresh_burst()

    def _refresh_burst(self) -> None:
        """Recompute the uniform control-burst size: when every
        resolved receiver cell sends the same number of control
        packets (acknowledging receivers: always one), the step loop
        knows the gathered counts without reducing them.  Runs only at
        sync and after a miss resolution -- never on the step path."""
        bursts = self.r_nout[self.r_next >= 0]
        if bursts.size and bursts.min() == bursts.max():
            self._r_burst: Optional[int] = int(bursts[0])
        else:
            self._r_burst = None

    def _grown(self, table, rows: int, cols: Optional[int] = None, fill=-1):
        """A copy of ``table`` grown to ``rows`` (and ``cols`` for the
        leading two axes when given), new slots carrying ``fill``."""
        np = self._np
        shape = (rows,) + table.shape[1:]
        if cols is not None:
            shape = (rows, cols) + table.shape[2:]
        new = np.full(shape, fill, dtype=table.dtype)
        region = tuple(slice(0, extent) for extent in table.shape)
        new[region] = table
        return new

    def _grow_sender(self) -> None:
        """Mirror sender states interned since the last growth.  Rows
        stay lazily unknown except ``out``, which the kernel populates
        at intern time (it is never a miss)."""
        n0, n1 = self._s_states, self.snd.state_count
        if n1 == n0:
            return
        cap = self.s_ready.shape[0]
        if n1 > cap:
            cap = max(n1, 2 * cap)
            self.s_ready = self._grown(self.s_ready, cap)
            self.s_out = self._grown(self.s_out, cap)
            self.s_commit = self._grown(self.s_commit, cap)
            self.s_msg = self._grown(self.s_msg, cap)
            self.s_rcv = self._grown(self.s_rcv, cap)
        self.s_out[n0:n1] = self.snd.out_vid[n0:n1]
        self._s_states = n1

    def _ensure_sender_cols(self, min_cols: int) -> None:
        cols = self.s_msg.shape[1]
        if cols < min_cols:
            cols = max(min_cols, 2 * cols)
            self.s_msg = self._grown(self.s_msg, self.s_msg.shape[0], cols)
            self.s_rcv = self._grown(self.s_rcv, self.s_rcv.shape[0], cols)

    def _grow_receiver(self, min_cols: int, min_depth: int) -> None:
        """Ensure receiver-mirror capacity: rows for every interned
        state, ``min_cols`` value columns, ``min_depth`` control-burst
        depth.  All slots stay lazily unknown until patched."""
        rows, cols = self.r_next.shape
        depth = self.r_outs.shape[2]
        need_rows = self.rcv.state_count
        if need_rows > rows:
            rows = max(need_rows, 2 * rows)
        if min_cols > cols:
            cols = max(min_cols, 2 * cols)
        if (rows, cols) != self.r_next.shape:
            self.r_next = self._grown(self.r_next, rows, cols)
            self.r_ndeliv = self._grown(self.r_ndeliv, rows, cols)
            self.r_nout = self._grown(self.r_nout, rows, cols)
            self.r_outs = self._grown(self.r_outs, rows, cols, fill=0)
        if min_depth > depth:
            np = self._np
            grown = np.zeros((rows, cols, min_depth), dtype=self.r_outs.dtype)
            grown[:, :, :depth] = self.r_outs
            self.r_outs = grown

    # ------------------------------------------------------------------
    # masked gathers with scalar miss resolution
    # ------------------------------------------------------------------
    def _ready(self, states):
        """Readiness bits for a state vector (boolean array)."""
        bits = self.s_ready[states]
        if bits.size and bits.min() < 0:
            s_ready = self.s_ready
            resolve = self.snd.resolve_ready
            for sid in sorted({int(s) for s in states[bits < 0]}):
                s_ready[sid] = resolve(sid)
            bits = s_ready[states]
        return bits == 1

    def _commit(self, states):
        """Commit successors for a state vector."""
        nxt = self.s_commit[states]
        if nxt.size and nxt.min() < 0:
            resolve = self.snd.resolve_commit
            resolved = [
                (sid, resolve(sid))
                for sid in sorted({int(s) for s in states[nxt < 0]})
            ]
            self._grow_sender()
            for sid, nxt_sid in resolved:
                self.s_commit[sid] = nxt_sid
            nxt = self.s_commit[states]
        return nxt

    def _sender2(self, table_name, states, vids, resolve):
        """2-D sender gather (``s_msg`` / ``s_rcv``) with miss repair.

        Value ids can outrun the mirror's width (new packets intern
        new ids), so out-of-range columns are treated as misses --
        detected by the gather's own bounds check, which costs nothing
        on the hot in-range path; all states are always in range
        because every resolution is followed by a capacity growth.
        """
        np = self._np
        table = getattr(self, table_name)
        try:
            nxt = table[states, vids]
        except IndexError:
            ok = vids < table.shape[1]
            nxt = np.full(states.shape, -1, dtype=np.int32)
            nxt[ok] = table[states[ok], vids[ok]]
        if nxt.size and nxt.min() < 0:
            miss = nxt < 0
            resolved = [
                (sid, vid, resolve(sid, vid))
                for sid, vid in sorted(
                    {(int(s), int(v)) for s, v in zip(states[miss], vids[miss])}
                )
            ]
            self._grow_sender()
            self._ensure_sender_cols(len(self.values))
            table = getattr(self, table_name)
            for sid, vid, nxt_sid in resolved:
                table[sid, vid] = nxt_sid
            nxt = table[states, vids]
        return nxt

    def _accept(self, states, vids):
        """Receiver macro-accept gather: ``(next states, delivery
        counts, control counts, control value ids)``."""
        np = self._np
        table = self.r_next
        try:
            nxt = table[states, vids]
        except IndexError:
            ok = vids < table.shape[1]
            nxt = np.full(states.shape, -1, dtype=np.int32)
            nxt[ok] = table[states[ok], vids[ok]]
        if nxt.size and nxt.min() < 0:
            miss = nxt < 0
            resolve = self.rcv.resolve_accept
            resolved = [
                (sid, vid) + resolve(sid, vid)
                for sid, vid in sorted(
                    {(int(s), int(v)) for s, v in zip(states[miss], vids[miss])}
                )
            ]
            self._grow_receiver(
                len(self.values),
                max(len(ops[1]) for _, _, _, ops in resolved),
            )
            for sid, vid, nxt_sid, ops in resolved:
                self.r_next[sid, vid] = nxt_sid
                self.r_ndeliv[sid, vid] = len(ops[0])
                burst = len(ops[1])
                self.r_nout[sid, vid] = burst
                if burst:
                    self.r_outs[sid, vid, :burst] = ops[1]
            self._refresh_burst()
            nxt = self.r_next[states, vids]
        ndeliv = self.r_ndeliv[states, vids]
        nout = self.r_nout[states, vids]
        outs = self.r_outs[states, vids]
        return nxt, ndeliv, nout, outs


class VectorTrialEngine(_TableMirror):
    """Run batches of probabilistic trials as numpy array programs.

    Shares one :class:`~repro.ioa.compile.CompiledPair` (and hence one
    value-id space and one set of transition tables) across every
    trial of every :meth:`run_trials` call; the ndarray table mirrors
    are re-exported whenever a gather resolves new ``(state, input)``
    slots.  Raises :class:`ValueError` at construction when the pair
    is not fully table-compilable or numpy is unusable -- callers
    wanting a soft fallback gate first (:func:`vector_supported`).

    Batches larger than ``max_batch`` trials run as consecutive
    sub-batches to bound memory (the dominant per-trial state is the
    two 624-word twister rows plus two 312-coin buffers, about 10 KiB).
    """

    def __init__(
        self,
        pair_factory: Callable[[], Tuple],
        pair: Optional[CompiledPair] = None,
        max_batch: int = 8192,
    ) -> None:
        np = _numpy()
        if np is None:
            raise ValueError(
                "the vector engine needs numpy (install the repro[perf] "
                "extra)"
            )
        if not _stream_matches():
            raise ValueError(
                "this numpy's MT19937 stream does not reproduce "
                "random.Random; the vector engine would not be "
                "bit-identical"
            )
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        super().__init__(pair_factory, pair)
        self.max_batch = max_batch

    # ------------------------------------------------------------------
    # the batch loop
    # ------------------------------------------------------------------
    def run_trials(self, trials: Sequence[dict], **common) -> List:
        """Run a grid of trials; one
        :class:`~repro.core.theorem51.ProbabilisticRunResult` per
        trial, in input order, bit-identical to the batch engine.

        ``trials`` is a sequence of per-trial keyword dicts (``q`` /
        ``n`` / ``seed`` / ``message`` / ``max_steps`` /
        ``packet_budget``), each merged over ``common``.  ``sinks``
        is accepted in ``common`` only; counter updates land once per
        sub-batch (sums and maxima -- the same final snapshot the
        batch engine's per-trial updates produce).
        """
        sinks = common.pop("sinks", None)
        base = {**_TRIAL_DEFAULTS, **common}
        superset = _TRIAL_KEYS.issuperset
        merged = []
        for trial in trials:
            t = {**base, **trial}
            if not superset(t):
                unknown = set(t) - _TRIAL_KEYS
                raise TypeError(
                    "vector engine got unsupported trial settings: "
                    f"{sorted(unknown)}"
                )
            if "q" not in t or "n" not in t:
                raise TypeError(
                    "each trial needs q and n (per trial or via common "
                    "keywords)"
                )
            if not 0.0 <= t["q"] < 1.0:
                raise ValueError(
                    f"error probability q={t['q']} must be in [0, 1)"
                )
            merged.append(t)
        results: List = []
        for start in range(0, len(merged), self.max_batch):
            results.extend(
                self._run_batch(merged[start : start + self.max_batch], sinks)
            )
        return results

    def _run_batch(self, trials: List[dict], sinks) -> List:
        from repro.core.theorem51 import ProbabilisticRunResult

        np = self._np
        snd = self.snd
        batch = len(trials)
        if batch == 0:
            return []
        intern = self.values.intern
        thresholds = [_q_threshold(t["q"]) for t in trials]
        max_steps = np.array([t["max_steps"] for t in trials], dtype=np.int64)
        budget = np.array(
            [
                _NO_BUDGET if t["packet_budget"] is None else t["packet_budget"]
                for t in trials
            ],
            dtype=np.int64,
        )
        mvid = np.array([intern(t["message"]) for t in trials], dtype=np.int32)
        seeds = [t["seed"] for t in trials]
        self._sync_sender()
        self._sync_receiver()

        t2r_coins, r2t_coins = _make_coin_columns(np, seeds)
        # Most sweeps batch per q value; a uniform batch compares every
        # packed coin against one scalar instead of gathering q per
        # trial.
        if all(thr == thresholds[0] for thr in thresholds):
            q_thr = np.uint64(thresholds[0])
            q_thr_arr = None
        else:
            q_thr = None
            q_thr_arr = np.array(thresholds, dtype=np.uint64)

        # The struct-of-arrays trial state: one slot per trial, int32
        # unless a counter bound could overflow it (counters never
        # exceed the step bound; sums of two stay under 2**31 when
        # each is under 2**30).  The event index ("length" in the
        # scalar engines) is not tracked: every event bumps exactly
        # one of the six Definition-2 counters, so it is their sum,
        # recovered at assembly time.
        cdt = (
            np.int32
            if int(max_steps.max(initial=0)) < 2**30
            and max(int(t["n"]) for t in trials) < 2**30
            else np.int64
        )
        n = np.array([t["n"] for t in trials], dtype=cdt)
        scur = np.full(batch, snd.initial, dtype=np.int32)
        rcur = np.full(batch, self.rcv.initial, dtype=np.int32)
        sm = np.zeros(batch, dtype=cdt)
        rm = np.zeros(batch, dtype=cdt)
        sp_t2r = np.zeros(batch, dtype=cdt)
        sp_r2t = np.zeros(batch, dtype=cdt)
        rp_t2r = np.zeros(batch, dtype=cdt)
        rp_r2t = np.zeros(batch, dtype=cdt)
        # Peak outstanding-packet watermarks feed *only* the attached
        # sinks (results recompute final backlogs from the live
        # counters), so a sink-less run skips the two per-step
        # maximum passes entirely.
        track_peaks = bool(sinks)
        peak_t2r = np.zeros(batch, dtype=cdt)
        peak_r2t = np.zeros(batch, dtype=cdt)
        steps_used = np.zeros(batch, dtype=np.int64)
        delivered = np.zeros(batch, dtype=cdt)
        pending = np.ones(batch, dtype=bool)
        goal = np.ones(batch, dtype=cdt)
        live = n > 0
        # Sweep batches vary only in the seed; when a bound is uniform
        # (or absent) across the batch the retirement test drops its
        # per-trial gather for a scalar compare.
        n_scalar = int(n[0]) if bool((n == n[0]).all()) else None
        ms_scalar = (
            int(max_steps[0])
            if bool((max_steps == max_steps[0]).all())
            else None
        )
        budget_off = bool((budget == _NO_BUDGET).all())
        # Completions are recorded as (trial, packet-total) event
        # arrays in firing order; per-trial cumulative lists reassemble
        # at the end with one stable argsort (chronological order per
        # trial is preserved by concatenation + stability).
        comp_rows: List = []
        comp_totals: List = []

        # Scalar loop controls.  All alive trials step in lockstep, so
        # one integer is every alive trial's step count; per-trial
        # ``steps_used`` is only written when a trial retires.  The
        # accept/complete fixpoint can only fire while some trial is
        # pending or at/over its delivery goal, both tracked without
        # touching arrays on the (dominant) steps where neither holds.
        step_no = 0
        alive = np.flatnonzero(live).astype(np.int32)
        num_pending = int(alive.size)
        maybe_complete = False
        deadline = int(max_steps[alive].min()) if alive.size else 0
        while alive.size:
            # Budget-exhausted trials retire first, through the scalar
            # engine's exact post-loop check: no message accept, one
            # completion test on the current state, then the outer
            # loop's unconditional stop.
            if step_no >= deadline:
                exhausted = max_steps[alive] <= step_no
                ex = alive[exhausted]
                done = ex[
                    (~pending[ex])
                    & (rm[ex] >= goal[ex])
                    & self._ready(scur[ex])
                ]
                if done.size:
                    delivered[done] += 1
                    comp_rows.append(done)
                    comp_totals.append(sp_t2r[done] + sp_r2t[done])
                steps_used[ex] = step_no
                num_pending -= int(pending[ex].sum())
                live[ex] = False
                alive = alive[~exhausted]
                if not alive.size:
                    break
                deadline = int(max_steps[alive].min())
            # Accept/complete boundary: a trial whose message was
            # delivered completes (possibly retiring on its budgets),
            # re-arms, and accepts the next message -- the scalar
            # per-message loop boundary, which crosses no engine step.
            # One fused pass suffices: completion requires readiness
            # and changes no sender state, so a continuing trial's
            # next accept fires under the very readiness that let it
            # complete, and its new goal (rm + 1) rules out a second
            # completion before the next step's deliveries.
            if num_pending or maybe_complete:
                if alive.size == batch:
                    overgoal = rm >= goal
                else:
                    overgoal = rm[alive] >= goal[alive]
                if num_pending:
                    cand_mask = (
                        pending | overgoal
                        if alive.size == batch
                        else pending[alive] | overgoal
                    )
                else:
                    # Nothing pending: candidates are exactly the
                    # over-goal trials and readiness alone decides.
                    cand_mask = overgoal
                if cand_mask.any():
                    cand = alive[cand_mask]
                    ready = self._ready(scur[cand])
                    if num_pending:
                        og_c = overgoal[cand_mask]
                        pend_c = pending[cand]
                        sel = pend_c & ready
                        if sel.any():
                            acc = cand[sel]
                            sm[acc] += 1
                            scur[acc] = self._sender2(
                                "s_msg", scur[acc], mvid[acc], snd.resolve_msg
                            )
                            pending[acc] = False
                            num_pending -= int(acc.size)
                            # The accept moved these senders;
                            # completion below must see the
                            # post-accept readiness.
                            ready[sel] = self._ready(scur[acc])
                            pend_c = pend_c & ~sel
                        comp_sel = (~pend_c) & og_c & ready
                        n_over = int(og_c.sum())
                    else:
                        comp_sel = ready
                        n_over = int(cand.size)
                    n_comp = 0
                    if comp_sel.any():
                        comp = cand[comp_sel]
                        n_comp = int(comp.size)
                        dlv = delivered[comp] + 1
                        delivered[comp] = dlv
                        totals = sp_t2r[comp] + sp_r2t[comp]
                        comp_rows.append(comp)
                        comp_totals.append(totals)
                        retire = dlv >= (
                            n_scalar if n_scalar is not None else n[comp]
                        )
                        if not budget_off:
                            retire |= totals >= budget[comp]
                        if ms_scalar is not None:
                            if step_no >= ms_scalar:
                                retire[:] = True
                        else:
                            retire |= max_steps[comp] <= step_no
                        cont = comp[~retire]
                        if cont.size:
                            goal[cont] = rm[cont] + 1
                            sm[cont] += 1
                            scur[cont] = self._sender2(
                                "s_msg",
                                scur[cont],
                                mvid[cont],
                                snd.resolve_msg,
                            )
                        dead = comp[retire]
                        if dead.size:
                            steps_used[dead] = step_no
                            live[dead] = False
                            alive = np.flatnonzero(live).astype(np.int32)
                            if not alive.size:
                                break
                            deadline = int(max_steps[alive].min())
                    # Over-goal trials blocked on readiness (or still
                    # pending) stay candidates for the next boundary.
                    maybe_complete = n_over > n_comp
                else:
                    maybe_complete = False
            # One lockstep engine step.  Scalar order per trial: burst
            # send (t2r coin at send time), forward delivery of a
            # lucky copy, the receiver macro-accept's deliveries then
            # control sends in pop order (r2t coins at send time),
            # then the lucky control copies back to the sender in send
            # order.  Peaks update after sends, before receives.
            a = alive
            if a.size == batch:
                offer = self.s_out[scur]
                if int(offer.min()) >= 0:
                    # Specialized lockstep step: no trial has retired
                    # and every sender transmits.  Per-trial gathers
                    # collapse to whole-array ops, bookkeeping runs as
                    # predicated streams (ufunc ``where=``) instead of
                    # gather/scatter pairs, and the receiver
                    # transition is gathered for *every* trial -- the
                    # unlucky lanes are discarded by the predicated
                    # merge, at worst resolving table cells a little
                    # early.
                    sp_t2r += 1
                    if track_peaks:
                        np.maximum(peak_t2r, sp_t2r - rp_t2r, out=peak_t2r)
                    scur = self._commit(scur)
                    lucky_mask = t2r_coins.draw_all_ge(
                        a, q_thr if q_thr is not None else q_thr_arr
                    )
                    rp_t2r += lucky_mask
                    rnext, ndeliv, nout, outs = self._accept(rcur, offer)
                    np.copyto(rcur, rnext, where=lucky_mask)
                    np.add(rm, ndeliv, out=rm, where=lucky_mask)
                    if not maybe_complete:
                        maybe_complete = bool(
                            ndeliv[lucky_mask].max(initial=0) > 0
                        )
                    # Every cell the accept gathered is resolved, so a
                    # uniform table burst pins the gathered counts
                    # without reducing them.
                    nmax = (
                        self._r_burst
                        if self._r_burst is not None
                        else int(nout.max())
                    )
                    if nmax == 1:
                        # The common shape (one control packet per
                        # accept, e.g. an acknowledgement): the send
                        # and its possible arrival inline -- receiver
                        # sends never read sender state, so with a
                        # single send per trial nothing can observe
                        # the arrival early.
                        emit = (
                            lucky_mask
                            if self._r_burst == 1 or int(nout.min()) == 1
                            else lucky_mask & (nout > 0)
                        )
                        np.add(sp_r2t, 1, out=sp_r2t, where=emit)
                        if track_peaks:
                            np.maximum(
                                peak_r2t,
                                sp_r2t - rp_r2t,
                                out=peak_r2t,
                                where=emit,
                            )
                        tj = np.flatnonzero(emit).astype(np.int32)
                        if tj.size:
                            win = r2t_coins.draw_ge(
                                tj,
                                q_thr
                                if q_thr is not None
                                else q_thr_arr[tj],
                            )
                            tjw = tj if bool(win.all()) else tj[win]
                            if tjw.size:
                                rp_r2t[tjw] += 1
                                scur[tjw] = self._sender2(
                                    "s_rcv",
                                    scur[tjw],
                                    outs[tjw, 0],
                                    snd.resolve_rcv,
                                )
                    elif nmax:
                        arrivals = []
                        for j in range(nmax):
                            emit = lucky_mask & (nout > j)
                            np.add(sp_r2t, 1, out=sp_r2t, where=emit)
                            if track_peaks:
                                np.maximum(
                                    peak_r2t,
                                    sp_r2t - rp_r2t,
                                    out=peak_r2t,
                                    where=emit,
                                )
                            tj = np.flatnonzero(emit).astype(np.int32)
                            if not tj.size:
                                continue
                            win = r2t_coins.draw_ge(
                                tj,
                                q_thr
                                if q_thr is not None
                                else q_thr_arr[tj],
                            )
                            tjw = tj if bool(win.all()) else tj[win]
                            if tjw.size:
                                arrivals.append((tjw, outs[tjw, j]))
                        for tj, vj in arrivals:
                            rp_r2t[tj] += 1
                            scur[tj] = self._sender2(
                                "s_rcv", scur[tj], vj, snd.resolve_rcv
                            )
                    step_no += 1
                    continue
                sending = offer >= 0
                si, svids = a[sending], offer[sending]
            else:
                offer = self.s_out[scur[a]]
                sending = offer >= 0
                if bool(sending.all()):
                    si, svids = a, offer
                else:
                    si, svids = a[sending], offer[sending]
            if si.size:
                sp = sp_t2r[si]
                sp += 1
                sp_t2r[si] = sp
                if track_peaks:
                    peak_t2r[si] = np.maximum(peak_t2r[si], sp - rp_t2r[si])
                scur[si] = self._commit(scur[si])
                lucky_mask = t2r_coins.draw_ge(
                    si, q_thr if q_thr is not None else q_thr_arr[si]
                )
                if lucky_mask.all():
                    lucky, lvid = si, svids
                else:
                    lucky, lvid = si[lucky_mask], svids[lucky_mask]
                if lucky.size:
                    rp_t2r[lucky] += 1
                    rnext, ndeliv, nout, outs = self._accept(
                        rcur[lucky], lvid
                    )
                    rcur[lucky] = rnext
                    rm[lucky] += ndeliv
                    if not maybe_complete and ndeliv.any():
                        maybe_complete = True
                    max_out = int(nout.max())
                    arrivals = []
                    for j in range(max_out):
                        emit = nout > j
                        if emit.all():
                            tj, vj = lucky, outs[:, j]
                        else:
                            tj, vj = lucky[emit], outs[emit, j]
                        spr = sp_r2t[tj]
                        spr += 1
                        sp_r2t[tj] = spr
                        if track_peaks:
                            peak_r2t[tj] = np.maximum(
                                peak_r2t[tj], spr - rp_r2t[tj]
                            )
                        win = r2t_coins.draw_ge(
                            tj, q_thr if q_thr is not None else q_thr_arr[tj]
                        )
                        if win.all():
                            arrivals.append((tj, vj))
                        elif win.any():
                            arrivals.append((tj[win], vj[win]))
                    for tj, vj in arrivals:
                        rp_r2t[tj] += 1
                        scur[tj] = self._sender2(
                            "s_rcv", scur[tj], vj, snd.resolve_rcv
                        )
            step_no += 1

        events = sm.astype(np.int64)
        for counter in (rm, sp_t2r, sp_r2t, rp_t2r, rp_r2t):
            events += counter
        # Reassemble per-trial cumulative-packet curves.  Each recorded
        # chunk holds every trial at most once, so replaying the chunks
        # in firing order and scattering each into its trial's next
        # free slot yields exactly what a stable sort by trial would --
        # grouped by trial, chronological within the group -- without
        # sorting; per-message costs are the within-segment
        # differences.
        offsets = np.zeros(batch + 1, dtype=np.int64)
        np.cumsum(delivered, out=offsets[1:])
        totals_sorted = np.empty(int(offsets[-1]), dtype=np.int64)
        if comp_rows:
            fill = offsets[:-1].copy()
            for rows_chunk, totals_chunk in zip(comp_rows, comp_totals):
                slots = fill[rows_chunk]
                totals_sorted[slots] = totals_chunk
                fill[rows_chunk] = slots + 1
        per_msg = totals_sorted.copy()
        if per_msg.size:
            per_msg[1:] -= totals_sorted[:-1]
            starts = offsets[:-1][delivered > 0]
            per_msg[starts] = totals_sorted[starts]
        totals_list = totals_sorted.tolist()
        per_msg_list = per_msg.tolist()
        bounds = offsets.tolist()
        delivered_list = delivered.tolist()
        backlog_list = (sp_t2r - rp_t2r).tolist()
        completed_list = (delivered >= n).tolist()
        steps_list = steps_used.tolist()
        events_list = events.tolist()
        results = []
        for i, t in enumerate(trials):
            lo, hi = bounds[i], bounds[i + 1]
            results.append(
                ProbabilisticRunResult(
                    q=t["q"],
                    n=t["n"],
                    delivered=delivered_list[i],
                    seed=t["seed"],
                    cumulative_packets=totals_list[lo:hi],
                    per_message_packets=per_msg_list[lo:hi],
                    final_backlog_t2r=backlog_list[i],
                    completed=completed_list[i],
                    steps=steps_list[i],
                    events_elided=events_list[i],
                )
            )
        for sink in sinks or ():
            sink.sent_t2r += int(sp_t2r.sum())
            sink.sent_r2t += int(sp_r2t.sum())
            sink.received_t2r += int(rp_t2r.sum())
            sink.received_r2t += int(rp_r2t.sum())
            sink.messages_sent += int(sm.sum())
            sink.messages_delivered += int(rm.sum())
            peak = int(peak_t2r.max())
            if peak > sink.peak_outstanding_t2r:
                sink.peak_outstanding_t2r = peak
            peak = int(peak_r2t.max())
            if peak > sink.peak_outstanding_r2t:
                sink.peak_outstanding_r2t = peak
        return results


def run_probabilistic_vector(
    pair_factory: Callable[[], Tuple],
    trials: Sequence[dict],
    pair: Optional[CompiledPair] = None,
    **common,
):
    """One-shot vector run over a fresh (or given) compiled pair.

    The strict entry point behind ``engine="vector"``: raises
    :class:`ValueError` / :class:`TypeError` when the configuration is
    outside the envelope (see :func:`vector_unsupported_reason`).
    """
    engine = VectorTrialEngine(pair_factory, pair=pair)
    return engine.run_trials(trials, **common)


class _VectorShardWorker:
    """Picklable :class:`~repro.runtime.bsp.ShardedPool` factory: each
    shard builds its own compiled pair and vector engine, then answers
    one round with its chunk's results."""

    def __init__(self, pair_factory, chunks, common) -> None:
        self.pair_factory = pair_factory
        self.chunks = chunks
        self.common = common

    def __call__(self, shard_index: int, num_shards: int):
        engine = VectorTrialEngine(self.pair_factory)
        chunk = self.chunks[shard_index]

        def handle(request):
            del request
            return engine.run_trials(chunk, **self.common)

        return handle


def run_probabilistic_trials_sharded(
    pair_factory: Callable[[], Tuple],
    trials: Sequence[dict],
    num_shards: Optional[int] = None,
    start_method: Optional[str] = None,
    **common,
):
    """Shard a large trial grid across a
    :class:`~repro.runtime.bsp.ShardedPool` of vector engines.

    The grid splits into contiguous chunks (one persistent process
    per chunk, each with its own compiled pair); results reassemble
    in input order and are identical to the in-process engine -- each
    trial's coin streams depend only on its own seed, never on its
    neighbours.  ``num_shards`` defaults to the CPU count, capped at
    8; one shard (or a tiny grid) runs in-process.  ``sinks`` cannot
    cross the process boundary and are refused.  Memory per shard is
    roughly ``(trials / shards) * 6 KiB`` of stream state (bounded by
    the engine's ``max_batch`` sub-batching).
    """
    import os

    trials = [dict(trial) for trial in trials]
    if common.get("sinks"):
        raise ValueError(
            "sinks cannot be attached across process shards; run "
            "in-process (VectorTrialEngine.run_trials) to observe a "
            "sharded-sized grid"
        )
    common.pop("sinks", None)
    if num_shards is None:
        num_shards = min(os.cpu_count() or 1, 8)
    num_shards = max(1, min(num_shards, len(trials)))
    if num_shards <= 1:
        return VectorTrialEngine(pair_factory).run_trials(trials, **common)
    from repro.runtime.bsp import ShardedPool

    bounds = [
        (len(trials) * i) // num_shards for i in range(num_shards + 1)
    ]
    chunks = [trials[bounds[i] : bounds[i + 1]] for i in range(num_shards)]
    factory = _VectorShardWorker(pair_factory, chunks, common)
    with ShardedPool(num_shards, factory, start_method=start_method) as pool:
        parts = pool.request_all(["run"] * num_shards)
    return [result for part in parts for result in part]
