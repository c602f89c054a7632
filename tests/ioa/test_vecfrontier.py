"""Equivalence and gating for the vectorized frontier BFS tier.

:mod:`repro.ioa.vecfrontier` runs the level-synchronous exploration
(and the checker BFS built on it) as numpy array programs.  Like the
trial-engine tiers (``tests/core/test_vectrials.py``) it is an
*engine tier*, not a model change: every observable must be
bit-identical to the interpreted reference.  This suite pins

* the equivalence matrix -- vector == interpreted over stock station
  pairs (including pairs whose stations do *not* table-compile: the
  frontier kernel interns transitions discovered by the reference
  search, so it has no per-station gate), on state sets, ``k_t``/
  ``k_r``, configuration counts, truncation and packet values, under
  hypothesis-randomized budgets;
* the checker equivalence -- verdicts, counts, levels and
  counterexample fingerprints agree across tiers for every stock
  property, with a completeness guard so a new property class cannot
  ship without a ``vector_scannable`` verdict;
* the vector-tier perf counters (``perf["engine"]["frontier"]``) and
  their None/0 discipline;
* the strict/soft gate split -- ``engine="vector"`` raises with the
  refusal reason, ``engine="auto"`` silently falls back (including
  when numpy is absent, simulated by poisoning the lazy import);
* mid-search demotion -- a narrow-field overflow reruns the search on
  the interpreted tier with identical results and an annotated
  ``perf`` entry.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checker import check_protocol, make_property
from repro.checker.properties import Property, STOCK_PROPERTIES
from repro.datalink.alternating_bit import make_alternating_bit
from repro.datalink.broken import EagerReceiver
from repro.datalink.flooding import make_capacity_flooding
from repro.datalink.gobackn import make_gobackn
from repro.datalink.sequence import SequenceSender, make_sequence_protocol
from repro.datalink.sequence_mod import make_modular_sequence
from repro.ioa import vecfrontier
from repro.ioa.exploration import explore_station_states
from repro.ioa.exploration_parallel import (
    explore_station_states_parallel,
    resolve_engine_tier,
)
from repro.ioa.vecfrontier import (
    FrontierDemotedError,
    frontier_unsupported_reason,
    numpy_available,
)

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy not installed (repro[perf])"
)

# ---------------------------------------------------------------------------
# the coverage matrix
# ---------------------------------------------------------------------------

#: The frontier tier has no per-station gate (the kernel interns the
#: transitions the reference search discovers), so *every* pair here
#: must satisfy the equivalence property -- including ``gobackn``,
#: whose stations the trial-engine vector gate refuses.
PAIR_FACTORIES = {
    "alternating_bit": make_alternating_bit,
    "capacity_flood": lambda: make_capacity_flooding(2, 1),
    "eager": lambda: (SequenceSender(), EagerReceiver()),
    "gobackn": lambda: make_gobackn(3),
    "modular_sequence": make_modular_sequence,
    "sequence": make_sequence_protocol,
}

PAIR_CASES = sorted(PAIR_FACTORIES.items())

#: Stock checker properties by vectorized-classifier verdict.  A new
#: property class must join one of the two sets (completeness guard
#: below, mirroring ``tests/core/test_vectrials.py``).
SCANNABLE = {"type-ok", "header-bound", "dl1-forgery"}
UNSCANNABLE = set()


def all_subclasses(base):
    found, frontier = set(), [base]
    while frontier:
        cls = frontier.pop()
        for sub in cls.__subclasses__():
            if sub not in found:
                found.add(sub)
                frontier.append(sub)
    return {cls for cls in found if cls.__module__.startswith("repro.")}


def test_every_stock_property_has_a_scan_verdict():
    """A new property class must declare ``vector_scannable`` and join
    the matrix here (mirrors the trial-engine completeness guard)."""
    assert SCANNABLE | UNSCANNABLE == set(STOCK_PROPERTIES)
    assert not SCANNABLE & UNSCANNABLE
    library = {cls.name for cls in all_subclasses(Property)}
    assert library <= SCANNABLE | UNSCANNABLE
    for name in sorted(SCANNABLE):
        assert make_property(name).vector_scannable is True, name
    for name in sorted(UNSCANNABLE):
        assert make_property(name).vector_scannable is False, name


@needs_numpy
def test_gate_accepts_scannable_properties():
    for name in sorted(SCANNABLE):
        assert frontier_unsupported_reason(prop=make_property(name)) is None


# ---------------------------------------------------------------------------
# the exploration equivalence property
# ---------------------------------------------------------------------------


def _observables(result):
    return (
        result.sender_states,
        result.receiver_states,
        result.pair_count,
        result.configurations,
        result.truncated,
        result.packet_values,
    )


@needs_numpy
@pytest.mark.parametrize(
    "name, factory", PAIR_CASES, ids=[n for n, _ in PAIR_CASES]
)
@given(
    max_messages=st.integers(min_value=1, max_value=2),
    alphabet=st.sampled_from([["m"], ["a", "b"]]),
    budget=st.sampled_from([40, 20_000]),
)
@settings(max_examples=4, deadline=None)
def test_vector_matches_interpreted(
    name, factory, max_messages, alphabet, budget
):
    """Both tiers of the level-synchronous engine agree on every
    observable -- state sets, counts, truncation, packet values --
    whether the budget cuts the search or not."""
    runs = {}
    for tier in ("vector", "interpreted"):
        sender, receiver = factory()
        runs[tier] = explore_station_states_parallel(
            sender,
            receiver,
            alphabet,
            max_messages=max_messages,
            max_configurations=budget,
            workers=1,
            engine=tier,
        )
    assert _observables(runs["vector"]) == _observables(runs["interpreted"])
    frontier = runs["vector"].perf["engine"]["frontier"]
    assert frontier["tier"] in ("vector", "interpreted")  # demotion is legal
    assert runs["interpreted"].perf["engine"]["frontier"] == {
        "tier": "interpreted"
    }


@needs_numpy
def test_vector_matches_the_serial_kernel_when_complete():
    """A completed search is tier- *and* engine-structure-invariant:
    the vector tier reproduces the serial FIFO kernel exactly."""
    sender, receiver = make_alternating_bit()
    serial = explore_station_states(sender, receiver, ["m"], max_messages=2)
    sender, receiver = make_alternating_bit()
    vector = explore_station_states(
        sender, receiver, ["m"], max_messages=2, engine="vector"
    )
    assert not serial.truncated and not vector.truncated
    assert _observables(serial) == _observables(vector)


@needs_numpy
def test_vector_matches_across_shard_counts():
    sender, receiver = make_capacity_flooding(2, 1)
    one = explore_station_states_parallel(
        sender, receiver, ["m"], max_messages=2, workers=1, engine="vector"
    )
    sender, receiver = make_capacity_flooding(2, 1)
    three = explore_station_states_parallel(
        sender, receiver, ["m"], max_messages=2, workers=3,
        use_processes=False, engine="vector",
    )
    assert _observables(one) == _observables(three)


# ---------------------------------------------------------------------------
# the checker equivalence property
# ---------------------------------------------------------------------------

CHECK_CASES = [
    ("type-ok", make_sequence_protocol, dict(max_messages=2, capacity=2)),
    ("dl1-forgery", make_sequence_protocol, dict(max_messages=2)),
    (
        "dl1-forgery",
        lambda: (SequenceSender(), EagerReceiver()),
        dict(max_messages=2),
    ),
    ("header-bound=2", make_alternating_bit, dict(max_messages=3)),
    ("header-bound=2", make_sequence_protocol, dict(max_messages=3)),
    # Go-Back-N's cumulative acks overflow the capacity on deliveries,
    # not only on sender outputs.
    ("type-ok", lambda: make_gobackn(3), dict(max_messages=2, capacity=2)),
]


@needs_numpy
@pytest.mark.parametrize(
    "spec, factory, kwargs",
    CHECK_CASES,
    ids=[f"{spec}-{i}" for i, (spec, _, _) in enumerate(CHECK_CASES)],
)
def test_checker_tiers_agree(spec, factory, kwargs):
    results = {}
    for tier in ("vector", "interpreted"):
        sender, receiver = factory()
        results[tier] = check_protocol(
            sender, receiver, ["m"], spec, engine=tier, **kwargs
        )
    vec, ref = results["vector"], results["interpreted"]
    assert vec.verdict == ref.verdict
    assert vec.stats["configurations"] == ref.stats["configurations"]
    assert vec.stats["levels"] == ref.stats["levels"]
    assert vec.stats["hits"] == ref.stats["hits"]
    if ref.counterexample is None:
        assert vec.counterexample is None
    else:
        assert (vec.counterexample.fingerprint()
                == ref.counterexample.fingerprint())


# ---------------------------------------------------------------------------
# perf counters
# ---------------------------------------------------------------------------


@needs_numpy
def test_narrow_levels_count_as_fallback_expansions():
    """A near-chain search never reaches the wide threshold: the
    counters report scalar work honestly (zero batches, zero
    generated, ratio 0.0 -- the None/0 discipline)."""
    sender, receiver = make_alternating_bit()
    result = explore_station_states_parallel(
        sender, receiver, ["m"], max_messages=2, workers=1, engine="vector"
    )
    frontier = result.perf["engine"]["frontier"]
    assert frontier["tier"] == "vector"
    assert frontier["wide"] is False
    assert frontier["frontier_batches"] == 0
    assert frontier["generated_successors"] == 0
    assert frontier["unique_ratio"] == 0.0
    assert frontier["fallback_expansions"] == result.configurations


@needs_numpy
def test_vector_perf_counters_report_wide_work(monkeypatch):
    monkeypatch.setattr(vecfrontier, "FRONTIER_WIDE_THRESHOLD", 4)
    sender, receiver = make_capacity_flooding(2, 1)
    result = explore_station_states_parallel(
        sender, receiver, ["a", "b"], max_messages=2,
        max_configurations=3_000, workers=1, engine="vector",
    )
    frontier = result.perf["engine"]["frontier"]
    assert frontier["tier"] == "vector"
    assert frontier["wide"] is True
    assert frontier["frontier_batches"] > 0
    assert frontier["generated_successors"] >= frontier["unique_new"] > 0
    assert 0.0 < frontier["unique_ratio"] <= 1.0
    sender, receiver = make_capacity_flooding(2, 1)
    reference = explore_station_states_parallel(
        sender, receiver, ["a", "b"], max_messages=2,
        max_configurations=3_000, workers=1, engine="interpreted",
    )
    assert _observables(result) == _observables(reference)


@needs_numpy
def test_checker_vector_perf_counters_are_reported(monkeypatch):
    monkeypatch.setattr(vecfrontier, "FRONTIER_WIDE_THRESHOLD", 4)
    kwargs = dict(max_messages=2, max_configurations=5_000)
    sender, receiver = make_capacity_flooding(2, 2)
    result = check_protocol(
        sender, receiver, ["a", "b"], "type-ok", engine="vector", **kwargs
    )
    frontier = result.stats["engine"]["frontier"]
    assert frontier["tier"] == "vector"
    assert frontier["wide"] is True
    assert frontier["frontier_batches"] > 0
    sender, receiver = make_capacity_flooding(2, 2)
    reference = check_protocol(
        sender, receiver, ["a", "b"], "type-ok", engine="interpreted",
        **kwargs,
    )
    assert result.verdict == reference.verdict
    assert result.stats["configurations"] == reference.stats["configurations"]
    assert result.stats["levels"] == reference.stats["levels"]


# ---------------------------------------------------------------------------
# the strict/soft gate
# ---------------------------------------------------------------------------


@needs_numpy
def test_strict_gate_refuses_parent_tracking():
    sender, receiver = SequenceSender(), EagerReceiver()
    with pytest.raises(ValueError, match="parent tracking"):
        check_protocol(
            sender, receiver, ["m"], "dl1-forgery", trace="inline",
            engine="vector",
        )


@needs_numpy
def test_strict_gate_refuses_unscannable_properties():
    class Opaque(Property):
        name = "opaque"
        kind = "invariant"

        def bind(self, ctx):  # pragma: no cover - never scanned
            return lambda batch: []

    with pytest.raises(ValueError, match="vector_scannable"):
        resolve_engine_tier("vector", prop=Opaque())
    assert resolve_engine_tier("auto", prop=Opaque()) == "interpreted"


@needs_numpy
def test_auto_falls_back_for_inline_traces():
    """trace='inline' needs parent tracking; auto silently drops to
    the interpreted tier and still reconstructs the same path."""
    sender, receiver = SequenceSender(), EagerReceiver()
    inline = check_protocol(
        sender, receiver, ["m"], "dl1-forgery", trace="inline",
        engine="auto",
    )
    assert inline.stats["engine"]["frontier"]["tier"] == "interpreted"
    sender, receiver = SequenceSender(), EagerReceiver()
    vector = check_protocol(
        sender, receiver, ["m"], "dl1-forgery", trace="off",
        engine="vector",
    )
    assert inline.verdict == vector.verdict == "violated"


def test_engine_name_validation():
    sender, receiver = make_sequence_protocol()
    with pytest.raises(ValueError, match="engine"):
        explore_station_states(sender, receiver, ["m"], engine="simd")
    with pytest.raises(ValueError, match="engine"):
        resolve_engine_tier("simd")


def test_numpy_absence_degrades_softly(monkeypatch):
    """With the lazy numpy import poisoned, auto falls back silently,
    strict selection raises, and results still match the reference."""
    monkeypatch.setattr(vecfrontier, "_numpy_module", False)
    assert not numpy_available()
    reason = frontier_unsupported_reason()
    assert reason is not None and "numpy" in reason
    sender, receiver = make_capacity_flooding(2, 1)
    with pytest.raises(ValueError, match="numpy"):
        explore_station_states(
            sender, receiver, ["m"], max_messages=2, engine="vector"
        )
    sender, receiver = make_capacity_flooding(2, 1)
    auto = explore_station_states(
        sender, receiver, ["m"], max_messages=2, engine="auto"
    )
    sender, receiver = make_capacity_flooding(2, 1)
    reference = explore_station_states(
        sender, receiver, ["m"], max_messages=2, engine="interpreted"
    )
    assert _observables(auto) == _observables(reference)


# ---------------------------------------------------------------------------
# demotion
# ---------------------------------------------------------------------------


@needs_numpy
def test_demotion_reruns_on_the_interpreted_tier(monkeypatch):
    """A narrow-field overflow anywhere in the run restarts the whole
    search interpreted: identical observables, annotated perf."""

    def overflow(self):
        raise FrontierDemotedError("forced overflow (test)")

    monkeypatch.setattr(vecfrontier.FrontierKernel, "guard", overflow)
    sender, receiver = make_capacity_flooding(2, 1)
    demoted = explore_station_states_parallel(
        sender, receiver, ["m"], max_messages=2, workers=1, engine="vector"
    )
    frontier = demoted.perf["engine"]["frontier"]
    assert frontier["tier"] == "interpreted"
    assert "forced overflow" in frontier["demoted"]
    sender, receiver = make_capacity_flooding(2, 1)
    reference = explore_station_states_parallel(
        sender, receiver, ["m"], max_messages=2, workers=1,
        engine="interpreted",
    )
    assert _observables(demoted) == _observables(reference)


@needs_numpy
def test_checker_demotion_reruns_on_the_interpreted_tier(monkeypatch):
    def overflow(self):
        raise FrontierDemotedError("forced overflow (test)")

    monkeypatch.setattr(vecfrontier.FrontierKernel, "guard", overflow)
    sender, receiver = SequenceSender(), EagerReceiver()
    demoted = check_protocol(
        sender, receiver, ["m"], "dl1-forgery", engine="vector"
    )
    frontier = demoted.stats["engine"]["frontier"]
    assert frontier["tier"] == "interpreted"
    assert "forced overflow" in frontier["demoted"]
    monkeypatch.undo()
    sender, receiver = SequenceSender(), EagerReceiver()
    reference = check_protocol(
        sender, receiver, ["m"], "dl1-forgery", engine="interpreted"
    )
    assert demoted.verdict == reference.verdict
    assert (demoted.counterexample.fingerprint()
            == reference.counterexample.fingerprint())
