"""Differential pins: the online spec monitor against the post-hoc oracle.

:class:`~repro.datalink.spec.SpecMonitorSink` decides (PL1), (DL1) and
(DL1)+(DL2) event by event; :func:`~repro.datalink.spec.check_execution`
decides them after the fact over a FULL trace and stays the oracle.
Every test here runs a monitor alongside a recorded execution and
compares the two reports field by field: the same violations (property,
event index, description) in the same order, and the same
``pending_messages``.

Three sources of executions:

* hand-built action sequences for each (PL1) failure, the
  ``initial_transit`` rules and the (DL1)/(DL2) failures, plus a
  hypothesis sweep over arbitrary action sequences;
* engine runs over station pairs x channels x adversaries, with an
  ``all_subclasses`` completeness guard in the style of the
  clone-fidelity and compile-equivalence matrices, so a new station,
  channel or adversary class cannot ship without joining the sweep;
* stopping monitors: a monitor built with ``stop_on_violation=True``
  holds exactly the oracle's earliest violation, and the run really
  halted there.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channels.adversary import (
    ChannelAdversary,
    DecisionKind,
    DelayAllAdversary,
    FairAdversary,
    HoldValuesAdversary,
    OptimalAdversary,
    OptimalFromNowAdversary,
    RandomAdversary,
    ScriptedAdversary,
)
from repro.channels.base import Channel, ChannelError
from repro.channels.bounded import BoundedReorderChannel
from repro.channels.faults import (
    DuplicateAttemptAdversary,
    FaultPhase,
    PartitionAdversary,
    PhasedAdversary,
    ReplayFloodAdversary,
)
from repro.channels.fifo import FifoChannel
from repro.channels.nonfifo import NonFifoChannel
from repro.channels.probabilistic import ProbabilisticChannel, TricklePolicy
from repro.channels.virtual_link import VirtualLinkChannel
from repro.datalink.alternating_bit import make_alternating_bit
from repro.datalink.broken import (
    BlackHoleReceiver,
    EagerReceiver,
    ForgetfulSender,
    SwapReceiver,
)
from repro.datalink.flooding import make_capacity_flooding, make_flooding
from repro.datalink.gobackn import make_gobackn
from repro.datalink.sequence import (
    SequenceReceiver,
    SequenceSender,
    make_sequence_protocol,
)
from repro.datalink.sequence_mod import make_modular_sequence
from repro.datalink.spec import (
    SpecMonitorSink,
    SpecViolationHalt,
    check_execution,
)
from repro.datalink.stations import ReceiverStation, SenderStation
from repro.datalink.system import DataLinkSystem, make_system
from repro.datalink.window import make_window_protocol
from repro.ioa.actions import (
    Direction,
    receive_msg,
    receive_pkt,
    send_msg,
    send_pkt,
)
from repro.ioa.execution import Execution, TraceMode

T2R, R2T = Direction.T2R, Direction.R2T


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def fields(report):
    """A report as comparable plain data, field by field."""
    return (
        [
            (v.property_name, v.event_index, v.description)
            for v in report.violations
        ],
        report.pending_messages,
    )


def earliest(report):
    """The oracle's first violation: lowest index, ties in report order
    (a receive_msg can break (DL1) and (DL1)+(DL2) at once)."""
    return min(report.violations, key=lambda v: v.event_index)


def assert_monitor_matches(actions, t2r=None, r2t=None):
    """Run every monitor flavour over ``actions`` against the oracle."""
    monitor = SpecMonitorSink(t2r, r2t)
    execution = Execution(sinks=[monitor])
    execution.extend(actions)
    oracle = check_execution(execution, t2r, r2t)
    assert fields(monitor.report()) == fields(oracle)

    # Same verdict without an event list.
    counts_monitor = SpecMonitorSink(t2r, r2t)
    Execution(trace_mode=TraceMode.COUNTS, sinks=[counts_monitor]).extend(
        actions
    )
    assert fields(counts_monitor.report()) == fields(oracle)

    # A stopping monitor halts at the oracle's earliest violation.
    stopping = SpecMonitorSink(t2r, r2t, stop_on_violation=True)
    stopped = Execution(trace_mode=TraceMode.COUNTS, sinks=[stopping])
    if oracle.ok:
        stopped.extend(actions)
        assert fields(stopping.report()) == fields(oracle)
        return oracle
    with pytest.raises(SpecViolationHalt) as halt:
        stopped.extend(actions)
    first = earliest(oracle)
    assert halt.value.violation == first
    assert stopping.report().violations == [first]
    assert len(stopped) == first.event_index + 1
    return oracle


# ---------------------------------------------------------------------------
# hand-built executions
# ---------------------------------------------------------------------------


class TestPL1Failures:
    def test_clean_exchange(self):
        report = assert_monitor_matches(
            [
                send_msg("m"),
                send_pkt(T2R, "p", copy_id=0),
                receive_pkt(T2R, "p", copy_id=0),
                receive_msg("m"),
            ]
        )
        assert report.valid

    def test_sent_twice_while_live(self):
        report = assert_monitor_matches(
            [send_pkt(T2R, "p", copy_id=0), send_pkt(T2R, "p", copy_id=0)]
        )
        assert "sent twice" in report.violations[0].description

    def test_sent_twice_after_receipt(self):
        report = assert_monitor_matches(
            [
                send_pkt(T2R, "p", copy_id=0),
                receive_pkt(T2R, "p", copy_id=0),
                send_pkt(T2R, "q", copy_id=0),
            ]
        )
        assert report.violations[0].event_index == 2

    def test_received_without_a_send(self):
        report = assert_monitor_matches([receive_pkt(R2T, "p", copy_id=3)])
        assert "without a live" in report.violations[0].description

    def test_received_twice(self):
        report = assert_monitor_matches(
            [
                send_pkt(T2R, "p", copy_id=0),
                receive_pkt(T2R, "p", copy_id=0),
                receive_pkt(T2R, "p", copy_id=0),
            ]
        )
        assert report.violations[0].event_index == 2

    def test_corruption(self):
        report = assert_monitor_matches(
            [send_pkt(T2R, "p", copy_id=0), receive_pkt(T2R, "q", copy_id=0)]
        )
        assert "corruption" in report.violations[0].description

    def test_only_the_first_violation_per_direction(self):
        report = assert_monitor_matches(
            [
                receive_pkt(T2R, "p", copy_id=0),
                receive_pkt(T2R, "p", copy_id=1),
                send_pkt(R2T, "a", copy_id=0),
                receive_pkt(R2T, "b", copy_id=0),
            ]
        )
        assert [v.event_index for v in report.violations] == [0, 3]

    def test_copies_without_ids_are_ignored(self):
        report = assert_monitor_matches(
            [send_pkt(T2R, "p"), receive_pkt(T2R, "q"), receive_pkt(T2R, "q")]
        )
        assert report.ok


class TestInitialTransit:
    def test_initial_copy_may_be_received(self):
        report = assert_monitor_matches(
            [receive_pkt(T2R, "old", copy_id=5)], t2r={5}
        )
        assert report.ok

    def test_initial_copy_cannot_be_sent_while_live(self):
        report = assert_monitor_matches(
            [send_pkt(T2R, "p", copy_id=5)], t2r={5}
        )
        assert not report.ok

    def test_received_initial_copy_id_may_be_sent_afresh(self):
        # It was never sent inside the recording, so the oracle treats
        # a later send of the same id as new -- and checks its value.
        report = assert_monitor_matches(
            [
                receive_pkt(T2R, "old", copy_id=5),
                send_pkt(T2R, "new", copy_id=5),
                receive_pkt(T2R, "bad", copy_id=5),
            ],
            t2r={5},
        )
        assert "corruption" in report.violations[0].description

    def test_initial_copy_received_twice(self):
        report = assert_monitor_matches(
            [
                receive_pkt(T2R, "old", copy_id=5),
                receive_pkt(T2R, "old", copy_id=5),
            ],
            t2r={5},
        )
        assert report.violations[0].event_index == 1

    def test_sets_are_per_direction(self):
        report = assert_monitor_matches(
            [
                receive_pkt(T2R, "x", copy_id=1),
                receive_pkt(R2T, "y", copy_id=1),
                receive_pkt(R2T, "z", copy_id=2),
            ],
            t2r={1},
            r2t={1},
        )
        assert [v.event_index for v in report.violations] == [2]


class TestDLFailures:
    def test_forgery(self):
        report = assert_monitor_matches([receive_msg("m")])
        assert [v.property_name for v in report.violations] == [
            "DL1",
            "DL1/DL2",
        ]

    def test_duplication(self):
        report = assert_monitor_matches(
            [send_msg("m"), receive_msg("m"), receive_msg("m")]
        )
        assert report.violations[0].event_index == 2

    def test_reordering_breaks_only_dl2(self):
        report = assert_monitor_matches(
            [send_msg("a"), send_msg("b"), receive_msg("b"), receive_msg("a")]
        )
        assert [v.property_name for v in report.violations] == ["DL1/DL2"]
        assert report.violations[0].event_index == 3

    def test_skipping_a_send_is_not_a_violation(self):
        report = assert_monitor_matches(
            [send_msg("a"), send_msg("b"), receive_msg("b")]
        )
        assert report.ok and report.pending_messages == 1

    def test_all_four_in_report_order(self):
        report = assert_monitor_matches(
            [
                receive_msg("x"),
                receive_pkt(R2T, "p", copy_id=0),
                receive_pkt(T2R, "p", copy_id=0),
            ]
        )
        assert [v.property_name for v in report.violations] == [
            "PL1",
            "PL1",
            "DL1",
            "DL1/DL2",
        ]
        assert [v.event_index for v in report.violations] == [2, 1, 0, 0]


# ---------------------------------------------------------------------------
# arbitrary action sequences
# ---------------------------------------------------------------------------

directions = st.sampled_from([T2R, R2T])
packets = st.sampled_from(["p", "q"])
copy_ids = st.one_of(st.none(), st.integers(0, 4))
messages = st.sampled_from(["a", "b", "c"])
actions = st.one_of(
    st.builds(send_pkt, directions, packets, copy_ids),
    st.builds(receive_pkt, directions, packets, copy_ids),
    st.builds(send_msg, messages),
    st.builds(receive_msg, messages),
)
initial_sets = st.one_of(st.none(), st.sets(st.integers(0, 4), max_size=3))


@settings(max_examples=300, deadline=None)
@given(
    sequence=st.lists(actions, max_size=24),
    t2r=initial_sets,
    r2t=initial_sets,
)
def test_arbitrary_sequences(sequence, t2r, r2t):
    assert_monitor_matches(sequence, t2r, r2t)


# ---------------------------------------------------------------------------
# engine runs: station pairs x channels x adversaries
# ---------------------------------------------------------------------------

PAIRS = {
    "flooding_oracle": lambda: make_flooding(1),
    "flooding_capacity": lambda: make_capacity_flooding(2, 3),
    "sequence": make_sequence_protocol,
    "alternating_bit": make_alternating_bit,
    "gobackn": lambda: make_gobackn(3),
    "modular_sequence": lambda: make_modular_sequence(2),
    "window": lambda: make_window_protocol(3),
    "black_hole": lambda: (SequenceSender(), BlackHoleReceiver()),
    "eager": lambda: (SequenceSender(), EagerReceiver()),
    "forgetful": lambda: (ForgetfulSender(), SequenceReceiver()),
    "swap": lambda: (SequenceSender(), SwapReceiver()),
}

CHANNELS = {
    FifoChannel: lambda d, rng: FifoChannel(d),
    NonFifoChannel: lambda d, rng: NonFifoChannel(d),
    BoundedReorderChannel: lambda d, rng: BoundedReorderChannel(d, 3),
    ProbabilisticChannel: lambda d, rng: ProbabilisticChannel(
        d, 0.4, rng=rng, trickle=TricklePolicy.UNIFORM,
        trickle_probability=0.2,
    ),
    VirtualLinkChannel: lambda d, rng: VirtualLinkChannel(
        d, hops=2, p_advance=0.5, rng=rng, p_loss=0.1
    ),
}

ADVERSARIES = {
    None: lambda seed: None,
    OptimalAdversary: lambda seed: OptimalAdversary(),
    OptimalFromNowAdversary: lambda seed: OptimalFromNowAdversary(
        {T2R: {0, 2}, R2T: {1}}
    ),
    DelayAllAdversary: lambda seed: DelayAllAdversary(),
    HoldValuesAdversary: lambda seed: HoldValuesAdversary(
        T2R, lambda packet: "1" in repr(packet)
    ),
    FairAdversary: lambda seed: FairAdversary(
        seed=seed, p_deliver=0.4, max_delay=5
    ),
    RandomAdversary: lambda seed: RandomAdversary(seed=seed),
    ScriptedAdversary: lambda seed: ScriptedAdversary(
        [[], [(DecisionKind.DELIVER, T2R, 0)], [(DecisionKind.DROP, R2T, 1)]]
    ),
    PhasedAdversary: lambda seed: PhasedAdversary(
        [
            FaultPhase(0, 6, DelayAllAdversary()),
            FaultPhase(6, 12, RandomAdversary(seed=seed)),
        ]
    ),
    PartitionAdversary: lambda seed: PartitionAdversary(4, 2),
    ReplayFloodAdversary: lambda seed: ReplayFloodAdversary(),
    DuplicateAttemptAdversary: lambda seed: DuplicateAttemptAdversary(),
}


def all_subclasses(base):
    found, frontier = set(), [base]
    while frontier:
        cls = frontier.pop()
        for sub in cls.__subclasses__():
            if sub not in found:
                found.add(sub)
                frontier.append(sub)
    # Test-local fixtures elsewhere in the suite are exempt.
    return {cls for cls in found if cls.__module__.startswith("repro.")}


def test_every_library_class_joins_the_sweep():
    """A new station, channel or adversary class must join the sweep."""
    senders, receivers = set(), set()
    for factory in PAIRS.values():
        sender, receiver = factory()
        senders.add(type(sender))
        receivers.add(type(receiver))
    assert senders == all_subclasses(SenderStation)
    assert receivers == all_subclasses(ReceiverStation)
    assert set(CHANNELS) == all_subclasses(Channel)
    assert set(ADVERSARIES) - {None} == all_subclasses(ChannelAdversary)


def build(pair, channel, adversary, seed, trace_mode, monitor):
    sender, receiver = PAIRS[pair]()
    rng = random.Random(seed)
    return DataLinkSystem(
        sender,
        receiver,
        chan_t2r=CHANNELS[channel](T2R, random.Random(rng.random())),
        chan_r2t=CHANNELS[channel](R2T, random.Random(rng.random())),
        adversary=ADVERSARIES[adversary](seed),
        trace_mode=trace_mode,
        sinks=[monitor],
    )


def run(system, script):
    """Drive a run; illegal adversary moves end it, as in the library
    (the channel raises before recording anything)."""
    try:
        return system.run(script, max_steps=120)
    except ChannelError:
        return None


@settings(max_examples=250, deadline=None)
@given(
    pair=st.sampled_from(sorted(PAIRS)),
    channel=st.sampled_from(sorted(CHANNELS, key=lambda c: c.__name__)),
    adversary=st.sampled_from(
        [None] + sorted(set(ADVERSARIES) - {None}, key=lambda c: c.__name__)
    ),
    seed=st.integers(0, 2**16),
    script=st.lists(st.sampled_from(["a", "b"]), min_size=1, max_size=5),
)
def test_engine_runs(pair, channel, adversary, seed, script):
    monitor = SpecMonitorSink()
    system = build(pair, channel, adversary, seed, TraceMode.FULL, monitor)
    run(system, script)
    oracle = check_execution(system.execution)
    assert fields(monitor.report()) == fields(oracle)

    stopping = SpecMonitorSink(stop_on_violation=True)
    halted = build(pair, channel, adversary, seed, TraceMode.COUNTS, stopping)
    stats = run(halted, script)
    if oracle.ok:
        assert fields(stopping.report()) == fields(oracle)
        return
    first = earliest(oracle)
    assert stopping.report().violations == [first]
    assert halted.execution.length == first.event_index + 1
    if stats is not None:
        assert not stats.completed


@pytest.mark.parametrize("pair", sorted(PAIRS))
def test_extension_with_initial_transit(pair):
    """A clone cut mid-run starts with copies already in transit; the
    monitor takes them as ``initial_transit``, like the oracle."""
    sender, receiver = PAIRS[pair]()
    system = make_system(sender, receiver, adversary=DelayAllAdversary())
    system.run(["a", "b"], max_steps=6)
    t2r = set(system.chan_t2r.in_transit_ids())
    r2t = set(system.chan_r2t.in_transit_ids())
    assert t2r
    monitor = SpecMonitorSink(t2r, r2t)
    twin = system.clone(adversary=RandomAdversary(seed=3), sinks=[monitor])
    twin.run(["c", "a"], max_steps=80)
    oracle = check_execution(twin.execution, t2r, r2t)
    assert fields(monitor.report()) == fields(oracle)


# ---------------------------------------------------------------------------
# stopping on the broken flooding protocol (K=1)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_stopping_monitor_halts_k1_flooding(seed):
    """K=1 flooding breaks (DL1) within a few events; the stopping
    monitor ends a 500k-step run right there."""
    stopping = SpecMonitorSink(stop_on_violation=True)
    sender, receiver = make_flooding(1)
    system = make_system(
        sender, receiver, q=0.3, seed=seed,
        trace_mode=TraceMode.COUNTS, sinks=[stopping],
    )
    stats = system.run(["m"] * 30, max_steps=500_000)
    assert not stats.completed
    assert stats.steps < 1_000

    # The oracle over a FULL prefix of the same (deterministic) run.
    sender, receiver = make_flooding(1)
    reference = make_system(sender, receiver, q=0.3, seed=seed)
    reference.run(["m"] * 30, max_steps=stats.steps + 50)
    first = earliest(check_execution(reference.execution))
    assert stopping.report().violations == [first]
    assert system.execution.length == first.event_index + 1
