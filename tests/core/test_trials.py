"""The batched trial engines are bit-identical to the interpreted path.

The compiled batch engines (:mod:`repro.core.trials`) re-transcribe
the Theorem 5.1 delivery loop and the Theorem 4.1 pumping loop into
integer space; the refactor is only admissible because every observable
is *exactly* preserved.  These tests pin that contract: same
:class:`ProbabilisticRunResult` field for field, same backlog-probe
costs, same deep system state after pumping -- across protocol
families, error rates and seeds -- plus the dispatch rules
(``engine="auto"``/``"batch"``/``"interpreted"``) and the support gate.
"""

import dataclasses

import pytest

from repro.channels.probabilistic import TricklePolicy
from repro.core.theorem41 import plant_backlog, probe_backlog_cost
from repro.core.theorem51 import run_probabilistic_delivery
from repro.core.trials import probabilistic_batch_supported, run_probabilistic_trials
from repro.datalink.alternating_bit import make_alternating_bit
from repro.datalink.flooding import (
    FloodingReceiver,
    make_capacity_flooding,
    make_flooding,
)
from repro.datalink.gobackn import make_gobackn
from repro.datalink.sequence import make_sequence_protocol
from repro.ioa.execution import TraceMode
from repro.ioa.sinks import MetricsSink

PAIRS = {
    "flooding": lambda: make_flooding(2),
    "capacity_flooding": lambda: make_capacity_flooding(2, 4),
    "sequence": make_sequence_protocol,
    "alternating_bit": make_alternating_bit,
    "gobackn": lambda: make_gobackn(3),
}

BUDGET = {
    "flooding": 4000,
    "capacity_flooding": 4000,
    "alternating_bit": 4000,
    "gobackn": 4000,
}


def run_both(name, q, seed, n=12):
    common = dict(
        q=q, n=n, seed=seed, packet_budget=BUDGET.get(name)
    )
    interpreted = run_probabilistic_delivery(
        PAIRS[name], engine="interpreted", **common
    )
    batch = run_probabilistic_delivery(PAIRS[name], engine="batch", **common)
    return interpreted, batch


@pytest.mark.parametrize("name", sorted(PAIRS))
@pytest.mark.parametrize("q", [0.1, 0.35])
@pytest.mark.parametrize("seed", [0, 7])
def test_probabilistic_batch_is_bit_identical(name, q, seed):
    interpreted, batch = run_both(name, q, seed)
    assert dataclasses.asdict(batch) == dataclasses.asdict(interpreted)
    assert batch.delivered > 0


def test_auto_engine_matches_both_paths():
    auto = run_probabilistic_delivery(
        PAIRS["flooding"], q=0.2, n=10, seed=3, packet_budget=4000
    )
    interpreted, batch = run_both("flooding", 0.2, 3, n=10)
    assert dataclasses.asdict(auto) == dataclasses.asdict(batch)
    assert dataclasses.asdict(auto) == dataclasses.asdict(interpreted)


def test_metrics_sink_counters_match_interpreted():
    sink_i, sink_b = MetricsSink(count_steps=False), MetricsSink(count_steps=False)
    run_probabilistic_delivery(
        make_sequence_protocol, q=0.25, n=15, seed=5,
        engine="interpreted", sinks=[sink_i],
    )
    run_probabilistic_delivery(
        make_sequence_protocol, q=0.25, n=15, seed=5,
        engine="batch", sinks=[sink_b],
    )
    assert sink_b.snapshot() == sink_i.snapshot()


# ---------------------------------------------------------------------------
# Steady-flood blocks
# ---------------------------------------------------------------------------


@pytest.fixture
def absorbed_blocks(monkeypatch):
    """The ``k`` of every block the batch engine hands the flooding
    receiver, to show that a pin below really runs blocks."""
    blocks = []
    absorb = FloodingReceiver.absorb_receipts

    def recording(self, packet, k):
        blocks.append(k)
        absorb(self, packet, k)

    monkeypatch.setattr(FloodingReceiver, "absorb_receipts", recording)
    return blocks


def test_flood_block_cut_by_max_steps_is_bit_identical(absorbed_blocks):
    # K=1 never finishes 30 messages in 20k steps: the budget runs
    # out in the middle of a block of silent copies, and the sinks'
    # outstanding peak depends on that block's last coin.
    common = dict(q=0.3, n=30, seed=0, max_steps=20_000)
    pair = lambda: make_flooding(1)
    sink_i = MetricsSink(count_steps=False)
    sink_b = MetricsSink(count_steps=False)
    interpreted = run_probabilistic_delivery(
        pair, engine="interpreted", sinks=[sink_i], **common
    )
    absorbed_blocks.clear()
    batch = run_probabilistic_delivery(
        pair, engine="batch", sinks=[sink_b], **common
    )
    assert dataclasses.asdict(batch) == dataclasses.asdict(interpreted)
    assert sink_b.snapshot() == sink_i.snapshot()
    assert batch.steps == 20_000 and not batch.completed
    assert max(absorbed_blocks) > 1000


def test_flood_blocks_keep_metrics_sink_snapshots(absorbed_blocks):
    common = dict(q=0.5, n=20, seed=1)
    pair = lambda: make_flooding(3)
    sink_i = MetricsSink(count_steps=False)
    sink_b = MetricsSink(count_steps=False)
    interpreted = run_probabilistic_delivery(
        pair, engine="interpreted", sinks=[sink_i], **common
    )
    absorbed_blocks.clear()
    batch = run_probabilistic_delivery(
        pair, engine="batch", sinks=[sink_b], **common
    )
    assert dataclasses.asdict(batch) == dataclasses.asdict(interpreted)
    assert sink_b.snapshot() == sink_i.snapshot()
    assert batch.completed and max(absorbed_blocks) > 1


def test_engine_rejects_unknown_name():
    with pytest.raises(ValueError, match="engine"):
        run_probabilistic_delivery(
            make_sequence_protocol, q=0.2, n=2, engine="turbo"
        )


def test_batch_engine_rejects_unsupported_configuration():
    assert not probabilistic_batch_supported(
        TricklePolicy.NEVER, TraceMode.FULL, None
    )
    with pytest.raises(ValueError, match="batch"):
        run_probabilistic_delivery(
            make_sequence_protocol, q=0.2, n=2,
            trace_mode=TraceMode.FULL, engine="batch",
        )
    # auto silently falls back on the same configuration
    result = run_probabilistic_delivery(
        make_sequence_protocol, q=0.2, n=4, seed=1,
        trace_mode=TraceMode.FULL, engine="auto",
    )
    assert result.delivered == 4


def test_trial_shard_reuses_one_compiled_pair():
    shard = run_probabilistic_trials(
        make_sequence_protocol,
        [{"q": 0.2, "seed": s} for s in range(3)],
        n=8,
    )
    singles = [
        run_probabilistic_delivery(
            make_sequence_protocol, q=0.2, n=8, seed=s, engine="batch"
        )
        for s in range(3)
    ]
    assert [dataclasses.asdict(r) for r in shard] == [
        dataclasses.asdict(r) for r in singles
    ]


# ---------------------------------------------------------------------------
# Theorem 4.1 pumping
# ---------------------------------------------------------------------------

PUMP_PAIRS = {
    "flooding": lambda: make_flooding(2),
    "sequence": make_sequence_protocol,
}


@pytest.mark.parametrize("name", sorted(PUMP_PAIRS))
@pytest.mark.parametrize("backlog", [0, 8, 64])
def test_probe_backlog_cost_matches_interpreted(name, backlog):
    interpreted = probe_backlog_cost(
        PUMP_PAIRS[name], backlog, engine="interpreted"
    )
    batch = probe_backlog_cost(PUMP_PAIRS[name], backlog, engine="batch")
    assert dataclasses.asdict(batch) == dataclasses.asdict(interpreted)


def channel_bag(channel):
    return sorted(
        (copy.copy_id, copy.packet, copy.sent_at)
        for copy in channel.in_transit()
    )


@pytest.mark.parametrize("name", sorted(PUMP_PAIRS))
def test_plant_backlog_state_matches_interpreted(name):
    planted = {}
    for engine in ("interpreted", "batch"):
        system, pool, cost = plant_backlog(
            PUMP_PAIRS[name], 48,
            trace_mode=TraceMode.COUNTS, engine=engine,
        )
        planted[engine] = (system, pool, cost)
    (sys_i, pool_i, cost_i) = planted["interpreted"]
    (sys_b, pool_b, cost_b) = planted["batch"]
    assert cost_b == cost_i
    assert pool_b.reserved_ids == pool_i.reserved_ids
    assert pool_b.total() == pool_i.total()
    assert sys_b.sender.protocol_state() == sys_i.sender.protocol_state()
    assert sys_b.receiver.protocol_state() == sys_i.receiver.protocol_state()
    assert sys_b.sender.packets_sent == sys_i.sender.packets_sent
    assert (
        sys_b.receiver.messages_delivered == sys_i.receiver.messages_delivered
    )
    for direction, chan_b in sys_b.channels.items():
        chan_i = sys_i.channels[direction]
        assert channel_bag(chan_b) == channel_bag(chan_i)
        assert chan_b.sent_total == chan_i.sent_total
        assert chan_b.delivered_total == chan_i.delivered_total
