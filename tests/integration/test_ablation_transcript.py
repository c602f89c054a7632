"""E6's transcript, pinned byte for byte.

The phase-count ablation decides each K's safety with a stopping
:class:`~repro.datalink.spec.SpecMonitorSink` over a counters-only
rerun; the tables, notes and checks must read exactly as they did when
the verdict came from a FULL-trace rerun and a post-hoc
:func:`~repro.datalink.spec.check_execution`.  The monitor's outcome
per K is recorded in the result's metrics.
"""

import pytest

from repro.experiments import exp_ablation

FAST_TRANSCRIPT = """\
== E6: Ablations: phase count, FIFO vs non-FIFO, trickle, TTL ==
K  headers  safe  q=0.3 growth  base/slope  total pkts
-  -------  ----  ------------  ----------  ----------
1        2    no   exponential        6.44      172246
2        4   yes   exponential       1.347         713
3        6   yes   exponential       1.265         284

 channel  forged  DL1 ok  messages
--------  ------  ------  --------
non-FIFO     yes      no         2
    FIFO      no     yes        20

trickle  delivered  total pkts  final backlog
-------  ---------  ----------  -------------
  never         18         284             48
uniform         18         171              8

               channel  modulus  forged  spec ok  delivered
----------------------  -------  ------  -------  ---------
  non-FIFO (unbounded)        4     yes       no          4
TTL (lifetime=4 sends)        8      no      yes         20

note: (a) larger K slows the compounding but costs headers; (b) non-FIFO is the entire difficulty; (c) the blowup needs delays to persist; (d) and the forgery needs them unbounded -- TTL channels rescue finite sequence numbers, which is why real networks get away with wrap-around.
checks:
  [PASS] K=1 is unsafe (DL1 violated under loss)
  [PASS] K=2 is safe under loss
  [PASS] K=3 is safe under loss
  [PASS] ABP over non-FIFO: forged
  [PASS] ABP over FIFO: valid delivery of 20 messages
  [PASS] trickling delayed packets tames the blowup
  [PASS] mod-seq over unbounded non-FIFO: forged
  [PASS] mod-seq over TTL channel: safe and live
overall: PASS
"""

FULL_TRANSCRIPT = """\
== E6: Ablations: phase count, FIFO vs non-FIFO, trickle, TTL ==
K  headers  safe  q=0.3 growth  base/slope  total pkts
-  -------  ----  ------------  ----------  ----------
1        2    no   exponential        6.44      172246
2        4   yes   exponential       1.295       10127
3        6   yes   exponential       1.214        1969
6       12   yes   exponential       1.145         315

 channel  forged  DL1 ok  messages
--------  ------  ------  --------
non-FIFO     yes      no         2
    FIFO      no     yes        20

trickle  delivered  total pkts  final backlog
-------  ---------  ----------  -------------
  never         30        1969            437
uniform         30         316             19

               channel  modulus  forged  spec ok  delivered
----------------------  -------  ------  -------  ---------
  non-FIFO (unbounded)        4     yes       no          4
TTL (lifetime=4 sends)        8      no      yes         40

note: (a) larger K slows the compounding but costs headers; (b) non-FIFO is the entire difficulty; (c) the blowup needs delays to persist; (d) and the forgery needs them unbounded -- TTL channels rescue finite sequence numbers, which is why real networks get away with wrap-around.
checks:
  [PASS] K=1 is unsafe (DL1 violated under loss)
  [PASS] K=2 is safe under loss
  [PASS] K=3 is safe under loss
  [PASS] K=6 is safe under loss
  [PASS] ABP over non-FIFO: forged
  [PASS] ABP over FIFO: valid delivery of 20 messages
  [PASS] trickling delayed packets tames the blowup
  [PASS] mod-seq over unbounded non-FIFO: forged
  [PASS] mod-seq over TTL channel: safe and live
overall: PASS
"""


@pytest.fixture(scope="module", params=["fast", "full"])
def ablation(request):
    fast = request.param == "fast"
    return fast, exp_ablation.run(fast=fast, seed=0)


def test_transcript_is_unchanged(ablation):
    fast, result = ablation
    expected = FAST_TRANSCRIPT if fast else FULL_TRANSCRIPT
    assert result.render() + "\n" == expected


def test_monitor_outcome_per_k(ablation):
    fast, result = ablation
    phases = [1, 2, 3] if fast else [1, 2, 3, 6]
    assert sorted(result.metrics) == sorted(
        f"K{k}_{name}"
        for k in phases
        for name in ("first_violation_event", "monitored_steps", "trial_steps")
    )
    # K=1 breaks (DL1) at event 7 and the monitor ends the rerun in
    # its second engine step instead of at the 500k-step cap.
    assert result.metrics["K1_first_violation_event"] == 7
    assert result.metrics["K1_monitored_steps"] < 10
    # The Theorem 5.1 trial itself: K=1 livelocks to the 2M-step
    # default cap, every safe K finishes well inside it.
    assert result.metrics["K1_trial_steps"] == 2_000_000
    for k in phases[1:]:
        assert result.metrics[f"K{k}_first_violation_event"] == -1
        assert 0 < result.metrics[f"K{k}_monitored_steps"] < 500_000
        assert 0 < result.metrics[f"K{k}_trial_steps"] < 2_000_000
