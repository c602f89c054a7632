"""E1 and E2's exploration tables, pinned byte for byte.

Both experiments read state counts off
:func:`~repro.ioa.exploration.explore_station_states`, whose serial
path runs the bounded checker's level-synchronous engine with no
property and cuts the last level so that a truncated search visits
exactly ``max_configurations`` configurations -- the truncation of a
FIFO queue.  The capacity-flood rows are truncated, so these literals
pin that cut as well as the counts of the complete searches; a
level-granular cut would report 20,002 and 20,005 configurations where
the tables print 20000.
"""

from repro.datalink.flooding import make_capacity_flooding
from repro.experiments import exp_boundness, exp_headers
from repro.ioa.exploration import explore_station_states

E1_FAST_TRANSCRIPT = """\
== E1: Theorem 2.1: measured boundness never exceeds k_t * k_r ==
               protocol  k_t(<=)  k_r(<=)  k_t*k_r  boundness  samples  holds
-----------------------  -------  -------  -------  ---------  -------  -----
        alternating-bit        4        2        8          1        6    yes
capacity-flood(K=2,B=1)        7    20002   140014          2        6    yes
        sequence-number        5        3       15          1        6    yes

note: capacity-flood(K=2,B=1): exploration truncated at the configuration budget; k_t/k_r shown cover the explored region
note: k_t/k_r are over-approximations of reachable station states (channel set-abstraction), so the product is an upper bound -- the safe direction for verifying the theorem.
checks:
  [PASS] alternating-bit: boundness <= state product
  [PASS] capacity-flood(K=2,B=1): boundness <= state product
  [PASS] sequence-number: boundness <= state product
overall: PASS
"""

E2_FAST_TRANSCRIPT = """\
== E2: Theorem 3.1: fixed-header protocols are forged, n-header escapes ==
                        protocol  forged  DL1 violation  messages spent  headers used  stale pool  rounds
--------------------------------  ------  -------------  --------------  ------------  ----------  ------
        alternating-bit (2 hdrs)     yes            yes               2             2           6       3
capacity-flood(K=3,B=4) (6 hdrs)     yes            yes               3             3          21       4
       modular-seq(M=4) (8 hdrs)     yes            yes               4             4          12       5

k (headers)  proof budget (copies)  measured pool  measured/proof
-----------  ---------------------  -------------  --------------
          2                     35              6           0.171
          3                    766             21           0.027

               protocol  messages  wire headers  k_t(<=)  k_r(<=)  configs
-----------------------  --------  ------------  -------  -------  -------
capacity-flood(K=2,B=1)         1             1        4        3        7
capacity-flood(K=2,B=1)         2             2        7     6669    20000
capacity-flood(K=2,B=1)         3             2       10     3339    20000
        sequence-number         1             1        3        2        5
        sequence-number         2             2        5        3        9
        sequence-number         3             3        7        4       13

note: wire headers = distinct forward-channel packet headers over the explored region (a lower bound where the exploration truncates); the saturating alphabet is what Theorem 3.1's adversary exhausts, the growing one is its escape hatch.
note: forged = the adversary produced an execution with rm = sm + 1 from stale copies alone; messages spent is the attack's legitimate-traffic budget (the i <= k < n of the proof).
note: proof budget = basis copies k!f(k+1)^k - k + 1 plus k times the step-0 invariant (f = identity), from repro.core.proof_bounds; the gap is the price of universal quantification.
note: the oracle-flood row is outside the paper's model (stations read the channel); its survival shows the theorem's reliance on channel-oblivious stations, not a counterexample.
checks:
  [PASS] alternating-bit (2 hdrs): forged == True
  [PASS] alternating-bit (2 hdrs): forgery detected by independent DL1 checker
  [PASS] capacity-flood(K=3,B=4) (6 hdrs): forged == True
  [PASS] capacity-flood(K=3,B=4) (6 hdrs): forgery detected by independent DL1 checker
  [PASS] modular-seq(M=4) (8 hdrs): forged == True
  [PASS] modular-seq(M=4) (8 hdrs): forgery detected by independent DL1 checker
  [PASS] k=2: operational attack beats the proof's budget
  [PASS] k=3: operational attack beats the proof's budget
  [PASS] capacity-flood(K=2,B=1): wire header alphabet saturates (fixed headers)
  [PASS] sequence-number: every extra message mints a fresh wire header
overall: PASS
"""


def test_e1_transcript_is_unchanged():
    result = exp_boundness.run(fast=True, seed=0)
    assert result.render() + "\n" == E1_FAST_TRANSCRIPT


def test_e2_transcript_is_unchanged():
    result = exp_headers.run(fast=True, seed=0)
    assert result.render() + "\n" == E2_FAST_TRANSCRIPT


def test_serial_exploration_cuts_mid_level():
    """The serial cut stops inside a BFS level: exactly the budget is
    visited, and the pair count covers every configuration reached,
    queued ones included."""
    result = explore_station_states(
        *make_capacity_flooding(2, 1), ["m"],
        max_messages=2, max_configurations=20_000,
    )
    assert result.truncated
    assert result.configurations == 20_000
    assert result.pair_count == 20_002
    assert result.k_t == 7
    assert result.k_r == 6669
