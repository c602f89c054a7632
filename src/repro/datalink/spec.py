"""Machine-checkable data link and physical layer specifications.

These checkers consume a recorded :class:`~repro.ioa.execution.Execution`
and decide the properties of Section 2:

* :func:`check_pl1` -- the physical safety property (PL1): every
  ``receive_pkt`` corresponds to a unique preceding ``send_pkt`` of the
  same value, and no send is received twice.
* :func:`check_dl1` -- (DL1): a correspondence exists between
  ``receive_msg`` and preceding ``send_msg`` actions (no forgery, no
  duplication).
* :func:`check_dl1_dl2` -- (DL1) and (DL2) together: the
  correspondence additionally preserves order (FIFO delivery).
* :func:`check_liveness` -- the finite-execution reading of (DL3):
  every submitted message was delivered by the end of the run
  (a *budgeted* liveness obligation; genuine (DL3) is a property of
  infinite executions).

All checkers return ``None`` on success and a :class:`SpecViolation`
describing the earliest problem otherwise; they never raise on bad
executions -- producing (and then detecting!) invalid executions is the
whole point of the lower-bound adversaries.

Matching strategy.  (DL1) asks for an injective mapping of receives to
preceding sends with equal payloads.  Scanning receives in order and
greedily matching each to the *earliest unused* preceding send of the
same payload is complete: within one payload class the candidate sets
of successive receives are nested prefixes, so if any injective
matching exists the greedy one does.  For (DL1)+(DL2) the mapping must
also be order-preserving across *all* messages, so the greedy cursor is
global: each receive must match a send strictly later than the previous
receive's send, again earliest-first.

Online monitoring.  (PL1), (DL1) and (DL2) are safety properties: a
violation shows in a finite prefix, so one pass over the events decides
them and may stop at the first bad event.  :class:`SpecMonitorSink` is
that pass, as an :class:`~repro.ioa.sinks.ExecutionSink` riding on the
run itself: O(1) amortised work per event, and a :meth:`report
<SpecMonitorSink.report>` equal to :func:`check_execution`'s on the
same events.  Built with ``stop_on_violation=True`` it raises
:class:`SpecViolationHalt` at the first violating event, which
:meth:`DataLinkSystem.run <repro.datalink.system.DataLinkSystem.run>`
turns into an early, ``completed=False`` return.  The post-hoc
checkers stay as the oracle the monitor is tested against.

Trace modes.  The post-hoc checkers walk the event list, so the
execution must have been recorded under ``TraceMode.FULL`` (the
default); handing a counters-only (``TraceMode.COUNTS``) execution to
one raises :class:`~repro.ioa.execution.TraceElidedError`.  The monitor
needs no event list: attach it through ``sinks=`` and it decides the
same properties under ``TraceMode.COUNTS``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Hashable, List, Optional, Set

from repro.ioa.actions import ActionType, Direction
from repro.ioa.execution import Execution
from repro.ioa.sinks import ExecutionSink


@dataclass(frozen=True)
class SpecViolation:
    """One specification violation, anchored at an event index."""

    property_name: str
    event_index: int
    description: str

    def __str__(self) -> str:
        return (
            f"{self.property_name} violated at event "
            f"{self.event_index}: {self.description}"
        )


@dataclass
class SpecReport:
    """Combined result of running every checker on one execution."""

    violations: List[SpecViolation] = field(default_factory=list)
    pending_messages: int = 0

    @property
    def ok(self) -> bool:
        """True when no safety property was violated."""
        return not self.violations

    @property
    def valid(self) -> bool:
        """The paper's Definition 3: safety holds *and* every message
        was delivered (the finite reading of (DL3))."""
        return self.ok and self.pending_messages == 0

    def by_property(self, name: str) -> List[SpecViolation]:
        """Violations of one property."""
        return [v for v in self.violations if v.property_name == name]


# ----------------------------------------------------------------------
# PL1
# ----------------------------------------------------------------------
def check_pl1(
    execution: Execution,
    direction: Direction,
    initial_transit: Optional[Set[int]] = None,
) -> Optional[SpecViolation]:
    """Check (PL1) on one channel direction.

    Args:
        execution: the recorded execution.
        direction: which channel to check.
        initial_transit: copy ids legitimately in transit before the
            recording started (extensions of earlier executions may
            deliver copies whose sends predate the recording).
    """
    live: Set[int] = set(initial_transit or ())
    value_of: Dict[int, object] = {}
    for event in execution:
        action = event.action
        if action.direction is not direction or action.copy_id is None:
            continue
        if action.type is ActionType.SEND_PKT:
            if action.copy_id in live or action.copy_id in value_of:
                return SpecViolation(
                    "PL1",
                    event.index,
                    f"copy #{action.copy_id} sent twice",
                )
            live.add(action.copy_id)
            value_of[action.copy_id] = action.packet
        elif action.type is ActionType.RECEIVE_PKT:
            if action.copy_id not in live:
                return SpecViolation(
                    "PL1",
                    event.index,
                    f"copy #{action.copy_id} received without a live "
                    "preceding send (forgery or duplication)",
                )
            live.remove(action.copy_id)
            expected = value_of.get(action.copy_id)
            if action.copy_id in value_of and expected != action.packet:
                return SpecViolation(
                    "PL1",
                    event.index,
                    f"copy #{action.copy_id} delivered with value "
                    f"{action.packet!r}, sent as {expected!r} (corruption)",
                )
    return None


# ----------------------------------------------------------------------
# DL1 / DL2
# ----------------------------------------------------------------------
def check_dl1(execution: Execution) -> Optional[SpecViolation]:
    """Check (DL1): injective receive->preceding-send correspondence."""
    # Per payload class: indices of unmatched sends seen so far.
    unmatched: Dict[object, List[int]] = {}
    for event in execution:
        action = event.action
        if action.type is ActionType.SEND_MSG:
            unmatched.setdefault(action.message, []).append(event.index)
        elif action.type is ActionType.RECEIVE_MSG:
            candidates = unmatched.get(action.message)
            if not candidates:
                return SpecViolation(
                    "DL1",
                    event.index,
                    f"receive_msg({action.message!r}) has no unmatched "
                    "preceding send_msg (forged or duplicated delivery)",
                )
            candidates.pop(0)
    return None


def check_dl1_dl2(execution: Execution) -> Optional[SpecViolation]:
    """Check (DL1) and (DL2) together: the correspondence must also be
    order-preserving (messages delivered in the order they were sent).
    """
    sends: List = []  # (index, message), in order
    cursor = 0  # sends before cursor are matched or skipped forever
    for event in execution:
        action = event.action
        if action.type is ActionType.SEND_MSG:
            sends.append((event.index, action.message))
        elif action.type is ActionType.RECEIVE_MSG:
            match = None
            for position in range(cursor, len(sends)):
                send_index, message = sends[position]
                if send_index >= event.index:
                    break
                if message == action.message:
                    match = position
                    break
            if match is None:
                return SpecViolation(
                    "DL1/DL2",
                    event.index,
                    f"receive_msg({action.message!r}) cannot be matched "
                    "order-preservingly to a preceding send_msg",
                )
            # Sends skipped over can never be delivered in order any
            # more; that is not itself a violation, so just advance.
            cursor = match + 1
    return None


def check_liveness(execution: Execution) -> int:
    """Finite-execution (DL3): return the number of pending messages.

    Zero means every ``send_msg`` has a matching ``receive_msg`` --
    i.e. the execution is *valid* (Definition 3) provided the safety
    checkers pass too.  Positive values are not violations by
    themselves (any prefix of a valid execution may have messages in
    flight); run-level tests compare against a progress budget.
    """
    return execution.sm() - execution.rm()


# ----------------------------------------------------------------------
# combined report
# ----------------------------------------------------------------------
def check_execution(
    execution: Execution,
    initial_transit_t2r: Optional[Set[int]] = None,
    initial_transit_r2t: Optional[Set[int]] = None,
) -> SpecReport:
    """Run every checker and collect the results.

    Raises:
        TraceElidedError: if ``execution`` was recorded in
            ``TraceMode.COUNTS`` (the checkers need the event list).
    """
    report = SpecReport()
    for direction, initial in (
        (Direction.T2R, initial_transit_t2r),
        (Direction.R2T, initial_transit_r2t),
    ):
        violation = check_pl1(execution, direction, initial)
        if violation is not None:
            report.violations.append(violation)
    violation = check_dl1(execution)
    if violation is not None:
        report.violations.append(violation)
    violation = check_dl1_dl2(execution)
    if violation is not None:
        report.violations.append(violation)
    report.pending_messages = check_liveness(execution)
    return report


# ----------------------------------------------------------------------
# online monitor
# ----------------------------------------------------------------------
class SpecViolationHalt(Exception):
    """Raised by a stopping :class:`SpecMonitorSink` at the violating
    event; :meth:`DataLinkSystem.run
    <repro.datalink.system.DataLinkSystem.run>` catches it and returns
    early."""

    def __init__(self, violation: SpecViolation) -> None:
        super().__init__(str(violation))
        self.violation = violation


#: Value of a live copy that was in transit before the recording
#: started: it has no recorded send, hence no value to compare against.
_UNSENT = object()
_MISSING = object()


class _ChannelMonitor:
    """(PL1) state of one direction, mirroring :func:`check_pl1`.

    ``live`` maps each in-transit copy id to its sent value;
    ``retired`` holds the ids that were sent *and* received, which a
    later send or receive of the same id violates.  A received
    ``initial_transit`` copy is not retired: it was never sent inside
    the recording, so the post-hoc checker lets its id be sent afresh.
    """

    __slots__ = ("live", "retired", "violation")

    def __init__(self, initial_transit: Optional[Set[int]]) -> None:
        self.live: Dict[int, object] = dict.fromkeys(
            initial_transit or (), _UNSENT
        )
        self.retired: Set[int] = set()
        self.violation: Optional[SpecViolation] = None

    def send(
        self, packet: Hashable, copy_id: int, index: int
    ) -> Optional[SpecViolation]:
        if copy_id in self.live or copy_id in self.retired:
            return SpecViolation(
                "PL1", index, f"copy #{copy_id} sent twice"
            )
        self.live[copy_id] = packet
        return None

    def receive(
        self, packet: Hashable, copy_id: int, index: int
    ) -> Optional[SpecViolation]:
        expected = self.live.pop(copy_id, _MISSING)
        if expected is _MISSING:
            return SpecViolation(
                "PL1",
                index,
                f"copy #{copy_id} received without a live "
                "preceding send (forgery or duplication)",
            )
        if expected is _UNSENT:
            return None
        self.retired.add(copy_id)
        if expected != packet:
            return SpecViolation(
                "PL1",
                index,
                f"copy #{copy_id} delivered with value "
                f"{packet!r}, sent as {expected!r} (corruption)",
            )
        return None


class SpecMonitorSink(ExecutionSink):
    """Online (PL1), (DL1) and (DL1)+(DL2) monitor.

    Decides, event by event, what :func:`check_execution` decides after
    the fact, with O(1) amortised work per event and no event list, so
    it works under ``TraceMode.COUNTS``.  :meth:`report` equals
    ``check_execution(execution, initial_transit_t2r,
    initial_transit_r2t)`` over the events seen so far: the same
    violations in the same order, and the same ``pending_messages``.

    The state per property:

    * (PL1), per direction: the live copies with their sent values, and
      the ids already sent and received;
    * (DL1): the count of unmatched sends per payload -- greedy
      earliest-first matching only ever asks whether one exists;
    * (DL1)+(DL2): the sends after the order-preserving cursor, a queue
      popped up to each receive's match.

    Like the post-hoc checkers, each property records only its first
    violation and is then no longer tracked.

    Args:
        initial_transit_t2r: copy ids in transit on ``t->r`` before the
            recording started (see :func:`check_pl1`).
        initial_transit_r2t: the same for ``r->t``.
        stop_on_violation: raise :class:`SpecViolationHalt` at the first
            violating event, so the run stops there; :meth:`report` then
            holds that single violation.
    """

    __slots__ = (
        "stop_on_violation",
        "_t2r",
        "_r2t",
        "_unmatched",
        "_in_order",
        "_dl1",
        "_dl2",
        "_sent_messages",
        "_received_messages",
    )

    def __init__(
        self,
        initial_transit_t2r: Optional[Set[int]] = None,
        initial_transit_r2t: Optional[Set[int]] = None,
        stop_on_violation: bool = False,
    ) -> None:
        self.stop_on_violation = stop_on_violation
        self._t2r = _ChannelMonitor(initial_transit_t2r)
        self._r2t = _ChannelMonitor(initial_transit_r2t)
        self._unmatched: Dict[Hashable, int] = {}
        self._in_order: Deque[Hashable] = deque()
        self._dl1: Optional[SpecViolation] = None
        self._dl2: Optional[SpecViolation] = None
        self._sent_messages = 0
        self._received_messages = 0

    def _halt(self, violation: SpecViolation) -> None:
        """Called once a violation is recorded: stop the run if asked."""
        if self.stop_on_violation:
            raise SpecViolationHalt(violation)

    def on_send_pkt(
        self,
        direction: Direction,
        packet: Hashable,
        copy_id: Optional[int],
        index: int,
    ) -> None:
        channel = self._t2r if direction is Direction.T2R else self._r2t
        if copy_id is None or channel.violation is not None:
            return
        violation = channel.send(packet, copy_id, index)
        if violation is not None:
            channel.violation = violation
            self._halt(violation)

    def on_receive_pkt(
        self,
        direction: Direction,
        packet: Hashable,
        copy_id: Optional[int],
        index: int,
    ) -> None:
        channel = self._t2r if direction is Direction.T2R else self._r2t
        if copy_id is None or channel.violation is not None:
            return
        violation = channel.receive(packet, copy_id, index)
        if violation is not None:
            channel.violation = violation
            self._halt(violation)

    def on_send_msg(self, message: Hashable, index: int) -> None:
        self._sent_messages += 1
        if self._dl1 is None:
            unmatched = self._unmatched
            unmatched[message] = unmatched.get(message, 0) + 1
        if self._dl2 is None:
            self._in_order.append(message)

    def on_receive_msg(self, message: Hashable, index: int) -> None:
        self._received_messages += 1
        if self._dl1 is None:
            unmatched = self._unmatched.get(message)
            if unmatched:
                self._unmatched[message] = unmatched - 1
            else:
                self._dl1 = SpecViolation(
                    "DL1",
                    index,
                    f"receive_msg({message!r}) has no unmatched "
                    "preceding send_msg (forged or duplicated delivery)",
                )
                self._halt(self._dl1)
        if self._dl2 is None:
            in_order = self._in_order
            while in_order:
                if in_order.popleft() == message:
                    return
            self._dl2 = SpecViolation(
                "DL1/DL2",
                index,
                f"receive_msg({message!r}) cannot be matched "
                "order-preservingly to a preceding send_msg",
            )
            self._halt(self._dl2)

    def report(self) -> SpecReport:
        """The verdict over the events seen so far."""
        found = (
            self._t2r.violation,
            self._r2t.violation,
            self._dl1,
            self._dl2,
        )
        return SpecReport(
            violations=[v for v in found if v is not None],
            pending_messages=self._sent_messages - self._received_messages,
        )
