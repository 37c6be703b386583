"""Base class for simulated nodes.

A :class:`SimNode` owns a *bounded* inbox drained by a single logical
CPU: each message costs ``message_cost(msg)`` seconds of processing
before its handler runs, and messages arriving while the node is
saturated beyond ``inbox_capacity`` are dropped. That bounded channel
is not a convenience — it is the mechanism behind the paper's headline
negative result (Hyperledger v0.6 failing past 16 nodes because
"consensus messages are rejected ... on account of the message channel
being full", Section 4.1.2).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable

from .clock import SimTime
from .events import Event, Scheduler
from .network import Message, Network

#: ``_timers`` is swept for cancelled timers once it outgrows this, and
#: after that whenever it doubles, so the sweep is O(1) amortized.
_TIMERS_PRUNE_FLOOR = 64


class SimNode:
    """A network-attached actor with serial message processing."""

    def __init__(
        self,
        node_id: str,
        scheduler: Scheduler,
        network: Network,
        inbox_capacity: int | None = None,
    ) -> None:
        self.node_id = node_id
        self.scheduler = scheduler
        self.network = network
        self.inbox_capacity = inbox_capacity
        self.inbox: deque[Message] = deque()
        self.crashed = False
        self._processing = False
        self.cpu_time: SimTime = 0.0
        self.dropped_messages = 0
        # Pending timers only (insertion-ordered): a timer leaves when it
        # fires, and cancelled ones are pruned as the dict grows.
        self._timers: dict[Event, None] = {}
        self._timers_prune_at = _TIMERS_PRUNE_FLOOR
        self._deferred_cost: SimTime = 0.0
        network.register(self)

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------
    def send(
        self, recipient: str, kind: str, payload: Any, size_bytes: int = 256
    ) -> None:
        if self.crashed:
            return
        self.network.send(self.node_id, recipient, kind, payload, size_bytes)

    def broadcast(self, kind: str, payload: Any, size_bytes: int = 256) -> None:
        if self.crashed:
            return
        self.network.broadcast(self.node_id, kind, payload, size_bytes)

    def deliver(self, message: Message) -> None:
        """Called by the network when a message arrives."""
        if self.crashed:
            return
        if self.inbox_capacity is not None and len(self.inbox) >= self.inbox_capacity:
            self.dropped_messages += 1
            return
        self.inbox.append(message)
        if not self._processing:
            self._processing = True
            # The network calls deliver() as the last act of its
            # delivery event, so the hand-off may run inline.
            self.scheduler.run_soon(self._process_next)

    def _process_next(self) -> None:
        if self.crashed or not self.inbox:
            self._processing = False
            return
        message = self.inbox.popleft()
        cost = self.message_cost(message)
        self.consume_cpu(cost)
        if cost > 0:
            self.scheduler.schedule(cost, self._finish_message, message)
        else:
            self._finish_message(message)

    def _finish_message(self, message: Message) -> None:
        if not self.crashed:
            self.handle_message(message)
        # Handlers may discover extra work mid-flight (e.g. executing a
        # block's transactions) via defer_cost(); it extends the busy
        # window before the next message is served.
        extra = self._deferred_cost
        self._deferred_cost = 0.0
        if extra > 0:
            self.consume_cpu(extra)
        if self.inbox and not self.crashed:
            if extra > 0:
                self.scheduler.schedule(extra, self._process_next)
            else:
                self.scheduler.run_soon(self._process_next)
        else:
            if extra > 0:
                self.scheduler.schedule(extra, self._resume_after_busy)
            else:
                self._processing = False

    def _resume_after_busy(self) -> None:
        if self.crashed:
            self._processing = False
            return
        if self.inbox:
            self._process_next()
        else:
            self._processing = False

    # ------------------------------------------------------------------
    # Hooks for subclasses
    # ------------------------------------------------------------------
    def message_cost(self, message: Message) -> SimTime:
        """CPU seconds consumed before ``handle_message`` runs."""
        return 0.0

    def handle_message(self, message: Message) -> None:
        """Process one delivered message. Subclasses override."""

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    def set_timer(self, delay: SimTime, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule a callback that is suppressed if the node has crashed."""
        return self._track(self.scheduler.schedule, delay, fn, args)

    def reserve_timer(self, delay: SimTime) -> tuple[SimTime, int]:
        """Claim the slot ``set_timer(delay, ...)`` would take now; see
        :meth:`Scheduler.reserve`."""
        return self.scheduler.reserve(delay)

    def set_timer_at(
        self, slot: tuple[SimTime, int], fn: Callable[..., Any], *args: Any
    ) -> Event:
        """``set_timer`` under a slot claimed earlier by
        :meth:`reserve_timer`: same crash suppression, and the callback
        fires exactly where a timer set at the claim would have."""
        return self._track(self.scheduler.schedule_reserved, slot, fn, args)

    def _track(self, schedule, when, fn, args) -> Event:
        """``schedule(when, ...)`` a wrapper of ``fn(*args)`` that is
        suppressed on a crashed node and leaves ``_timers`` as it fires."""
        timers = self._timers

        def fire() -> None:
            del timers[event]
            if not self.crashed:
                fn(*args)

        event = schedule(when, fire)
        timers[event] = None
        if len(timers) > self._timers_prune_at:
            for timer in [t for t in timers if t.cancelled]:
                del timers[timer]
            self._timers_prune_at = max(_TIMERS_PRUNE_FLOOR, 2 * len(timers))
        return event

    # ------------------------------------------------------------------
    # CPU accounting / fault injection
    # ------------------------------------------------------------------
    def consume_cpu(self, seconds: SimTime) -> None:
        """Account ``seconds`` of CPU work (for utilization sampling)."""
        if seconds > 0:
            self.cpu_time += seconds

    def defer_cost(self, seconds: SimTime) -> None:
        """Charge CPU work discovered while handling the current message.

        The node stays busy for the extra time before draining its next
        message — this is what lets heavy block execution back-pressure
        a node's inbox (the mechanism behind Hyperledger's overload
        collapse).
        """
        if seconds > 0:
            self._deferred_cost += seconds

    def crash(self) -> None:
        """Stop the node: drop inbox, cancel timers, ignore future traffic."""
        self.crashed = True
        self.inbox.clear()
        self._processing = False
        # Work discovered mid-message dies with the process: a node
        # recovered later must not charge the interrupted handler's
        # deferred CPU to its first post-recovery message.
        self._deferred_cost = 0.0
        for timer in self._timers:
            timer.cancel()
        self._timers.clear()

    def recover(self) -> None:
        """Restart a crashed node (subclasses re-arm their timers)."""
        self.crashed = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "crashed" if self.crashed else "up"
        return f"<{type(self).__name__} {self.node_id} {state}>"
