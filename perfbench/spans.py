"""Host-time spans recorded from outside the program.

The benchmark never edits ``src/``: it wraps public methods of each
layer at class level for the duration of one run and restores them
afterwards. A span records how often a method was called and its *self*
time: the wall time inside the call minus the time covered by nested
spans. Spans are aggregated as they close (calls and seconds per name)
rather than kept one by one, since a run makes millions of calls.

The wrappers only read the clock, so the simulated timeline is
unchanged; ``tests/test_neutrality.py`` pins that.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Any, Callable

# Imported for their subclasses: wrapping walks each class tree.
import repro.contracts  # noqa: F401
import repro.workloads  # noqa: F401
from repro.chain.mempool import Mempool
from repro.chain.transaction import Transaction
from repro.consensus.base import ConsensusProtocol
from repro.contracts.base import Contract
from repro.core.audit import ChainAuditor
from repro.core.connector import SimChainConnector
from repro.core.stats import StatsCollector
from repro.core.trace import StageTracer
from repro.core.workload import ArrivalGenerator, Workload
from repro.crypto.bucket_tree import BucketTree
from repro.crypto.trie import PatriciaTrie
from repro.platforms.base import PlatformNode, PlatformState
from repro.platforms.cluster import Cluster
from repro.sim.network import Network
from repro.sim.node import SimNode

#: (span name, class, method names). Subclasses that override a method
#: are wrapped too; a call that reaches the base method through
#: ``super()`` stays inside one span.
SPANS: tuple[tuple[str, type, tuple[str, ...]], ...] = (
    ("sim.run", Cluster, ("run_until",)),
    ("sim.send", Network, ("send",)),
    ("sim.deliver", SimNode, ("deliver",)),
    ("platforms.handle_message", PlatformNode, ("handle_message",)),
    ("platforms.assemble_block", PlatformNode, ("assemble_block",)),
    ("platforms.deliver_block", PlatformNode, ("deliver_block",)),
    ("platforms.commit_block", PlatformState, ("commit_block",)),
    ("platforms.apply_write_set", PlatformState, ("apply_write_set",)),
    ("consensus.on_message", ConsensusProtocol, ("on_message",)),
    ("contracts.invoke", Contract, ("invoke",)),
    ("crypto.trie_update", PatriciaTrie, ("update",)),
    ("crypto.bucket_root", BucketTree, ("root_hash",)),
    ("chain.mempool_add", Mempool, ("add",)),
    ("chain.peek_batch", Mempool, ("peek_batch",)),
    (
        "core.client",
        SimChainConnector,
        (
            "deploy_application",
            "fail_over",
            "send_transaction",
            "get_latest_block",
            "get_block_transactions",
            "get_balance",
            "query",
            "subscribe_new_blocks",
        ),
    ),
    (
        "core.stats",
        StatsCollector,
        (
            "record_submission",
            "record_rejection",
            "record_confirmation",
            "record_queue_length",
        ),
    ),
    ("core.audit", ChainAuditor, ("record_commit",)),
    (
        "core.trace",
        StageTracer,
        (
            "record_block",
            "record_submit",
            "record_admit",
            "record_propose",
            "record_decide",
            "record_execute",
            "record_commit",
            "record_notify",
        ),
    ),
    ("core.arrivals", ArrivalGenerator, ("__next__",)),
    ("workloads.next_transaction", Workload, ("next_transaction",)),
)

#: Span names in report order.
SPAN_NAMES = tuple(name for name, _cls, _methods in SPANS)

#: (counter name, class, method): calls counted without timing.
COUNTERS = (("chain.tx_size", Transaction, "size_bytes"),)


def _class_tree(cls: type) -> list[type]:
    seen = [cls]
    for klass in seen:
        for sub in klass.__subclasses__():
            if sub not in seen:
                seen.append(sub)
    return seen


class Patcher:
    """Replaces methods on a class and every subclass defining them,
    and puts the originals back on :meth:`restore`."""

    def __init__(self) -> None:
        self._saved: list[tuple[type, str, Any]] = []

    def wrap(
        self,
        cls: type,
        method: str,
        make_wrapper: Callable[[Callable[..., Any]], Callable[..., Any]],
    ) -> None:
        for klass in _class_tree(cls):
            original = klass.__dict__.get(method)
            if original is None:
                continue
            self._saved.append((klass, method, original))
            setattr(klass, method, make_wrapper(original))

    def restore(self) -> None:
        while self._saved:
            klass, method, original = self._saved.pop()
            setattr(klass, method, original)


class SpanTracer:
    """Calls and self time per span name, plus plain call counters."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        #: Open spans, innermost last: [name, seconds covered by children].
        self._stack: list[list[Any]] = []
        self._patcher = Patcher()

    def install(self) -> None:
        for name, cls, methods in SPANS:
            for method in methods:
                self._patcher.wrap(cls, method, self._span_wrapper(name))
        for name, cls, method in COUNTERS:
            self._patcher.wrap(cls, method, self._count_wrapper(name))

    def uninstall(self) -> None:
        self._patcher.restore()

    def reset(self) -> None:
        """Forget everything recorded so far (e.g. during set-up)."""
        self.calls.clear()
        self.self_s.clear()
        self.counts.clear()

    def _span_wrapper(self, name: str):
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        clock = time.perf_counter

        def make(fn):
            def span(*args, **kwargs):
                if stack and stack[-1][0] is name:
                    # An override calling its base through super().
                    return fn(*args, **kwargs)
                frame = [name, 0.0]
                stack.append(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    calls[name] += 1
                    self_s[name] += elapsed - frame[1]
                    if stack:
                        stack[-1][1] += elapsed

            span.__wrapped__ = fn
            return span

        return make

    def _count_wrapper(self, name: str):
        counts = self.counts

        def make(fn):
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            counted.__wrapped__ = fn
            return counted

        return make
