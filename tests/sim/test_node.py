"""Unit tests for SimNode: serial processing, bounded inbox, timers."""

from repro.sim import Network, RngRegistry, Scheduler, SimNode


class CostlyNode(SimNode):
    """Node whose message handling costs fixed CPU time."""

    def __init__(self, node_id, scheduler, network, cost=0.1, **kwargs):
        super().__init__(node_id, scheduler, network, **kwargs)
        self.cost = cost
        self.handled = []

    def message_cost(self, message):
        return self.cost

    def handle_message(self, message):
        self.handled.append((self.scheduler.now, message.payload))


def build(cost=0.1, capacity=None):
    sched = Scheduler()
    net = Network(sched, RngRegistry(1), jitter=0.0)
    sender = SimNode("src", sched, net)
    node = CostlyNode("dst", sched, net, cost=cost, inbox_capacity=capacity)
    return sched, net, sender, node


def test_messages_processed_serially():
    sched, net, sender, node = build(cost=1.0)
    for i in range(3):
        sender.send("dst", "m", i)
    sched.run()
    times = [t for t, _ in node.handled]
    assert len(times) == 3
    # Each message occupies the CPU for 1s, so completions are >= 1s apart.
    assert times[1] - times[0] >= 1.0
    assert times[2] - times[1] >= 1.0


def test_cpu_time_accounted():
    sched, net, sender, node = build(cost=0.5)
    for i in range(4):
        sender.send("dst", "m", i)
    sched.run()
    assert abs(node.cpu_time - 2.0) < 1e-9


def test_bounded_inbox_drops_overflow():
    sched, net, sender, node = build(cost=10.0, capacity=2)
    for i in range(10):
        sender.send("dst", "m", i)
    sched.run_until(5.0)
    # One message is in processing, two are queued; the rest were dropped.
    assert node.dropped_messages > 0
    assert node.dropped_messages >= 10 - 3 - 1


def test_unbounded_inbox_never_drops():
    sched, net, sender, node = build(cost=10.0, capacity=None)
    for i in range(50):
        sender.send("dst", "m", i)
    sched.run_until(1.0)
    assert node.dropped_messages == 0


def test_zero_cost_messages_processed_same_tick():
    sched, net, sender, node = build(cost=0.0)
    sender.send("dst", "m", "fast")
    sched.run()
    assert node.handled[0][1] == "fast"


def test_crash_stops_processing_and_clears_inbox():
    sched, net, sender, node = build(cost=1.0)
    for i in range(5):
        sender.send("dst", "m", i)
    sched.run_until(0.5)  # first message mid-processing
    node.crash()
    sched.run()
    assert node.handled == []
    assert len(node.inbox) == 0


def test_crashed_node_does_not_send():
    sched, net, sender, node = build()
    node.crash()
    node.send("src", "m", "x")
    sched.run()
    assert net.stats.messages_sent == 0


def test_timer_fires():
    sched, net, sender, node = build()
    fired = []
    node.set_timer(2.0, fired.append, "tick")
    sched.run()
    assert fired == ["tick"]


def test_timer_suppressed_after_crash():
    sched, net, sender, node = build()
    fired = []
    node.set_timer(2.0, fired.append, "tick")
    node.crash()
    sched.run()
    assert fired == []


def test_crash_discards_deferred_cost():
    """Deferred work pending at crash time dies with the process: the
    first post-recovery message must not be charged for it.

    ``defer_cost`` called outside a message handler (a timer callback
    discovering work, e.g. replay) parks cost until the next message
    drain — a crash in that window must drop it."""
    sched, net, sender, node = build(cost=0.0)
    node.defer_cost(10.0)  # timer-context work, not yet drained
    node.crash()
    assert node._deferred_cost == 0.0
    node.recover()
    sender.send("dst", "m", "after")
    sched.run()
    assert node.handled[-1][1] == "after"
    # The post-recovery message was processed without inheriting the
    # pre-crash 10s busy window.
    assert sched.now < 10.0
    assert node.cpu_time == 0.0


def test_recover_allows_new_work():
    sched, net, sender, node = build(cost=0.0)
    node.crash()
    node.recover()
    sender.send("dst", "m", "after")
    sched.run()
    assert node.handled[0][1] == "after"


def test_fired_timers_leave_the_node():
    sched, net, sender, node = build()
    fired = []
    for i in range(5):
        node.set_timer(float(i + 1), fired.append, i)
    pending = node.set_timer(10.0, fired.append, "pending")
    sched.run_until(6.0)
    assert fired == [0, 1, 2, 3, 4]
    assert list(node._timers) == [pending]
    node.crash()
    sched.run()
    assert fired == [0, 1, 2, 3, 4]
    assert pending.cancelled
    assert not node._timers


def test_cancelled_timers_are_pruned():
    sched, net, sender, node = build()
    for _ in range(1000):
        node.set_timer(5.0, lambda: None).cancel()
    assert len(node._timers) < 200


def test_pbft_replicas_hold_only_pending_timers():
    """Fired batch ticks, watchdog slots and sync retries leave the
    replica: after a run only its pending timers remain."""
    from repro.core import Driver, DriverConfig
    from repro.platforms import build_cluster
    from repro.workloads import make_workload

    cluster = build_cluster("hyperledger", 4, seed=3)
    driver = Driver(
        cluster,
        make_workload("ycsb"),
        DriverConfig(n_clients=2, request_rate_tx_s=40, duration_s=10.0),
    )
    driver.run(extra_drain_s=0.0)
    assert cluster.chain_height() > 0
    for node in cluster.nodes:
        assert len(node._timers) <= 4, (node.node_id, len(node._timers))
    cluster.close()


def test_zero_cost_burst_at_one_instant_does_not_recurse():
    """10,000 zero-cost messages landing at one instant: the inline
    hand-off must not nest one stack frame per message."""
    sched, net, sender, node = build(cost=0.0)
    for i in range(10_000):
        sender.send("dst", "m", i)
    sched.run()
    assert [payload for _, payload in node.handled] == list(range(10_000))
    assert len({t for t, _ in node.handled}) == 1
