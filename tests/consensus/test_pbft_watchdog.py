"""PBFT's no-progress watchdog and its O(1) has-work count.

The watchdog keeps one pending timer per replica however often progress
re-arms it; the pinned digests in ``test_view_change_digests.py`` show
it fires exactly where one timer per arm did. Here: the count behind
``_has_work`` equals a scan of the log at every dispatched event of
runs that go through view changes, a replica never holds more than one
watchdog, and stalls replay the view changes of a reference that keeps
one timer per arm.
"""

import pytest

from repro.consensus import PBFT, PBFTConfig
from repro.core import ByzantineFault, CrashFault, Driver, DriverConfig, FaultSchedule
from repro.platforms import build_cluster
from repro.workloads import make_workload

from .harness import build_cluster as build_harness, make_tx, submit_everywhere


def _pbft(node, all_ids):
    return PBFT(node, PBFTConfig(batch_size=5, batch_interval=0.1), all_ids)


def _scan(protocol):
    return sum(not entry.executed for entry in protocol.log.values())


SCENARIOS = {
    "primary-crash": (
        23,
        FaultSchedule(
            crashes=[CrashFault(at_time=5.0, count=1, recover_at=9.0)]
        ),
    ),
    "equivocate-x2": (
        7,
        FaultSchedule(
            byzantines=[
                ByzantineFault(
                    at_time=3.0, until_time=9.0, behavior="equivocate", count=2
                )
            ]
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_unexecuted_count_matches_log_scan_at_every_event(name):
    seed, faults = SCENARIOS[name]
    duration = 12.0
    cluster = build_cluster("hyperledger", 4, seed=seed)
    driver = Driver(
        cluster,
        make_workload("ycsb"),
        DriverConfig(n_clients=2, request_rate_tx_s=40, duration_s=duration),
    )
    driver.prepare()
    faults.arm(cluster)
    for client in driver.clients:
        client.start(duration)
    scheduler = cluster.scheduler
    protocols = [node.protocol for node in cluster.nodes]
    steps = 0
    while scheduler.peek_time() <= duration + 2.0:
        scheduler.step()
        steps += 1
        for protocol in protocols:
            assert protocol._unexecuted == _scan(protocol), (
                f"{protocol.host.node_id} at t={scheduler.now} step {steps}"
            )
            timer = protocol._progress_timer
            assert timer is None or not timer.cancelled
    assert sum(p.view_changes_started for p in protocols) > 0
    cluster.close()


def test_one_pending_watchdog_however_often_progress_rearms():
    """Every submission and every executed batch re-arms the watchdog,
    yet a replica holds one watchdog timer, not one per arm."""
    sched, _net, nodes = build_harness(4, _pbft)
    for i in range(40):
        submit_everywhere(nodes, [make_tx(i)])
        sched.run_until(sched.now + 0.1)
        for node in nodes:
            assert node.protocol._progress_timer in node._timers
            # The batch tick and the watchdog; no timer that fired.
            assert len(node._timers) == 2
    assert all(len(node.committed_blocks) > 1 for node in nodes)


def test_crash_cancels_the_watchdog():
    sched, _net, nodes = build_harness(4, _pbft)
    submit_everywhere(nodes, [make_tx(0)])
    sched.run_until(0.05)
    victim = nodes[1]
    watchdog = victim.protocol._progress_timer
    assert watchdog is not None
    victim.crash()
    assert watchdog.cancelled
    assert victim.protocol._progress_timer is None
    assert not victim._timers


class PerArmTimerPBFT(PBFT):
    """Reference: the watchdog as one timer per arm, each but the
    latest returning without effect when it fires."""

    def _arm_progress_timer(self):
        if not self._running or not self._has_work():
            return
        self._progress_deadline = self.host.now + self.config.view_timeout
        self.host.set_timer(
            self.config.view_timeout, self._per_arm_check, self._progress_deadline
        )

    def _per_arm_check(self, deadline):
        if self._progress_deadline <= deadline:
            self._progress_check()


def _stall_timeline(protocol_cls, seed, crash_at):
    """View changes, in order, of a 4-replica run whose primary crashes.

    Zero jitter puts deliveries, batch ticks and watchdog deadlines on
    exactly equal instants, where only tie order decides what runs.
    """
    config = PBFTConfig(batch_size=4, batch_interval=0.25, view_timeout=2.0)
    sched, net, nodes = build_harness(
        4, lambda node, ids: protocol_cls(node, config, ids), seed=seed
    )
    net.jitter = 0.0
    timeline = []
    for node in nodes:
        protocol = node.protocol
        # Which check started each view change: the watchdog and the
        # batch tick's request timeout both act at exactly equal
        # instants here, so the source shows their tie order.
        for name in ("_progress_check", "_check_request_timeout"):
            check = getattr(protocol, name)

            def traced(check=check, name=name, protocol=protocol):
                before = protocol.view_changes_started
                check()
                if protocol.view_changes_started > before:
                    timeline.append(
                        (sched.now, protocol.host.node_id, protocol.view, name)
                    )

            setattr(protocol, name, traced)
    for i in range(60):
        sched.schedule_at(i * 0.25, submit_everywhere, nodes, [make_tx(i)])
    sched.schedule_at(crash_at, nodes[0].crash)
    sched.run_until(25.0)
    heights = [node.chain().height for node in nodes]
    return timeline, heights, [node.protocol.view for node in nodes]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("crash_at", [2.0, 3.125])
def test_watchdog_matches_one_timer_per_arm(seed, crash_at):
    expected = _stall_timeline(PerArmTimerPBFT, seed, crash_at)
    assert expected[0], "the scenario must exercise the watchdog"
    assert _stall_timeline(PBFT, seed, crash_at) == expected
