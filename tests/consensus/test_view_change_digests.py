"""Pinned timelines for PBFT runs that go through view changes.

The faultless digest pins (trace differential, client modes, execution
cache) never make a replica's no-progress watchdog act. These runs do:
a crashed primary (warm, and cold with client failover), a silent
primary, and one and two equivocators (the last forks the chain). Each
digest covers the persisted run file plus every replica's view, view
change counters and executed block hashes, so a change to when a
watchdog fires, or to the order of events at one instant, shows here.

The constants were captured on the commit before the single-watchdog
and inline-hand-off scheduler work. Recapture them only for a change
that is meant to alter simulated behaviour.
"""

import hashlib
import itertools
import json

import pytest

import repro.chain.transaction as transaction
import repro.core.runner as runner
from repro.core import ByzantineFault, CrashFault, FaultSchedule
from repro.core.runner import ExperimentSpec
from repro.core.suitestore import result_to_dict


def _crash_spec(mode, failover=False):
    # test_recovery's primary-crash scenario: server-0 leads view 0.
    return ExperimentSpec(
        platform="hyperledger",
        workload="ycsb",
        n_servers=4,
        n_clients=2,
        request_rate_tx_s=40.0,
        duration_s=30.0,
        seed=23,
        failover=failover,
        faults=FaultSchedule(
            crashes=[
                CrashFault(
                    at_time=5.0, count=1, recover_at=12.0, recovery_mode=mode
                )
            ]
        ),
    )


def _byzantine_spec(behavior, count, duration=12.0, rate=20.0):
    # test_byzantine's scenario: the window covers the middle half.
    return ExperimentSpec(
        platform="hyperledger",
        workload="ycsb",
        n_servers=4,
        n_clients=4,
        request_rate_tx_s=rate,
        duration_s=duration,
        seed=7,
        faults=FaultSchedule(
            byzantines=[
                ByzantineFault(
                    at_time=duration / 4,
                    until_time=duration * 3 / 4,
                    behavior=behavior,
                    count=count,
                )
            ]
        ),
    )


SPECS = {
    "primary-crash-warm": lambda: _crash_spec("warm"),
    "primary-crash-cold-failover": lambda: _crash_spec("cold", failover=True),
    "silent-x1": lambda: _byzantine_spec("silent", 1),
    "equivocate-x1": lambda: _byzantine_spec("equivocate", 1),
    "equivocate-x2": lambda: _byzantine_spec(
        "equivocate", 2, duration=30.0, rate=50.0
    ),
}

PINNED = {
    "primary-crash-warm": (
        "8507c2c129ac0efd885ca15428ea316c1052f726a18565afda7196f2109ebb28"
    ),
    "primary-crash-cold-failover": (
        "2c8790c300eb3214d853e246a6428942bd5f83d44b72c4c32ab7b9316af8c0b8"
    ),
    "silent-x1": (
        "9a166128c1a0a2015a9ad7dc7896f993e6bb274c4b23e74019b200328f5c2c11"
    ),
    "equivocate-x1": (
        "fd54d4f8a39cf6f5d16337786153d613b36931e35688f427456a5783bc57cf41"
    ),
    "equivocate-x2": (
        "fda07b621164d4f21b531cd06ff2ee8725992c097d26d6e44f51b339a3d27385"
    ),
}


def run_digest(monkeypatch, name):
    """sha256 over the run file and every replica's consensus record."""
    # Transaction nonces come from a process-wide counter; restarting
    # it makes block hashes independent of what ran earlier.
    monkeypatch.setattr(transaction, "_tx_counter", itertools.count())
    built = []

    def capture(*args, **kwargs):
        built.append(runner_build(*args, **kwargs))
        return built[-1]

    runner_build = runner.build_cluster
    monkeypatch.setattr(runner, "build_cluster", capture)
    result = runner.run_experiment(SPECS[name]())
    (cluster,) = built
    data = {
        "run": result_to_dict(result),
        "replicas": [
            {
                "node": node.node_id,
                "view": node.protocol.view,
                "view_changes_started": node.protocol.view_changes_started,
                "views_entered": node.protocol.views_entered,
                "batches_committed": node.protocol.batches_committed,
                "blocks": [
                    node.executed_block_hashes[h].hex()
                    for h in sorted(node.executed_block_hashes)
                ],
            }
            for node in cluster.nodes
        ],
    }
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest(), result


@pytest.mark.parametrize("name", sorted(SPECS))
def test_view_change_timeline_is_pinned(monkeypatch, name):
    digest, result = run_digest(monkeypatch, name)
    assert result.view_changes > 0
    assert digest == PINNED[name]
