"""The benchmark's way of running a workload must not change it.

On every workload, at a short length, a plain ``run_experiment`` of the
spec, the benchmark's sliced run and its traced run (spans wrapped
around public methods) must reach byte-identical outcome digests:
summary, chain height and an honest replica's state root.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import bench  # noqa: E402
import repro.core.runner as runner  # noqa: E402
from repro.sim.network import Network  # noqa: E402
from spans import SpanTracer  # noqa: E402

#: Load window per workload: long enough for blocks to confirm and, on
#: cold-recovery, for the crash at 1 s to precede the restart.
SHORT_LOAD_S = {
    "ycsb-pow": 30.0,
    "smallbank-pbft": 2.0,
    "openloop-100k": 2.0,
    "cold-recovery": 5.0,
}


def _plain_digest(monkeypatch, workload, seed, load_s):
    built = []

    def capture(*args, **kwargs):
        built.append(bench.build_cluster(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(runner, "build_cluster", capture)
    result = runner.run_experiment(workload.make_spec(seed, load_s))
    return bench.outcome_digest(result.summary, built[0])


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_sliced_and_traced_runs_match_run_experiment(monkeypatch, name):
    workload = bench.WORKLOADS[name]
    load_s = SHORT_LOAD_S[name]
    seed = 5
    plain = _plain_digest(monkeypatch, workload, seed, load_s)
    sliced = bench.run_rep(workload, seed, load_s=load_s)
    tracer = SpanTracer()
    traced = bench.run_rep(workload, seed, load_s=load_s, tracer=tracer)

    assert sliced.problems == []
    assert traced.problems == []
    assert sliced.digest == plain
    assert traced.digest == plain
    assert sliced.summary.confirmed > 0
    assert tracer.calls["sim.run"] == len(traced.slice_s)
    assert tracer.calls["sim.send"] > 0
    # The wrappers come off after the run.
    assert not hasattr(Network.send, "__wrapped__")


def test_pinned_digests_cover_every_workload():
    assert sorted(bench.PINNED_DIGESTS) == sorted(bench.WORKLOADS)
