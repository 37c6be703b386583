"""Workloads, the sliced run and its output checks.

One *rep* builds a fresh cluster from an ``ExperimentSpec``, starts the
clients and advances ``Cluster.run_until`` in 100 ms simulated slices,
timing each slice on the host clock. It uses only public calls
(``build_cluster``, ``make_workload``, ``Driver``/``OpenLoopDriver``,
each client's ``start``, ``Cluster.run_until``), and its simulated
outcome is byte-identical to ``run_experiment`` on the same spec.

A run repeats reps, each on a seed derived from the run's seed, until
its time budget is spent, and reports medians over them.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

from repro.core.driver import Driver, DriverConfig, OpenLoopDriver
from repro.core.faults import CrashFault, FaultSchedule
from repro.core.runner import ExperimentSpec
from repro.core.stats import StatsSummary, merge_collectors
from repro.core.workload import ArrivalSpec
from repro.platforms.base import PlatformState
from repro.platforms.cluster import Cluster, build_cluster
from repro.workloads import make_workload

from spans import SPAN_NAMES, Patcher, SpanTracer

#: Simulated seconds advanced per ``run_until`` call.
SLICE_S = 0.1
#: The seed whose outcome digests are pinned in PINNED_DIGESTS.
DEFAULT_SEED = 1
#: Set-up is timed this many times before the measured reps.
SETUP_SAMPLES = 5
#: A run makes at least this many reps, however short its budget.
MIN_REPS = 3


@dataclasses.dataclass(frozen=True)
class Workload:
    """One named benchmark input. Why each was chosen is recorded in
    BENCHMARK.json and perfbench/README.md."""

    name: str
    #: (seed, load window in simulated seconds) -> spec.
    make_spec: Callable[[int, float], ExperimentSpec]
    load_s: float
    #: cold-recovery only: the replica restarted cold after the load.
    victim: str | None = None


def _ycsb_pow(seed: int, load_s: float) -> ExperimentSpec:
    return ExperimentSpec(
        platform="ethereum",
        workload="ycsb",
        n_servers=4,
        n_clients=4,
        request_rate_tx_s=60.0,
        duration_s=load_s,
        # Default 5 s drain: clients poll only 5 s past the load window
        # and PoW confirms ~25 s after submission, so about a third of
        # the transactions are still outstanding at the end.
        seed=seed,
    )


def _smallbank_pbft(seed: int, load_s: float) -> ExperimentSpec:
    return ExperimentSpec(
        platform="hyperledger",
        workload="smallbank",
        n_servers=8,
        n_clients=8,
        request_rate_tx_s=160.0,
        duration_s=load_s,
        drain_s=3.0,
        seed=seed,
    )


def _openloop_100k(seed: int, load_s: float) -> ExperimentSpec:
    return ExperimentSpec(
        platform="hyperledger",
        workload="ycsb",
        n_servers=4,
        duration_s=load_s,
        drain_s=3.0,
        seed=seed,
        arrival={
            "process": "poisson",
            "rate": 1200.0,
            "accounts": 100_000,
            "zipf_s": 1.1,
        },
        stats_reservoir=10_000,
    )


#: The cold-recovery victim (not the PBFT leader) and its restart time
#: after the load window.
COLD_VICTIM = "server-3"
RECOVER_AFTER_LOAD_S = 0.05


def _cold_recovery(seed: int, load_s: float) -> ExperimentSpec:
    return ExperimentSpec(
        platform="hyperledger",
        workload="smallbank",
        n_servers=4,
        n_clients=4,
        request_rate_tx_s=100.0,
        duration_s=load_s,
        # Cold replay plus block sync takes ~6 simulated seconds.
        drain_s=10.0,
        seed=seed,
        failover=True,
        faults=FaultSchedule(
            crashes=[
                CrashFault(
                    at_time=1.0,
                    nodes=[COLD_VICTIM],
                    recover_at=load_s + RECOVER_AFTER_LOAD_S,
                    recovery_mode="cold",
                )
            ]
        ),
    )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("ycsb-pow", _ycsb_pow, load_s=60.0),
        Workload("smallbank-pbft", _smallbank_pbft, load_s=7.0),
        Workload("openloop-100k", _openloop_100k, load_s=7.0),
        Workload("cold-recovery", _cold_recovery, load_s=30.0, victim=COLD_VICTIM),
    )
}

#: sha256 of the simulated outcome of rep 0 on DEFAULT_SEED at each
#: workload's default load. Recapture only for a change that is meant
#: to alter simulated behaviour.
PINNED_DIGESTS: dict[str, str] = {
    "ycsb-pow": "f055b5a5c32f8cae313445753dc076e924b8831efe2e46389a16decb4ff5afc1",
    "smallbank-pbft": "4b834c02eabd74203af9f1045a70b20b1fdf7636c399375d23190f31578216c7",
    "openloop-100k": "4dc7ca9178f17035243134b8b8fec7a869b2907fb38c8e09c5e178f3f6fbfc4e",
    "cold-recovery": "a2bfc32982e12253b4b917609c2c06d9fcf1e0a67661b9901bf6d0f53a59ba4c",
}


# ----------------------------------------------------------------------
# One rep
# ----------------------------------------------------------------------
class RootRecorder:
    """Records every state root a replica commits, per height.

    Keyed by the state object, because a cold restart swaps a node's
    state store for a fresh one that replays the chain.
    """

    def __init__(self) -> None:
        self.roots: dict[PlatformState, dict[int, bytes]] = defaultdict(dict)
        self._patcher = Patcher()

    def install(self) -> None:
        roots = self.roots

        def make(fn):
            def commit_block(state, height):
                root = fn(state, height)
                roots[state][height] = root
                return root

            return commit_block

        self._patcher.wrap(PlatformState, "commit_block", make)

    def uninstall(self) -> None:
        self._patcher.restore()


def driver_config(spec: ExperimentSpec) -> DriverConfig:
    """The DriverConfig ``run_experiment`` builds for ``spec``."""
    return DriverConfig(
        n_clients=spec.n_clients,
        request_rate_tx_s=spec.request_rate_tx_s,
        duration_s=spec.duration_s,
        poll_interval_s=spec.poll_interval_s,
        threads_per_client=spec.threads_per_client,
        retry_interval_s=spec.retry_interval_s,
        blocking=spec.blocking,
        subscribe=spec.subscribe,
        client_mode=spec.client_mode,
        failover=spec.failover,
        max_backoff_s=spec.max_backoff_s,
        arrival=(
            ArrivalSpec.from_dict(spec.arrival)
            if spec.arrival is not None
            else None
        ),
        stats_reservoir=spec.stats_reservoir,
    )


def set_up(spec: ExperimentSpec):
    """Build the cluster, preload the workload and arm the faults."""
    config = driver_config(spec)
    cluster = build_cluster(
        spec.platform,
        spec.n_servers,
        seed=spec.seed,
        config=spec.config,
        config_overrides=spec.config_overrides or None,
        with_monitor=spec.with_monitor,
        trace_stages=spec.trace_stages,
    )
    workload = make_workload(spec.workload, **spec.workload_params)
    driver_cls = OpenLoopDriver if config.arrival is not None else Driver
    driver = driver_cls(cluster, workload, config)
    driver.prepare()
    if spec.faults is not None:
        spec.faults.arm(cluster)
    return cluster, driver


def finish_summary(cluster: Cluster, stats) -> StatsSummary:
    """The summary ``run_experiment`` attaches to its result."""
    summary = stats.summary()
    summary.safety_violations = len(cluster.auditor.report().violations)
    if cluster.tracer is not None:
        summary.stage_breakdown = cluster.tracer.breakdown(
            stats.stage_queue_samples
        )
    summary.recovery_time_s = cluster.recovery_times()
    sync = cluster.sync_traffic()
    summary.sync_requests = sync["requests"]
    summary.sync_blocks = sync["blocks"]
    summary.sync_bytes = sync["bytes"]
    return summary


def outcome_digest(summary: StatsSummary, cluster: Cluster) -> str:
    """sha256 over the summary, chain height and one honest root."""
    honest = cluster.alive_nodes()[0]
    data = {
        "summary": dataclasses.asdict(summary),
        "chain_height": cluster.chain_height(),
        "state_root": honest.state.pre_state_root().hex(),
    }
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _trie_node_writes(cluster: Cluster) -> int:
    total = 0
    for node in cluster.nodes:
        state_trie = getattr(node.state, "trie", None)
        total += getattr(getattr(state_trie, "trie", None), "node_writes", 0)
    return total


def _counters(cluster: Cluster) -> dict[str, int]:
    """Work counters read from public attributes."""
    cache = cluster.nodes[0].execution_cache
    sync = cluster.sync_traffic()
    return {
        "sim.events": cluster.scheduler.events_processed,
        "sim.msgs": cluster.network.stats.messages_sent,
        "exec_cache.hits": cache.hits if cache is not None else 0,
        "exec_cache.misses": cache.misses if cache is not None else 0,
        "sync_blocks": sync["blocks"],
        "sync_bytes": sync["bytes"],
        "trie_node_writes": _trie_node_writes(cluster),
        "view_changes": sum(
            getattr(node.protocol, "view_changes_started", 0)
            for node in cluster.nodes
        ),
    }


def check_replicas(
    cluster: Cluster, roots: dict[PlatformState, dict[int, bytes]]
) -> list[str]:
    """Honest replicas agree on the state root wherever they executed
    the same block; returns the disagreements found."""
    alive = cluster.alive_nodes()
    problems = []
    common = set.intersection(
        *(set(node.executed_block_hashes) for node in alive)
    )
    for height in sorted(common):
        block_hashes = {node.executed_block_hashes[height] for node in alive}
        if len(block_hashes) > 1:
            continue  # a fork below confirmation depth; the auditor's case
        found = {
            node.node_id: roots[node.state][height].hex()[:16] for node in alive
        }
        if len(set(found.values())) > 1:
            problems.append(f"state roots differ at height {height}: {found}")
            break
    return problems


@dataclasses.dataclass
class Rep:
    """What one rep measured and found."""

    seed: int
    setup_s: float
    run_s: float
    slice_s: list[float]
    summary: StatsSummary
    digest: str
    counters: dict[str, int]
    problems: list[str]
    catchup_s: float | None = None
    #: Accepted transactions still awaiting confirmation at the end.
    outstanding: int = 0
    network: dict[str, float] = dataclasses.field(default_factory=dict)


def run_rep(
    workload: Workload,
    seed: int,
    load_s: float | None = None,
    tracer: SpanTracer | None = None,
) -> Rep:
    """Set up and run one rep; ``tracer`` wraps the run phase in spans."""
    load_s = workload.load_s if load_s is None else load_s
    spec = workload.make_spec(seed, load_s)
    recorder = RootRecorder()
    recorder.install()
    if tracer is not None:
        tracer.install()
    try:
        started = time.perf_counter()
        cluster, driver = set_up(spec)
        setup_s = time.perf_counter() - started
        if tracer is not None:
            tracer.reset()
        before = _counters(cluster)
        rep = _run_phase(workload, spec, cluster, driver, load_s)
        rep.setup_s = setup_s
        after = _counters(cluster)
        rep.counters = {k: after[k] - before[k] for k in after}
        if tracer is not None:
            rep.counters["chain.tx_size"] = tracer.counts["chain.tx_size"]
    finally:
        if tracer is not None:
            tracer.uninstall()
        recorder.uninstall()
    rep.problems += check_replicas(cluster, recorder.roots)
    if workload.victim is not None:
        rep.problems += _check_victim(cluster, recorder.roots, workload.victim)
    if rep.summary.safety_violations:
        rep.problems.append(
            f"auditor flagged {rep.summary.safety_violations} safety violations"
        )
    pinned = PINNED_DIGESTS[workload.name]
    if seed == DEFAULT_SEED and load_s == workload.load_s and rep.digest != pinned:
        rep.problems.append(f"outcome digest {rep.digest} != pinned {pinned}")
    cluster.close()
    return rep


def _run_phase(workload, spec, cluster, driver, load_s) -> Rep:
    scheduler = cluster.scheduler
    duration = driver.config.duration_s
    recover_at = load_s + RECOVER_AFTER_LOAD_S
    catchup_start = catchup_s = None
    slices = []
    clock = time.perf_counter
    open_loop = isinstance(driver, OpenLoopDriver)
    started = clock()
    if open_loop:
        driver.start(duration)
    else:
        for client in driver.clients:
            client.start(duration)
    base = scheduler.now
    end = base + duration + spec.drain_s
    k = 0
    while scheduler.now < end:
        k += 1
        deadline = min(base + k * SLICE_S, end)
        t0 = clock()
        cluster.run_until(deadline)
        t1 = clock()
        slices.append(t1 - t0)
        if workload.victim is not None and catchup_s is None:
            if catchup_start is None and deadline >= recover_at:
                catchup_start = t0
            if (
                catchup_start is not None
                and workload.victim in cluster.recovery_times()
            ):
                catchup_s = t1 - catchup_start
    run_s = clock() - started
    if open_loop:
        stats = driver.stats
        outstanding = sum(len(pending) for pending in driver.outstanding)
    else:
        stats = merge_collectors(
            [s for client in driver.clients for s in client.stat_collectors()]
        )
        outstanding = sum(len(client.outstanding) for client in driver.clients)
    summary = finish_summary(cluster, stats)
    network = cluster.network
    return Rep(
        seed=spec.seed,
        setup_s=0.0,
        run_s=run_s,
        slice_s=slices,
        summary=summary,
        digest=outcome_digest(summary, cluster),
        counters={},
        problems=[],
        catchup_s=catchup_s,
        outstanding=outstanding,
        network={
            "base_latency_s": network.base_latency,
            "jitter_s": network.jitter,
            "bandwidth_bps": network.bandwidth_bps,
        },
    )


def _check_victim(cluster, roots, victim_id) -> list[str]:
    """The cold-restarted replica caught up, and its root matches a
    live witness's."""
    if victim_id not in cluster.recovery_times():
        return [f"{victim_id} did not finish recovery"]
    victim = next(n for n in cluster.nodes if n.node_id == victim_id)
    witness = next(n for n in cluster.alive_nodes() if n is not victim)
    height = min(victim.executed_height, witness.executed_height)
    mine = roots[victim.state].get(height)
    theirs = roots[witness.state].get(height)
    if mine is None or mine != theirs:
        return [
            f"{victim_id} root at height {height} differs from "
            f"{witness.node_id}'s"
        ]
    return []


# ----------------------------------------------------------------------
# Host fingerprint
# ----------------------------------------------------------------------
def calibration_score(rounds: int = 5, n: int = 200_000) -> float:
    """Millions of iterations per second of a fixed pure-Python loop
    (best of ``rounds``), for normalizing results across hosts."""
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        acc = 0
        table: dict[int, int] = {}
        for i in range(n):
            acc = (acc * 31 + i) & 0xFFFFFFFF
            table[i & 1023] = acc
        best = min(best, time.perf_counter() - started)
    return n / best / 1e6


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_revision(root: Path) -> str:
    """HEAD's commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_fingerprint(root: Path) -> dict[str, Any]:
    return {
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_revision": _git_revision(root),
        "calibration_mips": round(calibration_score(), 3),
    }


# ----------------------------------------------------------------------
# A run: reps until the time budget is spent
# ----------------------------------------------------------------------
def _quantile(values: list[float], q: float) -> float:
    """The q-quantile (0 < q < 1) by linear interpolation."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lower = int(pos)
    upper = min(lower + 1, len(ordered) - 1)
    return ordered[lower] + (ordered[upper] - ordered[lower]) * (pos - lower)


def rep_seed(seed: int, index: int) -> int:
    """Seed of a run's ``index``-th rep; rep 0 runs on ``seed`` itself.

    Reps vary the seed because PoW block luck alone moves how many
    transactions confirm in a short window by up to 2x between seeds;
    a run's median over many seeds is steady where one seed is not.
    """
    return seed + 7919 * index


def _time_setups(workload: Workload, seed: int) -> list[float]:
    samples = []
    for index in range(SETUP_SAMPLES):
        spec = workload.make_spec(rep_seed(seed, index), workload.load_s)
        gc.collect()
        started = time.perf_counter()
        cluster, _driver = set_up(spec)
        samples.append(time.perf_counter() - started)
        cluster.close()
    return samples


def _budgeted(seconds: float, step: Callable[[int], None]) -> None:
    """Call ``step(index)`` for index 0, 1, ... at least MIN_REPS times,
    then while the next call is expected to end within ``seconds``."""
    started = time.perf_counter()
    durations: list[float] = []
    while True:
        gc.collect()
        t0 = time.perf_counter()
        step(len(durations))
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - started
        if (
            len(durations) >= MIN_REPS
            and elapsed + statistics.median(durations) > seconds
        ):
            return


def _accepted(rep: Rep) -> int:
    return rep.summary.submitted - rep.summary.rejected


def _totals(reps: list[Rep]) -> tuple[int, int]:
    """(transactions accepted, transactions lost): a lost transaction
    was accepted but is neither confirmed nor still outstanding."""
    attempted = sum(_accepted(r) for r in reps)
    settled = sum(r.summary.confirmed + r.outstanding for r in reps)
    return attempted, attempted - settled


def measure(workload: Workload, seed: int, seconds: float) -> dict[str, Any]:
    """Untraced run: the end-to-end metrics, each a median over reps."""
    setups = _time_setups(workload, seed)
    reps: list[Rep] = []
    _budgeted(
        seconds, lambda i: reps.append(run_rep(workload, rep_seed(seed, i)))
    )
    setups += [rep.setup_s for rep in reps]
    accepted = sum(_accepted(r) for r in reps)
    confirmed = sum(r.summary.confirmed for r in reps)
    med = statistics.median
    metrics = {
        "tx_per_host_s": (med(r.summary.confirmed / r.run_s for r in reps), "tx/s"),
        "slice_ms_p50": (med(med(r.slice_s) for r in reps) * 1e3, "ms"),
        "slice_ms_p90": (med(_quantile(r.slice_s, 0.9) for r in reps) * 1e3, "ms"),
        "setup_s": (med(setups), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
        ),
    }
    info = {
        "reps": len(reps),
        "slices": sum(len(r.slice_s) for r in reps),
        "setup_samples": len(setups),
        "failed_share": (accepted - confirmed) / accepted,
    }
    if workload.victim is not None:
        info["catchup_host_s"] = med(r.catchup_s or 0.0 for r in reps)
    return _result(workload, seed, reps, metrics, info)


def measure_layers(
    workload: Workload, seed: int, seconds: float
) -> dict[str, Any]:
    """Traced run: pairs of an untraced and a traced rep on one seed;
    the per-layer metrics come from the traced reps."""
    plain: list[Rep] = []
    traced: list[Rep] = []
    spans: list[SpanTracer] = []

    def pair(index: int) -> None:
        plain.append(run_rep(workload, rep_seed(seed, index)))
        gc.collect()
        tracer = SpanTracer()
        traced.append(run_rep(workload, rep_seed(seed, index), tracer=tracer))
        spans.append(tracer)
        if traced[-1].digest != plain[-1].digest:
            traced[-1].problems.append(
                f"tracing changed the outcome of seed {traced[-1].seed}"
            )

    _budgeted(seconds, pair)

    med = statistics.median
    metrics: dict[str, tuple[float, str]] = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = (med(t.calls[name] for t in spans), "count")
        metrics[f"{name}.self_ms"] = (
            med(t.self_s[name] * 1e3 for t in spans),
            "ms",
        )
    counters = [r.counters for r in traced]
    metrics.update(
        {
            "sim.events": (med(c["sim.events"] for c in counters), "count"),
            "sim.msgs": (med(c["sim.msgs"] for c in counters), "count"),
            "sim.events_per_msg": (
                med(c["sim.events"] / c["sim.msgs"] for c in counters),
                "ratio",
            ),
            "sim.host_us_per_event": (
                med(r.run_s / r.counters["sim.events"] * 1e6 for r in plain),
                "us",
            ),
            "platforms.exec_cache_hit_ratio": (
                med(
                    c["exec_cache.hits"]
                    / max(1, c["exec_cache.hits"] + c["exec_cache.misses"])
                    for c in counters
                ),
                "ratio",
            ),
            "platforms.exec_cache_lookups": (
                med(c["exec_cache.hits"] + c["exec_cache.misses"] for c in counters),
                "count",
            ),
            "platforms.sync_blocks": (
                med(c["sync_blocks"] for c in counters),
                "count",
            ),
            "platforms.sync_bytes": (
                med(c["sync_bytes"] for c in counters),
                "bytes",
            ),
            "platforms.catchup_host_s": (
                med(r.catchup_s or 0.0 for r in plain),
                "s",
            ),
            "crypto.trie_node_writes": (
                med(c["trie_node_writes"] for c in counters),
                "count",
            ),
            "chain.tx_size_calls_per_tx": (
                med(
                    r.counters["chain.tx_size"] / max(1, r.summary.confirmed)
                    for r in traced
                ),
                "ratio",
            ),
            "consensus.view_changes": (
                med(c["view_changes"] for c in counters),
                "count",
            ),
            "trace_overhead": (
                med(b.run_s / a.run_s for a, b in zip(plain, traced)),
                "ratio",
            ),
            "unattributed_share": (
                med(
                    t.self_s["sim.run"] / r.run_s
                    for t, r in zip(spans, traced)
                ),
                "ratio",
            ),
        }
    )
    info = {"pairs": len(traced)}
    return _result(workload, seed, plain + traced, metrics, info)


def _result(workload, seed, reps, metrics, info) -> dict[str, Any]:
    attempted, failed = _totals(reps)
    problems = [p for rep in reps for p in rep.problems]
    return {
        "workload": workload.name,
        "seed": seed,
        "correct": not problems,
        "problems": list(dict.fromkeys(problems)),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
        "info": {
            **info,
            "digests": {rep.seed: rep.digest for rep in reps},
            "network": reps[0].network,
        },
    }
