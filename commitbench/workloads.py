"""The benchmark's three workloads.

Each builds its inputs from the seed given on the command line, runs them
through the program's public entry points (``run_open_loop``,
``run_soak``, ``run_seed_sweep``), and checks every output with
:mod:`checks`.  A workload's work is split into *units* (one sub-run, or
one sweep); a *round* is every unit once, and a run repeats whole rounds.
"""

from __future__ import annotations

import gc
import random
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from repro.chaos.faults import FaultPlan
from repro.chaos.runner import run_chaos_seed, run_seed_sweep
from repro.errors import ReproError
from repro.perf.parallel import parallel_map
from repro.perf.pool import get_pool, shutdown_pool
from repro.soak.engine import SoakConfig, run_soak
from repro.system.cluster import Cluster
from repro.system.config import SystemConfig
from repro.system.openloop import run_open_loop
from repro.txn.operations import OpKind, Operation
from repro.workload.base import WorkloadGenerator

import checks
from layers import Capture, Tracer

SRC = Path(__file__).resolve().parent.parent / "src"


@dataclass
class Unit:
    """One unit of measured work and what checking it found."""

    attempted: int
    commits: int = 0
    wall_s: float = 0.0
    latencies: list[float] = field(default_factory=list)
    fingerprint: tuple = ()
    problems: list[str] = field(default_factory=list)
    # Host speed relative to the reference host while the unit ran.
    host_speed: float = 1.0
    # Program-kept counts read after the run: abort reasons, lock parks,
    # deadlock cycles, retransmits, audit checks, recovery window.
    counters: Counter = field(default_factory=Counter)


class Replay(WorkloadGenerator):
    """Hands the program the operation lists the benchmark generated."""

    def __init__(self, ops: list[list[Operation]]) -> None:
        self.ops = ops

    def generate(self, txn_seq, rng):
        return self.ops[txn_seq - 1]


def uniform_ops(rng: random.Random, items: int, max_ops: int) -> list[Operation]:
    """1..max_ops operations, each a write with probability 1/2, on
    uniformly chosen items."""
    return [
        Operation(OpKind.WRITE if rng.random() < 0.5 else OpKind.READ,
                  rng.randrange(items))
        for _ in range(rng.randint(1, max_ops))
    ]


def wisconsin_ops(rng: random.Random, items: int, scan: int,
                  read_fraction: float) -> list[Operation]:
    """A range scan of ``scan`` contiguous items with probability
    ``read_fraction``, else a point update (read then write one item)."""
    if rng.random() < read_fraction:
        first = rng.randint(0, items - scan)
        return [Operation(OpKind.READ, first + k) for k in range(scan)]
    item = rng.randrange(items)
    return [Operation(OpKind.READ, item), Operation(OpKind.WRITE, item)]


def import_seconds(modules: tuple[str, ...]) -> float:
    """Wall time to import ``modules`` in a fresh interpreter."""
    code = (
        f"import sys, time; sys.path.insert(0, {str(SRC)!r}); "
        f"t = time.perf_counter(); import {', '.join(modules)}; "
        "print(time.perf_counter() - t)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, timeout=60,
    )
    return float(out.stdout)


def peak_heap_kib(fn, *args, **kwargs) -> float:
    """tracemalloc peak of one call, in KiB (an untimed run of its own)."""
    gc.collect()
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] / 1024.0
    finally:
        tracemalloc.stop()


def timed(unit: Unit, fn, *args, **kwargs):
    """Run ``fn`` with the wall clock on ``unit``; a program error leaves
    the unit's transactions without outcomes."""
    gc.collect()
    start = time.perf_counter()
    try:
        result = fn(*args, **kwargs)
    except ReproError as exc:
        unit.problems.append(f"{type(exc).__name__}: {exc}")
        result = None
    unit.wall_s = time.perf_counter() - start
    return result


def cluster_counters(clusters) -> Counter:
    counters: Counter = Counter()
    for cluster in clusters:
        for site in cluster.sites:
            if site.lock_service is not None:
                counters["txn.lock_parks"] += site.lock_service.parks
        service = cluster.sites[0].lock_service
        if service is not None and service.detector is not None:
            counters["deadlock.cycles"] += service.detector.deadlocks_found
        if cluster.network.reliable is not None:
            counters["net.retransmits"] += (
                cluster.network.reliable.stats.retransmissions
            )
    return counters


def abort_counters(records) -> Counter:
    """Protocol aborts per reason, over every attempt."""
    return Counter(
        f"aborts.{record.abort_reason.value}"
        for record in records if not record.committed
    )


def outcome_digest(records) -> tuple:
    return tuple(
        (r.txn_id, r.committed, r.abort_reason.value, r.submitted_at, r.finished_at)
        for r in records
    )


class SubRuns:
    """A workload whose units are independent simulator runs of ``TXNS``
    transactions each, from inputs generated per unit."""

    SUBRUNS: int
    TXNS: int
    name: str
    modules: tuple[str, ...]

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.units = list(range(self.SUBRUNS))
        self.inputs = self.make_inputs()

    def rng(self, index: int) -> random.Random:
        return random.Random(f"{self.name}/{self.seed}/{index}")

    def setup(self) -> float:
        """One set-up: imports, input generation, cluster construction."""
        seconds = import_seconds(self.modules)
        start = time.perf_counter()
        self.inputs = self.make_inputs()
        for config in self.system_configs():
            Cluster(config)
        return seconds + time.perf_counter() - start

    def peak_heap_kib(self) -> float:
        return peak_heap_kib(self.call, 0)

    def measure(self, index: int, tracer: Tracer | None = None) -> Unit:
        unit = Unit(attempted=self.TXNS)
        with Capture() as capture:
            if tracer is None:
                result = timed(unit, self.call, index)
            else:
                with tracer:
                    result = timed(unit, tracer.root, "driver", self.call, index)
        if result is not None:
            unit.commits = result.commits
            records = self.check(unit, result, capture)
            unit.fingerprint = (result.events_fired, outcome_digest(records))
            unit.counters.update(cluster_counters(capture.clusters))
            unit.counters.update(abort_counters(records))
            unit.counters["attempts"] = len(records)
        return unit

    def trace(self, index: int) -> tuple[Unit, Unit, Tracer]:
        plain = self.measure(index)
        tracer = Tracer()
        return plain, self.measure(index, tracer), tracer


class OpenLoop(SubRuns):
    """``steady-2pl``: a fault-free concurrent open loop under strict 2PL
    and global deadlock detection.

    4 sites, 128 items, 1-5 operations per transaction, half of them
    writes on uniform keys, 5 cores and 9 ms wire latency.  Poisson
    arrivals at 25 tps, below this configuration's ~30 tps saturation;
    deadlock victims are resubmitted up to 5 times.  A round is 16
    sub-runs of 2000 transactions with independent inputs: the commit p99
    of one 4000-transaction run moves by about 20% from seed to seed, and
    pooled over 32000 transactions by about 7%.
    """

    name = "steady-2pl"
    modules = ("repro.system.openloop",)
    SUBRUNS = 16
    TXNS = 2000
    RATE_TPS = 25.0
    RETRIES = 5
    ITEMS = 128
    MAX_OPS = 5

    def make_inputs(self):
        inputs = []
        for index in range(self.SUBRUNS):
            rng = self.rng(index)
            config = SystemConfig(
                seed=rng.getrandbits(32), num_sites=4, db_size=self.ITEMS,
                max_txn_size=self.MAX_OPS, cores=5, wire_latency_ms=9.0,
                concurrency_control=True,
            )
            ops = [uniform_ops(rng, self.ITEMS, self.MAX_OPS) for _ in range(self.TXNS)]
            inputs.append((config, ops))
        return inputs

    def system_configs(self):
        return [config for config, _ops in self.inputs]

    def call(self, index: int):
        config, ops = self.inputs[index]
        return run_open_loop(
            config, workload=Replay(ops), txn_count=self.TXNS,
            arrival_rate_tps=self.RATE_TPS, deadlock_retries=self.RETRIES,
        )

    def check(self, unit: Unit, result, capture: Capture) -> list:
        """Check one sub-run's outputs; returns its outcome records."""
        records = result.records
        unit.problems += checks.check_outcomes(
            records, self.TXNS, capture.retried, result.commits
        )
        unit.problems += checks.check_replicas(capture.clusters[0])
        unit.latencies = checks.client_latencies(records, self.TXNS, capture.retried)
        return records


class _ReplaySoakConfig(SoakConfig):
    """A soak whose transactions are the benchmark's generated inputs."""

    def __init__(self, ops: list[list[Operation]], **kwargs) -> None:
        super().__init__(**kwargs)
        self.ops = ops

    def build_workload(self, system):
        return Replay(self.ops)


class CrashRecover(SubRuns):
    """``crash-recover``: the soak engine through one crash and recovery.

    The Wisconsin mix (70% five-item range scans, 30% point updates) at
    25 tps on the same 4-site cluster; site 2 crashes at ~35% of the run
    and recovers at ~60%, with timeout-based failure detection and the
    parallel recovery policy.  A round is 4 sub-runs of 3000
    transactions, each with its own crash and recovery.
    """

    name = "crash-recover"
    modules = ("repro.soak.engine",)
    SUBRUNS = 4
    TXNS = 3000
    RATE_TPS = 25.0
    ITEMS = 128
    SCAN = 5
    READ_FRACTION = 0.7
    FAIL_SITE = 2

    def make_inputs(self):
        inputs = []
        for index in range(self.SUBRUNS):
            rng = self.rng(index)
            sim_seed = rng.getrandbits(32)
            ops = [
                wisconsin_ops(rng, self.ITEMS, self.SCAN, self.READ_FRACTION)
                for _ in range(self.TXNS)
            ]
            inputs.append(_ReplaySoakConfig(
                ops, seed=sim_seed, txns=self.TXNS, rate_tps=self.RATE_TPS,
                workload="wisconsin", read_fraction=self.READ_FRACTION,
                db_size=self.ITEMS, max_txn_size=self.SCAN,
                detection="timeout", recovery_policy="parallel",
                fail_site=self.FAIL_SITE,
            ))
        return inputs

    def system_configs(self):
        return [config.system_config() for config in self.inputs]

    def call(self, index: int):
        return run_soak(self.inputs[index])

    def check(self, unit: Unit, result, capture: Capture) -> list:
        """Check one sub-run's outputs; returns its outcome records."""
        records = capture.records
        unit.problems += checks.check_outcomes(records, self.TXNS, [], result.commits)
        unit.problems += checks.check_replicas(capture.clusters[0])
        unit.problems += checks.check_recovery(result.recoveries, self.FAIL_SITE)
        unit.latencies = checks.client_latencies(records, self.TXNS, [])
        unit.counters["recovery.window_ms"] = sum(
            period.finished_at - period.started_at
            for period in result.recoveries if period.finished_at is not None
        )
        return records


def _timed_chaos_seed(spec):
    """Pool task: one chaos seed and the worker's wall time for it."""
    seed, txns, plan = spec
    start = time.perf_counter()
    result = run_chaos_seed(seed, txns=txns, plan=plan)
    return time.perf_counter() - start, result


class ChaosSweep:
    """``chaos-sweep``: short chaos sweeps through one warm worker pool.

    A round is 8 sweeps of 8 seeds x 40 serial transactions, alternating
    the default and the lossy-core fault plans, with the online invariant
    auditor on, each run through ``run_seed_sweep(jobs=2)``.  Commit
    latencies and the reference results come from a serial run of the
    same seeds in this process (:meth:`prepare`).
    """

    name = "chaos-sweep"
    modules = ("repro.chaos.runner", "repro.perf.pool")
    SWEEPS = 8
    SEEDS = 8
    TXNS = 40
    JOBS = 2

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.units = list(range(self.SWEEPS))
        self.inputs = self.make_inputs()
        self.reference: list[tuple[Unit, list]] = []

    def make_inputs(self):
        rng = random.Random(f"{self.name}/{self.seed}")
        seeds = rng.sample(range(1, 2**31), self.SWEEPS * self.SEEDS)
        return [
            (seeds[i * self.SEEDS:(i + 1) * self.SEEDS],
             FaultPlan() if i % 2 == 0 else FaultPlan.lossy())
            for i in range(self.SWEEPS)
        ]

    def setup(self) -> float:
        """Imports, input generation, and a fresh pool started and warmed."""
        seconds = import_seconds(self.modules)
        shutdown_pool()
        start = time.perf_counter()
        self.inputs = self.make_inputs()
        get_pool(self.JOBS)
        parallel_map(abs, range(self.JOBS), jobs=self.JOBS)
        return seconds + time.perf_counter() - start

    def close(self) -> None:
        shutdown_pool()

    def serial(self, index: int):
        seeds, plan = self.inputs[index]
        return run_seed_sweep(seeds, txns=self.TXNS, plan=plan)

    def prepare(self) -> None:
        """Run every sweep of the round serially, in this process."""
        self.reference = [self.serial_unit(index) for index in self.units]

    def serial_unit(self, index: int, tracer: Tracer | None = None):
        """One sweep run serially and checked: ``(unit, results)``."""
        unit = Unit(attempted=self.SEEDS * self.TXNS)
        with Capture() as capture:
            if tracer is None:
                report = timed(unit, self.serial, index)
            else:
                with tracer:
                    report = timed(unit, tracer.root, "driver", self.serial, index)
        if report is None:
            return unit, []
        results = report.results
        unit.commits = sum(r.commits for r in results)
        unit.problems += checks.check_seeds(results, self.TXNS)
        unit.fingerprint = tuple(
            (r.seed, r.commits, r.aborts, r.events_fired) for r in results
        )
        for cluster in capture.clusters:
            records = cluster.metrics.txns
            unit.problems += checks.check_outcomes(
                records, self.TXNS, [], cluster.metrics.counters.get("commits")
            )
            unit.latencies += checks.client_latencies(records, self.TXNS, [])
            unit.counters.update(abort_counters(records))
            unit.counters["attempts"] += len(records)
        unit.counters.update(cluster_counters(capture.clusters))
        unit.counters["chaos.audit_checks"] = sum(r.checks for r in results)
        unit.counters["chaos.faults_injected"] = sum(
            r.fault_stats.total for r in results
        )
        return unit, results

    def peak_heap_kib(self) -> float:
        return peak_heap_kib(self.serial, 0)

    def measure(self, index: int) -> Unit:
        """One sweep through the pool, checked against the serial run."""
        seeds, plan = self.inputs[index]
        unit = Unit(attempted=self.SEEDS * self.TXNS)
        report = timed(unit, run_seed_sweep, seeds, txns=self.TXNS, plan=plan,
                       jobs=self.JOBS)
        if report is not None:
            reference, results = self.reference[index]
            unit.commits = sum(r.commits for r in report.results)
            unit.problems += reference.problems + checks.check_pool(
                report.results, results
            )
            unit.latencies = reference.latencies
            unit.fingerprint = reference.fingerprint
        return unit

    def trace(self, index: int) -> tuple[Unit, Unit, Tracer]:
        """Serial untraced and traced runs of one sweep, then the same
        sweep through the pool with each worker timing its seeds."""
        plain, _ = self.serial_unit(index)
        tracer = Tracer()
        traced, results = self.serial_unit(index, tracer)
        seeds, plan = self.inputs[index]
        gc.collect()
        start = time.perf_counter()
        out = parallel_map(
            _timed_chaos_seed, [(seed, self.TXNS, plan) for seed in seeds],
            jobs=self.JOBS,
        )
        wall = time.perf_counter() - start
        busy = sum(seconds for seconds, _ in out)
        traced.problems += checks.check_pool([r for _, r in out], results)
        traced.counters["pool.worker_busy_s"] = busy
        traced.counters["pool.overhead_s_per_sweep"] = wall - busy / self.JOBS
        return plain, traced, tracer


WORKLOADS = {w.name: w for w in (OpenLoop, CrashRecover, ChaosSweep)}
