"""Commit benchmark for the replicated-copy-control simulator.

Usage (from the repository root)::

    python3 commitbench/run.py --workload steady-2pl --seed 1 --seconds 20 --trace 0
    python3 commitbench/run.py --workload all --seed 9001

``--trace 0`` prints the end-to-end metrics (committed transactions per
wall-second, set-up time, peak heap, commits, simulated commit latency);
``--trace 1`` runs every unit again with span tracing on and prints the
per-layer table instead.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time
from pathlib import Path

from probe import host_speed

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# Set-ups per run; the median is reported.
SETUPS = 3

END_TO_END_UNITS = {
    "commits_per_s": "txn/s",
    "setup_s": "s",
    "peak_heap_kb": "KiB",
    "commits": "count",
    "commit_mean_ms": "ms",
    "commit_p99_ms": "ms",
}

COUNTED = (
    "sim.events", "net.messages", "net.retransmits", "site.handler_calls",
    "txn.lock_requests", "txn.lock_parks", "deadlock.reports",
    "deadlock.cycles", "core.faillocks_set", "core.faillocks_cleared",
    "core.control_txns", "core.copier_requests", "recovery.batch_copiers",
    "storage.writes_applied", "storage.copy_installs", "metrics.records",
    "chaos.audit_checks", "chaos.faults_injected",
)
ABORT_REASONS = (
    "copy_unavailable", "copier_source_down", "participant_failed",
    "participant_timeout", "coordinator_failed", "session_changed",
    "lock_deadlock", "write_all_blocked", "quorum_unavailable",
)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def repeat(seconds: float, one_round) -> list:
    """Whole rounds until the next one would end past ``seconds``."""
    rounds = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        rounds.append(one_round())
        took = time.perf_counter() - began
        if time.perf_counter() - start + took > seconds:
            return rounds


def check_replay(rounds: list[list], key) -> None:
    """Simulated outcomes of a unit must repeat exactly in every round."""
    first = [key(item) for item in rounds[0]]
    for later in rounds[1:]:
        for reference, item in zip(first, later):
            unit = key(item)
            if unit.fingerprint != reference.fingerprint:
                unit.problems.append("simulated outcome differs from round 1")


def probed_round(workload) -> list:
    """Every unit once, with the host-speed probe between every two."""
    units = []
    before = host_speed()
    for index in workload.units:
        unit = workload.measure(index)
        after = host_speed()
        unit.host_speed = (before + after) / 2
        units.append(unit)
        before = after
    return units


def end_to_end(workload, seconds: float):
    setup_s = statistics.median(workload.setup() for _ in range(SETUPS))
    if hasattr(workload, "prepare"):
        workload.prepare()
    heap = workload.peak_heap_kib()
    rounds = repeat(seconds, lambda: probed_round(workload))
    check_replay(rounds, lambda unit: unit)
    units = [unit for units in rounds for unit in units]
    latencies = [x for unit in rounds[0] for x in unit.latencies]
    print(f"{workload.name}: unscaled median "
          f"{statistics.median(u.commits / u.wall_s for u in units):.1f} txn/s, "
          f"host speed median {statistics.median(u.host_speed for u in units):.3f}")
    metrics = {
        "commits_per_s": statistics.median(
            u.commits / u.wall_s / u.host_speed for u in units
        ),
        "setup_s": setup_s,
        "peak_heap_kb": heap,
        "commits": sum(unit.commits for unit in rounds[0]),
        "commit_mean_ms": statistics.fmean(latencies),
        "commit_p99_ms": percentile(latencies, 0.99),
    }
    return units, {name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()}


def per_layer(workload, seconds: float):
    workload.setup()
    if hasattr(workload, "prepare"):
        workload.prepare()
    rounds = repeat(seconds, lambda: [workload.trace(i) for i in workload.units])
    check_replay(rounds, lambda pair: pair[0])
    for plain, traced, _tracer in (t for r in rounds for t in r):
        if traced.fingerprint != plain.fingerprint:
            traced.problems.append("traced run differs from the untraced one")

    self_s: dict[str, list[float]] = {}
    overhead = []
    for triples in rounds:
        totals: dict[str, float] = {}
        for _plain, _traced, tracer in triples:
            for layer, seconds_ in tracer.self_times().items():
                totals[layer] = totals.get(layer, 0.0) + seconds_
        for layer, seconds_ in totals.items():
            self_s.setdefault(layer, []).append(seconds_)
        overhead.append(sum(t.wall_s - p.wall_s for p, t, _ in triples))

    counts: dict[str, float] = {}
    commits = 0
    for _plain, traced, tracer in rounds[0]:
        commits += traced.commits
        for source in (tracer.counts, traced.counters):
            for name, value in source.items():
                counts[name] = counts.get(name, 0) + value
    sweeps = [t for r in rounds for _p, t, _ in r]

    def count(name):
        return counts.get(name, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    metrics = {name: (count(name), "count") for name in COUNTED}
    metrics.update({f"{layer}.self_s": (statistics.median(v), "s")
                    for layer, v in self_s.items()})
    metrics.update({
        "sim.events_per_commit": (ratio(count("sim.events"), commits), "events/commit"),
        "net.msgs_per_commit": (ratio(count("net.messages"), commits), "msgs/commit"),
        "txn.commit_ratio": (ratio(commits, count("attempts")), "ratio"),
        "storage.install_useful_ratio": (
            ratio(count("storage.useful_installs"), count("storage.copy_installs")),
            "ratio",
        ),
        "recovery.window_ms": (count("recovery.window_ms") / len(rounds[0]), "ms"),
        "pool.overhead_s_per_sweep": (statistics.median(
            t.counters.get("pool.overhead_s_per_sweep", 0.0) for t in sweeps), "s"),
        "pool.worker_busy_s": (statistics.median(
            t.counters.get("pool.worker_busy_s", 0.0) for t in sweeps), "s"),
        "trace.overhead_s": (statistics.median(overhead), "s"),
    })
    metrics.update({f"aborts.{reason}": (count(f"aborts.{reason}"), "count")
                    for reason in ABORT_REASONS})
    units = [unit for r in rounds for p, t, _ in r for unit in (p, t)]
    return units, dict(sorted(metrics.items()))


def run_workload(workload, seconds: float, trace: bool) -> dict:
    try:
        units, metrics = (per_layer if trace else end_to_end)(workload, seconds)
    finally:
        if hasattr(workload, "close"):
            workload.close()
    problems = [p for unit in units for p in unit.problems]
    attempted = sum(unit.attempted for unit in units)
    failed = sum(unit.attempted for unit in units if unit.problems)
    print(f"{workload.name}: attempted {attempted} transactions, {failed} failed")
    for problem in problems[:10]:
        print(f"  FAILED CHECK: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:16.6g} {unit}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=("steady-2pl", "crash-recover", "chaos-sweep", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"commitbench: program sources not found at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {
        name: run_workload(WORKLOADS[name](args.seed), args.seconds, bool(args.trace))
        for name in names
    }
    if len(results) == 1:
        (final,) = results.values()
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{metric}": value
                        for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
