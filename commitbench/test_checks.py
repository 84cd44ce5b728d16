"""Self-tests of the benchmark's own checks: each check must reject a
planted fault, and every simulated quantity must repeat exactly for one
seed.  Run from the repository root::

    python3 -m pytest commitbench/test_checks.py
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
from layers import Capture, Tracer  # noqa: E402
from repro.metrics.records import RecoveryPeriodRecord  # noqa: E402
from workloads import ChaosSweep, CrashRecover, OpenLoop  # noqa: E402


class SmallOpenLoop(OpenLoop):
    SUBRUNS = 1
    TXNS = 400


class SmallCrashRecover(CrashRecover):
    SUBRUNS = 1
    TXNS = 1500


class SmallChaosSweep(ChaosSweep):
    SWEEPS = 2
    SEEDS = 4


@pytest.fixture(scope="module")
def open_loop_run():
    workload = SmallOpenLoop(seed=7)
    with Capture() as capture:
        result = workload.call(0)
    return workload, result, capture


def test_replica_check_rejects_an_altered_copy(open_loop_run):
    _workload, _result, capture = open_loop_run
    cluster = capture.clusters[0]
    assert checks.check_replicas(cluster) == []
    copy = cluster.sites[2].db.get(5)
    copy.value += 1
    try:
        assert checks.check_replicas(cluster)
    finally:
        copy.value -= 1


def test_outcome_check_rejects_a_dropped_outcome(open_loop_run):
    workload, result, capture = open_loop_run
    records = result.records
    args = (workload.TXNS, capture.retried, result.commits)
    assert checks.check_outcomes(records, *args) == []
    for index in (0, len(records) // 2, len(records) - 1):
        assert checks.check_outcomes(records[:index] + records[index + 1:], *args)
    assert checks.check_outcomes(records + records[-1:], *args)


def test_retries_link_back_to_their_transaction(open_loop_run):
    workload, result, capture = open_loop_run
    assert capture.retried, "seed 7 should need at least one deadlock retry"
    latencies = checks.client_latencies(result.records, workload.TXNS, capture.retried)
    assert len(latencies) == result.commits
    assert min(latencies) > 0


def test_recovery_check_rejects_an_unclosed_period():
    period = RecoveryPeriodRecord(
        site_id=2, policy="parallel", started_at=100.0, finished_at=250.0,
        initial_stale=10, copier_requests=2, batch_copier_requests=2,
        refreshed_by_write=4, refreshed_by_copier=6, interrupted=False,
    )
    assert checks.check_recovery([period], 2) == []
    for planted in (
        dataclasses.replace(period, interrupted=True),
        dataclasses.replace(period, finished_at=None),
        dataclasses.replace(period, refreshed_by_copier=5),
    ):
        assert checks.check_recovery([planted], 2)
    assert checks.check_recovery([], 2)


def test_pool_check_rejects_a_swapped_result():
    workload = SmallChaosSweep(seed=3)
    try:
        workload.setup()
        workload.prepare()
        unit = workload.measure(0)
        assert unit.problems == []
        _reference, serial = workload.reference[0]
        assert checks.check_pool(list(serial), serial) == []
        swapped = list(serial)
        swapped[0], swapped[1] = swapped[1], swapped[0]
        assert checks.check_pool(swapped, serial)
        changed = list(serial)
        changed[2] = dataclasses.replace(changed[2], commits=changed[2].commits - 1)
        assert checks.check_pool(changed, serial)
    finally:
        workload.close()


@pytest.mark.parametrize("make", [SmallOpenLoop, SmallCrashRecover])
def test_simulated_metrics_repeat_for_one_seed(make):
    workload = make(seed=11)
    first, second = workload.measure(0), workload.measure(0)
    assert first.problems == [] and second.problems == []
    assert first.fingerprint == second.fingerprint
    assert first.latencies == second.latencies
    assert first.counters == second.counters
    traced = [Tracer(), Tracer()]
    units = [workload.measure(0, tracer) for tracer in traced]
    assert units[0].fingerprint == first.fingerprint
    assert traced[0].counts == traced[1].counts
    assert units[0].counters == units[1].counters


def test_chaos_serial_run_repeats_for_one_seed():
    workload = SmallChaosSweep(seed=5)
    (first, results), (second, again) = (
        workload.serial_unit(1), workload.serial_unit(1)
    )
    assert first.problems == []
    assert results == again
    assert first.latencies == second.latencies
    assert first.counters == second.counters
