"""Outcome capture and per-layer span tracing, installed from outside the
program by wrapping its classes' methods for the length of one run.

Nothing under ``src/`` knows about either.  :class:`Capture` keeps a
reference to every cluster built and every transaction outcome recorded,
which the correctness checks read after the run.  :class:`Tracer` records
one span (layer, start, end, parent) for every call into a layer boundary
and counts the work those calls do; a layer's self time is its spans'
durations minus the parts covered by their child spans.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter

from repro.chaos.interpose import FaultInjector
from repro.chaos.invariants import InvariantAuditor
from repro.core.control import RecoveryState
from repro.core.faillocks import FailLockTable
from repro.core.recovery import RecoveryManager
from repro.core.rowaa import RowaaPlanner
from repro.core.sessions import NominalSessionVector
from repro.metrics.collector import MetricsCollector
from repro.net.network import Network
from repro.net.reliable import ReliableDelivery
from repro.recovery.scheduler import ParallelCopierScheduler
from repro.sim.scheduler import EventScheduler
from repro.site.locking import SiteLockService
from repro.site.site import DatabaseSite
from repro.soak.engine import SoakManager
from repro.storage.database import SiteDatabase
from repro.system.cluster import Cluster
from repro.system.deadlock import GlobalDeadlockDetector
from repro.system.managing import ManagingSite
from repro.system.openloop import OpenLoopManager
from repro.txn.locks import LockManager

LAYERS = (
    "driver", "sim", "net", "site", "txn", "deadlock", "core", "recovery",
    "storage", "metrics", "chaos",
)

# Layer boundaries: every call into one of these methods is a span of the
# named layer.  The network entries are what the scheduler dispatches
# (message delivery, CPU-activation release, timers), so sim's self time
# is the event loop itself.
SPANS = (
    ("sim", EventScheduler, ("run",)),
    ("net", Network, (
        "_deliver", "_run_activation", "_release_activation",
        "_run_failure_notice",
    )),
    ("net", ReliableDelivery, ("_on_timer",)),
    ("site", DatabaseSite, ("handle",)),
    ("txn", SiteLockService, ("acquire", "release", "cancel")),
    ("deadlock", GlobalDeadlockDetector, ("block", "unblock", "forget")),
    ("core", FailLockTable, (
        "set_lock", "clear_lock", "update_on_commit", "update_with_recipients",
        "install", "merge", "snapshot", "locked_items_for", "up_to_date_sites",
    )),
    ("core", RowaaPlanner, ("plan_read", "write_sites", "participants_for")),
    ("core", NominalSessionVector, (
        "mark_down", "mark_recovering", "mark_up", "install", "begin_new_session",
    )),
    ("core", RecoveryManager, (
        "begin", "note_refreshed_by_write", "note_refreshed_by_copier",
        "note_copier_request", "wants_batch_copier", "next_batch",
    )),
    ("core", RecoveryState, ("install_at_recovering_site",)),
    ("recovery", ParallelCopierScheduler, ("pump", "note_denied")),
    ("storage", SiteDatabase, (
        "read", "stage", "commit_staged", "abort_staged", "apply_write",
        "install_copy", "create_item",
    )),
    ("metrics", MetricsCollector, (
        "record_txn", "note_participant", "pop_participants", "record_control",
        "record_copier", "record_recovery_period", "record_faillock_sample",
    )),
    ("chaos", FaultInjector, ("intercept",)),
    ("chaos", InvariantAuditor, (
        "on_message", "on_commit_applied", "on_coordinator_abort",
        "check_quiescence",
    )),
    ("driver", OpenLoopManager, ("launch", "handle", "_submit", "_retry")),
    ("driver", SoakManager, (
        "start", "handle", "_arrive", "on_delivery_failed", "fail_site",
        "recover_site",
    )),
    ("driver", ManagingSite, ("run", "handle")),
)


def _one(args, kwargs, result):
    return 1


# Work counts taken at the same boundaries: (metric, class, method,
# increment(args, kwargs, result)).
COUNTS = (
    ("sim.events", EventScheduler, "run", lambda a, k, r: r),
    ("net.messages", Network, "_transmit", _one),
    ("site.handler_calls", DatabaseSite, "handle", _one),
    ("txn.lock_requests", LockManager, "request", _one),
    ("deadlock.reports", GlobalDeadlockDetector, "block", _one),
    # One record per control transaction at its initiator; "operational"
    # rows are the responders' side of the same transaction.
    ("core.control_txns", MetricsCollector, "record_control",
     lambda a, k, r: a[1].role != "operational"),
    ("core.copier_requests", MetricsCollector, "record_copier", _one),
    ("recovery.batch_copiers", RecoveryManager, "note_copier_request",
     lambda a, k, r: bool(k.get("batch", a[1] if len(a) > 1 else False))),
    ("storage.writes_applied", SiteDatabase, "apply_write", _one),
    ("storage.writes_applied", SiteDatabase, "commit_staged",
     lambda a, k, r: len(r)),
    ("storage.copy_installs", SiteDatabase, "install_copy", _one),
    ("storage.useful_installs", SiteDatabase, "install_copy",
     lambda a, k, r: bool(r)),
) + tuple(
    ("metrics.records", MetricsCollector, name, _one)
    for name in (
        "record_txn", "record_control", "record_copier",
        "record_recovery_period", "record_faillock_sample",
    )
)

# Fail-lock mutators and the items each call can touch; bits are counted
# by comparing those items' masks before and after the call.
FAILLOCK_MUTATORS = (
    ("set_lock", lambda a: (a[1],)),
    ("clear_lock", lambda a: (a[1],)),
    ("update_on_commit", lambda a: a[1]),
    ("update_with_recipients", lambda a: tuple(a[1])),
    ("install", lambda a: tuple(a[1])),
    ("merge", lambda a: tuple(a[1])),
)


class _Patches:
    """Replaces class attributes; :meth:`undo` restores them in reverse."""

    def __init__(self) -> None:
        self._saved: list[tuple[type, str, object]] = []

    def wrap(self, owner: type, name: str, make) -> None:
        raw = owner.__dict__[name]
        if isinstance(raw, staticmethod):
            new = staticmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._saved.append((owner, name, raw))
        setattr(owner, name, new)

    def undo(self) -> None:
        while self._saved:
            owner, name, raw = self._saved.pop()
            setattr(owner, name, raw)


class Capture:
    """Keeps every cluster built and every outcome recorded while active.

    Also notes open-loop retries: the k-th retry of a run is submitted
    under id ``txn_count + k`` (see ``OpenLoopManager.launch``), so the
    list of retried ids links each attempt to the transaction it retries.
    """

    def __init__(self) -> None:
        self.clusters: list[Cluster] = []
        self.records: list = []
        self.retried: list[int] = []
        self._patches = _Patches()

    def __enter__(self) -> "Capture":
        clusters, records, retried = self.clusters, self.records, self.retried

        def on_init(fn):
            def __init__(cluster, *args, **kwargs):
                fn(cluster, *args, **kwargs)
                clusters.append(cluster)
            return __init__

        def on_record(fn):
            def record_txn(collector, record):
                records.append(record)
                return fn(collector, record)
            return record_txn

        def on_retry(fn):
            def _retry(manager, ctx, old_id):
                retried.append(old_id)
                return fn(manager, ctx, old_id)
            return _retry

        self._patches.wrap(Cluster, "__init__", on_init)
        self._patches.wrap(MetricsCollector, "record_txn", on_record)
        self._patches.wrap(OpenLoopManager, "_retry", on_retry)
        return self

    def __exit__(self, *exc) -> None:
        self._patches.undo()


class Tracer:
    """Span recorder over the :data:`SPANS` boundaries, plus :data:`COUNTS`.

    Spans are kept in flat arrays (layer index, start, end, parent index)
    until :meth:`self_times` reduces them; a traced 2000-transaction
    steady-2pl unit records about a quarter of a million.
    """

    def __init__(self) -> None:
        self.layer = array("b")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches = _Patches()

    def _span(self, layer_index: int, fn):
        layer, start, end, parent, stack = (
            self.layer, self.start, self.end, self.parent, self._stack
        )
        clock = time.perf_counter

        def span(*args, **kwargs):
            index = len(start)
            layer.append(layer_index)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()

        return span

    def _count(self, metric: str, increment, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[metric] += increment(args, kwargs, result)
            return result

        return counted

    def _faillock_bits(self, items_of, fn):
        counts = self.counts

        def mutate(table, *args, **kwargs):
            items = tuple(items_of((table,) + args))
            before = [table.mask(item) for item in items]
            result = fn(table, *args, **kwargs)
            for item, old in zip(items, before):
                new = table.mask(item)
                counts["core.faillocks_set"] += (new & ~old).bit_count()
                counts["core.faillocks_cleared"] += (old & ~new).bit_count()
            return result

        return mutate

    def __enter__(self) -> "Tracer":
        wrap = self._patches.wrap
        # Spans go innermost: the counting is charged to the calling
        # layer, never to the layer being counted.
        for layer_name, owner, names in SPANS:
            index = LAYERS.index(layer_name)
            for name in names:
                wrap(owner, name, lambda fn, i=index: self._span(i, fn))
        for metric, owner, name, increment in COUNTS:
            wrap(owner, name, lambda fn, m=metric, f=increment: self._count(m, f, fn))
        for name, items_of in FAILLOCK_MUTATORS:
            wrap(FailLockTable, name,
                 lambda fn, f=items_of: self._faillock_bits(f, fn))
        return self

    def __exit__(self, *exc) -> None:
        self._patches.undo()

    def root(self, layer_name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a root span of ``layer_name``."""
        return self._span(LAYERS.index(layer_name), fn)(*args, **kwargs)

    def self_times(self) -> dict[str, float]:
        """Seconds per layer, each span's duration minus its children's."""
        n = len(self.start)
        child = [0.0] * n
        duration = [self.end[i] - self.start[i] for i in range(n)]
        parent = self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += duration[i]
        totals = dict.fromkeys(LAYERS, 0.0)
        layer = self.layer
        for i in range(n):
            totals[LAYERS[layer[i]]] += duration[i] - child[i]
        return totals
