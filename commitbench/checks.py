"""Correctness checks on a run's outputs, computed apart from the
program's own auditors.  Each returns a list of problems; empty means the
run passed."""

from __future__ import annotations


def final_outcomes(records, txn_count: int, retried: list[int]):
    """Map each client transaction 1..txn_count to its final attempt record.

    Open-loop retries run under ids past ``txn_count``: the k-th retry
    (1-based) has id ``txn_count + k`` and retries ``retried[k - 1]``.
    Returns ``(finals, roots, problems)`` where ``roots`` maps every
    attempt id to its client transaction.
    """
    problems: list[str] = []
    roots = {seq: seq for seq in range(1, txn_count + 1)}
    for k, old_id in enumerate(retried, start=1):
        if old_id not in roots:
            problems.append(f"retry {txn_count + k} of unknown attempt {old_id}")
            continue
        roots[txn_count + k] = roots[old_id]
    superseded = set(retried)
    finals: dict[int, object] = {}
    seen: set[int] = set()
    for record in records:
        if record.txn_id in seen:
            problems.append(f"attempt {record.txn_id} has two outcomes")
            continue
        seen.add(record.txn_id)
        root = roots.get(record.txn_id)
        if root is None:
            problems.append(f"outcome for unknown attempt {record.txn_id}")
        elif record.txn_id not in superseded:
            finals[root] = record
    missing = [seq for seq in range(1, txn_count + 1) if seq not in finals]
    if missing:
        problems.append(
            f"{len(missing)} transactions have no outcome (first: {missing[0]})"
        )
    unfinished = superseded - seen
    if unfinished:
        problems.append(f"retried attempt {min(unfinished)} has no outcome")
    return finals, roots, problems


def check_outcomes(records, txn_count: int, retried: list[int], commits: int):
    """Every submitted transaction has exactly one final outcome, and the
    program's commit count equals the committed final outcomes."""
    finals, _roots, problems = final_outcomes(records, txn_count, retried)
    committed = sum(1 for record in finals.values() if record.committed)
    if not problems and committed != commits:
        problems.append(f"program counted {commits} commits, outcomes show {committed}")
    return problems


def client_latencies(records, txn_count: int, retried: list[int]) -> list[float]:
    """Simulated ms from a committed transaction's first submission to its
    commit, across any deadlock retries in between."""
    finals, roots, _ = final_outcomes(records, txn_count, retried)
    first_submit = {
        record.txn_id: record.submitted_at
        for record in records if roots.get(record.txn_id) == record.txn_id
    }
    return [
        record.finished_at - first_submit[seq]
        for seq, record in sorted(finals.items()) if record.committed
    ]


def check_replicas(cluster) -> list[str]:
    """Every item's (value, version) agrees across all sites, read from
    each site's stored copies, and no site still marks a copy stale."""
    problems: list[str] = []
    sites = cluster.sites
    reference = sites[0].db.dump()
    for site in sites[1:]:
        copies = site.db.dump()
        differing = sorted(
            item for item in reference.keys() | copies.keys()
            if reference.get(item) != copies.get(item)
        )
        if differing:
            item = differing[0]
            problems.append(
                f"site {site.site_id} disagrees with site 0 on {len(differing)} "
                f"items (item {item}: {copies.get(item)} vs {reference.get(item)})"
            )
    for site in sites:
        stale = [item for item in reference if site.faillocks.mask(item)]
        if stale:
            problems.append(
                f"site {site.site_id} still fail-locks {len(stale)} copies"
            )
    return problems


def check_recovery(periods, site_id: int) -> list[str]:
    """The crashed site's one recovery period closed, and copies refreshed
    by writes plus copies refreshed by copiers cover its initial stale set."""
    mine = [p for p in periods if p.site_id == site_id]
    if len(mine) != 1:
        return [f"site {site_id} had {len(mine)} recovery periods, expected 1"]
    period = mine[0]
    problems = []
    if period.interrupted or period.finished_at is None or (
        period.finished_at < period.started_at
    ):
        problems.append(f"recovery period of site {site_id} did not close")
    refreshed = period.refreshed_by_write + period.refreshed_by_copier
    if refreshed < period.initial_stale:
        problems.append(
            f"recovery refreshed {refreshed} copies of {period.initial_stale} stale"
        )
    return problems


def check_pool(results, reference) -> list[str]:
    """Pool results equal the serial run of the same seeds, in input order."""
    if [r.seed for r in results] != [r.seed for r in reference]:
        return ["pool results are not in input order"]
    differing = [a.seed for a, b in zip(results, reference) if a != b]
    if differing:
        return [f"pool results differ from serial on seeds {differing}"]
    return []


def check_seeds(results, txns: int) -> list[str]:
    """Every chaos seed ran all its transactions, and its auditor reported
    no violation and no stall."""
    problems = []
    for result in results:
        if result.commits + result.aborts != txns:
            problems.append(
                f"seed {result.seed}: {result.commits} commits + {result.aborts} "
                f"aborts != {txns} transactions"
            )
        if result.violations:
            problems.append(
                f"seed {result.seed}: auditor flagged {result.violations[0].invariant}"
            )
        if result.stalled:
            problems.append(f"seed {result.seed}: drive loop stalled")
    return problems
