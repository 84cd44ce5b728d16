"""Host-speed probe.

On a shared host the same code runs at very different speeds from one
half-minute to the next: on the 2-CPU machine this benchmark was built on,
one unchanged crash-recover unit ran anywhere from about 3100 to 5900
commits per wall-second, in states lasting tens of seconds.  The probe is
a fixed pure-Python event loop (a heap of timed callbacks moving small
slotted objects between per-site dicts, the simulator's kind of work)
that belongs to the benchmark, so no change to the program can move it.
Timed between every two units, it tells how fast the host ran them.
"""

from __future__ import annotations

import heapq
import random
import time

# Probe runs per second on the reference host: the median of this
# machine's readings.  Throughput is scaled to a host that fast.
REFERENCE_RUNS_PER_S = 28.0


class _Job:
    __slots__ = ("id", "site", "left", "seen")

    def __init__(self, job_id: int, site: int, left: int) -> None:
        self.id = job_id
        self.site = site
        self.left = left
        self.seen: dict[int, float] = {}


def _event_loop(jobs: int = 2000, hops: int = 5) -> int:
    rng = random.Random(7)
    heap: list = []
    sites: list[dict[int, _Job]] = [{} for _ in range(4)]
    seq = 0
    now = 0.0

    def arrive(job: _Job) -> None:
        nonlocal seq
        sites[job.site][job.id] = job
        job.seen[job.left] = now
        if job.left:
            job.left -= 1
            seq += 1
            heapq.heappush(heap, (now + rng.random(), seq, depart, (job,)))

    def depart(job: _Job) -> None:
        nonlocal seq
        sites[job.site].pop(job.id, None)
        job.site = (job.site + 1) & 3
        seq += 1
        heapq.heappush(heap, (now + rng.random(), seq, arrive, (job,)))

    for job_id in range(jobs):
        seq += 1
        heapq.heappush(
            heap, (rng.random() * 100, seq, arrive, (_Job(job_id, job_id & 3, hops),))
        )
    fired = 0
    while heap:
        now, _seq, action, args = heapq.heappop(heap)
        action(*args)
        fired += 1
    return fired


def host_speed() -> float:
    """This host's current speed relative to the reference host."""
    start = time.perf_counter()
    _event_loop()
    return 1.0 / (time.perf_counter() - start) / REFERENCE_RUNS_PER_S
