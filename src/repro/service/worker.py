"""Queue worker: pull leases, simulate, publish, journal, repeat.

A :class:`Worker` is one executor process on one host.  Its loop:

1. requeue any expired leases (recovering jobs from crashed peers),
2. claim one pending job (atomic rename, see
   :class:`~repro.service.queue.DirQueue`),
3. serve it from the result store if the key is already warm
   (status ``hit`` -- repeat grids never re-simulate),
4. otherwise execute it (``RunJob``/``MixJob.execute`` -> the
   ``simulate_cached`` front-end), with a background thread
   heartbeating the lease so long simulations are not requeued,
5. publish the encoded result into the content-addressed store,
6. append to the queue's shared journal with its worker id, and
7. mark the lease done (or failed, after one in-process retry --
   the same ``retries=1`` discipline the engine executor uses).

Workers are stateless: any number can run against one queue root, on
any host that mounts it, joining and leaving freely.
"""

from __future__ import annotations

import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Optional

from repro.engine.journal import RunJournal
from repro.engine.store import ResultStore
from repro.service.queue import DirQueue, Lease, default_worker_id


@dataclass
class WorkerStats:
    """What one worker did during :meth:`Worker.run`."""

    claimed: int = 0
    simulated: int = 0
    hits: int = 0
    failed: int = 0
    requeued: int = 0
    wall_seconds: float = 0.0
    stopped: str = ""  # why the loop exited


@dataclass
class Worker:
    """One queue-draining executor."""

    queue: DirQueue
    store: ResultStore
    worker_id: str = field(default_factory=default_worker_id)
    journal: Optional[RunJournal] = None  # default: the queue's journal
    poll_interval: float = 0.5
    heartbeat_interval: Optional[float] = None  # default: ttl / 3
    retries: int = 1

    def __post_init__(self) -> None:
        if self.journal is None:
            self.journal = self.queue.journal
        if self.heartbeat_interval is None:
            self.heartbeat_interval = max(self.queue.lease_ttl / 3.0, 0.05)

    # -- one job -----------------------------------------------------------
    def process_one(self, lease: Lease, stats: WorkerStats) -> None:
        """Execute (or serve) one leased job and publish everything."""
        key = lease.job_id
        if self.store.get_result(key, lease.job.decode) is not None:
            # Warm key: another worker (or an earlier sweep) already
            # published this result; serving it costs zero simulation.
            # A record that does not decode is re-simulated and the
            # ``put`` below overwrites it.
            stats.hits += 1
            self.journal.append(
                key, lease.job.label, "hit", 0.0, worker=self.worker_id
            )
            self.queue.complete(lease, "hit", 0.0)
            return

        stop = threading.Event()

        def beat() -> None:
            while not stop.wait(self.heartbeat_interval):
                try:
                    self.queue.heartbeat(lease)
                except OSError:  # pragma: no cover - fs hiccup
                    pass

        heartbeat = threading.Thread(target=beat, daemon=True)
        heartbeat.start()
        started = time.perf_counter()
        try:
            attempts = 0
            while True:
                try:
                    result = lease.job.execute()
                    break
                except Exception:  # noqa: BLE001 - reported via the queue
                    attempts += 1
                    if attempts > self.retries:
                        raise
        except Exception:  # noqa: BLE001
            error = traceback.format_exc(limit=8)
            stats.failed += 1
            self.journal.append(
                key, lease.job.label, "error", 0.0, worker=self.worker_id
            )
            self.queue.complete(lease, "error", 0.0, error=error)
            return
        finally:
            stop.set()
            heartbeat.join(timeout=1.0)
        wall = time.perf_counter() - started
        stats.simulated += 1
        self.store.put(key, lease.job.kind, lease.job.encode(result))
        self.journal.append(
            key, lease.job.label, "ok", wall, worker=self.worker_id
        )
        self.queue.complete(lease, "ok", wall)

    # -- the loop ----------------------------------------------------------
    def run(
        self,
        max_jobs: Optional[int] = None,
        drain: bool = False,
        idle_timeout: Optional[float] = None,
        stop_event: Optional[threading.Event] = None,
        progress=None,
    ) -> WorkerStats:
        """Claim-and-execute until told (or timed/drained) out.

        ``drain=True`` exits once the queue has nothing pending and no
        live leases (a batch run); otherwise the worker idles, polling,
        until ``idle_timeout`` seconds pass without work or
        ``stop_event`` is set (a daemon).
        """
        stats = WorkerStats()
        started = time.perf_counter()
        last_work = time.monotonic()
        while True:
            if stop_event is not None and stop_event.is_set():
                stats.stopped = "stop requested"
                break
            stats.requeued += len(self.queue.requeue_expired())
            lease = self.queue.claim(self.worker_id)
            if lease is not None:
                stats.claimed += 1
                last_work = time.monotonic()
                if progress is not None:
                    progress(f"[{self.worker_id}] {lease.job.label}")
                self.process_one(lease, stats)
                if max_jobs is not None and stats.claimed >= max_jobs:
                    stats.stopped = f"max jobs ({max_jobs}) reached"
                    break
                continue
            counts = self.queue.counts()
            if drain and counts.pending == 0 and counts.leased == 0:
                stats.stopped = "queue drained"
                break
            if (
                idle_timeout is not None
                and time.monotonic() - last_work > idle_timeout
            ):
                stats.stopped = f"idle for {idle_timeout:g}s"
                break
            time.sleep(self.poll_interval)
        stats.wall_seconds = time.perf_counter() - started
        return stats
