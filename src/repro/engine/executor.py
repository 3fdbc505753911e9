"""Parallel sweep executor.

``run_jobs`` fans a list of jobs (see :mod:`repro.engine.jobs`) out over
a ``ProcessPoolExecutor``:

* ``max_workers=1`` is the degenerate serial path -- no pool, no
  pickling, identical to calling ``job.execute()`` in a loop (and it
  shares the in-process memoization the serial harnesses rely on).
* Results are deterministic, so the parallel path returns exactly what
  the serial path would, independent of completion order.
* A per-job ``timeout`` (seconds) is enforced with ``SIGALRM`` inside
  the worker; a timed-out or crashed job is retried once
  (``retries=1``) before the sweep fails.
* With a :class:`~repro.engine.store.ResultStore`, finished jobs are
  written through and warm keys skip simulation entirely; with a
  :class:`~repro.engine.journal.RunJournal`, every completion is logged
  so an interrupted sweep resumes where it left off.
"""

from __future__ import annotations

import signal
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine.journal import RunJournal
from repro.engine.progress import ProgressReporter
from repro.engine.store import ResultStore, coerce_store


class JobTimeoutError(RuntimeError):
    """A job exceeded the per-job wall-clock budget."""


class SweepError(RuntimeError):
    """One or more jobs failed after exhausting their retries."""


@dataclass
class SweepStats:
    """Accounting for one ``run_jobs`` call."""

    total: int = 0
    simulated: int = 0
    cache_hits: int = 0
    resumed: int = 0  # cache hits already recorded in the journal
    failed: int = 0
    retried: int = 0
    wall_seconds: float = 0.0


@dataclass
class SweepOutcome:
    """Results (keyed by job) plus execution statistics."""

    results: Dict[object, object] = field(default_factory=dict)
    stats: SweepStats = field(default_factory=SweepStats)


def _execute_job(job, timeout: Optional[float]):
    """Run one job, bounded by ``timeout`` seconds when possible.

    Runs in the worker process (or inline for the serial path).  The
    alarm only works on the main thread of a process with ``SIGALRM``;
    elsewhere the job simply runs unbounded.
    """
    if not timeout or not hasattr(signal, "SIGALRM"):
        return job.execute()

    def _alarm(signum, frame):  # pragma: no cover - timing dependent
        raise JobTimeoutError(f"{job.label} exceeded {timeout:g}s")

    try:
        previous = signal.signal(signal.SIGALRM, _alarm)
    except ValueError:  # not on the main thread
        return job.execute()
    signal.setitimer(signal.ITIMER_REAL, float(timeout))
    try:
        return job.execute()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def run_jobs(
    job_list: Sequence,
    max_workers: int = 1,
    store: "ResultStore | str | None" = None,
    journal: "RunJournal | str | None" = None,
    timeout: Optional[float] = None,
    retries: int = 1,
    progress: "bool | ProgressReporter" = False,
) -> SweepOutcome:
    """Execute every job, using the store/journal when provided.

    Returns a :class:`SweepOutcome`; raises :class:`SweepError` if any
    job still fails after ``retries`` extra attempts (completed jobs are
    journaled first, so the sweep is resumable).
    """
    store = coerce_store(store)
    if isinstance(journal, (str,)) or hasattr(journal, "__fspath__"):
        journal = RunJournal(journal)
    if isinstance(progress, ProgressReporter):
        reporter = progress
    else:
        reporter = ProgressReporter(len(job_list), enabled=bool(progress))

    stats = SweepStats(total=len(job_list))
    outcome = SweepOutcome(stats=stats)
    need_keys = store is not None or journal is not None
    journaled = journal.completed_keys() if journal is not None else set()
    started = time.perf_counter()

    def complete(job, key, result, status, wall) -> None:
        outcome.results[job] = result
        if status == "ok":
            stats.simulated += 1
            if store is not None:
                store.put(key, job.kind, job.encode(result))
        else:
            stats.cache_hits += 1
            if key in journaled:
                stats.resumed += 1
        if journal is not None:
            journal.append(key, job.label, status, wall)
        reporter.job_done(job.label, status, wall, result)

    failures: List[Tuple[object, BaseException]] = []

    def fail(job, key, error) -> None:
        stats.failed += 1
        failures.append((job, error))
        if journal is not None:
            journal.append(key, job.label, "error", 0.0)
        reporter.job_done(job.label, "error", 0.0, None)

    # Warm keys come straight from the store: zero simulation.
    pending: List[Tuple[object, Optional[str]]] = []
    for job in job_list:
        key = job.key() if need_keys else None
        result = store.get_result(key, job.decode) if store is not None else None
        if result is not None:
            complete(job, key, result, "hit", 0.0)
        else:
            pending.append((job, key))

    if pending and max_workers <= 1:
        for job, key in pending:
            job_started = time.perf_counter()
            attempts = 0
            while True:
                try:
                    result = _execute_job(job, timeout)
                except Exception as error:  # noqa: BLE001 - reported below
                    attempts += 1
                    if attempts <= retries:
                        stats.retried += 1
                        continue
                    fail(job, key, error)
                    break
                complete(
                    job, key, result, "ok", time.perf_counter() - job_started
                )
                break
    elif pending:
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            running = {}
            for job, key in pending:
                future = pool.submit(_execute_job, job, timeout)
                running[future] = (job, key, 0, time.perf_counter())
            while running:
                done, _ = wait(running, return_when=FIRST_COMPLETED)
                broken = None
                for future in done:
                    job, key, attempts, job_started = running.pop(future)
                    try:
                        result = future.result()
                    except BrokenProcessPool as error:
                        broken = error
                        fail(job, key, error)
                        continue
                    except Exception as error:  # noqa: BLE001
                        if attempts < retries:
                            stats.retried += 1
                            retry = pool.submit(_execute_job, job, timeout)
                            running[retry] = (
                                job,
                                key,
                                attempts + 1,
                                time.perf_counter(),
                            )
                        else:
                            fail(job, key, error)
                        continue
                    complete(
                        job,
                        key,
                        result,
                        "ok",
                        time.perf_counter() - job_started,
                    )
                if broken is not None:
                    for future, (job, key, _, _) in running.items():
                        fail(job, key, broken)
                    running.clear()

    stats.wall_seconds = time.perf_counter() - started
    reporter.summary(stats)
    if failures:
        details = "; ".join(
            f"{job.label}: {error}" for job, error in failures[:5]
        )
        raise SweepError(
            f"{len(failures)} job(s) failed after retries: {details}"
        )
    return outcome
