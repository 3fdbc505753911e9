"""Routing a sweep through a queue backend.

``repro sweep --backend local`` never reaches this module: the CLI
calls the engine directly, exactly as before the service existed.
``--backend dir:<root>`` lands here: the grid is submitted to the
shared-filesystem queue (idempotently -- warm and already-queued keys
are skipped), the sweep is recorded in the queue's registry so any
``repro serve`` front-end can report it, and -- unless detached -- the
submitter polls the result store until every job key is present, then
decodes results straight from the store.  The submitter never
simulates; workers do.
"""

from __future__ import annotations

import sys
import time
from typing import Optional

from repro.engine.executor import SweepError, SweepOutcome, SweepStats
from repro.engine.store import ResultStore
from repro.engine.sweepspec import SweepSpec
from repro.service.queue import DirQueue, SubmitReceipt


def submit_sweep(
    spec: SweepSpec, queue: DirQueue, store: ResultStore
) -> SubmitReceipt:
    """Enqueue a sweep's jobs and register the sweep; returns the receipt."""
    receipt = queue.submit(spec.jobs(), store=store)
    queue.record_sweep(spec)
    return receipt


def wait_for_sweep(
    spec: SweepSpec,
    queue: DirQueue,
    store: ResultStore,
    poll: float = 0.5,
    timeout: Optional[float] = None,
    progress: bool = False,
) -> SweepOutcome:
    """Poll until every job key is stored (or failed); decode and return.

    Raises :class:`~repro.engine.executor.SweepError` when the queue
    reports terminal failures for missing keys, or when ``timeout``
    seconds pass without completion (e.g. no worker is running).
    """
    jobs = spec.jobs()
    keys = [job.key() for job in jobs]
    # Decoded results by key; a record that does not decode is not done
    # (a worker re-simulates it and overwrites the record).
    results = {}
    started = time.perf_counter()
    last_done = -1
    while True:
        for job, key in zip(jobs, keys):
            if key not in results:
                result = store.get_result(key, job.decode)
                if result is not None:
                    results[key] = result
        done = sum(1 for key in keys if key in results)
        if progress and done != last_done:
            counts = queue.counts()
            print(
                f"  sweep {spec.sweep_id()}: {done}/{len(keys)} stored | "
                f"queue: {counts.pending} pending, {counts.leased} leased",
                file=sys.stderr,
                flush=True,
            )
            last_done = done
        if done == len(keys):
            break
        failures = queue.failures()
        fatal = {
            key: failures[key]
            for key in keys
            if key in failures and key not in results
        }
        if fatal:
            details = "; ".join(
                f"{queue.job_label(key)}: {error.splitlines()[-1] if error else error}"
                for key, error in list(fatal.items())[:5]
            )
            raise SweepError(
                f"{len(fatal)} queued job(s) failed on workers: {details}"
            )
        if timeout is not None and time.perf_counter() - started > timeout:
            counts = queue.counts()
            raise SweepError(
                f"timed out after {timeout:g}s with {done}/{len(keys)} "
                f"results stored ({counts.pending} pending, "
                f"{counts.leased} leased -- is a worker running? "
                f"try: repro worker --backend {queue.spec})"
            )
        time.sleep(poll)

    # Assemble the outcome purely from the store + the shared journal.
    stats = SweepStats(total=len(jobs))
    outcome = SweepOutcome(stats=stats)
    for job, key in zip(jobs, keys):
        outcome.results[job] = results[key]
    key_set = set(keys)
    statuses = {}
    for entry in queue.journal.entries():
        if entry.key in key_set:  # last entry wins (requeues, resubmits)
            statuses[entry.key] = entry.status
    stats.simulated = sum(1 for s in statuses.values() if s == "ok")
    stats.cache_hits = sum(1 for s in statuses.values() if s == "hit")
    # Keys warm before any worker saw them never hit the journal.
    stats.cache_hits += max(
        0, stats.total - stats.simulated - stats.cache_hits
    )
    stats.wall_seconds = time.perf_counter() - started
    return outcome
