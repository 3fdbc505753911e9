"""Experiment runner: one place that turns (benchmark, policy, scale)
into a :class:`~repro.cpu.core.RunResult`.

The scale, trace memoization and scale-aware policy builds live in
:mod:`repro.sim.scale`; this module re-exports them.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

from repro.cpu.core import RunResult
from repro.sim import SimulationSpec, simulate, simulate_cached

# Re-exported as the same objects, not wrappers: the benchmark tracer
# rebinds make_llc_policy and workload_trace found here by identity.
from repro.sim.scale import (  # noqa: F401
    DEFAULT_LLC_LINES,
    ExperimentScale,
    cached_shared_mix,
    cached_trace,
    make_llc_policy,
)
from repro.trace.workload import workload_trace  # noqa: F401

#: the six policies of the single-core headline comparison (F4/F5)
SINGLE_CORE_POLICIES = ("lru", "dip", "drrip", "ship", "rrp", "rwp")


@lru_cache(maxsize=4096)
def _run_benchmark_cached(
    benchmark: str,
    policy: str,
    scale: ExperimentScale,
    mode: str = "llc",
    memory: str = "dram",
    kernel: str = "dict",
) -> RunResult:
    return simulate(
        SimulationSpec(
            benchmark, policy, mode=mode, scale=scale, memory=memory,
            kernel=kernel,
        )
    )


def run_benchmark(
    benchmark: str,
    policy: str,
    scale: ExperimentScale | None = None,
    store=None,
    mode: str = "llc",
    memory: str = "dram",
    kernel: str = "dict",
) -> RunResult:
    """Run one benchmark under one policy at the given scale.

    ``mode`` selects LLC-level replay (default) or the full
    ``"hierarchy"`` stack; ``memory`` names the main-memory backend
    (``"dram"`` default, ``"pcm:..."``/``"nvm:..."`` for asymmetric
    writes); ``kernel`` the batch-replay driver (``"dict"`` default,
    ``"native"``/``"auto"`` for the SoA kernel); all go through the
    :class:`~repro.sim.SimulationSpec` front-end.  Runs are deterministic, so results are memoized:
    harnesses that share a baseline (every figure normalizes to LRU)
    never re-simulate it.  With a ``store`` (a
    :class:`~repro.engine.store.ResultStore` or a path), results also
    persist across processes: a warm key is decoded from disk instead of
    simulated, and fresh runs are written through.
    """
    scale = scale or ExperimentScale()
    if store is None:
        return _run_benchmark_cached(
            benchmark, policy, scale, mode, memory, kernel
        )
    from repro.engine import RunJob, coerce_store

    store = coerce_store(store)
    job = RunJob(benchmark, policy, scale, mode=mode, memory=memory,
                 kernel=kernel)
    key = job.key()
    result = store.get_result(key, job.decode)
    if result is not None:
        return result
    result = _run_benchmark_cached(
        benchmark, policy, scale, mode, memory, kernel
    )
    store.put(key, job.kind, job.encode(result))
    return result


def run_with_geometry(
    benchmark: str,
    policy: str,
    llc_lines: int,
    ways: int,
    reference: ExperimentScale | None = None,
) -> RunResult:
    """Run a reference-scale trace against an arbitrary LLC geometry.

    The sensitivity sweeps re-size the *cache* while holding the
    *workload* fixed: the program does not change when the machine does.
    """
    return simulate_cached(
        SimulationSpec(
            benchmark,
            policy,
            scale=reference or ExperimentScale(),
            llc_lines=llc_lines,
            ways=ways,
        )
    )


ResultGrid = Dict[Tuple[str, str], RunResult]


def run_grid(
    benchmarks: Sequence[str],
    policies: Sequence[str],
    scale: ExperimentScale | None = None,
    progress: bool = False,
    jobs: int = 1,
    store=None,
    journal=None,
    timeout: float | None = None,
    mode: str = "llc",
    memory: str = "dram",
    kernel: str = "dict",
) -> ResultGrid:
    """Run every (benchmark, policy) pair; identical traces per benchmark.

    Execution goes through the engine: ``jobs`` worker processes
    (``jobs=1`` is the serial in-process path), an optional on-disk
    result ``store``, and an optional JSONL ``journal`` for resumable
    sweeps.  ``progress`` reports per-job lines to stderr.  ``mode``
    (``"llc"`` or ``"hierarchy"``) picks the simulation front-end mode,
    ``memory`` the main-memory backend, and ``kernel`` the batch-replay
    driver for every cell.
    """
    scale = scale or ExperimentScale()
    from repro.engine import RunJob, run_jobs

    job_list = [
        RunJob(benchmark, policy, scale, mode=mode, memory=memory,
               kernel=kernel)
        for benchmark in benchmarks
        for policy in policies
    ]
    outcome = run_jobs(
        job_list,
        max_workers=jobs,
        store=store,
        journal=journal,
        timeout=timeout,
        progress=progress,
    )
    return {
        (job.benchmark, job.policy): result
        for job, result in outcome.results.items()
    }


def speedups_over(
    results: ResultGrid,
    benchmarks: Sequence[str],
    policies: Sequence[str],
    baseline: str = "lru",
) -> Dict[str, List[float]]:
    """Per-policy speedup lists (ordered by ``benchmarks``) vs a baseline."""
    speedups: Dict[str, List[float]] = {}
    for policy in policies:
        speedups[policy] = [
            results[(bench, policy)].speedup_over(results[(bench, baseline)])
            for bench in benchmarks
        ]
    return speedups
