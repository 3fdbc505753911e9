"""The benchmark's four workloads: real job grids run through the public API.

Each workload is one grid of the reproduction, run serially (``jobs=1``)
through ``run_grid`` / ``run_mix_grid`` -- the engine path ``repro
report`` and ``repro sweep`` use -- against a fresh, empty result store.
The program runs with its default kernel (no ``kernel=`` argument is
passed), so a commit that changes the default is measured as it ships.

The LLC geometry is the report's: 1024 lines, 16 ways (per core for
the 4-core mixes).  ``single-grid`` and ``write-filter`` also use the
report's trace lengths (``warmup_factor`` 8, ``measure_factor`` 20):
with 14k-access traces the L1/L2 absorbed every dirty line of the
write-filter models and the PCM write queue stayed idle.  The two 4-core
grids use shorter traces so that one pass fits a few seconds of host
time and a run can take the median of several passes.

This module imports nothing from ``repro`` at import time: run.py
reads the workload table without loading the program under test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

#: simulation seeds whose per-job result digests are pinned in
#: ``digests.json``: the experiments' default seed and one held-out seed.
PINNED_SEEDS = (2014, 7)

#: the report's LLC size in lines (64 KiB per core).
LLC_LINES = 1024
WAYS = 16

HEADLINE_POLICIES = ("lru", "dip", "drrip", "ship", "rrp", "rwp")
REPORT_MIXES = ("mix01_all_sensitive", "mix04_sens_stream", "mix07_balanced")
MIX_POLICIES = ("lru", "tadrrip", "ucp", "rwp")
WRITEFILTER_BENCHMARKS = ("mcf", "omnetpp", "soplex", "gcc", "cactusADM")
WRITEFILTER_POLICIES = ("lru", "drrip", "rwp")
WRITE_MULTS = (1, 3, 5, 10)
SHARED_MIXES = ("mix4s01_prodcons", "mix4s02_readmostly", "mix4s03_migratory")
SHARED_POLICIES = ("lru", "rwp-core")


def _single_grid(scale, store) -> Dict[str, object]:
    from repro.experiments.runner import run_grid
    from repro.trace.spec import benchmark_names

    grid = run_grid(benchmark_names(), HEADLINE_POLICIES, scale, store=store)
    return {f"{bench}/{policy}": result for (bench, policy), result in grid.items()}


def _mix_grid(mixes, policies):
    def run(scale, store) -> Dict[str, object]:
        from repro.experiments.multicore_exp import run_mix_grid

        grid = run_mix_grid(mixes, policies, scale, store=store)
        return {f"{mix}/{policy}": result for (mix, policy), result in grid.items()}

    return run


def _write_filter(scale, store) -> Dict[str, object]:
    from repro.experiments.runner import run_grid

    results: Dict[str, object] = {}
    for mult in WRITE_MULTS:
        grid = run_grid(
            WRITEFILTER_BENCHMARKS,
            WRITEFILTER_POLICIES,
            scale,
            store=store,
            mode="hierarchy",
            memory=f"pcm:write_mult={mult}",
        )
        for (bench, policy), result in grid.items():
            results[f"{bench}/{policy}/wm{mult}"] = result
    return results


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    jobs: int  # engine jobs per pass
    warmup_factor: int
    measure_factor: int
    run: Callable[[object, str], Dict[str, object]]

    def scale(self, sim_seed: int):
        """The :class:`ExperimentScale` of one pass (imports ``repro``)."""
        from repro.experiments.runner import ExperimentScale

        return ExperimentScale(
            llc_lines=LLC_LINES,
            ways=WAYS,
            warmup_factor=self.warmup_factor,
            measure_factor=self.measure_factor,
            seed=sim_seed,
        )


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "single-grid",
        "report's single-core grid: 29 models x 6 policies, 174 short jobs;"
        " per-job overhead and the dict LLC replay drivers dominate",
        jobs=29 * len(HEADLINE_POLICIES),
        warmup_factor=8,
        measure_factor=20,
        run=_single_grid,
    ),
    Workload(
        "mix-grid",
        "report's 4-core grid: 3 mixes x lru,tadrrip,ucp,rwp plus alone IPCs;"
        " the shared-LLC epoch scheduler and generic session driver dominate",
        jobs=len(REPORT_MIXES) * len(MIX_POLICIES),
        warmup_factor=2,
        measure_factor=5,
        run=_mix_grid(REPORT_MIXES, MIX_POLICIES),
    ),
    Workload(
        "write-filter",
        "F10b grid on the pcm backend in hierarchy mode: L1/L2 filters, write"
        " log and timing walk into the PCM write queue do the work",
        jobs=len(WRITEFILTER_BENCHMARKS) * len(WRITEFILTER_POLICIES) * len(WRITE_MULTS),
        warmup_factor=8,
        measure_factor=20,
        run=_write_filter,
    ),
    Workload(
        "shared-mix",
        "data-sharing 4-core mixes x lru,rwp-core: every access updates the"
        " sharer directory, so replay always takes the listener path",
        jobs=len(SHARED_MIXES) * len(SHARED_POLICIES),
        warmup_factor=2,
        measure_factor=4,
        run=_mix_grid(SHARED_MIXES, SHARED_POLICIES),
    ),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}
