"""One pass of one workload in a fresh interpreter, started by run.py.

    python3 perfbench/grid_pass.py WORKLOAD SIM_SEED TRACE STORE OUT SPAWNED_AT

Runs the workload's grid once, serially, into the empty result store
``STORE`` and writes a JSON summary to ``OUT``: wall time, set-up time
(from ``SPAWNED_AT``, run.py's ``time.monotonic()`` just before it
started this process, to the first job's start), per-job latency, peak
RSS, one digest per simulated result, the isolation-guard verdict, the
headline numbers and, with ``TRACE`` = 1, the per-layer metrics.

An untraced pass runs the host-speed sampler (``hostspeed.py``) and
reports its times in reference-host seconds, the sampler's probes and
their memory taken out.  A traced pass reports host seconds, since the
probes would land in the layers' self times.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ENTERED = time.monotonic()  # before any import that takes time

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

import hostspeed  # noqa: E402
import layers  # noqa: E402
from workloads import BY_NAME  # noqa: E402


def digest(result) -> str:
    """Digest of a result's canonical JSON: every simulated statistic."""
    text = json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def headline(name: str, results) -> dict:
    """Simulated headline numbers (report-only; not validated on hardware)."""
    from repro.multicore.metrics import geometric_mean

    if name == "single-grid":
        from repro.trace.spec import benchmark_names, sensitive_names

        def speedups(policy, benches):
            return [
                results[f"{b}/{policy}"].speedup_over(results[f"{b}/lru"])
                for b in benches
            ]

        full = benchmark_names()
        rwp = geometric_mean(speedups("rwp", full))
        rrp = geometric_mean(speedups("rrp", full))
        return {
            "C1_rwp_full": rwp - 1.0,
            "C2_rwp_sensitive": geometric_mean(speedups("rwp", sensitive_names()))
            - 1.0,
            "C3_rwp_vs_rrp": rwp / rrp - 1.0,
        }
    if name == "mix-grid":
        from workloads import REPORT_MIXES

        ratios = [
            results[f"{mix}/rwp"].weighted_speedup
            / results[f"{mix}/lru"].weighted_speedup
            for mix in REPORT_MIXES
        ]
        return {"C5_rwp_ws": geometric_mean(ratios) - 1.0}
    return {}


def main(argv) -> int:
    name, sim_seed, traced, store, out, spawned_at = argv
    workload = BY_NAME[name]
    traced = traced == "1"
    store = Path(store)
    sampler = None if traced else hostspeed.Sampler()
    built = time.monotonic()
    if sampler is not None:
        sampler.start()

    import repro
    import repro.engine
    import repro.experiments  # noqa: F401 - must precede repro.sim (import cycle)
    from repro.engine import MixJob, RunJob
    from repro.experiments.runner import cached_trace
    from repro.sim import simulate_cached

    if not Path(repro.__file__).resolve().is_relative_to(HERE.parent / "src"):
        raise SystemExit(f"repro imported from outside the checkout: {repro.__file__}")

    layer_trace = layers.install() if traced else None

    # Always on: each job's start and end, in the engine's order.
    spans = []

    def timed(fn):
        def execute(job):
            start = time.monotonic()
            result = fn(job)
            spans.append((start, time.monotonic()))
            return result

        return execute

    RunJob.execute = timed(RunJob.execute)
    MixJob.execute = timed(MixJob.execute)

    # Isolation guard: every job must be simulated in this pass.
    sweeps = []
    run_jobs = repro.engine.run_jobs

    def counted_run_jobs(*args, **kwargs):
        outcome = run_jobs(*args, **kwargs)
        sweeps.append(outcome.stats)
        return outcome

    layers.rebind(run_jobs, counted_run_jobs)

    summary = {"error": None, "guard": []}
    if any(store.iterdir()):
        summary["guard"].append("result store is not empty")
    scale = workload.scale(int(sim_seed))
    started = time.monotonic()
    try:
        results = workload.run(scale, str(store))
    except Exception:  # noqa: BLE001 - reported to run.py
        summary["error"] = traceback.format_exc(limit=5)
        results = {}
    ended = time.monotonic()
    if sampler is not None:
        sampler.stop()
    if layer_trace is not None:
        layer_trace.close()
    wall = ended - started

    simulated = sum(stats.simulated for stats in sweeps)
    hits = sum(stats.cache_hits for stats in sweeps)
    if simulated != workload.jobs or hits:
        summary["guard"].append(
            f"simulated {simulated} of {workload.jobs} jobs, {hits} store hits"
        )
    memo_hits = simulate_cached.cache_info().hits
    if memo_hits:
        summary["guard"].append(f"simulate_cached served {memo_hits} jobs")

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # Set-up: interpreter start, then imports and patching up to the
    # first job; the sampler's table build is not part of it.
    first = spans[0][0] if spans else ended
    setup = (ENTERED - float(spawned_at)) + (first - built)
    if sampler is None:
        summary.update(wall_host_s=wall, wall_s=wall, setup_s=setup,
                       latencies=[end - start for start, end in spans])
    else:
        probes = sampler.probe_seconds(started, ended)
        setup -= sampler.probe_seconds(built, first)
        summary.update(
            wall_host_s=wall - probes,
            wall_s=sampler.to_reference(started, ended),
            setup_s=setup * sampler.speed(built, first),
            latencies=[sampler.to_reference(start, end, hostspeed.JOB_WINDOW_S)
                       for start, end in spans],
            speed=sampler.speed(started, ended),
        )
        rss_mb -= sampler.footprint_mb
    summary.update(
        rss_mb=rss_mb,
        digests={key: digest(result) for key, result in results.items()},
        headline=headline(name, results) if results and not summary["guard"] else {},
    )
    if layer_trace is not None:
        layer_metrics = layers.metrics(layer_trace, wall, cached_trace.cache_info())
        for metric, field in (("jobs", "total"), ("failed", "failed"), ("retried", "retried")):
            layer_metrics[f"engine.{metric}"] = sum(getattr(stats, field) for stats in sweeps)
        layer_metrics["store.bytes"] = sum(
            path.stat().st_size for path in store.rglob("*") if path.is_file()
        )
        summary["layers"] = layer_metrics
    Path(out).write_text(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
