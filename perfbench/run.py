"""The repo benchmark: host time and memory of the reproduction's job grids.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --pin      # rewrite digests.json (see README.md)

Runs passes of one workload (see ``workloads.py``) for about ``S``
seconds, each pass in a fresh interpreter with a fresh, empty result
store, one after another.  Every simulated result is checked against the
digests pinned in ``digests.json``.  With ``--trace 0`` it reports the
end-to-end metrics, in reference-host seconds (see ``hostspeed.py``);
with ``--trace 1`` it alternates untraced and traced passes and reports
the per-layer metrics of the median traced pass plus the tracing
overhead.  Human-readable lines go first; the last line of standard
output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import UNITS  # noqa: E402
from workloads import BY_NAME, PINNED_SEEDS, WORKLOADS  # noqa: E402

DIGESTS = HERE / "digests.json"
WORK = HERE / ".work"

#: the paper abstract's targets for the simulated headline numbers.
TARGETS = {
    "C1_rwp_full": 0.05,
    "C2_rwp_sensitive": 0.14,
    "C3_rwp_vs_rrp": -0.03,
    "C5_rwp_ws": 0.06,
}

MIN_PASSES = 2  # per kind of pass, even if --seconds runs out first
RUN_LIMIT_S = 170.0  # no pass starts that could end later than this


def child_env() -> dict:
    """Keep every file the program writes inside the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["XDG_CACHE_HOME"] = str(WORK / "cache")
    env["REPRO_KERNEL_CACHE"] = str(WORK / "cache" / "kernels")
    env["REPRO_STORE"] = str(WORK / "unused-store")
    env["TMPDIR"] = str(WORK / "tmp")
    return env


def run_pass(run_dir: Path, index: int, workload: str, sim_seed: int,
             traced: bool, timeout: float) -> dict:
    """One grid pass in a fresh interpreter with a fresh store."""
    store = run_dir / f"store-{index}"
    store.mkdir()
    out = run_dir / f"pass-{index}.json"
    spawned_at = time.monotonic()
    subprocess.run(
        [
            sys.executable,
            str(HERE / "grid_pass.py"),
            workload,
            str(sim_seed),
            "1" if traced else "0",
            str(store),
            str(out),
            repr(spawned_at),
        ],
        env=child_env(),
        cwd=str(ROOT),
        check=True,
        timeout=timeout,
    )
    shutil.rmtree(store)
    return json.loads(out.read_text())


def failed_jobs(summary: dict, pinned: dict) -> int:
    """Jobs of one pass that failed: raised, mismatched, or broke isolation."""
    problems = [p for p in [summary["error"], *summary["guard"]] if p]
    for problem in problems:
        print(f"# pass problem: {problem.strip()}", file=sys.stderr)
    if problems:
        return len(pinned)
    digests = summary["digests"]
    bad = [key for key, value in pinned.items() if digests.get(key) != value]
    for key in bad[:5]:
        print(f"# digest mismatch: {key}", file=sys.stderr)
    return len(bad)


def measure(args, run_dir: Path) -> dict:
    """Passes until ``--seconds`` is used up: a pass starts if, taking as
    long as the longest so far, at least half of it fits."""
    workload = BY_NAME[args.workload]
    sim_seed = PINNED_SEEDS[args.seed % len(PINNED_SEEDS)]
    pinned = json.loads(DIGESTS.read_text())[workload.name][str(sim_seed)]
    started = time.monotonic()
    kinds = (False, True) if args.trace else (False,)
    passes = {kind: [] for kind in kinds}
    longest = 0.0
    while True:
        elapsed = time.monotonic() - started
        enough = all(len(done) >= MIN_PASSES for done in passes.values())
        if (enough and elapsed + longest / 2 > args.seconds) or (
            elapsed + 2 * longest > RUN_LIMIT_S
        ):
            break
        index = sum(len(done) for done in passes.values())
        kind = kinds[index % len(kinds)]
        begun = time.monotonic()
        summary = run_pass(run_dir, index, workload.name, sim_seed, kind,
                           RUN_LIMIT_S - elapsed)
        passes[kind].append(summary)
        longest = max(longest, time.monotonic() - begun)

    def completed(kind):  # passes whose grid ran to the end, isolated
        return [p for p in passes.get(kind, []) if not (p["error"] or p["guard"])]

    done = [p for kind_passes in passes.values() for p in kind_passes]
    return {
        "workload": workload,
        "sim_seed": sim_seed,
        "attempted": workload.jobs * len(done),
        "failed": sum(failed_jobs(p, pinned) for p in done),
        "plain": completed(False),
        "traced": completed(True),
    }


def end_to_end(plain) -> dict:
    """Untraced passes, in reference-host seconds: median set-up and grid
    time; job latency as each job's median over the passes, then the
    median and 90th percentile over the grid's jobs (pooling raw samples
    instead lets the p50 jump between two jobs of different sizes)."""
    per_job = [statistics.median(times) for times in zip(*(p["latencies"] for p in plain))]
    quantiles = statistics.quantiles(per_job, n=10, method="inclusive")
    return {
        "setup_s": (statistics.median(p["setup_s"] for p in plain), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in plain), "s"),
        "job_p50_s": (statistics.median(per_job), "s"),
        "job_p90_s": (quantiles[8], "s"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in plain), "MB"),
    }


def per_layer(result: dict) -> dict:
    """The median traced pass's layer metrics, in raw host seconds."""
    plain = result["plain"]
    traced = sorted(result["traced"], key=lambda p: p["wall_s"])
    metrics = dict(traced[(len(traced) - 1) // 2]["layers"])
    untraced_wall = statistics.median(p["wall_host_s"] for p in plain)
    traced_wall = statistics.median(p["wall_host_s"] for p in traced)
    metrics["tracer.overhead_s"] = traced_wall - untraced_wall
    metrics["tracer.overhead_frac"] = traced_wall / untraced_wall - 1.0
    metrics["host.speed"] = statistics.median(p["speed"] for p in plain)
    return metrics


def print_context(result: dict) -> None:
    """Host speed, raw host seconds and the reference error (report-only)."""
    plain = result["plain"]
    print(
        "# host speed (reference s per host s) "
        + " ".join(f"{p['speed']:.3f}" for p in plain)
        + "; grid host s " + " ".join(f"{p['wall_host_s']:.3f}" for p in plain)
    )
    values = result["plain"][0]["headline"]
    if not values:
        return
    print(
        f"# headline ({result['workload'].name}, seed {result['sim_seed']}, "
        "benchmark scale; simulated, not validated against hardware):"
    )
    for name, value in values.items():
        target = TARGETS[name]
        print(
            f"#   {name:18s} simulated {value * 100:+6.2f}%  "
            f"paper {target * 100:+6.2f}%  error {(value - target) * 100:+6.2f} pp"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    if args.pin:
        return pin()
    if args.workload is None:
        parser.error("--workload is required")

    # On SIGTERM, unwind: subprocess.run kills and reaps the running
    # pass, and the run's stores are removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        result = measure(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    name = result["workload"].name
    if not result["plain"] or (args.trace and not result["traced"]):
        print(f"error: no {name} pass completed", file=sys.stderr)
        return 1
    print(
        f"# {name}: sim seed {result['sim_seed']}, {len(result['plain'])} untraced"
        f" + {len(result['traced'])} traced passes, jobs=1, fresh store per pass"
    )
    print(f"{name} failed_frac {result['failed'] / result['attempted']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} jobs)")
    if args.trace:
        metrics = {
            metric: (value, UNITS[metric])
            for metric, value in per_layer(result).items()
        }
        samples = 0
    else:
        metrics = end_to_end(result["plain"])
        samples = sum(len(p["latencies"]) for p in result["plain"])
    for metric, (value, unit) in metrics.items():
        extra = f" (n={samples})" if metric.startswith("job_") else ""
        print(f"{name} {metric} {value:.6g} {unit}{extra}")
    if not args.trace:
        print_context(result)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }))
    return 0


def pin() -> int:
    """Record every workload's per-job digests for the pinned seeds."""
    pinned = {}
    for workload in WORKLOADS:
        pinned[workload.name] = {}
        for sim_seed in PINNED_SEEDS:
            run_dir = Path(tempfile.mkdtemp(prefix="pin-", dir=WORK))
            try:
                summary = run_pass(run_dir, 0, workload.name, sim_seed, False, 600)
            finally:
                shutil.rmtree(run_dir, ignore_errors=True)
            if summary["error"] or summary["guard"]:
                print(summary["error"], summary["guard"], file=sys.stderr)
                return 1
            pinned[workload.name][str(sim_seed)] = dict(sorted(summary["digests"].items()))
            print(f"{workload.name} seed {sim_seed}: {len(summary['digests'])} digests")
    DIGESTS.write_text(json.dumps(pinned, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
