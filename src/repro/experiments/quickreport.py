"""One-shot markdown report: the paper's headline claims at a chosen scale.

``python -m repro report`` (or :func:`generate_report`) runs a compact
version of the headline experiments — full-suite and sensitive-subset
speedups, the RWP/RRP gap, the state budget, and a 3-mix multicore
comparison — and renders a self-contained markdown summary.  It is the
"did my change break the reproduction?" button: a few minutes at the
default scale, against EXPERIMENTS.md for reference numbers.
"""

from __future__ import annotations

from pathlib import Path
from typing import List

from repro.common.config import paper_system_config
from repro.core.overhead import overhead_ratio, rrp_state, rwp_state
from repro.experiments.multicore_exp import run_mix_grid
from repro.experiments.runner import (
    ExperimentScale,
    run_grid,
    speedups_over,
)
from repro.kernels.spec import DEFAULT_KERNEL
from repro.multicore.metrics import geometric_mean
from repro.trace.spec import benchmark_names, sensitive_names

HEADLINE_POLICIES = ("lru", "dip", "drrip", "ship", "rrp", "rwp")
REPORT_MIXES = ("mix01_all_sensitive", "mix04_sens_stream", "mix07_balanced")
MULTICORE_POLICIES = ("lru", "tadrrip", "ucp", "rwp")


def _markdown_table(headers: List[str], rows: List[List[object]]) -> str:
    def fmt(cell: object) -> str:
        return f"{cell:.3f}" if isinstance(cell, float) else str(cell)

    lines = [
        "| " + " | ".join(headers) + " |",
        "|" + "|".join("---" for _ in headers) + "|",
    ]
    lines.extend("| " + " | ".join(fmt(c) for c in row) + " |" for row in rows)
    return "\n".join(lines)


def generate_report(
    scale: ExperimentScale | None = None,
    mixes: tuple = REPORT_MIXES,
    jobs: int = 1,
    store=None,
    kernel: str = DEFAULT_KERNEL,
) -> str:
    """Run the headline experiments and render markdown.

    ``jobs``/``store`` are forwarded to the engine: the report grid can
    run in parallel and is served from the result store when warm.
    ``kernel`` picks the batch-replay driver for every job; every
    kernel renders the same report byte for byte.
    """
    scale = scale or ExperimentScale(
        llc_lines=1024, warmup_factor=8, measure_factor=20
    )
    sections: List[str] = [
        "# RWP reproduction — quick report",
        "",
        f"Scale: {scale.llc_lines}-line ({scale.llc_lines * 64 >> 10} KiB) "
        f"{scale.ways}-way LLC, {scale.total_accesses:,} accesses/benchmark "
        f"({scale.warmup:,} warmup), seed {scale.seed}.",
        "",
    ]

    # Single core: full suite + sensitive subset.
    benches = benchmark_names()
    grid = run_grid(
        benches, HEADLINE_POLICIES, scale, jobs=jobs, store=store,
        kernel=kernel,
    )
    speedups = speedups_over(grid, benches, HEADLINE_POLICIES)
    sensitive = sensitive_names()
    sensitive_idx = [benches.index(b) for b in sensitive]
    rows = []
    for policy in HEADLINE_POLICIES[1:]:
        full = geometric_mean(speedups[policy])
        sens = geometric_mean([speedups[policy][i] for i in sensitive_idx])
        rows.append([policy, full, sens])
    sections += [
        "## Single-core geomean speedup over LRU",
        "",
        "Paper: RWP +5% full suite, +14% sensitive; RWP within 3% of RRP.",
        "",
        _markdown_table(["policy", "full suite", "sensitive subset"], rows),
        "",
    ]

    rwp_full = geometric_mean(speedups["rwp"])
    rrp_full = geometric_mean(speedups["rrp"])
    sections += [
        f"RWP vs RRP gap: **{(rwp_full / rrp_full - 1) * 100:+.1f}%**",
        "",
    ]

    # Write path: every result now carries its write-buffer counters in
    # ``extra["writebuffer"]`` (the same ``prefix.name`` convention the
    # ``dram.*`` / ``pcm.*`` backend stats use), so the report can show
    # what the speedup table costs in write traffic and drain stalls.
    wb_rows = []
    for policy in ("lru", "rwp"):
        counters = [
            grid[(bench, policy)].extra.get("writebuffer", {})
            for bench in sensitive
        ]
        wb_rows.append(
            [
                policy,
                int(sum(c.get("writebuffer.writes", 0) for c in counters)),
                int(
                    sum(c.get("writebuffer.stall_cycles", 0) for c in counters)
                ),
            ]
        )
    sections += [
        "## Write-buffer counters (sensitive-subset totals)",
        "",
        "Memory writes issued through the core write buffer and the",
        "cycles the core stalled waiting for a free entry.",
        "",
        _markdown_table(
            ["policy", "writebuffer.writes", "writebuffer.stall_cycles"],
            wb_rows,
        ),
        "",
    ]

    # State budget.
    llc = paper_system_config().hierarchy.llc
    sections += [
        "## State overhead (paper: RWP = 5.4% of RRP)",
        "",
        f"RWP {rwp_state(llc).total_kib:.2f} KiB vs "
        f"RRP {rrp_state(llc).total_kib:.2f} KiB -> "
        f"ratio **{overhead_ratio(llc):.1%}**",
        "",
    ]

    # Multicore.
    mix_grid = run_mix_grid(
        mixes, MULTICORE_POLICIES, scale, jobs=jobs, store=store,
        kernel=kernel,
    )
    mc_rows = []
    for mix in mixes:
        base = mix_grid[(mix, "lru")]
        row: List[object] = [mix]
        for policy in MULTICORE_POLICIES[1:]:
            result = mix_grid[(mix, policy)]
            row.append(result.weighted_speedup / base.weighted_speedup)
        mc_rows.append(row)
    geo_row: List[object] = ["GEOMEAN"]
    for index in range(1, len(MULTICORE_POLICIES)):
        geo_row.append(geometric_mean([row[index] for row in mc_rows]))
    mc_rows.append(geo_row)
    sections += [
        "## 4-core weighted speedup vs LRU (paper: RWP ~ +6%)",
        "",
        _markdown_table(["mix", *MULTICORE_POLICIES[1:]], mc_rows),
        "",
    ]

    return "\n".join(sections)


def write_report(
    path: str | Path,
    scale: ExperimentScale | None = None,
    jobs: int = 1,
    store=None,
    kernel: str = DEFAULT_KERNEL,
) -> Path:
    """Generate the report and write it to ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        generate_report(scale, jobs=jobs, store=store, kernel=kernel)
    )
    return path
