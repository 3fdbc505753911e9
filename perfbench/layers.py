"""Outside-in per-layer tracing of one grid pass.

The benchmark wraps the public entry points of each layer of ``repro``
from outside: nothing under ``src/`` is edited.  Every wrapped call is a
span; a span's *self* time is its duration minus the time its child
spans (and garbage collections) cover, charged to one bucket.  The
self-time buckets partition the pass::

    wall = sum(SELF_BUCKETS) + gc.s + unattributed_s

where ``unattributed_s`` is the grid time outside every span (the grid
front ends' own loops, ``run_grid``'s job-list build).  Counts are taken
at the same boundaries.  ``install`` returns a :class:`LayerTrace`;
``metrics`` turns it into the named per-layer metrics.
"""

from __future__ import annotations

import gc
import inspect
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

perf = time.perf_counter

#: self-time buckets that, with ``gc.s`` and ``unattributed_s``, sum to
#: the traced wall time (``llc.replay_s``/``mc.run_s`` are split by policy).
SELF_BUCKETS = (
    "engine.self_s",
    "engine.key_s",
    "store.put_s",
    "sim.self_s",
    "policy.build_s",
    "trace.gen_s",
    "trace.decode_s",
    "llc.replay_s",
    "hier.stack_s",
    "timing.walk_s",
    "mc.run_s",
    "kernel.s",
)

LLC_POLICIES = ("lru", "dip", "drrip", "ship", "rrp", "rwp")
MC_POLICIES = ("lru", "tadrrip", "ucp", "rwp", "rwp-core")

#: kernel fallback reasons, folded into a fixed set of slugs by keyword.
FALLBACK_SLUGS = ("policy", "sharing", "backend", "library", "state", "unstated")
_FALLBACK_KEYWORDS = (
    ("sharing", ("sharer", "shared-claimant", "eviction listener")),
    ("backend", ("memory timing backend",)),
    ("library", ("library", "compiled kernel", "numba", "numpy")),
    ("state", ("overflow", "soa-representable", "array-backed", "coercible")),
)


def fallback_slug(reason: Optional[str]) -> str:
    if reason is None:
        return "unstated"
    text = reason.lower()
    for slug, keywords in _FALLBACK_KEYWORDS:
        if any(word in text for word in keywords):
            return slug
    return "policy"


def rebind(original, replacement) -> None:
    """Point every ``repro`` module-level binding of ``original`` at
    ``replacement`` (``from x import f`` copies the name, so patching
    the defining module alone would miss those callers)."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


class LayerTrace:
    """Span stack, self-time buckets and counters for one pass."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.gc_s = 0.0
        self._stack: List[List[float]] = []
        self._gc_started: Optional[float] = None
        self._policy_keys: Dict[int, str] = {}
        self.in_mix_job = False

    # -- spans ---------------------------------------------------------
    def span(self, bucket, fn: Callable) -> Callable:
        """Wrap ``fn`` so its self time lands in ``bucket``.

        ``bucket`` is a name or a function of the call's positional
        arguments returning one (the per-policy replay buckets).
        """
        stack = self._stack
        self_s = self.self_s

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                name = bucket(args) if callable(bucket) else bucket
                self_s[name] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed

        wrapper.__wrapped__ = fn
        return wrapper

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = perf()
        elif self._gc_started is not None:
            elapsed = perf() - self._gc_started
            self._gc_started = None
            self.gc_s += elapsed
            self.counts["gc.collections"] += 1
            if self._stack:
                self._stack[-1][0] += elapsed

    def policy_key(self, policy) -> str:
        return self._policy_keys.get(id(policy), "other")

    def close(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)


def _patch_method(cls, name: str, make: Callable[[Callable], Callable]) -> None:
    setattr(cls, name, make(getattr(cls, name)))


def _patch_function(module, name: str, make: Callable[[Callable], Callable]) -> None:
    original = getattr(module, name)
    rebind(original, make(original))


def install() -> LayerTrace:
    """Wrap every traced layer entry point; returns the live trace."""
    import repro.engine
    import repro.experiments.multicore_exp
    import repro.experiments.runner as runner
    import repro.sim.spec
    import repro.trace.decode
    import repro.trace.generator
    from repro.cache.policyspec import PolicySpec
    from repro.cpu.core import HierarchyRunner, LLCRunner
    from repro.engine import MixJob, ResultStore, RunJob
    from repro.hierarchy.system import MemoryHierarchy
    from repro.kernels.runner import KernelRuntime
    from repro.multicore.shared import SharedLLCSystem

    trace = LayerTrace()
    counts = trace.counts
    span = trace.span

    def counted(bucket: str, counter: str):
        """A span that also counts its calls."""

        def make(fn):
            inner = span(bucket, fn)

            def wrapper(*args, **kwargs):
                counts[counter] += 1
                return inner(*args, **kwargs)

            return wrapper

        return make

    # engine
    _patch_function(repro.engine, "run_jobs", lambda fn: span("engine.self_s", fn))
    for job_cls in (RunJob, MixJob):
        _patch_method(job_cls, "key", lambda fn: span("engine.key_s", fn))

    _patch_method(ResultStore, "put", counted("store.put_s", "store.put_calls"))

    # sim / experiments
    _patch_method(RunJob, "execute", lambda fn: span("sim.self_s", fn))

    def mix_execute(fn):
        inner = span("sim.self_s", fn)

        def wrapper(*args, **kwargs):
            trace.in_mix_job = True
            try:
                return inner(*args, **kwargs)
            finally:
                trace.in_mix_job = False

        return wrapper

    _patch_method(MixJob, "execute", mix_execute)

    _patch_function(repro.sim.spec, "simulate", counted("sim.self_s", "sim.calls"))

    def simulate_cached(fn):
        inner = span("sim.self_s", fn)

        def wrapper(*args, **kwargs):
            if not trace.in_mix_job:
                return inner(*args, **kwargs)
            # Inside a mix job, simulate_cached runs the alone-IPC
            # denominators (the shared run itself calls simulate).
            start = perf()
            try:
                return inner(*args, **kwargs)
            finally:
                counts["mix.alone_calls"] += 1
                counts["mix.alone_s"] += perf() - start

        return wrapper

    _patch_function(repro.sim.spec, "simulate_cached", simulate_cached)

    def make_llc_policy(fn):
        inner = span("policy.build_s", fn)

        def wrapper(policy, *args, **kwargs):
            built = inner(policy, *args, **kwargs)
            trace._policy_keys[id(built)] = PolicySpec.coerce(policy).key()
            return built

        return wrapper

    _patch_function(runner, "make_llc_policy", make_llc_policy)

    # trace generation and decode
    def generator(records: Callable[[object], int]):
        def make(fn):
            inner = span("trace.gen_s", fn)

            def wrapper(*args, **kwargs):
                made = inner(*args, **kwargs)
                counts["trace.gen_calls"] += 1
                counts["trace.records"] += records(made)
                return made

            return wrapper

        return make

    _patch_function(runner, "workload_trace", generator(len))
    _patch_function(
        repro.trace.generator,
        "generate_shared_mix",
        generator(lambda traces: sum(len(t) for t in traces)),
    )

    _patch_function(
        repro.trace.decode,
        "decode_trace",
        counted("trace.decode_s", "trace.decode_calls"),
    )

    # LLC replay (llc mode and the mixes' alone runs)
    def llc_run(fn):
        inner = span(
            lambda args: "llc.replay_s." + trace.policy_key(args[0].llc.policy), fn
        )

        def wrapper(llc_runner, replayed, *args, **kwargs):
            counts["llc.accesses"] += len(replayed)
            return inner(llc_runner, replayed, *args, **kwargs)

        return wrapper

    _patch_method(LLCRunner, "run", llc_run)

    # hierarchy stack and the timing walk
    def hier_run_trace(fn):
        inner = span("hier.stack_s", fn)
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            hierarchy = bound.arguments["self"]
            start = bound.arguments["start"]
            stop = bound.arguments["stop"]
            if stop is None:
                stop = len(bound.arguments["trace"])
            tick = hierarchy.llc.tick
            result = inner(*args, **kwargs)
            counts["hier.accesses"] += max(0, stop - start)
            counts["hier.llc_accesses"] += hierarchy.llc.tick - tick
            return result

        return wrapper

    _patch_method(MemoryHierarchy, "run_trace", hier_run_trace)

    def hierarchy_runner(fn):
        inner = span("timing.walk_s", fn)

        def wrapper(*args, **kwargs):
            result = inner(*args, **kwargs)
            backend = result.extra.get("backend", {})
            for key, value in backend.items():
                if key.endswith(".writes"):
                    counts["mem.writes"] += value
                elif key.endswith(".pause_events"):
                    counts["mem.pause_events"] += value
            return result

        return wrapper

    _patch_method(HierarchyRunner, "run", hierarchy_runner)

    # multicore scheduler
    def mc_run(fn):
        inner = span(
            lambda args: "mc.run_s." + trace.policy_key(args[0].llc.policy), fn
        )

        def wrapper(system, traces, *args, **kwargs):
            tick = system.llc.tick
            result = inner(system, traces, *args, **kwargs)
            issued = system.llc.tick - tick
            counts["mc.accesses"] += issued
            counts["mc.wrapped"] += max(0, issued - sum(len(t) for t in traces))
            if result.shared:
                counts["shared.lines"] += result.shared.get("shared.lines", 0)
            return result

        return wrapper

    _patch_method(SharedLLCSystem, "run", mc_run)

    # kernel dispositions
    def kernel_try(fn):
        inner = span("kernel.s", fn)

        def wrapper(runtime, *args, **kwargs):
            previous = runtime.fallback_reason
            runtime.fallback_reason = None
            try:
                result = inner(runtime, *args, **kwargs)
            finally:
                reason = runtime.fallback_reason
                if reason is None:
                    runtime.fallback_reason = previous
            counts["kernel.offered"] += 1
            if result is not None:
                counts["kernel.served"] += 1
            else:
                counts["kernel.fallbacks." + fallback_slug(reason)] += 1
            return result

        return wrapper

    for name in (
        "try_run_trace",
        "try_lru_filter",
        "try_hierarchy_stages",
        "try_run_multicore",
    ):
        _patch_method(KernelRuntime, name, kernel_try)

    gc.callbacks.append(trace._on_gc)
    return trace


def metrics(trace: LayerTrace, wall_s: float, trace_info) -> Dict[str, float]:
    """The named per-layer metrics of one traced pass.

    ``trace_info`` is ``cached_trace.cache_info()`` after the pass.
    """
    self_s = trace.self_s
    counts = trace.counts
    out: Dict[str, float] = {}
    for bucket in SELF_BUCKETS:
        prefix = bucket + "."
        out[bucket] = self_s.get(bucket, 0.0) + sum(
            value for name, value in self_s.items() if name.startswith(prefix)
        )
    for policy in LLC_POLICIES:
        out[f"llc.replay_s.{policy}"] = self_s.get(f"llc.replay_s.{policy}", 0.0)
    for policy in MC_POLICIES:
        out[f"mc.run_s.{policy}"] = self_s.get(f"mc.run_s.{policy}", 0.0)
    out["gc.s"] = trace.gc_s
    out["unattributed_s"] = wall_s - sum(out[b] for b in SELF_BUCKETS) - trace.gc_s
    out["traced_wall_s"] = wall_s

    lookups = trace_info.hits + trace_info.misses
    out["trace.memo_hit_ratio"] = trace_info.hits / lookups if lookups else 0.0
    for name in (
        "trace.gen_calls",
        "trace.records",
        "trace.decode_calls",
        "sim.calls",
        "mix.alone_s",
        "mix.alone_calls",
        "llc.accesses",
        "hier.accesses",
        "hier.llc_accesses",
        "mem.writes",
        "mem.pause_events",
        "mc.accesses",
        "shared.lines",
        "kernel.offered",
        "kernel.served",
        "store.put_calls",
        "gc.collections",
    ):
        out[name] = counts.get(name, 0)
    for slug in FALLBACK_SLUGS:
        out[f"kernel.fallbacks.{slug}"] = counts.get(f"kernel.fallbacks.{slug}", 0)
    offered = out["kernel.offered"]
    out["kernel.served_ratio"] = out["kernel.served"] / offered if offered else 0.0

    def per_access(seconds: float, accesses: int) -> float:
        return seconds * 1e9 / accesses if accesses else 0.0

    out["llc.ns_per_access"] = per_access(out["llc.replay_s"], out["llc.accesses"])
    out["hier.ns_per_access"] = per_access(out["hier.stack_s"], out["hier.accesses"])
    out["mc.ns_per_access"] = per_access(out["mc.run_s"], out["mc.accesses"])
    issued = out["mc.accesses"]
    out["mc.wrap_frac"] = counts.get("mc.wrapped", 0) / issued if issued else 0.0
    out["mc.ucp_tadrrip_share"] = (
        out["mc.run_s.ucp"] + out["mc.run_s.tadrrip"]
    ) / wall_s
    return out


def _units() -> Dict[str, str]:
    units = {name: "s" for name in SELF_BUCKETS}
    units.update({f"llc.replay_s.{p}": "s" for p in LLC_POLICIES})
    units.update({f"mc.run_s.{p}": "s" for p in MC_POLICIES})
    units.update({f"kernel.fallbacks.{s}": "count" for s in FALLBACK_SLUGS})
    units.update({
        "gc.s": "s", "unattributed_s": "s", "traced_wall_s": "s",
        "mix.alone_s": "s", "tracer.overhead_s": "s",
        "tracer.overhead_frac": "ratio", "trace.memo_hit_ratio": "ratio",
        "kernel.served_ratio": "ratio", "mc.wrap_frac": "ratio",
        "mc.ucp_tadrrip_share": "ratio", "llc.ns_per_access": "ns",
        "hier.ns_per_access": "ns", "mc.ns_per_access": "ns",
        "store.bytes": "bytes", "host.speed": "ratio",
    })
    for name in ("trace.gen_calls", "trace.records", "trace.decode_calls",
                 "sim.calls", "mix.alone_calls", "llc.accesses",
                 "hier.accesses", "hier.llc_accesses", "mem.writes",
                 "mem.pause_events", "mc.accesses", "shared.lines",
                 "kernel.offered", "kernel.served", "store.put_calls",
                 "gc.collections", "engine.jobs", "engine.failed",
                 "engine.retried"):
        units[name] = "count"
    return units


#: unit of every per-layer metric a traced run reports.
UNITS = _units()
