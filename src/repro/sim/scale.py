"""Experiment scale, trace memoization and scale-aware policy builds.

The pieces :mod:`repro.sim.spec` needs to turn a spec into traces and
an LLC policy.  They live below ``repro.experiments`` so the layers
import one way (``engine -> experiments -> sim``);
:mod:`repro.experiments.runner` re-exports them unchanged.

Experiments default to a 1/8-scale system (256 KiB, 16-way LLC) with
workload working sets scaled identically, which preserves every relative
effect while keeping a full 29-benchmark x 6-policy sweep in seconds-to-
minutes of pure-Python simulation.  ``llc_lines=PAPER_LLC_LINES`` runs at
the paper's full 2 MB scale.

Traces are cached per (benchmark, scale, length, seed) so comparing many
policies replays identical access streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.cache.policy import ReplacementPolicy, make_policy
from repro.cache.policyspec import PolicySpec
from repro.common.config import CacheConfig, HierarchyConfig, default_hierarchy
from repro.core.rwp import RWPPolicy
from repro.trace.access import Trace
from repro.trace.generator import LINE_SIZE
from repro.trace.spec import make_model
from repro.trace.workload import WorkloadSpec, workload_trace

#: default experiment scale: 4096-line (256 KiB) LLC
DEFAULT_LLC_LINES = 4096


@dataclass(frozen=True)
class ExperimentScale:
    """Geometry + trace-length bundle for one experiment scale."""

    llc_lines: int = DEFAULT_LLC_LINES
    ways: int = 16
    warmup_factor: int = 8  # warmup accesses = factor * llc_lines
    measure_factor: int = 32  # measured accesses = factor * llc_lines
    seed: int = 2014

    def __post_init__(self) -> None:
        for name in ("llc_lines", "ways", "measure_factor"):
            if getattr(self, name) <= 0:
                raise ValueError(
                    f"{name} must be positive, got {getattr(self, name)}"
                )
        if self.warmup_factor < 0:
            raise ValueError(
                f"warmup_factor must be >= 0, got {self.warmup_factor}"
            )

    @property
    def warmup(self) -> int:
        return self.warmup_factor * self.llc_lines

    @property
    def total_accesses(self) -> int:
        return (self.warmup_factor + self.measure_factor) * self.llc_lines

    def hierarchy(self) -> HierarchyConfig:
        return default_hierarchy(
            llc_size=self.llc_lines * LINE_SIZE, llc_ways=self.ways
        )

    def llc_config(self) -> CacheConfig:
        return self.hierarchy().llc


def cached_trace(
    benchmark: "str | WorkloadSpec", llc_lines: int, num_accesses: int,
    seed: int,
) -> Trace:
    """Materialize (once) the trace of any workload at a given scale.

    ``benchmark`` is any workload reference -- a bare model name, a
    canonical ``kind:name,key=value`` string, or a
    :class:`~repro.trace.workload.WorkloadSpec`.  References are
    normalized to their store key before memoization, so ``"mcf"`` and
    ``"model:mcf"`` share one cache entry; file-backed sources fold
    their content digest into the cache identity, so an edited trace
    file re-reads instead of serving the stale parse.
    """
    spec = WorkloadSpec.coerce(benchmark)
    digest = spec.file_digest() if spec.is_file else ""
    return _cached_trace(spec.store_key(), digest, llc_lines, num_accesses, seed)


@lru_cache(maxsize=128)
def _cached_trace(
    workload_key: str, digest: str, llc_lines: int, num_accesses: int,
    seed: int,
) -> Trace:
    return workload_trace(workload_key, llc_lines, num_accesses, seed)


# The memo lives on the inner normalized-key function; forward the
# lru_cache control surface so callers can still drop the trace cache.
cached_trace.cache_clear = _cached_trace.cache_clear  # type: ignore[attr-defined]
cached_trace.cache_info = _cached_trace.cache_info  # type: ignore[attr-defined]


@lru_cache(maxsize=32)
def cached_shared_mix(
    mix_name: str, llc_lines: int, num_accesses: int, seed: int
) -> tuple:
    """Generate (once) the per-core traces of a data-sharing mix.

    Returns one global-address :class:`~repro.trace.access.Trace` per
    core (see :func:`repro.trace.generator.generate_shared_mix`); the
    private-mix counterpart is per-benchmark :func:`cached_trace`.
    """
    from repro.trace.generator import generate_shared_mix
    from repro.trace.mixes import get_mix

    mix = get_mix(mix_name)
    if mix.sharing is None:
        raise ValueError(f"mix {mix_name!r} has no sharing spec")
    models = [make_model(bench, llc_lines) for bench in mix.benchmarks]
    return tuple(
        generate_shared_mix(models, mix.sharing, num_accesses, seed=seed)
    )


def make_llc_policy(
    policy, llc_lines: int = DEFAULT_LLC_LINES, num_cores: int = 1
) -> ReplacementPolicy:
    """Instantiate a policy with scale-appropriate parameters.

    Accepts a registry name, a canonical spec string, or a
    :class:`~repro.cache.policyspec.PolicySpec`.  RWP's repartitioning
    epoch scales with cache size (the paper's epoch is fixed in
    instructions for a fixed-size cache; scaling keeps the number of
    fills per epoch comparable across scales); UCP, TA-DRRIP, PIPP, and
    core-aware RWP need the core count.  Spec kwargs override these
    defaults.
    """
    spec = PolicySpec.coerce(policy)
    name = spec.name
    kwargs = spec.kwargs_dict()
    rwp_epoch = max(4000, 2 * llc_lines)
    try:
        if name == "rwp":
            kwargs.setdefault("epoch", rwp_epoch)
            return RWPPolicy(**kwargs)
        if name == "rwp-core":
            from repro.core.rwp import CoreAwareRWPPolicy

            kwargs.setdefault("epoch", rwp_epoch)
            kwargs.setdefault("num_cores", num_cores)
            return CoreAwareRWPPolicy(**kwargs)
        if name == "rwp-srrip":
            from repro.core.variants import RWPSRRIPPolicy

            kwargs.setdefault("epoch", rwp_epoch)
            return RWPSRRIPPolicy(**kwargs)
        if name == "rwp-bypass":
            from repro.core.variants import RWPBypassPolicy

            kwargs.setdefault("epoch", rwp_epoch)
            return RWPBypassPolicy(**kwargs)
        if name == "ucp":
            from repro.cache.ucp import UCPPolicy

            kwargs.setdefault("num_cores", num_cores)
            return UCPPolicy(**kwargs)
        if name == "tadrrip":
            from repro.cache.rrip import TADRRIPPolicy

            kwargs.setdefault("num_cores", num_cores)
            return TADRRIPPolicy(**kwargs)
        if name == "pipp":
            from repro.cache.pipp import PIPPPolicy

            kwargs.setdefault("num_cores", num_cores)
            return PIPPPolicy(**kwargs)
    except TypeError as exc:
        raise ValueError(f"bad parameters for policy {spec}: {exc}") from None
    return make_policy(spec)
