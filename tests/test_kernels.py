"""Kernel-conformance harness: SoA batch kernels vs dict driver vs scalar.

Pins the load-bearing invariant of the :mod:`repro.kernels` layer: for
every supported configuration the native/auto SoA kernels, the
dict-driven batch drivers, and the one-access-at-a-time scalar walk
produce bit-identical statistics, final set state (line-by-line,
including stamps and read/write-seen bits), lookup tables (as key sets
-- insertion order is driver-dependent and not semantically
observable), and downstream writeback streams.  And for every
*unsupported* configuration -- a policy outside the kernel matrix, a
missing compiler, numpy absent -- the kernel layer must fall back
silently and change nothing.

Runs under the tier-1 suite at modest Hypothesis example counts and
under the deep-conformance CI job (``REPRO_DEEP_TESTS=1``) at many
more.
"""

from __future__ import annotations

import pytest

from repro.common.config import CacheConfig
from repro.engine.jobs import RunJob
from repro.experiments.runner import ExperimentScale
from repro.kernels import (
    KernelSpec,
    attach_kernel,
    native_available,
    reset_native_cache,
)
from repro.sim.spec import SimulationSpec, simulate
from repro.trace.access import Trace
from repro.verify.differ import COMPARED_STATS, make_sut_cache
from repro.verify.fuzzer import FUZZ_GEOMETRIES, fuzz_trace

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAVE_HYPOTHESIS = False

#: the policies inside the native kernel's supported matrix.
KERNEL_POLICIES = ("lru", "rwp", "rwp-core")

#: policies outside the matrix: attaching a kernel must be a no-op.
FALLBACK_POLICIES = ("ship", "drrip")

needs_native = pytest.mark.skipif(
    not native_available(), reason="no C compiler for the native kernel"
)


def _config(num_sets: int, ways: int) -> CacheConfig:
    return CacheConfig(size=num_sets * ways * 64, ways=ways, name="ktest")


def _trace_from(num_sets, set_indices, tags, writes) -> Trace:
    addresses = [
        (tag * num_sets + si) * 64 for si, tag in zip(set_indices, tags)
    ]
    pcs = [4 * (i % 97) for i in range(len(addresses))]
    return Trace(addresses, list(writes), pcs)


def _stats(cache) -> dict:
    return {name: getattr(cache, name) for name in COMPARED_STATS}


def _full_line_state(cache) -> list:
    """Every field the kernels touch, line by line, in way order."""
    return [
        [
            (
                line.tag,
                line.valid,
                line.dirty,
                line.stamp,
                line.owner,
                line.read_seen,
                line.write_seen,
            )
            for line in s.lines
        ]
        for s in cache.sets
    ]


def _lookup_keysets(cache) -> list:
    # Key *sets*: the stamped drivers leave lookup in stamp order, the
    # generic dict loop in insertion order; victim selection never
    # depends on dict order, so order is not part of the contract.
    return [frozenset(s.lookup) for s in cache.sets]


def _set_invariants(cache) -> list:
    return [(s.filled, s.dirty_lines) for s in cache.sets]


def _clock(cache):
    stamp = cache.plan.stamp_policy
    return None if stamp is None else stamp._clock


def _run(policy: str, trace: Trace, config: CacheConfig, kernel=None):
    cache = make_sut_cache(policy, config)
    if kernel is not None:
        attach_kernel(cache, kernel)
    cache.run_trace(trace.decoded(config))
    return cache


def _scalar(policy: str, trace: Trace, config: CacheConfig):
    cache = make_sut_cache(policy, config)
    for address, is_write, pc, _gap in trace:
        cache.access(address, is_write, pc)
    return cache


def assert_field_for_field(kern, ref, scalar=None):
    assert _stats(kern) == _stats(ref)
    assert _full_line_state(kern) == _full_line_state(ref)
    assert _lookup_keysets(kern) == _lookup_keysets(ref)
    assert _set_invariants(kern) == _set_invariants(ref)
    assert _clock(kern) == _clock(ref)
    assert kern.tick == ref.tick
    if scalar is not None:
        assert _stats(kern) == _stats(scalar)
        assert _full_line_state(kern) == _full_line_state(scalar)


class TestKernelConformance:
    """native kernel == dict driver == scalar, field for field."""

    @needs_native
    @pytest.mark.parametrize("policy", KERNEL_POLICIES)
    @pytest.mark.parametrize("geometry", FUZZ_GEOMETRIES)
    def test_fuzz_geometries(self, policy, geometry):
        num_sets, ways = geometry
        config = _config(num_sets, ways)
        trace = fuzz_trace("mixed", 71 + num_sets + ways, num_sets, ways, 1024)
        kern = _run(policy, trace, config, kernel="native")
        ref = _run(policy, trace, config)
        scalar = _scalar(policy, trace, config)
        assert_field_for_field(kern, ref, scalar)

    @needs_native
    @pytest.mark.parametrize("policy", KERNEL_POLICIES)
    @pytest.mark.parametrize(
        "scenario", ("conflict", "dirty_storm", "phase_shift")
    )
    def test_scenarios(self, policy, scenario):
        num_sets, ways = 16, 4
        config = _config(num_sets, ways)
        trace = fuzz_trace(scenario, 1234, num_sets, ways, 2048)
        kern = _run(policy, trace, config, kernel="native")
        ref = _run(policy, trace, config)
        assert_field_for_field(kern, ref)

    if HAVE_HYPOTHESIS:

        @needs_native
        @settings(deadline=None)
        @given(
            geometry=st.sampled_from(FUZZ_GEOMETRIES),
            policy=st.sampled_from(KERNEL_POLICIES),
            data=st.data(),
        )
        def test_random_traces(self, geometry, policy, data):
            num_sets, ways = geometry
            n = data.draw(st.integers(16, 300), label="length")
            set_indices = data.draw(
                st.lists(
                    st.integers(0, num_sets - 1), min_size=n, max_size=n
                ),
                label="sets",
            )
            tags = data.draw(
                st.lists(st.integers(0, 2 * ways), min_size=n, max_size=n),
                label="tags",
            )
            writes = data.draw(
                st.lists(st.booleans(), min_size=n, max_size=n),
                label="writes",
            )
            trace = _trace_from(num_sets, set_indices, tags, writes)
            config = _config(num_sets, ways)
            kern = _run(policy, trace, config, kernel="native")
            ref = _run(policy, trace, config)
            scalar = _scalar(policy, trace, config)
            assert_field_for_field(kern, ref, scalar)

    @needs_native
    @pytest.mark.parametrize("mode", ("llc", "hierarchy"))
    @pytest.mark.parametrize("policy", ("lru", "rwp"))
    def test_timed_runs_identical(self, mode, policy):
        scale = ExperimentScale(
            llc_lines=256, warmup_factor=2, measure_factor=6, seed=7
        )
        base = dict(workload="mcf", policy=policy, mode=mode, scale=scale)
        ref = simulate(SimulationSpec(**base, kernel="dict"))
        kern = simulate(SimulationSpec(**base, kernel="native"))
        assert kern == ref

    @needs_native
    @pytest.mark.parametrize("policy", ("lru", "rwp"))
    def test_multicore_mix_on_fresh_views(self, policy):
        # Every array the lanes point into (streams, cycle costs, write
        # rings) is built for this one replay and memoized nowhere, so
        # the kernel reads valid data only while the runtime holds each
        # of them across the C call.
        from repro.common.config import default_hierarchy
        from repro.multicore.shared import SharedLLCSystem
        from repro.trace.workload import workload_trace

        llc_lines, accesses, warmup = 256, 6144, 1024
        traces = [
            workload_trace(bench, llc_lines, accesses, 11 + core)
            for core, bench in enumerate(("mcf", "soplex", "lbm", "omnetpp"))
        ]
        config = default_hierarchy(llc_size=4 * llc_lines * 64, llc_ways=16)
        results = []
        for kernel in ("dict", "native"):
            system = SharedLLCSystem(config, 4, policy)
            attach_kernel(system, kernel)
            results.append(system.run(traces, warmup=warmup))
        assert system.llc.kernel.fallback_reason is None
        ref, kern = results
        assert kern == ref


class TestKernelFallback:
    """Unsupported shapes must fall back to the dict driver unchanged."""

    @needs_native
    @pytest.mark.parametrize("policy", FALLBACK_POLICIES)
    def test_unsupported_policy(self, policy):
        num_sets, ways = 16, 4
        config = _config(num_sets, ways)
        trace = fuzz_trace("mixed", 99, num_sets, ways, 1024)
        kern = _run(policy, trace, config, kernel="native")
        ref = _run(policy, trace, config)
        assert _stats(kern) == _stats(ref)
        assert _full_line_state(kern) == _full_line_state(ref)

    @pytest.mark.parametrize("kernel", ("native", "auto"))
    def test_forced_fallback_without_native(self, kernel, monkeypatch):
        # With REPRO_NO_NATIVE set every kernel spec degrades to the
        # dict driver.
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
        reset_native_cache()
        try:
            num_sets, ways = 16, 4
            config = _config(num_sets, ways)
            trace = fuzz_trace("dirty_storm", 5, num_sets, ways, 768)
            kern = _run("rwp", trace, config, kernel=kernel)
            ref = _run("rwp", trace, config)
            assert_field_for_field(kern, ref)
        finally:
            monkeypatch.delenv("REPRO_NO_NATIVE")
            reset_native_cache()

    @pytest.fixture
    def degraded(self, monkeypatch, tmp_path):
        """Apply one way of making the native kernel unavailable."""

        def apply(how):
            if how == "no-native":
                monkeypatch.setenv("REPRO_NO_NATIVE", "1")
            else:  # a kernel cache directory under a regular file
                blocker = tmp_path / "not-a-dir"
                blocker.write_text("")
                monkeypatch.setenv("REPRO_KERNEL_CACHE", str(blocker / "k"))
            reset_native_cache()

        yield apply
        reset_native_cache()

    @pytest.mark.parametrize(
        "how, kind", [("no-native", "disabled"), ("bad-cache", "cache-dir")]
    )
    def test_unavailable_native_degrades_auto_with_one_line(
        self, how, kind, degraded, capsys
    ):
        from repro.kernels import load_failure, load_native
        from repro.sim.spec import last_kernel_info

        scale = ExperimentScale(
            llc_lines=256, warmup_factor=2, measure_factor=4, seed=7
        )
        ref = simulate(SimulationSpec("mcf", "rwp", scale=scale, kernel="dict"))
        capsys.readouterr()
        degraded(how)
        assert load_native() is None
        assert load_failure().kind == kind
        assert simulate(SimulationSpec("mcf", "rwp", scale=scale)) == ref
        # A second degraded runtime in the same process stays quiet.
        simulate(SimulationSpec("mcf", "lru", scale=scale))
        info = last_kernel_info()
        assert info["backend"] is None and kind in info["fallback"]
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert "'auto'" in err and kind in err

    def test_attach_dict_detaches(self):
        config = _config(16, 4)
        cache = make_sut_cache("lru", config)
        attach_kernel(cache, "native")
        attach_kernel(cache, "dict")
        assert cache.kernel is None


class TestFilterStream:
    """run_lru_filter: kernel and dict emit identical downstream ops."""

    @needs_native
    def test_filter_streams_identical(self):
        config = _config(8, 2)
        trace = fuzz_trace("conflict", 17, 8, 2, 512)
        decoded = trace.decoded(config)
        outputs = []
        for kernel in (None, "native"):
            cache = make_sut_cache("lru", config)
            if kernel is not None:
                attach_kernel(cache, kernel)
            assert cache.lru_filter_eligible()
            out_blocks: list = []
            out_write: list = []
            out_origin: list = []
            levels = [0] * len(decoded)
            served = cache.run_lru_filter(
                decoded.set_indices,
                decoded.tags,
                decoded.is_write,
                0,
                len(decoded),
                out_blocks,
                out_write,
                out_origin,
                origins=list(range(len(decoded))),
                levels=levels,
                level=1,
            )
            outputs.append(
                (served, out_blocks, out_write, out_origin, levels,
                 _stats(cache), _full_line_state(cache))
            )
        assert outputs[0] == outputs[1]


class TestSystemKernels:
    """Hierarchy and multicore replays under the kernel match scalar."""

    @needs_native
    @pytest.mark.parametrize("policy", ("lru", "rwp"))
    def test_hierarchy_kernel_conformant(self, policy):
        from repro.verify.system import (
            HIERARCHY_GEOMETRIES,
            diff_hierarchy,
            small_hierarchy,
        )

        geometry = HIERARCHY_GEOMETRIES[1]
        trace = fuzz_trace(
            "mixed", 404, geometry[2][0], geometry[2][1], 1024
        )
        config = small_hierarchy(geometry)
        assert diff_hierarchy(policy, trace, config, kernel="native") is None

    @needs_native
    @pytest.mark.parametrize("policy", ("lru", "rwp", "rwp-core"))
    def test_multicore_kernel_conformant(self, policy):
        from repro.verify.fuzzer import SCENARIOS
        from repro.verify.system import (
            MULTICORE_GEOMETRIES,
            diff_multicore,
            small_hierarchy,
        )

        num_cores, llc_sets, ways = MULTICORE_GEOMETRIES[2]
        config = small_hierarchy(((4, 2), (8, 4), (llc_sets, ways)))
        traces = [
            fuzz_trace(
                SCENARIOS[core % len(SCENARIOS)],
                808 + core,
                llc_sets,
                ways,
                768,
            )
            for core in range(num_cores)
        ]
        assert (
            diff_multicore(
                policy, traces, config, num_cores, warmup=128,
                kernel="native",
            )
            is None
        )


class TestKernelSpec:
    def test_parse_and_roundtrip(self):
        spec = KernelSpec.parse("native")
        assert spec.name == "native" and spec.kwargs == ()
        assert str(spec) == "native" == spec.key()
        assert KernelSpec.coerce(spec) is spec
        assert KernelSpec.coerce("auto").is_default
        assert not KernelSpec.coerce("dict").is_default
        assert not KernelSpec.make("native").is_default
        assert KernelSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            KernelSpec.parse("fortran")

    def test_numba_is_not_a_kernel(self):
        with pytest.raises(ValueError, match="known: dict, native, auto"):
            KernelSpec.parse("numba")

    def test_bad_parameter_rejected(self):
        with pytest.raises(ValueError):
            KernelSpec.parse("native:oops")


class TestStoreKeying:
    """The kernel is out of job identity: every kernel shares one key."""

    #: ``RunJob("mcf", "lru", ExperimentScale(llc_lines=256))`` as the
    #: store keyed it while ``dict`` was the default kernel.
    PARENT_DEFAULT_PAYLOAD = {
        "kind": "run",
        "benchmark": "mcf",
        "policy": "lru",
        "scale": {
            "llc_lines": 256,
            "ways": 16,
            "warmup_factor": 8,
            "measure_factor": 32,
            "seed": 2014,
        },
        "geometry": {"llc_lines": 256, "ways": 16},
    }

    def test_runjob_payload_omits_default_kernel(self):
        scale = ExperimentScale(llc_lines=256)
        jobs = [
            RunJob("mcf", "lru", scale, kernel=kernel)
            for kernel in ("dict", "native", "auto")
        ]
        assert RunJob("mcf", "lru", scale).kernel == "auto"
        for job in jobs:
            assert job.payload() == self.PARENT_DEFAULT_PAYLOAD
            assert job.key() == jobs[0].key()
            assert job.label == "mcf/lru"

    def test_mixjob_payload_is_kernel_free(self):
        from repro.engine.jobs import MixJob

        scale = ExperimentScale(llc_lines=256)
        jobs = [
            MixJob("mix4x01", "rwp", scale, kernel=kernel)
            for kernel in ("dict", "native", "auto")
        ]
        parent_default_payload = {
            "kind": "mix",
            "mix": "mix4x01",
            "policy": "rwp",
            "per_core": self.PARENT_DEFAULT_PAYLOAD["scale"],
            "num_cores": 4,
        }
        for job in jobs:
            assert job.payload() == parent_default_payload
            assert job.key() == jobs[0].key()
            assert job.label == "mix4x01/rwp"

    def test_spec_label_and_key(self):
        spec = SimulationSpec("mcf", "lru", kernel="native")
        assert spec.kernel_key == "native"
        assert SimulationSpec("mcf", "lru").kernel_spec.is_default
        for kernel in ("dict", "native", "auto"):
            assert SimulationSpec("mcf", "lru", kernel=kernel).label == (
                "llc:mcf/lru"
            )

    def test_system_fuzz_job_keying(self):
        from repro.verify.system import SystemFuzzJob

        base = dict(
            target="hierarchy", policy="lru", scenario="mixed",
            seed=1, geometry=0,
        )
        default = SystemFuzzJob(**base)
        kerneled = SystemFuzzJob(**base, kernel="native")
        assert "kernel" not in default.payload()
        assert kerneled.payload()["kernel"] == "native"
        assert kerneled.key() != default.key()
        assert kerneled.label.endswith("~native")


class TestNumpyAbsent:
    """With numpy stubbed out everything degrades, bit-identically."""

    @pytest.fixture
    def no_numpy(self, monkeypatch):
        import repro.kernels.runner as kernels_runner
        import repro.kernels.soa as kernels_soa
        import repro.trace.decode as trace_decode

        monkeypatch.setattr(trace_decode, "np", None)
        monkeypatch.setattr(kernels_soa, "np", None)
        monkeypatch.setattr(kernels_runner, "np", None)

    def test_decode_pure_python_parity(self, no_numpy):
        trace = fuzz_trace("mixed", 2024, 16, 4, 512)
        config = _config(16, 4)
        stubbed = trace.decoded(config)
        assert stubbed.kernel_streams() is None
        assert stubbed.kernel_cycles(0.5) is None

        # A second decode of the same records with numpy restored must
        # produce the same set indices and tags (the fallback mirrors
        # the vector path's arithmetic element by element).
        fresh = Trace(
            list(trace.addresses), list(trace.is_write), list(trace.pcs)
        )
        import numpy  # noqa: F401  (restored outside the fixture scope)
        import repro.trace.decode as trace_decode

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(trace_decode, "np", numpy)
            vectored = fresh.decoded(config)
            assert vectored.set_indices == stubbed.set_indices
            assert vectored.tags == stubbed.tags

    def test_kernel_layer_falls_back(self, no_numpy):
        config = _config(16, 4)
        trace = fuzz_trace("dirty_storm", 11, 16, 4, 512)
        kern = _run("rwp", trace, config, kernel="native")
        ref = _run("rwp", trace, config)
        assert_field_for_field(kern, ref)
