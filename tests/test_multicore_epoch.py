"""The epoch-interleaved multicore driver against its scalar interleave."""

from __future__ import annotations

import pytest

from repro.common.config import default_hierarchy
from repro.multicore.shared import SharedLLCSystem
from repro.trace.access import Trace
from repro.verify.fuzzer import SCENARIOS, fuzz_trace
from repro.verify.system import _cache_state, _system_policy

try:
    from hypothesis import given, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is a dev extra
    HAVE_HYPOTHESIS = False

LLC_SETS, LLC_WAYS = 32, 4
CONFIG = default_hierarchy(llc_size=LLC_SETS * LLC_WAYS * 64, llc_ways=LLC_WAYS)


def run_both_ways(policy, traces, num_cores, warmup=0):
    batched = SharedLLCSystem(CONFIG, num_cores, _system_policy(policy, num_cores))
    scalar = SharedLLCSystem(CONFIG, num_cores, _system_policy(policy, num_cores))
    got = batched.run(traces, warmup=warmup)
    want = scalar.run_scalar(traces, warmup=warmup)
    return batched, scalar, got, want


def assert_equivalent(batched, scalar, got, want):
    # Field-for-field, including the exact IEEE cycle floats: any drift
    # in the interleave shows up as a cycle-count difference.
    assert got.policy == want.policy
    assert got.cores == want.cores
    assert _cache_state(batched.llc) == _cache_state(scalar.llc)
    assert batched.llc.snapshot() == scalar.llc.snapshot()
    assert batched.llc.tick == scalar.llc.tick


def core_traces(num_cores, seed, length):
    return [
        fuzz_trace(
            SCENARIOS[core % len(SCENARIOS)],
            seed + core,
            LLC_SETS,
            LLC_WAYS,
            length,
        )
        for core in range(num_cores)
    ]


@pytest.mark.parametrize(
    "policy",
    [
        "lru",
        "dip",
        "drrip",
        "ship",
        "rrp",
        "rwp",
        "rwp-core",
        "ucp",
        "tadrrip",
        "pipp",
    ],
)
def test_epoch_driver_equals_scalar(policy):
    traces = core_traces(4, 2101, 768)
    assert_equivalent(*run_both_ways(policy, traces, 4, warmup=192))


def test_zero_warmup():
    traces = core_traces(2, 2102, 512)
    assert_equivalent(*run_both_ways("rwp", traces, 2, warmup=0))


def test_single_core_degenerates_cleanly():
    traces = core_traces(1, 2103, 512)
    assert_equivalent(*run_both_ways("lru", traces, 1, warmup=64))


def test_unequal_trace_lengths():
    """Cores finishing at different times must not skew the interleave."""
    lengths = (256, 1024, 512, 384)
    traces = [
        fuzz_trace(SCENARIOS[i % len(SCENARIOS)], 2104 + i, LLC_SETS, LLC_WAYS, n)
        for i, n in enumerate(lengths)
    ]
    assert_equivalent(*run_both_ways("rwp", traces, 4, warmup=128))


def test_warmup_validation():
    traces = core_traces(2, 2105, 64)
    system = SharedLLCSystem(CONFIG, 2, "lru")
    with pytest.raises(ValueError, match="warmup"):
        system.run(traces, warmup=64)
    with pytest.raises(ValueError, match="need 2"):
        system.run(traces[:1])


if HAVE_HYPOTHESIS:

    @given(
        cores=st.lists(
            st.lists(
                st.tuples(st.integers(0, 255), st.booleans()),
                min_size=8,
                max_size=160,
            ),
            min_size=1,
            max_size=4,
        ),
        policy=st.sampled_from(["lru", "rwp", "rwp-core", "ucp", "tadrrip", "rrp"]),
        warmup_frac=st.integers(0, 3),
    )
    def test_property_epoch_equals_scalar(cores, policy, warmup_frac):
        traces = [
            Trace(
                [line * 64 for line, _ in pairs],
                [w for _, w in pairs],
                name=f"core{i}",
            )
            for i, pairs in enumerate(cores)
        ]
        warmup = min(len(t) for t in traces) * warmup_frac // 4
        assert_equivalent(
            *run_both_ways(policy, traces, len(traces), warmup=warmup)
        )
