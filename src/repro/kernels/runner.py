"""Kernel runtime: gate, gather, run the native kernel, scatter back.

A :class:`KernelRuntime` is attached to a
:class:`~repro.cache.cache.SetAssociativeCache` as its ``kernel``
attribute (see :func:`repro.kernels.attach_kernel`); the cache's batch
drivers then offer it every eligible replay via the ``try_*`` methods.
Each ``try_*`` returns ``None`` when the configuration is outside the
kernel's supported matrix -- the caller falls through to the dict-driven
reference driver, which is always correct.  When a kernel does run, the
result is bit-identical to the reference driver by construction (same
operation order, same IEEE arithmetic); the conformance suite and the
verify fuzzers hold that equivalence.

Supported configurations:

* recency-stamped plans the cache's stamped gate admits
  (:meth:`~repro.cache.cache.SetAssociativeCache.stamped_block_reason`:
  no full observer, no bypass, no evict training, no access or eviction
  listener, no prefetches in flight, no PC consumers) -- the plans the
  dict driver replays through ``_session_stamped``;
* victim selection: plain min-stamp (LRU), the RWP partitioned
  min-stamp, or the core-aware RWP scan (``<= 64`` policy cores);
* sampling via ``ReadWriteSampler`` / ``CoreReadWriteSampler``, epochs
  via the RWP repartition hooks (the repartition itself still runs in
  Python through a callback at every epoch boundary);
* timing via the flat :class:`~repro.cpu.timing.TimingModel` (no
  request-level memory backend).
"""

from __future__ import annotations

import ctypes
from math import inf
from typing import List, Optional

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised via tests stubbing numpy
    np = None

from repro.core.rwp import CoreAwareRWPPolicy, RWPPolicy
from repro.core.sampler import CoreReadWriteSampler, ReadWriteSampler
from repro.kernels import soa
from repro.kernels.build import (
    EPOCH_CB,
    CacheCtx,
    FilterCtx,
    LaneCtx,
    MultiCtx,
    load_native,
)
from repro.kernels.spec import KernelSpec

#: victim kinds, matching the defines in native_src.c
_VICTIM_MIN_STAMP = 0
_VICTIM_RWP = 1
_VICTIM_CORE_RWP = 2

_STATUS_CALLBACK_ABORT = 2

#: clean_occ/dirty_occ in the C victim scan are fixed-size stack arrays
_MAX_POLICY_CORES = 64

#: epoch hooks the native kernel may drive through the callback: they
#: read only sampler histograms and write only partition targets, both
#: of which the callback resynchronizes.
_SAFE_EPOCH_HOOKS = (RWPPolicy.on_epoch, CoreAwareRWPPolicy.on_epoch)


class _CacheBinding:
    """One cache gathered into a populated ``CacheCtx``, ready to run."""

    __slots__ = (
        "cache",
        "ctx",
        "image",
        "stamp",
        "kind",
        "samplers",
        "simage",
        "stride",
        "target_arrays",
        "epoch_cb",
        "errors",
    )

    def __init__(self) -> None:
        self.samplers = None
        self.simage = None
        self.stride = 0
        self.target_arrays = None
        self.epoch_cb = None
        self.errors: List[BaseException] = []


def _victim_kind(cache) -> Optional[int]:
    plan = cache.plan
    if plan.min_stamp_victim:
        return _VICTIM_MIN_STAMP
    if plan.partition_min_stamp_victim:
        return _VICTIM_RWP
    victim_func = getattr(cache._victim, "__func__", None)
    if victim_func is CoreAwareRWPPolicy.victim:
        policy = cache.policy
        # The C scan enforces plain per-core budgets; the blend's
        # global-mode delegation and the shared-claimant classification
        # both dispatch per-eviction in Python, so they stay dict-only.
        if getattr(policy, "blend", False):
            return None
        if getattr(policy, "directory", None) is not None:
            return None
        if 1 <= policy.num_cores <= _MAX_POLICY_CORES:
            return _VICTIM_CORE_RWP
    return None


def _victim_block_reason(cache) -> str:
    """Why :func:`_victim_kind` said no, for fallback surfacing."""
    victim_func = getattr(cache._victim, "__func__", None)
    if victim_func is CoreAwareRWPPolicy.victim:
        policy = cache.policy
        if getattr(policy, "blend", False):
            return "rwp-core blend arbitration is dict-only"
        if getattr(policy, "directory", None) is not None:
            return "rwp-core shared-claimant arbitration is dict-only"
        return f"rwp-core with more than {_MAX_POLICY_CORES} cores"
    return (
        f"victim selection of {type(cache.policy).__name__} "
        "has no kernel counterpart"
    )


def bind_cache(cache, reasons: Optional[List[str]] = None) -> Optional[_CacheBinding]:
    """Gather ``cache`` into a ``CacheCtx``; None when unsupported.

    When ``reasons`` is given, every decline appends one human-readable
    sentence fragment explaining it (the fallback-surfacing channel).
    """

    def decline(reason: str) -> None:
        if reasons is not None:
            reasons.append(reason)
        return None

    if np is None:
        return decline("numpy is unavailable")
    blocked = cache.stamped_block_reason()
    if blocked is not None:
        return decline(blocked)
    kind = _victim_kind(cache)
    if kind is None:
        return decline(_victim_block_reason(cache))
    plan = cache.plan
    policy = cache.policy
    stamp = plan.stamp_policy

    binding = _CacheBinding()
    binding.cache = cache
    binding.stamp = stamp
    binding.kind = kind

    # -- sampler ----------------------------------------------------------
    on_sample = cache._on_sample
    stride = cache._sample_stride
    route_mod = 0
    if on_sample is not None:
        if stride <= 0:
            return decline("sample hook installed without a stride")
        observe_func = getattr(on_sample, "__func__", None)
        if observe_func is ReadWriteSampler.observe:
            samplers = [on_sample.__self__]
        elif observe_func is CoreReadWriteSampler.observe:
            router = on_sample.__self__
            samplers = list(router.samplers)
            route_mod = router.num_cores
        else:
            return decline("sample hook is not a recognized shadow sampler")
        simage = soa.gather_sampler(
            samplers, stride, len(cache.sets), cache.ways
        )
        if simage is None:
            return decline("shadow-sampler state not SoA-representable")
        binding.samplers = samplers
        binding.simage = simage
        binding.stride = stride
    else:
        stride = 0

    # -- epoch hook -------------------------------------------------------
    on_epoch = cache._on_epoch
    period = cache._epoch_period
    if period:
        if getattr(on_epoch, "__func__", None) not in _SAFE_EPOCH_HOOKS:
            return decline("epoch hook is not on the kernel-safe list")
    else:
        period = 0

    image = soa.gather_lines(cache)
    if image is None:
        return decline("cache line state not SoA-representable")
    binding.image = image

    ctx = CacheCtx()
    try:
        ctx.num_sets = len(cache.sets)
        ctx.ways = cache.ways
        ctx.index_bits = cache._index_bits
        ctx.offset_bits = cache._offset_bits
        ctx.tag = soa.ptr_int64(image.tag)
        ctx.stamp = soa.ptr_int64(image.stamp)
        ctx.owner = soa.ptr_int64(image.owner)
        ctx.valid = soa.ptr_uint8(image.valid)
        ctx.dirty = soa.ptr_uint8(image.dirty)
        ctx.read_seen = soa.ptr_uint8(image.read_seen)
        ctx.write_seen = soa.ptr_uint8(image.write_seen)
        ctx.filled = soa.ptr_int64(image.filled)
        ctx.dirty_lines = soa.ptr_int64(image.dirty_lines)
        ctx.victim_kind = kind
        if kind == _VICTIM_RWP:
            ctx.target_clean = stamp.target_clean
        elif kind == _VICTIM_CORE_RWP:
            clean_arr = np.array(policy.clean_targets, dtype=np.int64)
            dirty_arr = np.array(policy.dirty_targets, dtype=np.int64)
            binding.target_arrays = (clean_arr, dirty_arr)
            ctx.policy_cores = policy.num_cores
            ctx.clean_targets = soa.ptr_int64(clean_arr)
            ctx.dirty_targets = soa.ptr_int64(dirty_arr)
        ctx.clock = stamp._clock
        if binding.samplers is not None:
            simage = binding.simage
            ctx.sample_stride = stride
            ctx.sampler_route_mod = route_mod
            ctx.shadow_slots = simage.slots
            ctx.sh_tags = soa.ptr_int64(simage.sh_tags)
            ctx.sh_len = soa.ptr_int64(simage.sh_len)
            ctx.sh_touched = soa.ptr_uint8(simage.sh_touched)
            ctx.hist = soa.ptr_int64(simage.hist)
        ctx.epoch_period = period
        ctx.epoch_left = cache._epoch_left
        soa.load_stats(ctx, cache)
    except OverflowError:
        return decline("cache state overflows the int64 kernel ABI")
    binding.ctx = ctx

    if period:
        binding.epoch_cb = EPOCH_CB(_make_epoch_cb(binding, on_epoch))
        ctx.epoch_cb = binding.epoch_cb
    return binding


def _make_epoch_cb(binding: _CacheBinding, on_epoch):
    """The C->Python epoch trampoline: resync, repartition, resync."""

    def fire() -> int:
        try:
            samplers = binding.samplers
            if samplers is not None:
                # The kernel's histograms are authoritative mid-run;
                # push them into the sampler objects the hook reads.
                soa.sync_hist_to_python(samplers, binding.simage)
            on_epoch()
            # Pull the (possibly re-partitioned) targets back into the
            # context the victim scan reads ...
            ctx = binding.ctx
            if binding.kind == _VICTIM_RWP:
                ctx.target_clean = binding.stamp.target_clean
            elif binding.kind == _VICTIM_CORE_RWP:
                policy = binding.cache.policy
                clean_arr, dirty_arr = binding.target_arrays
                clean_arr[:] = policy.clean_targets
                dirty_arr[:] = policy.dirty_targets
            # ... and the (decayed) histograms back into the kernel.
            # decay() replaces the list objects, so re-read attributes.
            if samplers is not None:
                soa.sync_hist_to_image(samplers, binding.simage)
            return 0
        except BaseException as exc:  # noqa: BLE001 - re-raised after scatter
            binding.errors.append(exc)
            return 1

    return fire


def scatter_cache(binding: _CacheBinding) -> None:
    """Write the (mutated) context back into the cache objects."""
    cache = binding.cache
    ctx = binding.ctx
    soa.scatter_lines(cache, binding.image)
    soa.flush_stats(cache, ctx)
    binding.stamp._clock = ctx.clock
    cache._epoch_left = ctx.epoch_left
    if binding.samplers is not None:
        soa.scatter_sampler(binding.samplers, binding.simage, binding.stride)


def _finish(binding: _CacheBinding) -> None:
    """Scatter and re-raise a trapped epoch-callback exception, if any."""
    scatter_cache(binding)
    if binding.ctx.status == _STATUS_CALLBACK_ABORT and binding.errors:
        raise binding.errors[0]


def _fill_lane_timing(lane: LaneCtx, timing, decoded):
    """Hoist the TimingModel state into ``lane``; returns the wb ring."""
    lane.timed = 1
    lane.cycle_stream = soa.ptr_double(
        soa.cycle_array(decoded, timing.core.base_cpi)
    )
    mlp = timing.core.mlp
    lane.hit_stall = timing.llc_hit_latency / mlp
    lane.miss_stall = timing.memory.latency / mlp
    lane.cycles = timing.cycles
    lane.read_stall = timing.read_stall_cycles
    lane.write_stall = timing.write_stall_cycles
    lane.instructions = timing.instructions
    return soa.load_write_buffer(lane, timing.write_buffer)


def _flush_lane_timing(timing, lane: LaneCtx, ring) -> None:
    timing.cycles = lane.cycles
    timing.instructions = lane.instructions
    timing.read_stall_cycles = lane.read_stall
    timing.write_stall_cycles = lane.write_stall
    soa.flush_write_buffer(timing.write_buffer, lane, ring)


class KernelRuntime:
    """Dispatches eligible batch replays to a compiled kernel backend."""

    def __init__(self, spec: KernelSpec) -> None:
        self.spec = spec
        self._resolved = False
        self._native = None
        #: why the most recent ``try_*`` dispatch fell back to the dict
        #: driver (None while every dispatch ran on a kernel).  Surfaced
        #: by ``repro run`` and logged by the bench harness, so a
        #: requested kernel never degrades silently.
        self.fallback_reason: Optional[str] = None

    def _fallback(self, reason: str) -> None:
        """Record why this dispatch uses the dict driver; returns None."""
        self.fallback_reason = reason
        return None

    def _bind(self, cache) -> Optional[_CacheBinding]:
        """``bind_cache`` with the decline reason routed to the runtime."""
        reasons: List[str] = []
        binding = bind_cache(cache, reasons)
        if binding is None:
            self._fallback(reasons[0] if reasons else "kernel binding declined")
        return binding

    def _resolve(self):
        if not self._resolved:
            self._resolved = True
            if self.spec.name in ("native", "auto"):
                self._native = load_native()
        return self._native

    @property
    def active_backend(self) -> Optional[str]:
        """Which backend actually runs: 'native', or None."""
        return "native" if self._resolve() is not None else None

    # -- single-cache replay ----------------------------------------------
    def try_run_trace(
        self, cache, decoded, start, stop, timing, core
    ) -> Optional[int]:
        """Kernel counterpart of ``run_trace``; None -> dict fallback."""
        if start >= stop:
            return None
        lib = self._resolve()
        if lib is None:
            return self._fallback("no compiled kernel backend available")
        if timing is not None and getattr(timing, "backend", None) is not None:
            return self._fallback("memory timing backend is active")
        streams = soa.stream_arrays(decoded)
        if streams is None:
            return self._fallback("decoded trace is not array-backed")
        binding = self._bind(cache)
        if binding is None:
            return None
        set_arr, tag_arr, write_arr, gap_arr = streams

        lane = LaneCtx()
        lane.set_stream = soa.ptr_int64(set_arr)
        lane.tag_stream = soa.ptr_int64(tag_arr)
        lane.write_stream = soa.ptr_uint8(write_arr)
        lane.core = core
        lane.cycle_limit = inf
        ring = None
        if timing is not None:
            try:
                ring = _fill_lane_timing(lane, timing, decoded)
            except OverflowError:
                return self._fallback("timing state overflows the lane image")
            lane.gap_stream = soa.ptr_int64(gap_arr)

        ran = lib.run_trace(
            ctypes.byref(binding.ctx), ctypes.byref(lane), start, stop
        )
        cache.tick += ran
        if timing is not None:
            _flush_lane_timing(timing, lane, ring)
        _finish(binding)
        return ran

    # -- hierarchy stages --------------------------------------------------
    def try_lru_filter(
        self,
        cache,
        set_stream,
        tag_stream,
        write_stream,
        start,
        stop,
        out_blocks,
        out_write,
        out_origin,
        origins,
        levels,
        level,
        core,
    ) -> Optional[int]:
        """Kernel counterpart of ``run_lru_filter``; None -> fallback.

        The caller already guaranteed ``lru_filter_eligible()``; the
        output streams are Python lists (the hierarchy ABI) extended
        from the kernel's preallocated arrays.
        """
        if start >= stop:
            return None
        lib = self._resolve()
        if lib is None or np is None:
            return self._fallback("no native kernel library available")
        try:
            set_arr = np.asarray(set_stream, dtype=np.int64)
            tag_arr = np.asarray(tag_stream, dtype=np.int64)
            write_arr = np.asarray(write_stream, dtype=np.uint8)
            origin_arr = (
                np.asarray(origins, dtype=np.int64)
                if origins is not None
                else None
            )
            level_arr = (
                np.asarray(levels, dtype=np.int64)
                if levels is not None
                else None
            )
        except (OverflowError, TypeError, ValueError):
            return self._fallback("stream not coercible to the int64 ABI")
        binding = self._bind(cache)
        if binding is None:
            return None

        span = stop - start
        blocks_out = np.empty(2 * span, dtype=np.int64)
        write_out = np.empty(2 * span, dtype=np.uint8)
        origin_out = np.empty(2 * span, dtype=np.int64)

        fctx = FilterCtx()
        fctx.set_stream = soa.ptr_int64(set_arr)
        fctx.tag_stream = soa.ptr_int64(tag_arr)
        fctx.write_stream = soa.ptr_uint8(write_arr)
        if origin_arr is not None:
            fctx.origins = soa.ptr_int64(origin_arr)
        if level_arr is not None:
            fctx.levels = soa.ptr_int64(level_arr)
        fctx.level = level
        fctx.core = core
        fctx.out_blocks = soa.ptr_int64(blocks_out)
        fctx.out_write = soa.ptr_uint8(write_out)
        fctx.out_origin = soa.ptr_int64(origin_out)
        fctx.out_count = 0

        forwarded = lib.lru_filter(
            ctypes.byref(binding.ctx), ctypes.byref(fctx), start, stop
        )
        cache.tick += span
        count = fctx.out_count
        out_blocks.extend(blocks_out[:count].tolist())
        out_write.extend(write_out[:count].astype(bool).tolist())
        out_origin.extend(origin_out[:count].tolist())
        if level_arr is not None:
            levels[:] = level_arr.tolist()
        _finish(binding)
        return forwarded

    def try_hierarchy_stages(
        self, hierarchy, l1, l2, llc, decoded, start, stop, collect, core
    ) -> Optional[tuple]:
        """Array-native staged replay of the whole L1/L2/LLC stack.

        Kernel counterpart of ``MemoryHierarchy.run_trace``'s staged
        path with the inter-stage op streams kept as int64 arrays: the
        L1 filter writes the L2's input directly into the buffer the
        L2 filter reads, block decoding is two vector ops, and nothing
        round-trips through Python lists until the final per-origin
        ``levels``/``mem`` attribution (collect mode only).  Returns
        the same ``counts`` / ``(counts, levels, mem)`` shape the
        staged path produces, or None for any configuration outside
        the kernel matrix (the caller falls through to the per-stage
        dispatch, which can still accelerate stages individually).
        """
        lib = self._resolve()
        if lib is None or np is None or start >= stop:
            return None
        if not (l1.lru_filter_eligible() and l2.lru_filter_eligible()):
            return None
        streams = soa.stream_arrays(decoded)
        if streams is None:
            return None
        # Bind all three levels up front: binding only reads, so a
        # failure here leaves every cache untouched for the fallback.
        b1 = bind_cache(l1)
        if b1 is None:
            return None
        b2 = bind_cache(l2)
        if b2 is None:
            return None
        b3 = bind_cache(llc)
        if b3 is None:
            return None
        set_arr, tag_arr, write_arr, _ = streams
        span = stop - start
        memory = hierarchy.memory

        level_arr = mem_arr = None
        if collect:
            level_arr = np.zeros(stop, dtype=np.int64)
            mem_arr = np.zeros(stop, dtype=np.int64)

        # Stage 1: L1 over the demand stream (demand mode: origin = i).
        blocks1 = np.empty(2 * span, dtype=np.int64)
        write1 = np.empty(2 * span, dtype=np.uint8)
        origin1 = np.empty(2 * span, dtype=np.int64)
        f1 = FilterCtx()
        f1.set_stream = soa.ptr_int64(set_arr)
        f1.tag_stream = soa.ptr_int64(tag_arr)
        f1.write_stream = soa.ptr_uint8(write_arr)
        f1.core = core
        f1.out_blocks = soa.ptr_int64(blocks1)
        f1.out_write = soa.ptr_uint8(write1)
        f1.out_origin = soa.ptr_int64(origin1)
        fwd1 = lib.lru_filter(
            ctypes.byref(b1.ctx), ctypes.byref(f1), start, stop
        )
        l1.tick += span
        count1 = f1.out_count
        l1_hits = span - fwd1

        # Stage 2: L2 over the L1 residue, attributing L2 hits.
        set2 = blocks1[:count1] & (l2.config.num_sets - 1)
        tag2 = blocks1[:count1] >> l2.config.index_bits
        blocks2 = np.empty(2 * count1, dtype=np.int64)
        write2 = np.empty(2 * count1, dtype=np.uint8)
        origin2 = np.empty(2 * count1, dtype=np.int64)
        f2 = FilterCtx()
        f2.set_stream = soa.ptr_int64(set2)
        f2.tag_stream = soa.ptr_int64(tag2)
        f2.write_stream = soa.ptr_uint8(write1)
        f2.origins = soa.ptr_int64(origin1)
        if level_arr is not None:
            f2.levels = soa.ptr_int64(level_arr)
        f2.level = 1
        f2.core = core
        f2.out_blocks = soa.ptr_int64(blocks2)
        f2.out_write = soa.ptr_uint8(write2)
        f2.out_origin = soa.ptr_int64(origin2)
        fwd2 = lib.lru_filter(
            ctypes.byref(b2.ctx), ctypes.byref(f2), 0, count1
        )
        l2.tick += count1
        count2 = f2.out_count
        l2_hits = fwd1 - fwd2

        # Stage 3: the LLC over the L2 residue.
        set3 = blocks2[:count2] & (llc.config.num_sets - 1)
        tag3 = blocks2[:count2] >> llc.config.index_bits
        lane = LaneCtx()
        lane.set_stream = soa.ptr_int64(set3)
        lane.tag_stream = soa.ptr_int64(tag3)
        lane.write_stream = soa.ptr_uint8(write2)
        lane.core = core
        lane.cycle_limit = inf
        ctx3 = b3.ctx
        if collect:
            wb_out = np.empty(count2 if count2 else 1, dtype=np.int64)
            lane.origin_stream = soa.ptr_int64(origin2)
            lane.levels = soa.ptr_int64(level_arr)
            lane.mem = soa.ptr_int64(mem_arr)
            lane.wb_out = soa.ptr_int64(wb_out)
            ran = lib.run_trace(
                ctypes.byref(ctx3), ctypes.byref(lane), 0, count2
            )
            llc.tick += ran
            llc_hits, memory_reads = lane.rh, lane.rm
            wb_count = lane.wb_out_count
            memory.reads += memory_reads
            memory.writes += wb_count
            if memory.write_log is not None and wb_count:
                offset_bits = llc._offset_bits
                memory.write_log.extend(
                    (block << offset_bits)
                    for block in wb_out[:wb_count].tolist()
                )
        else:
            base_rh = ctx3.read_hits
            base_rm = ctx3.read_misses
            base_wb = ctx3.writebacks
            ran = lib.run_trace(
                ctypes.byref(ctx3), ctypes.byref(lane), 0, count2
            )
            llc.tick += ran
            llc_hits = ctx3.read_hits - base_rh
            memory_reads = ctx3.read_misses - base_rm
            memory.reads += memory_reads
            memory.writes += ctx3.writebacks - base_wb
        _finish(b1)
        _finish(b2)
        _finish(b3)
        counts = {
            "l1": l1_hits,
            "l2": l2_hits,
            "llc": llc_hits,
            "memory": memory_reads,
        }
        if collect:
            return counts, level_arr.tolist(), mem_arr.tolist()
        return counts

    def try_llc_residue_collect(
        self,
        cache,
        set_stream,
        tag_stream,
        write_stream,
        origins,
        levels,
        mem,
        memory,
        core,
    ) -> Optional[tuple]:
        """Collect-mode LLC residue replay with per-origin attribution.

        Kernel counterpart of the hierarchy's scalar stage-3 loop:
        returns ``(llc_hits, memory_reads)`` and updates ``levels`` /
        ``mem`` / the :class:`~repro.hierarchy.memory.MainMemory`
        counters (and ``write_log``, when armed) exactly as the scalar
        walk does; None -> fallback.
        """
        lib = self._resolve()
        if lib is None or np is None:
            return self._fallback("no native kernel library available")
        count = len(set_stream)
        try:
            set_arr = np.asarray(set_stream, dtype=np.int64)
            tag_arr = np.asarray(tag_stream, dtype=np.int64)
            write_arr = np.asarray(write_stream, dtype=np.uint8)
            origin_arr = np.asarray(origins, dtype=np.int64)
            level_arr = np.asarray(levels, dtype=np.int64)
            mem_arr = np.asarray(mem, dtype=np.int64)
        except (OverflowError, TypeError, ValueError):
            return self._fallback("stream not coercible to the int64 ABI")
        binding = self._bind(cache)
        if binding is None:
            return None

        wb_out = np.empty(count if count else 1, dtype=np.int64)
        lane = LaneCtx()
        lane.set_stream = soa.ptr_int64(set_arr)
        lane.tag_stream = soa.ptr_int64(tag_arr)
        lane.write_stream = soa.ptr_uint8(write_arr)
        lane.core = core
        lane.cycle_limit = inf
        lane.origin_stream = soa.ptr_int64(origin_arr)
        lane.levels = soa.ptr_int64(level_arr)
        lane.mem = soa.ptr_int64(mem_arr)
        lane.wb_out = soa.ptr_int64(wb_out)
        lane.wb_out_count = 0

        ran = lib.run_trace(
            ctypes.byref(binding.ctx), ctypes.byref(lane), 0, count
        )
        cache.tick += ran
        levels[:] = level_arr.tolist()
        mem[:] = mem_arr.tolist()
        wb_count = lane.wb_out_count
        memory.reads += lane.rm
        memory.writes += wb_count
        if memory.write_log is not None and wb_count:
            offset_bits = cache._offset_bits
            memory.write_log.extend(
                (block << offset_bits) for block in wb_out[:wb_count].tolist()
            )
        _finish(binding)
        return (lane.rh, lane.rm)

    # -- multicore ---------------------------------------------------------
    def try_run_multicore(self, system, traces, views, warmup):
        """Kernel counterpart of ``SharedLLCSystem.run``'s epoch loop.

        Runs the whole progress-driven interleave in C over one gathered
        LLC image; returns a :class:`SharedRunResult` or None.
        """
        lib = self._resolve()
        if lib is None or np is None:
            return self._fallback("no native kernel library available")
        llc = system.llc
        timings = system.timings
        num_cores = system.num_cores
        for timing in timings:
            if getattr(timing, "backend", None) is not None:
                return self._fallback("memory timing backend is active")
        stream_sets = [soa.stream_arrays(view) for view in views]
        if any(streams is None for streams in stream_sets):
            return self._fallback("decoded views are not array-backed")
        binding = self._bind(llc)
        if binding is None:
            return None

        lanes = (LaneCtx * num_cores)()
        rings = []
        try:
            for core in range(num_cores):
                lane = lanes[core]
                set_arr, tag_arr, write_arr, gap_arr = stream_sets[core]
                lane.set_stream = soa.ptr_int64(set_arr)
                lane.tag_stream = soa.ptr_int64(tag_arr)
                lane.write_stream = soa.ptr_uint8(write_arr)
                lane.gap_stream = soa.ptr_int64(gap_arr)
                lane.core = core
                rings.append(_fill_lane_timing(lane, timings[core], views[core]))
                lane.cycle_limit = inf
        except OverflowError:
            return self._fallback("timing state overflows the lane image")

        lengths = np.array([len(trace) for trace in traces], dtype=np.int64)
        position = np.zeros(num_cores, dtype=np.int64)
        done = np.zeros(num_cores, dtype=np.uint8)
        effective = np.zeros(num_cores, dtype=np.float64)
        base = [np.zeros(num_cores, dtype=np.int64) for _ in range(4)]
        frozen_tallies = [np.zeros(num_cores, dtype=np.int64) for _ in range(4)]
        frozen_instr = np.zeros(num_cores, dtype=np.int64)
        frozen_cycles = np.zeros(num_cores, dtype=np.float64)
        ticks = np.zeros(num_cores, dtype=np.int64)

        mctx = MultiCtx()
        mctx.num_cores = num_cores
        mctx.lanes = lanes
        mctx.lengths = soa.ptr_int64(lengths)
        mctx.warmup = warmup
        mctx.position = soa.ptr_int64(position)
        mctx.done = soa.ptr_uint8(done)
        mctx.effective = soa.ptr_double(effective)
        mctx.base_rh = soa.ptr_int64(base[0])
        mctx.base_rm = soa.ptr_int64(base[1])
        mctx.base_wh = soa.ptr_int64(base[2])
        mctx.base_wm = soa.ptr_int64(base[3])
        mctx.frozen_rh = soa.ptr_int64(frozen_tallies[0])
        mctx.frozen_rm = soa.ptr_int64(frozen_tallies[1])
        mctx.frozen_wh = soa.ptr_int64(frozen_tallies[2])
        mctx.frozen_wm = soa.ptr_int64(frozen_tallies[3])
        mctx.frozen_instr = soa.ptr_int64(frozen_instr)
        mctx.frozen_cycles = soa.ptr_double(frozen_cycles)
        mctx.ticks = soa.ptr_int64(ticks)
        mctx.remaining = num_cores

        lib.multicore(ctypes.byref(binding.ctx), ctypes.byref(mctx))

        llc.tick += int(ticks.sum())
        for core in range(num_cores):
            _flush_lane_timing(timings[core], lanes[core], rings[core])
        _finish(binding)

        counts = [
            [
                int(frozen_tallies[k][core]) - int(base[k][core])
                for k in range(4)
            ]
            for core in range(num_cores)
        ]
        frozen = [
            (int(frozen_instr[core]), float(frozen_cycles[core]))
            for core in range(num_cores)
        ]
        return system._collect(traces, counts, frozen)


def attach_kernel(target, spec: "KernelSpec | str") -> None:
    """Install a :class:`KernelRuntime` on every cache ``target`` owns.

    Accepts a bare :class:`SetAssociativeCache`, a ``MemoryHierarchy``
    (every private level plus the LLC gets the runtime -- the filter
    stages dispatch independently), or a ``SharedLLCSystem``.  ``spec``
    may be a :class:`KernelSpec` or its string form.  The default
    ``dict`` spec detaches instead, restoring pure reference behaviour.
    """
    spec = KernelSpec.coerce(spec)
    runtime = None if spec.is_default else KernelRuntime(spec)
    for cache in _owned_caches(target):
        cache.kernel = runtime


def _owned_caches(target):
    if hasattr(target, "all_caches"):  # MemoryHierarchy
        yield from target.all_caches()
    elif hasattr(target, "llc"):  # SharedLLCSystem
        yield target.llc
    else:  # a bare cache
        yield target
