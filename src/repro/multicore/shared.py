"""Shared-LLC multicore simulation.

N cores, each replaying its own LLC-level trace, contend for one shared
LLC.  Interleaving is progress-driven: at every step the core with the
smallest accumulated cycle count issues its next access, so a core that
is stalling on misses naturally falls behind and issues less often --
the first-order timing interaction that makes shared-cache policy
comparisons meaningful without a full OoO model.

Address and PC spaces are offset per core (distinct processes do not
share lines), and each core's statistics are counted over its first
``measure`` post-warmup accesses while the trace wraps around afterwards
to keep pressure on the cache until every core finishes (the standard
multiprogrammed methodology).

Two drivers produce that interleave.  :meth:`SharedLLCSystem.run_scalar`
is the reference: one ``access()`` per step, re-selecting the laggard
core every time.  :meth:`SharedLLCSystem.run` is the epoch driver the
experiments use: it observes that while one core runs, no other core's
cycle count moves, so the scalar argmin scan keeps picking the same core
until its own cycles cross a precomputed threshold.  Each such maximal
run ("epoch") is one bounded ``send`` to that core's batched LLC
session (:meth:`~repro.cache.cache.SetAssociativeCache.run_trace_session`)
over a shared per-core :class:`DecodedTrace` view -- same global
interleave, batched hot loop.  The equivalence is ulp-exact
(see :func:`_selection_limit`) and pinned by Hypothesis tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, nextafter
from typing import Dict, List, Optional, Sequence

from repro.cache.cache import SetAssociativeCache
from repro.cache.policy import ReplacementPolicy, make_policy
from repro.common.config import CacheConfig, HierarchyConfig
from repro.cpu.timing import TimingModel
from repro.trace.access import Trace

#: per-core offsets that keep address/PC spaces disjoint across cores
CORE_ADDRESS_STRIDE = 1 << 44
CORE_PC_STRIDE = 1 << 30


class SharerDirectory:
    """Line-level sharer tracking for one shared LLC.

    For global-address (data-sharing) runs the single ``line.owner``
    field is wrong the moment a second core touches a line, so the
    system installs this directory on the LLC as its access/eviction
    listener pair.  ``observe`` fires before every demand access and
    ``on_evict`` on every eviction -- in both the scalar walk and the
    batched drivers (the listener hooks force the generic,
    per-access-identical batch paths), so directory state is
    bit-identical between the two by construction.

    Each tracked line carries a sharer bitmask (bit per core) and the
    last writing core.  An entry lives from a line's first touch to its
    eviction, so a mask with two or more bits set means two cores
    really did touch the line within one residency generation.

    Invariants (pinned by the Hypothesis tests): every resident line
    is tracked with a non-empty sharer mask (the filling core observed
    first), and a dirty line's last writer is in its sharer mask.
    """

    __slots__ = (
        "index_bits",
        "offset_bits",
        "num_cores",
        "table",
        "peak_tracked",
        "shared_lines",
        "shared_accesses",
        "shared_writes",
        "write_migrations",
        "shared_evictions",
    )

    def __init__(self, llc_config: CacheConfig, num_cores: int) -> None:
        self.index_bits = llc_config.index_bits
        self.offset_bits = llc_config.offset_bits
        self.num_cores = num_cores
        #: block number -> [sharer_mask, last_writer] (-1 = never written)
        self.table: Dict[int, list] = {}
        self.peak_tracked = 0
        self.shared_lines = 0
        self.shared_accesses = 0
        self.shared_writes = 0
        self.write_migrations = 0
        self.shared_evictions = 0

    def observe(
        self, set_index: int, tag: int, is_write: bool, pc: int, core: int
    ) -> None:
        """Pre-access hook: fold ``core`` into the line's sharer mask."""
        table = self.table
        key = (tag << self.index_bits) | set_index
        entry = table.get(key)
        if entry is None:
            entry = table[key] = [0, -1]
            if len(table) > self.peak_tracked:
                self.peak_tracked = len(table)
        mask = entry[0]
        bit = 1 << core
        if not mask & bit:
            updated = mask | bit
            entry[0] = updated
            if mask and updated.bit_count() == 2:
                self.shared_lines += 1
            mask = updated
        if mask & (mask - 1):  # popcount >= 2: a genuinely shared line
            self.shared_accesses += 1
            if is_write:
                self.shared_writes += 1
        if is_write:
            if entry[1] not in (-1, core):
                self.write_migrations += 1
            entry[1] = core

    def on_evict(self, address: int, dirty: bool) -> None:
        """Eviction hook: the line's sharing generation ends here."""
        entry = self.table.pop(address >> self.offset_bits, None)
        if entry is not None:
            mask = entry[0]
            if mask & (mask - 1):
                self.shared_evictions += 1

    def is_shared(self, set_index: int, tag: int) -> bool:
        """True when two or more cores touched this line generation."""
        entry = self.table.get((tag << self.index_bits) | set_index)
        return entry is not None and bool(entry[0] & (entry[0] - 1))

    def sharer_mask(self, set_index: int, tag: int) -> int:
        entry = self.table.get((tag << self.index_bits) | set_index)
        return entry[0] if entry is not None else 0

    def last_writer(self, set_index: int, tag: int) -> int:
        """The last core to write the line, or -1 if never written."""
        entry = self.table.get((tag << self.index_bits) | set_index)
        return entry[1] if entry is not None else -1

    def stats_dict(self) -> Dict[str, int]:
        """The ``shared.*`` counters surfaced on run results."""
        return {
            "shared.tracked": len(self.table),
            "shared.peak_tracked": self.peak_tracked,
            "shared.lines": self.shared_lines,
            "shared.accesses": self.shared_accesses,
            "shared.writes": self.shared_writes,
            "shared.write_migrations": self.write_migrations,
            "shared.evictions": self.shared_evictions,
        }


def _first_violation(bound: float, penalty: float, strict: bool) -> float:
    """Smallest raw x with ``x + penalty >= bound`` (``>`` when strict).

    ``cycles + 1.0 < bound`` cannot be folded to ``cycles < bound - 1.0``
    in floats (the addition rounds), so for a nonzero penalty the
    threshold is found by an ulp walk around ``bound - penalty``: float
    addition of a constant is monotone non-decreasing, so the predicate
    is a step function of x and the walk terminates in O(1) steps.
    """
    if bound == inf:
        return inf
    if not penalty:
        return nextafter(bound, inf) if strict else bound
    x = bound - penalty
    if strict:
        while x + penalty > bound:
            x = nextafter(x, -inf)
        while x + penalty <= bound:
            x = nextafter(x, inf)
    else:
        while x + penalty >= bound:
            x = nextafter(x, -inf)
        while x + penalty < bound:
            x = nextafter(x, inf)
    return x


def _selection_limit(bound_lo: float, bound_hi: float, penalty: float) -> float:
    """Exclusive raw-cycles bound under which the scalar scan re-picks.

    The selected core stays the argmin of the scalar scan while its
    effective cycles (raw + done-penalty) are strictly below every
    lower-indexed core's (they win ties) and at most every
    higher-indexed core's (it wins those ties).  Only the running
    core's cycles move during its epoch, so both bounds are constants
    and the continuation condition collapses to ``raw < limit`` --
    exactly the epoch ``limit`` contract of
    :meth:`~repro.cache.cache.SetAssociativeCache.run_trace_session`.
    """
    t1 = _first_violation(bound_lo, penalty, strict=False)
    t2 = _first_violation(bound_hi, penalty, strict=True)
    return t1 if t1 < t2 else t2


@dataclass(frozen=True)
class CoreResult:
    """Per-core outcome of a shared run."""

    name: str
    instructions: int
    cycles: float
    ipc: float
    read_hits: int
    read_misses: int
    write_hits: int
    write_misses: int

    @property
    def read_mpki(self) -> float:
        return 1000.0 * self.read_misses / self.instructions if self.instructions else 0.0


@dataclass(frozen=True)
class SharedRunResult:
    """Outcome of one multiprogrammed run.

    ``shared`` carries the sharer directory's ``shared.*`` counters for
    global-address (data-sharing) runs; None for private-address runs.
    (Kernel fallback reasons deliberately live on the runtime --
    :attr:`repro.kernels.runner.KernelRuntime.fallback_reason` -- not
    here, so kernel results stay bit-comparable to dict results.)
    """

    policy: str
    cores: List[CoreResult]
    shared: Optional[Dict[str, int]] = None

    def ipcs(self) -> List[float]:
        return [core.ipc for core in self.cores]


class SharedLLCSystem:
    """N cores with private timing models around one shared LLC."""

    def __init__(
        self,
        config: HierarchyConfig,
        num_cores: int,
        policy: ReplacementPolicy | str = "lru",
        backends=None,
    ) -> None:
        if num_cores < 1:
            raise ValueError("num_cores must be >= 1")
        if isinstance(policy, str):
            policy = make_policy(policy)
        if backends is not None and len(backends) != num_cores:
            raise ValueError(
                f"need {num_cores} memory backends, got {len(backends)}"
            )
        self.config = config
        self.num_cores = num_cores
        self.llc = SetAssociativeCache(config.llc, policy)
        #: optional per-core :class:`~repro.mem.backend.MemoryBackend`
        #: instances (one each, matching the private write buffers of the
        #: flat model).  When installed, :meth:`run` routes through the
        #: scalar interleave -- the epoch driver inlines the flat timing.
        self.backends = list(backends) if backends is not None else None
        self.timings = [
            TimingModel(
                config.core,
                config.memory,
                config.llc.hit_latency,
                backend=self.backends[core] if self.backends else None,
            )
            for core in range(num_cores)
        ]
        #: the :class:`SharerDirectory` of the current/last global run,
        #: None while running private-address traces.
        self.sharer_directory: Optional[SharerDirectory] = None

    def _check_traces(self, traces: Sequence[Trace], warmup: int) -> bool:
        """Validate the mix; returns True for a global-address run."""
        if len(traces) != self.num_cores:
            raise ValueError(
                f"need {self.num_cores} traces, got {len(traces)}"
            )
        for trace in traces:
            if warmup >= len(trace):
                raise ValueError(
                    f"warmup ({warmup}) >= trace length ({len(trace)})"
                )
        spaces = {trace.address_space for trace in traces}
        if len(spaces) > 1:
            raise ValueError(
                "cannot mix private- and global-address-space traces "
                "in one run"
            )
        return spaces.pop() == "global"

    def _bind_directory(self) -> SharerDirectory:
        """Fresh sharer tracking for one global-address run.

        The listener hooks deliberately disqualify the LLC from the
        stamped batch fast paths and the SoA kernels: the generic
        paths they force call every hook per access in scalar order,
        which is what makes batch==scalar hold for sharing runs by
        construction.
        """
        directory = SharerDirectory(self.config.llc, self.num_cores)
        self.sharer_directory = directory
        llc = self.llc
        llc.set_access_listener(directory.observe)
        llc.eviction_listener = directory.on_evict
        bind = getattr(llc.policy, "bind_sharer_directory", None)
        if bind is not None:
            bind(directory)
        return directory

    def _unbind_directory(self) -> None:
        if self.sharer_directory is None:
            return
        self.sharer_directory = None
        llc = self.llc
        llc.set_access_listener(None)
        llc.eviction_listener = None
        bind = getattr(llc.policy, "bind_sharer_directory", None)
        if bind is not None:
            bind(None)

    def run(
        self, traces: Sequence[Trace], warmup: int = 0
    ) -> SharedRunResult:
        """Run one trace per core to completion of its measured window.

        Epoch-batched driver: produces results identical field-for-field
        to :meth:`run_scalar` (same interleave, same statistics, same
        timing floats), replaying each epoch through the batched LLC
        driver.  Falls back to the scalar loop if the per-core address
        stride cannot be expressed as a pure tag offset at this
        geometry (never true for the shipped configs).

        Global-address (data-sharing) traces replay without per-core
        offsets and with a fresh :class:`SharerDirectory` installed on
        the LLC; its listener hooks route the replay through the
        generic (scalar-identical) batch paths.
        """
        shared = self._check_traces(traces, warmup)
        if self.backends is not None:
            # Request-level backends need per-access addresses and live
            # cycle counts; the epoch sessions inline the flat timing.
            return self.run_scalar(traces, warmup)
        if shared:
            self._bind_directory()
        else:
            self._unbind_directory()
        addr_stride = 0 if shared else CORE_ADDRESS_STRIDE
        pc_stride = 0 if shared else CORE_PC_STRIDE
        try:
            views = [
                trace.decoded(self.config.llc).with_core_offset(
                    core, addr_stride, pc_stride
                )
                for core, trace in enumerate(traces)
            ]
        except ValueError:
            return self.run_scalar(traces, warmup)

        if self.llc.kernel is not None:
            result = self.llc.kernel.try_run_multicore(self, traces, views, warmup)
            if result is not None:
                return result

        num_cores = self.num_cores
        llc = self.llc
        timings = self.timings
        lengths = [len(trace) for trace in traces]

        # One resumable batched-driver session per core: the replay
        # loop's hoisted state survives across epochs, so a 1-access
        # epoch costs one generator send, not a full run_trace call.
        sessions = [
            llc.run_trace_session(views[core], timings[core], core=core)
            for core in range(num_cores)
        ]
        sends = [session.send for session in sessions]

        position = [0] * num_cores  # raw index into the (wrapping) trace
        done = [False] * num_cores
        # Effective cycles per core (raw + 1.0 done-penalty), kept as a
        # plain float list so the argmin scan never touches the timing
        # objects (sessions flush cycles at every yield anyway).
        effective = [0.0] * num_cores
        # Measured-window bookkeeping: per-core tallies are synced from
        # the sessions only at the two window boundaries (warmup open,
        # freeze close); the window is the difference.
        baseline = [(0, 0, 0, 0)] * num_cores
        counts = [[0, 0, 0, 0] for _ in range(num_cores)]
        frozen: List[tuple] = [(0, 0.0)] * num_cores  # (instr, cycles) at done
        remaining = num_cores

        four = num_cores == 4  # the paper's standard mix width
        try:
            while remaining:
                # Scalar-identical argmin scan (first index wins ties),
                # folding out the two epoch bounds in the same pass:
                # bound_lo = min effective cycles over lower-indexed
                # cores (they win ties against us), bound_hi = min over
                # higher-indexed cores (we win those ties).  The scan
                # runs once per epoch (~1.6 accesses), so the unrolled
                # 4-core variant is worth its ugliness.
                if four:
                    e0, e1, e2, e3 = effective
                    core = 0
                    best = e0
                    if e1 < best:
                        core = 1
                        best = e1
                    if e2 < best:
                        core = 2
                        best = e2
                    if e3 < best:
                        core = 3
                    if core == 0:
                        bound_lo = inf
                        bound_hi = e1 if e1 < e2 else e2
                        if e3 < bound_hi:
                            bound_hi = e3
                    elif core == 1:
                        bound_lo = e0
                        bound_hi = e2 if e2 < e3 else e3
                    elif core == 2:
                        bound_lo = e0 if e0 < e1 else e1
                        bound_hi = e3
                    else:
                        bound_lo = e0 if e0 < e1 else e1
                        if e2 < bound_lo:
                            bound_lo = e2
                        bound_hi = inf
                else:
                    core = 0
                    best = effective[0]
                    bound_lo = inf
                    bound_hi = inf
                    for candidate in range(1, num_cores):
                        eff = effective[candidate]
                        if eff < best:
                            bound_lo = best
                            best = eff
                            core = candidate
                            bound_hi = inf
                        elif eff < bound_hi:
                            bound_hi = eff

                index = position[core]
                length = lengths[core]
                core_done = done[core]
                # Scalar semantics: the warmup reset fires when the core
                # is *selected* at the boundary -- exactly the start of
                # its next epoch (epochs never straddle the boundary),
                # and the measured window opens here.
                reset = not core_done and index == warmup
                if reset:
                    baseline[core] = sends[core](None)
                # Live cores never wrap (they freeze first), so the
                # modulo only runs for done cores replaying for pressure.
                wrapped = index if index < length else index % length
                # Epochs stop at every boundary where the per-access
                # bookkeeping changes: the wraparound, the warmup reset,
                # and the freeze at trace completion (a live core has
                # index < length, so wrapped == index and the freeze
                # subsumes the wrap).
                segment = length - wrapped
                if not core_done and index < warmup:
                    segment = warmup - index
                if core_done:
                    limit = _selection_limit(bound_lo, bound_hi, 1.0)
                else:
                    # Zero penalty: the thresholds are the bounds
                    # themselves (ties with higher indices still run,
                    # hence one ulp past bound_hi).
                    limit = (
                        bound_lo
                        if bound_lo <= bound_hi
                        else nextafter(bound_hi, inf)
                    )
                ran, cycles = sends[core](
                    (wrapped, wrapped + segment, limit, reset)
                )
                if core_done:
                    cycles += 1.0
                effective[core] = cycles
                position[core] = index + ran
                if not core_done and position[core] >= length:
                    # Freeze this core: it keeps replaying to pressure
                    # the cache, but only the measured window counts.
                    done[core] = True
                    effective[core] = cycles + 1.0
                    b = baseline[core]
                    # The tally sync also flushes the timing counters,
                    # so it must precede the frozen snapshot.
                    rh, rm, wh, wm = sends[core](None)
                    timing = timings[core]
                    frozen[core] = (timing.instructions, timing.cycles)
                    counts[core] = [
                        rh - b[0], rm - b[1], wh - b[2], wm - b[3]
                    ]
                    remaining -= 1
        finally:
            for session in sessions:
                session.close()

        return self._collect(traces, counts, frozen)

    def run_scalar(
        self, traces: Sequence[Trace], warmup: int = 0
    ) -> SharedRunResult:
        """Reference driver: one scalar ``access()`` per interleave step.

        Kept as the executable specification of the interleave --
        :meth:`run` must match it field-for-field (the Hypothesis
        equivalence tests and the system fuzzer replay both) -- and as
        the fallback for address strides the decoded views cannot
        express.
        """
        shared = self._check_traces(traces, warmup)
        if shared:
            self._bind_directory()
        else:
            self._unbind_directory()

        num_cores = self.num_cores
        llc = self.llc
        access = llc.access
        timings = self.timings

        # Pre-offset the traces into disjoint address/PC regions --
        # except for global-address mixes, which share one space.
        if shared:
            addr = [traces[core].addresses for core in range(num_cores)]
            pcs = [traces[core].pcs for core in range(num_cores)]
        else:
            addr = [
                [a + core * CORE_ADDRESS_STRIDE for a in traces[core].addresses]
                for core in range(num_cores)
            ]
            pcs = [
                [p + core * CORE_PC_STRIDE for p in traces[core].pcs]
                for core in range(num_cores)
            ]
        wrts = [traces[core].is_write for core in range(num_cores)]
        gaps = [traces[core].instr_gaps for core in range(num_cores)]
        lengths = [len(trace) for trace in traces]

        position = [0] * num_cores  # index into the (wrapping) trace
        counting = [False] * num_cores  # inside the measured window?
        done = [False] * num_cores
        stats = [[0, 0, 0, 0] for _ in range(num_cores)]  # rh, rm, wh, wm
        frozen: List[tuple] = [(0, 0.0)] * num_cores  # (instr, cycles) at done
        remaining = num_cores

        while remaining:
            # The least-advanced *unfinished* core issues next; finished
            # cores keep pace (pressure) but never get ahead of the pack.
            core = 0
            best = None
            for candidate in range(num_cores):
                cycles = timings[candidate].cycles
                if done[candidate]:
                    cycles += 1.0  # finished cores yield ties
                if best is None or cycles < best:
                    best = cycles
                    core = candidate
            index = position[core]
            length = lengths[core]
            if not done[core] and index == warmup:
                timings[core].reset()
                counting[core] = True
            wrapped = index % length
            is_write = wrts[core][wrapped]
            address = addr[core][wrapped]
            timing = timings[core]
            timing.advance(gaps[core][wrapped])
            hit, bypassed, writeback = access(
                address, is_write, pcs[core][wrapped], core
            )
            if is_write:
                if bypassed:
                    timing.memory_write(address)
            elif hit:
                timing.read_hit()
            else:
                timing.read_miss(address)
            if writeback >= 0:
                timing.memory_write(writeback)
            if counting[core]:
                row = stats[core]
                if is_write:
                    row[3 - hit] += 1  # write hit -> [2], miss -> [3]
                else:
                    row[1 - hit] += 1  # read hit -> [0], miss -> [1]
            position[core] = index + 1
            if not done[core] and position[core] >= length:
                # Freeze this core's timing snapshot: it keeps running to
                # pressure the cache, but only the measured window counts.
                done[core] = True
                counting[core] = False
                frozen[core] = (timing.instructions, timing.cycles)
                remaining -= 1

        return self._collect(traces, stats, frozen)

    def _collect(
        self,
        traces: Sequence[Trace],
        counts: List[List[int]],
        frozen: List[tuple],
    ) -> SharedRunResult:
        cores = []
        for core in range(self.num_cores):
            instructions, cycles = frozen[core]
            rh, rm, wh, wm = counts[core]
            cores.append(
                CoreResult(
                    name=traces[core].name,
                    instructions=instructions,
                    cycles=cycles,
                    ipc=instructions / cycles if cycles else 0.0,
                    read_hits=rh,
                    read_misses=rm,
                    write_hits=wh,
                    write_misses=wm,
                )
            )
        directory = self.sharer_directory
        return SharedRunResult(
            policy=self.llc.policy.name,
            cores=cores,
            shared=directory.stats_dict() if directory is not None else None,
        )
