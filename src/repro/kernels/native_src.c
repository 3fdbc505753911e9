/* Struct-of-arrays batch kernels for the RWP cache simulator.
 *
 * Compiled on demand by repro.kernels.build with the system C compiler
 * and bound via ctypes.  Every loop here is a line-for-line port of a
 * Python batch driver in repro/cache/cache.py (same operation order,
 * same IEEE-754 double arithmetic), so results are bit-identical to the
 * dict-driven reference paths:
 *
 *   rw_run_trace   <->  SetAssociativeCache.run_trace: _session_stamped
 *                       (timed) and the stamped subset of
 *                       _session_generic (untimed)
 *   rw_lru_filter  <->  SetAssociativeCache.run_lru_filter
 *   rw_multicore   <->  SharedLLCSystem.run over _session_stamped
 *
 * Floating point: additions and subtractions only, in source order.
 * Build flags must keep IEEE semantics (-ffp-contract=off, no
 * -ffast-math); nextafter() matches Python's math.nextafter.
 *
 * The RWP shadow sampler runs in C (it fires per sampled access); the
 * epoch repartition stays in Python and is reached through a ctypes
 * callback that reads/writes the shared context struct.
 */

#include <math.h>
#include <stdint.h>

#define RW_KERNEL_ABI 1

/* victim kinds */
#define VICTIM_MIN_STAMP 0
#define VICTIM_RWP 1
#define VICTIM_CORE_RWP 2

/* run status */
#define STATUS_OK 0
#define STATUS_CALLBACK_ABORT 2

#define MAX_POLICY_CORES 64

/* Returns nonzero to abort the run (a Python-side exception). */
typedef int32_t (*epoch_cb_t)(void);

typedef struct {
    /* geometry */
    int64_t num_sets, ways, index_bits, offset_bits;
    /* per-line state [num_sets * ways], way-major within a set */
    int64_t *tag;
    int64_t *stamp;
    int64_t *owner;
    uint8_t *valid;
    uint8_t *dirty;
    uint8_t *read_seen;
    uint8_t *write_seen;
    /* per-set state [num_sets] */
    int64_t *filled;
    int64_t *dirty_lines;
    /* policy */
    int64_t victim_kind;
    int64_t target_clean;   /* RWP; the epoch callback refreshes it */
    int64_t policy_cores;   /* rwp-core: owner group = owner % policy_cores */
    int64_t *clean_targets; /* [policy_cores] */
    int64_t *dirty_targets; /* [policy_cores] */
    int64_t clock;          /* RecencyStampMixin._clock */
    /* shadow sampler (sample_stride == 0: none) */
    int64_t sample_stride;
    int64_t sampler_route_mod; /* 0: single sampler; else core % mod */
    int64_t shadow_slots;      /* slots per sampler = ceil(num_sets/stride) */
    int64_t *sh_tags;          /* [samplers][slots][2][ways], 0=clean 1=dirty */
    int64_t *sh_len;           /* [samplers][slots][2] */
    uint8_t *sh_touched;       /* [samplers][slots] */
    int64_t *hist;             /* [samplers][2][ways] read-hit histograms */
    /* epoch */
    int64_t epoch_period;
    int64_t epoch_left;
    epoch_cb_t epoch_cb;
    /* cache-wide statistics (absolute values, flushed by scatter) */
    int64_t read_hits, write_hits, read_misses, write_misses;
    int64_t evictions, dirty_evictions, writebacks;
    int64_t evicted_ro, evicted_wo, evicted_rw;
    int64_t status;
} CacheCtx;

typedef struct {
    /* decoded streams (absolute indices) */
    const int64_t *set_stream;
    const int64_t *tag_stream;
    const uint8_t *write_stream;
    const double *cycle_stream; /* NULL when untimed */
    const int64_t *gap_stream;  /* NULL when untimed */
    /* timing accumulator (TimingModel fields) */
    int64_t timed;
    double hit_stall, miss_stall;
    double cycles, read_stall, write_stall;
    int64_t instructions;
    double cycle_limit; /* INFINITY when unbounded */
    /* write buffer ring (WriteBufferModel._completions) */
    double *wb_ring;
    int64_t wb_cap, wb_head, wb_len, wb_entries;
    double wb_drain, wb_server_free, wb_stall_cycles;
    int64_t wb_writes;
    /* issuing core and per-core tallies (sessions) */
    int64_t core;
    int64_t rh, rm, wh, wm;
    int64_t first_unconditional; /* session: first access ignores limit */
    /* hierarchy LLC-residue attribution (collect mode, untimed):
     * levels != NULL switches it on */
    const int64_t *origin_stream;
    int64_t *levels;  /* per-origin service level (2 = LLC, 3 = memory) */
    int64_t *mem;     /* per-origin memory-write count */
    int64_t *wb_out;  /* writeback block addresses, residue order */
    int64_t wb_out_count;
} LaneCtx;

typedef struct {
    int64_t num_cores;
    LaneCtx *lanes;         /* [num_cores] */
    const int64_t *lengths; /* per-core trace length */
    int64_t warmup;
    int64_t *position;
    uint8_t *done;
    double *effective;
    int64_t *base_rh, *base_rm, *base_wh, *base_wm;
    /* tallies snapshotted when the core freezes (it keeps replaying for
     * pressure afterwards, so the live lane counters run past these) */
    int64_t *frozen_rh, *frozen_rm, *frozen_wh, *frozen_wm;
    int64_t *frozen_instr;
    double *frozen_cycles;
    int64_t *ticks;
    int64_t remaining;
} MultiCtx;

typedef struct {
    const int64_t *set_stream;
    const int64_t *tag_stream;
    const uint8_t *write_stream;
    const int64_t *origins; /* NULL: demand mode */
    int64_t *levels;        /* may be NULL */
    int64_t level;
    int64_t core;
    int64_t *out_blocks;
    uint8_t *out_write;
    int64_t *out_origin;
    int64_t out_count; /* in/out append cursor */
    int64_t forwarded; /* out */
} FilterCtx;

int64_t rw_abi_version(void) { return RW_KERNEL_ABI; }

/* ReadWriteSampler.observe, ported stack-for-stack. */
static void sampler_observe(
    CacheCtx *c, int64_t core, int64_t si, int64_t tag, int w
) {
    int64_t ways = c->ways;
    int64_t sampler = c->sampler_route_mod > 0 ? core % c->sampler_route_mod : 0;
    int64_t slot = si / c->sample_stride;
    int64_t sbase = sampler * c->shadow_slots + slot;
    int64_t *clean = c->sh_tags + sbase * 2 * ways;
    int64_t *dirty = clean + ways;
    int64_t *clen = c->sh_len + sbase * 2;
    int64_t *dlen = clen + 1;
    int64_t *hist_clean = c->hist + sampler * 2 * ways;
    int64_t *hist_dirty = hist_clean + ways;
    int64_t p, q, keep;

    c->sh_touched[sbase] = 1;

    for (p = 0; p < *clen; p++) {
        if (clean[p] == tag) {
            for (q = p; q < *clen - 1; q++) clean[q] = clean[q + 1];
            (*clen)--;
            if (w) {
                /* becomes dirty: dirty.insert(0, tag), capped at ways */
                keep = *dlen < ways ? *dlen : ways - 1;
                for (q = keep; q > 0; q--) dirty[q] = dirty[q - 1];
                dirty[0] = tag;
                *dlen = keep + 1;
            } else {
                hist_clean[p]++;
                for (q = *clen; q > 0; q--) clean[q] = clean[q - 1];
                clean[0] = tag;
                (*clen)++;
            }
            return;
        }
    }
    for (p = 0; p < *dlen; p++) {
        if (dirty[p] == tag) {
            if (!w) hist_dirty[p]++;
            for (q = p; q > 0; q--) dirty[q] = dirty[q - 1];
            dirty[0] = tag;
            return;
        }
    }
    /* shadow miss: fill the matching partition's stack */
    {
        int64_t *stack = w ? dirty : clean;
        int64_t *slen = w ? dlen : clen;
        keep = *slen < ways ? *slen : ways - 1;
        for (q = keep; q > 0; q--) stack[q] = stack[q - 1];
        stack[0] = tag;
        *slen = keep + 1;
    }
}

/* Victim way for a full set.  Stamps are unique per policy clock, so a
 * strict-min scan picks the same line as the reference drivers' dict
 * iteration / min() calls. */
static int64_t select_victim(
    const CacheCtx *c, int64_t si, int64_t base, int w
) {
    int64_t ways = c->ways;
    const int64_t *stamp = c->stamp + base;
    const uint8_t *dirty = c->dirty + base;
    int64_t wy, best, best_stamp;

    if (c->victim_kind == VICTIM_RWP) {
        int64_t dc = c->dirty_lines[si];
        int64_t td = ways - c->target_clean;
        int evict_dirty = dc > td ? 1 : (dc < td ? 0 : w);
        if (evict_dirty ? dc != 0 : dc != ways) {
            best = -1;
            best_stamp = 0;
            for (wy = 0; wy < ways; wy++) {
                if ((dirty[wy] != 0) == evict_dirty) {
                    if (best < 0 || stamp[wy] < best_stamp) {
                        best = wy;
                        best_stamp = stamp[wy];
                    }
                }
            }
            return best;
        }
        /* chosen partition empty: whole-set LRU below */
    } else if (c->victim_kind == VICTIM_CORE_RWP) {
        int64_t cores = c->policy_cores;
        int64_t clean_occ[MAX_POLICY_CORES] = {0};
        int64_t dirty_occ[MAX_POLICY_CORES] = {0};
        const int64_t *owner = c->owner + base;
        for (wy = 0; wy < ways; wy++) {
            int64_t who = owner[wy] % cores;
            if (dirty[wy]) dirty_occ[who]++;
            else clean_occ[who]++;
        }
        best = -1;
        best_stamp = 0;
        for (wy = 0; wy < ways; wy++) {
            int64_t who = owner[wy] % cores;
            int over = dirty[wy]
                ? dirty_occ[who] >= c->dirty_targets[who]
                : clean_occ[who] >= c->clean_targets[who];
            if (over && (best < 0 || stamp[wy] < best_stamp)) {
                best = wy;
                best_stamp = stamp[wy];
            }
        }
        if (best >= 0) return best;
        /* every occupied group under budget: whole-set LRU below */
    }

    best = 0;
    best_stamp = stamp[0];
    for (wy = 1; wy < ways; wy++) {
        if (stamp[wy] < best_stamp) {
            best = wy;
            best_stamp = stamp[wy];
        }
    }
    return best;
}

/* Inlined WriteBufferModel.issue(cycles): same arithmetic, same order. */
static void wb_issue(LaneCtx *l, double *cycles, double *write_stall) {
    while (l->wb_len && l->wb_ring[l->wb_head] <= *cycles) {
        l->wb_head = (l->wb_head + 1) % l->wb_cap;
        l->wb_len--;
    }
    if (l->wb_len >= l->wb_entries) {
        double stall = l->wb_ring[l->wb_head] - *cycles;
        l->wb_head = (l->wb_head + 1) % l->wb_cap;
        l->wb_len--;
        l->wb_stall_cycles += stall;
        *write_stall += stall;
        *cycles += stall;
    }
    l->wb_server_free =
        (*cycles > l->wb_server_free ? *cycles : l->wb_server_free)
        + l->wb_drain;
    l->wb_ring[(l->wb_head + l->wb_len) % l->wb_cap] = l->wb_server_free;
    l->wb_len++;
    l->wb_writes++;
}

/* One bounded replay of lane accesses [start, stop): the shared inner
 * loop of rw_run_trace and rw_multicore.  Mirrors _session_stamped
 * access-for-access. */
static int64_t run_lane(CacheCtx *c, LaneCtx *l, int64_t start, int64_t stop) {
    const int64_t *set_stream = l->set_stream;
    const int64_t *tag_stream = l->tag_stream;
    const uint8_t *write_stream = l->write_stream;
    const double *cycle_stream = l->cycle_stream;
    const int64_t *gap_stream = l->gap_stream;
    /* Hoist the SoA pointers and hot counters into locals: the uint8_t
     * line-flag stores may alias anything reachable through c (unsigned
     * char aliases all types), so leaving these behind the struct
     * pointer forces a reload per access.  The epoch callback only
     * touches the victim targets and sampler histograms, never the
     * statistics or the clock, so those stay local across it. */
    int64_t *tag_a = c->tag;
    int64_t *stamp_a = c->stamp;
    int64_t *owner_a = c->owner;
    uint8_t *valid_a = c->valid;
    uint8_t *dirty_a = c->dirty;
    uint8_t *rs_a = c->read_seen;
    uint8_t *ws_a = c->write_seen;
    int64_t *filled_a = c->filled;
    int64_t *dl_a = c->dirty_lines;
    int64_t clock = c->clock;
    int64_t read_hits = c->read_hits, write_hits = c->write_hits;
    int64_t read_misses = c->read_misses, write_misses = c->write_misses;
    int64_t evictions = c->evictions, dirty_evictions = c->dirty_evictions;
    int64_t writebacks = c->writebacks;
    int64_t evicted_ro = c->evicted_ro, evicted_wo = c->evicted_wo;
    int64_t evicted_rw = c->evicted_rw;
    int64_t index_bits = c->index_bits;
    int64_t ways = c->ways;
    int64_t stride = c->sample_stride;
    int64_t period = c->epoch_period;
    int timed = (int)l->timed;
    double hit_stall = l->hit_stall;
    double miss_stall = l->miss_stall;
    double cycles = l->cycles;
    double read_stall = l->read_stall;
    double write_stall = l->write_stall;
    double limit = l->cycle_limit;
    int64_t core = l->core;
    int first_unconditional = (int)l->first_unconditional;
    const int64_t *origin_stream = l->origin_stream;
    int64_t *levels = l->levels;
    int attrib = levels != 0;
    int64_t ran = 0;
    int64_t i;

    for (i = start; i < stop; i++) {
        int64_t si, tag, base, li, wy;
        int w;
        if ((ran || !first_unconditional) && cycles >= limit) break;
        ran++;
        if (timed) cycles += cycle_stream[i];
        si = set_stream[i];
        tag = tag_stream[i];
        w = write_stream[i];
        if (stride && si % stride == 0) sampler_observe(c, core, si, tag, w);
        if (period) {
            if (--c->epoch_left == 0) {
                c->epoch_left = period;
                if (c->epoch_cb && c->epoch_cb()) {
                    c->status = STATUS_CALLBACK_ABORT;
                    break;
                }
            }
        }
        base = si * ways;
        li = -1;
        for (wy = 0; wy < ways; wy++) {
            int64_t slot = base + wy;
            if (valid_a[slot] && tag_a[slot] == tag) {
                li = slot;
                break;
            }
        }
        if (li >= 0) {
            if (w) {
                write_hits++;
                l->wh++;
                if (!dirty_a[li]) {
                    dl_a[si]++;
                    dirty_a[li] = 1;
                }
                ws_a[li] = 1;
                clock++;
                stamp_a[li] = clock;
            } else {
                read_hits++;
                l->rh++;
                rs_a[li] = 1;
                clock++;
                stamp_a[li] = clock;
                if (attrib) levels[origin_stream[i]] = 2;
                if (timed) {
                    read_stall += hit_stall;
                    cycles += hit_stall;
                }
            }
            continue;
        }

        /* miss (never bypassed on this plan) */
        if (w) {
            write_misses++;
            l->wm++;
        } else {
            read_misses++;
            l->rm++;
        }
        {
            int64_t wb_block = -1;
            if (filled_a[si] < ways) {
                for (wy = 0; wy < ways; wy++) {
                    if (!valid_a[base + wy]) break;
                }
                li = base + wy;
                filled_a[si]++;
            } else {
                int dirty;
                li = base + select_victim(c, si, base, w);
                evictions++;
                dirty = dirty_a[li];
                if (dirty) {
                    dirty_evictions++;
                    dl_a[si]--;
                }
                if (rs_a[li]) {
                    if (ws_a[li]) evicted_rw++;
                    else evicted_ro++;
                } else {
                    evicted_wo++;
                }
                if (dirty) {
                    writebacks++;
                    wb_block = (tag_a[li] << index_bits) | si;
                }
            }
            /* inlined CacheLine.reset_for_fill + recency stamp */
            tag_a[li] = tag;
            valid_a[li] = 1;
            dirty_a[li] = (uint8_t)w;
            owner_a[li] = core;
            rs_a[li] = (uint8_t)!w;
            ws_a[li] = (uint8_t)w;
            if (w) dl_a[si]++;
            clock++;
            stamp_a[li] = clock;
            if (attrib) {
                int64_t origin = origin_stream[i];
                if (wb_block >= 0) {
                    l->wb_out[l->wb_out_count++] = wb_block;
                    l->mem[origin]++;
                }
                if (!w) levels[origin] = 3;
            }
            if (timed) {
                if (!w) {
                    read_stall += miss_stall;
                    cycles += miss_stall;
                }
                if (wb_block >= 0) wb_issue(l, &cycles, &write_stall);
            }
        }
    }

    c->clock = clock;
    c->read_hits = read_hits;
    c->write_hits = write_hits;
    c->read_misses = read_misses;
    c->write_misses = write_misses;
    c->evictions = evictions;
    c->dirty_evictions = dirty_evictions;
    c->writebacks = writebacks;
    c->evicted_ro = evicted_ro;
    c->evicted_wo = evicted_wo;
    c->evicted_rw = evicted_rw;
    if (timed) {
        int64_t instr = 0;
        int64_t j;
        for (j = start; j < start + ran; j++) instr += gap_stream[j];
        l->instructions += instr;
    }
    l->cycles = cycles;
    l->read_stall = read_stall;
    l->write_stall = write_stall;
    return ran;
}

int64_t rw_run_trace(CacheCtx *c, LaneCtx *l, int64_t start, int64_t stop) {
    c->status = STATUS_OK;
    return run_lane(c, l, start, stop);
}

/* SetAssociativeCache.run_lru_filter ported slot-for-slot (pure LRU,
 * untimed, emits the downstream op stream). */
int64_t rw_lru_filter(CacheCtx *c, FilterCtx *f, int64_t start, int64_t stop) {
    const int64_t *set_stream = f->set_stream;
    const int64_t *tag_stream = f->tag_stream;
    const uint8_t *write_stream = f->write_stream;
    const int64_t *origins = f->origins;
    int64_t *levels = f->levels;
    int64_t level = f->level;
    int64_t core = f->core;
    int64_t ways = c->ways;
    int64_t index_bits = c->index_bits;
    int demand_mode = origins == 0;
    int64_t count = f->out_count;
    int64_t forwarded = 0;
    int64_t i;

    c->status = STATUS_OK;
    for (i = start; i < stop; i++) {
        int64_t si = set_stream[i];
        int64_t tag = tag_stream[i];
        int w = write_stream[i];
        int64_t base = si * ways;
        int64_t li = -1;
        int64_t wy, origin;
        for (wy = 0; wy < ways; wy++) {
            int64_t slot = base + wy;
            if (c->valid[slot] && c->tag[slot] == tag) {
                li = slot;
                break;
            }
        }
        if (li >= 0) {
            c->clock++;
            c->stamp[li] = c->clock;
            if (w) {
                c->write_hits++;
                if (!c->dirty[li]) {
                    c->dirty_lines[si]++;
                    c->dirty[li] = 1;
                }
                c->write_seen[li] = 1;
            } else {
                c->read_hits++;
                c->read_seen[li] = 1;
                if (levels) levels[origins[i]] = level;
            }
            continue;
        }

        if (w) c->write_misses++;
        else c->read_misses++;
        origin = demand_mode ? i : origins[i];
        if (c->filled[si] < ways) {
            for (wy = 0; wy < ways; wy++) {
                if (!c->valid[base + wy]) break;
            }
            li = base + wy;
            c->filled[si]++;
        } else {
            int dirty;
            int64_t best = 0;
            int64_t best_stamp = c->stamp[base];
            for (wy = 1; wy < ways; wy++) {
                if (c->stamp[base + wy] < best_stamp) {
                    best = wy;
                    best_stamp = c->stamp[base + wy];
                }
            }
            li = base + best;
            c->evictions++;
            dirty = c->dirty[li];
            if (dirty) {
                c->dirty_evictions++;
                c->dirty_lines[si]--;
            }
            if (c->read_seen[li]) {
                if (c->write_seen[li]) c->evicted_rw++;
                else c->evicted_ro++;
            } else {
                c->evicted_wo++;
            }
            if (dirty) {
                c->writebacks++;
                f->out_blocks[count] = (c->tag[li] << index_bits) | si;
                f->out_write[count] = 1;
                f->out_origin[count] = origin;
                count++;
            }
        }
        c->tag[li] = tag;
        c->valid[li] = 1;
        c->dirty[li] = (uint8_t)w;
        c->owner[li] = core;
        c->read_seen[li] = (uint8_t)!w;
        c->write_seen[li] = (uint8_t)w;
        if (w) c->dirty_lines[si]++;
        c->clock++;
        c->stamp[li] = c->clock;
        if (demand_mode || !w) {
            f->out_blocks[count] = (tag << index_bits) | si;
            f->out_write[count] = 0;
            f->out_origin[count] = origin;
            count++;
            forwarded++;
        }
    }
    f->out_count = count;
    f->forwarded = forwarded;
    return forwarded;
}

/* multicore/shared.py: _first_violation / _selection_limit, verbatim. */
static double first_violation(double bound, double penalty, int strict) {
    double x;
    if (isinf(bound) && bound > 0.0) return INFINITY;
    if (penalty == 0.0) return strict ? nextafter(bound, INFINITY) : bound;
    x = bound - penalty;
    if (strict) {
        while (x + penalty > bound) x = nextafter(x, -INFINITY);
        while (x + penalty <= bound) x = nextafter(x, INFINITY);
    } else {
        while (x + penalty >= bound) x = nextafter(x, -INFINITY);
        while (x + penalty < bound) x = nextafter(x, INFINITY);
    }
    return x;
}

static double selection_limit(double bound_lo, double bound_hi, double penalty) {
    double t1 = first_violation(bound_lo, penalty, 0);
    double t2 = first_violation(bound_hi, penalty, 1);
    return t1 < t2 ? t1 : t2;
}

/* SharedLLCSystem.run's epoch interleave over per-core lanes.  Returns
 * 0 on completion, nonzero when the epoch callback aborted. */
int64_t rw_multicore(CacheCtx *c, MultiCtx *m) {
    int64_t num_cores = m->num_cores;

    c->status = STATUS_OK;
    while (m->remaining) {
        int64_t core = 0;
        double best = m->effective[0];
        double bound_lo = INFINITY;
        double bound_hi = INFINITY;
        int64_t cand, index, length, wrapped, segment, ran;
        int core_done;
        double cycles;
        LaneCtx *lane;

        for (cand = 1; cand < num_cores; cand++) {
            double eff = m->effective[cand];
            if (eff < best) {
                bound_lo = best;
                best = eff;
                core = cand;
                bound_hi = INFINITY;
            } else if (eff < bound_hi) {
                bound_hi = eff;
            }
        }

        index = m->position[core];
        length = m->lengths[core];
        core_done = m->done[core];
        lane = &m->lanes[core];
        if (!core_done && index == m->warmup) {
            /* measured window opens: snapshot tallies, then
             * TimingModel.reset() (fresh write buffer, zeroed clocks) */
            m->base_rh[core] = lane->rh;
            m->base_rm[core] = lane->rm;
            m->base_wh[core] = lane->wh;
            m->base_wm[core] = lane->wm;
            lane->cycles = 0.0;
            lane->read_stall = 0.0;
            lane->write_stall = 0.0;
            lane->instructions = 0;
            lane->wb_head = 0;
            lane->wb_len = 0;
            lane->wb_server_free = 0.0;
            lane->wb_stall_cycles = 0.0;
            lane->wb_writes = 0;
        }
        wrapped = index < length ? index : index % length;
        segment = length - wrapped;
        if (!core_done && index < m->warmup) segment = m->warmup - index;
        if (core_done) {
            lane->cycle_limit = selection_limit(bound_lo, bound_hi, 1.0);
        } else {
            lane->cycle_limit = bound_lo <= bound_hi
                ? bound_lo
                : nextafter(bound_hi, INFINITY);
        }
        lane->first_unconditional = 1;

        ran = run_lane(c, lane, wrapped, wrapped + segment);
        if (c->status != STATUS_OK) return c->status;

        cycles = lane->cycles;
        if (core_done) cycles += 1.0;
        m->effective[core] = cycles;
        m->position[core] = index + ran;
        m->ticks[core] += ran;
        if (!core_done && m->position[core] >= length) {
            m->done[core] = 1;
            m->effective[core] = cycles + 1.0;
            m->frozen_rh[core] = lane->rh;
            m->frozen_rm[core] = lane->rm;
            m->frozen_wh[core] = lane->wh;
            m->frozen_wm[core] = lane->wm;
            m->frozen_instr[core] = lane->instructions;
            m->frozen_cycles[core] = lane->cycles;
            m->remaining--;
        }
    }
    return 0;
}
