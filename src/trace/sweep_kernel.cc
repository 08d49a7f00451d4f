/**
 * @file
 * The sweep driver behind MaterializedTrace::replaySweep(),
 * replaySweepPacked() and the memoized replaySweepScalar(), and the
 * config-parallel lane kernel it runs wide groups of machines on.
 *
 * A scalar sweep times N configurations with N passes over the trace,
 * and each pass re-simulates structures whose behaviour most
 * configurations share: the cache tag arrays (identical for every
 * config with the same geometry, regardless of penalties) and the BTB
 * (identical for every config with the same entry count). The driver
 * takes that work out of the timing passes, then picks the cheapest
 * timing kernel per group of machines:
 *
 *  1. **Memo pre-pass** (MaterializedTrace::planMemos()). For each
 *     unique (L1, L2) cache geometry the hierarchy is simulated once
 *     over just the memory events, recording a penalty *class* (L1 hit
 *     / L2 hit / L2 miss) per access plus the final statistics; every
 *     L2 geometry behind one L1 shares that L1's miss stream. For each
 *     unique BTB geometry the predictor runs once over just the
 *     control events, recording a mispredict bitvector. Memos the
 *     caller's MaterializedTrace::Memos already holds are reused.
 *
 *  2. **Lanes.** Machines are grouped by model and front end (every
 *     sim::FrontEnd field except the mispredict penalty). A
 *     group of more than max(2, workers) machines advances together
 *     in ONE pass over the trace's own 6-byte records (PackedOp), read
 *     in place, one 32-bit lane per machine, in blocks of one vector
 *     register: 16 lanes per zmm on AVX-512, 8 per ymm on AVX2 (a
 *     remainder of at most half a register takes a half-width block) —
 *     the widest ISA the CPU runs, chosen at run time. Lane values are
 *     offsets from a per-lane 64-bit origin that the kernel moves to
 *     the lane's clock every LaneBlock::period events, so every trace
 *     is timed exactly however long it is (sweep_lanes.inc). A machine
 *     whose lane bound exceeds kLaneBoundMax, or whose front end issues
 *     wider than it retires, runs per machine instead. Before the lanes
 *     run, the memo outcomes of each distinct lane tuple (the memos of
 *     a block's lanes, in lane order) are packed once into an outcome
 *     plane, one bit per lane, which every block with that tuple reads
 *     in place. The kernel is written once over GCC/Clang vector
 *     extensions and templated on a per-model step; every per-lane
 *     choice is a mask select, because whether a lane pairs or joins a
 *     decode group is data-dependent and a branch would mispredict
 *     constantly. Statistics with a closed form over the memos (memory
 *     penalty and mispredict cycles) leave the loop.
 *
 *  3. **Per-machine runs.** Every other machine (a narrow group, every
 *     vprofd miss) runs the memoized per-machine kernel
 *     (MaterializedTrace::runKernelImpl<Model, true>), which hands the
 *     timer both recorded outcomes through consumeResolved().
 *
 * The pre-pass, the plane packing and the timing tasks (lane blocks
 * and per-machine runs, largest first) are three worker pools in turn.
 * Every result is bit-identical to replaySweepScalar() without memos:
 * each lane step mirrors its model's consumeResolved() exactly,
 * exploiting only don't-care stores (fields the scalar model leaves
 * stale behind a flag may be overwritten unconditionally).
 */

#include "materialize.hh"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <iterator>
#include <memory>
#include <utility>

#include "sim/uop.hh"
#include "support/logging.hh"
#include "support/parallel.hh"

// The lane kernel is compiled per function for each vector ISA (the
// build stays baseline x86-64) and selected at run time with
// __builtin_cpu_supports.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define MMXDSP_SWEEP_LANES 1
#else
#define MMXDSP_SWEEP_LANES 0
#endif

namespace mmxdsp::trace {

namespace {

/** After a rebase no time-like lane value lies below this; one further
 *  behind is clamped to it (sweep_lanes.inc). */
constexpr int32_t kLaneFloor = -(int32_t{1} << 30);
/** A block rebases every period events, with period * its lane bound
 *  below this, so the clock stays below 2^29 between rebases. */
constexpr uint64_t kLaneSpan = uint64_t{1} << 29;
/** The largest lane bound a machine may have to run on lanes (so a
 *  block rebases at least every 32 events). */
constexpr uint64_t kLaneBoundMax = uint64_t{1} << 24;

/** What the lanes read of one trace, borrowed from the
 *  MaterializedTrace: its records in place, the OpFacts of its static
 *  entries, its function-run list and the result-assembly context. */
struct SweepProgram
{
    size_t n = 0;
    const PackedOp *ops = nullptr;
    const OpFacts *facts = nullptr; ///< indexed by PackedOp::sid
    const std::vector<FnRun> *runs = nullptr;
    size_t memEvents = 0;     ///< length of every CacheMemo::cls
    size_t controlEvents = 0; ///< bits in every BtbMemo
    const profile::ProfileResult *counts = nullptr;
    const std::vector<std::string> *fnNames = nullptr;
    const std::vector<profile::FunctionStats> *fnCounts = nullptr;
};

/** One sweep entry bound to its shared memos and its result slot. */
struct LaneRef
{
    const sim::MachineConfig *machine = nullptr;
    const CacheMemo *mem = nullptr;
    const BtbMemo *btb = nullptr;
    size_t resultIndex = 0;
};

/**
 * The memo outcomes of one lane tuple (the cache and BTB memo of each
 * lane of a block, padding included), packed one bit per lane: memory
 * event j's word has bit l set when lane l missed L1 (penalty class 1
 * or 2) and bit 16 + l when it missed L2 too (class 2); control event
 * j's halfword has bit l set when lane l mispredicted. Built once per
 * sweep per distinct tuple; every block with that tuple reads it in
 * place.
 */
struct OutcomePlane
{
    std::vector<std::pair<const CacheMemo *, const BtbMemo *>> tuple;
    std::unique_ptr<uint32_t[]> missed;
    std::unique_ptr<uint16_t[]> mispredicted;
};

/** One lane-kernel task: a register of lanes, padded by repeating the
 *  first, of which the first @c real produce results. */
struct LaneBlock;
using LaneKernel = size_t (*)(const SweepProgram &, const LaneBlock &,
                              std::vector<profile::ProfileResult> &);
struct LaneBlock
{
    LaneKernel kernel = nullptr;
    std::vector<LaneRef> lanes;
    size_t real = 0;
    const OutcomePlane *plane = nullptr;
    size_t period = 0; ///< events between rebases
};

/** W 32-bit lanes in one vector register, signed and unsigned, and W
 *  64-bit totals. */
template <int W>
struct Lanes
{
    typedef int32_t V __attribute__((vector_size(4 * W)));
    typedef uint32_t U __attribute__((vector_size(4 * W)));
    typedef int64_t Wide __attribute__((vector_size(8 * W)));
};

/** The front end @p m's model reads (sim::frontEnd()). */
sim::FrontEnd
frontEnd(const sim::MachineConfig &m)
{
    return sim::frontEnd(m.model, m.timer);
}

/**
 * Build one lane's ProfileResult from the config-independent template,
 * its loop-carried statistics, and the closed-form memo totals.
 */
profile::ProfileResult
assembleLane(const SweepProgram &prog, const LaneRef &ref,
             const sim::TimerStats &timer, uint64_t cycles, uint64_t callRet,
             uint64_t overhead, const uint64_t *fnCycles, size_t stride,
             size_t lane)
{
    const sim::TimerConfig &tc = ref.machine->timer;
    profile::ProfileResult r = *prog.counts;
    r.cycles = cycles;
    r.callRetCycles = callRet;
    r.callOverheadCycles = overhead;
    r.timer = timer;
    r.timer.instructions = prog.n;
    r.timer.memPenaltyCycles = ref.mem->l2Served * tc.penalties.ofClass(1)
                               + ref.mem->l2Missed * tc.penalties.ofClass(2);
    r.timer.mispredictCycles =
        ref.btb->stats.mispredicts
        * uint64_t{frontEnd(*ref.machine).mispredict_penalty};
    r.l1 = ref.mem->l1;
    r.l2 = ref.mem->l2;
    r.btb = ref.btb->stats;
    for (size_t id = 0; id < prog.fnCounts->size(); ++id) {
        const profile::FunctionStats &st = (*prog.fnCounts)[id];
        if (st.calls || st.instructions) {
            profile::FunctionStats full = st;
            full.cycles = fnCycles[id * stride + lane];
            r.functions.emplace((*prog.fnNames)[id], full);
        }
    }
    return r;
}

#if MMXDSP_SWEEP_LANES
namespace avx512 {
#define MMXDSP_LANE_TARGET "avx512f,avx512vl"
#define MMXDSP_LANE_WIDE 16
#include "sweep_lanes.inc"
#undef MMXDSP_LANE_WIDE
#undef MMXDSP_LANE_TARGET
} // namespace avx512
namespace avx2 {
#define MMXDSP_LANE_TARGET "avx2"
#define MMXDSP_LANE_WIDE 8
#include "sweep_lanes.inc"
#undef MMXDSP_LANE_WIDE
#undef MMXDSP_LANE_TARGET
} // namespace avx2
#endif

/** The lane kernel of @p isa for @p model at @p width lanes per
 *  register. */
LaneKernel
laneKernel(LaneIsa isa, sim::ModelKind model, int width)
{
#if MMXDSP_SWEEP_LANES
    switch (isa) {
      case LaneIsa::Avx512:
        return avx512::laneKernel(model, width);
      case LaneIsa::Avx2:
        return avx2::laneKernel(model, width);
      case LaneIsa::None:
        break;
    }
#endif
    (void)isa, (void)model, (void)width;
    return nullptr;
}

/**
 * Rank of one task of the timing pool in its largest-first order: lane
 * blocks (@p width > 0, the widest first), then per-machine runs; within
 * either, P6P before P6 before P5, slowest model first
 * (EXPERIMENTS.md).
 */
size_t
taskRank(sim::ModelKind model, size_t width)
{
    size_t rank = 0;
    switch (model) {
      case sim::ModelKind::P6P:
        rank = 2;
        break;
      case sim::ModelKind::P6:
        rank = 1;
        break;
      case sim::ModelKind::P5:
        break;
    }
    return width ? 3 + 3 * width + rank : rank;
}

/** What must match for two machines to share a lane block: the model
 *  and every front-end field but the mispredict penalty. */
std::pair<sim::ModelKind, sim::FrontEnd>
laneGroup(const sim::MachineConfig &m)
{
    sim::FrontEnd fe = frontEnd(m);
    fe.mispredict_penalty = 0;
    return {m.model, fe};
}

/**
 * True when two sweep entries are guaranteed to produce bit-identical
 * ProfileResults: same model and same value for every parameter that
 * model reads. Cosmetic fields (cache names) are ignored, as are
 * parameters the selected model never consults (P6 front-end widths on
 * a P5 entry; the P5 mispredict penalty on a P6 entry, which uses
 * p6.mispredict_penalty instead).
 */
bool
sameMachine(const sim::MachineConfig &a, const sim::MachineConfig &b)
{
    const auto sameCache = [](const mem::CacheConfig &x,
                              const mem::CacheConfig &y) {
        return x.size_bytes == y.size_bytes && x.line_bytes == y.line_bytes
               && x.ways == y.ways;
    };
    const sim::TimerConfig &ta = a.timer;
    const sim::TimerConfig &tb = b.timer;
    return a.model == b.model && frontEnd(a) == frontEnd(b)
           && sameCache(ta.l1, tb.l1) && sameCache(ta.l2, tb.l2)
           && ta.penalties.l1_miss == tb.penalties.l1_miss
           && ta.penalties.l2_hit == tb.penalties.l2_hit
           && ta.penalties.l2_miss == tb.penalties.l2_miss
           && ta.btb_entries == tb.btb_entries && ta.btb_ways == tb.btb_ways;
}

/**
 * The lane bound of @p m: how far one event can move any of its lane
 * values — the descriptor table's largest latency, blocking and uop
 * count, its memory and mispredict penalties and its front-end widths
 * and window (the furthest a port can run ahead of the clock).
 */
uint64_t
laneBound(const sim::MachineConfig &m)
{
    static const uint64_t reach = [] {
        uint64_t lat = 0, blocking = 0, uops = 0;
        for (const sim::UopDesc &d : sim::descTable()) {
            lat = std::max<uint64_t>({lat, d.latP5, d.latP6});
            blocking = std::max<uint64_t>(blocking, d.blocking);
            uops = std::max<uint64_t>(uops, d.uops);
        }
        return lat + blocking + uops;
    }();
    const sim::TimerConfig &tc = m.timer;
    const sim::FrontEnd fe = frontEnd(m);
    return reach
           + std::max(tc.penalties.ofClass(1), tc.penalties.ofClass(2))
           + fe.mispredict_penalty + fe.decode_width + fe.issue_width
           + fe.window;
}

/** Whether @p m can run on 32-bit lanes: a lane bound of at most
 *  kLaneBoundMax, and (P6/P6P) an issue width no wider than the retire
 *  width, which is what lets a rebase clamp the retire floor. */
bool
laneFits(const sim::MachineConfig &m)
{
    const sim::FrontEnd fe = frontEnd(m);
    return fe.issue_width <= fe.retire_width && laneBound(m) <= kLaneBoundMax;
}

/** One 16-byte register, as bytes, u16s and u64s. */
typedef uint8_t Bytes16 __attribute__((vector_size(16)));
typedef uint16_t Halves8 __attribute__((vector_size(16)));
typedef uint64_t Words2 __attribute__((vector_size(16)));

/** Eight events' u16s from two u64s of per-event bytes: event j's
 *  byte of @p lo (lanes 0-7) low, of @p hi (lanes 8-15) high. */
Halves8
interleave(uint64_t lo, uint64_t hi)
{
    const Bytes16 b = Bytes16(Words2{lo, hi});
    return Halves8(__builtin_shufflevector(b, b, 0, 8, 1, 9, 2, 10, 3, 11,
                                           4, 12, 5, 13, 6, 14, 7, 15));
}

/** One u64 per byte value, whose byte i is the value's bit i. */
const std::array<uint64_t, 256> &
bitsToBytes()
{
    static const std::array<uint64_t, 256> table = [] {
        std::array<uint64_t, 256> t{};
        for (uint32_t v = 0; v < 256; ++v)
            for (uint32_t i = 0; i < 8; ++i)
                t[v] |= uint64_t{(v >> i) & 1} << (8 * i);
        return t;
    }();
    return table;
}

/**
 * Pack chunk @p chunk of @p chunks of an outcome plane: its share of
 * the memory events' classes and of the control events' mispredict
 * bits, eight events at a time. Per lane, eight class bytes (each 0, 1
 * or 2) read as one u64 give the eight events' L1-miss and L2-miss
 * bits at once, one per byte, and eight mispredict bits spread to one
 * per byte through a table; shifted to the lane's bit of the byte,
 * they are OR-ed into accumulators for lanes 0-7 and 8-15, and byte
 * interleaves turn those into the events' words.
 */
void
fillPlane(OutcomePlane &plane, size_t memEvents, size_t controlEvents,
          size_t chunk, size_t chunks)
{
    constexpr uint64_t kLow = 0x0101010101010101;
    constexpr size_t kGroups = 256; // groups of 8 events per pass
    const size_t width = plane.tuple.size();
    uint32_t *missed = plane.missed.get();
    const size_t memGroups = (memEvents + 7) / 8;
    for (size_t g0 = memGroups * chunk / chunks,
                gEnd = memGroups * (chunk + 1) / chunks;
         g0 < gEnd; g0 += kGroups) {
        const size_t n = std::min(kGroups, gEnd - g0);
        // L1 misses of lanes 0-7 and 8-15, then L2 misses.
        uint64_t acc[kGroups][4] = {};
        for (size_t l = 0; l < width; ++l) {
            const uint8_t *cls = plane.tuple[l].first->cls.data();
            const size_t half = l / 8, shift = l % 8;
            for (size_t g = 0; g < n; ++g) {
                const size_t j = (g0 + g) * 8;
                uint64_t x = 0;
                if (j + 8 <= memEvents)
                    std::memcpy(&x, cls + j, 8);
                else
                    std::memcpy(&x, cls + j, memEvents - j);
                acc[g][half] |= ((x | x >> 1) & kLow) << shift;
                acc[g][2 + half] |= (x >> 1 & kLow) << shift;
            }
        }
        for (size_t g = 0; g < n; ++g) {
            const Halves8 l1 = interleave(acc[g][0], acc[g][1]);
            const Halves8 l2 = interleave(acc[g][2], acc[g][3]);
            uint32_t words[8];
            const Halves8 lo =
                __builtin_shufflevector(l1, l2, 0, 8, 1, 9, 2, 10, 3, 11);
            const Halves8 hi =
                __builtin_shufflevector(l1, l2, 4, 12, 5, 13, 6, 14, 7, 15);
            std::memcpy(words, &lo, sizeof(lo));
            std::memcpy(words + 4, &hi, sizeof(hi));
            const size_t j = (g0 + g) * 8;
            std::copy_n(words, std::min<size_t>(8, memEvents - j),
                        missed + j);
        }
    }

    const std::array<uint64_t, 256> &spread = bitsToBytes();
    uint16_t *mispredicted = plane.mispredicted.get();
    const size_t ctlGroups = (controlEvents + 7) / 8;
    for (size_t g0 = ctlGroups * chunk / chunks,
                gEnd = ctlGroups * (chunk + 1) / chunks;
         g0 < gEnd; g0 += kGroups) {
        const size_t n = std::min(kGroups, gEnd - g0);
        uint64_t acc[kGroups][2] = {};
        for (size_t l = 0; l < width; ++l) {
            const uint64_t *bits = plane.tuple[l].second->bits.data();
            const size_t half = l / 8, shift = l % 8;
            for (size_t g = 0; g < n; ++g) {
                const size_t at = g0 + g;
                const uint64_t byte = bits[at / 8] >> (8 * (at % 8)) & 0xff;
                acc[g][half] |= spread[byte] << shift;
            }
        }
        for (size_t g = 0; g < n; ++g) {
            uint16_t halves[8];
            const Halves8 h = interleave(acc[g][0], acc[g][1]);
            std::memcpy(halves, &h, sizeof(h));
            const size_t j = (g0 + g) * 8;
            std::copy_n(halves, std::min<size_t>(8, controlEvents - j),
                        mispredicted + j);
        }
    }
}

} // namespace

LaneIsa
hostLaneIsa()
{
#if MMXDSP_SWEEP_LANES
    if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512vl"))
        return LaneIsa::Avx512;
    if (__builtin_cpu_supports("avx2"))
        return LaneIsa::Avx2;
#endif
    return LaneIsa::None;
}

const char *
laneIsaName(LaneIsa isa)
{
    switch (isa) {
      case LaneIsa::Avx512:
        return "avx512";
      case LaneIsa::Avx2:
        return "avx2";
      case LaneIsa::None:
        break;
    }
    return "none";
}

std::vector<profile::ProfileResult>
MaterializedTrace::replaySweep(const std::vector<sim::MachineConfig> &machines,
                               int threads, Memos *memos,
                               SweepReport *report) const
{
    // Deduplicate identical entries before dispatch: each unique machine
    // is timed once and its result fanned back out to every duplicate
    // index, so callers may pass redundant grids at no extra cost.
    std::vector<size_t> uniqueOf(machines.size());
    std::vector<sim::MachineConfig> unique;
    unique.reserve(machines.size());
    for (size_t i = 0; i < machines.size(); ++i) {
        size_t u = unique.size();
        for (size_t j = 0; j < unique.size(); ++j) {
            if (sameMachine(machines[i], unique[j])) {
                u = j;
                break;
            }
        }
        if (u == unique.size())
            unique.push_back(machines[i]);
        uniqueOf[i] = u;
    }

    std::vector<profile::ProfileResult> uniqueResults =
        runSweep(unique, threads, memos, SweepRoute::Dispatch,
                 hostLaneIsa(), report);

    if (unique.size() == machines.size())
        return uniqueResults;
    std::vector<profile::ProfileResult> results(machines.size());
    for (size_t i = 0; i < machines.size(); ++i)
        results[i] = uniqueResults[uniqueOf[i]];
    return results;
}

std::vector<profile::ProfileResult>
MaterializedTrace::runSweep(const std::vector<sim::MachineConfig> &machines,
                            int threads, Memos *memos, SweepRoute route,
                            LaneIsa isa, SweepReport *report) const
{
    std::vector<profile::ProfileResult> results(machines.size());
    if (machines.empty())
        return results;

    using Clock = std::chrono::steady_clock;
    const auto t0 = Clock::now();
    SweepReport rep;

    // Group the machines by model and front end. The lane kernel
    // advances a group in one pass, but a lane block is one serial task
    // while per-machine passes run side by side, so replaySweep() only
    // packs a group once it holds more machines than there are workers
    // to run per-machine passes (the crossover in EXPERIMENTS.md);
    // replaySweepPacked() packs every group. Machines that do not fit
    // 32-bit lanes run per machine either way.
    const size_t workers = static_cast<size_t>(resolveThreads(threads));
    std::vector<std::pair<std::pair<sim::ModelKind, sim::FrontEnd>,
                          std::vector<size_t>>>
        groups;
    for (size_t i = 0; i < machines.size(); ++i) {
        const auto key = laneGroup(machines[i]);
        auto it = std::find_if(groups.begin(), groups.end(),
                               [&](const auto &g) { return g.first == key; });
        if (it == groups.end())
            groups.push_back({key, {i}});
        else
            it->second.push_back(i);
    }
    std::vector<std::vector<size_t>> lanes; ///< groups for the lane kernel
    std::vector<size_t> solo; ///< entries for the per-machine kernel
    for (auto &[key, group] : groups) {
        bool pack = isa != LaneIsa::None;
        if (pack) {
            const auto unfit = std::stable_partition(
                group.begin(), group.end(),
                [&](size_t i) { return laneFits(machines[i]); });
            rep.unfit += static_cast<size_t>(group.end() - unfit);
            solo.insert(solo.end(), unfit, group.end());
            group.erase(unfit, group.end());
        }
        if (route == SweepRoute::Dispatch)
            pack = pack && group.size() > std::max<size_t>(2, workers);
        if (pack && !group.empty())
            lanes.push_back(std::move(group));
        else
            solo.insert(solo.end(), group.begin(), group.end());
    }

    // ---- 1. the memo pre-pass ----
    Memos local;
    Memos &store = memos ? *memos : local;
    MemoPass pass = planMemos(machines, store);

    // A task of the shared pool, timed by kind for the report.
    enum Kind { kRecord, kPlane, kLanes, kSolo, kKinds };
    struct Task
    {
        Kind kind;
        size_t rank; ///< taskRank(), for the largest-first order
        std::function<void()> run;
    };
    std::vector<Task> tasks;
    for (std::function<void()> &record : pass.recorders)
        tasks.push_back({kRecord, 0, std::move(record)});
    const size_t prepared = tasks.size();

    // The lanes read the trace in place.
    const SweepProgram prog{ops_.size(),      ops_.data(),
                            facts_.data(),    &fnRuns_,
                            counts_.memoryReferences,
                            controlCount_,    &counts_,
                            &fnNames_,        &fnCounts_};

    // ---- 2. lane blocks: one register of lanes each; a remainder of
    // at most half a register takes a half-width block. Each block
    // reads the outcome plane of its lane tuple, one per distinct
    // tuple, and rebases as often as its lane bound needs ----
    const size_t wide = static_cast<size_t>(isa);
    std::vector<LaneBlock> blocks;
    std::deque<OutcomePlane> planes;
    for (const std::vector<size_t> &group : lanes) {
        const sim::ModelKind model = machines[group[0]].model;
        rep.lanes[static_cast<size_t>(model)] += group.size();
        for (size_t at = 0; at < group.size(); at += wide) {
            LaneBlock block;
            block.real = std::min(wide, group.size() - at);
            const size_t width = block.real <= wide / 2 ? wide / 2 : wide;
            block.kernel =
                laneKernel(isa, model, static_cast<int>(width));
            std::vector<std::pair<const CacheMemo *, const BtbMemo *>> tuple;
            uint64_t bound = 1;
            for (size_t k = 0; k < width; ++k) {
                const size_t i = group[at + (k < block.real ? k : 0)];
                block.lanes.push_back(LaneRef{&machines[i],
                                              pass.refs[i].cache,
                                              pass.refs[i].btb, i});
                tuple.emplace_back(pass.refs[i].cache, pass.refs[i].btb);
                bound = std::max(bound, laneBound(machines[i]));
            }
            block.period = static_cast<size_t>((kLaneSpan - 1) / bound);
            auto plane = std::find_if(
                planes.begin(), planes.end(),
                [&](const OutcomePlane &p) { return p.tuple == tuple; });
            if (plane == planes.end()) {
                planes.push_back({std::move(tuple), nullptr, nullptr});
                plane = std::prev(planes.end());
            }
            block.plane = &*plane;
            rep.laneServed += block.real;
            blocks.push_back(std::move(block));
        }
    }
    // The plane packing, a few chunks per plane, so it spreads over the
    // workers.
    constexpr size_t kPlaneChunkEvents = size_t{1} << 16;
    const size_t chunks = std::max<size_t>(
        1, (std::max(prog.memEvents, prog.controlEvents)
            + kPlaneChunkEvents - 1)
               / kPlaneChunkEvents);
    for (OutcomePlane &plane : planes) {
        plane.missed =
            std::make_unique_for_overwrite<uint32_t[]>(prog.memEvents);
        plane.mispredicted =
            std::make_unique_for_overwrite<uint16_t[]>(prog.controlEvents);
        for (size_t c = 0; c < chunks; ++c)
            tasks.push_back({kPlane, 0, [&, c] {
                                 fillPlane(plane, prog.memEvents,
                                           prog.controlEvents, c, chunks);
                             }});
    }
    const size_t packed = tasks.size();
    std::atomic<size_t> rebases{0};
    for (const LaneBlock &block : blocks)
        tasks.push_back({kLanes,
                         taskRank(block.lanes[0].machine->model,
                                  block.lanes.size()),
                         [&] {
                             rebases += block.kernel(prog, block, results);
                         }});

    // ---- 3. one per-machine run per other entry ----
    for (size_t i : solo)
        tasks.push_back({kSolo, taskRank(machines[i].model, 0), [&, i] {
                             results[i] = runKernel(machines[i],
                                                    pass.refs[i].cache,
                                                    pass.refs[i].btb);
                         }});
    std::stable_sort(tasks.begin() + static_cast<ptrdiff_t>(packed),
                     tasks.end(), [](const Task &a, const Task &b) {
                         return a.rank > b.rank;
                     });

    // Three pools: the memo pre-pass, the plane packing, then every
    // lane block and per-machine run, largest first.
    std::array<std::atomic<int64_t>, kKinds> taskNs{};
    const auto runTasks = [&](size_t from, size_t to) {
        parallelFor(to - from, threads, [&](size_t t) {
            const Task &task = tasks[from + t];
            const auto s0 = Clock::now();
            task.run();
            taskNs[task.kind] +=
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - s0)
                    .count();
        });
        return Clock::now();
    };
    const auto t1 = runTasks(0, prepared);
    const auto t2 = runTasks(prepared, packed);
    const auto t3 = runTasks(packed, tasks.size());
    std::move(pass.newCache.begin(), pass.newCache.end(),
              std::back_inserter(store.cache_));
    std::move(pass.newBtb.begin(), pass.newBtb.end(),
              std::back_inserter(store.btb_));

    const auto ms = [&](Kind kind) { return taskNs[kind].load() / 1e6; };
    const auto wall = [](Clock::time_point a, Clock::time_point b) {
        return std::chrono::duration<double, std::milli>(b - a).count();
    };
    rep.memosRecorded = pass.newCache.size() + pass.newBtb.size();
    rep.memosReused = pass.reused;
    rep.blocks = blocks.size();
    rep.planes = planes.size();
    rep.rebases = rebases.load();
    rep.perMachine = solo.size();
    rep.prepassMs = ms(kRecord);
    rep.planeMs = ms(kPlane);
    rep.laneMs = ms(kLanes);
    rep.perMachineMs = ms(kSolo);
    rep.prepassWallMs = wall(t0, t1);
    rep.planeWallMs = wall(t1, t2);
    rep.timingWallMs = wall(t2, t3);
    if (std::getenv("MMXDSP_SWEEP_DEBUG")) {
        std::fprintf(
            stderr,
            "[sweep] memo pre-pass(%zu recorded, %zu reused) %.2fms "
            "(pre-pass wall %.2fms) planes(%zu for %zu blocks) %.2fms "
            "(wall %.2fms) lanes(%s: p5 %zu, p6 %zu, p6p %zu; %zu "
            "rebases) %.2fms per-machine(%zu, %zu unfit for lanes) %.2fms "
            "(wall %.2fms)\n",
            rep.memosRecorded, rep.memosReused, rep.prepassMs,
            rep.prepassWallMs, rep.planes, rep.blocks, rep.planeMs,
            rep.planeWallMs, blocks.empty() ? "none" : laneIsaName(isa),
            rep.lanes[0], rep.lanes[1], rep.lanes[2], rep.rebases,
            rep.laneMs, rep.perMachine, rep.unfit, rep.perMachineMs,
            rep.timingWallMs);
    }
    if (report)
        *report = rep;
    return results;
}

std::vector<profile::ProfileResult>
MaterializedTrace::replaySweepPacked(
    const std::vector<sim::MachineConfig> &machines, int threads,
    LaneIsa isa, SweepReport *report) const
{
    if (static_cast<int>(isa) > static_cast<int>(hostLaneIsa()))
        mmxdsp_panic("lane ISA %s not supported by this CPU",
                     laneIsaName(isa));
    return runSweep(machines, threads, nullptr, SweepRoute::Packed, isa,
                    report);
}

} // namespace mmxdsp::trace
