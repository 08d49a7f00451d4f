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
 *  2. **Lanes.** Machines are grouped by model (each model's front
 *     end is fixed, so only its penalties differ per machine). A
 *     group of more than perMachineWidth() machines advances together
 *     in ONE pass over the trace's own 6-byte records (PackedOp), read
 *     in place, one 32-bit lane per machine, in blocks of one vector
 *     register: 16 lanes per zmm on AVX-512, 8 per ymm on AVX2 (a
 *     remainder of at most half a register takes a half-width block) —
 *     the widest ISA the CPU runs, chosen at run time. Lane values are
 *     offsets from a per-lane 64-bit origin that the kernel moves to
 *     the lane's clock every LaneBlock::period events, so every trace
 *     is timed exactly however long it is (sweep_lanes.inc). A machine
 *     whose lane bound exceeds kLaneBoundMax runs per machine instead.
 *     Before the lanes run, the memo outcomes of each distinct lane
 *     tuple (the memos of a block's lanes, in lane order) are packed
 *     once into an outcome plane, one bit per lane, which every block
 *     with that tuple reads in place. The kernel is written once over
 *     GCC/Clang vector extensions and templated on a per-model step;
 *     every per-lane choice is a mask select, because whether a lane
 *     pairs or joins a decode group is data-dependent and a branch
 *     would mispredict constantly. Statistics with a closed form over
 *     the memos (memory penalty and mispredict cycles) or the per-op
 *     facts (blocking extra cycles, uops issued) leave the loop.
 *
 *  3. **Per-machine runs.** Every other machine (a narrow group, every
 *     vprofd miss) runs the memoized per-machine kernel
 *     (MaterializedTrace::runKernelImpl<Model, MemoOutcomes>), which runs
 *     the model's own step() over both recorded outcomes.
 *
 * The pre-pass, the plane packing and the timing tasks (lane blocks
 * and per-machine runs, largest first) are three worker pools in turn.
 * Every result is bit-identical to replaySweepScalar() without memos:
 * each lane step mirrors its model's step() exactly,
 * exploiting only don't-care stores (fields the scalar model leaves
 * stale behind a flag may be overwritten unconditionally).
 */

#include "materialize.hh"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <iterator>
#include <memory>
#include <utility>

#include "sim/p6_timer.hh"
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

/** One sweep entry bound to its shared memos and its result slot. */
struct LaneRef
{
    const sim::MachineConfig *machine = nullptr;
    const CacheMemo *mem = nullptr;
    const BtbMemo *btb = nullptr;
    size_t resultIndex = 0;
};

/** What the lanes read of one trace, borrowed from the
 *  MaterializedTrace: its records in place, the timing rows of its
 *  static entries and its function-run list; results go through its
 *  assembleMemoized(). */
struct SweepProgram
{
    explicit SweepProgram(const MaterializedTrace &t)
        : trace(t), ops(t.ops_.data()), rows(t.rows_.data()),
          runs(&t.fnRuns_),
          memEvents(t.counts_.memoryReferences),
          controlEvents(t.controlCount_), functions(t.fnNames_.size())
    {
    }

    /**
     * Lane @p ref's ProfileResult from its loop-carried statistics
     * (@p schedule's counters, @p cycles, @p callRet, @p overhead,
     * function id's cycles at @p fnCycles[id * stride]) and the
     * statistics with a closed form.
     */
    profile::ProfileResult
    laneResult(const LaneRef &ref, const sim::TimerStats &schedule,
               uint64_t cycles, uint64_t callRet, uint64_t overhead,
               const uint64_t *fnCycles, size_t stride) const;

    const MaterializedTrace &trace;
    const PackedOp *ops;
    const sim::UopDesc *rows; ///< indexed by PackedOp::sid
    const std::vector<FnRun> *runs;
    size_t memEvents;     ///< length of every CacheMemo::cls
    size_t controlEvents; ///< bits in every BtbMemo
    size_t functions;     ///< function ids (rows of per-function cycles)
};

profile::ProfileResult
SweepProgram::laneResult(const LaneRef &ref, const sim::TimerStats &schedule,
                         uint64_t cycles, uint64_t callRet, uint64_t overhead,
                         const uint64_t *fnCycles, size_t stride) const
{
    MaterializedTrace::Measured m{cycles, callRet, overhead, schedule,
                                  {},     {},      {}};
    return trace.assembleMemoized(m, *ref.machine, {ref.mem, ref.btb},
                                  fnCycles, stride);
}

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

/**
 * The lane bound of @p m: how far one event can move any of its lane
 * values — the descriptor table's largest latency, blocking and uop
 * count, its memory and mispredict penalties and (P6P) its window, the
 * furthest a port can run ahead of the clock.
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
    return reach
           + std::max(tc.penalties.ofClass(1), tc.penalties.ofClass(2))
           + sim::mispredictPenalty(m.model, tc)
           + (m.model == sim::ModelKind::P6P ? sim::P6PTimer::kWindow : 0);
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

size_t
perMachineWidth(sim::ModelKind model, int threads)
{
    const size_t rounds = model == sim::ModelKind::P6P ? 1 : 2;
    return rounds
           * std::max<size_t>(2, static_cast<size_t>(resolveThreads(threads)));
}

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
    std::vector<sim::MachineKey> keys;
    unique.reserve(machines.size());
    for (size_t i = 0; i < machines.size(); ++i) {
        const sim::MachineKey key = sim::machineKey(machines[i]);
        const size_t u = static_cast<size_t>(
            std::find(keys.begin(), keys.end(), key) - keys.begin());
        if (u == keys.size()) {
            keys.push_back(key);
            unique.push_back(machines[i]);
        }
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

    SweepReport rep;

    // Group the machines by model. replaySweep() packs a group wider
    // than perMachineWidth(); replaySweepPacked() packs every group.
    // Machines that do not fit 32-bit lanes run per machine either way.
    std::array<std::vector<size_t>, sim::kNumModelKinds> groups;
    for (size_t i = 0; i < machines.size(); ++i)
        groups[static_cast<size_t>(machines[i].model)].push_back(i);
    std::vector<std::vector<size_t>> lanes; ///< groups for the lane kernel
    std::vector<size_t> solo; ///< entries for the per-machine kernel
    for (std::vector<size_t> &group : groups) {
        bool pack = isa != LaneIsa::None;
        if (pack) {
            const auto unfit = std::stable_partition(
                group.begin(), group.end(), [&](size_t i) {
                    return laneBound(machines[i]) <= kLaneBoundMax;
                });
            rep.unfit += static_cast<size_t>(group.end() - unfit);
            solo.insert(solo.end(), unfit, group.end());
            group.erase(unfit, group.end());
        }
        if (route == SweepRoute::Dispatch && !group.empty())
            pack = pack
                   && group.size()
                          > perMachineWidth(machines[group[0]].model, threads);
        if (pack && !group.empty())
            lanes.push_back(std::move(group));
        else
            solo.insert(solo.end(), group.begin(), group.end());
    }

    // ---- 1. the memo pre-pass ----
    Memos local;
    Memos &store = memos ? *memos : local;
    MemoPass pass = planMemos(machines, store);

    // A task of the shared pool.
    struct Task
    {
        size_t rank; ///< taskRank(), for the largest-first order
        std::function<void()> run;
    };
    std::vector<Task> tasks;
    for (std::function<void()> &record : pass.recorders)
        tasks.push_back({0, std::move(record)});
    const size_t prepared = tasks.size();

    // The lanes read the trace in place.
    const SweepProgram prog(*this);

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
            tasks.push_back({0, [&, c] {
                                 fillPlane(plane, prog.memEvents,
                                           prog.controlEvents, c, chunks);
                             }});
    }
    const size_t packed = tasks.size();
    std::atomic<size_t> rebases{0};
    for (const LaneBlock &block : blocks)
        tasks.push_back({taskRank(block.lanes[0].machine->model,
                                  block.lanes.size()),
                         [&] {
                             rebases += block.kernel(prog, block, results);
                         }});

    // ---- 3. one per-machine run per other entry ----
    for (size_t i : solo)
        tasks.push_back({taskRank(machines[i].model, 0), [&, i] {
                             results[i] =
                                 runKernel(machines[i], pass.refs[i]);
                         }});
    std::stable_sort(tasks.begin() + static_cast<ptrdiff_t>(packed),
                     tasks.end(), [](const Task &a, const Task &b) {
                         return a.rank > b.rank;
                     });

    // Three pools: the memo pre-pass, the plane packing (timed for the
    // report), then every lane block and per-machine run, largest
    // first.
    const auto runTasks = [&](size_t from, size_t to) {
        parallelFor(to - from, threads,
                    [&](size_t t) { tasks[from + t].run(); });
    };
    using Clock = std::chrono::steady_clock;
    runTasks(0, prepared);
    const auto t1 = Clock::now();
    runTasks(prepared, packed);
    rep.planeWallMs =
        std::chrono::duration<double, std::milli>(Clock::now() - t1).count();
    runTasks(packed, tasks.size());
    std::move(pass.newCache.begin(), pass.newCache.end(),
              std::back_inserter(store.cache_));
    std::move(pass.newBtb.begin(), pass.newBtb.end(),
              std::back_inserter(store.btb_));

    rep.blocks = blocks.size();
    rep.planes = planes.size();
    rep.rebases = rebases.load();
    rep.perMachine = solo.size();
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
