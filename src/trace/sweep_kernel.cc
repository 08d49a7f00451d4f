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
 *     P6Params/P6PParams field except the mispredict penalty). A
 *     group of more than max(2, workers) machines advances together
 *     in ONE pass over the trace's own 6-byte records (PackedOp), read
 *     in place, one 64-bit lane per machine, in blocks of one vector register: 8 lanes per zmm on
 *     AVX-512 (a remainder of at most 4 lanes takes a ymm block), 4
 *     per ymm on AVX2 — the widest ISA the CPU runs, chosen at run
 *     time. The kernel (sweep_lanes.inc) is written once over GCC/Clang
 *     vector extensions and templated on a per-model step; every
 *     per-lane choice is a mask select, because whether a lane pairs
 *     or joins a decode group is data-dependent and a branch would
 *     mispredict constantly. Statistics with a closed form over the
 *     memos (memory penalty and mispredict cycles) leave the loop.
 *
 *  3. **Per-machine runs.** Every other machine (a narrow group, every
 *     vprofd miss) runs the memoized per-machine kernel
 *     (MaterializedTrace::runKernelImpl<Model, true>), which hands the
 *     timer both recorded outcomes through consumeResolved().
 *
 * Lane blocks and per-machine runs share one worker pool after the
 * pre-pass, largest task first. Every result is bit-identical to
 * replaySweepScalar() without memos: each lane step mirrors its model's
 * consumeResolved() exactly, exploiting only don't-care stores (fields
 * the scalar model leaves stale behind a flag may be overwritten
 * unconditionally).
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
#include <functional>
#include <iterator>
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

/** One lane-kernel task: a register of lanes, padded by repeating the
 *  first, of which the first @c real produce results. */
struct LaneBlock;
using LaneKernel = void (*)(const SweepProgram &, const LaneBlock &,
                            std::vector<profile::ProfileResult> &);
struct LaneBlock
{
    LaneKernel kernel = nullptr;
    std::vector<LaneRef> lanes;
    size_t real = 0;
};

/** W 64-bit lanes in one vector register, signed and unsigned. */
template <int W>
struct Lanes
{
    typedef int64_t V __attribute__((vector_size(8 * W)));
    typedef uint64_t U __attribute__((vector_size(8 * W)));
};

/** The mispredict penalty @p machine's model charges. */
uint64_t
mispredictPenalty(const sim::MachineConfig &machine)
{
    switch (machine.model) {
      case sim::ModelKind::P6:
        return machine.timer.p6.mispredict_penalty;
      case sim::ModelKind::P6P:
        return machine.timer.p6p.mispredict_penalty;
      case sim::ModelKind::P5:
        break;
    }
    return machine.timer.mispredict_penalty;
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
        ref.btb->stats.mispredicts * mispredictPenalty(*ref.machine);
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
#define MMXDSP_LANE_WIDE 8
#include "sweep_lanes.inc"
#undef MMXDSP_LANE_WIDE
#undef MMXDSP_LANE_TARGET
} // namespace avx512
namespace avx2 {
#define MMXDSP_LANE_TARGET "avx2"
#define MMXDSP_LANE_WIDE 4
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
std::array<uint32_t, 6>
frontEnd(const sim::MachineConfig &m)
{
    const sim::P6Params &p6 = m.timer.p6;
    const sim::P6PParams &pp = m.timer.p6p;
    switch (m.model) {
      case sim::ModelKind::P6:
        return {1, p6.decode_width, p6.complex_uops, p6.issue_width,
                p6.retire_width, 0};
      case sim::ModelKind::P6P:
        return {2, pp.decode_width, pp.complex_uops, pp.issue_width,
                pp.retire_width, pp.window};
      case sim::ModelKind::P5:
        break;
    }
    return {};
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
           && mispredictPenalty(a) == mispredictPenalty(b)
           && sameCache(ta.l1, tb.l1) && sameCache(ta.l2, tb.l2)
           && ta.penalties.l1_miss == tb.penalties.l1_miss
           && ta.penalties.l2_hit == tb.penalties.l2_hit
           && ta.penalties.l2_miss == tb.penalties.l2_miss
           && ta.btb_entries == tb.btb_entries && ta.btb_ways == tb.btb_ways;
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
                               int threads, Memos *memos) const
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
                 hostLaneIsa());

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
                            LaneIsa isa) const
{
    std::vector<profile::ProfileResult> results(machines.size());
    if (machines.empty())
        return results;

    using Clock = std::chrono::steady_clock;
    const bool dbg = std::getenv("MMXDSP_SWEEP_DEBUG") != nullptr;
    const auto t0 = Clock::now();

    // Group the machines by model and front end. The lane kernel
    // advances a group in one pass, but a lane block is one serial task
    // while per-machine passes run side by side, so replaySweep() only
    // packs a group once it holds more machines than there are workers
    // to run per-machine passes (the crossover in EXPERIMENTS.md);
    // replaySweepPacked() packs every group.
    const size_t workers = static_cast<size_t>(resolveThreads(threads));
    std::vector<std::pair<std::array<uint32_t, 6>, std::vector<size_t>>>
        groups;
    for (size_t i = 0; i < machines.size(); ++i) {
        const std::array<uint32_t, 6> key = frontEnd(machines[i]);
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
#ifdef MMXDSP_FORCE_SCALAR_SWEEP
        pack = pack && route == SweepRoute::Packed;
#endif
        if (route == SweepRoute::Dispatch)
            pack = pack && group.size() > std::max<size_t>(2, workers);
        if (pack)
            lanes.push_back(std::move(group));
        else
            solo.insert(solo.end(), group.begin(), group.end());
    }

    // ---- 1. the memo pre-pass ----
    Memos local;
    Memos &store = memos ? *memos : local;
    MemoPass pass = planMemos(machines, store);

    // A task of the shared pool, timed by kind for MMXDSP_SWEEP_DEBUG.
    enum Kind { kRecord, kLanes, kSolo, kKinds };
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

    // ---- 2. lane blocks: one register of lanes each; on AVX-512 a
    // remainder of at most 4 lanes takes a 4-lane (ymm) block ----
    const size_t wide = static_cast<size_t>(isa);
    std::vector<LaneBlock> blocks;
    std::array<size_t, sim::kNumModelKinds> lanesOf{};
    for (const std::vector<size_t> &group : lanes) {
        const sim::ModelKind model = machines[group[0]].model;
        lanesOf[static_cast<size_t>(model)] += group.size();
        for (size_t at = 0; at < group.size(); at += wide) {
            LaneBlock block;
            block.real = std::min(wide, group.size() - at);
            const size_t width = block.real <= 4 ? 4 : wide;
            block.kernel =
                laneKernel(isa, model, static_cast<int>(width));
            for (size_t k = 0; k < width; ++k) {
                const size_t i = group[at + (k < block.real ? k : 0)];
                block.lanes.push_back(LaneRef{&machines[i],
                                              pass.refs[i].cache,
                                              pass.refs[i].btb, i});
            }
            blocks.push_back(std::move(block));
        }
    }
    for (const LaneBlock &block : blocks)
        tasks.push_back({kLanes,
                         taskRank(block.lanes[0].machine->model,
                                  block.lanes.size()),
                         [&] { block.kernel(prog, block, results); }});

    // ---- 3. one per-machine run per other entry ----
    for (size_t i : solo)
        tasks.push_back({kSolo, taskRank(machines[i].model, 0), [&, i] {
                             results[i] = runKernel(machines[i],
                                                    pass.refs[i].cache,
                                                    pass.refs[i].btb);
                         }});
    std::stable_sort(tasks.begin() + static_cast<ptrdiff_t>(prepared),
                     tasks.end(), [](const Task &a, const Task &b) {
                         return a.rank > b.rank;
                     });

    // Two pools: the memo pre-pass, then every lane block and
    // per-machine run, largest first.
    std::array<std::atomic<int64_t>, kKinds> taskNs{};
    const auto runTasks = [&](size_t from, size_t to) {
        parallelFor(to - from, threads, [&](size_t t) {
            const Task &task = tasks[from + t];
            const auto s0 = dbg ? Clock::now() : Clock::time_point{};
            task.run();
            if (dbg)
                taskNs[task.kind] +=
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - s0)
                        .count();
        });
    };
    runTasks(0, prepared);
    const auto t1 = Clock::now();
    runTasks(prepared, tasks.size());
    std::move(pass.newCache.begin(), pass.newCache.end(),
              std::back_inserter(store.cache_));
    std::move(pass.newBtb.begin(), pass.newBtb.end(),
              std::back_inserter(store.btb_));

    if (dbg) {
        // Phase times are summed over the workers; the two walls are
        // the pre-pass pool's and the timing pool's.
        const auto ms = [&](Kind kind) { return taskNs[kind].load() / 1e6; };
        const auto wall = [](Clock::time_point a, Clock::time_point b) {
            return std::chrono::duration<double, std::milli>(b - a).count();
        };
        std::fprintf(
            stderr,
            "[sweep] memo pre-pass(%zu recorded, %zu reused) %.2fms "
            "(pre-pass wall %.2fms) lanes(%s: p5 %zu, p6 %zu, "
            "p6p %zu in %zu blocks) %.2fms per-machine(%zu) %.2fms "
            "(wall %.2fms)\n",
            pass.newCache.size() + pass.newBtb.size(), pass.reused,
            ms(kRecord), wall(t0, t1),
            blocks.empty() ? "none" : laneIsaName(isa), lanesOf[0],
            lanesOf[1], lanesOf[2], blocks.size(), ms(kLanes), solo.size(),
            ms(kSolo), wall(t1, Clock::now()));
    }
    return results;
}

std::vector<profile::ProfileResult>
MaterializedTrace::replaySweepPacked(
    const std::vector<sim::MachineConfig> &machines, int threads,
    LaneIsa isa) const
{
    if (static_cast<int>(isa) > static_cast<int>(hostLaneIsa()))
        mmxdsp_panic("lane ISA %s not supported by this CPU",
                     laneIsaName(isa));
    return runSweep(machines, threads, nullptr, SweepRoute::Packed, isa);
}

} // namespace mmxdsp::trace
