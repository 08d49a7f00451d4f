/**
 * @file
 * The config-parallel sweep kernel behind
 * MaterializedTrace::replaySweepPacked().
 *
 * A scalar sweep times N configurations with N passes over the trace,
 * and each pass re-simulates structures whose behaviour most
 * configurations share: the cache tag arrays (identical for every
 * config with the same geometry, regardless of penalties) and the BTB
 * (identical for every config with the same entry count). Once decode
 * is amortized by MaterializedTrace, that per-config timing pass is the
 * sweep's Amdahl bound. This kernel breaks it with two composable
 * pieces:
 *
 *  1. **Per-geometry memos.** For each unique (L1, L2) cache geometry
 *     the hierarchy is simulated once over just the memory events,
 *     recording a penalty *class* (L1 hit / L2 hit / L2 miss) per
 *     access plus the final hit/miss statistics
 *     (mem::MemoryHierarchy::accessClass). For each unique BTB
 *     geometry the predictor runs once over just the control events,
 *     recording a mispredict bitvector. Member configs' timing loops
 *     become pure table math — no tag arrays, no LRU, no counters.
 *
 *  2. **A lane-packed timing loop.** All configurations advance
 *     together in ONE pass over the trace, one lane per config, with
 *     lane-major state (scoreboard rows hold one cycle count per lane,
 *     so the same-register gather/scatter is a contiguous vector) and
 *     mask-select per-lane updates in the style of mmx_swar.hh. The
 *     selects are arithmetic (x ^ ((x ^ y) & mask)) rather than
 *     ternaries on purpose: whether a lane pairs/joins is data-dependent
 *     and effectively random, so a compiled branch would mispredict
 *     constantly — the only branches left are on config-independent
 *     event facts, identical for every lane and perfectly predicted.
 *     The kernels are templated on the lane count: with L a constant
 *     the lane loops fully unroll, the per-lane state lives in
 *     registers and known stack slots instead of aliasing-hostile heap
 *     vectors, and the compiler can schedule the independent lanes
 *     across the event-to-event dependency chains that bound the
 *     scalar timer. Everything config-independent (pairing class,
 *     decode classification, uop count, latency) is hoisted into a
 *     PackedOp stream computed once per event; statistics with a
 *     closed form over the memos (memory penalty cycles, mispredict
 *     cycles, P5 blocking cycles, P6 uops) are hoisted out of the loop
 *     entirely; and per-function cycle attribution telescopes —
 *     per-event costs are deltas of the lane clock, so one subtraction
 *     per same-function run replaces a read-modify-write per event.
 *
 * The P5 (U/V pairing), P6 (4-1-1 decode-group), and P6P (issue-port)
 * machines all have lane kernels; a mixed sweep runs one block per
 * model, still a handful of passes instead of N. Every result is
 * bit-identical to replaySweepScalar() — the per-lane state machines
 * mirror PentiumTimer / P6Timer / P6PTimer ::consumeResolved
 * exactly, exploiting only don't-care stores (fields the scalar model
 * leaves stale behind an invalid flag may be overwritten
 * unconditionally). The port model's extra per-event inputs (uop→port
 * binding, ALU uop count) are config-independent facts of the
 * sim::UopDesc table, carried in a one-byte side stream next to the
 * PackedOp; its per-uop dispatch loop has a config-independent trip
 * count, so the lane loops stay branchless.
 */

#include "materialize.hh"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <utility>

#include "mem/btb.hh"
#include "mem/cache.hh"
#include "sim/p6_timer.hh"
#include "sim/uop.hh"
#include "support/parallel.hh"

#if defined(__clang__)
#define MMXDSP_LANE_UNROLL _Pragma("unroll")
#elif defined(__GNUC__)
#define MMXDSP_LANE_UNROLL _Pragma("GCC unroll 16")
#else
#define MMXDSP_LANE_UNROLL
#endif

// The AVX2 lane kernel is compiled with a per-function target attribute
// (the build stays baseline x86-64) and selected at runtime with
// __builtin_cpu_supports; the mask-select kernels below remain the
// portable fallback and the reference for non-multiple-of-4 blocks.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define MMXDSP_SWEEP_AVX2 1
#include <immintrin.h>
#else
#define MMXDSP_SWEEP_AVX2 0
#endif

namespace mmxdsp::trace {

namespace {

/** Max configurations advanced per pass: keeps the lane-major working
 *  set (scoreboard = 256 rows x 8 bytes x lanes) inside L2. */
constexpr size_t kMaxLanes = 16;

/** Bit layout of PackedOp::flags. The low three bits double as the
 *  P5 intra-pair structural-hazard signature: an op conflicts with the
 *  open U-pipe op iff (flags & uHaz & 7) != 0. */
enum : uint8_t {
    kOpMem = 1 << 0,      ///< references memory (one access per event)
    kOpMmxMul = 1 << 1,   ///< occupies the single MMX multiplier
    kOpMmxShift = 1 << 2, ///< occupies the single MMX shifter
    kOpPairPV = 1 << 3,   ///< may issue in V: (UV|PV) and 1-cycle
    kOpPairUP = 1 << 4,   ///< may open a pair in U: (UV|PU) and 1-cycle
    kOpControl = 1 << 5,  ///< consumes one mispredict-memo bit
    kOpCallRet = 1 << 6,  ///< cycles attributed to call/ret
    kOpOverhead = 1 << 7, ///< cycles attributed to call overhead
};

/**
 * Everything the lane loops need per event, none of it depending on
 * the configuration: one 8-byte record instead of re-deriving these
 * facts from the op tables once per event *per config*.
 */
struct PackedOp
{
    uint8_t flags;    ///< see the enum above
    uint8_t blocking; ///< P5 issue-blocking cycles
    uint8_t latP5;    ///< P5 result latency
    uint8_t latP6;    ///< P6 result latency (pipelined imul/mul)
    uint8_t src0, src1, dst;
    uint8_t uops; ///< P6 decode template size for this op+mem form
};
static_assert(sizeof(PackedOp) == 8);

/** A maximal run of consecutive events owned by one function: the unit
 *  of cycle attribution (per-event costs telescope across a run). */
struct FnRun
{
    uint32_t count;
    uint32_t fnId;
};

/**
 * The hoisted, shared form of one trace: the PackedOp stream plus
 * dense side streams for the memo builders (memory events and control
 * events only), the function-run list, and the statistics that have a
 * closed form.
 */
/** Bit layout of the P6P side stream (one byte per event): the uop→port
 *  binding facts of the sim::UopDesc table, consumed only by the port
 *  lane kernel so the shared PackedOp stays 8 bytes. */
enum : uint8_t {
    kPortAluMask = 0x0f, ///< UopDesc::aluUops (compute uops to bind)
    kPortClassShift = 4, ///< bits 4-5: sim::PortClass
    kPortClassMask = 0x30,
    kPortLoad = 1 << 6,  ///< has a load uop (port 2)
    kPortStore = 1 << 7, ///< has a store-addr/store-data pair (p3+p4)
};

struct SweepProgram
{
    size_t n = 0;
    std::vector<PackedOp> ops;
    /** P6P port-binding facts, parallel to ops (see kPort* above). */
    std::vector<uint8_t> portInfo;
    std::vector<FnRun> runs;
    // Dense memory-event stream (inputs of the cache-geometry memos).
    std::vector<uint64_t> memAddr;
    std::vector<uint8_t> memSize;
    std::vector<uint8_t> memStore;
    // Dense control-event stream (inputs of the BTB-geometry memos).
    std::vector<uint32_t> ctlSite;
    std::vector<uint8_t> ctlTaken;
    /** Hoisted P5 blockingExtraCycles: sum of (blocking - 1). Blocking
     *  ops never pair, so this total is configuration-independent. */
    uint64_t blockingExtraP5 = 0;
    // Result-assembly context borrowed from the MaterializedTrace.
    const profile::ProfileResult *counts = nullptr;
    const std::vector<std::string> *fnNames = nullptr;
    const std::vector<profile::FunctionStats> *fnCounts = nullptr;
};

/**
 * One L1-geometry memo: the stream of line probes the L2 will see.
 * The L1 filters the reference stream, so everything downstream of it
 * — including which lines reach the L2, in what order — depends only
 * on the L1 geometry. Sharing this across every (L1, L2) combination
 * turns the per-combination work into a pass over just the L1 misses.
 */
struct L1GeoMemo
{
    std::vector<uint8_t> missCount; ///< missed lines per event (0..2)
    std::vector<uint64_t> missAddr; ///< per missed line, in probe order
    std::vector<uint8_t> missWrite;
    mem::CacheStats l1;
};

L1GeoMemo
buildL1Memo(const mem::CacheConfig &cfg, const SweepProgram &prog)
{
    L1GeoMemo memo;
    const size_t m = prog.memAddr.size();
    memo.missCount.resize(m);
    // Geometry-only simulation: penalties do not influence tag-array
    // behaviour, so one miss stream serves every penalty set.
    mem::Cache l1(cfg);
    const uint32_t shift = l1.lineShift();
    for (size_t j = 0; j < m; ++j) {
        const uint64_t addr = prog.memAddr[j];
        const uint32_t size = prog.memSize[j];
        const bool w = prog.memStore[j] != 0;
        // Mirrors MemoryHierarchy::accessClass(): line-straddling
        // accesses probe both lines, first line under its full address.
        const uint64_t first = addr >> shift;
        const uint64_t last = (addr + (size ? size - 1 : 0)) >> shift;
        uint8_t mc = 0;
        if (!l1.access(addr, w)) {
            memo.missAddr.push_back(addr);
            memo.missWrite.push_back(w);
            ++mc;
        }
        if (last != first && !l1.access(last << shift, w)) {
            memo.missAddr.push_back(last << shift);
            memo.missWrite.push_back(w);
            ++mc;
        }
        memo.missCount[j] = mc;
    }
    memo.l1 = l1.stats();
    return memo;
}

CacheMemo
buildMemMemo(const L1GeoMemo &l1m, const mem::CacheConfig &l2cfg,
             const SweepProgram &prog)
{
    CacheMemo memo;
    const size_t m = prog.memAddr.size();
    memo.cls.resize(m);
    mem::Cache l2(l2cfg);
    const size_t nMiss = l1m.missAddr.size();
    std::vector<uint8_t> l2cls(nMiss);
    for (size_t k = 0; k < nMiss; ++k)
        l2cls[k] = l2.access(l1m.missAddr[k], l1m.missWrite[k] != 0)
                       ? uint8_t{1}
                       : uint8_t{2};
    // Recombine per event: an L1 hit is class 0; a straddling access
    // takes the max class of its lines (class order matches penalty
    // order — Penalties::ofClass is monotone).
    size_t k = 0;
    for (size_t j = 0; j < m; ++j) {
        const uint8_t mc = l1m.missCount[j];
        uint8_t c = 0;
        if (mc) {
            c = l2cls[k];
            if (mc == 2)
                c = std::max(c, l2cls[k + 1]);
            k += mc;
        }
        memo.cls[j] = c;
        memo.l2Served += c == 1;
        memo.l2Missed += c == 2;
    }
    memo.l1 = l1m.l1;
    memo.l2 = l2.stats();
    return memo;
}

BtbMemo
recordBtbMemo(uint32_t entries, uint32_t ways, const SweepProgram &prog)
{
    BtbMemo memo;
    const size_t m = prog.ctlSite.size();
    memo.bits.assign((m + 63) / 64, 0);
    mem::Btb btb(entries, ways);
    for (size_t j = 0; j < m; ++j)
        if (btb.predict(prog.ctlSite[j], prog.ctlTaken[j] != 0))
            memo.bits[j >> 6] |= uint64_t{1} << (j & 63);
    memo.stats = btb.stats();
    return memo;
}

/** One sweep entry bound to its shared memos and its result slot. */
struct LaneRef
{
    const sim::MachineConfig *machine = nullptr;
    const CacheMemo *mem = nullptr;
    const BtbMemo *btb = nullptr;
    size_t resultIndex = 0;
};

/** branchless select: mask ? a : b, with mask all-ones or all-zero. */
inline uint64_t
sel(uint64_t mask, uint64_t a, uint64_t b)
{
    return b ^ ((b ^ a) & mask);
}

/**
 * Build one lane's ProfileResult from the config-independent template,
 * its loop-carried counters, and the closed-form memo totals.
 */
profile::ProfileResult
assembleLane(const SweepProgram &prog, const LaneRef &ref, uint64_t cycles,
             uint64_t pairs, uint64_t dependStall, uint64_t blockingExtra,
             uint64_t retireStall, uint64_t portStall, uint64_t uopsIssued,
             uint64_t callRet, uint64_t overhead, const uint64_t *fnCycles,
             size_t stride, size_t lane, uint64_t mispredictPenalty)
{
    profile::ProfileResult r = *prog.counts;
    r.cycles = cycles;
    r.callRetCycles = callRet;
    r.callOverheadCycles = overhead;
    r.timer.instructions = prog.n;
    r.timer.pairs = pairs;
    r.timer.dependStallCycles = dependStall;
    r.timer.blockingExtraCycles = blockingExtra;
    r.timer.retireStallCycles = retireStall;
    r.timer.portStallCycles = portStall;
    r.timer.uopsIssued = uopsIssued;
    const mem::MemoryHierarchy::Penalties &pen =
        ref.machine->timer.penalties;
    r.timer.memPenaltyCycles = ref.mem->l2Served * pen.ofClass(1)
                               + ref.mem->l2Missed * pen.ofClass(2);
    r.timer.mispredictCycles =
        ref.btb->stats.mispredicts * mispredictPenalty;
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

/**
 * The P5 lane kernel: PentiumTimer::consumeResolved() with the
 * state held lane-major and every per-lane decision a mask select.
 * Stale uSlot fields are overwritten unconditionally — the scalar
 * model only reads them behind uSlot_.valid, and every path that sets
 * valid also rewrites them. L is the compile-time lane count; the
 * scoreboard row isa::kNoReg is the sentinel: never written, reads as
 * "ready at 0".
 */
template <size_t L>
void
runP5BlockT(const SweepProgram &prog, const std::vector<LaneRef> &lanes,
            std::vector<profile::ProfileResult> &results)
{
    // Per-lane constants resolved from the configs and memos.
    const uint8_t *cls[L];
    const uint64_t *mpBits[L];
    uint64_t penByClass[L * 3] = {};
    uint64_t mpPen[L];
    for (size_t l = 0; l < L; ++l) {
        const sim::TimerConfig &tc = lanes[l].machine->timer;
        penByClass[l * 3 + 1] = tc.penalties.ofClass(1);
        penByClass[l * 3 + 2] = tc.penalties.ofClass(2);
        mpPen[l] = tc.mispredict_penalty;
        cls[l] = lanes[l].mem->cls.data();
        mpBits[l] = lanes[l].btb->bits.data();
    }

    std::vector<uint64_t> fnCyclesV(prog.fnNames->size() * L, 0);
    uint64_t *__restrict fnCycles = fnCyclesV.data();

    alignas(64) uint64_t ready[256 * L] = {};
    uint64_t nextIssue[L] = {}, mark[L] = {}, prev[L] = {};
    uint64_t callRetA[L] = {}, overheadA[L] = {};
    uint64_t uCycle[L] = {};
    uint64_t pairsN[L] = {}, dependStall[L] = {};
    // The U-slot tag fields (which op opened the pair) are rewritten
    // every event in the scalar model, so at event i they always
    // describe event i-1: shared scalars, not lane state. Only the
    // valid bits diverge per lane; they live in one register-resident
    // bitmask.
    uint32_t uValidMask = 0;
    uint64_t prevHaz = 0;
    uint64_t prevDst = isa::kNoReg;

    const PackedOp *__restrict ops = prog.ops.data();
    size_t memIdx = 0;
    size_t branchIdx = 0;
    size_t i = 0;

    for (const FnRun &run : prog.runs) {
        for (const size_t runEnd = i + run.count; i < runEnd; ++i) {
            const PackedOp po = ops[i];
            const uint32_t f = po.flags;

            const uint64_t pairUP = (f >> 4) & 1;
            const uint64_t haz = f & 7;
            const uint64_t s0 = po.src0;
            const uint64_t s1 = po.src1;
            const uint64_t d = po.dst;
            const uint64_t lat = po.latP5;
            const uint64_t blk = po.blocking;
            // canPairInV()'s structural and dependence legs against the
            // previous event's op: identical for every lane.
            const uint64_t depOk =
                uint64_t{prevDst == isa::kNoReg
                         || (s0 != prevDst && s1 != prevDst
                             && d != prevDst)};
            const uint64_t pairOkEvt = ((f >> 3) & 1) & depOk
                                       & uint64_t{(haz & prevHaz) == 0};
            const uint64_t *__restrict r0 = ready + s0 * L;
            const uint64_t *__restrict r1 = ready + s1 * L;
            uint64_t *__restrict rd = ready + d * L;
            const uint64_t dMask =
                uint64_t{0} - uint64_t{d != isa::kNoReg};
            uint32_t newMask = 0;

            if ((f
                 & (kOpMem | kOpControl | kOpCallRet | kOpOverhead))
                == 0) {
                // Fast variant: no memory penalty, no mispredict, no
                // cost attribution — the overwhelmingly common event.
                MMXDSP_LANE_UNROLL
                for (size_t l = 0; l < L; ++l) {
                    const uint64_t rs0 = r0[l];
                    const uint64_t rs1 = r1[l];
                    const uint64_t rdy = rs0 > rs1 ? rs0 : rs1;
                    const uint64_t ni = nextIssue[l];
                    const uint64_t uc = uCycle[l];
                    const uint64_t canPair = ((uValidMask >> l) & 1)
                                             & pairOkEvt
                                             & uint64_t{rdy <= uc};
                    const uint64_t pairM = uint64_t{0} - canPair;
                    const uint64_t issueN = ni > rdy ? ni : rdy;
                    const uint64_t issue = sel(pairM, uc, issueN);
                    pairsN[l] += canPair;
                    dependStall[l] += (issueN - ni) & ~pairM;
                    nextIssue[l] = sel(pairM, ni, issueN + blk);
                    newMask |= static_cast<uint32_t>(
                        pairUP & (canPair ^ 1))
                               << l;
                    uCycle[l] = issueN;
                    rd[l] = sel(dMask, issue + lat, rd[l]);
                }
            } else {
                // Per-lane inputs for this event, resolved from the
                // lane's memos. These branches are config-independent.
                uint64_t pen[L] = {};
                uint64_t mp[L] = {};
                if (f & kOpMem) {
                    MMXDSP_LANE_UNROLL
                    for (size_t l = 0; l < L; ++l)
                        pen[l] = penByClass[l * 3 + cls[l][memIdx]];
                    ++memIdx;
                }
                if (f & kOpControl) {
                    const size_t w = branchIdx >> 6;
                    const unsigned b = branchIdx & 63;
                    MMXDSP_LANE_UNROLL
                    for (size_t l = 0; l < L; ++l)
                        mp[l] = (mpBits[l][w] >> b) & 1;
                    ++branchIdx;
                }
                const bool flagged =
                    (f & (kOpCallRet | kOpOverhead)) != 0;
                if (flagged)
                    std::memcpy(prev, nextIssue, sizeof(prev));

                MMXDSP_LANE_UNROLL
                for (size_t l = 0; l < L; ++l) {
                    const uint64_t rs0 = r0[l];
                    const uint64_t rs1 = r1[l];
                    const uint64_t rdy = rs0 > rs1 ? rs0 : rs1;
                    const uint64_t ni = nextIssue[l];
                    const uint64_t uc = uCycle[l];
                    const uint64_t freeOk =
                        uint64_t{(pen[l] | mp[l]) == 0};
                    const uint64_t canPair = ((uValidMask >> l) & 1)
                                             & pairOkEvt & freeOk
                                             & uint64_t{rdy <= uc};
                    const uint64_t pairM = uint64_t{0} - canPair;
                    const uint64_t issueN = ni > rdy ? ni : rdy;
                    const uint64_t issue = sel(pairM, uc, issueN);
                    pairsN[l] += canPair;
                    dependStall[l] += (issueN - ni) & ~pairM;
                    uint64_t nn = sel(pairM, ni, issueN + blk + pen[l]);
                    nn += mp[l] * mpPen[l];
                    newMask |= static_cast<uint32_t>(
                        pairUP & freeOk & (canPair ^ 1))
                               << l;
                    uCycle[l] = issueN;
                    nextIssue[l] = nn;
                    rd[l] = sel(dMask, issue + lat + pen[l], rd[l]);
                }

                if (flagged) {
                    const uint64_t crM =
                        uint64_t{0} - uint64_t{(f & kOpCallRet) != 0};
                    const uint64_t ovM =
                        uint64_t{0} - uint64_t{(f & kOpOverhead) != 0};
                    MMXDSP_LANE_UNROLL
                    for (size_t l = 0; l < L; ++l) {
                        const uint64_t cost = nextIssue[l] - prev[l];
                        callRetA[l] += cost & crM;
                        overheadA[l] += cost & ovM;
                    }
                }
            }
            uValidMask = newMask;
            prevHaz = haz;
            prevDst = d;
        }
        // Close the run: costs telescope, so the run's cycles are one
        // clock delta per lane instead of an add per event.
        uint64_t *__restrict row = fnCycles + size_t{run.fnId} * L;
        MMXDSP_LANE_UNROLL
        for (size_t l = 0; l < L; ++l) {
            row[l] += nextIssue[l] - mark[l];
            mark[l] = nextIssue[l];
        }
    }

    for (size_t l = 0; l < L; ++l)
        results[lanes[l].resultIndex] = assembleLane(
            prog, lanes[l], nextIssue[l], pairsN[l], dependStall[l],
            prog.blockingExtraP5, 0, 0, 0, callRetA[l], overheadA[l],
            fnCycles, L, l, mpPen[l]);
}

/**
 * The P6 lane kernel: P6Timer::consumeResolved() lane-major.
 * Same don't-care-store discipline — group fields are only read while
 * slotsLeft > 0, and every path that makes slotsLeft nonzero rewrites
 * them. The retirement floor (retiredUops / retire_width, on a shared
 * uop prefix) is maintained incrementally per lane so the loop divides
 * a small remainder instead of a 64-bit counter.
 */
template <size_t L>
void
runP6BlockT(const SweepProgram &prog, const std::vector<LaneRef> &lanes,
            std::vector<profile::ProfileResult> &results)
{
    const uint8_t *cls[L];
    const uint64_t *mpBits[L];
    uint64_t penByClass[L * 3] = {};
    uint64_t mpPen[L], decodeW[L], issueW[L], retireW[L];
    std::vector<uint64_t> occupyTabV(L * 256);
    uint64_t *__restrict occupyTab = occupyTabV.data();
    for (size_t l = 0; l < L; ++l) {
        const sim::TimerConfig &tc = lanes[l].machine->timer;
        const sim::P6Params &p6 = tc.p6;
        penByClass[l * 3 + 1] = tc.penalties.ofClass(1);
        penByClass[l * 3 + 2] = tc.penalties.ofClass(2);
        mpPen[l] = p6.mispredict_penalty;
        decodeW[l] = p6.decode_width;
        issueW[l] = p6.issue_width;
        retireW[l] = p6.retire_width;
        cls[l] = lanes[l].mem->cls.data();
        mpBits[l] = lanes[l].btb->bits.data();
        // Combined decode classification per possible uop count: the
        // group-occupancy cycles, a joinable bit (fits the complex
        // decoder's template), and a simple bit (uops <= 1).
        for (size_t u = 0; u < 256; ++u) {
            const uint64_t occupy =
                (u + p6.issue_width - 1) / p6.issue_width;
            const uint64_t fits = u <= p6.complex_uops;
            const uint64_t simple = u <= 1;
            occupyTab[l * 256 + u] = occupy | (fits << 32) | (simple << 33);
        }
    }

    std::vector<uint64_t> fnCyclesV(prog.fnNames->size() * L, 0);
    uint64_t *__restrict fnCycles = fnCyclesV.data();

    alignas(64) uint64_t ready[256 * L] = {};
    uint64_t timeL[L] = {}, mark[L] = {}, prev[L] = {};
    uint64_t callRetA[L] = {}, overheadA[L] = {};
    uint64_t groupCycle[L] = {}, complexFree[L], retFloor[L] = {};
    uint64_t slotsLeft[L] = {}, uopsLeft[L] = {}, retRem[L] = {};
    uint64_t joined[L] = {}, dependStall[L] = {}, retireStall[L] = {};
    uint64_t blockingExtra[L] = {};
    for (size_t l = 0; l < L; ++l)
        complexFree[l] = 1;

    const PackedOp *__restrict ops = prog.ops.data();
    size_t memIdx = 0;
    size_t branchIdx = 0;
    size_t i = 0;

    for (const FnRun &run : prog.runs) {
        for (const size_t runEnd = i + run.count; i < runEnd; ++i) {
            const PackedOp po = ops[i];
            const uint32_t f = po.flags;

            uint64_t pen[L] = {};
            uint64_t mp[L] = {};
            if (f & kOpMem) {
                MMXDSP_LANE_UNROLL
                for (size_t l = 0; l < L; ++l)
                    pen[l] = penByClass[l * 3 + cls[l][memIdx]];
                ++memIdx;
            }
            if (f & kOpControl) {
                const size_t w = branchIdx >> 6;
                const unsigned b = branchIdx & 63;
                MMXDSP_LANE_UNROLL
                for (size_t l = 0; l < L; ++l)
                    mp[l] = (mpBits[l][w] >> b) & 1;
                ++branchIdx;
            }
            const bool flagged = (f & (kOpCallRet | kOpOverhead)) != 0;
            if (flagged)
                std::memcpy(prev, timeL, sizeof(prev));

            const uint64_t uops = po.uops;
            const uint64_t lat = po.latP6;
            const uint64_t s0 = po.src0;
            const uint64_t s1 = po.src1;
            const uint64_t d = po.dst;
            const uint64_t *__restrict r0 = ready + s0 * L;
            const uint64_t *__restrict r1 = ready + s1 * L;
            uint64_t *__restrict rd = ready + d * L;
            const uint64_t dMask =
                uint64_t{0} - uint64_t{d != isa::kNoReg};

            MMXDSP_LANE_UNROLL
            for (size_t l = 0; l < L; ++l) {
                const uint64_t rs0 = r0[l];
                const uint64_t rs1 = r1[l];
                const uint64_t rdy = rs0 > rs1 ? rs0 : rs1;
                const uint64_t t = timeL[l];
                const uint64_t tab = occupyTab[l * 256 + uops];
                const uint64_t occupy = tab & 0xffffffffu;
                const uint64_t fits = (tab >> 32) & 1;
                const uint64_t simple = (tab >> 33) & 1;

                const uint64_t freeOk = uint64_t{(pen[l] | mp[l]) == 0};
                const uint64_t canJoin =
                    uint64_t{slotsLeft[l] > 0}
                    & uint64_t{static_cast<int64_t>(uopsLeft[l])
                               >= static_cast<int64_t>(uops)}
                    & (simple | complexFree[l]) & fits
                    & uint64_t{rdy <= groupCycle[l]} & freeOk;
                const uint64_t jm = uint64_t{0} - canJoin;

                // Open-group side, computed unconditionally, masked in.
                const uint64_t rf = retFloor[l];
                const uint64_t at0 = t > rf ? t : rf;
                const uint64_t at = at0 > rdy ? at0 : rdy;
                const uint64_t open = uint64_t{occupy == 1} & freeOk;

                const uint64_t issue = sel(jm, groupCycle[l], at);
                uint64_t newTime = sel(jm, t, at + occupy + pen[l]);
                newTime += mp[l] * mpPen[l];
                joined[l] += canJoin;
                retireStall[l] += (at0 - t) & ~jm;
                dependStall[l] += (at - at0) & ~jm;
                blockingExtra[l] += (occupy - 1) & ~jm;
                // open ? decode_width-1 : 0; a mispredict forces 0.
                const uint64_t slotsOpen =
                    (decodeW[l] - 1) & (uint64_t{0} - open);
                slotsLeft[l] =
                    sel(jm, slotsLeft[l] - 1, slotsOpen) & (mp[l] - 1);
                uopsLeft[l] = sel(jm, uopsLeft[l] - uops, issueW[l] - uops);
                complexFree[l] = simple & (complexFree[l] | (canJoin ^ 1));
                groupCycle[l] = issue;

                // Small-operand division: rr < retire_width + 255.
                const uint32_t rr = static_cast<uint32_t>(retRem[l] + uops);
                const uint32_t rw = static_cast<uint32_t>(retireW[l]);
                retFloor[l] += rr / rw;
                retRem[l] = rr % rw;

                rd[l] = sel(dMask, issue + lat + pen[l], rd[l]);
                timeL[l] = newTime;
            }

            if (flagged) {
                const uint64_t crM =
                    uint64_t{0} - uint64_t{(f & kOpCallRet) != 0};
                const uint64_t ovM =
                    uint64_t{0} - uint64_t{(f & kOpOverhead) != 0};
                MMXDSP_LANE_UNROLL
                for (size_t l = 0; l < L; ++l) {
                    const uint64_t cost = timeL[l] - prev[l];
                    callRetA[l] += cost & crM;
                    overheadA[l] += cost & ovM;
                }
            }
        }
        uint64_t *__restrict row = fnCycles + size_t{run.fnId} * L;
        MMXDSP_LANE_UNROLL
        for (size_t l = 0; l < L; ++l) {
            row[l] += timeL[l] - mark[l];
            mark[l] = timeL[l];
        }
    }

    for (size_t l = 0; l < L; ++l)
        results[lanes[l].resultIndex] = assembleLane(
            prog, lanes[l], timeL[l], joined[l], dependStall[l],
            blockingExtra[l], retireStall[l], 0, prog.counts->uops,
            callRetA[l], overheadA[l], fnCycles, L, l, mpPen[l]);
}

/**
 * The P6P lane kernel: P6PTimer::consumeResolved() lane-major.
 * The decode-group half is the P6 kernel with one extra floor (decode
 * may run at most `window` cycles ahead of the latest port dispatch);
 * the dispatch half binds each uop to a single-issue port. Which ports
 * an event needs (load / store pair / N compute uops on p0, p1, or
 * either) is a config-independent fact of the UopDesc table carried in
 * the portInfo side stream, so every per-event branch below is shared
 * by all lanes; only the either-port choice is per-lane data, handled
 * with a mask select.
 */
template <size_t L>
void
runP6PBlockT(const SweepProgram &prog, const std::vector<LaneRef> &lanes,
             std::vector<profile::ProfileResult> &results)
{
    const uint8_t *cls[L];
    const uint64_t *mpBits[L];
    uint64_t penByClass[L * 3] = {};
    uint64_t mpPen[L], decodeW[L], issueW[L], retireW[L], windowW[L];
    std::vector<uint64_t> occupyTabV(L * 256);
    uint64_t *__restrict occupyTab = occupyTabV.data();
    for (size_t l = 0; l < L; ++l) {
        const sim::TimerConfig &tc = lanes[l].machine->timer;
        const sim::P6PParams &pp = tc.p6p;
        penByClass[l * 3 + 1] = tc.penalties.ofClass(1);
        penByClass[l * 3 + 2] = tc.penalties.ofClass(2);
        mpPen[l] = pp.mispredict_penalty;
        decodeW[l] = pp.decode_width;
        issueW[l] = pp.issue_width;
        retireW[l] = pp.retire_width;
        windowW[l] = pp.window;
        cls[l] = lanes[l].mem->cls.data();
        mpBits[l] = lanes[l].btb->bits.data();
        for (size_t u = 0; u < 256; ++u) {
            const uint64_t occupy =
                (u + pp.issue_width - 1) / pp.issue_width;
            const uint64_t fits = u <= pp.complex_uops;
            const uint64_t simple = u <= 1;
            occupyTab[l * 256 + u] = occupy | (fits << 32) | (simple << 33);
        }
    }

    std::vector<uint64_t> fnCyclesV(prog.fnNames->size() * L, 0);
    uint64_t *__restrict fnCycles = fnCyclesV.data();

    alignas(64) uint64_t ready[256 * L] = {};
    uint64_t timeL[L] = {}, mark[L] = {}, prev[L] = {};
    uint64_t callRetA[L] = {}, overheadA[L] = {};
    uint64_t groupCycle[L] = {}, complexFree[L], retFloor[L] = {};
    uint64_t slotsLeft[L] = {}, uopsLeft[L] = {}, retRem[L] = {};
    uint64_t joined[L] = {}, dependStall[L] = {}, retireStall[L] = {};
    uint64_t blockingExtra[L] = {}, portStall[L] = {};
    // The five single-issue port clocks plus the window anchor.
    uint64_t portFree[5][L] = {};
    uint64_t lastDisp[L] = {};
    uint64_t issueA[L];
    for (size_t l = 0; l < L; ++l)
        complexFree[l] = 1;

    /** One uop onto a fixed port, per lane. */
    const auto disp = [&](uint64_t *__restrict port, size_t l) {
        const uint64_t at =
            issueA[l] > port[l] ? issueA[l] : port[l];
        port[l] = at + 1;
        if (at > lastDisp[l])
            lastDisp[l] = at;
    };

    const PackedOp *__restrict ops = prog.ops.data();
    const uint8_t *__restrict ports = prog.portInfo.data();
    size_t memIdx = 0;
    size_t branchIdx = 0;
    size_t i = 0;

    for (const FnRun &run : prog.runs) {
        for (const size_t runEnd = i + run.count; i < runEnd; ++i) {
            const PackedOp po = ops[i];
            const uint32_t f = po.flags;
            const uint32_t pi = ports[i];

            uint64_t pen[L] = {};
            uint64_t mp[L] = {};
            if (f & kOpMem) {
                MMXDSP_LANE_UNROLL
                for (size_t l = 0; l < L; ++l)
                    pen[l] = penByClass[l * 3 + cls[l][memIdx]];
                ++memIdx;
            }
            if (f & kOpControl) {
                const size_t w = branchIdx >> 6;
                const unsigned b = branchIdx & 63;
                MMXDSP_LANE_UNROLL
                for (size_t l = 0; l < L; ++l)
                    mp[l] = (mpBits[l][w] >> b) & 1;
                ++branchIdx;
            }
            const bool flagged = (f & (kOpCallRet | kOpOverhead)) != 0;
            if (flagged)
                std::memcpy(prev, timeL, sizeof(prev));

            const uint64_t uops = po.uops;
            const uint64_t lat = po.latP6;
            const uint64_t s0 = po.src0;
            const uint64_t s1 = po.src1;
            const uint64_t d = po.dst;
            const uint64_t *__restrict r0 = ready + s0 * L;
            const uint64_t *__restrict r1 = ready + s1 * L;
            uint64_t *__restrict rd = ready + d * L;
            const uint64_t dMask =
                uint64_t{0} - uint64_t{d != isa::kNoReg};

            MMXDSP_LANE_UNROLL
            for (size_t l = 0; l < L; ++l) {
                const uint64_t rs0 = r0[l];
                const uint64_t rs1 = r1[l];
                const uint64_t rdy = rs0 > rs1 ? rs0 : rs1;
                const uint64_t t = timeL[l];
                const uint64_t tab = occupyTab[l * 256 + uops];
                const uint64_t occupy = tab & 0xffffffffu;
                const uint64_t fits = (tab >> 32) & 1;
                const uint64_t simple = (tab >> 33) & 1;

                const uint64_t freeOk = uint64_t{(pen[l] | mp[l]) == 0};
                const uint64_t canJoin =
                    uint64_t{slotsLeft[l] > 0}
                    & uint64_t{static_cast<int64_t>(uopsLeft[l])
                               >= static_cast<int64_t>(uops)}
                    & (simple | complexFree[l]) & fits
                    & uint64_t{rdy <= groupCycle[l]} & freeOk;
                const uint64_t jm = uint64_t{0} - canJoin;

                // Open-group floors: retirement, operands, and the
                // port-dispatch window, in the scalar model's order.
                const uint64_t rf = retFloor[l];
                const uint64_t ld = lastDisp[l];
                const uint64_t w = windowW[l];
                const uint64_t pf = ld > w ? ld - w : 0;
                const uint64_t at0 = t > rf ? t : rf;
                const uint64_t at1 = at0 > rdy ? at0 : rdy;
                const uint64_t at = at1 > pf ? at1 : pf;
                const uint64_t open = uint64_t{occupy == 1} & freeOk;

                const uint64_t issue = sel(jm, groupCycle[l], at);
                uint64_t newTime = sel(jm, t, at + occupy + pen[l]);
                newTime += mp[l] * mpPen[l];
                joined[l] += canJoin;
                retireStall[l] += (at0 - t) & ~jm;
                dependStall[l] += (at1 - at0) & ~jm;
                portStall[l] += (at - at1) & ~jm;
                blockingExtra[l] += (occupy - 1) & ~jm;
                const uint64_t slotsOpen =
                    (decodeW[l] - 1) & (uint64_t{0} - open);
                slotsLeft[l] =
                    sel(jm, slotsLeft[l] - 1, slotsOpen) & (mp[l] - 1);
                uopsLeft[l] = sel(jm, uopsLeft[l] - uops, issueW[l] - uops);
                complexFree[l] = simple & (complexFree[l] | (canJoin ^ 1));
                groupCycle[l] = issue;

                const uint32_t rr = static_cast<uint32_t>(retRem[l] + uops);
                const uint32_t rw = static_cast<uint32_t>(retireW[l]);
                retFloor[l] += rr / rw;
                retRem[l] = rr % rw;

                rd[l] = sel(dMask, issue + lat + pen[l], rd[l]);
                timeL[l] = newTime;
                issueA[l] = issue;
            }

            // Port binding, mirroring P6PTimer's dispatch order: the
            // load uop, the store-addr/store-data pair, then the
            // compute uops. Trip counts and port classes are shared by
            // every lane; only the either-port pick is per-lane.
            if (pi & kPortLoad) {
                MMXDSP_LANE_UNROLL
                for (size_t l = 0; l < L; ++l)
                    disp(portFree[2], l);
            }
            if (pi & kPortStore) {
                MMXDSP_LANE_UNROLL
                for (size_t l = 0; l < L; ++l) {
                    disp(portFree[3], l);
                    disp(portFree[4], l);
                }
            }
            const uint32_t aluN = pi & kPortAluMask;
            const uint32_t pcls = (pi & kPortClassMask) >> kPortClassShift;
            for (uint32_t k = 0; k < aluN; ++k) {
                if (pcls == static_cast<uint32_t>(sim::PortClass::P0)) {
                    MMXDSP_LANE_UNROLL
                    for (size_t l = 0; l < L; ++l)
                        disp(portFree[0], l);
                } else if (pcls
                           == static_cast<uint32_t>(sim::PortClass::P1)) {
                    MMXDSP_LANE_UNROLL
                    for (size_t l = 0; l < L; ++l)
                        disp(portFree[1], l);
                } else {
                    MMXDSP_LANE_UNROLL
                    for (size_t l = 0; l < L; ++l) {
                        const uint64_t pf0 = portFree[0][l];
                        const uint64_t pf1 = portFree[1][l];
                        // Earliest-free wins, ties to p0 (the scalar
                        // model's pf0 <= pf1).
                        const uint64_t m0 =
                            uint64_t{0} - uint64_t{pf0 <= pf1};
                        const uint64_t chosen = sel(m0, pf0, pf1);
                        const uint64_t at =
                            issueA[l] > chosen ? issueA[l] : chosen;
                        const uint64_t nv = at + 1;
                        portFree[0][l] = sel(m0, nv, pf0);
                        portFree[1][l] = sel(m0, pf1, nv);
                        if (at > lastDisp[l])
                            lastDisp[l] = at;
                    }
                }
            }

            if (flagged) {
                const uint64_t crM =
                    uint64_t{0} - uint64_t{(f & kOpCallRet) != 0};
                const uint64_t ovM =
                    uint64_t{0} - uint64_t{(f & kOpOverhead) != 0};
                MMXDSP_LANE_UNROLL
                for (size_t l = 0; l < L; ++l) {
                    const uint64_t cost = timeL[l] - prev[l];
                    callRetA[l] += cost & crM;
                    overheadA[l] += cost & ovM;
                }
            }
        }
        uint64_t *__restrict row = fnCycles + size_t{run.fnId} * L;
        MMXDSP_LANE_UNROLL
        for (size_t l = 0; l < L; ++l) {
            row[l] += timeL[l] - mark[l];
            mark[l] = timeL[l];
        }
    }

    for (size_t l = 0; l < L; ++l)
        results[lanes[l].resultIndex] = assembleLane(
            prog, lanes[l], timeL[l], joined[l], dependStall[l],
            blockingExtra[l], retireStall[l], portStall[l],
            prog.counts->uops, callRetA[l], overheadA[l], fnCycles, L, l,
            mpPen[l]);
}

#if MMXDSP_SWEEP_AVX2

/** blendv select: mask ? a : b, with each 64-bit lane's mask all-ones
 *  or all-zero. */
__attribute__((target("avx2"))) inline __m256i
sel256(__m256i mask, __m256i a, __m256i b)
{
    return _mm256_blendv_epi8(b, a, mask);
}

/** Unsigned max over 64-bit lanes. Cycle counts stay far below 2^63,
 *  so the signed compare is exact. */
__attribute__((target("avx2"))) inline __m256i
max256(__m256i a, __m256i b)
{
    return _mm256_blendv_epi8(b, a, _mm256_cmpgt_epi64(a, b));
}

/** Zero-extend 4 bytes at p into one 64-bit-lane vector. */
__attribute__((target("avx2"))) inline __m256i
load4u8(const uint8_t *p)
{
    int32_t word;
    std::memcpy(&word, p, sizeof(word));
    return _mm256_cvtepu8_epi64(_mm_cvtsi32_si128(word));
}

/**
 * The P5 lane kernel, 4 lanes per YMM register, G register groups
 * (L = 4G lanes). Same state machine as runP5BlockT — the mask
 * arithmetic maps 1:1 onto vector compares and blends, and one vector
 * op now advances 4 configurations, which is what finally beats the
 * scalar timer's per-event cost instead of matching it.
 */
template <size_t G>
__attribute__((target("avx2"))) void
runP5BlockAvx2(const SweepProgram &prog, const std::vector<LaneRef> &lanes,
               std::vector<profile::ProfileResult> &results)
{
    constexpr size_t L = 4 * G;

    // Lane-major transposes of the per-lane memo streams, so the hot
    // loop reads one 4-byte word per group instead of gathering.
    const size_t nMem = prog.memAddr.size();
    const size_t nCtl = prog.ctlSite.size();
    std::vector<uint8_t> clsLM(nMem * L);
    std::vector<uint8_t> mpLM(nCtl * L);
    for (size_t l = 0; l < L; ++l) {
        const uint8_t *src = lanes[l].mem->cls.data();
        for (size_t j = 0; j < nMem; ++j)
            clsLM[j * L + l] = src[j];
        const uint64_t *bits = lanes[l].btb->bits.data();
        for (size_t j = 0; j < nCtl; ++j)
            mpLM[j * L + l] = (bits[j >> 6] >> (j & 63)) & 1;
    }

    // Per-group constant vectors.
    __m256i p1V[G], p2V[G], mpPenV[G];
    uint64_t mpPenA[L];
    {
        alignas(32) uint64_t t1[L], t2[L];
        for (size_t l = 0; l < L; ++l) {
            const sim::TimerConfig &tc = lanes[l].machine->timer;
            t1[l] = tc.penalties.ofClass(1);
            t2[l] = tc.penalties.ofClass(2);
            mpPenA[l] = tc.mispredict_penalty;
        }
        for (size_t g = 0; g < G; ++g) {
            p1V[g] = _mm256_load_si256(
                reinterpret_cast<const __m256i *>(t1 + g * 4));
            p2V[g] = _mm256_load_si256(
                reinterpret_cast<const __m256i *>(t2 + g * 4));
            mpPenV[g] = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(mpPenA + g * 4));
        }
    }

    std::vector<uint64_t> fnCyclesV(prog.fnNames->size() * L, 0);
    uint64_t *__restrict fnCycles = fnCyclesV.data();

    alignas(64) uint64_t ready[256 * L] = {};
    const __m256i zeroV = _mm256_setzero_si256();
    const __m256i oneV = _mm256_set1_epi64x(1);
    const __m256i twoV = _mm256_set1_epi64x(2);
    __m256i nextIssue[G], uCycle[G], uValidM[G], pairsN[G];
    __m256i dependStall[G], markV[G], prevV[G], callRetV[G], overheadV[G];
    for (size_t g = 0; g < G; ++g) {
        nextIssue[g] = zeroV;
        uCycle[g] = zeroV;
        uValidM[g] = zeroV;
        pairsN[g] = zeroV;
        dependStall[g] = zeroV;
        markV[g] = zeroV;
        prevV[g] = zeroV;
        callRetV[g] = zeroV;
        overheadV[g] = zeroV;
    }
    uint64_t prevHaz = 0;
    uint64_t prevDst = isa::kNoReg;

    const PackedOp *__restrict ops = prog.ops.data();
    size_t memIdx = 0;
    size_t branchIdx = 0;
    size_t i = 0;

    for (const FnRun &run : prog.runs) {
        for (const size_t runEnd = i + run.count; i < runEnd; ++i) {
            const PackedOp po = ops[i];
            const uint32_t f = po.flags;

            const uint64_t haz = f & 7;
            const uint64_t s0 = po.src0;
            const uint64_t s1 = po.src1;
            const uint64_t d = po.dst;
            const uint64_t depOk =
                uint64_t{prevDst == isa::kNoReg
                         || (s0 != prevDst && s1 != prevDst
                             && d != prevDst)};
            const uint64_t pairOkEvt = ((f >> 3) & 1) & depOk
                                       & uint64_t{(haz & prevHaz) == 0};
            const __m256i pairOkM =
                _mm256_set1_epi64x(-static_cast<int64_t>(pairOkEvt));
            const __m256i pairUPM =
                _mm256_set1_epi64x(-static_cast<int64_t>((f >> 4) & 1));
            const __m256i blkV = _mm256_set1_epi64x(po.blocking);
            const __m256i latV = _mm256_set1_epi64x(po.latP5);
            const __m256i dMaskV = _mm256_set1_epi64x(
                -static_cast<int64_t>(d != isa::kNoReg));
            const uint64_t *__restrict r0 = ready + s0 * L;
            const uint64_t *__restrict r1 = ready + s1 * L;
            uint64_t *__restrict rd = ready + d * L;

            if ((f
                 & (kOpMem | kOpControl | kOpCallRet | kOpOverhead))
                == 0) {
                MMXDSP_LANE_UNROLL
                for (size_t g = 0; g < G; ++g) {
                    const __m256i rs0 = _mm256_loadu_si256(
                        reinterpret_cast<const __m256i *>(r0 + g * 4));
                    const __m256i rs1 = _mm256_loadu_si256(
                        reinterpret_cast<const __m256i *>(r1 + g * 4));
                    const __m256i rdy = max256(rs0, rs1);
                    const __m256i ni = nextIssue[g];
                    const __m256i uc = uCycle[g];
                    const __m256i canPairM = _mm256_andnot_si256(
                        _mm256_cmpgt_epi64(rdy, uc),
                        _mm256_and_si256(uValidM[g], pairOkM));
                    const __m256i issueN = max256(ni, rdy);
                    const __m256i issue = sel256(canPairM, uc, issueN);
                    pairsN[g] = _mm256_sub_epi64(pairsN[g], canPairM);
                    dependStall[g] = _mm256_add_epi64(
                        dependStall[g],
                        _mm256_andnot_si256(
                            canPairM, _mm256_sub_epi64(issueN, ni)));
                    nextIssue[g] =
                        sel256(canPairM, ni,
                               _mm256_add_epi64(issueN, blkV));
                    uValidM[g] = _mm256_andnot_si256(canPairM, pairUPM);
                    uCycle[g] = issueN;
                    const __m256i rdOld = _mm256_loadu_si256(
                        reinterpret_cast<const __m256i *>(rd + g * 4));
                    _mm256_storeu_si256(
                        reinterpret_cast<__m256i *>(rd + g * 4),
                        sel256(dMaskV, _mm256_add_epi64(issue, latV),
                               rdOld));
                }
            } else {
                __m256i penV[G], mpM[G], mpAddV[G];
                MMXDSP_LANE_UNROLL
                for (size_t g = 0; g < G; ++g) {
                    penV[g] = zeroV;
                    mpM[g] = zeroV;
                    mpAddV[g] = zeroV;
                }
                if (f & kOpMem) {
                    const uint8_t *src = clsLM.data() + memIdx * L;
                    MMXDSP_LANE_UNROLL
                    for (size_t g = 0; g < G; ++g) {
                        const __m256i cv = load4u8(src + g * 4);
                        penV[g] = _mm256_or_si256(
                            _mm256_and_si256(
                                _mm256_cmpeq_epi64(cv, oneV), p1V[g]),
                            _mm256_and_si256(
                                _mm256_cmpeq_epi64(cv, twoV), p2V[g]));
                    }
                    ++memIdx;
                }
                if (f & kOpControl) {
                    const uint8_t *src = mpLM.data() + branchIdx * L;
                    MMXDSP_LANE_UNROLL
                    for (size_t g = 0; g < G; ++g) {
                        mpM[g] = _mm256_cmpeq_epi64(load4u8(src + g * 4),
                                                    oneV);
                        mpAddV[g] = _mm256_and_si256(mpM[g], mpPenV[g]);
                    }
                    ++branchIdx;
                }
                const bool flagged =
                    (f & (kOpCallRet | kOpOverhead)) != 0;
                if (flagged) {
                    MMXDSP_LANE_UNROLL
                    for (size_t g = 0; g < G; ++g)
                        prevV[g] = nextIssue[g];
                }

                MMXDSP_LANE_UNROLL
                for (size_t g = 0; g < G; ++g) {
                    const __m256i rs0 = _mm256_loadu_si256(
                        reinterpret_cast<const __m256i *>(r0 + g * 4));
                    const __m256i rs1 = _mm256_loadu_si256(
                        reinterpret_cast<const __m256i *>(r1 + g * 4));
                    const __m256i rdy = max256(rs0, rs1);
                    const __m256i ni = nextIssue[g];
                    const __m256i uc = uCycle[g];
                    const __m256i freeOkM = _mm256_andnot_si256(
                        mpM[g], _mm256_cmpeq_epi64(penV[g], zeroV));
                    const __m256i canPairM = _mm256_andnot_si256(
                        _mm256_cmpgt_epi64(rdy, uc),
                        _mm256_and_si256(
                            _mm256_and_si256(uValidM[g], pairOkM),
                            freeOkM));
                    const __m256i issueN = max256(ni, rdy);
                    const __m256i issue = sel256(canPairM, uc, issueN);
                    pairsN[g] = _mm256_sub_epi64(pairsN[g], canPairM);
                    dependStall[g] = _mm256_add_epi64(
                        dependStall[g],
                        _mm256_andnot_si256(
                            canPairM, _mm256_sub_epi64(issueN, ni)));
                    __m256i nn =
                        sel256(canPairM, ni,
                               _mm256_add_epi64(
                                   _mm256_add_epi64(issueN, blkV),
                                   penV[g]));
                    nn = _mm256_add_epi64(nn, mpAddV[g]);
                    nextIssue[g] = nn;
                    uValidM[g] = _mm256_andnot_si256(
                        canPairM,
                        _mm256_and_si256(pairUPM, freeOkM));
                    uCycle[g] = issueN;
                    const __m256i rdOld = _mm256_loadu_si256(
                        reinterpret_cast<const __m256i *>(rd + g * 4));
                    _mm256_storeu_si256(
                        reinterpret_cast<__m256i *>(rd + g * 4),
                        sel256(dMaskV,
                               _mm256_add_epi64(
                                   _mm256_add_epi64(issue, latV),
                                   penV[g]),
                               rdOld));
                }

                if (flagged) {
                    const __m256i crM = _mm256_set1_epi64x(
                        -static_cast<int64_t>((f & kOpCallRet) != 0));
                    const __m256i ovM = _mm256_set1_epi64x(
                        -static_cast<int64_t>((f & kOpOverhead) != 0));
                    MMXDSP_LANE_UNROLL
                    for (size_t g = 0; g < G; ++g) {
                        const __m256i cost =
                            _mm256_sub_epi64(nextIssue[g], prevV[g]);
                        callRetV[g] = _mm256_add_epi64(
                            callRetV[g], _mm256_and_si256(cost, crM));
                        overheadV[g] = _mm256_add_epi64(
                            overheadV[g], _mm256_and_si256(cost, ovM));
                    }
                }
            }
            prevHaz = haz;
            prevDst = d;
        }
        uint64_t *__restrict row = fnCycles + size_t{run.fnId} * L;
        MMXDSP_LANE_UNROLL
        for (size_t g = 0; g < G; ++g) {
            const __m256i delta =
                _mm256_sub_epi64(nextIssue[g], markV[g]);
            const __m256i old = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(row + g * 4));
            _mm256_storeu_si256(
                reinterpret_cast<__m256i *>(row + g * 4),
                _mm256_add_epi64(old, delta));
            markV[g] = nextIssue[g];
        }
    }

    alignas(32) uint64_t niA[L], pairsA[L], depA[L], crA[L], ovA[L];
    for (size_t g = 0; g < G; ++g) {
        _mm256_store_si256(reinterpret_cast<__m256i *>(niA + g * 4),
                           nextIssue[g]);
        _mm256_store_si256(reinterpret_cast<__m256i *>(pairsA + g * 4),
                           pairsN[g]);
        _mm256_store_si256(reinterpret_cast<__m256i *>(depA + g * 4),
                           dependStall[g]);
        _mm256_store_si256(reinterpret_cast<__m256i *>(crA + g * 4),
                           callRetV[g]);
        _mm256_store_si256(reinterpret_cast<__m256i *>(ovA + g * 4),
                           overheadV[g]);
    }
    for (size_t l = 0; l < L; ++l)
        results[lanes[l].resultIndex] = assembleLane(
            prog, lanes[l], niA[l], pairsA[l], depA[l],
            prog.blockingExtraP5, 0, 0, 0, crA[l], ovA[l], fnCycles, L, l,
            mpPenA[l]);
}

#endif // MMXDSP_SWEEP_AVX2

/** Block index per ModelKind (the byModel partition in the driver). */
constexpr size_t
modelIndex(sim::ModelKind model)
{
    switch (model) {
      case sim::ModelKind::P5:
        return 0;
      case sim::ModelKind::P6:
        return 1;
      case sim::ModelKind::P6P:
        return 2;
    }
    return 0;
}

/** Instantiate one kernel per lane count so every block runs with a
 *  compile-time L (full unrolling, register-resident lane state). */
template <size_t M, size_t... Ls>
void
dispatchBlock(std::index_sequence<Ls...>, const SweepProgram &prog,
              const std::vector<LaneRef> &lanes,
              std::vector<profile::ProfileResult> &results)
{
    ((lanes.size() == Ls + 1
          ? (M == 2   ? runP6PBlockT<Ls + 1>(prog, lanes, results)
             : M == 1 ? runP6BlockT<Ls + 1>(prog, lanes, results)
                      : runP5BlockT<Ls + 1>(prog, lanes, results))
          : void()),
     ...);
}

void
runP5Block(const SweepProgram &prog, const std::vector<LaneRef> &lanes,
           std::vector<profile::ProfileResult> &results)
{
#if MMXDSP_SWEEP_AVX2
    if ((lanes.size() % 4) == 0 && lanes.size() <= kMaxLanes
        && __builtin_cpu_supports("avx2")) {
        switch (lanes.size() / 4) {
        case 1: runP5BlockAvx2<1>(prog, lanes, results); return;
        case 2: runP5BlockAvx2<2>(prog, lanes, results); return;
        case 3: runP5BlockAvx2<3>(prog, lanes, results); return;
        case 4: runP5BlockAvx2<4>(prog, lanes, results); return;
        }
    }
#endif
    dispatchBlock<0>(std::make_index_sequence<kMaxLanes>{}, prog, lanes,
                     results);
}

void
runModelBlock(size_t model, const SweepProgram &prog,
              const std::vector<LaneRef> &lanes,
              std::vector<profile::ProfileResult> &results)
{
    switch (model) {
      case 2:
        dispatchBlock<2>(std::make_index_sequence<kMaxLanes>{}, prog,
                         lanes, results);
        break;
      case 1:
        dispatchBlock<1>(std::make_index_sequence<kMaxLanes>{}, prog,
                         lanes, results);
        break;
      default:
        runP5Block(prog, lanes, results);
        break;
    }
}

} // namespace

std::vector<profile::ProfileResult>
MaterializedTrace::replaySweepPacked(
    const std::vector<sim::MachineConfig> &machines, int threads) const
{
    std::vector<profile::ProfileResult> results(machines.size());
    if (machines.empty())
        return results;

    const bool dbg = std::getenv("MMXDSP_SWEEP_DEBUG") != nullptr;
    auto now = [] { return std::chrono::steady_clock::now(); };
    auto ms = [](auto a, auto b) {
        return std::chrono::duration<double, std::milli>(b - a).count();
    };
    const auto t0 = now();

    // ---- 1. hoist the config-independent program (one pass) ----
    SweepProgram prog;
    prog.n = op_.size();
    prog.counts = &counts_;
    prog.fnNames = &fnNames_;
    prog.fnCounts = &fnCounts_;
    prog.ops.resize(prog.n);
    prog.portInfo.resize(prog.n);
    prog.memAddr.reserve(counts_.memoryReferences);
    prog.memSize.reserve(counts_.memoryReferences);
    prog.memStore.reserve(counts_.memoryReferences);
    prog.ctlSite.reserve(controlCount_);
    prog.ctlTaken.reserve(controlCount_);

    // Everything per-op comes from the shared descriptor table: the
    // kOp* bits 0-5 are the same encoding as sim::kDesc* (checked by
    // static_asserts below), so the flag byte is the descriptor's with
    // the trace-derived attribution bits merged in.
    static_assert(int{kOpMem} == int{sim::kDescMem}
                  && int{kOpMmxMul} == int{sim::kDescMmxMul}
                  && int{kOpMmxShift} == int{sim::kDescMmxShift}
                  && int{kOpPairPV} == int{sim::kDescPairPV}
                  && int{kOpPairUP} == int{sim::kDescPairUP}
                  && int{kOpControl} == int{sim::kDescControl});
    const sim::UopDesc *descTab = sim::descTable().data();

    uint32_t runFn = 0;
    uint32_t runLen = 0;
    for (size_t i = 0; i < prog.n; ++i) {
        const size_t op = op_[i];
        const uint8_t mf = flags_[i];
        const size_t memMode = mf & kFlagMemMask;
        const sim::UopDesc &desc = descTab[op * 3 + memMode];
        PackedOp &po = prog.ops[i];
        uint8_t f = desc.flags;
        if (mf & kFlagCallRet)
            f |= kOpCallRet;
        if (mf & kFlagOverhead)
            f |= kOpOverhead;
        po.flags = f;
        po.blocking = desc.blocking;
        po.latP5 = desc.latP5;
        po.latP6 = desc.latP6;
        po.src0 = src0_[i];
        po.src1 = src1_[i];
        po.dst = dst_[i];
        po.uops = desc.uops;
        prog.portInfo[i] = static_cast<uint8_t>(
            desc.aluUops
            | (static_cast<uint8_t>(desc.port) << kPortClassShift)
            | (desc.loadUops ? kPortLoad : 0)
            | (desc.storeOps ? kPortStore : 0));
        if (desc.blocking > 1)
            prog.blockingExtraP5 += desc.blocking - 1u;
        if (memMode) {
            prog.memAddr.push_back(addr_[i]);
            prog.memSize.push_back(size_[i]);
            prog.memStore.push_back(
                memMode == static_cast<size_t>(isa::MemMode::Store));
        }
        if (mf & kFlagControl) {
            prog.ctlSite.push_back(site_[i]);
            prog.ctlTaken.push_back((mf & kFlagTaken) != 0);
        }
        if (fnId_[i] != runFn) {
            if (runLen)
                prog.runs.push_back({runLen, runFn});
            runFn = fnId_[i];
            runLen = 0;
        }
        ++runLen;
    }
    if (runLen)
        prog.runs.push_back({runLen, runFn});

    // ---- 2. one memo per unique geometry, built in parallel. Cache
    // memos are two-level: one full L1 pass per unique L1 geometry,
    // then one cheap L2 pass over that L1's miss stream per unique
    // (L1, L2) combination. ----
    std::vector<std::array<uint32_t, 3>> l1Keys;
    std::vector<mem::CacheConfig> l1Cfgs; ///< representative per l1Keys
    std::vector<std::array<uint32_t, 6>> memKeys;
    std::vector<size_t> memRep;  ///< a machine index with that geometry
    std::vector<size_t> memL1Of; ///< l1Keys index per memKeys entry
    std::vector<size_t> memGeoOf(machines.size());
    std::vector<std::array<uint32_t, 2>> btbKeys;
    std::vector<size_t> btbGeoOf(machines.size());
    for (size_t i = 0; i < machines.size(); ++i) {
        const sim::TimerConfig &tc = machines[i].timer;
        const std::array<uint32_t, 3> lk = {tc.l1.size_bytes,
                                            tc.l1.line_bytes, tc.l1.ways};
        size_t lg = l1Keys.size();
        for (size_t j = 0; j < l1Keys.size(); ++j)
            if (l1Keys[j] == lk) {
                lg = j;
                break;
            }
        if (lg == l1Keys.size()) {
            l1Keys.push_back(lk);
            l1Cfgs.push_back(tc.l1);
        }

        const std::array<uint32_t, 6> mk = {
            tc.l1.size_bytes, tc.l1.line_bytes, tc.l1.ways,
            tc.l2.size_bytes, tc.l2.line_bytes, tc.l2.ways};
        size_t g = memKeys.size();
        for (size_t j = 0; j < memKeys.size(); ++j)
            if (memKeys[j] == mk) {
                g = j;
                break;
            }
        if (g == memKeys.size()) {
            memKeys.push_back(mk);
            memRep.push_back(i);
            memL1Of.push_back(lg);
        }
        memGeoOf[i] = g;

        const std::array<uint32_t, 2> bk = {tc.btb_entries, tc.btb_ways};
        size_t bg = btbKeys.size();
        for (size_t j = 0; j < btbKeys.size(); ++j)
            if (btbKeys[j] == bk) {
                bg = j;
                break;
            }
        if (bg == btbKeys.size())
            btbKeys.push_back(bk);
        btbGeoOf[i] = bg;
    }
    const auto t1 = now();
    std::vector<L1GeoMemo> l1Memos(l1Keys.size());
    std::vector<CacheMemo> memMemos(memKeys.size());
    std::vector<BtbMemo> btbMemos(btbKeys.size());
    // Phase A: the full passes (L1 filters, BTB streams) fan out
    // together; phase B distributes the L2 miss-stream passes.
    parallelFor(l1Keys.size() + btbKeys.size(), threads, [&](size_t g) {
        if (g < l1Keys.size())
            l1Memos[g] = buildL1Memo(l1Cfgs[g], prog);
        else
            btbMemos[g - l1Keys.size()] = recordBtbMemo(
                btbKeys[g - l1Keys.size()][0],
                btbKeys[g - l1Keys.size()][1], prog);
    });
    parallelFor(memKeys.size(), threads, [&](size_t g) {
        memMemos[g] = buildMemMemo(l1Memos[memL1Of[g]],
                                   machines[memRep[g]].timer.l2, prog);
    });
    const auto t2 = now();

    // ---- 3. lane blocks per model, sized so the workers share the
    // pass count evenly but no block exceeds kMaxLanes ----
    std::vector<LaneRef> byModel[sim::kNumModelKinds];
    for (size_t i = 0; i < machines.size(); ++i) {
        const size_t m = modelIndex(machines[i].model);
        byModel[m].push_back(LaneRef{&machines[i], &memMemos[memGeoOf[i]],
                                     &btbMemos[btbGeoOf[i]], i});
    }
    struct Block
    {
        size_t model = 0; ///< modelIndex() of every lane in the block
        std::vector<LaneRef> lanes;
    };
    std::vector<Block> blocks;
    const size_t workers = static_cast<size_t>(resolveThreads(threads));
    for (size_t m = 0; m < sim::kNumModelKinds; ++m) {
        const std::vector<LaneRef> &lanes = byModel[m];
        if (lanes.empty())
            continue;
        size_t target = (lanes.size() + workers - 1) / workers;
        // Keep blocks a multiple of 4 so full blocks hit the AVX2
        // kernel (4 lanes per register group); only the tail can fall
        // back to the mask-select path.
        target = (target + 3) & ~size_t{3};
        const size_t blockSize = std::clamp(target, size_t{4}, kMaxLanes);
        for (size_t at = 0; at < lanes.size(); at += blockSize) {
            Block block;
            block.model = m;
            block.lanes.assign(
                lanes.begin() + static_cast<ptrdiff_t>(at),
                lanes.begin()
                    + static_cast<ptrdiff_t>(
                        std::min(at + blockSize, lanes.size())));
            blocks.push_back(std::move(block));
        }
    }

    parallelFor(blocks.size(), threads, [&](size_t b) {
        runModelBlock(blocks[b].model, prog, blocks[b].lanes, results);
    });
    if (dbg) {
        const auto t3 = now();
        std::fprintf(stderr,
                     "[sweep] prog %.2fms memos(%zu+%zu) %.2fms lanes(%zu "
                     "blocks) %.2fms total %.2fms\n",
                     ms(t0, t1), memKeys.size(), btbKeys.size(), ms(t1, t2),
                     blocks.size(), ms(t2, t3), ms(t0, t3));
    }
    return results;
}

} // namespace mmxdsp::trace
