/**
 * @file
 * The sweep driver behind MaterializedTrace::replaySweep(),
 * replaySweepPacked() and the memoized replaySweepScalar(), and the P5
 * config-parallel lane kernel it runs wide P5 sweeps on.
 *
 * A scalar sweep times N configurations with N passes over the trace,
 * and each pass re-simulates structures whose behaviour most
 * configurations share: the cache tag arrays (identical for every
 * config with the same geometry, regardless of penalties) and the BTB
 * (identical for every config with the same entry count). The driver
 * takes that work out of the timing passes, then picks the cheapest
 * timing kernel per model:
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
 *  2. **P5 lanes.** All P5 configurations of a block advance together
 *     in ONE pass over the trace, one lane per config, with lane-major
 *     state (scoreboard rows hold one cycle count per lane, so the
 *     same-register gather/scatter is a contiguous vector) and
 *     mask-select per-lane updates in the style of mmx_swar.hh. The
 *     selects are arithmetic (x ^ ((x ^ y) & mask)) rather than
 *     ternaries on purpose: whether a lane pairs is data-dependent and
 *     effectively random, so a compiled branch would mispredict
 *     constantly — the only branches left are on config-independent
 *     event facts, identical for every lane and perfectly predicted.
 *     The kernels are templated on the lane count: with L a constant
 *     the lane loops fully unroll and the per-lane state lives in
 *     registers and known stack slots. Everything config-independent
 *     (pairing class, latency, blocking) is hoisted into a PackedOp
 *     stream computed once per sweep, alongside the memo pre-pass;
 *     statistics with a closed form over the memos (memory penalty
 *     cycles, mispredict cycles, blocking cycles) leave the loop
 *     entirely; and per-function cycle attribution telescopes —
 *     per-event costs are deltas of the lane clock, so one subtraction
 *     per same-function run replaces a read-modify-write per event.
 *
 *  3. **Per-machine runs.** P6 and P6P entries (and P5 entries of a
 *     narrow sweep) run the memoized per-machine kernel
 *     (MaterializedTrace::runKernelImpl<Model, true>), which hands the
 *     timer both recorded outcomes through consumeResolved(). Their
 *     decode-group and port state machines carry more per-lane state
 *     than the P5's, and lane kernels for them lost to this kernel at
 *     every width (EXPERIMENTS.md).
 *
 * P5 blocks and per-machine runs share one worker pool after the
 * pre-pass, largest task first. Every result is bit-identical to
 * replaySweepScalar() without memos — the P5 lane state machine
 * mirrors PentiumTimer::consumeResolved() exactly, exploiting only
 * don't-care stores (fields the scalar model leaves stale behind an
 * invalid flag may be overwritten unconditionally).
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
 * Everything the P5 lane loops need per event, none of it depending on
 * the configuration: one 6-byte record instead of re-deriving these
 * facts from the op tables once per event *per config*.
 */
struct PackedOp
{
    uint8_t flags;    ///< see the enum above
    uint8_t blocking; ///< P5 issue-blocking cycles
    uint8_t latP5;    ///< P5 result latency
    uint8_t src0, src1, dst;
};
static_assert(sizeof(PackedOp) == 6);

/** A maximal run of consecutive events owned by one function: the unit
 *  of cycle attribution (per-event costs telescope across a run). */
struct FnRun
{
    uint32_t count;
    uint32_t fnId;
};

/**
 * The hoisted, shared form of one trace for the P5 lanes: the PackedOp
 * stream, the function-run list, and the statistics that have a closed
 * form.
 */
struct SweepProgram
{
    size_t n = 0;
    std::vector<PackedOp> ops;
    std::vector<FnRun> runs;
    size_t memEvents = 0;     ///< length of every CacheMemo::cls
    size_t controlEvents = 0; ///< bits in every BtbMemo
    /** Hoisted P5 blockingExtraCycles: sum of (blocking - 1). Blocking
     *  ops never pair, so this total is configuration-independent. */
    uint64_t blockingExtraP5 = 0;
    // Result-assembly context borrowed from the MaterializedTrace.
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
             uint64_t pairs, uint64_t dependStall, uint64_t callRet,
             uint64_t overhead, const uint64_t *fnCycles, size_t stride,
             size_t lane)
{
    const sim::TimerConfig &tc = ref.machine->timer;
    profile::ProfileResult r = *prog.counts;
    r.cycles = cycles;
    r.callRetCycles = callRet;
    r.callOverheadCycles = overhead;
    r.timer.instructions = prog.n;
    r.timer.pairs = pairs;
    r.timer.dependStallCycles = dependStall;
    r.timer.blockingExtraCycles = prog.blockingExtraP5;
    r.timer.memPenaltyCycles = ref.mem->l2Served * tc.penalties.ofClass(1)
                               + ref.mem->l2Missed * tc.penalties.ofClass(2);
    r.timer.mispredictCycles =
        ref.btb->stats.mispredicts * tc.mispredict_penalty;
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
        results[lanes[l].resultIndex] =
            assembleLane(prog, lanes[l], nextIssue[l], pairsN[l],
                         dependStall[l], callRetA[l], overheadA[l],
                         fnCycles, L, l);
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
    const size_t nMem = prog.memEvents;
    const size_t nCtl = prog.controlEvents;
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
        results[lanes[l].resultIndex] =
            assembleLane(prog, lanes[l], niA[l], pairsA[l], depA[l], crA[l],
                         ovA[l], fnCycles, L, l);
}

#endif // MMXDSP_SWEEP_AVX2

/** Instantiate one mask-select kernel per lane count so every block
 *  runs with a compile-time L (full unrolling, register-resident lane
 *  state). */
template <size_t... Ls>
void
dispatchBlock(std::index_sequence<Ls...>, const SweepProgram &prog,
              const std::vector<LaneRef> &lanes,
              std::vector<profile::ProfileResult> &results)
{
    ((lanes.size() == Ls + 1 ? runP5BlockT<Ls + 1>(prog, lanes, results)
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
    dispatchBlock(std::make_index_sequence<kMaxLanes>{}, prog, lanes,
                  results);
}

/**
 * Rank of one task of the timing pool in its largest-first order: P5
 * lane blocks (@p lanes > 0, the widest first), then per-machine runs
 * of P6P, P6 and P5, slowest model first (EXPERIMENTS.md).
 */
size_t
taskRank(sim::ModelKind model, size_t lanes)
{
    if (lanes)
        return 2 + lanes;
    switch (model) {
      case sim::ModelKind::P6P:
        return 2;
      case sim::ModelKind::P6:
        return 1;
      case sim::ModelKind::P5:
        break;
    }
    return 0;
}

} // namespace

std::vector<profile::ProfileResult>
MaterializedTrace::runSweep(const std::vector<sim::MachineConfig> &machines,
                            int threads, Memos *memos, SweepRoute route) const
{
    std::vector<profile::ProfileResult> results(machines.size());
    if (machines.empty())
        return results;

    using Clock = std::chrono::steady_clock;
    const bool dbg = std::getenv("MMXDSP_SWEEP_DEBUG") != nullptr;
    const auto t0 = Clock::now();

    // The P5 lane kernel advances every lane in one pass, but its
    // hoisted program costs about one per-machine pass on its own, so
    // replaySweep() only packs once there are more P5 lanes than
    // workers to run per-machine passes side by side (the crossover in
    // EXPERIMENTS.md).
    const size_t workers = static_cast<size_t>(resolveThreads(threads));
    const auto isP5 = [](const sim::MachineConfig &m) {
        return m.model == sim::ModelKind::P5;
    };
    bool packP5 = route == SweepRoute::Packed;
#ifndef MMXDSP_FORCE_SCALAR_SWEEP
    if (route == SweepRoute::Dispatch)
        packP5 = static_cast<size_t>(std::count_if(
                     machines.begin(), machines.end(), isP5))
                 > std::max<size_t>(2, workers);
#endif
    std::vector<size_t> lanes; ///< entries for the P5 lane kernel
    std::vector<size_t> solo;  ///< entries for the per-machine kernel
    for (size_t i = 0; i < machines.size(); ++i)
        (packP5 && isP5(machines[i]) ? lanes : solo).push_back(i);

    // ---- 1. the memo pre-pass, and the lanes' program ----
    Memos local;
    Memos &store = memos ? *memos : local;
    MemoPass pass = planMemos(machines, store);

    // A task of the shared pool, timed by kind for MMXDSP_SWEEP_DEBUG.
    enum Kind { kRecord, kHoist, kLanes, kSolo, kKinds };
    struct Task
    {
        Kind kind;
        size_t rank; ///< taskRank(), for the largest-first order
        std::function<void()> run;
    };
    std::vector<Task> tasks;
    for (std::function<void()> &record : pass.recorders)
        tasks.push_back({kRecord, 0, std::move(record)});

    // The config-independent per-event facts of the P5 lanes, hoisted
    // once into a PackedOp stream beside the recorders.
    SweepProgram prog;
    if (!lanes.empty()) {
        tasks.push_back({kHoist, 0, [&] {
            prog.n = op_.size();
            prog.counts = &counts_;
            prog.fnNames = &fnNames_;
            prog.fnCounts = &fnCounts_;
            prog.memEvents = counts_.memoryReferences;
            prog.controlEvents = controlCount_;
            prog.ops.resize(prog.n);
            // The kOp* bits 0-5 are the sim::kDesc* encoding (checked
            // below), so the flag byte is the descriptor's with the
            // trace-derived attribution bits merged in.
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
                const uint8_t mf = flags_[i];
                const sim::UopDesc &desc =
                    descTab[op_[i] * 3 + (mf & kFlagMemMask)];
                uint8_t f = desc.flags;
                if (mf & kFlagCallRet)
                    f |= kOpCallRet;
                if (mf & kFlagOverhead)
                    f |= kOpOverhead;
                prog.ops[i] = {f, desc.blocking, desc.latP5, src0_[i],
                               src1_[i], dst_[i]};
                if (desc.blocking > 1)
                    prog.blockingExtraP5 += desc.blocking - 1u;
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
        }});
    }
    const size_t prepared = tasks.size();

    // ---- 2. P5 lane blocks, sized to fill the workers the per-machine
    // runs leave idle (a multiple of 4 lanes, so full blocks hit the
    // AVX2 kernel) ----
    std::vector<std::vector<LaneRef>> blocks;
    if (!lanes.empty()) {
        const size_t idle = workers > solo.size() ? workers - solo.size() : 1;
        const size_t target =
            ((lanes.size() + idle - 1) / idle + 3) & ~size_t{3};
        const size_t blockSize = std::clamp(target, size_t{4}, kMaxLanes);
        for (size_t at = 0; at < lanes.size(); at += blockSize) {
            std::vector<LaneRef> block;
            for (size_t k = at; k < std::min(at + blockSize, lanes.size());
                 ++k) {
                const size_t i = lanes[k];
                block.push_back(LaneRef{&machines[i], pass.refs[i].cache,
                                        pass.refs[i].btb, i});
            }
            blocks.push_back(std::move(block));
        }
    }
    for (const std::vector<LaneRef> &block : blocks) {
        tasks.push_back({kLanes, taskRank(sim::ModelKind::P5, block.size()),
                         [&] { runP5Block(prog, block, results); }});
    }

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

    // Two pools: the memo pre-pass (recorders and hoist), then every
    // lane block and per-machine run, largest first.
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
            "p5 hoist %.2fms (pre-pass wall %.2fms) p5 lanes(%zu in %zu "
            "blocks) %.2fms per-machine(%zu) %.2fms (wall %.2fms)\n",
            pass.newCache.size() + pass.newBtb.size(), pass.reused,
            ms(kRecord), ms(kHoist),
            wall(t0, t1), lanes.size(), blocks.size(), ms(kLanes),
            solo.size(), ms(kSolo), wall(t1, Clock::now()));
    }
    return results;
}

std::vector<profile::ProfileResult>
MaterializedTrace::replaySweepPacked(
    const std::vector<sim::MachineConfig> &machines, int threads) const
{
    return runSweep(machines, threads, nullptr, SweepRoute::Packed);
}

} // namespace mmxdsp::trace
