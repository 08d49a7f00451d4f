/**
 * @file
 * Trace-driven timing model of the Pentium-with-MMX (P55C) core.
 *
 * This is the model behind the paper's "clock cycles" metric: VTune 2.5.1
 * computed cycles "from the known latency of each assembly instruction
 * and known latency of each penalty on the Pentium, e.g., cache misses
 * and branch target buffer misses" (paper, section 3.2). We do the same:
 *
 *  - in-order dual issue into the U and V pipes with the published
 *    pairing classes (UV / PU / PV / NP),
 *  - no intra-pair register dependencies, at most one memory reference
 *    per pair, at most one op per single-instance MMX unit per pair,
 *  - a register scoreboard for result latencies (imul 10 cycles,
 *    MMX multiplier 3, x87 add/mul 3 pipelined, fdiv 39, emms 50),
 *  - blocking data-cache misses charged with the paper's penalties
 *    (3 / 8 / 15 cycles), via mem::MemoryHierarchy,
 *  - BTB-based branch prediction with a fixed mispredict bubble.
 */

#ifndef MMXDSP_SIM_PENTIUM_TIMER_HH
#define MMXDSP_SIM_PENTIUM_TIMER_HH

#include <algorithm>
#include <array>
#include <cstdint>

#include "isa/event.hh"
#include "sim/timing_model.hh"
#include "sim/uop.hh"

namespace mmxdsp::sim {

/**
 * The P5's schedule state: what one event hands the next besides the
 * scoreboard, and the schedule's counters. Small and plain, so a replay
 * kernel that holds it as a local keeps it in registers.
 */
struct P5State
{
    uint64_t clock = 0;  ///< earliest cycle the next instr may issue
    /** The U-pipe instruction still waiting for a V-pipe partner: its
     *  issue cycle, structural-hazard signature (UopDesc::flags & 7)
     *  and destination; the fields are stale while !uValid. */
    uint64_t uCycle = 0;
    bool uValid = false;
    uint8_t uHaz = 0;
    isa::RegTag uDst = isa::kNoReg;
    uint64_t pairs = 0;
    uint64_t dependStall = 0;

    void
    addTo(TimerStats &t) const
    {
        t.pairs = pairs;
        t.dependStallCycles = dependStall;
    }
};

/**
 * The P5 cycle-accounting engine. Feed it events in program order with
 * consume(); each call returns the cycles that event advanced the machine
 * (0 for the V-pipe half of a pair), so a caller can attribute every
 * cycle to a site or function and the per-event costs sum exactly to
 * cycles().
 */
class PentiumTimer final : public TimerBase<PentiumTimer, P5State>
{
  public:
    using State = P5State;

    explicit PentiumTimer(
        const TimerConfig &config = TimerConfig{})
        : TimerBase(config, ModelKind::P5)
    {
    }

    /**
     * The P5's rule for one event with operands @p src0 / @p src1 and
     * destination @p dst, described by @p row, its data-access penalty
     * @p mem_penalty (0 for non-memory ops) and branch outcome
     * @p mispredict (false for non-control ops) supplied by the caller;
     * a mispredict costs @p mispredict_penalty. The event's cost is the
     * advance of @p s.clock. consume() and both per-machine replay
     * kernels (live and memoized) run this; the lane kernel's P5Step
     * mirrors it.
     */
    static void
    step(State &s, Scoreboard &ready, const UopDesc row, isa::RegTag src0,
         isa::RegTag src1, isa::RegTag dst, uint32_t mem_penalty,
         bool mispredict, uint32_t mispredict_penalty)
    {
        // Operand readiness from the scoreboard. Slot kNoReg is a
        // sentinel held at zero, so absent operands need no branches.
        const uint64_t rdy = std::max(ready[src0], ready[src1]);
        const bool free = mem_penalty == 0 && !mispredict;

        uint64_t issue;
        if (s.uValid && canPairInV(s, row, src0, src1, dst, rdy) && free) {
            // Issue in the V pipe alongside the pending U instruction.
            issue = s.uCycle;
            s.uValid = false;
            ++s.pairs;
        } else {
            issue = std::max(s.clock, rdy);
            s.dependStall += issue - s.clock;
            // Only a UP-class op with no penalty and no mispredict (which
            // would close the pair anyway) opens one.
            s.uValid = (row.flags & kDescPairUP) != 0 && free;
            s.uCycle = issue;
            s.uHaz = row.flags & 7;
            s.uDst = dst;
            // Data-cache misses block on the Pentium.
            s.clock = issue + row.blocking + mem_penalty;
        }

        ready[dst] = issue + row.latP5 + mem_penalty;
        ready[isa::kNoReg] = 0; // restore the sentinel (dst may be absent)

        if (mispredict)
            s.clock += mispredict_penalty;
    }

    /** Cycles beyond the first that @p row blocks issue for; such an op
     *  never pairs, so every one of its events counts them. */
    static uint32_t blockingExtra(const UopDesc &row)
    {
        return row.blocking - 1u;
    }

    /** The P5 does not count uops. */
    static uint32_t uopsIssued(const UopDesc &) { return 0; }

    ModelKind kind() const override { return ModelKind::P5; }

  private:
    /** Whether @p row can issue in V beside the open U instruction,
     *  outcomes aside. */
    static bool
    canPairInV(const State &s, const UopDesc &row, isa::RegTag src0,
               isa::RegTag src1, isa::RegTag dst, uint64_t rdy)
    {
        // Only simple single-cycle, non-stalling instructions pair in V
        // (kDescPairPV folds the pairing class and blocking==1 legs).
        if ((row.flags & kDescPairPV) == 0)
            return false;
        // Operands must be ready at the U-pipe issue cycle.
        if (rdy > s.uCycle)
            return false;
        // No intra-pair RAW or WAW dependence.
        if (isa::tagValid(s.uDst)
            && (src0 == s.uDst || src1 == s.uDst || dst == s.uDst))
            return false;
        // One memory reference per pair, one op per single-instance MMX
        // unit per pair: the low-3-bit hazard signatures must not meet.
        return (row.flags & s.uHaz & 7) == 0;
    }
};

} // namespace mmxdsp::sim

#endif // MMXDSP_SIM_PENTIUM_TIMER_HH
