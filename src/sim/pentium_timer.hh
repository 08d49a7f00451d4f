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
 * The P5 cycle-accounting engine. Feed it events in program order with
 * consume(); each call returns the cycles that event advanced the machine
 * (0 for the V-pipe half of a pair), so a caller can attribute every
 * cycle to a site or function and the per-event costs sum exactly to
 * cycles().
 *
 * The class is final and its per-event methods are defined inline: the
 * replay kernels hold a PentiumTimer by concrete type, so the virtual
 * TimingModel calls devirtualize and the issue/scoreboard state lives in
 * registers across loop iterations.
 */
class PentiumTimer final : public TimerBase<PentiumTimer>
{
  public:
    /** Never inlined, see TimerBase. */
    [[gnu::noinline]] explicit PentiumTimer(
        const TimerConfig &config = TimerConfig{})
        : TimerBase(config, ModelKind::P5)
    {
    }

    /**
     * consume() with the data-access penalty and the branch outcome
     * supplied by the caller instead of this timer's cache hierarchy
     * and BTB. Memoized replays use this: both outcomes depend only on
     * the cache / BTB geometry, so machines that share one can record
     * the outcomes once and feed them back here. @p mem_penalty must be
     * 0 for non-memory ops and @p mispredict false for non-control ops.
     * Neither structure is consulted or updated, so the caller owns
     * cache- and btb-stat reporting.
     *
     * Inline (as is consume()): the replay loops call this per event,
     * and inlining lets the issue/scoreboard state live in registers
     * across iterations.
     */
    uint64_t
    consumeResolved(const isa::InstrEvent &event, uint32_t mem_penalty,
                    bool mispredict)
    {
        const UopDesc &desc = descs_[uopTableIndex(event)];
        const uint64_t before = nextIssue_;
        ++stats_.instructions;

        // Operand readiness from the scoreboard. Slot kNoReg is a
        // sentinel held at zero, so absent operands need no branches.
        const uint64_t ready =
            std::max(ready_[event.src0], ready_[event.src1]);

        // Data-cache behaviour (blocking on the Pentium).
        stats_.memPenaltyCycles += mem_penalty;

        uint64_t issue;
        if (canPairInV(event, desc, ready, mem_penalty, mispredict)) {
            // Issue in the V pipe alongside the pending U instruction.
            issue = uSlot_.cycle;
            uSlot_.valid = false;
            ++stats_.pairs;
        } else {
            issue = std::max(nextIssue_, ready);
            if (issue > nextIssue_)
                stats_.dependStallCycles += issue - nextIssue_;

            const bool can_open_pair = (desc.flags & kDescPairUP) != 0
                                       && mem_penalty == 0 && !mispredict;
            uSlot_.valid = can_open_pair;
            uSlot_.cycle = issue;
            uSlot_.haz = desc.flags & 7;
            uSlot_.dst = event.dst;

            nextIssue_ = issue + desc.blocking + mem_penalty;
            if (desc.blocking > 1)
                stats_.blockingExtraCycles += desc.blocking - 1;
        }

        ready_[event.dst] = issue + desc.latP5 + mem_penalty;
        ready_[isa::kNoReg] = 0; // restore the sentinel (dst may be absent)

        if (mispredict) {
            nextIssue_ += mispredictPenalty_;
            stats_.mispredictCycles += mispredictPenalty_;
            uSlot_.valid = false;
        }

        return nextIssue_ - before;
    }

    /** Total cycles of everything consumed so far. */
    uint64_t cycles() const override { return nextIssue_; }

    ModelKind kind() const override { return ModelKind::P5; }

  private:
    /** The U-pipe instruction still waiting for a V-pipe partner. */
    struct OpenSlot
    {
        bool valid = false;
        uint64_t cycle = 0;
        /** Structural-hazard signature (UopDesc::flags & 7). */
        uint8_t haz = 0;
        isa::RegTag dst = isa::kNoReg;
    };

    bool
    canPairInV(const isa::InstrEvent &event, const UopDesc &desc,
               uint64_t ready, uint32_t mem_penalty, bool mispredict) const
    {
        if (!uSlot_.valid)
            return false;
        // Only simple single-cycle, non-stalling instructions pair in V
        // (kDescPairPV folds the pairing class and blocking==1 legs).
        if ((desc.flags & kDescPairPV) == 0)
            return false;
        if (mem_penalty != 0 || mispredict)
            return false;
        // Operands must be ready at the U-pipe issue cycle.
        if (ready > uSlot_.cycle)
            return false;
        // No intra-pair RAW or WAW dependence.
        if (isa::tagValid(uSlot_.dst)) {
            if (event.src0 == uSlot_.dst || event.src1 == uSlot_.dst)
                return false;
            if (event.dst == uSlot_.dst)
                return false;
        }
        // One memory reference per pair, one op per single-instance MMX
        // unit per pair: the low-3-bit hazard signatures must not meet.
        if ((desc.flags & uSlot_.haz & 7) != 0)
            return false;
        return true;
    }

    uint64_t nextIssue_ = 0; ///< earliest cycle the next instr may issue
    OpenSlot uSlot_;
    /**
     * Result-ready cycle per scoreboard slot, indexed directly by RegTag.
     * Sized 256 (not kNumTagSlots) so slot isa::kNoReg (0xff) is a live
     * sentinel pinned at zero: reads and writes for absent operands go
     * through it unconditionally instead of branching on tag validity.
     */
    std::array<uint64_t, 256> ready_{};
    TimerStats stats_;

    friend class TimerBase<PentiumTimer>;
};

} // namespace mmxdsp::sim

#endif // MMXDSP_SIM_PENTIUM_TIMER_HH
