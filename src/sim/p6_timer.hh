/**
 * @file
 * Trace-driven timing model of the Pentium II (P6) front end.
 *
 * This is the machine behind the paper's dynamic micro-op counts: the
 * P6 decoders translate each x86 instruction into uops (the counts in
 * sim::uopTable()) and the core issues them at a fixed width. We model
 * the in-order front end and retirement only:
 *
 *  - 4-1-1 decode: up to decode_width instructions per cycle, of which
 *    only decoder 0 may produce a multi-uop (up to complex_uops)
 *    template; longer instructions are microcoded and decode alone,
 *  - issue_width uops per cycle into the core, retire_width uops per
 *    cycle out of it (the reorder buffer drains at retire_width, which
 *    backpressures decode on uop-dense code),
 *  - a register scoreboard for result latencies reusing isa::RegTag
 *    (with the P6's pipelined multiplier: imul/mul latency drops to 4),
 *  - the same shared mem::MemoryHierarchy / mem::Btb structures as the
 *    P5 model, with the P6's deeper-pipeline mispredict penalty.
 *
 * NOT modelled (see DESIGN.md): out-of-order scheduling, register
 * renaming, the reservation station, or non-blocking loads. Dependency
 * stalls are therefore in-order upper bounds, which is consistent with
 * the paper's static-latency accounting methodology.
 */

#ifndef MMXDSP_SIM_P6_TIMER_HH
#define MMXDSP_SIM_P6_TIMER_HH

#include <algorithm>
#include <array>
#include <cstdint>

#include "isa/event.hh"
#include "mem/btb.hh"
#include "mem/cache.hh"
#include "sim/timing_model.hh"
#include "sim/uop.hh"

namespace mmxdsp::sim {

/**
 * The P6 cycle-accounting engine. Same contract as PentiumTimer: feed
 * events in program order, each consume() returns the cycles that event
 * advanced the machine (0 when it joined an already-open decode group),
 * and per-event costs sum exactly to cycles().
 *
 * Final, with the per-event methods inline, for the same reason as
 * PentiumTimer: replay kernels holding a P6Timer by concrete type get
 * fully devirtualized, register-resident inner loops.
 */
class P6Timer final : public TimingModel
{
  public:
    explicit P6Timer(const TimerConfig &config = TimerConfig{});

    /** Account one instruction; returns the cycle cost charged to it. */
    uint64_t
    consume(const isa::InstrEvent &event) override
    {
        bool mispredict = false;
        if (isa::isControl(event.op))
            mispredict = btb_.predict(event.site, event.taken);
        uint32_t mem_penalty = 0;
        if (event.mem != isa::MemMode::None)
            mem_penalty = memory_.access(event.addr, event.size,
                                         event.mem == isa::MemMode::Store);
        return consumeResolved(event, mem_penalty, mispredict);
    }

    /**
     * consume() with the data-access penalty and branch outcome
     * supplied by the caller; the internal cache hierarchy and BTB are
     * neither consulted nor updated. Because every model resolves
     * outcomes through identical mem::MemoryHierarchy / mem::Btb
     * structures keyed only on the event stream, one recorded outcome
     * memo serves P5 and P6 replays alike. @p mem_penalty must be 0 for
     * non-memory ops and @p mispredict false for non-control ops.
     */
    uint64_t
    consumeResolved(const isa::InstrEvent &event, uint32_t mem_penalty,
                    bool mispredict) override
    {
        const UopDesc &desc = descs_[uopTableIndex(event)];
        const uint32_t uops = desc.uops;
        const uint64_t before = time_;
        ++stats_.instructions;
        stats_.uopsIssued += uops;

        const uint64_t ready =
            std::max(ready_[event.src0], ready_[event.src1]);

        stats_.memPenaltyCycles += mem_penalty;

        const P6Params &p6 = config_.p6;
        uint64_t issue;
        if (slotsLeft_ > 0 && uopsLeft_ >= uops
            && (uops <= 1 || complexFree_) && uops <= p6.complex_uops
            && ready <= groupCycle_ && mem_penalty == 0 && !mispredict) {
            // Decode into the open group: a free 4-1-1 slot, issue
            // bandwidth left this cycle, and operands already ready.
            issue = groupCycle_;
            --slotsLeft_;
            uopsLeft_ -= uops;
            if (uops > 1)
                complexFree_ = false;
            ++stats_.pairs;
        } else {
            // Start a new decode group. It may not run ahead of
            // retirement (the ROB drains retire_width uops/cycle)...
            uint64_t at = time_;
            const uint64_t retire_floor = retiredUops_ / p6.retire_width;
            if (retire_floor > at) {
                stats_.retireStallCycles += retire_floor - at;
                at = retire_floor;
            }
            // ...or of its operands (in-order issue, no renaming).
            if (ready > at) {
                stats_.dependStallCycles += ready - at;
                at = ready;
            }

            // issue_width uops leave per cycle; microcoded templates
            // (uops > complex_uops) stream from the ROM and decode alone.
            const uint32_t occupy = (uops + p6.issue_width - 1)
                                    / p6.issue_width;
            if (occupy > 1)
                stats_.blockingExtraCycles += occupy - 1;

            issue = at;
            time_ = at + occupy + mem_penalty;
            if (occupy == 1 && mem_penalty == 0 && !mispredict) {
                groupCycle_ = at;
                slotsLeft_ = p6.decode_width - 1;
                uopsLeft_ = p6.issue_width - uops;
                complexFree_ = uops <= 1;
            } else {
                slotsLeft_ = 0;
            }
        }

        retiredUops_ += uops;
        ready_[event.dst] = issue + desc.latP6 + mem_penalty;
        ready_[isa::kNoReg] = 0; // restore the sentinel

        if (mispredict) {
            time_ += p6.mispredict_penalty;
            stats_.mispredictCycles += p6.mispredict_penalty;
            slotsLeft_ = 0;
        }

        return time_ - before;
    }

    /** Batched consume: one virtual dispatch per block of events. */
    void
    consumeBatch(std::span<const isa::InstrEvent> events,
                 uint64_t *costs) override
    {
        for (size_t i = 0; i < events.size(); ++i)
            costs[i] = consume(events[i]);
    }

    /** Total cycles of everything consumed so far. */
    uint64_t cycles() const override { return time_; }

    /** Reset time, scoreboard, caches, and BTB. */
    void reset() override;

    /** Reset time/scoreboard but keep cache + BTB contents warm. */
    void resetTimeOnly();

    const TimerStats &stats() const override { return stats_; }
    const mem::MemoryHierarchy &memory() const override { return memory_; }
    const mem::Btb &btb() const override { return btb_; }
    const TimerConfig &config() const override { return config_; }
    ModelKind kind() const override { return ModelKind::P6; }

  private:
    TimerConfig config_;
    mem::MemoryHierarchy memory_;
    mem::Btb btb_;
    /** sim::descTable().data(), hoisted past the static-init guard. */
    const UopDesc *descs_;

    uint64_t time_ = 0;       ///< next cycle a new decode group may start
    uint64_t groupCycle_ = 0; ///< issue cycle of the open decode group
    uint32_t slotsLeft_ = 0;  ///< decode slots left in the open group
    uint32_t uopsLeft_ = 0;   ///< issue-width uops left in the open group
    bool complexFree_ = true; ///< decoder 0 (the 4-uop one) still free
    uint64_t retiredUops_ = 0;

    /** Result-ready cycle per scoreboard slot; same 256-entry sentinel
     *  layout as PentiumTimer (slot isa::kNoReg pinned at zero). */
    std::array<uint64_t, 256> ready_{};

    TimerStats stats_;
};

} // namespace mmxdsp::sim

#endif // MMXDSP_SIM_P6_TIMER_HH
