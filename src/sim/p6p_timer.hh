/**
 * @file
 * Trace-driven timing model of a Pentium III-class issue-port machine.
 *
 * The P6 model (p6_timer.hh) stops at decode/retire widths: any three
 * uops issue per cycle, no matter which execution units they need. The
 * machines the paper's lineage leads to (the PIII of Aberdeen & Baxter's
 * SIMD GEMM work) are instead limited by *issue-port contention*: each
 * uop must dispatch to one of a handful of single-issue ports, so three
 * ALU uops per cycle cannot be sustained with only two ALU ports no
 * matter how wide decode is. This backend expresses that:
 *
 *  - the P6's in-order 4-1-1 decode front end, issue_width uops per
 *    cycle into the core and retire_width out of it (identical group
 *    logic to P6Timer, driven by the shared sim::UopDesc table),
 *  - five single-issue execution ports: p0 and p1 take compute uops
 *    (p0 the multipliers/dividers/x87, p1 the MMX shifter and branch
 *    resolution, either port the plain ALU uops — earliest-free wins,
 *    ties to p0), p2 takes loads, p3/p4 the store-address/store-data
 *    pair (UopDesc::port / aluUops / loadUops / storeOps),
 *  - a small scheduler window: decode may run at most `window` cycles
 *    ahead of the latest port dispatch, so a port-bound stream
 *    backpressures the front end and sustained throughput collapses to
 *    the dispatch rate (two ALU uops per cycle on a dual-ALU-saturating
 *    stream, where the P6 model would claim three); the cycles lost
 *    this way are reported as TimerStats::portStallCycles,
 *  - the same shared mem::MemoryHierarchy / mem::Btb structures, with a
 *    one-stage-deeper mispredict penalty than the P6.
 *
 * NOT modelled (see DESIGN.md): out-of-order selection from the window
 * (dispatch is in program order per port), register renaming, and
 * non-blocking loads. Port dispatch delays bound decode through the
 * window but do not extend result latencies — scoreboard readiness
 * stays issue + latency, as on the P6, which keeps dependency stalls
 * comparable across the two backends.
 */

#ifndef MMXDSP_SIM_P6P_TIMER_HH
#define MMXDSP_SIM_P6P_TIMER_HH

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
 * The port-model cycle-accounting engine. Same contract as the other
 * timers: feed events in program order, each consume() returns the
 * cycles that event advanced the machine (0 when it joined an open
 * decode group), and per-event costs sum exactly to cycles().
 *
 * Final, with the per-event methods inline, for the same reason as
 * PentiumTimer/P6Timer: replay kernels holding a P6PTimer by concrete
 * type get fully devirtualized inner loops.
 */
class P6PTimer final : public TimingModel
{
  public:
    explicit P6PTimer(const TimerConfig &config = TimerConfig{});

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
     * neither consulted nor updated (the shared-memo contract of
     * TimingModel). @p mem_penalty must be 0 for non-memory ops and
     * @p mispredict false for non-control ops.
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

        const P6PParams &pp = config_.p6p;
        uint64_t issue;
        if (slotsLeft_ > 0 && uopsLeft_ >= uops
            && (uops <= 1 || complexFree_) && uops <= pp.complex_uops
            && ready <= groupCycle_ && mem_penalty == 0 && !mispredict) {
            // Decode into the open group, exactly as on the P6; port
            // pressure only gates the *next* group through the window.
            issue = groupCycle_;
            --slotsLeft_;
            uopsLeft_ -= uops;
            if (uops > 1)
                complexFree_ = false;
            ++stats_.pairs;
        } else {
            // Start a new decode group: behind retirement...
            uint64_t at = time_;
            const uint64_t retire_floor = retiredUops_ / pp.retire_width;
            if (retire_floor > at) {
                stats_.retireStallCycles += retire_floor - at;
                at = retire_floor;
            }
            // ...behind operands (in-order issue, no renaming)...
            if (ready > at) {
                stats_.dependStallCycles += ready - at;
                at = ready;
            }
            // ...and at most `window` cycles ahead of port dispatch.
            const uint64_t port_floor =
                lastDispatch_ > pp.window ? lastDispatch_ - pp.window : 0;
            if (port_floor > at) {
                stats_.portStallCycles += port_floor - at;
                at = port_floor;
            }

            const uint32_t occupy = (uops + pp.issue_width - 1)
                                    / pp.issue_width;
            if (occupy > 1)
                stats_.blockingExtraCycles += occupy - 1;

            issue = at;
            time_ = at + occupy + mem_penalty;
            if (occupy == 1 && mem_penalty == 0 && !mispredict) {
                groupCycle_ = at;
                slotsLeft_ = pp.decode_width - 1;
                uopsLeft_ = pp.issue_width - uops;
                complexFree_ = uops <= 1;
            } else {
                slotsLeft_ = 0;
            }
        }

        // Bind every uop to its port at the earliest free cycle at or
        // after issue; each port accepts one uop per cycle.
        if (desc.loadUops)
            dispatchTo(2, issue);
        if (desc.storeOps) {
            dispatchTo(3, issue);
            dispatchTo(4, issue);
        }
        for (uint32_t k = 0; k < desc.aluUops; ++k) {
            size_t p = 0;
            switch (desc.port) {
              case PortClass::P0:
                break;
              case PortClass::P1:
                p = 1;
                break;
              case PortClass::Either:
                p = portFree_[0] <= portFree_[1] ? 0 : 1;
                break;
            }
            dispatchTo(p, issue);
        }

        retiredUops_ += uops;
        ready_[event.dst] = issue + desc.latP6 + mem_penalty;
        ready_[isa::kNoReg] = 0; // restore the sentinel

        if (mispredict) {
            time_ += pp.mispredict_penalty;
            stats_.mispredictCycles += pp.mispredict_penalty;
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

    /** Reset time, scoreboard, ports, caches, and BTB. */
    void reset() override;

    /** Reset time/scoreboard/ports but keep cache + BTB contents warm. */
    void resetTimeOnly();

    const TimerStats &stats() const override { return stats_; }
    const mem::MemoryHierarchy &memory() const override { return memory_; }
    const mem::Btb &btb() const override { return btb_; }
    const TimerConfig &config() const override { return config_; }
    ModelKind kind() const override { return ModelKind::P6P; }

  private:
    /** Dispatch one uop to port @p p no earlier than @p issue. */
    void
    dispatchTo(size_t p, uint64_t issue)
    {
        const uint64_t at = std::max(issue, portFree_[p]);
        portFree_[p] = at + 1;
        if (at > lastDispatch_)
            lastDispatch_ = at;
    }

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

    /** Next free cycle of each single-issue port (p0 p1 p2 p3 p4). */
    std::array<uint64_t, 5> portFree_{};
    /** Latest cycle any uop has dispatched at (the window anchor). */
    uint64_t lastDispatch_ = 0;

    /** Result-ready cycle per scoreboard slot; same 256-entry sentinel
     *  layout as the other timers (slot isa::kNoReg pinned at zero). */
    std::array<uint64_t, 256> ready_{};

    TimerStats stats_;
};

} // namespace mmxdsp::sim

#endif // MMXDSP_SIM_P6P_TIMER_HH
