/**
 * @file
 * Trace-driven timing models of the P6 family: the Pentium II (P6)
 * front end and, on top of it, a Pentium III-class issue-port machine
 * (P6P).
 *
 * The P6 is the machine behind the paper's dynamic micro-op counts:
 * the P6 decoders translate each x86 instruction into uops (the counts
 * in sim::uopTable()) and the core issues them at a fixed width. We
 * model the in-order front end and retirement only:
 *
 *  - 4-1-1 decode: up to decode_width instructions per cycle, of which
 *    only decoder 0 may produce a multi-uop (up to complex_uops)
 *    template; longer instructions are microcoded and decode alone,
 *  - issue_width uops per cycle into the core, retire_width uops per
 *    cycle out of it (the reorder buffer drains at retire_width, which
 *    backpressures decode on uop-dense code),
 *  - a register scoreboard for result latencies reusing isa::RegTag
 *    (with the P6's pipelined multiplier: imul/mul latency drops to 4,
 *    vs 10 on the Pentium — half of why the paper's FIR/LMS kernels
 *    behave so differently across the two machines),
 *  - the same shared mem::MemoryHierarchy / mem::Btb structures as the
 *    P5 model, with the P6's deeper-pipeline mispredict penalty.
 *
 * The P6 stops at those widths: any three uops issue per cycle, no
 * matter which execution units they need. The machines the paper's
 * lineage leads to (the PIII of Aberdeen & Baxter's SIMD GEMM work) are
 * instead limited by *issue-port contention*. The P6P model (the Ports
 * arm of the template) adds exactly that to the same front end:
 *
 *  - five single-issue execution ports: p0 and p1 take compute uops
 *    (p0 the multipliers/dividers/x87, p1 the MMX shifter and branch
 *    resolution, either port the plain ALU uops — earliest-free wins,
 *    ties to p0), p2 takes loads, p3/p4 the store-address/store-data
 *    pair (UopDesc::port / aluUops / loadUops / storeOps);
 *  - a small scheduler window: a new decode group may start at most
 *    `window` cycles before the latest port dispatch, so a port-bound
 *    stream backpressures the front end and sustained throughput
 *    collapses to the dispatch rate (two ALU uops per cycle on a
 *    dual-ALU-saturating stream, where the P6 model would claim three).
 *    The cycles a new group waits for that floor are
 *    TimerStats::portStallCycles;
 *  - a mispredict penalty one stage deeper than the P6's.
 *
 * NOT modelled (see DESIGN.md): out-of-order scheduling and selection
 * from the window (dispatch is in program order per port), register
 * renaming, the reservation station, or non-blocking loads. Dependency
 * stalls are therefore in-order upper bounds, which is consistent with
 * the paper's static-latency accounting methodology. Port dispatch
 * delays bound decode through the window but do not extend result
 * latencies — scoreboard readiness stays issue + latency on both
 * models, which keeps dependency stalls comparable across them.
 */

#ifndef MMXDSP_SIM_P6_TIMER_HH
#define MMXDSP_SIM_P6_TIMER_HH

#include <algorithm>
#include <array>
#include <cstdint>

#include "isa/event.hh"
#include "sim/timing_model.hh"
#include "sim/uop.hh"

namespace mmxdsp::sim {

/**
 * The P6-family cycle-accounting engine: the P6 model, or with @p Ports
 * the P6P. Same contract as PentiumTimer: feed events in program order,
 * each consume() returns the cycles that event advanced the machine (0
 * when it joined an already-open decode group), and per-event costs sum
 * exactly to cycles().
 *
 * Final, with the per-event methods inline, for the same reason as
 * PentiumTimer: replay kernels holding one by concrete type get fully
 * devirtualized, register-resident inner loops.
 */
template <bool Ports>
class P6FamilyTimer final : public TimerBase<P6FamilyTimer<Ports>>
{
    using Base = TimerBase<P6FamilyTimer>;
    using Base::descs_;

  public:
    /** Never inlined, see TimerBase. */
    [[gnu::noinline]] explicit P6FamilyTimer(
        const TimerConfig &config = TimerConfig{})
        : Base(config),
          fe_(frontEnd(Ports ? ModelKind::P6P : ModelKind::P6, config))
    {
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
                    bool mispredict)
    {
        const UopDesc &desc = descs_[uopTableIndex(event)];
        const uint32_t uops = desc.uops;
        const uint64_t before = time_;
        ++stats_.instructions;
        stats_.uopsIssued += uops;

        const uint64_t ready =
            std::max(ready_[event.src0], ready_[event.src1]);

        stats_.memPenaltyCycles += mem_penalty;

        uint64_t issue;
        if (slotsLeft_ > 0 && uopsLeft_ >= uops
            && (uops <= 1 || complexFree_) && uops <= fe_.complex_uops
            && ready <= groupCycle_ && mem_penalty == 0 && !mispredict) {
            // Decode into the open group: a free 4-1-1 slot, issue
            // bandwidth left this cycle, and operands already ready.
            // Port pressure only gates the *next* group, through the
            // window.
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
            const uint64_t retire_floor = retiredUops_ / fe_.retire_width;
            if (retire_floor > at) {
                stats_.retireStallCycles += retire_floor - at;
                at = retire_floor;
            }
            // ...or of its operands (in-order issue, no renaming)...
            if (ready > at) {
                stats_.dependStallCycles += ready - at;
                at = ready;
            }
            // ...and (P6P) more than `window` cycles of port dispatch.
            if constexpr (Ports) {
                const uint64_t port_floor = lastDispatch_ > fe_.window
                                                ? lastDispatch_ - fe_.window
                                                : 0;
                if (port_floor > at) {
                    stats_.portStallCycles += port_floor - at;
                    at = port_floor;
                }
            }

            // issue_width uops leave per cycle; microcoded templates
            // (uops > complex_uops) stream from the ROM and decode alone.
            const uint32_t occupy = (uops + fe_.issue_width - 1)
                                    / fe_.issue_width;
            if (occupy > 1)
                stats_.blockingExtraCycles += occupy - 1;

            issue = at;
            time_ = at + occupy + mem_penalty;
            if (occupy == 1 && mem_penalty == 0 && !mispredict) {
                groupCycle_ = at;
                slotsLeft_ = fe_.decode_width - 1;
                uopsLeft_ = fe_.issue_width - uops;
                complexFree_ = uops <= 1;
            } else {
                slotsLeft_ = 0;
            }
        }

        if constexpr (Ports)
            dispatch(desc, issue);

        retiredUops_ += uops;
        ready_[event.dst] = issue + desc.latP6 + mem_penalty;
        ready_[isa::kNoReg] = 0; // restore the sentinel

        if (mispredict) {
            time_ += fe_.mispredict_penalty;
            stats_.mispredictCycles += fe_.mispredict_penalty;
            slotsLeft_ = 0;
        }

        return time_ - before;
    }

    /** Total cycles of everything consumed so far. */
    uint64_t cycles() const override { return time_; }

    /** Reset time/scoreboard/ports but keep cache + BTB contents warm. */
    void
    resetTimeOnly()
    {
        time_ = 0;
        groupCycle_ = 0;
        slotsLeft_ = 0;
        uopsLeft_ = 0;
        complexFree_ = true;
        retiredUops_ = 0;
        portFree_.fill(0);
        lastDispatch_ = 0;
        ready_.fill(0);
        stats_ = TimerStats{};
    }

    ModelKind
    kind() const override
    {
        return Ports ? ModelKind::P6P : ModelKind::P6;
    }

  private:
    /** Bind every uop of @p desc to its port at the earliest free cycle
     *  at or after @p issue; each port accepts one uop per cycle. */
    void
    dispatch(const UopDesc &desc, uint64_t issue)
    {
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
    }

    /** Dispatch one uop to port @p p no earlier than @p issue. */
    void
    dispatchTo(size_t p, uint64_t issue)
    {
        const uint64_t at = std::max(issue, portFree_[p]);
        portFree_[p] = at + 1;
        if (at > lastDispatch_)
            lastDispatch_ = at;
    }

    /** frontEnd() of this model, read once. */
    const FrontEnd fe_;

    uint64_t time_ = 0;       ///< next cycle a new decode group may start
    uint64_t groupCycle_ = 0; ///< issue cycle of the open decode group
    uint32_t slotsLeft_ = 0;  ///< decode slots left in the open group
    uint32_t uopsLeft_ = 0;   ///< issue-width uops left in the open group
    bool complexFree_ = true; ///< decoder 0 (the 4-uop one) still free
    uint64_t retiredUops_ = 0;

    /** Next free cycle of each single-issue port (p0 p1 p2 p3 p4; P6P
     *  only). */
    std::array<uint64_t, 5> portFree_{};
    /** Latest cycle any uop has dispatched at (the window anchor; P6P
     *  only). */
    uint64_t lastDispatch_ = 0;

    /** Result-ready cycle per scoreboard slot; same 256-entry sentinel
     *  layout as PentiumTimer's. */
    std::array<uint64_t, 256> ready_{};
    TimerStats stats_;

    friend Base;
};

/** The Pentium II decode front end. */
using P6Timer = P6FamilyTimer<false>;
/** The Pentium III-class issue-port model. */
using P6PTimer = P6FamilyTimer<true>;

} // namespace mmxdsp::sim

#endif // MMXDSP_SIM_P6_TIMER_HH
