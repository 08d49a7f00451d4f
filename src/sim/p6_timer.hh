/**
 * @file
 * Trace-driven timing models of the P6 family: the Pentium II (P6)
 * front end and, on top of it, a Pentium III-class issue-port machine
 * (P6P).
 *
 * The P6 is the machine behind the paper's dynamic micro-op counts:
 * the P6 decoders translate each x86 instruction into uops (the counts
 * in sim::descTable()) and the core issues them at a fixed width. We
 * model the in-order front end only, at the Pentium II's fixed widths:
 *
 *  - 4-1-1 decode: three decoders, of which only decoder 0 takes a
 *    multi-uop (up to 4-uop) template; longer templates are microcoded
 *    and decode alone,
 *  - kIssueWidth = 3 uops per cycle into the core (and 3 retired per
 *    cycle out of it),
 *  - a register scoreboard for result latencies reusing isa::RegTag
 *    (with the P6's pipelined multiplier: imul/mul latency drops to 4,
 *    vs 10 on the Pentium — half of why the paper's FIR/LMS kernels
 *    behave so differently across the two machines),
 *  - the same shared mem::MemoryHierarchy / mem::Btb structures as the
 *    P5 model, with the P6's deeper-pipeline mispredict penalty.
 *
 * At these widths the issue bandwidth is the one front-end rule that
 * can bind; every other is implied by it, and none is coded:
 *
 *  - decode slots: every op is at least one uop (isa::opTable(), as
 *    IsaTable.EveryOpHasSaneAttributes checks), so the op that opens a
 *    group leaves at most 2 issue slots and at most 2 more ops — the
 *    two simple decoders — can join it;
 *  - decoder 0: a multi-uop joiner needs 2 issue slots left, which
 *    only a 1-uop opener leaves, and then it is the group's only
 *    multi-uop op and takes at most the 2 slots left, well inside the
 *    4-uop limit;
 *  - retirement: a group issues at most 3 uops per cycle it occupies
 *    and the next group starts no earlier than those cycles end, so
 *    the uops issued so far never exceed 3 times the clock, and a
 *    3-wide retire stage never holds decode back
 *    (TimerStats::retireStallCycles stays 0).
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
 *    kWindow = 8 cycles before the latest port dispatch, so a port-bound
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
    using Base::mispredictPenalty_;

  public:
    /** Uops issued per cycle. */
    static constexpr uint32_t kIssueWidth = 3;
    /** Cycles the latest port dispatch may lead a new decode group
     *  (P6P only). */
    static constexpr uint32_t kWindow = 8;

    /** Never inlined, see TimerBase. */
    [[gnu::noinline]] explicit P6FamilyTimer(
        const TimerConfig &config = TimerConfig{})
        : Base(config, Ports ? ModelKind::P6P : ModelKind::P6)
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
        if (uopsLeft_ >= uops && ready <= groupCycle_ && mem_penalty == 0
            && !mispredict) {
            // Decode into the open group: issue bandwidth left this
            // cycle and operands already ready. Port pressure only
            // gates the *next* group, through the window.
            issue = groupCycle_;
            uopsLeft_ -= uops;
            ++stats_.pairs;
        } else {
            // Start a new decode group. It may not run ahead of its
            // operands (in-order issue, no renaming)...
            uint64_t at = time_;
            if (ready > at) {
                stats_.dependStallCycles += ready - at;
                at = ready;
            }
            // ...nor (P6P) more than kWindow cycles of port dispatch.
            if constexpr (Ports) {
                const uint64_t port_floor =
                    lastDispatch_ > kWindow ? lastDispatch_ - kWindow : 0;
                if (port_floor > at) {
                    stats_.portStallCycles += port_floor - at;
                    at = port_floor;
                }
            }

            // kIssueWidth uops leave per cycle: a longer template holds
            // decode for ceil(uops / kIssueWidth) cycles and closes its
            // group, as a cache miss or a mispredict does.
            const uint32_t occupy = (uops + kIssueWidth - 1) / kIssueWidth;
            if (occupy > 1)
                stats_.blockingExtraCycles += occupy - 1;

            issue = at;
            time_ = at + occupy + mem_penalty;
            groupCycle_ = at;
            uopsLeft_ = occupy == 1 && mem_penalty == 0 && !mispredict
                            ? kIssueWidth - uops
                            : 0;
        }

        if constexpr (Ports)
            dispatch(desc, issue);

        ready_[event.dst] = issue + desc.latP6 + mem_penalty;
        ready_[isa::kNoReg] = 0; // restore the sentinel

        if (mispredict) {
            time_ += mispredictPenalty_;
            stats_.mispredictCycles += mispredictPenalty_;
        }

        return time_ - before;
    }

    /** Total cycles of everything consumed so far. */
    uint64_t cycles() const override { return time_; }

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

    uint64_t time_ = 0;       ///< next cycle a new decode group may start
    uint64_t groupCycle_ = 0; ///< issue cycle of the open decode group
    /** Issue slots left in the open group; 0 when none is open. */
    uint32_t uopsLeft_ = 0;

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
