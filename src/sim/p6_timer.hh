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
 * The P6 family's schedule state: what one event hands the next besides
 * the scoreboard, and the schedule's counters. The ports stay at zero
 * on the P6. Small and plain, so a replay kernel that holds it as a
 * local keeps it in registers.
 */
struct P6State
{
    uint64_t clock = 0;      ///< next cycle a new decode group may start
    uint64_t groupCycle = 0; ///< issue cycle of the open decode group
    /** Issue slots left in the open group; 0 when none is open. */
    uint32_t uopsLeft = 0;
    /**
     * Next free cycle of each single-issue port (P6P only): p0, p1, p2
     * and the store pair p3/p4, which a store's address and data uops
     * take at the same cycle, so one clock serves both. Each port's
     * dispatches run in increasing cycles, so the latest dispatch on
     * any port (the window anchor) is the largest of these less one.
     */
    std::array<uint64_t, 4> portFree{};
    uint64_t pairs = 0;
    uint64_t dependStall = 0;
    uint64_t portStall = 0;

    void
    addTo(TimerStats &t) const
    {
        t.pairs = pairs;
        t.dependStallCycles = dependStall;
        t.portStallCycles = portStall;
    }
};

/**
 * The P6-family cycle-accounting engine: the P6 model, or with @p Ports
 * the P6P. Same contract as PentiumTimer: feed events in program order,
 * each consume() returns the cycles that event advanced the machine (0
 * when it joined an already-open decode group), and per-event costs sum
 * exactly to cycles().
 */
template <bool Ports>
class P6FamilyTimer final : public TimerBase<P6FamilyTimer<Ports>, P6State>
{
    using Base = TimerBase<P6FamilyTimer, P6State>;

  public:
    using State = P6State;

    /** Uops issued per cycle. */
    static constexpr uint32_t kIssueWidth = kP6IssueWidth;
    /** Cycles the latest port dispatch may lead a new decode group
     *  (P6P only). */
    static constexpr uint32_t kWindow = 8;

    explicit P6FamilyTimer(
        const TimerConfig &config = TimerConfig{})
        : Base(config, Ports ? ModelKind::P6P : ModelKind::P6)
    {
    }

    /**
     * The model's rule for one event, with the same arguments as
     * PentiumTimer::step(): the outcomes come from the caller, and the
     * event's cost is the advance of @p s.clock. consume() and both
     * per-machine replay kernels run this; the lane kernel's P6Step
     * mirrors it.
     */
    static void
    step(State &s, Scoreboard &ready, const UopDesc row, isa::RegTag src0,
         isa::RegTag src1, isa::RegTag dst, uint32_t mem_penalty,
         bool mispredict, uint32_t mispredict_penalty)
    {
        const uint64_t rdy = std::max(ready[src0], ready[src1]);
        const bool free = mem_penalty == 0 && !mispredict;

        // Decode into the open group when it has issue bandwidth left
        // this cycle and the operands are already ready. Port pressure
        // only gates the *next* group, through the window. Whether an
        // op joins depends on the data, so both outcomes are computed
        // and one is selected: the compiler then needs no branch on it
        // (an if/else here ran 1.2-1.4x slower per event).
        const bool join =
            (s.uopsLeft >= row.uops) & (rdy <= s.groupCycle) & free;

        // Otherwise a new decode group starts. It may not run ahead of
        // its operands (in-order issue, no renaming)...
        const uint64_t ready_at = std::max(s.clock, rdy);
        uint64_t at = ready_at;
        // ...nor (P6P) more than kWindow cycles ahead of the latest
        // port dispatch.
        if constexpr (Ports) {
            const uint64_t next =
                std::max(std::max(s.portFree[0], s.portFree[1]),
                         std::max(s.portFree[2], s.portFree[3]));
            at = std::max(at, next > kWindow + 1 ? next - (kWindow + 1) : 0);
            s.portStall += join ? 0 : at - ready_at;
        }
        s.dependStall += join ? 0 : ready_at - s.clock;
        s.pairs += join;

        // kIssueWidth uops leave per cycle: a longer template holds
        // decode for row.occupy cycles and closes its group, as a cache
        // miss or a mispredict does.
        const uint64_t issue = join ? s.groupCycle : at;
        s.clock = join ? s.clock : at + row.occupy + mem_penalty;
        s.uopsLeft = join ? s.uopsLeft - row.uops : free ? row.opens : 0;
        s.groupCycle = issue;

        if constexpr (Ports)
            dispatch(s, row, issue);

        ready[dst] = issue + row.latP6 + mem_penalty;
        ready[isa::kNoReg] = 0; // restore the sentinel

        s.clock += mispredict ? mispredict_penalty : 0;
    }

    /** Decode cycles beyond the first that @p row occupies; such an op
     *  never joins a group, so every one of its events counts them. */
    static uint32_t blockingExtra(const UopDesc &row)
    {
        return row.occupy - 1u;
    }

    static uint32_t uopsIssued(const UopDesc &row) { return row.uops; }

    ModelKind
    kind() const override
    {
        return Ports ? ModelKind::P6P : ModelKind::P6;
    }

  private:
    /** Bind every uop of @p row to its port at the earliest free cycle
     *  at or after @p issue; each port accepts one uop per cycle. */
    static void
    dispatch(State &s, const UopDesc &row, uint64_t issue)
    {
        take(s.portFree[2], issue, row.loadUops);
        take(s.portFree[3], issue, row.storeOps);
        switch (row.port) {
          case PortClass::P0:
            take(s.portFree[0], issue, row.aluUops);
            break;
          case PortClass::P1:
            take(s.portFree[1], issue, row.aluUops);
            break;
          case PortClass::Either:
            // Earliest-free, ties to p0, one uop at a time.
            for (uint32_t k = 0; k < row.aluUops; ++k) {
                if (s.portFree[0] <= s.portFree[1])
                    take(s.portFree[0], issue, 1);
                else
                    take(s.portFree[1], issue, 1);
            }
            break;
        }
    }

    /** Dispatch @p uops uops to @p port, back to back from the first
     *  free cycle at or after @p issue. */
    static void
    take(uint64_t &port, uint64_t issue, uint32_t uops)
    {
        if (uops)
            port = std::max(issue, port) + uops;
    }
};

/** The Pentium II decode front end. */
using P6Timer = P6FamilyTimer<false>;
/** The Pentium III-class issue-port model. */
using P6PTimer = P6FamilyTimer<true>;

} // namespace mmxdsp::sim

#endif // MMXDSP_SIM_P6_TIMER_HH
