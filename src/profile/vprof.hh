/**
 * @file
 * VProf — the profiling tool standing in for Intel VTune 2.5.1.
 *
 * VProf is a sim::TraceSink: attach it to a runtime::Cpu and run the
 * measured region. It feeds every instruction to the Pentium timing
 * model, counts dynamic and static (unique-site) instructions, memory
 * references, Pentium II micro-ops, the MMX instruction-category mix
 * (the paper's Figure 1(a)), and attributes instructions and cycles to
 * the current function so library-call overhead can be quantified
 * (the paper's "ret and call consume 23.88% of total cycles" analysis).
 *
 * The per-event path is deliberately flat: site statistics live in a
 * hash map keyed by site id (a loaded trace's ids are any u32, so
 * nothing is sized by one), function attribution goes through
 * an interned id resolved on enter/leave rather than a map lookup per
 * instruction, and the per-(op, memory mode) facts (micro-op count,
 * call/ret and call-overhead attribution) come from sim::descTable(),
 * the table every timer and replay kernel reads. The
 * batched sink entry point (onInstrBatch) amortizes the virtual
 * dispatch over whole blocks for replay producers that can deliver
 * them.
 */

#ifndef MMXDSP_PROFILE_VPROF_HH
#define MMXDSP_PROFILE_VPROF_HH

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "isa/event.hh"
#include "mem/btb.hh"
#include "mem/cache.hh"
#include "sim/timing_model.hh"
#include "sim/trace_sink.hh"

namespace mmxdsp::runtime {
class Cpu;
}

namespace mmxdsp::profile {

/** Per-function attribution (functions modelled via CallGuard). */
struct FunctionStats
{
    uint64_t calls = 0;
    uint64_t instructions = 0;
    uint64_t cycles = 0;
};

/** Everything VTune reported for one measured region. */
struct ProfileResult
{
    uint64_t dynamicInstructions = 0;
    uint64_t staticInstructions = 0;
    uint64_t uops = 0;
    uint64_t cycles = 0;
    uint64_t memoryReferences = 0;

    uint64_t mmxInstructions = 0;
    /** Indexed by isa::MmxCategory (None slot unused). */
    std::array<uint64_t, 5> mmxByCategory{};

    uint64_t functionCalls = 0;
    /** Cycles spent in call and ret instructions themselves. */
    uint64_t callRetCycles = 0;
    /** Cycles in call/ret plus argument pushes and stack cleanup. */
    uint64_t callOverheadCycles = 0;

    std::array<uint64_t, isa::kNumOps> opCounts{};
    std::map<std::string, FunctionStats> functions;

    sim::TimerStats timer;
    mem::CacheStats l1;
    mem::CacheStats l2;
    mem::BtbStats btb;

    // -- derived metrics used by the paper's tables --
    double pctMemoryReferences() const;
    double pctMmx() const;
    double pctMmxOfCategory(isa::MmxCategory cat) const;
    double pctCallRetCycles() const;
    double instructionsPerCycle() const;
};

/** Name of the implicit root function instructions outside any
 *  CallGuard are attributed to ("<measured-root>"). */
const char *rootFunctionName();

/**
 * The profiler/timing sink. Attach with cpu.attachSink(&vprof), run the
 * measured code, then read result().
 */
class VProf : public sim::TraceSink
{
  public:
    /** Profile on the default machine (P5) with @p config. */
    explicit VProf(const sim::TimerConfig &config = sim::TimerConfig{});

    /** Profile on the machine @p machine selects (P5 or P6). */
    explicit VProf(const sim::MachineConfig &machine);

    void onInstr(const isa::InstrEvent &event) override;
    void onInstrBatch(std::span<const isa::InstrEvent> events) override;
    void onEnterFunction(const char *name) override;
    void onLeaveFunction() override;

    /** Snapshot of all metrics collected so far. */
    ProfileResult result() const;

    /** Per-site dynamic counts. */
    struct SiteStats
    {
        uint64_t instructions = 0;
        uint64_t cycles = 0;
    };

    /** Per-site statistics keyed by site id, one entry per site that
     *  executed an instruction. */
    const std::unordered_map<uint32_t, SiteStats> &
    sites() const
    {
        return siteStats_;
    }

    /** Maps a static-site id to a printable "file:line" label. */
    using SiteLabeler = std::function<std::string(uint32_t)>;

    /**
     * Print a VTune-style report: summary, instruction mix, function
     * breakdown, and the top-N hottest static sites (needs the Cpu to
     * translate site ids back to file:line).
     */
    void printReport(const runtime::Cpu &cpu, size_t top_sites = 10) const;

    /**
     * Same report with an arbitrary site labeler — lets trace replays
     * print hotspots using the site table embedded in the trace instead
     * of the live process's site table.
     */
    void printReport(const SiteLabeler &label, size_t top_sites = 10) const;

    /** The timing model this profiler is attached to. */
    const sim::TimingModel &timer() const { return *timer_; }

  private:
    /** The per-event accounting body shared by onInstr/onInstrBatch. */
    void account(const isa::InstrEvent &event);

    /** Id for @p name, interning it on first sight (0 = measured root). */
    uint32_t internFunction(const char *name);

    std::unique_ptr<sim::TimingModel> timer_;

    uint64_t dynamicInstructions_ = 0;
    uint64_t uops_ = 0;
    uint64_t memoryReferences_ = 0;
    uint64_t callRetCycles_ = 0;
    uint64_t callOverheadCycles_ = 0;

    std::array<uint64_t, isa::kNumOps> opCounts_{};
    std::array<uint64_t, isa::kNumOps> opCycles_{};
    std::array<uint64_t, 5> mmxByCategory_{};

    std::unordered_map<uint32_t, SiteStats> siteStats_;

    /** Interned function names; index 0 is the measured root. */
    std::vector<std::string> fnNames_;
    std::vector<FunctionStats> fnStats_;
    std::unordered_map<std::string, uint32_t> fnIds_;
    std::vector<uint32_t> fnStack_;
    /** Index of the function current events belong to (0 = root). */
    uint32_t currentFn_ = 0;
};

} // namespace mmxdsp::profile

#endif // MMXDSP_PROFILE_VPROF_HH
