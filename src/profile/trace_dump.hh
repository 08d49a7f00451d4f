/**
 * @file
 * A human-readable instruction-trace sink, in the spirit of VTune's
 * instruction view: one line per executed instruction with the
 * mnemonic, register tags, memory operand, and source site. Useful for
 * debugging emitted code and for golden-trace tests.
 */

#ifndef MMXDSP_PROFILE_TRACE_DUMP_HH
#define MMXDSP_PROFILE_TRACE_DUMP_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/trace_sink.hh"

namespace mmxdsp::runtime {
class Cpu;
}

namespace mmxdsp::profile {

/**
 * Collects a bounded, formatted trace. Attach to a Cpu, run the region
 * of interest, then read lines() or write them to a stream. Recording
 * stops silently at the line limit (the count keeps advancing so the
 * caller can see how much was dropped).
 */
class TraceDump : public sim::TraceSink
{
  public:
    /** @param max_lines cap on retained lines (default 64k). */
    explicit TraceDump(size_t max_lines = 65536);

    void onInstrBatch(std::span<const isa::InstrEvent> events) override;
    void onEnterFunction(const char *name) override;
    void onLeaveFunction() override;

    const std::vector<std::string> &lines() const { return lines_; }
    uint64_t totalEvents() const { return total_; }
    void clear();

    /**
     * Render one event the way the dump does (exposed for tests):
     * e.g. "  paddw   mm2, mm1", "  mov     r3, [0x1020] ; 4B load".
     */
    static std::string format(const isa::InstrEvent &event, int depth);

    /** Write all collected lines to stdout. */
    void print() const;

  private:
    size_t maxLines_;
    int depth_ = 0;
    uint64_t total_ = 0;
    std::vector<std::string> lines_;
};

} // namespace mmxdsp::profile

#endif // MMXDSP_PROFILE_TRACE_DUMP_HH
