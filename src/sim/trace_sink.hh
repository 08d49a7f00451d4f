/**
 * @file
 * Consumer interface for the instruction-event stream.
 *
 * The runtime (runtime/cpu.hh) produces InstrEvents; anything that wants
 * to observe them — the profiler, the timing model, a raw trace dumper —
 * implements TraceSink. The profiler owns a PentiumTimer internally, so
 * most programs attach a single sink.
 */

#ifndef MMXDSP_SIM_TRACE_SINK_HH
#define MMXDSP_SIM_TRACE_SINK_HH

#include <span>

#include "isa/event.hh"

namespace mmxdsp::sim {

/** Receives the executed instructions in program order, in blocks. */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /**
     * Called with a block of consecutive instructions in program order.
     * Both producers — the runtime's live capture (runtime::Cpu buffers
     * kEmitBatch events and flushes here) and trace::MaterializedTrace
     * replay — deliver events in cache-friendly blocks, so a sink pays
     * one virtual dispatch per block instead of one per instruction.
     * A block may hold any number of events, one included. Producers
     * always flush before onEnterFunction/onLeaveFunction, so a block
     * never spans a function marker: the concatenation of blocks,
     * interleaved with the markers, is exactly the program-order
     * per-instruction stream.
     */
    virtual void onInstrBatch(std::span<const isa::InstrEvent> events) = 0;

    /** Called when the runtime enters a named function (after `call`). */
    virtual void onEnterFunction(const char *name) { (void)name; }

    /** Called when the runtime leaves a function (after `ret`). */
    virtual void onLeaveFunction() {}
};

/**
 * Fans one event stream out to two sinks in order (either may be null).
 * Used to profile live while a trace::MaterializeSink captures the same
 * execution, which is how the tests hold replay to the live profile of
 * one run.
 */
class TeeSink final : public TraceSink
{
  public:
    TeeSink(TraceSink *first, TraceSink *second)
        : first_(first), second_(second)
    {
    }

    void
    onInstrBatch(std::span<const isa::InstrEvent> events) override
    {
        if (first_)
            first_->onInstrBatch(events);
        if (second_)
            second_->onInstrBatch(events);
    }

    void
    onEnterFunction(const char *name) override
    {
        if (first_)
            first_->onEnterFunction(name);
        if (second_)
            second_->onEnterFunction(name);
    }

    void
    onLeaveFunction() override
    {
        if (first_)
            first_->onLeaveFunction();
        if (second_)
            second_->onLeaveFunction();
    }

  private:
    TraceSink *first_;
    TraceSink *second_;
};

} // namespace mmxdsp::sim

#endif // MMXDSP_SIM_TRACE_SINK_HH
