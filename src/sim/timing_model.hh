/**
 * @file
 * The model-agnostic timing layer.
 *
 * The paper characterizes every benchmark on *two* microarchitectures:
 * the Pentium (P5) in-order dual-pipe machine its cycle counts come
 * from, and the Pentium Pro / Pentium II (P6) decode model behind its
 * dynamic micro-op counts. TimingModel is the interface both machines
 * implement; everything above the sim layer (profiler, harness, trace
 * replay, bench CLI) selects a machine through MachineConfig instead of
 * naming a concrete timer.
 *
 * The contract every model obeys:
 *
 *  - consume() accounts one instruction in program order and returns
 *    the cycles that event advanced the machine, so per-event costs sum
 *    exactly to cycles();
 *  - consumeResolved() is consume() with both outcomes supplied by
 *    the caller — the data access's penalty and the branch outcome:
 *    the model's own cache hierarchy and BTB must be neither consulted
 *    nor updated, which is what lets one memoized penalty-class stream
 *    (recorded per cache geometry) and one mispredict bitvector
 *    (recorded per BTB geometry) drive every model that shares them;
 *  - outcome resolution in consume() is exactly
 *    `memory().access(addr, size, store)` for memory ops and
 *    `btb().predict(site, taken)` for control-transfer ops, and
 *    nothing else, so recorded outcomes are model-independent.
 */

#ifndef MMXDSP_SIM_TIMING_MODEL_HH
#define MMXDSP_SIM_TIMING_MODEL_HH

#include <cstdint>
#include <memory>
#include <span>

#include "isa/event.hh"
#include "mem/btb.hh"
#include "mem/cache.hh"

namespace mmxdsp::sim {

/** Pentium II front-end parameters (consumed by P6Timer only). */
struct P6Params
{
    uint32_t decode_width = 3;  ///< instructions decoded per cycle (4-1-1)
    uint32_t complex_uops = 4;  ///< decoder 0 handles up to this many uops
    uint32_t issue_width = 3;   ///< uops issued to the core per cycle
    uint32_t retire_width = 3;  ///< uops retired per cycle
    uint32_t mispredict_penalty = 11; ///< deeper pipeline than the P5's 4
};

/**
 * Pentium III-class port-model parameters (consumed by P6PTimer only).
 * The front end is the P6's (4-1-1 decode, issue/retire widths); on top
 * of it every uop must dispatch to one of five single-issue execution
 * ports (p0/p1 ALU, p2 load, p3 store-address, p4 store-data), and
 * decode may run at most `window` cycles ahead of the latest dispatch —
 * a small scheduler window, so sustained decode collapses to the
 * port-bound dispatch rate instead of the issue width.
 */
struct P6PParams
{
    uint32_t decode_width = 3;  ///< instructions decoded per cycle (4-1-1)
    uint32_t complex_uops = 4;  ///< decoder 0 handles up to this many uops
    uint32_t issue_width = 3;   ///< uops issued to the core per cycle
    uint32_t retire_width = 3;  ///< uops retired per cycle
    uint32_t window = 8;        ///< cycles decode may lead port dispatch
    uint32_t mispredict_penalty = 12; ///< one stage deeper than the P6
};

/** Tunable parameters shared by every timing model. */
struct TimerConfig
{
    mem::CacheConfig l1{"L1D", 16 * 1024, 32, 4};
    mem::CacheConfig l2{"L2", 512 * 1024, 32, 4};
    mem::MemoryHierarchy::Penalties penalties{};
    uint32_t btb_entries = 256;
    uint32_t btb_ways = 4;
    uint32_t mispredict_penalty = 4;
    P6Params p6{};
    P6PParams p6p{};
};

/** Which microarchitecture a MachineConfig selects. */
enum class ModelKind : uint8_t {
    P5,  ///< Pentium-with-MMX in-order dual-pipe (PentiumTimer)
    P6,  ///< Pentium II uop-issue front end (P6Timer)
    P6P, ///< Pentium III-class issue-port model (P6PTimer)
};

/** Number of ModelKind values (for table-driven iteration). */
constexpr size_t kNumModelKinds = 3;

/** Short lower-case name ("p5" / "p6" / "p6p") for reports and CLI
 *  flags. */
const char *modelName(ModelKind kind);

/**
 * Parse "p5" / "p6" / "p6p" (case-sensitive, as documented in --help)
 * into @p out. Returns false on any other string, leaving @p out
 * untouched.
 */
bool parseModelName(const char *name, ModelKind *out);

/** One simulated machine: a microarchitecture plus its parameters. */
struct MachineConfig
{
    ModelKind model = ModelKind::P5;
    TimerConfig timer{};
};

/** Aggregate timing statistics (the stall breakdown of one model). */
struct TimerStats
{
    uint64_t instructions = 0;
    /** P5: instructions issued into the V pipe; P6: instructions that
     *  joined an already-open decode group. */
    uint64_t pairs = 0;
    uint64_t memPenaltyCycles = 0;
    uint64_t mispredictCycles = 0;
    uint64_t dependStallCycles = 0;
    uint64_t blockingExtraCycles = 0; ///< cycles >1 held by NP/long ops
    /** Micro-ops issued (P6/P6P models only; stays 0 on the P5). */
    uint64_t uopsIssued = 0;
    /** Cycles lost to the retire-width limit (P6/P6P models only). */
    uint64_t retireStallCycles = 0;
    /** Cycles decode stalled behind the port-dispatch window (P6P model
     *  only; stays 0 on the P5 and P6). */
    uint64_t portStallCycles = 0;

    /** Fraction of instructions that shared an issue slot (paired into
     *  the V pipe on P5, joined a decode group on P6). */
    double
    pairRate() const
    {
        return instructions ? static_cast<double>(pairs)
                                  / static_cast<double>(instructions)
                            : 0.0;
    }
};

/**
 * A trace-driven cycle-accounting machine. Concrete models are final
 * classes, so code holding one by concrete type (the replay kernels)
 * still gets fully inlined per-event calls; code that only knows the
 * machine at run time (the profiler, anything driven by a
 * MachineConfig) pays one virtual dispatch per event or batch.
 */
class TimingModel
{
  public:
    virtual ~TimingModel() = default;

    /** Account one instruction; returns the cycle cost charged to it. */
    virtual uint64_t consume(const isa::InstrEvent &event) = 0;

    /**
     * consume() with both outcomes supplied by the caller instead of
     * this model's cache hierarchy and BTB (which must stay untouched):
     * @p memPenalty is what memory().access() would have charged (0 for
     * non-memory ops), @p mispredict the branch outcome (false for
     * non-control ops).
     */
    virtual uint64_t consumeResolved(const isa::InstrEvent &event,
                                     uint32_t memPenalty,
                                     bool mispredict) = 0;

    /**
     * Account a block of consecutive instructions, writing each event's
     * cycle cost to @p costs (which must hold events.size() slots).
     * Models override this with a tight loop so batched producers pay
     * one virtual dispatch per block; the default forwards to consume().
     */
    virtual void
    consumeBatch(std::span<const isa::InstrEvent> events, uint64_t *costs)
    {
        for (size_t i = 0; i < events.size(); ++i)
            costs[i] = consume(events[i]);
    }

    /** Total cycles of everything consumed so far. */
    virtual uint64_t cycles() const = 0;

    /** Reset time, scoreboard, caches, and BTB. */
    virtual void reset() = 0;

    virtual const TimerStats &stats() const = 0;
    virtual const mem::MemoryHierarchy &memory() const = 0;
    virtual const mem::Btb &btb() const = 0;
    virtual const TimerConfig &config() const = 0;
    virtual ModelKind kind() const = 0;
};

/** Build the timing model @p machine selects. */
std::unique_ptr<TimingModel> makeTimingModel(const MachineConfig &machine);

} // namespace mmxdsp::sim

#endif // MMXDSP_SIM_TIMING_MODEL_HH
