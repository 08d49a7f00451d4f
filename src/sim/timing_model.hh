/**
 * @file
 * The model-agnostic timing layer.
 *
 * The paper characterizes every benchmark on *two* microarchitectures:
 * the Pentium (P5) in-order dual-pipe machine its cycle counts come
 * from, and the Pentium Pro / Pentium II (P6) decode model behind its
 * dynamic micro-op counts. TimingModel is the interface every machine
 * implements; everything above the sim layer (profiler, harness, trace
 * replay, bench CLI) selects a machine through MachineConfig instead of
 * naming a concrete timer.
 *
 * The contract every model obeys:
 *
 *  - consume() accounts one instruction in program order and returns
 *    the cycles that event advanced the machine, so per-event costs sum
 *    exactly to cycles();
 *  - each concrete timer's consumeResolved() is consume() with both
 *    outcomes supplied by the caller — the data access's penalty and
 *    the branch outcome: the model's own cache hierarchy and BTB must
 *    be neither consulted nor updated, which is what lets one memoized
 *    penalty-class stream (recorded per cache geometry) and one
 *    mispredict bitvector (recorded per BTB geometry) drive every model
 *    that shares them;
 *  - outcome resolution in consume() is exactly
 *    `memory().access(addr, size, store)` for memory ops and
 *    `btb().predict(site, taken)` for control-transfer ops, and
 *    nothing else, so recorded outcomes are model-independent.
 *    TimerBase::consume() is that rule, written once for every model.
 */

#ifndef MMXDSP_SIM_TIMING_MODEL_HH
#define MMXDSP_SIM_TIMING_MODEL_HH

#include <array>
#include <cstdint>
#include <memory>
#include <optional>

#include "isa/event.hh"
#include "isa/op.hh"
#include "mem/btb.hh"
#include "mem/cache.hh"
#include "sim/uop.hh"

namespace mmxdsp::sim {

/** Tunable parameters shared by every timing model. The front end of
 *  each model (decode and issue widths, the P6P's window) is a fixed
 *  fact of the machine, not a parameter (p6_timer.hh). */
struct TimerConfig
{
    mem::CacheConfig l1{"L1D", 16 * 1024, 32, 4};
    mem::CacheConfig l2{"L2", 512 * 1024, 32, 4};
    mem::MemoryHierarchy::Penalties penalties{};
    uint32_t btb_entries = 256;
    uint32_t btb_ways = 4;
    /** Cycles a mispredicted branch costs; unset, the model's own
     *  (mispredictPenalty()). */
    std::optional<uint32_t> mispredict_penalty;
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

/**
 * The mispredict penalty @p model charges under @p config: the one
 * @p config sets, or else the model's own — 4 cycles on the P5, 11 on
 * the P6's deeper pipeline, 12 on the P6P, one stage deeper still.
 */
constexpr uint32_t
mispredictPenalty(ModelKind model, const TimerConfig &config)
{
    switch (model) {
      case ModelKind::P6:
        return config.mispredict_penalty.value_or(11);
      case ModelKind::P6P:
        return config.mispredict_penalty.value_or(12);
      case ModelKind::P5:
        break;
    }
    return config.mispredict_penalty.value_or(4);
}

/**
 * What decides how a machine times a trace, as one row: the model, the
 * L1 and L2 geometry, the three memory penalties, the BTB geometry and
 * the resolved mispredict penalty. Cosmetic fields (cache names) are
 * left out, and a penalty left unset keys like the model's own set
 * explicitly.
 */
using MachineKey = std::array<uint32_t, 13>;

/** @p machine's key: two machines with equal keys time every trace
 *  identically. */
MachineKey machineKey(const MachineConfig &machine);

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
    /** Cycles decode waited for retirement: always 0, since at three
     *  uops issued and retired per cycle retirement never falls behind
     *  (p6_timer.hh). */
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
 * A trace-driven cycle-accounting machine, as the code that only knows
 * the machine at run time sees it (the profiler, anything driven by a
 * MachineConfig): one virtual dispatch per event. Concrete models are
 * final classes, so code holding one by concrete type (the replay
 * kernels) still gets fully inlined per-event calls.
 */
class TimingModel
{
  public:
    virtual ~TimingModel() = default;

    /** Account one instruction; returns the cycle cost charged to it. */
    virtual uint64_t consume(const isa::InstrEvent &event) = 0;

    /** Total cycles of everything consumed so far. */
    virtual uint64_t cycles() const = 0;

    virtual const TimerStats &stats() const = 0;
    virtual const mem::MemoryHierarchy &memory() const = 0;
    virtual const mem::Btb &btb() const = 0;
    virtual const TimerConfig &config() const = 0;
    virtual ModelKind kind() const = 0;
};

/**
 * What every concrete timer shares: its TimerConfig and resolved
 * mispredict penalty, the cache hierarchy and BTB that consume()
 * resolves outcomes through, and the accessors. @p Model supplies
 *
 *  - consumeResolved(event, mem_penalty, mispredict): consume() with
 *    both outcomes supplied by the caller (@p mem_penalty 0 for
 *    non-memory ops, @p mispredict false for non-control ops);
 *  - `TimerStats stats_`, readable by this class.
 *
 * The per-event state (pipeline, scoreboard, statistics) stays in the
 * concrete class, and the concrete constructors are never inlined
 * ([[gnu::noinline]]): that keeps the replay kernels' inner loops as
 * tight as with one self-contained class per model. With the
 * statistics in this base, or a constructor inlined into a kernel, GCC
 * spills more of the issue state to the stack on every event.
 */
template <class Model>
class TimerBase : public TimingModel
{
  public:
    /** Resolve both outcomes through this model's own cache hierarchy
     *  and BTB, then account the event. */
    uint64_t
    consume(const isa::InstrEvent &event) final
    {
        bool mispredict = false;
        if (isa::isControl(event.op))
            mispredict = btb_.predict(event.site, event.taken);
        uint32_t mem_penalty = 0;
        if (event.mem != isa::MemMode::None)
            mem_penalty = memory_.access(event.addr, event.size);
        return static_cast<Model *>(this)->consumeResolved(
            event, mem_penalty, mispredict);
    }

    const TimerStats &
    stats() const final
    {
        return static_cast<const Model *>(this)->stats_;
    }
    const mem::MemoryHierarchy &memory() const final { return memory_; }
    const mem::Btb &btb() const final { return btb_; }
    const TimerConfig &config() const final { return config_; }

  protected:
    TimerBase(const TimerConfig &config, ModelKind kind)
        : config_(config),
          memory_(config.l1, config.l2, config.penalties),
          btb_(config.btb_entries, config.btb_ways),
          descs_(descTable().data()),
          mispredictPenalty_(mispredictPenalty(kind, config))
    {
    }

    TimerConfig config_;
    mem::MemoryHierarchy memory_;
    mem::Btb btb_;
    /** descTable().data(), hoisted so consumeResolved() skips the
     *  per-call static-init guard. */
    const UopDesc *descs_;
    /** mispredictPenalty() of this model, resolved once. */
    const uint32_t mispredictPenalty_;
};

/** Build the timing model @p machine selects. */
std::unique_ptr<TimingModel> makeTimingModel(const MachineConfig &machine);

} // namespace mmxdsp::sim

#endif // MMXDSP_SIM_TIMING_MODEL_HH
