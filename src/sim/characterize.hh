/**
 * @file
 * uops.info-style self-characterization of the timing models.
 *
 * Following Abel & Reineke's methodology (uops.info), the simulator
 * measures its *own* per-instruction costs: for every (op, memory-form)
 * the harness auto-generates two synthetic event streams — a dependency
 * chain (each instruction reads the register it writes, exposing the
 * result latency) and an independent stream (rotating destination
 * registers, exposing the sustained throughput) — and runs them under a
 * TimingModel. The measured table is what the machine actually does,
 * derived from nothing but the event-stream contract, so it cross-checks
 * the descriptor table (sim/uop.hh), the timer implementations, and the
 * paper-derived penalty numbers against each other:
 *
 *  - the P5 rows must match the closed-form expectations from the
 *    published pairing/latency/blocking rules bit-exactly
 *    (expectedP5Latency / expectedP5Throughput below, pinned in tests),
 *  - the P6P rows must *diverge* from the P6 rows on any stream that
 *    saturates both ALU ports — the contention the port model exists to
 *    express, which no issue-width-only model can.
 *
 * Measurements run kCharacterizeWarmup events to reach steady state
 * (first-touch cache misses, pipeline fill), then time exactly
 * kCharacterizeMeasure events. 256 is a power of two, so cycles/256 is
 * always exactly representable in a double and golden comparisons can
 * be bit-exact.
 */

#ifndef MMXDSP_SIM_CHARACTERIZE_HH
#define MMXDSP_SIM_CHARACTERIZE_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "isa/event.hh"
#include "isa/op.hh"
#include "sim/timing_model.hh"

namespace mmxdsp::sim {

constexpr size_t kCharacterizeWarmup = 64;
constexpr size_t kCharacterizeMeasure = 256;

/** One measured (op, memory-form) row of a model's cost table. */
struct CharacterizeRow
{
    isa::Op op = isa::Op::Nop;
    isa::MemMode mem = isa::MemMode::None;
    double latency = 0.0;    ///< dependency-chain cycles per instruction
    double throughput = 0.0; ///< independent-stream cycles per instruction
};

/**
 * The measured form set: every non-control op's register form, plus the
 * load and store forms of the data-transfer ops (mov / movd / movq).
 * Control ops are excluded — their cost is branch prediction, measured
 * by the BTB tests, not by straight-line streams.
 */
const std::vector<std::pair<isa::Op, isa::MemMode>> &characterizeForms();

/** Measure every characterizeForms() row under @p machine. */
std::vector<CharacterizeRow> characterize(const MachineConfig &machine);

/**
 * Closed-form P5 expectations from the paper's published tables
 * (isa::opTable() pairing classes, latencies, and blocking cycles):
 * the dependency chain sustains max(blocking, latency) cycles per
 * instruction; the independent stream sustains blocking for
 * non-pairing ops, 0.5 for freely-pairing UV ops, and 1.0 when a
 * structural hazard (memory reference, single-instance MMX multiplier
 * or shifter) or a one-sided pairing class keeps the V pipe empty.
 * Store forms have no register result, so their "chain" degenerates to
 * the throughput stream.
 */
double expectedP5Latency(isa::Op op, isa::MemMode mem);
double expectedP5Throughput(isa::Op op, isa::MemMode mem);

} // namespace mmxdsp::sim

#endif // MMXDSP_SIM_CHARACTERIZE_HH
