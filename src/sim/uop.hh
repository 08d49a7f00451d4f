/**
 * @file
 * Micro-op decode model and the shared uop-descriptor table.
 *
 * The P6 front end decodes each x86 instruction into one or more
 * micro-ops. The paper reports dynamic micro-op counts for the Pentium II
 * alongside Pentium cycle counts; this model reproduces that column of
 * Table 2 from the event stream.
 *
 * descTable() is the structured per-(op, mem-form) cost contract every
 * timing model consumes: uop count, the port decomposition of those
 * uops (compute vs load vs store-address/data), the P5 pairing and
 * structural-hazard bits, and both machines' result latencies. The
 * PentiumTimer, the P6-family timer (P6FamilyTimer<Ports>: the P6 and
 * P6P models), and the lane-packed sweep kernel all derive their
 * per-event facts from this one table, so a new backend only has to
 * interpret descriptors — not re-encode decode rules.
 */

#ifndef MMXDSP_SIM_UOP_HH
#define MMXDSP_SIM_UOP_HH

#include <array>
#include <cstdint>

#include "isa/event.hh"
#include "isa/op.hh"

namespace mmxdsp::sim {

/**
 * Micro-ops the Pentium II decoder produces for one executed instruction.
 *
 * Decode rules:
 *  - pure loads (mov/movzx/movsx/fld/fild/movd/movq from memory) are a
 *    single load micro-op;
 *  - other instructions with a memory source add one load micro-op;
 *  - stores split into store-address + store-data (2 micro-ops); push
 *    additionally carries the ESP update;
 *  - reg-reg forms use the per-op table value (isa::OpInfo::uops).
 */
uint32_t uopCount(const isa::InstrEvent &event);

/**
 * The same decode rules as uopCount(), flattened into a dense table
 * indexed by `op * 3 + MemMode` so per-event hot loops (the P6 issue
 * model, the materialized replay kernel) take one load instead of two
 * branches and an OpInfo fetch. uopTableIndex() builds the index;
 * uopTable()[uopTableIndex(e)] == uopCount(e) for every event.
 */
const std::array<uint8_t, isa::kNumOps * 3> &uopTable();

/** Index of @p event's decode entry in uopTable(). */
inline size_t
uopTableIndex(const isa::InstrEvent &event)
{
    return static_cast<size_t>(event.op) * 3
           + static_cast<size_t>(event.mem);
}

/**
 * Flag bits of UopDesc::flags. The low three bits are the P5 intra-pair
 * structural-hazard signature: an op conflicts with the open U-pipe op
 * iff (flags & uFlags & 7) != 0 — one memory reference per pair, and
 * one op per single-instance MMX unit per pair. The pairing bits fold
 * the published pairing class together with the blocking==1 requirement
 * (anything that blocks would stall the pair anyway).
 */
enum : uint8_t {
    kDescMem = 1 << 0,      ///< references memory (one access per event)
    kDescMmxMul = 1 << 1,   ///< occupies the single MMX multiplier
    kDescMmxShift = 1 << 2, ///< occupies the single MMX shifter
    kDescPairPV = 1 << 3,   ///< may issue in V: (UV|PV) and 1-cycle
    kDescPairUP = 1 << 4,   ///< may open a pair in U: (UV|PU) and 1-cycle
    kDescControl = 1 << 5,  ///< control transfer (consumes a prediction)
};

/** Which issue port(s) a descriptor's compute uops may dispatch to. */
enum class PortClass : uint8_t {
    Either, ///< p0 or p1, earliest-free (int/MMX ALU and misc uops)
    P0,     ///< p0 only (multipliers, dividers, x87 arithmetic)
    P1,     ///< p1 only (the MMX shifter and branch resolution)
};

/**
 * The structured cost descriptor of one (op, memory-form): everything a
 * timing model needs per event, pre-decoded. uops always equals
 * aluUops + loadUops + 2 * storeOps (store-address on p3 plus
 * store-data on p4 per store).
 */
struct UopDesc
{
    uint8_t uops;     ///< total decode template size (== uopTable())
    uint8_t aluUops;  ///< compute uops dispatched to p0/p1
    uint8_t loadUops; ///< load uops dispatched to p2 (0 or 1)
    uint8_t storeOps; ///< store-address+data uop pairs on p3+p4 (0 or 1)
    PortClass port;   ///< port binding of the compute uops
    uint8_t flags;    ///< kDesc* bits above
    uint8_t blocking; ///< P5 issue-blocking cycles (1 = pipelined)
    uint8_t latP5;    ///< P5 result latency
    uint8_t latP6;    ///< P6/P6P result latency (pipelined multiplier)
};

/**
 * The dense descriptor table, indexed by uopTableIndex() (op * 3 +
 * MemMode) like uopTable(). Derived once from isa::opTable() and the
 * decode rules above; hot loops hoist descTable().data() past the
 * static-init guard.
 */
const std::array<UopDesc, isa::kNumOps * 3> &descTable();

/** Look up @p event's descriptor. */
inline const UopDesc &
uopDesc(const isa::InstrEvent &event)
{
    return descTable()[uopTableIndex(event)];
}

} // namespace mmxdsp::sim

#endif // MMXDSP_SIM_UOP_HH
