/**
 * @file
 * The instruction-event record exchanged between the runtime (producer)
 * and the timing model / profiler (consumers).
 *
 * One InstrEvent is emitted per executed instruction. It carries the
 * mnemonic, the memory access (if any), the static call-site id, register
 * dependency tags for the scoreboard, and branch outcome for the BTB.
 */

#ifndef MMXDSP_ISA_EVENT_HH
#define MMXDSP_ISA_EVENT_HH

#include <cstdint>

#include "isa/op.hh"

namespace mmxdsp::isa {

/** Memory behaviour of one executed instruction. */
enum class MemMode : uint8_t {
    None,  ///< register/immediate operands only
    Load,  ///< one memory read operand
    Store, ///< one memory write operand
};

/** Register file a dependency tag refers to. */
enum class RegClass : uint8_t { Int = 0, Fp = 1, Mmx = 2 };

/**
 * A compact register tag: (class << 5) | index, or kNoReg.
 *
 * The runtime allocates integer tags round-robin over the six allocatable
 * x86 registers, x87 tags over the eight stack slots (modelled flat), and
 * MMX tags over mm0-mm7; see runtime/cpu.hh.
 */
using RegTag = uint8_t;

constexpr RegTag kNoReg = 0xff;

constexpr RegTag
makeTag(RegClass cls, uint8_t index)
{
    return static_cast<RegTag>((static_cast<uint8_t>(cls) << 5) | index);
}

constexpr bool tagValid(RegTag t) { return t != kNoReg; }

/** Scoreboard slots, one per tag value (int 0-31, fp 32-63, mmx 64-95). */
constexpr size_t kNumTagSlots = 96;

/** One executed instruction. */
struct InstrEvent
{
    Op op = Op::Nop;
    MemMode mem = MemMode::None;
    /** Byte address of the memory operand (valid when mem != None). */
    uint64_t addr = 0;
    /** Memory operand size in bytes. */
    uint8_t size = 0;
    /** Static site id (unique per source location that emits). */
    uint32_t site = 0;
    /** Source register tags (kNoReg when absent). */
    RegTag src0 = kNoReg;
    RegTag src1 = kNoReg;
    /** Destination register tag (kNoReg when absent). */
    RegTag dst = kNoReg;
    /** For Jcc/Jmp/Call/Ret: whether the branch was taken. */
    bool taken = false;
};

} // namespace mmxdsp::isa

#endif // MMXDSP_ISA_EVENT_HH
