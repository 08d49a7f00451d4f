/**
 * @file
 * Functional semantics for the MMX instruction set — dispatch header.
 *
 * Each function implements one MMX mnemonic exactly as specified in the
 * Intel Architecture Software Developer's Manual: wraparound arithmetic
 * truncates, saturating forms clamp to the lane's representable range,
 * pack instructions narrow with saturation, unpack instructions
 * interleave, and pmaddwd forms two 32-bit dot-product halves.
 *
 * Two interchangeable implementations live behind the same names:
 *
 *  - mmx::scalar — lane-at-a-time golden reference (mmx_scalar.hh,
 *    out-of-line), always compiled;
 *  - mmx::host   — SSE2 intrinsics on the low 64 bits of an XMM
 *    register (mmx_host.hh, header-inline), compiled when the host has
 *    __SSE2__.
 *
 * The public mmxdsp::mmx::paddb(...) etc. are inline forwarders to the
 * `active` namespace: host when the host has SSE2 (every x86-64 build),
 * otherwise scalar. Being header-inline is what lets runtime::Cpu's MMX
 * methods compile down to straight-line SSE2 ops. The differential
 * tests check `active` against `scalar` bit-for-bit at run time, so the
 * path a host takes can never change benchmark outputs or captured
 * traces.
 *
 * These are pure value functions; the instrumented runtime
 * (runtime/cpu.hh) wraps them with instruction-event emission. Keeping
 * semantics separate lets the unit tests verify bit-exactness in
 * isolation.
 */

#ifndef MMXDSP_MMX_MMX_OPS_HH
#define MMXDSP_MMX_MMX_OPS_HH

#include "mmx/mmx_host.hh"
#include "mmx/mmx_op_list.hh"
#include "mmx/mmx_reg.hh"
#include "mmx/mmx_scalar.hh"

namespace mmxdsp::mmx {

#if defined(MMXDSP_MMX_HAVE_HOST_SIMD)
namespace active = host;
#else
namespace active = scalar;
#endif

#define MMXDSP_X(name, op_enum)                                              \
    inline MmxReg name(MmxReg a, MmxReg b) { return active::name(a, b); }
MMXDSP_MMX_BINOP_LIST(MMXDSP_X)
#undef MMXDSP_X

// ---- shifts (count >= lane width zeroes; psra* saturates count) ----
#define MMXDSP_X(name, op_enum)                                              \
    inline MmxReg name(MmxReg a, unsigned count)                             \
    {                                                                        \
        return active::name(a, count);                                       \
    }
MMXDSP_MMX_SHIFT_LIST(MMXDSP_X)
#undef MMXDSP_X

} // namespace mmxdsp::mmx

#endif // MMXDSP_MMX_MMX_OPS_HH
