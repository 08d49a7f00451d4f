/**
 * @file
 * Scalar lane-loop reference implementations of the MMX operations.
 *
 * This is the golden semantics oracle: one lane at a time, written to
 * read like the Intel manual. It is always compiled (the differential
 * tests compare the active path against it bit-for-bit at run time)
 * and is the active implementation on hosts without SSE2. Definitions
 * live out-of-line in mmx_ops.cc, which is also what makes this path a
 * faithful stand-in for a per-lane emulation when micro_mmx_ops
 * measures the host path against it.
 */

#ifndef MMXDSP_MMX_MMX_SCALAR_HH
#define MMXDSP_MMX_MMX_SCALAR_HH

#include "mmx/mmx_op_list.hh"
#include "mmx/mmx_reg.hh"

namespace mmxdsp::mmx::scalar {

#define MMXDSP_X(name, op_enum) MmxReg name(MmxReg a, MmxReg b);
MMXDSP_MMX_BINOP_LIST(MMXDSP_X)
#undef MMXDSP_X

#define MMXDSP_X(name, op_enum) MmxReg name(MmxReg a, unsigned count);
MMXDSP_MMX_SHIFT_LIST(MMXDSP_X)
#undef MMXDSP_X

} // namespace mmxdsp::mmx::scalar

#endif // MMXDSP_MMX_MMX_SCALAR_HH
