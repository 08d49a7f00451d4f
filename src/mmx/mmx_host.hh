/**
 * @file
 * Host-SSE2 implementations of the MMX operations.
 *
 * Each op maps to one _mm_* intrinsic on the low 64 bits of an XMM
 * register — MMX semantics are a subset of SSE2's, so the mapping is
 * exact, including shift-count overflow behavior. The logical ops are
 * plain 64-bit integer ops, which beat a round trip through XMM.
 *
 * Compiled only when the host has __SSE2__ (every x86-64 host), which
 * defines MMXDSP_MMX_HAVE_HOST_SIMD. The differential tests assert
 * every op bit-for-bit against the scalar reference (mmx_scalar.hh).
 */

#ifndef MMXDSP_MMX_MMX_HOST_HH
#define MMXDSP_MMX_MMX_HOST_HH

#include "mmx/mmx_reg.hh"

#if defined(__SSE2__)
#define MMXDSP_MMX_HAVE_HOST_SIMD 1
#include <emmintrin.h>

namespace mmxdsp::mmx::host {

namespace detail {

inline __m128i
toX(MmxReg a)
{
    return _mm_cvtsi64_si128(static_cast<long long>(a.bits));
}

inline MmxReg
fromX(__m128i v)
{
    return MmxReg(static_cast<uint64_t>(_mm_cvtsi128_si64(v)));
}

/**
 * SSE2 variable shifts read a 64-bit count and already implement the
 * MMX overflow rules (zero at count >= width, sign fill for psra*);
 * clamping to 64 first keeps any unsigned count exact.
 */
inline __m128i
countX(unsigned count)
{
    return _mm_cvtsi32_si128(static_cast<int>(count > 64 ? 64 : count));
}

} // namespace detail

#define MMXDSP_MMX_HOST_BINOP(name, intrin)                                  \
    inline MmxReg name(MmxReg a, MmxReg b)                                   \
    {                                                                        \
        return detail::fromX(intrin(detail::toX(a), detail::toX(b)));        \
    }

MMXDSP_MMX_HOST_BINOP(paddb, _mm_add_epi8)
MMXDSP_MMX_HOST_BINOP(paddw, _mm_add_epi16)
MMXDSP_MMX_HOST_BINOP(paddd, _mm_add_epi32)
MMXDSP_MMX_HOST_BINOP(paddsb, _mm_adds_epi8)
MMXDSP_MMX_HOST_BINOP(paddsw, _mm_adds_epi16)
MMXDSP_MMX_HOST_BINOP(paddusb, _mm_adds_epu8)
MMXDSP_MMX_HOST_BINOP(paddusw, _mm_adds_epu16)
MMXDSP_MMX_HOST_BINOP(psubb, _mm_sub_epi8)
MMXDSP_MMX_HOST_BINOP(psubw, _mm_sub_epi16)
MMXDSP_MMX_HOST_BINOP(psubd, _mm_sub_epi32)
MMXDSP_MMX_HOST_BINOP(psubsb, _mm_subs_epi8)
MMXDSP_MMX_HOST_BINOP(psubsw, _mm_subs_epi16)
MMXDSP_MMX_HOST_BINOP(psubusb, _mm_subs_epu8)
MMXDSP_MMX_HOST_BINOP(psubusw, _mm_subs_epu16)
MMXDSP_MMX_HOST_BINOP(pmulhw, _mm_mulhi_epi16)
MMXDSP_MMX_HOST_BINOP(pmullw, _mm_mullo_epi16)
MMXDSP_MMX_HOST_BINOP(pmaddwd, _mm_madd_epi16)
MMXDSP_MMX_HOST_BINOP(pcmpeqb, _mm_cmpeq_epi8)
MMXDSP_MMX_HOST_BINOP(pcmpeqw, _mm_cmpeq_epi16)
MMXDSP_MMX_HOST_BINOP(pcmpeqd, _mm_cmpeq_epi32)
MMXDSP_MMX_HOST_BINOP(pcmpgtb, _mm_cmpgt_epi8)
MMXDSP_MMX_HOST_BINOP(pcmpgtw, _mm_cmpgt_epi16)
MMXDSP_MMX_HOST_BINOP(pcmpgtd, _mm_cmpgt_epi32)

#undef MMXDSP_MMX_HOST_BINOP

// Packs narrow 128 bits to 64; placing b's qword above a's makes the
// low 64 bits of the SSE2 pack exactly the MMX result.
inline MmxReg
packsswb(MmxReg a, MmxReg b)
{
    using namespace detail;
    const __m128i v = _mm_unpacklo_epi64(toX(a), toX(b));
    return fromX(_mm_packs_epi16(v, v));
}

inline MmxReg
packssdw(MmxReg a, MmxReg b)
{
    using namespace detail;
    const __m128i v = _mm_unpacklo_epi64(toX(a), toX(b));
    return fromX(_mm_packs_epi32(v, v));
}

inline MmxReg
packuswb(MmxReg a, MmxReg b)
{
    using namespace detail;
    const __m128i v = _mm_unpacklo_epi64(toX(a), toX(b));
    return fromX(_mm_packus_epi16(v, v));
}

// SSE2 unpacklo interleaves the low 8 bytes of each operand; the MMX
// low-half result is its low qword and the high-half result its high
// qword.
inline MmxReg
punpcklbw(MmxReg a, MmxReg b)
{
    using namespace detail;
    return fromX(_mm_unpacklo_epi8(toX(a), toX(b)));
}

inline MmxReg
punpckhbw(MmxReg a, MmxReg b)
{
    using namespace detail;
    return fromX(_mm_srli_si128(_mm_unpacklo_epi8(toX(a), toX(b)), 8));
}

inline MmxReg
punpcklwd(MmxReg a, MmxReg b)
{
    using namespace detail;
    return fromX(_mm_unpacklo_epi16(toX(a), toX(b)));
}

inline MmxReg
punpckhwd(MmxReg a, MmxReg b)
{
    using namespace detail;
    return fromX(_mm_srli_si128(_mm_unpacklo_epi16(toX(a), toX(b)), 8));
}

inline MmxReg
punpckldq(MmxReg a, MmxReg b)
{
    using namespace detail;
    return fromX(_mm_unpacklo_epi32(toX(a), toX(b)));
}

inline MmxReg
punpckhdq(MmxReg a, MmxReg b)
{
    using namespace detail;
    return fromX(_mm_srli_si128(_mm_unpacklo_epi32(toX(a), toX(b)), 8));
}

// Plain 64-bit logical ops beat a round trip through XMM.
inline MmxReg pand(MmxReg a, MmxReg b) { return MmxReg(a.bits & b.bits); }
inline MmxReg pandn(MmxReg a, MmxReg b) { return MmxReg(~a.bits & b.bits); }
inline MmxReg por(MmxReg a, MmxReg b) { return MmxReg(a.bits | b.bits); }
inline MmxReg pxor(MmxReg a, MmxReg b) { return MmxReg(a.bits ^ b.bits); }

#define MMXDSP_MMX_HOST_SHIFT(name, intrin)                                  \
    inline MmxReg name(MmxReg a, unsigned count)                             \
    {                                                                        \
        return detail::fromX(intrin(detail::toX(a),                          \
                                    detail::countX(count)));                 \
    }

MMXDSP_MMX_HOST_SHIFT(psllw, _mm_sll_epi16)
MMXDSP_MMX_HOST_SHIFT(pslld, _mm_sll_epi32)
MMXDSP_MMX_HOST_SHIFT(psllq, _mm_sll_epi64)
MMXDSP_MMX_HOST_SHIFT(psrlw, _mm_srl_epi16)
MMXDSP_MMX_HOST_SHIFT(psrld, _mm_srl_epi32)
MMXDSP_MMX_HOST_SHIFT(psrlq, _mm_srl_epi64)
MMXDSP_MMX_HOST_SHIFT(psraw, _mm_sra_epi16)
MMXDSP_MMX_HOST_SHIFT(psrad, _mm_sra_epi32)

#undef MMXDSP_MMX_HOST_SHIFT

} // namespace mmxdsp::mmx::host

#endif // __SSE2__

#endif // MMXDSP_MMX_MMX_HOST_HH
