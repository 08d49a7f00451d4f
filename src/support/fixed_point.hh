/**
 * @file
 * Fixed-point conversion and saturation helpers.
 *
 * The MMX versions of the paper's benchmarks quantize floating-point data
 * and coefficients to Q15/Q7 fixed point. These helpers centralize the
 * rounding and saturation rules so the kernels, the NSP library, and the
 * tests agree on them.
 */

#ifndef MMXDSP_SUPPORT_FIXED_POINT_HH
#define MMXDSP_SUPPORT_FIXED_POINT_HH

#include <cstdint>
#include <cstddef>
#include <vector>

namespace mmxdsp {

/** Saturate a 32-bit value to the signed 16-bit range. */
constexpr int16_t
saturate16(int32_t v)
{
    if (v > 32767)
        return 32767;
    if (v < -32768)
        return -32768;
    return static_cast<int16_t>(v);
}

/** Saturate a 32-bit value to the signed 8-bit range. */
constexpr int8_t
saturate8(int32_t v)
{
    if (v > 127)
        return 127;
    if (v < -128)
        return -128;
    return static_cast<int8_t>(v);
}

/** Saturate a 32-bit value to the unsigned 8-bit range. */
constexpr uint8_t
saturateU8(int32_t v)
{
    if (v > 255)
        return 255;
    if (v < 0)
        return 0;
    return static_cast<uint8_t>(v);
}

/** Saturate a 32-bit value to the unsigned 16-bit range. */
constexpr uint16_t
saturateU16(int32_t v)
{
    if (v > 65535)
        return 65535;
    if (v < 0)
        return 0;
    return static_cast<uint16_t>(v);
}

/** Convert a real value to Qn fixed point with round-to-nearest. */
int16_t toQ(double v, int frac_bits);

/** Convert Qn fixed point back to a real value. */
double fromQ(int16_t v, int frac_bits);

/** Convert a real value to Q15 ([-1, 1) maps to full range). */
inline int16_t toQ15(double v) { return toQ(v, 15); }

/** Convert Q15 back to a real value. */
inline double fromQ15(int16_t v) { return fromQ(v, 15); }

/**
 * Choose the largest fraction-bit count that represents every value in
 * @p v without overflow (the "a priori scale factor" the Intel library
 * required callers to provide).
 *
 * @return fraction bits in [0, 15].
 */
int chooseFracBits(const std::vector<double> &v);

} // namespace mmxdsp

#endif // MMXDSP_SUPPORT_FIXED_POINT_HH
