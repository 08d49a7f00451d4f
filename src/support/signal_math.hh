/**
 * @file
 * Reference signal-processing math used by tests and workload generators.
 *
 * These routines are the *oracles*: straightforward double-precision
 * implementations against which the instrumented scalar and MMX benchmark
 * versions are validated. They never run under the simulator.
 */

#ifndef MMXDSP_SUPPORT_SIGNAL_MATH_HH
#define MMXDSP_SUPPORT_SIGNAL_MATH_HH

#include <complex>
#include <cstddef>
#include <vector>

namespace mmxdsp {

/** y[n] = sum_k c[k] * x[n-k]; x is the full input, output same length. */
std::vector<double> referenceFir(const std::vector<double> &coeffs,
                                 const std::vector<double> &x);

/**
 * Direct-form-II-transposed IIR: b (feedforward) and a (feedback, a[0]=1).
 */
std::vector<double> referenceIir(const std::vector<double> &b,
                                 const std::vector<double> &a,
                                 const std::vector<double> &x);

/** In-place radix-2 DIT FFT; size must be a power of two. */
void referenceFft(std::vector<std::complex<double>> &data, bool inverse);

/** 8x8 forward DCT-II with orthonormal scaling (JPEG convention). */
void referenceDct8x8(const double in[64], double out[64]);

/** 8x8 inverse DCT-II with orthonormal scaling. */
void referenceIdct8x8(const double in[64], double out[64]);

/** Peak signal-to-noise ratio in dB for 8-bit imagery (peak = 255). */
double psnrDb(double mse);

/**
 * Butterworth bandpass design via bilinear transform, returned as
 * second-order sections {b0,b1,b2,a1,a2} (a0 normalized to 1).
 *
 * @param order    analog prototype order (must be even); the digital
 *                 bandpass has 2*order poles, i.e. `order` biquads.
 * @param lo_norm  lower edge as a fraction of the sample rate (0, 0.5).
 * @param hi_norm  upper edge as a fraction of the sample rate (0, 0.5).
 */
struct Biquad
{
    double b0, b1, b2; ///< feedforward
    double a1, a2;     ///< feedback (y[n] -= a1*y[n-1] + a2*y[n-2])
};

std::vector<Biquad> designButterworthBandpass(int order, double lo_norm,
                                              double hi_norm);

/** Run a biquad cascade over x (DF2-transposed, doubles). */
std::vector<double> runBiquadCascade(const std::vector<Biquad> &sections,
                                     const std::vector<double> &x);

/** Windowed-sinc low-pass FIR design (Hamming window). */
std::vector<double> designLowpassFir(int taps, double cutoff_norm);

} // namespace mmxdsp

#endif // MMXDSP_SUPPORT_SIGNAL_MATH_HH
