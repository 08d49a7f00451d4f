/**
 * @file
 * Unit tests for the support module: fixed point, RNG, tables, and the
 * reference DSP math that serves as the oracle for everything else.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <numbers>

#include "support/fixed_point.hh"
#include "support/rng.hh"
#include "support/signal_math.hh"
#include "support/table.hh"

namespace mmxdsp {
namespace {

// ---------------- fixed point ----------------

TEST(FixedPoint, Saturate16Clamps)
{
    EXPECT_EQ(saturate16(32767), 32767);
    EXPECT_EQ(saturate16(32768), 32767);
    EXPECT_EQ(saturate16(100000), 32767);
    EXPECT_EQ(saturate16(-32768), -32768);
    EXPECT_EQ(saturate16(-32769), -32768);
    EXPECT_EQ(saturate16(0), 0);
    EXPECT_EQ(saturate16(-1), -1);
}

TEST(FixedPoint, Saturate8Clamps)
{
    EXPECT_EQ(saturate8(127), 127);
    EXPECT_EQ(saturate8(128), 127);
    EXPECT_EQ(saturate8(-128), -128);
    EXPECT_EQ(saturate8(-129), -128);
}

TEST(FixedPoint, SaturateU8Clamps)
{
    EXPECT_EQ(saturateU8(255), 255);
    EXPECT_EQ(saturateU8(256), 255);
    EXPECT_EQ(saturateU8(-1), 0);
    EXPECT_EQ(saturateU8(42), 42);
}

TEST(FixedPoint, Q15RoundTripAccuracy)
{
    for (double v = -0.999; v < 0.999; v += 0.00377) {
        int16_t q = toQ15(v);
        EXPECT_NEAR(fromQ15(q), v, 1.0 / 32768.0 + 1e-12);
    }
}

TEST(FixedPoint, Q15SaturatesAtEdges)
{
    EXPECT_EQ(toQ15(1.0), 32767);
    EXPECT_EQ(toQ15(2.0), 32767);
    EXPECT_EQ(toQ15(-1.0), -32768);
    EXPECT_EQ(toQ15(-2.0), -32768);
}

TEST(FixedPoint, ChooseFracBitsAvoidsOverflow)
{
    std::vector<double> small{0.1, -0.2, 0.3};
    EXPECT_EQ(chooseFracBits(small), 15);

    std::vector<double> big{5.0, -7.9};
    int bits = chooseFracBits(big);
    EXPECT_LE(7.9 * (1 << bits), 32767.0);
    EXPECT_GT(7.9 * (1 << (bits + 1)), 32767.0);
}

// ---------------- rng ----------------

TEST(Rng, Deterministic)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformBounds)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i) {
        uint32_t v = r.nextBelow(17);
        EXPECT_LT(v, 17u);
        double d = r.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
        int x = r.nextInRange(-5, 5);
        EXPECT_GE(x, -5);
        EXPECT_LE(x, 5);
    }
}

TEST(Rng, GaussianMoments)
{
    Rng r(11);
    double sum = 0.0;
    double sumsq = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        double g = r.nextGaussian();
        sum += g;
        sumsq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.03);
    EXPECT_NEAR(sumsq / n, 1.0, 0.05);
}

// ---------------- table ----------------

TEST(Table, RendersAlignedColumns)
{
    Table t({"a", "long-header", "c"});
    t.addRow({"1", "2", "3"});
    t.addRow({"wide-cell", "x", "y"});
    std::string out = t.render();
    EXPECT_NE(out.find("long-header"), std::string::npos);
    EXPECT_NE(out.find("wide-cell"), std::string::npos);
    // Header line and separator line present.
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

TEST(Table, FormatHelpers)
{
    EXPECT_EQ(Table::fmtCount(12953062), "12,953,062");
    EXPECT_EQ(Table::fmtCount(-1234), "-1,234");
    EXPECT_EQ(Table::fmtCount(7), "7");
    EXPECT_EQ(Table::fmtFixed(1.567, 2), "1.57");
    EXPECT_EQ(Table::fmtPercent(0.4954), "49.54%");
    EXPECT_EQ(Table::fmtRatio(std::nan(""), 2), "n/a");
}

// ---------------- reference DSP math ----------------

TEST(SignalMath, FirImpulseRecoversCoefficients)
{
    std::vector<double> c{0.5, -0.25, 0.125};
    std::vector<double> x{1.0, 0.0, 0.0, 0.0, 0.0};
    auto y = referenceFir(c, x);
    EXPECT_DOUBLE_EQ(y[0], 0.5);
    EXPECT_DOUBLE_EQ(y[1], -0.25);
    EXPECT_DOUBLE_EQ(y[2], 0.125);
    EXPECT_DOUBLE_EQ(y[3], 0.0);
}

/** O(n^2) DFT for cross-checking the FFT. */
std::vector<std::complex<double>>
referenceDft(const std::vector<std::complex<double>> &data)
{
    constexpr double kPi = std::numbers::pi;
    const size_t n = data.size();
    std::vector<std::complex<double>> out(n);
    for (size_t k = 0; k < n; ++k) {
        std::complex<double> acc(0.0, 0.0);
        for (size_t t = 0; t < n; ++t) {
            double angle = -2.0 * kPi * static_cast<double>(k * t)
                           / static_cast<double>(n);
            acc += data[t] * std::complex<double>(std::cos(angle),
                                                  std::sin(angle));
        }
        out[k] = acc;
    }
    return out;
}

TEST(SignalMath, FftMatchesDft)
{
    Rng rng(3);
    std::vector<std::complex<double>> x(64);
    for (auto &v : x)
        v = {rng.nextDouble(-1, 1), rng.nextDouble(-1, 1)};
    auto dft = referenceDft(x);
    auto fft = x;
    referenceFft(fft, false);
    for (size_t i = 0; i < x.size(); ++i) {
        EXPECT_NEAR(fft[i].real(), dft[i].real(), 1e-9);
        EXPECT_NEAR(fft[i].imag(), dft[i].imag(), 1e-9);
    }
}

TEST(SignalMath, FftInverseRoundTrips)
{
    Rng rng(5);
    std::vector<std::complex<double>> x(256);
    for (auto &v : x)
        v = {rng.nextDouble(-1, 1), rng.nextDouble(-1, 1)};
    auto y = x;
    referenceFft(y, false);
    referenceFft(y, true);
    for (size_t i = 0; i < x.size(); ++i)
        EXPECT_NEAR(std::abs(y[i] - x[i]), 0.0, 1e-10);
}

TEST(SignalMath, FftOfSinusoidPeaksAtBin)
{
    const size_t n = 128;
    const int bin = 9;
    std::vector<std::complex<double>> x(n);
    for (size_t t = 0; t < n; ++t) {
        double ph = 2.0 * std::numbers::pi * bin * t / n;
        x[t] = {std::cos(ph), std::sin(ph)};
    }
    referenceFft(x, false);
    size_t peak = 0;
    for (size_t i = 1; i < n; ++i) {
        if (std::abs(x[i]) > std::abs(x[peak]))
            peak = i;
    }
    EXPECT_EQ(peak, static_cast<size_t>(bin));
}

TEST(SignalMath, Dct8x8RoundTrips)
{
    Rng rng(17);
    double in[64];
    double freq[64];
    double back[64];
    for (double &v : in)
        v = rng.nextDouble(-128, 128);
    referenceDct8x8(in, freq);
    referenceIdct8x8(freq, back);
    for (int i = 0; i < 64; ++i)
        EXPECT_NEAR(back[i], in[i], 1e-9);
}

TEST(SignalMath, DctOfConstantIsDcOnly)
{
    double in[64];
    double freq[64];
    for (double &v : in)
        v = 100.0;
    referenceDct8x8(in, freq);
    EXPECT_NEAR(freq[0], 800.0, 1e-9); // 8 * 100
    for (int i = 1; i < 64; ++i)
        EXPECT_NEAR(freq[i], 0.0, 1e-9);
}

TEST(SignalMath, LowpassFirPassesDcBlocksHighFrequency)
{
    auto h = designLowpassFir(35, 0.1);
    ASSERT_EQ(h.size(), 35u);

    // DC gain 1.
    double dc = 0.0;
    for (double v : h)
        dc += v;
    EXPECT_NEAR(dc, 1.0, 1e-12);

    // Response at 0.4 (deep in the stop band) is tiny.
    std::complex<double> resp(0.0, 0.0);
    for (size_t n = 0; n < h.size(); ++n) {
        double ph = -2.0 * std::numbers::pi * 0.4 * static_cast<double>(n);
        resp += h[n] * std::complex<double>(std::cos(ph), std::sin(ph));
    }
    EXPECT_LT(std::abs(resp), 0.01);
}

TEST(SignalMath, ButterworthBandpassSelectsBand)
{
    auto sections = designButterworthBandpass(4, 0.1, 0.2);
    ASSERT_EQ(sections.size(), 4u);

    auto response_at = [&](double f) {
        std::complex<double> z =
            std::exp(std::complex<double>(0.0, 2.0 * std::numbers::pi * f));
        std::complex<double> zi = 1.0 / z;
        std::complex<double> h(1.0, 0.0);
        for (const auto &s : sections) {
            h *= (s.b0 + s.b1 * zi + s.b2 * zi * zi)
                 / (1.0 + s.a1 * zi + s.a2 * zi * zi);
        }
        return std::abs(h);
    };

    // Unity-ish in band, strongly attenuated out of band.
    EXPECT_NEAR(response_at(std::sqrt(0.1 * 0.2)), 1.0, 0.05);
    EXPECT_LT(response_at(0.02), 0.05);
    EXPECT_LT(response_at(0.45), 0.05);
}

TEST(SignalMath, ButterworthSectionsAreStable)
{
    for (auto [lo, hi] : {std::pair{0.1, 0.2}, {0.05, 0.15}, {0.2, 0.3}}) {
        auto sections = designButterworthBandpass(4, lo, hi);
        for (const auto &s : sections) {
            // Stability triangle for 2nd-order sections.
            EXPECT_LT(std::abs(s.a2), 1.0);
            EXPECT_LT(std::abs(s.a1), 1.0 + s.a2);
        }
    }
}

TEST(SignalMath, BiquadCascadeMatchesDirectForm)
{
    // One biquad run through the cascade helper must match referenceIir
    // with the equivalent transfer function.
    Biquad s{0.2, 0.1, -0.05, -0.3, 0.4};
    Rng rng(23);
    std::vector<double> x(128);
    for (auto &v : x)
        v = rng.nextDouble(-1, 1);
    auto y1 = runBiquadCascade({s}, x);
    auto y2 = referenceIir({s.b0, s.b1, s.b2}, {1.0, s.a1, s.a2}, x);
    for (size_t i = 0; i < x.size(); ++i)
        EXPECT_NEAR(y1[i], y2[i], 1e-12);
}

TEST(SignalMath, SnrAndPsnrSanity)
{
    EXPECT_GT(psnrDb(1.0), psnrDb(4.0));
}

} // namespace
} // namespace mmxdsp
