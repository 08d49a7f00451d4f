/**
 * @file
 * Parameterized property sweeps across workload shapes: every benchmark
 * version must agree with its oracle at every size/seed/quality in the
 * sweep, and machine-level invariants (dual-issue bound, event-cost
 * accounting) must hold on arbitrary instruction streams.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <tuple>

#include "apps/image/image_app.hh"
#include "apps/jpeg/jpeg_decoder.hh"
#include "apps/jpeg/jpeg_encoder.hh"
#include "kernels/fft.hh"
#include "kernels/fir.hh"
#include "kernels/matvec.hh"
#include "nsp/vector.hh"
#include "profile/vprof.hh"
#include "runtime/cpu.hh"
#include "support/rng.hh"
#include "workloads/image_data.hh"

namespace mmxdsp {
namespace {

using profile::VProf;
using runtime::Cpu;

// ---------------- FIR across sizes and seeds ----------------

class FirSweep
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>>
{
};

TEST_P(FirSweep, AllVersionsTrackReference)
{
    auto [samples, seed] = GetParam();
    kernels::FirBenchmark fir;
    fir.setup(samples, seed);
    Cpu cpu;
    fir.runC(cpu);
    fir.runFp(cpu);
    fir.runMmx(cpu);
    auto ref = fir.reference();
    double worst_mmx = 0.0;
    for (int n = 0; n < samples; ++n) {
        EXPECT_NEAR(fir.outC()[static_cast<size_t>(n)],
                    ref[static_cast<size_t>(n)], 1e-4);
        EXPECT_NEAR(fir.outFp()[static_cast<size_t>(n)],
                    ref[static_cast<size_t>(n)], 1e-4);
        worst_mmx = std::max(worst_mmx,
                             std::fabs(fir.outMmx()[static_cast<size_t>(n)]
                                       - ref[static_cast<size_t>(n)]));
    }
    EXPECT_LT(worst_mmx, 5e-3);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FirSweep,
    ::testing::Combine(::testing::Values(64, 129, 512),
                       ::testing::Values(1ull, 77ull, 991ull)));

// ---------------- FFT across power-of-two sizes ----------------

class FftSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(FftSweep, AllVersionsComputeTheSpectrum)
{
    const int n = GetParam();
    kernels::FftBenchmark fft;
    fft.setup(n, 5 + static_cast<uint64_t>(n));
    Cpu cpu;
    fft.runC(cpu);
    fft.runFp(cpu);
    fft.runMmx(cpu);
    fft.runMmxV1(cpu);
    auto ref = fft.reference();

    double peak = 0.0;
    for (const auto &v : ref)
        peak = std::max(peak, std::abs(v));
    for (int i = 0; i < n; ++i) {
        size_t s = static_cast<size_t>(i);
        EXPECT_LT(std::abs(fft.outC()[s] - ref[s]), peak * 1e-4) << i;
        EXPECT_LT(std::abs(fft.outFp()[s] - ref[s]), peak * 1e-4) << i;
        EXPECT_LT(std::abs(fft.outMmx()[s] - ref[s]), peak * 0.03) << i;
        EXPECT_LT(std::abs(fft.outMmxV1()[s] - ref[s]), peak * 0.10) << i;
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftSweep,
                         ::testing::Values(16, 64, 128, 1024));

// ---------------- matvec across dims incl. ragged tails ----------------

class MatvecSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(MatvecSweep, ExactAtEveryDim)
{
    const int dim = GetParam();
    kernels::MatvecBenchmark mv;
    mv.setup(dim, 100 + static_cast<uint64_t>(dim));
    Cpu cpu;
    mv.runC(cpu);
    mv.runMmx(cpu);
    auto ref = mv.reference();
    for (int i = 0; i < dim; ++i) {
        ASSERT_EQ(mv.outC()[static_cast<size_t>(i)],
                  ref[static_cast<size_t>(i)])
            << "dim " << dim << " row " << i;
        ASSERT_EQ(mv.outMmx()[static_cast<size_t>(i)],
                  ref[static_cast<size_t>(i)])
            << "dim " << dim << " row " << i;
    }
    EXPECT_EQ(mv.dotMmx(), ref[static_cast<size_t>(dim)]);
}

// 33/47: the scalar-tail paths of the library dot product.
INSTANTIATE_TEST_SUITE_P(Dims, MatvecSweep,
                         ::testing::Values(8, 33, 47, 64, 96));

// ---------------- dot product lengths (tail handling) ----------------

class DotProdSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(DotProdSweep, MatchesScalarAtEveryLength)
{
    const int n = GetParam();
    Rng rng(static_cast<uint64_t>(n) * 31 + 1);
    std::vector<int16_t> a(static_cast<size_t>(n));
    std::vector<int16_t> b(static_cast<size_t>(n));
    int32_t expect = 0;
    for (int i = 0; i < n; ++i) {
        a[static_cast<size_t>(i)] =
            static_cast<int16_t>(rng.nextInRange(-3000, 3000));
        b[static_cast<size_t>(i)] =
            static_cast<int16_t>(rng.nextInRange(-3000, 3000));
        expect += static_cast<int32_t>(a[static_cast<size_t>(i)])
                  * b[static_cast<size_t>(i)];
    }
    Cpu cpu;
    EXPECT_EQ(nsp::dotProdMmx(cpu, a.data(), b.data(), n).v, expect);
}

INSTANTIATE_TEST_SUITE_P(Lengths, DotProdSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 9, 11, 12,
                                           15, 16, 17, 100));

// ---------------- JPEG across qualities and sizes ----------------

class JpegSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(JpegSweep, RoundTripsAtEveryQuality)
{
    auto [w, h, quality] = GetParam();
    auto img = workloads::makeTestImage(w, h, 500 + quality);
    apps::jpeg::JpegBenchmark bench;
    bench.setup(img, quality);
    Cpu cpu;
    bench.runC(cpu);
    bench.runMmx(cpu);

    auto dec_c = apps::jpeg::decodeJpeg(bench.jpegC());
    auto dec_m = apps::jpeg::decodeJpeg(bench.jpegMmx());
    double psnr_c = imagePsnr(img, dec_c);
    double psnr_m = imagePsnr(img, dec_m);
    // Lower quality still decodes sanely, higher quality is better.
    double floor = quality >= 75 ? 28.0 : (quality >= 50 ? 24.0 : 21.0);
    EXPECT_GT(psnr_c, floor) << "q" << quality;
    EXPECT_GT(psnr_m, floor - 1.0) << "q" << quality;
    EXPECT_GT(imagePsnr(dec_c, dec_m), 28.0)
        << "versions should be visually identical";
}

INSTANTIATE_TEST_SUITE_P(
    Qualities, JpegSweep,
    ::testing::Values(std::tuple{48, 32, 30}, std::tuple{48, 32, 50},
                      std::tuple{48, 32, 75}, std::tuple{48, 32, 92},
                      std::tuple{40, 56, 75}));

TEST(JpegProperty, HigherQualityMeansBiggerFileAndHigherPsnr)
{
    auto img = workloads::makeTestImage(64, 48, 9);
    Cpu cpu;
    size_t last_size = 0;
    double last_psnr = 0.0;
    for (int q : {25, 50, 75, 95}) {
        apps::jpeg::JpegBenchmark bench;
        bench.setup(img, q);
        bench.runC(cpu);
        auto dec = apps::jpeg::decodeJpeg(bench.jpegC());
        double psnr = imagePsnr(img, dec);
        EXPECT_GT(bench.jpegC().size(), last_size) << "q" << q;
        EXPECT_GT(psnr, last_psnr) << "q" << q;
        last_size = bench.jpegC().size();
        last_psnr = psnr;
    }
}

// ---------------- machine-level invariants ----------------

class RandomProgramSweep : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(RandomProgramSweep, TimingInvariantsHold)
{
    // Random instrumented programs: the dual-issue model can never
    // retire more than 2 instructions per cycle, per-site cycles must
    // sum to the total, and uops >= instructions.
    Rng rng(GetParam());
    Cpu cpu;
    VProf prof;
    cpu.attachSink(&prof);

    int32_t mem[256] = {};
    alignas(8) int16_t vec[64] = {};
    runtime::R32 acc = cpu.imm32(0);
    runtime::M64 macc = cpu.mmxZero();
    for (int i = 0; i < 2000; ++i) {
        switch (rng.nextBelow(8)) {
          case 0:
            acc = cpu.addLoad32(acc, &mem[rng.nextBelow(256)]);
            break;
          case 1:
            acc = cpu.imulImm(acc, 3);
            break;
          case 2:
            cpu.store32(&mem[rng.nextBelow(256)], acc);
            break;
          case 3:
            macc = cpu.paddw(macc, cpu.movqLoad(&vec[rng.nextBelow(56)]));
            break;
          case 4:
            macc = cpu.pmaddwdLoad(macc, &vec[rng.nextBelow(56) & ~3u]);
            break;
          case 5: {
            cpu.cmpImm(acc, 0);
            cpu.jcc(rng.nextBelow(2) != 0);
            break;
          }
          case 6: {
            runtime::F64 f = cpu.fild32(&mem[rng.nextBelow(256)]);
            f = cpu.fmul(f, cpu.fimm(1.5));
            cpu.fistp32(&mem[rng.nextBelow(256)], f);
            break;
          }
          default:
            acc = cpu.xor_(acc, cpu.imm32(static_cast<int32_t>(rng.next())));
            break;
        }
    }
    cpu.attachSink(nullptr);

    auto r = prof.result();
    // Dual issue: cycles >= instructions / 2.
    EXPECT_GE(2 * r.cycles, r.dynamicInstructions);
    // Micro-ops never fewer than instructions.
    EXPECT_GE(r.uops, r.dynamicInstructions);
    // Per-site cycle accounting is exact.
    uint64_t sum = 0;
    for (const auto &[id, st] : prof.sites())
        sum += st.cycles;
    EXPECT_EQ(sum, r.cycles);
    // Static sites bounded by distinct source locations used above.
    EXPECT_LE(r.staticInstructions, 40u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramSweep,
                         ::testing::Values(1ull, 2ull, 3ull, 0xfeedull));

// ---------------- image app across shapes ----------------

class ImageSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(ImageSweep, VersionsStayIdentical)
{
    auto [w, h, dim] = GetParam();
    auto img = workloads::makeTestImage(w, h, 60 + static_cast<uint64_t>(dim));
    apps::image::ImageBenchmark bench;
    bench.setup(img, static_cast<uint16_t>(dim));
    Cpu cpu;
    bench.runC(cpu);
    bench.runMmx(cpu);
    EXPECT_EQ(bench.outC().rgb, bench.outMmx().rgb);
    EXPECT_EQ(bench.outC().rgb, bench.reference().rgb);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ImageSweep,
    ::testing::Values(std::tuple{8, 3, 128}, std::tuple{16, 16, 180},
                      std::tuple{40, 24, 255}, std::tuple{8, 1, 1},
                      std::tuple{64, 48, 256}));

} // namespace
} // namespace mmxdsp
