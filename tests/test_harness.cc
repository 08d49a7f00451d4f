/**
 * @file
 * Tests for the benchmark harness and the paper-data tables, plus the
 * suite-level "shape" assertions that gate the reproduction: every
 * benchmark must land on the paper's side of 1.0, and the headline
 * orderings must hold. Runs on a scaled-down suite to stay fast.
 */

#include <gtest/gtest.h>

#include "harness/cli.hh"
#include "harness/paper_data.hh"
#include "harness/suite.hh"

namespace mmxdsp::harness {
namespace {

class SuiteTest : public ::testing::Test
{
  protected:
    static BenchmarkSuite &
    suite()
    {
        // Shared across tests: building the suite runs simulations.
        static SuiteConfig config = [] {
            SuiteConfig c;
            c.scaleDown(4);
            return c;
        }();
        static BenchmarkSuite s(config);
        return s;
    }
};

TEST_F(SuiteTest, AllRunsExecuteAndCache)
{
    for (const auto &[bench, version] : BenchmarkSuite::allRuns()) {
        const RunResult r = suite().run(bench, version);
        EXPECT_GT(r.profile.cycles, 0u) << r.name();
        EXPECT_GT(r.profile.dynamicInstructions, 0u) << r.name();
        // Cached: a re-run executes nothing and answers the same.
        const int captured = suite().traceActivity().captured;
        const RunResult again = suite().run(bench, version);
        EXPECT_EQ(suite().traceActivity().captured, captured) << r.name();
        EXPECT_TRUE(again.profile == r.profile) << r.name();
    }
}

TEST_F(SuiteTest, SpeedupSignsMatchThePaper)
{
    // The reproduction's core claim: who wins matches the paper.
    EXPECT_GT(suite().speedup("fft"), 1.0);
    EXPECT_GT(suite().speedup("fir"), 1.0);
    EXPECT_GT(suite().speedup("iir"), 1.0);
    EXPECT_GT(suite().speedup("matvec"), 1.0);
    EXPECT_GT(suite().speedup("radar"), 1.0);
    EXPECT_GT(suite().speedup("image"), 1.0);
    EXPECT_LT(suite().speedup("g722"), 1.0);
    EXPECT_LT(suite().speedup("jpeg"), 1.0);
}

TEST_F(SuiteTest, HeadlineOrderings)
{
    // jpeg is the worst benchmark, and the big winners are the two
    // data-parallel integer benchmarks.
    auto order = suite().benchmarksBySpeedup();
    ASSERT_EQ(order.size(), 8u);
    EXPECT_EQ(order.front(), "jpeg");
    EXPECT_TRUE((order[6] == "matvec" && order[7] == "image")
                || (order[6] == "image" && order[7] == "matvec"));
    // matvec superlinear even at reduced size.
    EXPECT_GT(suite().speedup("matvec"), 4.0);
}

TEST_F(SuiteTest, EveryMmxVersionGrowsStaticCode)
{
    for (const char *bench :
         {"fft", "fir", "iir", "matvec", "jpeg", "image", "g722", "radar"}) {
        const auto c = suite().run(bench, "c").profile;
        const auto mmx = suite().run(bench, "mmx").profile;
        EXPECT_GT(mmx.staticInstructions, c.staticInstructions) << bench;
    }
}

TEST(SuiteConfigTest, ScaleDownKeepsValidSizes)
{
    SuiteConfig c;
    c.scaleDown(8);
    EXPECT_GE(c.fft_size, 64);
    EXPECT_EQ(c.fft_size & (c.fft_size - 1), 0) << "power of two";
    EXPECT_GE(c.matvec_dim, 32);
    EXPECT_GT(c.g722_samples, 0);
    EXPECT_EQ(c.image_width * 3 % 24, 0)
        << "image byte size must stay a multiple of 24";
}

TEST(SuiteConfigTest, HashCoversEveryWorkloadField)
{
    // The trace store is keyed by this hash; if a workload field were
    // left out, a config change could silently replay the wrong stream.
    const SuiteConfig base;
    const uint64_t base_hash = base.hash();
    EXPECT_EQ(SuiteConfig{}.hash(), base_hash) << "hash must be stable";

    const auto changed = [&](auto mutate, const char *field) {
        SuiteConfig c;
        mutate(c);
        EXPECT_NE(c.hash(), base_hash) << field;
    };
    changed([](SuiteConfig &c) { ++c.fir_samples; }, "fir_samples");
    changed([](SuiteConfig &c) { ++c.iir_samples; }, "iir_samples");
    changed([](SuiteConfig &c) { c.fft_size *= 2; }, "fft_size");
    changed([](SuiteConfig &c) { ++c.matvec_dim; }, "matvec_dim");
    changed([](SuiteConfig &c) { ++c.gemm_dim; }, "gemm_dim");
    changed([](SuiteConfig &c) { ++c.gemm_block; }, "gemm_block");
    changed([](SuiteConfig &c) { ++c.image_width; }, "image_width");
    changed([](SuiteConfig &c) { ++c.image_height; }, "image_height");
    changed([](SuiteConfig &c) { ++c.jpeg_width; }, "jpeg_width");
    changed([](SuiteConfig &c) { ++c.jpeg_height; }, "jpeg_height");
    changed([](SuiteConfig &c) { ++c.jpeg_quality; }, "jpeg_quality");
    changed([](SuiteConfig &c) { ++c.g722_samples; }, "g722_samples");
    changed([](SuiteConfig &c) { ++c.radar_echoes; }, "radar_echoes");
    changed([](SuiteConfig &c) { ++c.seed; }, "seed");
}

TEST(BenchCli, ParseIntListAcceptsCommaSeparatedPositiveInts)
{
    std::vector<int> out;
    EXPECT_TRUE(parseIntList("16,32,48", &out));
    EXPECT_EQ(out, (std::vector<int>{16, 32, 48}));
    EXPECT_TRUE(parseIntList("7", &out));
    EXPECT_EQ(out, (std::vector<int>{7}));
}

TEST(BenchCli, ParseIntListRejectsMalformedInputWithoutTouchingOutput)
{
    const std::vector<int> sentinel{99};
    for (const char *bad :
         {"", "16,", ",16", "16,,32", "a", "16,a", "0", "-4", "16 32",
          "3000000"}) {
        std::vector<int> out = sentinel;
        EXPECT_FALSE(parseIntList(bad, &out)) << "\"" << bad << "\"";
        EXPECT_EQ(out, sentinel) << "\"" << bad << "\"";
    }
    std::vector<int> out{99};
    EXPECT_FALSE(parseIntList(nullptr, &out));
    EXPECT_EQ(out, (std::vector<int>{99}));
}

TEST(BenchCli, ParseIntFlagTakesOnlyAWholeInRangeValue)
{
    int out = 99;
    EXPECT_TRUE(parseIntFlag("--scale=8", "--scale", &out));
    EXPECT_EQ(out, 8);
    EXPECT_TRUE(parseIntFlag("--threads=0", "--threads", &out));
    EXPECT_EQ(out, 0);
    out = 99;
    for (const char *bad : {"--scale=8x", "--scale=abc", "--scale=-7",
                            "--scale=", "--scale", "--scales=8",
                            "--scale=2000000"}) {
        EXPECT_FALSE(parseIntFlag(bad, "--scale", &out)) << bad;
        EXPECT_EQ(out, 99) << bad;
    }
}

TEST(PaperData, TablesAreCompleteAndConsistent)
{
    // Table 2: 19 rows, Table 3: 11 rows (as published).
    size_t n2 = 0;
    while (paperTable2(n2))
        ++n2;
    EXPECT_EQ(n2, 19u);
    size_t n3 = 0;
    while (paperTable3(n3))
        ++n3;
    EXPECT_EQ(n3, 11u);

    // Spot-check the famous numbers.
    const PaperTable3Row *matvec = paperTable3For("matvec.c");
    ASSERT_NE(matvec, nullptr);
    EXPECT_DOUBLE_EQ(matvec->speedup, 6.61);
    const PaperTable3Row *jpeg = paperTable3For("jpeg.c");
    ASSERT_NE(jpeg, nullptr);
    EXPECT_DOUBLE_EQ(jpeg->speedup, 0.49);
    const PaperTable2Row *image = paperTable2For("image.mmx");
    ASSERT_NE(image, nullptr);
    EXPECT_DOUBLE_EQ(image->pctMmx, 85.10);

    // Every Table 3 row has both of its Table 2 programs.
    for (size_t i = 0; i < n3; ++i) {
        const PaperTable3Row *row = paperTable3(i);
        EXPECT_NE(paperTable2For(row->program), nullptr) << row->program;
        std::string bench(row->program);
        bench = bench.substr(0, bench.find('.'));
        EXPECT_NE(paperTable2For(bench + ".mmx"), nullptr) << bench;
    }

    EXPECT_EQ(paperTable2For("nonexistent.c"), nullptr);
    EXPECT_EQ(paperTable3For("nonexistent.c"), nullptr);
}

} // namespace
} // namespace mmxdsp::harness
