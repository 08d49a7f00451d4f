/**
 * @file
 * Tests for MaterializeSink (the one capture path): the image of a real
 * capture passes full validation and survives truncation and
 * corruption fuzz, and the BenchmarkSuite wiring publishes each cold
 * capture to the trace store, where a second process maps it instead
 * of re-executing, and treats an image of an older layout as a miss.
 * Random streams and every registry pair are captured next to live
 * VProfs, and the capture's image must reproduce each live profile on
 * every model.
 * A capture past the image's address-region limit panics.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "harness/suite.hh"
#include "profile/vprof.hh"
#include "runtime/cpu.hh"
#include "service/trace_store.hh"
#include "support/io.hh"
#include "support/rng.hh"
#include "trace/format_v2.hh"
#include "trace/materialize.hh"
#include "trace/materialize_sink.hh"
#include "trace_test_util.hh"

namespace mmxdsp {
namespace {

using namespace testutil;

/** One real capture of fir.mmx at tinyConfig(), with site metadata. */
trace::MaterializedTrace
firCapture()
{
    harness::BenchmarkSuite suite(tinyConfig());
    trace::MaterializeSink sink("fir", "mmx", tinyConfig().hash());
    suite.executeLive("fir", "mmx", &sink);
    runtime::Cpu cpu; // site ids are process-global
    return sink.finish(&cpu);
}

// ---------------- live identity ----------------

/**
 * Expect @p mat's image, validated by a full re-hash on load, to be
 * byte-stable and to replay @p live (indexed as kModels) on every model.
 */
void
expectImageMatchesLive(const trace::MaterializedTrace &mat,
                       const profile::ProfileResult *live,
                       const std::string &what)
{
    const std::vector<uint8_t> image = mat.serializeV2();
    trace::MaterializedTrace loaded;
    ASSERT_TRUE(loaded.loadV2Image(image)) << what;
    EXPECT_EQ(loaded.serializeV2(), image) << what;
    for (size_t m = 0; m < std::size(kModels); ++m) {
        const sim::MachineConfig machine{kModels[m], {}};
        const std::string on = what + " on " + sim::modelName(kModels[m]);
        expectSameProfile(mat.replayProfile(machine), live[m], on);
        expectSameProfile(loaded.replayProfile(machine), live[m],
                          on + " reloaded");
    }
}

TEST(MaterializeSink, RandomStreamsMatchLiveBitIdentically)
{
    // Random streams (single-event delivery, no site metadata) feed a
    // MaterializeSink and a live VProf per model in one pass. The
    // capture — and its image, whose section checksums the sink folded
    // incrementally and the load re-hashes whole — must reproduce each
    // live profile.
    for (uint64_t seed : {2u, 29u, 404u, 31337u}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng sizeRng(seed);
        const int n = 500 + static_cast<int>(sizeRng.nextBelow(3000));

        trace::MaterializeSink sink("rand", "c", seed);
        profile::VProf p5(sim::MachineConfig{kModels[0], {}});
        profile::VProf p6(sim::MachineConfig{kModels[1], {}});
        profile::VProf p6p(sim::MachineConfig{kModels[2], {}});
        sim::TeeSink t3(&p6p, &sink), t2(&p6, &t3), tee(&p5, &t2);
        feedRandomStream(seed, n, tee);
        const trace::MaterializedTrace mat = sink.finish();
        ASSERT_TRUE(mat.valid());

        const profile::ProfileResult live[] = {p5.result(), p6.result(),
                                               p6p.result()};
        expectImageMatchesLive(mat, live, "rand.c");
    }
}

TEST(MaterializeSink, EveryPairCaptureMatchesLiveOnEveryModel)
{
    // For every allRuns() registry pair: the capture, with its site
    // metadata, must give a valid byte-stable image that reproduces
    // the pair's live profile on every model.
    for (const PairCapture &pc : everyPairCapture()) {
        ASSERT_TRUE(pc.mat.valid()) << pc.name;
        EXPECT_FALSE(pc.mat.functionNames().empty()) << pc.name;
        expectImageMatchesLive(pc.mat, pc.live, pc.name);
    }
}

// ---------------- image limits ----------------

TEST(MaterializeSinkDeathTest, PanicsPastTheAddressRegionLimit)
{
    // The record's 7-bit region index addresses 128 high address
    // halves; a stream touching a 129th cannot be stored and must stop
    // the capture with a clear message rather than wrap silently.
    EXPECT_DEATH(
        {
            trace::MaterializeSink sink("regions", "c", 1);
            for (uint64_t r = 0; r <= trace::kMaxAddrRegions; ++r) {
                isa::InstrEvent e;
                e.op = isa::Op::Mov;
                e.mem = isa::MemMode::Load;
                e.addr = r << 32 | 0x40;
                e.size = 4;
                sink.onInstr(e);
            }
            sink.finish();
        },
        "more than 128 distinct address regions");
}

TEST(MaterializeSinkDeathTest, PanicsPastTheStaticTableLimit)
{
    // Likewise the record's 16-bit static index: 65537 distinct
    // (site, op, memory mode, size) tuples cannot be stored.
    EXPECT_DEATH(
        {
            trace::MaterializeSink sink("statics", "c", 1);
            isa::InstrEvent e;
            e.op = isa::Op::Nop;
            for (uint32_t site = 0; site <= trace::kMaxStaticInstrs; ++site) {
                e.site = site;
                sink.onInstr(e);
            }
            sink.finish();
        },
        "more than 65536 distinct \\(site, op, memory mode, size\\) tuples");
}

TEST(MaterializeSink, HoldsExactlyTheAddressRegionLimit)
{
    // 128 regions fit, and every address replays exactly.
    trace::MaterializeSink sink("regions", "c", 1);
    RecordingSink fed;
    sim::TeeSink tee(&fed, &sink);
    for (uint64_t r = 0; r < trace::kMaxAddrRegions; ++r) {
        isa::InstrEvent e;
        e.op = isa::Op::Mov;
        e.mem = isa::MemMode::Store;
        e.addr = (r * 0x9e3779b9ull) << 32 | (0xfffffff0u - r);
        e.size = 4;
        tee.onInstr(e);
    }
    trace::MaterializedTrace loaded;
    ASSERT_TRUE(loaded.loadV2Image(sink.finish().serializeV2()));
    RecordingSink replayed;
    ASSERT_TRUE(loaded.replayTo(replayed));
    expectSameStream(replayed, fed);
}

// ---------------- streaming serializer integrity ----------------

TEST(MaterializeSink, DirectImagePassesFullValidationRehash)
{
    // loadV2Image re-hashes every section against the table, so a
    // successful load proves each incrementally-folded checksum equals
    // the whole-array FNV-1a of the final bytes.
    const trace::MaterializedTrace direct = firCapture();
    trace::MaterializedTrace loaded;
    ASSERT_TRUE(loaded.loadV2Image(direct.serializeV2()));
    expectSameProfile(loaded.replayProfile(), direct.replayProfile(),
                      "validated reload");
    EXPECT_EQ(loaded.siteLabel(1), direct.siteLabel(1));
    // And a load-then-reserialize (which reuses the harvested
    // checksums) is still byte-stable.
    EXPECT_EQ(loaded.serializeV2(), direct.serializeV2());
}

TEST(MaterializeSink, DirectImageRejectsTruncation)
{
    const std::vector<uint8_t> image = firCapture().serializeV2();
    for (size_t len : {0ul, 3ul, 16ul, 63ul, 64ul, 200ul,
                       image.size() / 2, image.size() - 1}) {
        std::vector<uint8_t> bad(image.begin(),
                                 image.begin()
                                     + static_cast<ptrdiff_t>(len));
        trace::MaterializedTrace mat;
        EXPECT_FALSE(mat.loadV2Image(std::move(bad))) << len;
    }
}

TEST(MaterializeSink, DirectImageFuzzedCorruptionNeverReplaysWrongNumbers)
{
    // Any single-byte corruption of a captured image is either refused
    // or harmless (only the unchecksummed alignment padding is).
    const trace::MaterializedTrace direct = firCapture();
    const std::vector<uint8_t> image = direct.serializeV2();
    const profile::ProfileResult expect = direct.replayProfile();

    Rng rng(0xd1ec7u);
    int rejected = 0;
    for (int i = 0; i < 200; ++i) {
        std::vector<uint8_t> bad = image;
        const size_t pos = rng.nextBelow(
            static_cast<uint32_t>(bad.size()));
        const uint8_t bit = static_cast<uint8_t>(1u << rng.nextBelow(8));
        bad[pos] ^= bit;
        trace::MaterializedTrace mat;
        if (!mat.loadV2Image(std::move(bad))) {
            ++rejected;
            continue;
        }
        const profile::ProfileResult got = mat.replayProfile();
        ASSERT_EQ(got.cycles, expect.cycles) << "byte " << pos;
        ASSERT_EQ(got.dynamicInstructions, expect.dynamicInstructions);
    }
    EXPECT_GT(rejected, 150);
}

// ---------------- suite wiring ----------------

TEST(MaterializeSink, SuiteColdCapturePublishesAndReloadsAcrossProcesses)
{
    // First suite: the cold materializedFor captures exactly once and
    // publishes to the trace store; a second suite (same config + dir,
    // modelling a fresh process) must serve the identical trace from
    // disk without executing anything.
    ScratchDir scratch("mmxdsp_matsink_suite_test");
    const harness::SuiteConfig config = tinyConfig();
    const harness::TraceOptions opts{true, scratch.path.string()};

    harness::BenchmarkSuite first(config, opts);
    auto mat1 = first.materializedFor("fir", "mmx");
    EXPECT_EQ(first.traceActivity().captured, 1);
    EXPECT_EQ(first.traceActivity().disk_hits, 0);
    EXPECT_EQ(first.traceDir(), scratch.path.string());

    // The entry is a trace image directly in the store root.
    service::StoreOptions store_opts;
    store_opts.root = scratch.path.string();
    const service::TraceStore store(store_opts);
    const fs::path entry = store.path("fir", "mmx", config.hash());
    EXPECT_TRUE(fs::exists(entry));
    EXPECT_EQ(entry.parent_path(), scratch.path);

    harness::BenchmarkSuite second(config, opts);
    auto mat2 = second.materializedFor("fir", "mmx");
    EXPECT_EQ(second.traceActivity().captured, 0);
    EXPECT_EQ(second.traceActivity().disk_hits, 1);
    EXPECT_EQ(mat2->instrCount(), mat1->instrCount());
    EXPECT_EQ(mat2->serializeV2(), mat1->serializeV2());

    // run() on the second suite replays the trace it already holds
    // (no load, no execution), so sweeps and runs stay consistent
    // across the two.
    const harness::RunResult run = second.run("fir", "mmx");
    EXPECT_EQ(second.traceActivity().disk_hits, 1);
    EXPECT_EQ(second.traceActivity().captured, 0);
    expectSameProfile(run.profile, mat1->replayProfile(), "second process");
}

TEST(MaterializeSink, SuiteTreatsAnOlderImageVersionAsAMiss)
{
    // An image of an older layout version (a store filled before the
    // last format change) must not load, yet it is no corruption: the
    // store leaves it in place as a plain miss, and the suite captures
    // the pair afresh and publishes it over the old entry.
    ScratchDir scratch("mmxdsp_matsink_version_test");
    const harness::SuiteConfig config = tinyConfig();
    service::StoreOptions store_opts;
    store_opts.root = scratch.path.string();
    service::TraceStore store(store_opts);
    const fs::path entry = store.path("fir", "mmx", config.hash());
    fs::create_directories(entry.parent_path());

    std::vector<uint8_t> image = firCapture().serializeV2();
    trace::V2Header header;
    std::memcpy(&header, image.data(), sizeof(header));
    ASSERT_EQ(header.version, trace::kFormatVersionV2);
    header.version = 3;
    std::memcpy(image.data(), &header, sizeof(header));
    ASSERT_TRUE(writeFileAtomic(entry.string(), image));

    harness::BenchmarkSuite suite(config,
                                  harness::TraceOptions{true,
                                                        scratch.path.string()});
    const auto mat = suite.materializedFor("fir", "mmx");
    EXPECT_EQ(suite.traceActivity().captured, 1);
    EXPECT_EQ(suite.traceActivity().disk_hits, 0);

    size_t files = 0, quarantined = 0;
    for (const auto &de : fs::recursive_directory_iterator(scratch.path)) {
        files += de.is_regular_file();
        quarantined += de.is_regular_file()
                       && de.path().parent_path().filename() == "quarantine";
    }
    EXPECT_EQ(quarantined, 0u);
    EXPECT_EQ(files, 1u);
    // The recapture replaced the old entry in place, in the current
    // layout.
    const auto reloaded = store.load("fir", "mmx", config.hash());
    ASSERT_TRUE(reloaded);
    EXPECT_EQ(reloaded->serializeV2(), mat->serializeV2());
}

TEST(MaterializeSink, FinishWithoutCpuCarriesNoSiteMetadata)
{
    const trace::MaterializedTrace direct = randomTrace(3, 300);
    // Unknown sites label as "site#N" — metadata was not embedded.
    EXPECT_EQ(direct.siteLabel(0).rfind("site#", 0), 0u);
}

} // namespace
} // namespace mmxdsp
