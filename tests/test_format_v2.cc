/**
 * @file
 * Tests for the trace image (format_v2.hh, the mmap'd materialized
 * layout): property round-trips on randomized streams, determinism,
 * the zero-copy file load, corruption and truncation rejection, and
 * every benchmark pair's mmap'd image against its live run.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "profile/vprof.hh"
#include "sim/timing_model.hh"
#include "support/io.hh"
#include "support/rng.hh"
#include "trace/format_v2.hh"
#include "trace/materialize.hh"
#include "trace_test_util.hh"

namespace mmxdsp {
namespace {

using namespace testutil;

// ---------------- image detection ----------------

TEST(FormatV2, DetectsImageVersions)
{
    const std::vector<uint8_t> image = randomTrace(1, 100).serializeV2();
    EXPECT_TRUE(trace::isV2Image(image.data(), image.size()));
    EXPECT_FALSE(trace::isV2Image(image.data(), 3)); // too short

    std::vector<uint8_t> other = image;
    other[3] ^= 0x01; // "MXT2" -> another magic
    EXPECT_FALSE(trace::isV2Image(other.data(), other.size()));
}

// ---------------- property round-trip ----------------

TEST(FormatV2, RandomStreamsRoundTripBitIdentical)
{
    // For a spread of random streams: capture -> image -> in-memory
    // load must reproduce the identical event stream, the identical
    // metadata, and identical profiles on every machine.
    for (uint64_t seed : {1u, 17u, 99u, 12345u}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng sizeRng(seed);
        const int n = 500 + static_cast<int>(sizeRng.nextBelow(3000));
        const trace::MaterializedTrace built = randomTrace(seed, n);

        trace::MaterializedTrace loaded;
        ASSERT_TRUE(loaded.loadV2Image(built.serializeV2()));

        EXPECT_EQ(loaded.benchmark(), built.benchmark());
        EXPECT_EQ(loaded.version(), built.version());
        EXPECT_EQ(loaded.configHash(), built.configHash());
        EXPECT_EQ(loaded.instrCount(), built.instrCount());
        EXPECT_EQ(loaded.siteTableSize(), built.siteTableSize());
        EXPECT_EQ(loaded.functionNames(), built.functionNames());

        RecordingSink a, b;
        ASSERT_TRUE(built.replayTo(a));
        ASSERT_TRUE(loaded.replayTo(b));
        expectSameStream(b, a);

        for (const sim::ModelKind model :
             {sim::ModelKind::P5, sim::ModelKind::P6,
              sim::ModelKind::P6P}) {
            const sim::MachineConfig machine{model, sim::TimerConfig{}};
            expectSameProfile(loaded.replayProfile(machine),
                              built.replayProfile(machine),
                              std::string("model ")
                                  + sim::modelName(model));
        }
    }
}

TEST(FormatV2, SerializationIsDeterministic)
{
    const trace::MaterializedTrace mat = randomTrace(7, 1200);
    EXPECT_EQ(mat.serializeV2(), mat.serializeV2());

    // A load-then-reserialize is also byte-stable (views serialize
    // exactly like owned buffers).
    trace::MaterializedTrace loaded;
    ASSERT_TRUE(loaded.loadV2Image(mat.serializeV2()));
    EXPECT_EQ(loaded.serializeV2(), mat.serializeV2());
}

// ---------------- mmap file load ----------------

TEST(FormatV2, FileLoadAliasesMapping)
{
    ScratchDir scratch("mmxdsp_v2_file_test");
    const trace::MaterializedTrace built = randomTrace(3, 2000);
    const std::string path = (scratch.path / "t.mxt2").string();
    // The streaming publish writes exactly serializeV2()'s bytes.
    ASSERT_TRUE(built.writeV2File(path));
    std::vector<uint8_t> written;
    ASSERT_TRUE(readFile(path, written));
    EXPECT_EQ(written, built.serializeV2());

    trace::MaterializedTrace loaded;
    ASSERT_TRUE(loaded.loadV2File(path));
    EXPECT_TRUE(loaded.valid());
    EXPECT_EQ(loaded.instrCount(), built.instrCount());
    expectSameProfile(loaded.replayProfile(), built.replayProfile(),
                      "file load");

    // POSIX keeps the mapping alive after an unlink: a trace served
    // to a query must survive its own file being evicted.
    fs::remove(path);
    expectSameProfile(loaded.replayProfile(), built.replayProfile(),
                      "after unlink");

    trace::MaterializedTrace missing;
    EXPECT_FALSE(missing.loadV2File((scratch.path / "nope").string()));
}

// ---------------- corruption handling ----------------

TEST(FormatV2, RejectsTruncation)
{
    const std::vector<uint8_t> image =
        randomTrace(5, 600).serializeV2();
    // Every strict prefix must be refused: the final section runs to
    // the end of the image, so any truncation breaks its bounds.
    for (size_t len : {0ul, 3ul, 16ul, 63ul, 64ul, 200ul,
                       image.size() / 2, image.size() - 1}) {
        std::vector<uint8_t> bad(image.begin(),
                                 image.begin()
                                     + static_cast<ptrdiff_t>(len));
        trace::MaterializedTrace mat;
        EXPECT_FALSE(mat.loadV2Image(std::move(bad))) << len;
    }
}

TEST(FormatV2, RejectsHeaderAndSectionCorruption)
{
    const std::vector<uint8_t> image =
        randomTrace(5, 600).serializeV2();
    { // magic
        std::vector<uint8_t> bad = image;
        bad[0] ^= 0xff;
        trace::MaterializedTrace mat;
        EXPECT_FALSE(mat.loadV2Image(std::move(bad)));
    }
    { // version
        std::vector<uint8_t> bad = image;
        bad[4] ^= 0x01;
        trace::MaterializedTrace mat;
        EXPECT_FALSE(mat.loadV2Image(std::move(bad)));
    }
    { // section table (offset field of the first section)
        std::vector<uint8_t> bad = image;
        bad[sizeof(trace::V2Header) + 8] ^= 0x01;
        trace::MaterializedTrace mat;
        EXPECT_FALSE(mat.loadV2Image(std::move(bad)));
    }
}

TEST(FormatV2, FuzzedCorruptionNeverReplaysWrongNumbers)
{
    // Contract: for ANY single-byte corruption the load either refuses
    // the image or the loaded trace replays bit-identical to the
    // original (alignment padding between sections is the only region
    // no checksum covers, and it carries no data).
    const trace::MaterializedTrace built = randomTrace(9, 800);
    const std::vector<uint8_t> image = built.serializeV2();
    const profile::ProfileResult expect = built.replayProfile();

    Rng rng(0xf22du);
    int accepted = 0, rejected = 0;
    for (int i = 0; i < 200; ++i) {
        std::vector<uint8_t> bad = image;
        const size_t pos = rng.nextBelow(
            static_cast<uint32_t>(bad.size()));
        const uint8_t bit = static_cast<uint8_t>(
            1u << rng.nextBelow(8));
        bad[pos] ^= bit;
        trace::MaterializedTrace mat;
        if (!mat.loadV2Image(std::move(bad))) {
            ++rejected;
            continue;
        }
        ++accepted;
        const profile::ProfileResult got = mat.replayProfile();
        ASSERT_EQ(got.cycles, expect.cycles) << "byte " << pos;
        ASSERT_EQ(got.dynamicInstructions, expect.dynamicInstructions);
    }
    // Almost every flip must land in checksummed bytes.
    EXPECT_GT(rejected, 150);
    (void)accepted;
}

// ---------------- the acceptance gate ----------------

TEST(FormatV2, EveryPairMmapLoadMatchesVarintPathOnBothModels)
{
    // For every registry pair (allRuns() is counted, not enumerated, so
    // new workloads join automatically): the capture's image written to
    // disk and mmap'd back (the vprofd serving path) must replay each
    // live profile bit-identically on every model.
    ScratchDir scratch("mmxdsp_v2_pairs_test");
    for (const PairCapture &pc : everyPairCapture()) {
        const std::string path = (scratch.path / (pc.name + ".mxt2")).string();
        ASSERT_TRUE(pc.mat.writeV2File(path)) << pc.name;
        trace::MaterializedTrace loaded;
        ASSERT_TRUE(loaded.loadV2File(path)) << pc.name;
        EXPECT_EQ(loaded.serializeV2(), pc.mat.serializeV2()) << pc.name;
        for (size_t m = 0; m < std::size(kModels); ++m) {
            const sim::MachineConfig machine{kModels[m], {}};
            expectSameProfile(loaded.replayProfile(machine), pc.live[m],
                              pc.name + " on "
                                  + sim::modelName(kModels[m]));
        }
    }
}

} // namespace
} // namespace mmxdsp
