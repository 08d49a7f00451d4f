/**
 * @file
 * Tests for the trace image (format_v2.hh, the mmap'd materialized
 * layout): property round-trips on randomized streams, determinism,
 * the zero-copy file load, corruption and truncation rejection, crafted
 * images whose checksums were recomputed over an out-of-range field,
 * the image's bytes per event, and every benchmark pair's mmap'd image
 * against its live run.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "profile/vprof.hh"
#include "sim/timing_model.hh"
#include "support/io.hh"
#include "support/rng.hh"
#include "isa/op.hh"
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

    // Another format version is stale, not corrupt; another magic is
    // neither.
    EXPECT_FALSE(trace::isStaleV2Image(image.data(), image.size()));
    std::vector<uint8_t> older = image;
    older[4] ^= 0x01;
    EXPECT_TRUE(trace::isStaleV2Image(older.data(), older.size()));
    EXPECT_FALSE(trace::isStaleV2Image(older.data(), 7)); // too short
    EXPECT_FALSE(trace::isStaleV2Image(other.data(), other.size()));
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

// ---------------- crafted images ----------------

/** The header and section table of an image, and where each section
 *  lies. */
struct ImageView
{
    trace::V2Header header{};
    std::vector<trace::V2Section> table;

    explicit ImageView(const std::vector<uint8_t> &image)
    {
        std::memcpy(&header, image.data(), sizeof(header));
        table.resize(header.sectionCount);
        std::memcpy(table.data(), image.data() + sizeof(header),
                    table.size() * sizeof(trace::V2Section));
    }

    trace::V2Section &section(trace::V2SectionId id)
    {
        for (trace::V2Section &sec : table)
            if (sec.id == static_cast<uint32_t>(id))
                return sec;
        ADD_FAILURE() << "no section " << static_cast<uint32_t>(id);
        return table[0];
    }

    /** Element @p i of section @p id, read as a T. */
    template <typename T>
    T at(const std::vector<uint8_t> &image, trace::V2SectionId id,
         size_t i)
    {
        T v;
        std::memcpy(&v, image.data() + section(id).offset + i * sizeof(T),
                    sizeof(T));
        return v;
    }
};

/**
 * @p image with section @p id changed by @p patch (its bytes and its
 * length field) and the section and table checksums recomputed with
 * fnv1aWords: a crafted file every checksum accepts.
 */
std::vector<uint8_t>
recomputed(std::vector<uint8_t> image, trace::V2SectionId id,
           const std::function<void(uint8_t *, uint64_t &)> &patch)
{
    ImageView view(image);
    trace::V2Section &sec = view.section(id);
    patch(image.data() + sec.offset, sec.length);
    sec.checksum = trace::fnv1aWords(image.data() + sec.offset,
                                     static_cast<size_t>(sec.length));
    const size_t tableBytes = view.table.size() * sizeof(trace::V2Section);
    std::memcpy(image.data() + sizeof(trace::V2Header), view.table.data(),
                tableBytes);
    view.header.tableChecksum = trace::fnv1aWords(
        image.data() + sizeof(trace::V2Header), tableBytes);
    std::memcpy(image.data(), &view.header, sizeof(view.header));
    return image;
}

/** A patch overwriting the T at byte @p offset of a section. */
template <typename T>
std::function<void(uint8_t *, uint64_t &)>
setAt(size_t offset, T value)
{
    return [=](uint8_t *data, uint64_t &) {
        std::memcpy(data + offset, &value, sizeof(T));
    };
}

bool
loads(std::vector<uint8_t> image)
{
    trace::MaterializedTrace mat;
    return mat.loadV2Image(std::move(image));
}

TEST(FormatV2, RecomputedChecksumsLoadAnUnchangedImage)
{
    // The crafting helper itself: re-sealing an unchanged section must
    // leave a loadable, byte-identical image.
    const std::vector<uint8_t> image = randomTrace(5, 600).serializeV2();
    for (const trace::V2SectionId id :
         {trace::V2SectionId::Statics, trace::V2SectionId::Regions,
          trace::V2SectionId::Ops, trace::V2SectionId::Addr,
          trace::V2SectionId::Segments}) {
        const std::vector<uint8_t> same =
            recomputed(image, id, [](uint8_t *, uint64_t &) {});
        EXPECT_EQ(same, image);
        EXPECT_TRUE(loads(same));
    }
}

TEST(FormatV2, RefusesOutOfRangeStaticEntriesDespiteValidChecksums)
{
    // FNV is not a MAC: an image whose checksums were recomputed over a
    // bad static entry must still be refused, or a kernel would index
    // sim::descTable() past its end.
    const trace::MaterializedTrace built = randomTrace(5, 600);
    const std::vector<uint8_t> image = built.serializeV2();
    const struct
    {
        const char *what;
        std::function<void(uint8_t *, uint64_t &)> patch;
    } cases[] = {
        {"op 0xffff",
         setAt<uint16_t>(offsetof(trace::StaticInstr, op), 0xffff)},
        {"op kNumOps", setAt<uint16_t>(offsetof(trace::StaticInstr, op),
                                       static_cast<uint16_t>(isa::kNumOps))},
        {"memory mode 3",
         setAt<uint8_t>(offsetof(trace::StaticInstr, mem), 3)},
    };
    for (const auto &c : cases)
        EXPECT_FALSE(loads(recomputed(image, trace::V2SectionId::Statics,
                                      c.patch)))
            << c.what;
}

TEST(FormatV2, LoadsAnySiteIdWithoutSizingByIt)
{
    // A site id is any u32: nothing a load derives, and nothing a VProf
    // fed the loaded stream keeps, is sized or indexed by it, so the
    // largest one loads, replays on every model (through both) and
    // labels as unknown (ASan checks the reads).
    const trace::MaterializedTrace built = randomTrace(5, 600);
    trace::MaterializedTrace mat;
    ASSERT_TRUE(mat.loadV2Image(recomputed(
        built.serializeV2(), trace::V2SectionId::Statics,
        setAt<uint32_t>(offsetof(trace::StaticInstr, site), UINT32_MAX))));
    EXPECT_EQ(mat.siteLabel(UINT32_MAX), "site#4294967295");
    RecordingSink sink;
    ASSERT_TRUE(mat.replayTo(sink));
    EXPECT_EQ(sink.events.size(), built.instrCount());
    for (const sim::ModelKind model : kModels) {
        const sim::MachineConfig machine{model, {}};
        const profile::ProfileResult got = mat.replayProfile(machine);
        EXPECT_EQ(got.dynamicInstructions, built.instrCount());
        EXPECT_GT(got.cycles, 0u);
        profile::VProf vprof(machine);
        ASSERT_TRUE(mat.replayTo(vprof));
        expectSameProfile(got, vprof.result(), sim::modelName(model));
    }
}

TEST(FormatV2, TalliesAreDerivedFromTheRecords)
{
    // An image whose static entry names another op of the same memory
    // mode and control class (checksums recomputed) loads, and every
    // count replayProfile() reports is the records' own: a VProf fed
    // the loaded trace's stream agrees on each model. A count stored
    // at capture would still carry the old op.
    const trace::MaterializedTrace built = randomTrace(5, 600);
    const std::vector<uint8_t> image = built.serializeV2();
    ImageView view(image);
    const size_t nstatic = view.section(trace::V2SectionId::Statics).length
                           / sizeof(trace::StaticInstr);
    constexpr isa::Op kSwapTo = isa::Op::Pmaddwd;
    size_t sid = nstatic;
    for (size_t i = 0; i < nstatic && sid == nstatic; ++i) {
        const auto st = view.at<trace::StaticInstr>(
            image, trace::V2SectionId::Statics, i);
        const auto op = static_cast<isa::Op>(st.op);
        if (op != kSwapTo && !isa::isControl(op))
            sid = i;
    }
    ASSERT_LT(sid, nstatic);

    trace::MaterializedTrace mat;
    ASSERT_TRUE(mat.loadV2Image(recomputed(
        image, trace::V2SectionId::Statics,
        setAt<uint16_t>(sid * sizeof(trace::StaticInstr)
                            + offsetof(trace::StaticInstr, op),
                        static_cast<uint16_t>(kSwapTo)))));
    for (const sim::ModelKind model : kModels) {
        const sim::MachineConfig machine{model, {}};
        profile::VProf vprof(machine);
        ASSERT_TRUE(mat.replayTo(vprof));
        const profile::ProfileResult want = vprof.result();
        const profile::ProfileResult got = mat.replayProfile(machine);
        EXPECT_EQ(got.opCounts, want.opCounts);
        EXPECT_EQ(got.uops, want.uops);
        EXPECT_EQ(got.mmxByCategory, want.mmxByCategory);
        EXPECT_EQ(got.memoryReferences, want.memoryReferences);
        expectSameProfile(got, want, sim::modelName(model));
    }
    EXPECT_NE(mat.replayProfile().opCounts, built.replayProfile().opCounts);
}

TEST(FormatV2, RefusesOutOfRangeRecordsDespiteValidChecksums)
{
    const std::vector<uint8_t> image = randomTrace(5, 600).serializeV2();
    ImageView view(image);
    const size_t nstatic =
        view.section(trace::V2SectionId::Statics).length
        / sizeof(trace::StaticInstr);
    const size_t nregion =
        view.section(trace::V2SectionId::Regions).length / sizeof(uint32_t);
    const size_t nops =
        view.section(trace::V2SectionId::Ops).length
        / sizeof(trace::PackedOp);
    ASSERT_GT(nregion, 1u);

    // The first memory and the first non-memory event.
    size_t memEvent = nops, plainEvent = nops;
    for (size_t i = 0; i < nops; ++i) {
        const auto op =
            view.at<trace::PackedOp>(image, trace::V2SectionId::Ops, i);
        const auto st = view.at<trace::StaticInstr>(
            image, trace::V2SectionId::Statics, op.sid);
        size_t &slot = st.mem ? memEvent : plainEvent;
        if (slot == nops)
            slot = i;
    }
    ASSERT_LT(memEvent, nops);
    ASSERT_LT(plainEvent, nops);

    const auto field = [](size_t i, size_t offset) {
        return i * sizeof(trace::PackedOp) + offset;
    };
    const struct
    {
        const char *what;
        std::function<void(uint8_t *, uint64_t &)> patch;
    } cases[] = {
        {"sid == static count",
         setAt<uint16_t>(field(memEvent, offsetof(trace::PackedOp, sid)),
                         static_cast<uint16_t>(nstatic))},
        {"region == region count",
         setAt<uint8_t>(field(memEvent, offsetof(trace::PackedOp, ev)),
                        static_cast<uint8_t>(nregion << 1))},
        {"region on a non-memory event",
         setAt<uint8_t>(field(plainEvent, offsetof(trace::PackedOp, ev)),
                        1 << 1)},
    };
    for (const auto &c : cases)
        EXPECT_FALSE(
            loads(recomputed(image, trace::V2SectionId::Ops, c.patch)))
            << c.what;
}

TEST(FormatV2, RefusesMismatchedCountsDespiteValidChecksums)
{
    const std::vector<uint8_t> image = randomTrace(5, 600).serializeV2();
    // An address column one entry short of the memory events.
    EXPECT_FALSE(loads(recomputed(image, trace::V2SectionId::Addr,
                                  [](uint8_t *, uint64_t &length) {
                                      length -= sizeof(uint32_t);
                                  })));
    // A region table one entry short of what the records index.
    EXPECT_FALSE(loads(recomputed(image, trace::V2SectionId::Regions,
                                  [](uint8_t *, uint64_t &length) {
                                      length -= sizeof(uint32_t);
                                  })));
    // A static table one entry short.
    EXPECT_FALSE(loads(recomputed(image, trace::V2SectionId::Statics,
                                  [](uint8_t *, uint64_t &length) {
                                      length -= sizeof(trace::StaticInstr);
                                  })));
}

// ---------------- image size ----------------

TEST(FormatV2, EveryPairImageTakesAtMostEightAndAHalfBytesPerEvent)
{
    // The image keeps a 6-byte record per event and 4 bytes per memory
    // event; the static, region and segment tables and the Meta section
    // are small beside them.
    uint64_t bytes = 0, events = 0;
    for (const PairCapture &pc : everyPairCapture()) {
        bytes += pc.mat.serializeV2().size();
        events += pc.mat.instrCount();
    }
    ASSERT_GT(events, 0u);
    const double perEvent =
        static_cast<double>(bytes) / static_cast<double>(events);
    EXPECT_LE(perEvent, 8.5);
    RecordProperty("bytes_per_event", std::to_string(perEvent));
}

// ---------------- the acceptance gate ----------------

TEST(FormatV2, EveryPairMmapLoadMatchesLiveOnEveryModel)
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
