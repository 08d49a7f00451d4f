/**
 * @file
 * Tests for the src/trace subsystem: varint/zigzag primitives, codec
 * round-trips on randomized event streams, corruption handling, the
 * on-disk cache, and the engine's core guarantee — that replaying a
 * captured trace reproduces the live profile bit for bit.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <vector>

#include "harness/suite.hh"
#include "isa/event.hh"
#include "isa/op.hh"
#include "profile/vprof.hh"
#include "sim/timing_model.hh"
#include "sim/trace_sink.hh"
#include "support/rng.hh"
#include "trace/cache.hh"
#include "trace/format.hh"
#include "trace/materialize.hh"
#include "trace/reader.hh"
#include "trace/replay.hh"
#include "trace/writer.hh"

namespace mmxdsp {
namespace {

namespace fs = std::filesystem;

// ---------------- format primitives ----------------

TEST(TraceFormat, VarintRoundTrip)
{
    const uint64_t values[] = {0,
                               1,
                               127,
                               128,
                               300,
                               16383,
                               16384,
                               0xdeadbeef,
                               0xffffffffull,
                               0x123456789abcdef0ull,
                               ~0ull};
    std::vector<uint8_t> buf;
    for (uint64_t v : values)
        trace::putVarint(buf, v);
    trace::ByteReader reader(buf.data(), buf.size());
    for (uint64_t v : values)
        EXPECT_EQ(reader.getVarint(), v);
    EXPECT_TRUE(reader.ok());
    EXPECT_EQ(reader.remaining(), 0u);
}

TEST(TraceFormat, VarintEncodingIsCompact)
{
    std::vector<uint8_t> buf;
    trace::putVarint(buf, 127);
    EXPECT_EQ(buf.size(), 1u);
    trace::putVarint(buf, 128);
    EXPECT_EQ(buf.size(), 3u); // second value took two bytes
}

TEST(TraceFormat, ZigzagRoundTrip)
{
    const int64_t values[] = {0,  1,  -1, 2,  -2, 63, -64, 1000000,
                              -1000000, INT64_MAX, INT64_MIN};
    for (int64_t v : values)
        EXPECT_EQ(trace::unzigzag(trace::zigzag(v)), v) << v;
    // Small magnitudes map to small codes (that's the point).
    EXPECT_LT(trace::zigzag(-3), 8u);
}

TEST(TraceFormat, ByteReaderRejectsOverrun)
{
    std::vector<uint8_t> buf;
    trace::putVarint(buf, 300);
    trace::ByteReader reader(buf.data(), 1); // truncate mid-varint
    reader.getVarint();
    EXPECT_FALSE(reader.ok());
}

TEST(TraceFormat, Fnv1aDistinguishesInputs)
{
    const uint8_t a[] = {1, 2, 3};
    const uint8_t b[] = {1, 2, 4};
    EXPECT_NE(trace::fnv1a(a, sizeof(a)), trace::fnv1a(b, sizeof(b)));
    EXPECT_NE(trace::fnv1aMix(0, 1), trace::fnv1aMix(0, 2));
}

// ---------------- codec round-trip ----------------

/** Sink that records everything for later comparison. */
struct RecordingSink final : sim::TraceSink
{
    std::vector<isa::InstrEvent> events;
    std::vector<std::string> enters;
    int leaves = 0;

    void onInstr(const isa::InstrEvent &event) override
    {
        events.push_back(event);
    }
    void onEnterFunction(const char *name) override
    {
        enters.emplace_back(name);
    }
    void onLeaveFunction() override { ++leaves; }
};

bool
sameEvent(const isa::InstrEvent &a, const isa::InstrEvent &b)
{
    return a.op == b.op && a.mem == b.mem && a.addr == b.addr
           && a.size == b.size && a.site == b.site && a.src0 == b.src0
           && a.src1 == b.src1 && a.dst == b.dst && a.taken == b.taken;
}

/** A random but encodable instruction event. */
isa::InstrEvent
randomEvent(Rng &rng)
{
    isa::InstrEvent e;
    e.op = static_cast<isa::Op>(rng.nextBelow(isa::kNumOps));
    e.mem = static_cast<isa::MemMode>(rng.nextBelow(3));
    if (e.mem != isa::MemMode::None) {
        e.addr = rng.next() >> rng.nextBelow(40); // mix near/far deltas
        e.size = static_cast<uint8_t>(1u << rng.nextBelow(4));
    }
    e.site = rng.nextBelow(2000);
    auto tag = [&]() -> isa::RegTag {
        if (rng.nextBelow(4) == 0)
            return isa::kNoReg;
        return isa::makeTag(static_cast<isa::RegClass>(rng.nextBelow(3)),
                            static_cast<uint8_t>(rng.nextBelow(8)));
    };
    e.src0 = tag();
    e.src1 = tag();
    e.dst = tag();
    e.taken = rng.nextBelow(2) != 0;
    return e;
}

TEST(TraceCodec, RandomStreamRoundTrips)
{
    for (uint64_t seed : {1u, 17u, 99u}) {
        Rng rng(seed);
        trace::TraceWriter writer("rand", "c", 0x1234);
        RecordingSink expected;

        int depth = 0;
        const int n = 2000 + static_cast<int>(rng.nextBelow(1000));
        for (int i = 0; i < n; ++i) {
            const uint32_t roll = rng.nextBelow(20);
            if (roll == 0) {
                const char *names[] = {"alpha", "beta", "gamma", "delta"};
                const char *name = names[rng.nextBelow(4)];
                writer.onEnterFunction(name);
                expected.onEnterFunction(name);
                ++depth;
            } else if (roll == 1 && depth > 0) {
                writer.onLeaveFunction();
                expected.onLeaveFunction();
                --depth;
            } else {
                isa::InstrEvent e = randomEvent(rng);
                writer.onInstr(e);
                expected.onInstr(e);
            }
        }
        writer.finish();

        trace::TraceReader reader;
        ASSERT_TRUE(reader.parse(writer.serialize()));
        EXPECT_EQ(reader.benchmark(), "rand");
        EXPECT_EQ(reader.version(), "c");
        EXPECT_EQ(reader.configHash(), 0x1234u);
        EXPECT_EQ(reader.instrCount(), expected.events.size());

        RecordingSink got;
        ASSERT_TRUE(reader.replayTo(got));
        ASSERT_EQ(got.events.size(), expected.events.size());
        for (size_t i = 0; i < got.events.size(); ++i)
            ASSERT_TRUE(sameEvent(got.events[i], expected.events[i]))
                << "seed " << seed << " event " << i;
        EXPECT_EQ(got.enters, expected.enters);
        EXPECT_EQ(got.leaves, expected.leaves);
    }
}

TEST(TraceCodec, ReplayIsRepeatable)
{
    Rng rng(5);
    trace::TraceWriter writer("rand", "mmx", 7);
    for (int i = 0; i < 500; ++i)
        writer.onInstr(randomEvent(rng));
    writer.finish();

    trace::TraceReader reader;
    ASSERT_TRUE(reader.parse(writer.serialize()));
    RecordingSink first;
    RecordingSink second;
    ASSERT_TRUE(reader.replayTo(first));
    ASSERT_TRUE(reader.replayTo(second)); // cursor is per-call state
    ASSERT_EQ(first.events.size(), second.events.size());
    for (size_t i = 0; i < first.events.size(); ++i)
        EXPECT_TRUE(sameEvent(first.events[i], second.events[i]));
}

TEST(TraceCodec, RejectsCorruption)
{
    Rng rng(11);
    trace::TraceWriter writer("rand", "c", 1);
    for (int i = 0; i < 200; ++i)
        writer.onInstr(randomEvent(rng));
    writer.finish();
    const std::vector<uint8_t> image = writer.serialize();

    {
        trace::TraceReader reader; // intact image parses
        EXPECT_TRUE(reader.parse(image));
    }
    { // bad magic
        std::vector<uint8_t> bad = image;
        bad[0] ^= 0xff;
        trace::TraceReader reader;
        EXPECT_FALSE(reader.parse(std::move(bad)));
    }
    { // truncation at every coarse prefix length
        for (size_t len : {0ul, 3ul, 8ul, 16ul, image.size() - 1}) {
            std::vector<uint8_t> bad(image.begin(),
                                     image.begin()
                                         + static_cast<ptrdiff_t>(len));
            trace::TraceReader reader;
            EXPECT_FALSE(reader.parse(std::move(bad))) << len;
        }
    }
    { // body bit-flip fails the checksum
        std::vector<uint8_t> bad = image;
        bad[bad.size() / 2] ^= 0x40;
        trace::TraceReader reader;
        EXPECT_FALSE(reader.parse(std::move(bad)));
    }
}

// ---------------- on-disk cache ----------------

/** Fresh scratch directory, removed on destruction. */
struct ScratchDir
{
    fs::path path;

    explicit ScratchDir(const char *name)
        : path(fs::temp_directory_path() / name)
    {
        fs::remove_all(path);
    }
    ~ScratchDir() { fs::remove_all(path); }
};

TEST(TraceCacheTest, StoreThenLoad)
{
    ScratchDir scratch("mmxdsp_trace_cache_test");
    trace::TraceCache cache(scratch.path.string());

    Rng rng(3);
    trace::TraceWriter writer("fir", "mmx", 42);
    for (int i = 0; i < 100; ++i)
        writer.onInstr(randomEvent(rng));
    writer.finish();
    ASSERT_TRUE(cache.store(writer));

    trace::TraceReader loaded;
    ASSERT_TRUE(cache.load("fir", "mmx", 42, loaded));
    EXPECT_EQ(loaded.instrCount(), 100u);

    // Any key component mismatch is a miss, not an error.
    trace::TraceReader miss;
    EXPECT_FALSE(cache.load("fir", "mmx", 43, miss));
    EXPECT_FALSE(cache.load("fir", "c", 42, miss));
    EXPECT_FALSE(cache.load("fft", "mmx", 42, miss));
}

TEST(TraceCacheTest, DisabledCacheIsInert)
{
    trace::TraceCache cache;
    EXPECT_FALSE(cache.enabled());
    trace::TraceWriter writer("fir", "mmx", 1);
    writer.finish();
    EXPECT_FALSE(cache.store(writer));
    trace::TraceReader reader;
    EXPECT_FALSE(cache.load("fir", "mmx", 1, reader));
}

// ---------------- live vs replay bit-identity ----------------

harness::SuiteConfig
tinyConfig()
{
    harness::SuiteConfig config;
    config.scaleDown(16);
    return config;
}

void
expectSameProfile(const profile::ProfileResult &a,
                  const profile::ProfileResult &b, const std::string &what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.dynamicInstructions, b.dynamicInstructions);
    EXPECT_EQ(a.staticInstructions, b.staticInstructions);
    EXPECT_EQ(a.uops, b.uops);
    EXPECT_EQ(a.memoryReferences, b.memoryReferences);
    EXPECT_EQ(a.mmxInstructions, b.mmxInstructions);
    EXPECT_EQ(a.mmxByCategory, b.mmxByCategory);
    EXPECT_EQ(a.functionCalls, b.functionCalls);
    EXPECT_EQ(a.callRetCycles, b.callRetCycles);
    EXPECT_EQ(a.callOverheadCycles, b.callOverheadCycles);
    EXPECT_EQ(a.opCounts, b.opCounts);
    EXPECT_EQ(a.timer.instructions, b.timer.instructions);
    EXPECT_EQ(a.timer.pairs, b.timer.pairs);
    EXPECT_EQ(a.timer.uopsIssued, b.timer.uopsIssued);
    EXPECT_EQ(a.timer.retireStallCycles, b.timer.retireStallCycles);
    EXPECT_EQ(a.timer.memPenaltyCycles, b.timer.memPenaltyCycles);
    EXPECT_EQ(a.timer.mispredictCycles, b.timer.mispredictCycles);
    EXPECT_EQ(a.timer.dependStallCycles, b.timer.dependStallCycles);
    EXPECT_EQ(a.timer.blockingExtraCycles, b.timer.blockingExtraCycles);
    EXPECT_EQ(a.l1.accesses, b.l1.accesses);
    EXPECT_EQ(a.l1.misses, b.l1.misses);
    EXPECT_EQ(a.l2.accesses, b.l2.accesses);
    EXPECT_EQ(a.l2.misses, b.l2.misses);
    EXPECT_EQ(a.btb.branches, b.btb.branches);
    EXPECT_EQ(a.btb.mispredicts, b.btb.mispredicts);
    ASSERT_EQ(a.functions.size(), b.functions.size());
    for (const auto &[name, st] : a.functions) {
        auto it = b.functions.find(name);
        ASSERT_NE(it, b.functions.end()) << name;
        EXPECT_EQ(st.calls, it->second.calls) << name;
        EXPECT_EQ(st.instructions, it->second.instructions) << name;
        EXPECT_EQ(st.cycles, it->second.cycles) << name;
    }
}

TEST(TraceReplay, EveryPairIsBitIdenticalToLive)
{
    // The live run is tee-captured, then the captured trace is replayed
    // through a fresh VProf and every metric must match the live
    // profile exactly.
    ScratchDir scratch("mmxdsp_trace_identity_test");
    harness::BenchmarkSuite suite(
        tinyConfig(), harness::TraceOptions{true, scratch.path.string()});
    for (const auto &[bench, version] : harness::BenchmarkSuite::allRuns()) {
        const harness::RunResult &live = suite.run(bench, version);
        EXPECT_FALSE(live.replayed);
        auto reader = suite.traceFor(bench, version);
        ASSERT_NE(reader, nullptr);
        EXPECT_EQ(reader->instrCount(), live.profile.dynamicInstructions);
        expectSameProfile(trace::replayProfile(*reader), live.profile,
                          bench + "." + version);
    }
}

TEST(TraceReplay, DiskCacheSkipsExecution)
{
    ScratchDir scratch("mmxdsp_trace_suite_test");
    harness::TraceOptions topts{true, scratch.path.string()};

    harness::BenchmarkSuite first(tinyConfig(), topts);
    const profile::ProfileResult fir = first.run("fir", "mmx").profile;
    EXPECT_EQ(first.traceActivity().captured, 1);

    // A second suite (fresh process state as far as the trace layer is
    // concerned) replays the stored trace instead of executing, and its
    // numbers are the first suite's numbers.
    harness::BenchmarkSuite second(tinyConfig(), topts);
    const harness::RunResult &replayed = second.run("fir", "mmx");
    EXPECT_TRUE(replayed.replayed);
    EXPECT_EQ(second.traceActivity().disk_hits, 1);
    EXPECT_EQ(second.traceActivity().captured, 0);
    expectSameProfile(replayed.profile, fir, "fir.mmx disk replay");

    // A different workload hash must not hit the same entry.
    harness::SuiteConfig other = tinyConfig();
    other.fir_samples /= 2;
    harness::BenchmarkSuite third(other, topts);
    EXPECT_FALSE(third.run("fir", "mmx").replayed);
}

TEST(TraceReplay, RunAllParallelMatchesSerial)
{
    ScratchDir scratch("mmxdsp_trace_runall_test");
    harness::TraceOptions topts{true, scratch.path.string()};

    harness::BenchmarkSuite serial(tinyConfig(), topts);
    serial.runAll(1);
    harness::BenchmarkSuite parallel(tinyConfig(), topts);
    parallel.runAll(4);

    for (const auto &[bench, version] : harness::BenchmarkSuite::allRuns())
        expectSameProfile(parallel.run(bench, version).profile,
                          serial.run(bench, version).profile,
                          bench + "." + version);
}

TEST(TraceReplay, SweepVariesWithGeometry)
{
    ScratchDir scratch("mmxdsp_trace_sweep_test");
    harness::BenchmarkSuite suite(
        tinyConfig(), harness::TraceOptions{true, scratch.path.string()});
    sim::TimerConfig tiny;
    tiny.l1.size_bytes = 512;
    tiny.l1.ways = 1;
    sim::TimerConfig paper; // the default 16KB/512KB machine
    auto results = suite.sweep("fft", "mmx", {tiny, paper}, 2);
    ASSERT_EQ(results.size(), 2u);
    // Same instruction stream under both machines...
    EXPECT_EQ(results[0].dynamicInstructions,
              results[1].dynamicInstructions);
    // ...but the starved cache costs cycles.
    EXPECT_GT(results[0].cycles, results[1].cycles);
    // The paper-machine sweep column equals the normal run.
    expectSameProfile(results[1], suite.run("fft", "mmx").profile,
                      "sweep default config");
}

// ---------------- materialized fast path ----------------

TEST(MaterializedTraceTest, BatchedReplayDeliversTheExactStream)
{
    // Same randomized stream as the codec round-trip: the materialized
    // replay (batched onInstrBatch dispatch) must deliver event-for-event
    // what the streaming decoder delivers, including enter/leave order.
    Rng rng(23);
    trace::TraceWriter writer("rand", "c", 9);
    int depth = 0;
    for (int i = 0; i < 3000; ++i) {
        const uint32_t roll = rng.nextBelow(16);
        if (roll == 0) {
            const char *names[] = {"alpha", "beta", "gamma"};
            writer.onEnterFunction(names[rng.nextBelow(3)]);
            ++depth;
        } else if (roll == 1 && depth > 0) {
            writer.onLeaveFunction();
            --depth;
        } else {
            writer.onInstr(randomEvent(rng));
        }
    }
    writer.finish();

    trace::TraceReader reader;
    ASSERT_TRUE(reader.parse(writer.serialize()));
    RecordingSink streamed;
    ASSERT_TRUE(reader.replayTo(streamed));

    trace::MaterializedTrace mat;
    ASSERT_TRUE(mat.build(reader));
    EXPECT_EQ(mat.instrCount(), reader.instrCount());
    EXPECT_EQ(mat.benchmark(), reader.benchmark());
    EXPECT_EQ(mat.version(), reader.version());
    EXPECT_EQ(mat.configHash(), reader.configHash());
    EXPECT_GT(mat.byteSize(), 0u);

    RecordingSink batched;
    ASSERT_TRUE(mat.replayTo(batched));
    ASSERT_EQ(batched.events.size(), streamed.events.size());
    for (size_t i = 0; i < batched.events.size(); ++i)
        ASSERT_TRUE(sameEvent(batched.events[i], streamed.events[i])) << i;
    EXPECT_EQ(batched.enters, streamed.enters);
    EXPECT_EQ(batched.leaves, streamed.leaves);
}

TEST(MaterializedTraceTest, BuildRejectsInvalidReader)
{
    trace::TraceReader unparsed;
    trace::MaterializedTrace mat;
    EXPECT_FALSE(mat.build(unparsed));
    EXPECT_FALSE(mat.valid());
}

TEST(MaterializedTraceTest, EveryPairMatchesStreamingAndLive)
{
    // The core guarantee of the fast path: for every (benchmark, version)
    // pair, both the batched generic replay (materialized -> VProf) and
    // the specialized profile kernel produce metrics bit-identical to
    // the streaming replay and to the live run.
    ScratchDir scratch("mmxdsp_trace_materialize_test");
    harness::BenchmarkSuite suite(
        tinyConfig(), harness::TraceOptions{true, scratch.path.string()});
    for (const auto &[bench, version] : harness::BenchmarkSuite::allRuns()) {
        const std::string what = bench + "." + version;
        const harness::RunResult &live = suite.run(bench, version);
        auto reader = suite.traceFor(bench, version);
        ASSERT_NE(reader, nullptr);
        const profile::ProfileResult streaming =
            trace::replayProfile(*reader);

        trace::MaterializedTrace mat;
        ASSERT_TRUE(mat.build(*reader)) << what;
        EXPECT_EQ(mat.instrCount(), live.profile.dynamicInstructions);

        profile::VProf prof;
        ASSERT_TRUE(mat.replayTo(prof)) << what;
        expectSameProfile(prof.result(), live.profile,
                          what + " batched replay");

        const profile::ProfileResult fast = mat.replayProfile();
        expectSameProfile(fast, streaming, what + " fast kernel");
        expectSameProfile(fast, live.profile, what + " fast kernel vs live");
    }
}

TEST(MaterializedTraceTest, SiteLabelsMatchTheReader)
{
    ScratchDir scratch("mmxdsp_trace_sitelabel_test");
    harness::BenchmarkSuite suite(
        tinyConfig(), harness::TraceOptions{true, scratch.path.string()});
    auto reader = suite.traceFor("fir", "mmx");
    ASSERT_NE(reader, nullptr);
    ASSERT_FALSE(reader->sites().empty());
    trace::MaterializedTrace mat;
    ASSERT_TRUE(mat.build(*reader));
    for (const auto &[id, site] : reader->sites())
        EXPECT_EQ(mat.siteLabel(id), reader->siteLabel(id)) << id;
    EXPECT_EQ(mat.siteLabel(0x7fffffff), reader->siteLabel(0x7fffffff));
}

TEST(MaterializedTraceTest, SweepMatchesPerConfigReplayAtAnyThreadCount)
{
    // replaySweep (which materializes once and shares the buffers) must
    // be bit-identical to a per-configuration streaming replay, and
    // independent of the worker-thread count.
    ScratchDir scratch("mmxdsp_trace_matsweep_test");
    harness::BenchmarkSuite suite(
        tinyConfig(), harness::TraceOptions{true, scratch.path.string()});
    auto reader = suite.traceFor("fft", "mmx");
    ASSERT_NE(reader, nullptr);

    std::vector<sim::TimerConfig> configs;
    for (uint32_t kb : {1u, 4u, 16u}) {
        sim::TimerConfig c;
        c.l1.size_bytes = kb * 1024;
        configs.push_back(c);
    }
    configs.back().mispredict_penalty = 9;

    const auto serial = trace::replaySweep(*reader, configs, 1);
    const auto parallel = trace::replaySweep(*reader, configs, 0);
    ASSERT_EQ(serial.size(), configs.size());
    ASSERT_EQ(parallel.size(), configs.size());
    for (size_t i = 0; i < configs.size(); ++i) {
        const std::string what = "config " + std::to_string(i);
        expectSameProfile(serial[i], parallel[i], what + " thread count");
        expectSameProfile(serial[i],
                          trace::replayProfile(*reader, configs[i]),
                          what + " vs streaming");
    }

    // The suite's sweep path (cached MaterializedTrace) agrees too, and
    // repeated sweeps reuse the cached buffers.
    const auto via_suite = suite.sweep("fft", "mmx", configs, 2);
    auto mat = suite.materializedFor("fft", "mmx");
    ASSERT_NE(mat, nullptr);
    EXPECT_EQ(suite.materializedFor("fft", "mmx").get(), mat.get());
    ASSERT_EQ(via_suite.size(), configs.size());
    for (size_t i = 0; i < configs.size(); ++i)
        expectSameProfile(via_suite[i], serial[i],
                          "suite sweep config " + std::to_string(i));
}

// ---------------- damaged cache entries ----------------

/** Flip one byte in the middle of @p p, or cut the file in half. */
void
corruptFile(const fs::path &p, bool truncate)
{
    ASSERT_TRUE(fs::exists(p)) << p;
    const uintmax_t size = fs::file_size(p);
    ASSERT_GT(size, 4u);
    if (truncate) {
        fs::resize_file(p, size / 2);
        return;
    }
    std::FILE *f = std::fopen(p.string().c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, static_cast<long>(size / 2), SEEK_SET);
    const int byte = std::fgetc(f);
    std::fseek(f, -1, SEEK_CUR);
    std::fputc(byte ^ 0x20, f);
    std::fclose(f);
}

TEST(TraceCacheTest, DamagedEntryFallsBackToLiveAndIsRewritten)
{
    // A bit-flipped or truncated trace file must never replay wrong
    // numbers: the load is a (warned) miss, the suite re-executes the
    // benchmark live, and the recapture overwrites the bad file.
    for (const bool truncate : {false, true}) {
        SCOPED_TRACE(truncate ? "truncated" : "bit-flipped");
        ScratchDir scratch("mmxdsp_trace_corrupt_test");
        harness::TraceOptions topts{true, scratch.path.string()};

        harness::BenchmarkSuite first(tinyConfig(), topts);
        first.run("fir", "mmx");
        ASSERT_EQ(first.traceActivity().captured, 1);

        trace::TraceCache cache(scratch.path.string());
        const uint64_t key = tinyConfig().hash();
        corruptFile(cache.path("fir", "mmx", key), truncate);

        trace::TraceReader damaged;
        EXPECT_FALSE(cache.load("fir", "mmx", key, damaged));

        harness::BenchmarkSuite second(tinyConfig(), topts);
        const harness::RunResult &relived = second.run("fir", "mmx");
        EXPECT_FALSE(relived.replayed);
        EXPECT_EQ(second.traceActivity().disk_hits, 0);
        EXPECT_EQ(second.traceActivity().captured, 1);

        // The recapture rewrote the entry: a third suite replays it,
        // bit-identical to the fallback's live run.
        harness::BenchmarkSuite third(tinyConfig(), topts);
        const harness::RunResult &replayed = third.run("fir", "mmx");
        EXPECT_TRUE(replayed.replayed);
        EXPECT_EQ(third.traceActivity().disk_hits, 1);
        expectSameProfile(replayed.profile, relived.profile,
                          "rewritten entry");
    }
}

TEST(TraceCacheTest, DamagedEntryIsQuarantinedAndSurvivesRewrite)
{
    // A damaged entry is not just skipped: it is moved into the cache's
    // quarantine/ directory (evidence for debugging), and recapturing
    // the pair must publish a fresh entry without disturbing the
    // quarantined file.
    ScratchDir scratch("mmxdsp_trace_quarantine_test");
    harness::TraceOptions topts{true, scratch.path.string()};

    harness::BenchmarkSuite first(tinyConfig(), topts);
    first.run("fir", "mmx");

    trace::TraceCache cache(scratch.path.string());
    const uint64_t key = tinyConfig().hash();
    const fs::path entry = cache.path("fir", "mmx", key);
    corruptFile(entry, /*truncate=*/true);
    const uintmax_t damaged_size = fs::file_size(entry);

    trace::TraceReader damaged;
    EXPECT_FALSE(cache.load("fir", "mmx", key, damaged));

    // The bad file was moved aside, not deleted and not left in place.
    EXPECT_FALSE(fs::exists(entry));
    const fs::path qdir = scratch.path / "quarantine";
    ASSERT_TRUE(fs::exists(qdir));
    std::vector<fs::path> quarantined;
    for (const auto &de : fs::directory_iterator(qdir))
        quarantined.push_back(de.path());
    ASSERT_EQ(quarantined.size(), 1u);
    EXPECT_EQ(fs::file_size(quarantined[0]), damaged_size);

    // Recapture republishes the entry; the quarantined file survives.
    harness::BenchmarkSuite second(tinyConfig(), topts);
    second.run("fir", "mmx");
    EXPECT_EQ(second.traceActivity().captured, 1);
    EXPECT_TRUE(fs::exists(entry));
    EXPECT_TRUE(fs::exists(quarantined[0]));
    EXPECT_EQ(fs::file_size(quarantined[0]), damaged_size);

    trace::TraceReader fresh;
    EXPECT_TRUE(cache.load("fir", "mmx", key, fresh));
}

// ---------------- cross-model replay ----------------

TEST(TraceReplay, P6EveryPairIsBitIdenticalToLive)
{
    // The P6 model under the same engine guarantee as the P5: for every
    // (benchmark, version) pair, replaying the captured trace — both
    // the streaming decoder and the materialized fast kernel — must
    // reproduce the live P6 profile exactly.
    ScratchDir scratch("mmxdsp_trace_p6_identity_test");
    const sim::MachineConfig p6{sim::ModelKind::P6, sim::TimerConfig{}};
    harness::BenchmarkSuite suite(
        tinyConfig(), harness::TraceOptions{true, scratch.path.string()},
        p6);
    for (const auto &[bench, version] : harness::BenchmarkSuite::allRuns()) {
        const std::string what = bench + "." + version + " p6";
        const harness::RunResult &live = suite.run(bench, version);
        EXPECT_FALSE(live.replayed);
        EXPECT_GT(live.profile.timer.uopsIssued, 0u) << what;
        auto reader = suite.traceFor(bench, version);
        ASSERT_NE(reader, nullptr);
        expectSameProfile(trace::replayProfile(*reader, p6), live.profile,
                          what + " streaming");
        auto mat = suite.materializedFor(bench, version);
        ASSERT_NE(mat, nullptr);
        expectSameProfile(mat->replayProfile(p6), live.profile,
                          what + " fast kernel");
    }
}

TEST(TraceReplay, P6PEveryPairIsBitIdenticalToLive)
{
    // The port model under the same engine guarantee as P5 and P6: for
    // every (benchmark, version) pair, replaying the captured trace —
    // streaming decoder and materialized fast kernel — must reproduce
    // the live P6P profile exactly.
    ScratchDir scratch("mmxdsp_trace_p6p_identity_test");
    const sim::MachineConfig p6p{sim::ModelKind::P6P, sim::TimerConfig{}};
    harness::BenchmarkSuite suite(
        tinyConfig(), harness::TraceOptions{true, scratch.path.string()},
        p6p);
    for (const auto &[bench, version] : harness::BenchmarkSuite::allRuns()) {
        const std::string what = bench + "." + version + " p6p";
        const harness::RunResult &live = suite.run(bench, version);
        EXPECT_FALSE(live.replayed);
        EXPECT_GT(live.profile.timer.uopsIssued, 0u) << what;
        auto reader = suite.traceFor(bench, version);
        ASSERT_NE(reader, nullptr);
        expectSameProfile(trace::replayProfile(*reader, p6p), live.profile,
                          what + " streaming");
        auto mat = suite.materializedFor(bench, version);
        ASSERT_NE(mat, nullptr);
        expectSameProfile(mat->replayProfile(p6p), live.profile,
                          what + " fast kernel");
    }
}

TEST(TraceReplay, P6PEdgeGeometriesStayBitIdentical)
{
    // The degenerate predictor/cache geometries a sweep may request,
    // under the port model: assoc=1 at both cache levels and a 1-entry
    // BTB. Live, streaming, and materialized replays must agree.
    sim::TimerConfig edge;
    edge.l1.ways = 1;
    edge.l2.ways = 1;
    edge.btb_entries = 1;
    edge.btb_ways = 1;
    const sim::MachineConfig p6p{sim::ModelKind::P6P, edge};

    ScratchDir scratch("mmxdsp_trace_p6p_edge_test");
    harness::BenchmarkSuite suite(
        tinyConfig(), harness::TraceOptions{true, scratch.path.string()},
        p6p);
    for (const auto &[bench, version] :
         {std::pair<std::string, std::string>{"fft", "mmx"},
          {"g722", "c"},
          {"matvec", "mmx"}}) {
        const std::string what = bench + "." + version + " p6p edge";
        const harness::RunResult &live = suite.run(bench, version);
        EXPECT_FALSE(live.replayed);
        auto reader = suite.traceFor(bench, version);
        ASSERT_NE(reader, nullptr);
        expectSameProfile(trace::replayProfile(*reader, p6p), live.profile,
                          what + " streaming");
        auto mat = suite.materializedFor(bench, version);
        ASSERT_NE(mat, nullptr);
        expectSameProfile(mat->replayProfile(p6p), live.profile,
                          what + " fast kernel");
    }
}

TEST(TraceReplay, TraceForAgreesWithDirectMaterializedCapture)
{
    // Regression for the double-capture hole: materializedFor() first
    // (the direct cold-capture path, which never writes a varint
    // trace), then traceFor(). The v1 reader must be re-encoded from
    // the materialized stream, NOT captured by a second execution — a
    // re-run need not reproduce the address stream, which made
    // streaming and materialized replays diverge.
    ScratchDir scratch("mmxdsp_trace_reencode_test");
    harness::BenchmarkSuite suite(
        tinyConfig(), harness::TraceOptions{true, scratch.path.string()});
    auto mat = suite.materializedFor("fft", "fp");
    ASSERT_NE(mat, nullptr);
    EXPECT_EQ(suite.traceActivity().captured, 1);
    auto reader = suite.traceFor("fft", "fp");
    ASSERT_NE(reader, nullptr);
    // One execution total: the v1 trace came from the re-encode path.
    EXPECT_EQ(suite.traceActivity().captured, 1);
    EXPECT_EQ(reader->instrCount(), mat->instrCount());
    for (size_t k = 0; k < sim::kNumModelKinds; ++k) {
        const sim::MachineConfig machine{static_cast<sim::ModelKind>(k),
                                         sim::TimerConfig{}};
        expectSameProfile(trace::replayProfile(*reader, machine),
                          mat->replayProfile(machine),
                          std::string("re-encoded v1 on ")
                              + sim::modelName(machine.model));
    }

    // The disk variant: capture a pair whose only stored artifact is
    // the v2 image (traceFor never ran for it), then ask a fresh suite
    // (fresh process state) for its v1 reader. It must re-encode from
    // the mmap'd v2 image rather than execute.
    auto matIir = suite.materializedFor("iir", "fp");
    ASSERT_NE(matIir, nullptr);
    harness::BenchmarkSuite second(
        tinyConfig(), harness::TraceOptions{true, scratch.path.string()});
    auto reader2 = second.traceFor("iir", "fp");
    ASSERT_NE(reader2, nullptr);
    EXPECT_EQ(second.traceActivity().captured, 0);
    expectSameProfile(trace::replayProfile(*reader2, sim::TimerConfig{}),
                      matIir->replayProfile(sim::TimerConfig{}),
                      "re-encoded v1 from the v2 store");
}

TEST(TraceReplay, CrossModelSweepKeepsP5ColumnsBitIdentical)
{
    // A mixed {P5, P6} sweep must not perturb the P5 columns: they stay
    // bit-identical to the plain P5 replay paths that predate the
    // TimingModel layer, at any thread count.
    ScratchDir scratch("mmxdsp_trace_xmodel_test");
    harness::BenchmarkSuite suite(
        tinyConfig(), harness::TraceOptions{true, scratch.path.string()});
    auto reader = suite.traceFor("fft", "mmx");
    ASSERT_NE(reader, nullptr);

    sim::TimerConfig small;
    small.l1.size_bytes = 1024;
    const std::vector<sim::MachineConfig> machines = {
        {sim::ModelKind::P5, sim::TimerConfig{}},
        {sim::ModelKind::P6, sim::TimerConfig{}},
        {sim::ModelKind::P5, small},
        {sim::ModelKind::P6, small},
    };

    const auto serial = trace::replaySweep(*reader, machines, 1);
    const auto parallel = trace::replaySweep(*reader, machines, 0);
    ASSERT_EQ(serial.size(), machines.size());
    ASSERT_EQ(parallel.size(), machines.size());
    for (size_t i = 0; i < machines.size(); ++i) {
        const std::string what = "machine " + std::to_string(i);
        expectSameProfile(serial[i], parallel[i], what + " thread count");
        expectSameProfile(serial[i],
                          trace::replayProfile(*reader, machines[i]),
                          what + " vs streaming");
    }

    // The P5 columns are exactly the legacy TimerConfig-only results.
    expectSameProfile(serial[0], trace::replayProfile(*reader),
                      "P5 default vs legacy replay");
    expectSameProfile(serial[2], trace::replayProfile(*reader, small),
                      "P5 small-L1 vs legacy replay");
    // The P6 columns really ran the other machine.
    EXPECT_EQ(serial[0].timer.uopsIssued, 0u);
    EXPECT_GT(serial[1].timer.uopsIssued, 0u);
    EXPECT_NE(serial[1].cycles, serial[0].cycles);

    // The suite's cross-model sweep overload agrees.
    const auto via_suite = suite.sweep("fft", "mmx", machines, 2);
    ASSERT_EQ(via_suite.size(), machines.size());
    for (size_t i = 0; i < machines.size(); ++i)
        expectSameProfile(via_suite[i], serial[i],
                          "suite machine " + std::to_string(i));
}

TEST(MaterializedTraceTest, SweepDispatchBoundaryIsBitIdentical)
{
    // replaySweep() sends up to max(2, workers) machines through the
    // per-machine kernel and wider sweeps through the packed one. Pin
    // both sides of that boundary: at every width 1-5 on each model and
    // at 1, 2 and 4 threads, the dispatched sweep, both kernels called
    // directly and a solo replayProfile() agree bit for bit. So does
    // the per-machine kernel over fresh memos, which records each
    // geometry once per sweep (machines k and k+3 share a cache
    // geometry, k and k+2 a BTB geometry) and replays it for both.
    ScratchDir scratch("mmxdsp_trace_dispatch_test");
    harness::BenchmarkSuite suite(
        tinyConfig(), harness::TraceOptions{true, scratch.path.string()});
    auto mat = suite.materializedFor("fir", "mmx");
    ASSERT_NE(mat, nullptr);

    for (sim::ModelKind model :
         {sim::ModelKind::P5, sim::ModelKind::P6, sim::ModelKind::P6P}) {
        std::vector<sim::MachineConfig> machines;
        std::vector<profile::ProfileResult> solo;
        for (uint32_t k = 0; k < 5; ++k) {
            sim::MachineConfig m{model, sim::TimerConfig{}};
            m.timer.l1.size_bytes = 1024u << (k % 3);
            m.timer.btb_entries = 64u << (k % 2);
            m.timer.mispredict_penalty = 3 + k;
            m.timer.p6.mispredict_penalty = 9 + k;
            m.timer.p6p.mispredict_penalty = 10 + k;
            machines.push_back(m);
            solo.push_back(mat->replayProfile(m));
        }
        for (size_t width = 1; width <= machines.size(); ++width) {
            const std::vector<sim::MachineConfig> sweep(
                machines.begin(),
                machines.begin() + static_cast<ptrdiff_t>(width));
            for (int threads : {1, 2, 4}) {
                const std::string what =
                    std::string(sim::modelName(model)) + " width "
                    + std::to_string(width) + " threads "
                    + std::to_string(threads);
                const auto dispatched = mat->replaySweep(sweep, threads);
                const auto packed = mat->replaySweepPacked(sweep, threads);
                const auto scalar = mat->replaySweepScalar(sweep, threads);
                trace::MaterializedTrace::Memos memos;
                const auto memoized =
                    mat->replaySweepScalar(sweep, threads, &memos);
                ASSERT_EQ(dispatched.size(), width) << what;
                ASSERT_EQ(packed.size(), width) << what;
                ASSERT_EQ(scalar.size(), width) << what;
                ASSERT_EQ(memoized.size(), width) << what;
                for (size_t i = 0; i < width; ++i) {
                    const std::string at = what + " machine "
                                           + std::to_string(i);
                    expectSameProfile(dispatched[i], solo[i],
                                      at + " dispatched");
                    expectSameProfile(packed[i], solo[i], at + " packed");
                    expectSameProfile(scalar[i], solo[i], at + " scalar");
                    expectSameProfile(memoized[i], solo[i], at + " memos");
                }
            }
        }
    }
}

} // namespace
} // namespace mmxdsp
