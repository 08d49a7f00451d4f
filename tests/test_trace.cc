/**
 * @file
 * Tests for the src/trace subsystem: the varint/FNV primitives, capture
 * round-trips on randomized event streams, the suite's trace store
 * (hits, misses, damaged entries), and the engine's core guarantee —
 * that replaying a captured trace reproduces the live profile bit for
 * bit.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "harness/suite.hh"
#include "isa/event.hh"
#include "profile/vprof.hh"
#include "runtime/cpu.hh"
#include "service/trace_store.hh"
#include "sim/timing_model.hh"
#include "sim/trace_sink.hh"
#include "trace/format.hh"
#include "trace/materialize.hh"
#include "trace/materialize_sink.hh"
#include "trace_test_util.hh"

namespace mmxdsp {
namespace {

using namespace testutil;

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
    EXPECT_NE(testutil::fnv1a(a, sizeof(a)), testutil::fnv1a(b, sizeof(b)));
    EXPECT_NE(trace::fnv1aMix(0, 1), trace::fnv1aMix(0, 2));
}

// ---------------- capture round-trip ----------------

TEST(TraceCodec, RandomStreamRoundTrips)
{
    // Random streams (single-event delivery, nested markers) go into a
    // MaterializeSink and, in the same pass, into a recorder; the
    // finished trace must replay the identical stream (the profiles of
    // such streams are checked in test_materialize_sink.cc).
    for (uint64_t seed : {1u, 17u, 99u, 404u}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng sizeRng(seed);
        const int n = 500 + static_cast<int>(sizeRng.nextBelow(3000));

        trace::MaterializeSink sink("rand", "c", 0x1234);
        RecordingSink expected;
        sim::TeeSink tee(&expected, &sink);
        feedRandomStream(seed, n, tee);
        const trace::MaterializedTrace mat = sink.finish();

        EXPECT_TRUE(mat.valid());
        EXPECT_EQ(mat.benchmark(), "rand");
        EXPECT_EQ(mat.version(), "c");
        EXPECT_EQ(mat.configHash(), 0x1234u);
        EXPECT_EQ(mat.instrCount(), expected.events.size());

        RecordingSink got;
        ASSERT_TRUE(mat.replayTo(got));
        expectSameStream(got, expected);
    }
}

TEST(TraceCodec, ReplayIsRepeatable)
{
    const trace::MaterializedTrace mat = randomTrace(5, 500);
    RecordingSink first;
    RecordingSink second;
    ASSERT_TRUE(mat.replayTo(first));
    ASSERT_TRUE(mat.replayTo(second)); // cursor is per-call state
    expectSameStream(second, first);
}

// ---------------- live vs replay bit-identity ----------------

/**
 * Every pair's capture replayed through the profile kernel on @p model
 * must reproduce every field of that pair's live profile.
 */
void
expectEveryPairKernelMatchesLive(size_t model)
{
    const sim::MachineConfig machine{kModels[model], {}};
    for (const PairCapture &pc : everyPairCapture()) {
        const std::string what =
            pc.name + " on " + sim::modelName(kModels[model]);
        ASSERT_TRUE(pc.mat.valid()) << what;
        const profile::ProfileResult &want = pc.live[model];
        EXPECT_EQ(pc.mat.instrCount(), want.dynamicInstructions) << what;
        if (kModels[model] != sim::ModelKind::P5) {
            EXPECT_GT(want.timer.uopsIssued, 0u) << what;
        }
        EXPECT_EQ(want.functionCalls,
                  want.opCounts[static_cast<size_t>(isa::Op::Call)])
            << what;
        expectSameProfile(pc.mat.replayProfile(machine), want,
                          what + " kernel");
    }
}

TEST(TraceReplay, EveryPairIsBitIdenticalToLive)
{
    expectEveryPairKernelMatchesLive(0);
}

TEST(TraceReplay, P6EveryPairIsBitIdenticalToLive)
{
    expectEveryPairKernelMatchesLive(1);
}

TEST(TraceReplay, P6PEveryPairIsBitIdenticalToLive)
{
    expectEveryPairKernelMatchesLive(2);
}

TEST(TraceReplay, DiskCacheSkipsExecution)
{
    ScratchDir scratch("mmxdsp_trace_suite_test");
    harness::TraceOptions topts{true, scratch.path.string()};

    harness::BenchmarkSuite first(tinyConfig(), topts);
    const profile::ProfileResult fir = first.run("fir", "mmx").profile;
    EXPECT_EQ(first.traceActivity().captured, 1);
    // run() and sweep() of one suite replay the one capture.
    first.sweep("fir", "mmx", std::vector<sim::MachineConfig>(1), 1);
    EXPECT_EQ(first.traceActivity().captured, 1);

    // A second suite (fresh process state as far as the trace layer is
    // concerned) replays the stored trace instead of executing, and its
    // numbers are the first suite's numbers.
    harness::BenchmarkSuite second(tinyConfig(), topts);
    const harness::RunResult replayed = second.run("fir", "mmx");
    EXPECT_EQ(second.traceActivity().disk_hits, 1);
    EXPECT_EQ(second.traceActivity().captured, 0);
    expectSameProfile(replayed.profile, fir, "fir.mmx disk replay");

    // A different workload hash must not hit the same entry.
    harness::SuiteConfig other = tinyConfig();
    other.fir_samples /= 2;
    harness::BenchmarkSuite third(other, topts);
    third.run("fir", "mmx");
    EXPECT_EQ(third.traceActivity().captured, 1);
    EXPECT_EQ(third.traceActivity().disk_hits, 0);
}

TEST(TraceReplay, RunAllParallelMatchesSerial)
{
    ScratchDir scratch("mmxdsp_trace_runall_test");
    harness::TraceOptions topts{true, scratch.path.string()};

    harness::BenchmarkSuite serial(tinyConfig(), topts);
    serial.runAll(1);
    harness::BenchmarkSuite parallel(tinyConfig(), topts);
    parallel.runAll(4);
    EXPECT_EQ(parallel.traceActivity().captured, 0);

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
    auto results = suite.sweep("fft", "mmx", onP5({tiny, paper}), 2);
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

// ---------------- materialized trace ----------------

TEST(MaterializedTraceTest, BatchedReplayDeliversTheExactStream)
{
    // A real capture (the runtime's 512-event emit blocks and its
    // enter/leave markers): the batched replay must deliver, event for
    // event and marker for marker, what the live run delivered.
    harness::BenchmarkSuite suite(tinyConfig());
    RecordingSink streamed;
    trace::MaterializeSink sink("g722", "mmx", 9);
    sim::TeeSink tee(&streamed, &sink);
    suite.executeLive("g722", "mmx", &tee);
    const trace::MaterializedTrace mat = sink.finish();
    ASSERT_FALSE(streamed.enters.empty());
    EXPECT_EQ(mat.instrCount(), streamed.events.size());
    EXPECT_GT(mat.byteSize(), 0u);

    RecordingSink batched;
    ASSERT_TRUE(mat.replayTo(batched));
    expectSameStream(batched, streamed);
}

TEST(MaterializedTraceTest, EveryPairStreamedReplayMatchesLive)
{
    // The event-by-event replay (the records decoded in order and
    // streamed through the TraceSink interface into a VProf) must
    // reproduce each live profile on every model, just as the profile
    // kernel does.
    for (const PairCapture &pc : everyPairCapture()) {
        for (size_t m = 0; m < std::size(kModels); ++m) {
            const sim::MachineConfig machine{kModels[m], {}};
            const std::string what =
                pc.name + " on " + sim::modelName(kModels[m]);
            profile::VProf replayed(machine);
            ASSERT_TRUE(pc.mat.replayTo(replayed)) << what;
            expectSameProfile(replayed.result(), pc.live[m],
                              what + " streamed");
        }
    }
}

TEST(MaterializedTraceTest, SiteLabelsMatchTheCpuSiteTable)
{
    // finish(&cpu) embeds the file and line of every site the stream
    // touched; a site it never saw labels as "site#N".
    harness::BenchmarkSuite suite(tinyConfig());
    RecordingSink streamed;
    trace::MaterializeSink sink("fir", "mmx", 1);
    sim::TeeSink tee(&streamed, &sink);
    suite.executeLive("fir", "mmx", &tee);
    runtime::Cpu cpu;
    const trace::MaterializedTrace mat = sink.finish(&cpu);

    std::set<uint32_t> sites;
    for (const isa::InstrEvent &e : streamed.events)
        sites.insert(e.site);
    ASSERT_FALSE(sites.empty());
    for (uint32_t id : sites) {
        const runtime::SiteInfo &info = cpu.siteInfo(id);
        std::string file = info.file;
        file = file.substr(file.rfind('/') + 1);
        EXPECT_EQ(mat.siteLabel(id), file + ":" + std::to_string(info.line))
            << id;
    }
    EXPECT_EQ(mat.siteLabel(0x7fffffff), "site#2147483647");
}

TEST(MaterializedTraceTest, SweepMatchesPerConfigReplayAtAnyThreadCount)
{
    // replaySweep over the shared buffers must be bit-identical to a
    // per-configuration replay, and independent of the worker-thread
    // count.
    ScratchDir scratch("mmxdsp_trace_matsweep_test");
    harness::BenchmarkSuite suite(
        tinyConfig(), harness::TraceOptions{true, scratch.path.string()});
    auto mat = suite.materializedFor("fft", "mmx");
    ASSERT_NE(mat, nullptr);

    std::vector<sim::TimerConfig> configs;
    for (uint32_t kb : {1u, 4u, 16u}) {
        sim::TimerConfig c;
        c.l1.size_bytes = kb * 1024;
        configs.push_back(c);
    }
    configs.back().mispredict_penalty = 9;

    const auto serial = mat->replaySweep(onP5(configs), 1);
    const auto parallel = mat->replaySweep(onP5(configs), 0);
    ASSERT_EQ(serial.size(), configs.size());
    ASSERT_EQ(parallel.size(), configs.size());
    for (size_t i = 0; i < configs.size(); ++i) {
        const std::string what = "config " + std::to_string(i);
        expectSameProfile(serial[i], parallel[i], what + " thread count");
        expectSameProfile(serial[i],
                          mat->replayProfile({sim::ModelKind::P5, configs[i]}),
                          what + " vs single replay");
    }

    // The suite's sweep path agrees too, and repeated calls reuse the
    // suite's resident trace.
    const auto via_suite = suite.sweep("fft", "mmx", onP5(configs), 2);
    EXPECT_EQ(suite.materializedFor("fft", "mmx").get(), mat.get());
    ASSERT_EQ(via_suite.size(), configs.size());
    for (size_t i = 0; i < configs.size(); ++i)
        expectSameProfile(via_suite[i], serial[i],
                          "suite sweep config " + std::to_string(i));
}

// ---------------- the suite's trace store ----------------

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

/** Where the suite's store keeps one pair of tinyConfig(). */
fs::path
entryPath(const ScratchDir &scratch, const std::string &bench,
          const std::string &version)
{
    service::StoreOptions opts;
    opts.root = scratch.path.string();
    return service::TraceStore(opts).path(bench, version,
                                          tinyConfig().hash());
}

TEST(TraceCacheTest, StoreThenLoad)
{
    // A capture stored in the suite's trace store loads back as the
    // identical stream under its full key.
    ScratchDir scratch("mmxdsp_trace_cache_test");
    service::StoreOptions opts;
    opts.root = scratch.path.string();
    service::TraceStore store(opts);

    trace::MaterializeSink sink("fir", "mmx", 42);
    RecordingSink expected;
    sim::TeeSink tee(&expected, &sink);
    feedRandomStream(3, 120, tee);
    ASSERT_TRUE(store.store("fir", "mmx", 42, sink.finish()));

    auto loaded = store.load("fir", "mmx", 42);
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(loaded->instrCount(), expected.events.size());
    RecordingSink got;
    ASSERT_TRUE(loaded->replayTo(got));
    expectSameStream(got, expected);

    // Any key component mismatch is a miss, not an error.
    EXPECT_EQ(store.load("fir", "mmx", 43), nullptr);
    EXPECT_EQ(store.load("fir", "c", 42), nullptr);
    EXPECT_EQ(store.load("fft", "mmx", 42), nullptr);
    EXPECT_EQ(store.stats().quarantined, 0u);
}

TEST(SuiteTraceStore, DisabledTracingWritesNothing)
{
    ScratchDir scratch("mmxdsp_trace_disabled_test");
    harness::BenchmarkSuite suite(
        tinyConfig(), harness::TraceOptions{false, scratch.path.string()});
    EXPECT_TRUE(suite.traceDir().empty());
    // Without a store, run() still captures and replays in memory, and
    // the capture stays resident: the store cannot take it back.
    const profile::ProfileResult fir = suite.run("fir", "mmx").profile;
    EXPECT_EQ(suite.traceActivity().captured, 1);
    expectSameProfile(suite.materializedFor("fir", "mmx")->replayProfile(),
                      fir, "fir.mmx in-memory replay");
    EXPECT_EQ(suite.traceActivity().captured, 1);
    suite.materializedFor("fir", "c");
    EXPECT_EQ(suite.traceActivity().captured, 2);
    EXPECT_EQ(suite.traceActivity().disk_hits, 0);
    EXPECT_TRUE(fs::is_empty(scratch.path));
}

TEST(SuiteTraceStore, CaptureKeepsNoReference)
{
    // capture() hands its trace to the caller alone, so a caller with a
    // memory budget of its own (vprofd's trace cache) is the one bound
    // on how long it stays resident. With the store on, the capture is
    // published; either way a later materializedFor() cannot find it in
    // the suite and loads it back or executes again.
    for (const bool tracing : {false, true}) {
        SCOPED_TRACE(tracing ? "store on" : "store off");
        ScratchDir scratch("mmxdsp_trace_capture_test");
        harness::BenchmarkSuite suite(
            tinyConfig(),
            harness::TraceOptions{tracing, scratch.path.string()});
        bool published = !tracing;
        std::weak_ptr<const trace::MaterializedTrace> weak;
        {
            const auto mat = suite.capture("fir", "c", &published);
            ASSERT_NE(mat, nullptr);
            EXPECT_TRUE(mat->valid());
            weak = mat;
        }
        EXPECT_TRUE(weak.expired());
        EXPECT_EQ(published, tracing);
        EXPECT_EQ(suite.traceActivity().captured, 1);

        suite.materializedFor("fir", "c");
        EXPECT_EQ(suite.traceActivity().captured, tracing ? 1 : 2);
        EXPECT_EQ(suite.traceActivity().disk_hits, tracing ? 1 : 0);
    }
}

TEST(SuiteTraceStore, DamagedEntryFallsBackToCaptureAndIsRewritten)
{
    // A bit-flipped or truncated trace file must never replay wrong
    // numbers: the load is a (warned) miss, the suite re-executes the
    // benchmark, and the recapture overwrites the bad file.
    for (const bool truncate : {false, true}) {
        SCOPED_TRACE(truncate ? "truncated" : "bit-flipped");
        ScratchDir scratch("mmxdsp_trace_corrupt_test");
        harness::TraceOptions topts{true, scratch.path.string()};

        harness::BenchmarkSuite first(tinyConfig(), topts);
        first.run("fir", "mmx");
        ASSERT_EQ(first.traceActivity().captured, 1);
        corruptFile(entryPath(scratch, "fir", "mmx"), truncate);

        harness::BenchmarkSuite second(tinyConfig(), topts);
        const harness::RunResult recaptured = second.run("fir", "mmx");
        EXPECT_EQ(second.traceActivity().disk_hits, 0);
        EXPECT_EQ(second.traceActivity().captured, 1);

        // The recapture rewrote the entry: a third suite replays it,
        // bit-identical to the fallback's result.
        harness::BenchmarkSuite third(tinyConfig(), topts);
        const harness::RunResult replayed = third.run("fir", "mmx");
        EXPECT_EQ(third.traceActivity().disk_hits, 1);
        EXPECT_EQ(third.traceActivity().captured, 0);
        expectSameProfile(replayed.profile, recaptured.profile,
                          "rewritten entry");
    }
}

TEST(SuiteTraceStore, DamagedEntryIsQuarantinedAndSurvivesRewrite)
{
    // A damaged entry is not just skipped: it is moved into the store's
    // quarantine/ directory (evidence for debugging), and recapturing
    // the pair must publish a fresh entry without disturbing the
    // quarantined file.
    ScratchDir scratch("mmxdsp_trace_quarantine_test");
    harness::TraceOptions topts{true, scratch.path.string()};

    harness::BenchmarkSuite first(tinyConfig(), topts);
    first.run("fir", "mmx");

    const fs::path entry = entryPath(scratch, "fir", "mmx");
    corruptFile(entry, /*truncate=*/true);
    const uintmax_t damaged_size = fs::file_size(entry);

    // Recapture republishes the entry; the bad file was moved aside,
    // not deleted, and survives the rewrite.
    harness::BenchmarkSuite second(tinyConfig(), topts);
    second.run("fir", "mmx");
    EXPECT_EQ(second.traceActivity().captured, 1);
    const fs::path qdir = entry.parent_path() / "quarantine";
    ASSERT_TRUE(fs::exists(qdir));
    std::vector<fs::path> quarantined;
    for (const auto &de : fs::directory_iterator(qdir))
        quarantined.push_back(de.path());
    ASSERT_EQ(quarantined.size(), 1u);
    EXPECT_EQ(fs::file_size(quarantined[0]), damaged_size);
    EXPECT_TRUE(fs::exists(entry));
    EXPECT_GT(fs::file_size(entry), damaged_size);

    trace::MaterializedTrace fresh;
    EXPECT_TRUE(fresh.loadV2File(entry.string()));
}

TEST(SuiteTraceStore, RunAllKeepsTracesWithinTheEngineBudget)
{
    // With a store, runAll() publishes every capture and leaves each
    // trace in the engine's trace cache, which a small corpus fits: a
    // later materializedFor() neither loads nor executes, and replays
    // the very capture the runAll() profile came from.
    ScratchDir scratch("mmxdsp_trace_runall_resident_test");
    harness::BenchmarkSuite suite(
        tinyConfig(), harness::TraceOptions{true, scratch.path.string()});
    suite.runAll(4);
    const auto pairs = harness::BenchmarkSuite::allRuns();
    const int n = static_cast<int>(pairs.size());
    EXPECT_EQ(suite.traceActivity().captured, n);
    EXPECT_EQ(suite.traceActivity().disk_hits, 0);
    for (const auto &[bench, version] : pairs) {
        const std::string name = bench + "." + version;
        EXPECT_TRUE(fs::exists(entryPath(scratch, bench, version))) << name;
        const auto mat = suite.materializedFor(bench, version);
        expectSameProfile(suite.run(bench, version).profile,
                          mat->replayProfile(), name);
    }
    EXPECT_EQ(suite.traceActivity().captured, n);
    EXPECT_EQ(suite.traceActivity().disk_hits, 0);
}

TEST(SuiteTraceStore, RunAllKeepsCapturesTheStoreCannotTake)
{
    // A store rooted at a regular file takes nothing, and a recapture
    // could shift the address stream, so runAll() keeps every capture
    // and materializedFor() serves it without executing or loading.
    ScratchDir scratch("mmxdsp_trace_runall_keep_test");
    const fs::path root = scratch.path / "not-a-directory";
    std::ofstream(root) << "x";
    harness::BenchmarkSuite suite(
        tinyConfig(), harness::TraceOptions{true, root.string()});
    suite.runAll(2);
    const auto pairs = harness::BenchmarkSuite::allRuns();
    const int n = static_cast<int>(pairs.size());
    EXPECT_EQ(suite.traceActivity().captured, n);
    for (const auto &[bench, version] : pairs)
        expectSameProfile(suite.run(bench, version).profile,
                          suite.materializedFor(bench, version)
                              ->replayProfile(),
                          bench + "." + version);
    EXPECT_EQ(suite.traceActivity().captured, n);
    EXPECT_EQ(suite.traceActivity().disk_hits, 0);
}

// ---------------- cross-model replay ----------------

TEST(TraceReplay, P6PEdgeGeometriesStayBitIdentical)
{
    // The degenerate predictor/cache geometries a sweep may request,
    // under the port model: assoc=1 at both cache levels and a 1-entry
    // BTB. Live, kernel and event-by-event replays must agree.
    sim::TimerConfig edge;
    edge.l1.ways = 1;
    edge.l2.ways = 1;
    edge.btb_entries = 1;
    edge.btb_ways = 1;
    const sim::MachineConfig p6p{sim::ModelKind::P6P, edge};

    harness::BenchmarkSuite suite(tinyConfig());
    for (const auto &[bench, version] :
         {std::pair<std::string, std::string>{"fft", "mmx"},
          {"g722", "c"},
          {"matvec", "mmx"}}) {
        const std::string what = bench + "." + version + " p6p edge";
        profile::VProf live(p6p);
        trace::MaterializeSink sink(bench, version, 1);
        sim::TeeSink tee(&live, &sink);
        suite.executeLive(bench, version, &tee);
        const trace::MaterializedTrace mat = sink.finish();
        expectSameProfile(mat.replayProfile(p6p), live.result(),
                          what + " kernel");
        profile::VProf replayed(p6p);
        ASSERT_TRUE(mat.replayTo(replayed)) << what;
        expectSameProfile(replayed.result(), live.result(), what + " VProf");
    }
}

TEST(TraceReplay, CrossModelSweepKeepsP5ColumnsBitIdentical)
{
    // A mixed {P5, P6} sweep must not perturb the P5 columns: they stay
    // bit-identical to the plain TimerConfig-only P5 replay, at any
    // thread count.
    ScratchDir scratch("mmxdsp_trace_xmodel_test");
    harness::BenchmarkSuite suite(
        tinyConfig(), harness::TraceOptions{true, scratch.path.string()});
    auto mat = suite.materializedFor("fft", "mmx");
    ASSERT_NE(mat, nullptr);

    sim::TimerConfig small;
    small.l1.size_bytes = 1024;
    const std::vector<sim::MachineConfig> machines = {
        {sim::ModelKind::P5, sim::TimerConfig{}},
        {sim::ModelKind::P6, sim::TimerConfig{}},
        {sim::ModelKind::P5, small},
        {sim::ModelKind::P6, small},
    };

    const auto serial = mat->replaySweep(machines, 1);
    const auto parallel = mat->replaySweep(machines, 0);
    ASSERT_EQ(serial.size(), machines.size());
    ASSERT_EQ(parallel.size(), machines.size());
    for (size_t i = 0; i < machines.size(); ++i) {
        const std::string what = "machine " + std::to_string(i);
        expectSameProfile(serial[i], parallel[i], what + " thread count");
        expectSameProfile(serial[i], mat->replayProfile(machines[i]),
                          what + " vs single replay");
    }

    // The P5 columns are exactly the TimerConfig-only results.
    expectSameProfile(serial[0], mat->replayProfile(),
                      "P5 default vs TimerConfig replay");
    expectSameProfile(serial[2],
                      mat->replayProfile({sim::ModelKind::P5, small}),
                      "P5 small-L1 vs TimerConfig replay");
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
    // replaySweep() sends up to perMachineWidth() machines through the
    // per-machine kernel and wider sweeps through the packed one. Pin
    // both sides of that boundary: at every width 1-9 on each model and
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
        for (uint32_t k = 0; k < 9; ++k) {
            sim::MachineConfig m{model, sim::TimerConfig{}};
            m.timer.l1.size_bytes = 1024u << (k % 3);
            m.timer.btb_entries = 64u << (k % 2);
            m.timer.mispredict_penalty = 3 + k;
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
