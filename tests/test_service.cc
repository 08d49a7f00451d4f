/**
 * @file
 * Tests for the vprofd service layer: the TraceStore (round trips, one
 * flat file per key, quarantine, LRU eviction, concurrency, entries an
 * older sharded layout left behind), the QueryEngine (result cache,
 * batch-vs-scalar identity, capture-free cold restart, untrusted query
 * parsing, memo reuse and its share of the trace-cache budget) and the
 * --serve and --batch loops.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness/suite.hh"
#include "service/query_engine.hh"
#include "service/serve.hh"
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

/** A small synthetic trace (no live run needed for store tests). */
trace::MaterializedTrace
syntheticTrace(uint64_t seed, uint64_t config_hash, int events = 400)
{
    Rng rng(seed);
    trace::MaterializeSink sink("synth", "c", config_hash);
    sink.onEnterFunction("work");
    for (int i = 0; i < events; ++i) {
        isa::InstrEvent e;
        e.op = static_cast<isa::Op>(rng.nextBelow(isa::kNumOps));
        e.site = rng.nextBelow(64);
        sink.onInstrBatch({&e, 1});
    }
    sink.onLeaveFunction();
    return sink.finish();
}

service::StoreOptions
storeOpts(const ScratchDir &scratch)
{
    service::StoreOptions opts;
    opts.root = (scratch.path / "store").string();
    return opts;
}

/** All regular files under @p dir whose path contains @p needle. */
std::vector<std::string>
filesContaining(const fs::path &dir, const std::string &needle)
{
    std::vector<std::string> out;
    std::error_code ec;
    for (const auto &de :
         fs::recursive_directory_iterator(dir, ec)) {
        if (de.is_regular_file(ec)
            && de.path().string().find(needle) != std::string::npos)
            out.push_back(de.path().string());
    }
    return out;
}

// ---------------- TraceStore ----------------

TEST(TraceStoreTest, StoreThenLoadRoundTrips)
{
    ScratchDir scratch("mmxdsp_store_roundtrip_test");
    service::TraceStore store(storeOpts(scratch));

    EXPECT_EQ(store.load("synth", "c", 0x1234), nullptr);
    EXPECT_EQ(store.stats().misses, 1u);

    trace::MaterializedTrace mat = syntheticTrace(1, 0x1234);
    ASSERT_TRUE(store.store("synth", "c", 0x1234, mat));
    EXPECT_EQ(store.usage().entries, 1u);
    EXPECT_GT(store.totalBytes(), 0u);

    auto loaded = store.load("synth", "c", 0x1234);
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(loaded->instrCount(), mat.instrCount());
    EXPECT_EQ(loaded->configHash(), 0x1234u);
    expectSameProfile(loaded->replayProfile(), mat.replayProfile(), "loaded");

    const service::StoreStats stats = store.stats();
    EXPECT_EQ(stats.stores, 1u);
    EXPECT_EQ(stats.v2_hits, 1u);
    EXPECT_EQ(stats.quarantined, 0u);

    // Any key component mismatch is a miss, not an error.
    EXPECT_EQ(store.load("synth", "c", 0x1235), nullptr);
    EXPECT_EQ(store.load("synth", "mmx", 0x1234), nullptr);
    EXPECT_EQ(store.load("other", "c", 0x1234), nullptr);
    EXPECT_EQ(store.stats().misses, 4u);
    EXPECT_EQ(store.stats().quarantined, 0u);
}

TEST(TraceStoreTest, PathIsOneFlatFilePerKeyInEveryInstance)
{
    // An entry's name is a pure function of the key: a second store
    // instance (a different process in real life) with a fresh state
    // must name every key the same file under its root, or corpus
    // lookups would miss entries written by another process.
    ScratchDir scratch("mmxdsp_store_path_test");
    const service::TraceStore a(storeOpts(scratch));
    service::StoreOptions bOpts = storeOpts(scratch);
    bOpts.root = (scratch.path / "other_root").string();
    const service::TraceStore b(bOpts);

    EXPECT_EQ(a.path("fir", "mmx", 0x2a),
              a.options().root + "/fir.mmx.000000000000002a.mxt2");
    for (int i = 0; i < 64; ++i) {
        const std::string bench = "bench" + std::to_string(i);
        const uint64_t h = 0x9000u + static_cast<uint64_t>(i);
        const fs::path pa = a.path(bench, "mmx", h);
        const fs::path pb = b.path(bench, "mmx", h);
        EXPECT_EQ(pa.parent_path(), fs::path(a.options().root));
        EXPECT_EQ(pb.parent_path(), fs::path(bOpts.root));
        EXPECT_EQ(pa.filename(), pb.filename());
    }
}

TEST(TraceStoreTest, CorruptEntryIsQuarantinedAndSurvivesRewrite)
{
    ScratchDir scratch("mmxdsp_store_quarantine_test");
    service::TraceStore store(storeOpts(scratch));
    trace::MaterializedTrace mat = syntheticTrace(2, 0xbeef);
    ASSERT_TRUE(store.store("synth", "c", 0xbeef, mat));

    // Truncate the entry in place (always invalid: the final section
    // runs to end of file).
    const std::string path = store.path("synth", "c", 0xbeef);
    std::vector<uint8_t> bytes;
    ASSERT_TRUE(readFile(path, bytes));
    bytes.resize(bytes.size() / 2);
    ASSERT_TRUE(writeFileAtomic(path, bytes));

    EXPECT_EQ(store.load("synth", "c", 0xbeef), nullptr);
    EXPECT_EQ(store.stats().quarantined, 1u);
    EXPECT_FALSE(fs::exists(path));
    auto quarantined = filesContaining(scratch.path, "/quarantine/");
    ASSERT_EQ(quarantined.size(), 1u);

    // Re-publishing the key must not disturb the quarantined evidence,
    // and the store must serve the fresh entry again.
    ASSERT_TRUE(store.store("synth", "c", 0xbeef, mat));
    auto reloaded = store.load("synth", "c", 0xbeef);
    ASSERT_NE(reloaded, nullptr);
    expectSameProfile(reloaded->replayProfile(), mat.replayProfile(),
                      "reloaded");
    EXPECT_EQ(filesContaining(scratch.path, "/quarantine/"), quarantined);

    // Quarantined files are out of the corpus accounting.
    EXPECT_EQ(store.usage().entries, 1u);
}

TEST(TraceStoreTest, OlderShardedEntryIsCountedAndEvictedButNeverServed)
{
    // A store written before the flat layout keeps its images in
    // "<root>/shard-NN/". Such an entry must not be served (load()
    // looks only at the flat path, so the suite recaptures the pair
    // into the root), yet it is still corpus: the budget counts it and,
    // as nothing refreshes it, evicts it first. Quarantined evidence
    // beside it is counted and never evicted.
    ScratchDir scratch("mmxdsp_store_legacy_test");
    const harness::SuiteConfig config = tinyConfig();
    const harness::TraceOptions topts{true, scratch.path.string()};
    service::StoreOptions opts;
    opts.root = scratch.path.string();
    service::TraceStore store(opts);

    harness::BenchmarkSuite(config, topts).materializedFor("fir", "mmx");
    const fs::path flat = store.path("fir", "mmx", config.hash());
    const fs::path legacy = scratch.path / "shard-0a" / flat.filename();
    const fs::path parked =
        scratch.path / "shard-0a" / "quarantine" / flat.filename();
    fs::create_directories(parked.parent_path());
    fs::rename(flat, legacy);
    fs::copy_file(legacy, parked);
    fs::last_write_time(legacy, fs::file_time_type::clock::now()
                                    - std::chrono::hours(1));
    const uint64_t legacy_bytes = fs::file_size(legacy);

    EXPECT_EQ(store.load("fir", "mmx", config.hash()), nullptr);
    EXPECT_EQ(store.stats().quarantined, 0u);
    EXPECT_TRUE(fs::exists(legacy));
    EXPECT_EQ(store.usage().entries, 1u);
    EXPECT_EQ(store.totalBytes(), legacy_bytes);
    EXPECT_EQ(store.usage().quarantined, 1u);

    harness::BenchmarkSuite suite(config, topts);
    suite.materializedFor("fir", "mmx");
    EXPECT_EQ(suite.traceActivity().captured, 1);
    EXPECT_EQ(suite.traceActivity().disk_hits, 0);
    ASSERT_TRUE(fs::exists(flat));
    EXPECT_EQ(store.usage().entries, 2u);
    EXPECT_EQ(store.totalBytes(), legacy_bytes + fs::file_size(flat));

    service::StoreOptions budgeted = opts;
    budgeted.budget_bytes = fs::file_size(flat);
    service::TraceStore evictor(budgeted);
    EXPECT_EQ(evictor.enforceBudget(), legacy_bytes);
    EXPECT_EQ(evictor.stats().evicted, 1u);
    EXPECT_FALSE(fs::exists(legacy));
    EXPECT_TRUE(fs::exists(flat));
    EXPECT_TRUE(fs::exists(parked));
    EXPECT_NE(evictor.load("fir", "mmx", config.hash()), nullptr);
}

TEST(TraceStoreTest, KeyMismatchedEntryIsQuarantined)
{
    // A file whose embedded key disagrees with its name (a mis-filed
    // or stale entry) must not be served under the wrong key.
    ScratchDir scratch("mmxdsp_store_mismatch_test");
    service::TraceStore store(storeOpts(scratch));
    trace::MaterializedTrace mat = syntheticTrace(3, 0x1);
    const std::string wrong = store.path("synth", "c", 0x2);
    fs::create_directories(fs::path(wrong).parent_path());
    ASSERT_TRUE(writeFileAtomic(wrong, mat.serializeV2()));

    EXPECT_EQ(store.load("synth", "c", 0x2), nullptr);
    EXPECT_EQ(store.stats().quarantined, 1u);
    EXPECT_FALSE(fs::exists(wrong));
}

TEST(TraceStoreTest, EvictionRespectsBudgetAndKeepsNewest)
{
    ScratchDir scratch("mmxdsp_store_evict_test");
    service::StoreOptions opts = storeOpts(scratch);
    service::TraceStore unbudgeted(opts);

    // Publish several same-sized entries with strictly ordered mtimes.
    const int n = 6;
    uint64_t per_entry = 0;
    for (int i = 0; i < n; ++i) {
        trace::MaterializedTrace mat =
            syntheticTrace(100 + i, static_cast<uint64_t>(i));
        ASSERT_TRUE(unbudgeted.store("synth", "c",
                                     static_cast<uint64_t>(i), mat));
        const std::string p =
            unbudgeted.path("synth", "c", static_cast<uint64_t>(i));
        fs::last_write_time(
            p, fs::file_time_type(std::chrono::seconds(1000 + i)));
        if (i == 0)
            per_entry = fs::file_size(p);
    }
    ASSERT_GT(per_entry, 0u);

    // A budget of ~2.5 entries must evict the 4 oldest, keep the rest.
    service::StoreOptions budgeted = opts;
    budgeted.budget_bytes = per_entry * 5 / 2;
    service::TraceStore store(budgeted);
    const uint64_t removed = store.enforceBudget();
    EXPECT_GT(removed, 0u);
    EXPECT_LE(store.totalBytes(), budgeted.budget_bytes);
    EXPECT_EQ(store.usage().entries, 2u);
    EXPECT_EQ(store.stats().evicted, 4u);
    // LRU: the two most recently touched entries survive.
    EXPECT_NE(store.load("synth", "c", n - 1), nullptr);
    EXPECT_NE(store.load("synth", "c", n - 2), nullptr);
    EXPECT_EQ(store.load("synth", "c", 0), nullptr);
}

TEST(TraceStoreTest, ReaderSurvivesConcurrentEviction)
{
    // POSIX semantics: a trace mmap'd before its file is evicted must
    // stay fully readable. Readers hammer loads while an evictor
    // repeatedly shrinks the corpus to zero.
    ScratchDir scratch("mmxdsp_store_concurrent_test");
    service::StoreOptions opts = storeOpts(scratch);
    opts.budget_bytes = 1; // evict everything on every enforce
    service::TraceStore store(opts);

    const int kKeys = 4;
    std::vector<profile::ProfileResult> expect;
    trace::MaterializedTrace mats[kKeys];
    for (int i = 0; i < kKeys; ++i) {
        mats[i] = syntheticTrace(200 + i, static_cast<uint64_t>(i), 1500);
        expect.push_back(mats[i].replayProfile());
    }

    std::atomic<bool> stop{false};
    std::atomic<int> served{0};
    std::thread writer([&] {
        while (!stop.load()) {
            for (int i = 0; i < kKeys; ++i)
                store.store("synth", "c", static_cast<uint64_t>(i),
                            mats[i]);
        }
    });
    std::thread evictor([&] {
        while (!stop.load())
            store.enforceBudget();
    });
    std::vector<std::thread> readers;
    for (int t = 0; t < 3; ++t) {
        readers.emplace_back([&, t] {
            Rng rng(static_cast<uint64_t>(t) + 1);
            // Spin until this reader has caught a few entries in the
            // publish->evict window (bounded by a wall-clock deadline
            // so a pathological scheduler can't hang the test).
            const auto deadline = std::chrono::steady_clock::now()
                                  + std::chrono::seconds(10);
            int mine = 0;
            while (mine < 5
                   && std::chrono::steady_clock::now() < deadline) {
                const int key =
                    static_cast<int>(rng.nextBelow(kKeys));
                auto mat = store.load("synth", "c",
                                      static_cast<uint64_t>(key));
                if (!mat)
                    continue; // evicted between publish and load: fine
                // The mapping must stay valid even if the file is
                // unlinked while we replay.
                EXPECT_TRUE(mat->replayProfile()
                            == expect[static_cast<size_t>(key)]);
                ++mine;
                ++served;
            }
        });
    }
    for (auto &r : readers)
        r.join();
    stop.store(true);
    writer.join();
    evictor.join();
    EXPECT_GT(served.load(), 0);
}

TEST(TraceStoreTest, ConcurrentSameKeyWritersLeaveOneValidEntry)
{
    ScratchDir scratch("mmxdsp_store_writers_test");
    service::TraceStore store(storeOpts(scratch));
    trace::MaterializedTrace mat = syntheticTrace(7, 0xabc, 800);

    std::vector<std::thread> writers;
    for (int t = 0; t < 8; ++t)
        writers.emplace_back([&] {
            for (int i = 0; i < 25; ++i)
                EXPECT_TRUE(store.store("synth", "c", 0xabc, mat));
        });
    for (auto &w : writers)
        w.join();

    // Rename-on-publish: exactly one live entry, no temp litter.
    EXPECT_EQ(store.usage().entries, 1u);
    EXPECT_TRUE(filesContaining(scratch.path, ".tmp.").empty());
    auto loaded = store.load("synth", "c", 0xabc);
    ASSERT_NE(loaded, nullptr);
    expectSameProfile(loaded->replayProfile(), mat.replayProfile(), "loaded");
}

// ---------------- QueryEngine ----------------

service::EngineOptions
engineOpts(const ScratchDir &scratch)
{
    service::EngineOptions opts;
    opts.store.root = (scratch.path / "store").string();
    opts.suite = tinyConfig();
    return opts;
}

/** Whether @p s is well-formed UTF-8: every sequence decodes to a code
 *  point in its length's range that is not a surrogate. */
bool
isUtf8(const std::string &s)
{
    static const uint32_t kMin[] = {0, 0, 0x80, 0x800, 0x10000};
    for (size_t i = 0; i < s.size();) {
        const unsigned char c = static_cast<unsigned char>(s[i]);
        const size_t n = c < 0x80           ? 1
                         : (c >> 5) == 0x6  ? 2
                         : (c >> 4) == 0xe  ? 3
                         : (c >> 3) == 0x1e ? 4
                                            : 0;
        if (n == 0 || i + n > s.size())
            return false;
        uint32_t cp = n == 1 ? c : c & (0x7fu >> n);
        for (size_t k = 1; k < n; ++k) {
            const unsigned char b = static_cast<unsigned char>(s[i + k]);
            if ((b >> 6) != 2)
                return false;
            cp = cp << 6 | (b & 0x3f);
        }
        if (cp < kMin[n] || cp > 0x10ffff || (cp >= 0xd800 && cp <= 0xdfff))
            return false;
        i += n;
    }
    return true;
}

TEST(QueryEngineTest, RepeatQueryIsServedFromResultCache)
{
    ScratchDir scratch("mmxdsp_engine_cache_test");
    service::QueryEngine engine(engineOpts(scratch));

    service::Query q{"fir", "c", sim::MachineConfig{}};
    const service::QueryResult first = engine.query(q);
    ASSERT_TRUE(first.ok) << first.error;
    EXPECT_TRUE(first.trace_captured);
    EXPECT_FALSE(first.from_result_cache);

    const service::QueryResult again = engine.query(q);
    ASSERT_TRUE(again.ok);
    EXPECT_TRUE(again.from_result_cache);
    EXPECT_FALSE(again.trace_captured);
    EXPECT_TRUE(again.profile == first.profile);
    EXPECT_EQ(engine.stats().result_hits, 1u);

    // A different machine on the same trace replays, not re-captures.
    service::Query p6 = q;
    p6.machine.model = sim::ModelKind::P6;
    const service::QueryResult other = engine.query(p6);
    ASSERT_TRUE(other.ok);
    EXPECT_FALSE(other.from_result_cache);
    EXPECT_FALSE(other.trace_captured);
    EXPECT_EQ(engine.stats().captures, 1u);
}

TEST(QueryEngineTest, ExplicitDefaultPenaltyIsAResultCacheHit)
{
    // Naming a model's own mispredict penalty asks for the machine the
    // plain query already answered: a result-cache hit, no replay.
    ScratchDir scratch("mmxdsp_engine_default_mp_test");
    service::QueryEngine engine(engineOpts(scratch));

    std::string error;
    for (const auto &[model, own] :
         {std::pair<const char *, const char *>{"p5", "4"},
          {"p6", "11"},
          {"p6p", "12"}}) {
        service::Query plain, named;
        ASSERT_TRUE(service::QueryEngine::parseQueryLine(
            std::string("fir c model=") + model, &plain, &error))
            << error;
        ASSERT_TRUE(service::QueryEngine::parseQueryLine(
            std::string("fir c model=") + model + " mp=" + own, &named,
            &error))
            << error;
        const service::QueryResult first = engine.query(plain);
        ASSERT_TRUE(first.ok) << first.error;
        const uint64_t replays = engine.stats().replays;
        const service::QueryResult again = engine.query(named);
        ASSERT_TRUE(again.ok) << again.error;
        EXPECT_TRUE(again.from_result_cache) << model;
        EXPECT_EQ(engine.stats().replays, replays) << model;
        EXPECT_TRUE(again.profile == first.profile) << model;
    }
}

TEST(QueryEngineTest, BatchMatchesStoreReplayExactly)
{
    // The batch path answers misses through one replaySweep per trace;
    // every machine must be bit-identical to a scalar replayProfile
    // over the same stored bytes.
    ScratchDir scratch("mmxdsp_engine_batch_test");
    service::EngineOptions opts = engineOpts(scratch);
    service::QueryEngine engine(opts);

    std::vector<sim::MachineConfig> machines(4);
    machines[1].model = sim::ModelKind::P6;
    machines[2].timer.l1.size_bytes = 8 * 1024;
    machines[3].timer.penalties.l2_miss = 11;

    std::vector<service::Query> queries;
    for (const auto &m : machines)
        queries.push_back({"fir", "mmx", m});
    queries.push_back(queries[0]); // duplicate rides the cache

    const auto results = engine.queryBatch(queries);
    ASSERT_EQ(results.size(), queries.size());
    for (const auto &r : results)
        ASSERT_TRUE(r.ok) << r.error;
    expectSameProfile(results[4].profile, results[0].profile, "duplicate");

    // Independent scalar oracle over the same stored trace.
    service::TraceStore oracle(opts.store);
    auto mat = oracle.load("fir", "mmx", opts.suite.hash());
    ASSERT_NE(mat, nullptr);
    for (size_t i = 0; i < machines.size(); ++i)
        expectSameProfile(results[i].profile, mat->replayProfile(machines[i]),
                          "machine " + std::to_string(i));
}

TEST(QueryEngineTest, ColdRestartServesWithoutCapture)
{
    // Compute once, serve many: a warm engine captures each pair once,
    // then a capture-less engine on the same store answers every (pair,
    // machine) from one mmap load per pair.
    ScratchDir scratch("mmxdsp_engine_restart_test");
    service::EngineOptions opts = engineOpts(scratch);
    const std::pair<const char *, const char *> pairs[] = {
        {"fir", "c"}, {"fir", "mmx"}, {"iir", "c"}};
    std::vector<sim::MachineConfig> machines(4);
    machines[1].model = sim::ModelKind::P6;
    machines[2].timer.l1.size_bytes = 8 * 1024;
    machines[3].model = sim::ModelKind::P6;
    machines[3].timer.btb_entries = 128;

    std::vector<service::Query> queries;
    std::vector<profile::ProfileResult> expect;
    {
        service::QueryEngine warm(opts);
        for (const auto &[bench, version] : pairs) {
            for (size_t m = 0; m < machines.size(); ++m) {
                queries.push_back({bench, version, machines[m]});
                const auto r = warm.query(queries.back());
                ASSERT_TRUE(r.ok) << r.error;
                EXPECT_EQ(r.trace_captured, m == 0) << bench << "." << version;
                expect.push_back(r.profile);
            }
        }
        EXPECT_EQ(warm.stats().captures, std::size(pairs));
    }

    // A fresh engine with capture disabled can only serve from disk.
    service::EngineOptions cold = opts;
    cold.allow_capture = false;
    service::QueryEngine engine(cold);
    const auto results = engine.queryBatch(queries);
    ASSERT_EQ(results.size(), queries.size());
    for (size_t i = 0; i < results.size(); ++i) {
        ASSERT_TRUE(results[i].ok) << results[i].error;
        EXPECT_FALSE(results[i].trace_captured);
        const size_t m = i % machines.size();
        expectSameProfile(results[i].profile, expect[i],
                          queries[i].benchmark + "." + queries[i].version
                              + " machine " + std::to_string(m));
    }
    EXPECT_EQ(engine.stats().captures, 0u);
    EXPECT_EQ(engine.stats().store_loads, std::size(pairs));
    EXPECT_EQ(engine.store().stats().v2_hits, std::size(pairs));

    // A pair absent from the store must fail, not fatal.
    const auto miss =
        engine.query({"fft", "c", sim::MachineConfig{}});
    EXPECT_FALSE(miss.ok);
    EXPECT_FALSE(miss.error.empty());
}

TEST(QueryEngineTest, ParseQueryLineAcceptsAndRejects)
{
    service::Query q;
    std::string error;

    ASSERT_TRUE(service::QueryEngine::parseQueryLine("fir c", &q, &error));
    EXPECT_EQ(q.benchmark, "fir");
    EXPECT_EQ(q.version, "c");
    EXPECT_EQ(q.machine.model, sim::ModelKind::P5);

    ASSERT_TRUE(service::QueryEngine::parseQueryLine(
        "fft mmx model=p6 l1=8192 l1_ways=4 btb=128 mp=5", &q, &error));
    EXPECT_EQ(q.machine.model, sim::ModelKind::P6);
    EXPECT_EQ(q.machine.timer.l1.size_bytes, 8192u);
    EXPECT_EQ(q.machine.timer.l1.ways, 4u);
    EXPECT_EQ(q.machine.timer.btb_entries, 128u);
    EXPECT_EQ(q.machine.timer.mispredict_penalty, 5u);

    const char *bad[] = {
        "",                      // empty
        "fir",                   // missing version
        "fir c model=p7",        // unknown model
        "fir c l1=zero",         // unparsable value
        "fir c l1=0",            // zero geometry
        "fir c bogus=1",         // unknown key
        "nosuch c",              // unknown pair (would fatal in harness)
        "fir nosuchversion",     // unknown pair
        "fir c l1=3000",         // L1 size not a power of two
        "fir c l1_ways=3",       // 16 KB does not split into 3 ways
        "fir c l2_line=48",      // L2 line not a power of two
        "fir c btb=3",           // 3 entries do not fill 4 ways
        "fir c btb_ways=3",      // 256 entries do not split 3 ways
        "fir c l1=4294967297",   // above UINT32_MAX (not truncated to 1)
        "fir c btb_ways=4294967295 btb=4294967295", // above the BTB caps
        "fir c btb=2147483648 btb_ways=1",          // above the entry cap
        "fir c l2=2147483648 l2_line=1 l2_ways=1",  // above the line cap
        "fir c mp=-1",           // negative
        "fir c l1=020000",       // decimal 20000, not octal 8192
        "fir c l1=0x2000",       // hex is not in the grammar
        "fir c l1=+8192",        // nor is a sign
    };
    for (const char *line : bad) {
        EXPECT_FALSE(
            service::QueryEngine::parseQueryLine(line, &q, &error))
            << line;
        EXPECT_FALSE(error.empty()) << line;
    }

    // The port model parses too.
    ASSERT_TRUE(service::QueryEngine::parseQueryLine(
        "fft mmx model=p6p", &q, &error));
    EXPECT_EQ(q.machine.model, sim::ModelKind::P6P);

    // The gemm family is registered: all four variants are known pairs.
    for (const char *version : {"c", "c_blocked", "mmx", "mmx_blocked"}) {
        ASSERT_TRUE(service::QueryEngine::parseQueryLine(
            std::string("gemm ") + version, &q, &error))
            << version;
        EXPECT_EQ(q.benchmark, "gemm");
        EXPECT_EQ(q.version, version);
    }

    // Distinct machines hash apart; identical machines hash together.
    sim::MachineConfig a, b;
    EXPECT_EQ(service::machineHash(a), service::machineHash(b));
    b.timer.penalties.l2_miss += 1;
    EXPECT_NE(service::machineHash(a), service::machineHash(b));
    b = a;
    b.model = sim::ModelKind::P6;
    EXPECT_NE(service::machineHash(a), service::machineHash(b));
    b.model = sim::ModelKind::P6P;
    EXPECT_NE(service::machineHash(a), service::machineHash(b));
    // Setting a model's own mispredict penalty changes no timing, so
    // it keys with the penalty left unset; any other penalty does not.
    for (const auto &[model, own] :
         {std::pair{sim::ModelKind::P5, 4u},
          {sim::ModelKind::P6, 11u},
          {sim::ModelKind::P6P, 12u}}) {
        a = sim::MachineConfig{model, sim::TimerConfig{}};
        b = a;
        b.timer.mispredict_penalty = own;
        EXPECT_EQ(service::machineHash(a), service::machineHash(b));
        b.timer.mispredict_penalty = own + 1;
        EXPECT_NE(service::machineHash(a), service::machineHash(b));
    }
}

TEST(QueryEngineTest, ServeSessionSurvivesInvalidGeometryLines)
{
    // Each invalid line gets an error reply and the session goes on:
    // the valid query after them is still answered, and nothing
    // reached a Cache or Btb constructor (whose check is fatal) or
    // allocated a tag array of billions of entries.
    ScratchDir scratch("mmxdsp_engine_serve_test");
    service::QueryEngine engine(engineOpts(scratch));
    std::istringstream in("fir c l1=3000\n"
                          "fir c l1_ways=3\n"
                          "fir c btb=3\n"
                          "fir c l1=4294967297\n"
                          "fir c btb_ways=4294967295 btb=4294967295\n"
                          "fir c btb=2147483648 btb_ways=1\n"
                          "fir c l2=2147483648 l2_line=1 l2_ways=1\n"
                          "fir c \xff\xfe=1\n"
                          "fir\xc3 c\n"
                          "\n"
                          "# comment\n"
                          "fir c\n"
                          "stats\n"
                          "quit\n"
                          "fir mmx\n");
    std::ostringstream out;
    service::serveSession(engine, in, out);

    std::vector<std::string> replies;
    std::istringstream lines(out.str());
    for (std::string line; std::getline(lines, line);)
        replies.push_back(line);
    ASSERT_EQ(replies.size(), 11u) << out.str();
    for (size_t i = 0; i < 9; ++i) {
        EXPECT_EQ(replies[i].rfind("{\"ok\":false,\"error\":\"", 0), 0u)
            << replies[i];
        // Bytes that are not UTF-8 in a query line must not reach the
        // reply raw, or it is not JSON.
        EXPECT_TRUE(isUtf8(replies[i])) << replies[i];
    }
    EXPECT_NE(replies[0].find("L1 geometry"), std::string::npos);
    EXPECT_NE(replies[2].find("BTB geometry"), std::string::npos);
    EXPECT_NE(replies[3].find("out of range"), std::string::npos);
    EXPECT_NE(replies[4].find("BTB geometry"), std::string::npos);
    EXPECT_NE(replies[5].find("BTB geometry"), std::string::npos);
    EXPECT_NE(replies[6].find("L2 geometry"), std::string::npos);
    EXPECT_NE(replies[9].find("\"benchmark\":\"fir\""), std::string::npos);
    EXPECT_NE(replies[9].find("\"ok\":true"), std::string::npos);
    EXPECT_EQ(replies[10].rfind("{\"queries\":1,", 0), 0u) << replies[10];
    EXPECT_EQ(engine.stats().failures, 0u);
}

/** The replies of a serveBatch() array, one string per element. */
std::vector<std::string>
batchReplies(const std::string &json)
{
    std::vector<std::string> replies;
    std::istringstream lines(json);
    for (std::string line; std::getline(lines, line);) {
        if (line == "[" || line == "]")
            continue;
        if (line.back() == ',')
            line.pop_back();
        replies.push_back(line.substr(2));
    }
    return replies;
}

TEST(QueryEngineTest, ServeBatchRepliesInLineOrder)
{
    // Lines that do not parse get their error reply at their own index,
    // between the answers of the lines around them.
    ScratchDir scratch("mmxdsp_engine_batch_order_test");
    service::QueryEngine engine(engineOpts(scratch));
    std::istringstream in("fir c\n"
                          "bogus line\n"
                          "\n"
                          "# comment\n"
                          "fft c l1=3000\n"
                          "fft mmx\n");
    std::ostringstream out;
    EXPECT_EQ(service::serveBatch(engine, in, out), 2u);

    const std::vector<std::string> replies = batchReplies(out.str());
    ASSERT_EQ(replies.size(), 4u) << out.str();
    EXPECT_EQ(replies[0].rfind("{\"benchmark\":\"fir\",\"version\":\"c\"", 0),
              0u)
        << replies[0];
    EXPECT_NE(replies[0].find("\"ok\":true"), std::string::npos);
    EXPECT_EQ(replies[1].rfind("{\"ok\":false,\"error\":\"", 0), 0u)
        << replies[1];
    EXPECT_NE(replies[1].find("bogus.line"), std::string::npos);
    EXPECT_EQ(replies[2].rfind("{\"ok\":false,\"error\":\"", 0), 0u)
        << replies[2];
    EXPECT_NE(replies[2].find("L1 geometry"), std::string::npos);
    EXPECT_EQ(
        replies[3].rfind("{\"benchmark\":\"fft\",\"version\":\"mmx\"", 0),
        0u)
        << replies[3];
    EXPECT_NE(replies[3].find("\"ok\":true"), std::string::npos);
}

TEST(QueryEngineTest, BatchOverEveryPairFillsOneFlatStore)
{
    // One batch over all pairs leaves one image per pair directly in
    // the store root, and the stats of a restarted engine count exactly
    // the files on disk.
    ScratchDir scratch("mmxdsp_engine_flat_store_test");
    const service::EngineOptions opts = engineOpts(scratch);
    const auto pairs = harness::BenchmarkSuite::allRuns();
    std::string lines;
    for (const auto &[bench, version] : pairs)
        lines += bench + " " + version + "\n";
    {
        service::QueryEngine engine(opts);
        std::istringstream in(lines);
        std::ostringstream out;
        EXPECT_EQ(service::serveBatch(engine, in, out), 0u) << out.str();
        EXPECT_EQ(batchReplies(out.str()).size(), pairs.size());
    }

    size_t files = 0, dirs = 0;
    uint64_t bytes = 0;
    for (const auto &de : fs::directory_iterator(opts.store.root)) {
        if (de.is_directory()) {
            ++dirs;
            continue;
        }
        ++files;
        bytes += de.file_size();
        EXPECT_EQ(de.path().extension(), ".mxt2") << de.path();
    }
    EXPECT_EQ(files, pairs.size());
    EXPECT_EQ(dirs, 0u);

    service::QueryEngine restarted(opts);
    const auto storeStats = [&] {
        const std::string json = service::statsToJson(restarted);
        return json.substr(json.find("\"store\":"));
    };
    EXPECT_EQ(storeStats().rfind("\"store\":{\"entries\":"
                                 + std::to_string(pairs.size())
                                 + ",\"bytes\":" + std::to_string(bytes)
                                 + ",\"quarantine_entries\":0,",
                                 0),
              0u)
        << storeStats();

    // A damaged entry leaves the live count for the quarantine count.
    const std::string fir = restarted.store().path("fir", "c",
                                                   opts.suite.hash());
    const uint64_t fir_bytes = fs::file_size(fir);
    fs::resize_file(fir, fir_bytes / 2);
    EXPECT_EQ(restarted.store().load("fir", "c", opts.suite.hash()), nullptr);
    EXPECT_EQ(storeStats().rfind("\"store\":{\"entries\":"
                                 + std::to_string(pairs.size() - 1)
                                 + ",\"bytes\":"
                                 + std::to_string(bytes - fir_bytes)
                                 + ",\"quarantine_entries\":1,",
                                 0),
              0u)
        << storeStats();
}

TEST(QueryEngineTest, QueryBatchRejectsInvalidGeometry)
{
    // Queries built in code skip parseQueryLine; the engine still fails
    // a geometry no cache or BTB can take instead of dying on it.
    ScratchDir scratch("mmxdsp_engine_badgeo_test");
    service::QueryEngine engine(engineOpts(scratch));
    service::Query l1{"fir", "c", sim::MachineConfig{}};
    l1.machine.timer.l1.size_bytes = 3000;
    service::Query btb{"fir", "c", sim::MachineConfig{}};
    btb.machine.timer.btb_entries = 3;
    service::Query ok{"fir", "c", sim::MachineConfig{}};
    const auto results = engine.queryBatch({l1, btb, ok});
    ASSERT_EQ(results.size(), 3u);
    EXPECT_FALSE(results[0].ok);
    EXPECT_NE(results[0].error.find("L1 geometry"), std::string::npos);
    EXPECT_FALSE(results[1].ok);
    EXPECT_NE(results[1].error.find("BTB geometry"), std::string::npos);
    EXPECT_TRUE(results[2].ok) << results[2].error;
    EXPECT_EQ(engine.stats().failures, 2u);
}

TEST(QueryEngineTest, P6AndP6PNeverAliasInTheResultCache)
{
    // p6 and p6p queries share every TimerConfig byte; only the model
    // kind differs. The result cache must keep them apart: a p6p query
    // after a p6 one replays, and repeats hit their own entries.
    ScratchDir scratch("mmxdsp_engine_p6p_alias_test");
    service::QueryEngine engine(engineOpts(scratch));

    service::Query p6{"fir", "mmx", sim::MachineConfig{}};
    p6.machine.model = sim::ModelKind::P6;
    service::Query p6p = p6;
    p6p.machine.model = sim::ModelKind::P6P;

    const auto first = engine.query(p6);
    ASSERT_TRUE(first.ok) << first.error;
    const auto second = engine.query(p6p);
    ASSERT_TRUE(second.ok) << second.error;
    // Served fresh, not from the p6 entry, and with the port model's
    // deeper mispredict penalty visible in the cycle count.
    EXPECT_FALSE(second.from_result_cache);
    EXPECT_NE(second.profile.cycles, first.profile.cycles);

    const auto p6_again = engine.query(p6);
    ASSERT_TRUE(p6_again.ok);
    EXPECT_TRUE(p6_again.from_result_cache);
    EXPECT_TRUE(p6_again.profile == first.profile);
    const auto p6p_again = engine.query(p6p);
    ASSERT_TRUE(p6p_again.ok);
    EXPECT_TRUE(p6p_again.from_result_cache);
    EXPECT_TRUE(p6p_again.profile == second.profile);
    EXPECT_EQ(engine.stats().result_hits, 2u);

    // Both models in one batch stay distinct as well.
    const auto batch = engine.queryBatch({p6, p6p});
    ASSERT_EQ(batch.size(), 2u);
    ASSERT_TRUE(batch[0].ok);
    ASSERT_TRUE(batch[1].ok);
    EXPECT_TRUE(batch[0].profile == first.profile);
    EXPECT_TRUE(batch[1].profile == second.profile);
}

TEST(QueryEngineTest, PenaltyAndModelMissesReplayTheGeometryMemos)
{
    ScratchDir scratch("mmxdsp_engine_memo_test");
    service::EngineOptions opts = engineOpts(scratch);
    service::QueryEngine engine(opts);

    // The first default-geometry query records the cache and BTB memos.
    const service::Query base{"fir", "mmx", sim::MachineConfig{}};
    std::vector<service::QueryResult> served = {engine.query(base)};
    ASSERT_TRUE(served.back().ok) << served.back().error;
    EXPECT_EQ(engine.stats().memo_hits, 0u);
    const uint64_t recorded = engine.stats().memo_bytes;
    EXPECT_GT(recorded, 0u);

    // A penalty-only and a model-only miss replay them: no new memo.
    service::Query penalty = base;
    penalty.machine.timer.mispredict_penalty = 9;
    penalty.machine.timer.penalties.l2_miss = 11;
    service::Query model = base;
    model.machine.model = sim::ModelKind::P6P;
    served.push_back(engine.query(penalty));
    served.push_back(engine.query(model));
    EXPECT_EQ(engine.stats().memo_hits, 2u);
    EXPECT_EQ(engine.stats().memo_bytes, recorded);

    // A geometry miss records a fresh cache memo, which the next query
    // on that geometry replays.
    service::Query geometry = base;
    geometry.machine.timer.l1.size_bytes = 8 * 1024;
    served.push_back(engine.query(geometry));
    EXPECT_EQ(engine.stats().memo_hits, 2u);
    EXPECT_GT(engine.stats().memo_bytes, recorded);
    service::Query geometryP6 = geometry;
    geometryP6.machine.model = sim::ModelKind::P6;
    served.push_back(engine.query(geometryP6));
    EXPECT_EQ(engine.stats().memo_hits, 3u);

    // Every answer equals an independent load + memo-less replay.
    service::TraceStore oracle(opts.store);
    auto mat = oracle.load("fir", "mmx", opts.suite.hash());
    ASSERT_NE(mat, nullptr);
    for (const service::QueryResult &r : served) {
        ASSERT_TRUE(r.ok) << r.error;
        EXPECT_FALSE(r.from_result_cache);
        expectSameProfile(r.profile, mat->replayProfile(r.query.machine),
                          sim::modelName(r.query.machine.model));
    }
}

TEST(QueryEngineTest, WideBatchesReplayTheGeometryMemos)
{
    ScratchDir scratch("mmxdsp_engine_memo_batch_test");
    service::EngineOptions opts = engineOpts(scratch);
    // Two workers: a batch that replays 5 machines of a model is wider
    // than perMachineWidth(), so every model's entries take the lanes.
    opts.threads = 2;
    service::QueryEngine engine(opts);

    // 1-machine queries record the default geometry's memos.
    std::string error;
    service::Query q;
    ASSERT_TRUE(service::QueryEngine::parseQueryLine("fir mmx", &q, &error))
        << error;
    ASSERT_TRUE(engine.query(q).ok);
    ASSERT_TRUE(service::QueryEngine::parseQueryLine("fir mmx model=p6", &q,
                                                     &error))
        << error;
    ASSERT_TRUE(engine.query(q).ok);
    const uint64_t hits = engine.stats().memo_hits;
    const uint64_t bytes = engine.stats().memo_bytes;
    EXPECT_EQ(hits, 1u);

    // A wide batch on that geometry: 6 x P5, P6 and P6P, every machine
    // distinct through its mispredict penalty. "model=p5 mp=4" names the
    // P5's own penalty, so it is the first query's machine and the
    // result cache answers it; the other 17 replay the memos.
    std::vector<service::Query> batch;
    for (const char *model : {"p5", "p6", "p6p"})
        for (int mp = 2; mp < 8; ++mp) {
            const std::string line = std::string("fir mmx model=") + model
                                     + " mp=" + std::to_string(mp);
            ASSERT_TRUE(service::QueryEngine::parseQueryLine(line, &q, &error))
                << error;
            batch.push_back(q);
        }
    const std::vector<service::QueryResult> served = engine.queryBatch(batch);
    ASSERT_EQ(served.size(), batch.size());
    EXPECT_EQ(engine.stats().memo_hits, hits + batch.size() - 1);
    EXPECT_EQ(engine.stats().memo_bytes, bytes);

    // Every answer equals an independent load + memo-less replay.
    service::TraceStore oracle(opts.store);
    auto mat = oracle.load("fir", "mmx", opts.suite.hash());
    ASSERT_NE(mat, nullptr);
    for (const service::QueryResult &r : served) {
        ASSERT_TRUE(r.ok) << r.error;
        EXPECT_EQ(r.from_result_cache, &r == &served[2]);
        expectSameProfile(r.profile, mat->replayProfile(r.query.machine),
                          sim::modelName(r.query.machine.model));
    }
}

TEST(QueryEngineTest, OverBoundMispredictPenaltyIsAnsweredBesideLanes)
{
    // A batch wide enough for the lanes, with one mp=4294967295 line
    // per model among ordinary ones: that machine cannot run on 32-bit
    // lanes and is timed per machine, and every line is answered
    // exactly as replayProfile() answers it.
    ScratchDir scratch("mmxdsp_engine_huge_mp_test");
    service::EngineOptions opts = engineOpts(scratch);
    opts.threads = 2;
    service::QueryEngine engine(opts);

    std::vector<service::Query> batch;
    std::string error;
    for (const char *model : {"p5", "p6", "p6p"})
        for (const char *mp : {"2", "3", "4294967295", "5", "6", "7", "8"}) {
            service::Query q;
            const std::string line = std::string("fir mmx model=") + model
                                     + " mp=" + mp;
            ASSERT_TRUE(service::QueryEngine::parseQueryLine(line, &q, &error))
                << error;
            batch.push_back(q);
        }
    const std::vector<service::QueryResult> served = engine.queryBatch(batch);
    ASSERT_EQ(served.size(), batch.size());

    service::TraceStore oracle(opts.store);
    auto mat = oracle.load("fir", "mmx", opts.suite.hash());
    ASSERT_NE(mat, nullptr);
    for (const service::QueryResult &r : served) {
        ASSERT_TRUE(r.ok) << r.error;
        expectSameProfile(r.profile, mat->replayProfile(r.query.machine),
                          std::string(sim::modelName(r.query.machine.model))
                              + " mp="
                              + std::to_string(sim::mispredictPenalty(
                                  r.query.machine.model,
                                  r.query.machine.timer)));
    }
}

TEST(QueryEngineTest, MemosCountAgainstTheTraceBudgetAndLeaveWithTheirTrace)
{
    ScratchDir scratch("mmxdsp_engine_memo_budget_test");
    service::EngineOptions opts = engineOpts(scratch);
    const service::Query fir{"fir", "c", sim::MachineConfig{}};
    const service::Query fft{"fft", "c", sim::MachineConfig{}};
    service::Query firPenalty = fir;
    firPenalty.machine.timer.mispredict_penalty = 7;
    service::Query firModel = fir;
    firModel.machine.model = sim::ModelKind::P6;

    // Publish both traces and measure fir.c's resident bytes and the
    // bytes of its default-geometry memos.
    uint64_t memoBytes = 0;
    {
        service::QueryEngine capture(opts);
        ASSERT_TRUE(capture.query(fir).ok);
        memoBytes = capture.stats().memo_bytes;
        ASSERT_TRUE(capture.query(fft).ok);
    }
    ASSERT_GT(memoBytes, 0u);
    service::TraceStore store(opts.store);
    auto firTrace = store.load("fir", "c", opts.suite.hash());
    ASSERT_NE(firTrace, nullptr);

    // A one-trace budget: fir.c plus its memos fit exactly.
    service::EngineOptions one = opts;
    one.allow_capture = false;
    one.trace_cache_bytes = firTrace->byteSize() + memoBytes;
    {
        service::QueryEngine engine(one);
        ASSERT_TRUE(engine.query(fir).ok);
        ASSERT_TRUE(engine.query(firPenalty).ok);
        EXPECT_EQ(engine.stats().memo_hits, 1u);
        EXPECT_EQ(engine.stats().memo_bytes, memoBytes);

        // fft.c evicts fir.c, and fir.c's memos leave with it: the
        // next fir.c miss reloads the trace and records them again.
        ASSERT_TRUE(engine.query(fft).ok);
        ASSERT_TRUE(engine.query(firModel).ok);
        EXPECT_EQ(engine.stats().store_loads, 3u);
        EXPECT_EQ(engine.stats().memo_hits, 1u);
        EXPECT_EQ(engine.stats().memo_bytes, memoBytes);
    }

    // One byte less: the memos do not fit beside their trace, so the
    // engine keeps the trace and drops the memos.
    one.trace_cache_bytes -= 1;
    {
        service::QueryEngine engine(one);
        ASSERT_TRUE(engine.query(fir).ok);
        EXPECT_EQ(engine.stats().memo_bytes, 0u);
        const service::QueryResult r = engine.query(firPenalty);
        ASSERT_TRUE(r.ok);
        EXPECT_EQ(engine.stats().memo_hits, 0u);
        EXPECT_EQ(engine.stats().store_loads, 1u);
        expectSameProfile(r.profile,
                          firTrace->replayProfile(r.query.machine),
                          "over-budget memos");
    }
}

TEST(QueryEngineTest, CrossTraceBatchMatchesOneQueryPerLine)
{
    // The scheduler only moves where a replay runs: a batch over every
    // pair on two models, loaded and replayed across the worker pool,
    // answers exactly what one query per line does, at any thread
    // count, and so does a suite's runAll() + run() on the same store.
    ScratchDir scratch("mmxdsp_engine_cross_batch_test");
    const service::EngineOptions opts = engineOpts(scratch);
    const auto pairs = harness::BenchmarkSuite::allRuns();
    const sim::ModelKind models[] = {sim::ModelKind::P5, sim::ModelKind::P6};
    std::vector<service::Query> queries;
    for (const auto &[bench, version] : pairs)
        for (sim::ModelKind model : models)
            queries.push_back({bench, version, {model, {}}});

    std::vector<profile::ProfileResult> expect;
    {
        service::QueryEngine single(opts); // captures and publishes
        for (const service::Query &q : queries) {
            const service::QueryResult r = single.query(q);
            ASSERT_TRUE(r.ok) << r.error;
            expect.push_back(r.profile);
        }
        EXPECT_EQ(single.stats().captures, pairs.size());
    }
    const auto name = [&](size_t i) {
        return queries[i].benchmark + "." + queries[i].version + " on "
               + sim::modelName(queries[i].machine.model);
    };
    for (const int threads : {1, 4}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        service::QueryEngine engine(opts);
        const auto results = engine.queryBatch(queries, threads);
        ASSERT_EQ(results.size(), queries.size());
        for (size_t i = 0; i < results.size(); ++i) {
            ASSERT_TRUE(results[i].ok) << results[i].error;
            EXPECT_FALSE(results[i].from_result_cache);
            expectSameProfile(results[i].profile, expect[i], name(i));
        }
        EXPECT_EQ(engine.stats().captures, 0u);
        EXPECT_EQ(engine.stats().store_loads, pairs.size());
    }
    for (size_t m = 0; m < std::size(models); ++m) {
        harness::BenchmarkSuite suite(
            opts.suite, harness::TraceOptions{true, opts.store.root},
            {models[m], {}});
        suite.runAll(4);
        EXPECT_EQ(suite.traceActivity().captured, 0);
        EXPECT_EQ(suite.traceActivity().disk_hits,
                  static_cast<int>(pairs.size()));
        for (size_t k = 0; k < pairs.size(); ++k)
            expectSameProfile(
                suite.run(pairs[k].first, pairs[k].second).profile,
                expect[k * std::size(models) + m],
                name(k * std::size(models) + m) + " via runAll()");
    }
}

TEST(QueryEngineTest, CaptureTheStoreCannotTakeIsPinned)
{
    // A store rooted at a regular file takes nothing. A budget below
    // one trace would evict every trace, yet a capture the store did
    // not take is never evicted: a recapture could shift the address
    // stream. So A, B, then A on another machine captures A once, and
    // both answers for A replay that one capture.
    ScratchDir scratch("mmxdsp_engine_pinned_test");
    service::EngineOptions opts = engineOpts(scratch);
    const fs::path root = scratch.path / "not-a-directory";
    std::ofstream(root) << "x";
    opts.store.root = root.string();
    opts.trace_cache_bytes = 1;
    service::QueryEngine engine(opts);

    const service::Query a{"fir", "c", sim::MachineConfig{}};
    const service::Query b{"iir", "c", sim::MachineConfig{}};
    service::Query aP6 = a;
    aP6.machine.model = sim::ModelKind::P6;
    const service::QueryResult first = engine.query(a);
    ASSERT_TRUE(first.ok) << first.error;
    ASSERT_TRUE(engine.query(b).ok);
    const service::QueryResult again = engine.query(aP6);
    ASSERT_TRUE(again.ok) << again.error;
    EXPECT_FALSE(again.trace_captured);
    EXPECT_EQ(engine.stats().captures, 2u);
    EXPECT_EQ(engine.stats().trace_mem_hits, 1u);
    EXPECT_EQ(engine.store().stats().stores, 0u);

    const auto pinned = engine.trace("fir", "c");
    ASSERT_NE(pinned, nullptr);
    EXPECT_EQ(engine.stats().captures, 2u);
    expectSameProfile(first.profile, pinned->replayProfile(a.machine),
                      "fir.c first answer");
    expectSameProfile(again.profile, pinned->replayProfile(aP6.machine),
                      "fir.c second answer");
}

} // namespace
} // namespace mmxdsp
