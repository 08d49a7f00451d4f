/**
 * @file
 * Load generator and regression gate for vprofd's query engine.
 *
 * Three phases against one on-disk store:
 *
 *  1. populate — a fresh engine captures every (benchmark, version)
 *     pair of the suite live and publishes the traces as format v2
 *     (the corpus build; happens once per store lifetime), timing
 *     each capture individually for the cold-capture latency column;
 *  2. cold restart — a *new* engine on the same store must serve a
 *     batch across all pairs purely from mmap'd v2 entries: zero
 *     captures, and at most one store load per distinct trace (the
 *     compute-once/serve-many contract);
 *  3. steady state — a deterministic query mix (default 95% from a
 *     hot set of pair x machine combinations, 5% unique cold
 *     machines) measured per query: p50/p99 latency, queries/s, and
 *     the result-cache hit rate. Each latency sample is classified by
 *     how the query was served — hot-hit (result cache, no replay) or
 *     cold-replay (trace replayed for a new machine) — and reported
 *     as separate p50/p99 columns beside the cold-capture column from
 *     the populate phase.
 *
 * Also measures batch amortization (the same miss set answered by one
 * queryBatch() against per-query loops) and always verifies a served
 * profile bit-identical against a live BenchmarkSuite run of the same
 * pair. Gates: identity and zero-capture always; in optimized builds
 * the steady-state hit rate must be >= 0.90. Results land in
 * BENCH_vprofd.json.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "harness/cli.hh"
#include "harness/suite.hh"
#include "service/query_engine.hh"
#include "support/rng.hh"
#include "support/table.hh"

using namespace mmxdsp;

namespace {

constexpr double kHitRateGate = 0.90; ///< steady-state, Release only

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** The hot machine set: the two paper models plus two common variants
 *  (a small L1 and a small BTB), all distinct under machineHash(). */
std::vector<sim::MachineConfig>
hotMachines()
{
    std::vector<sim::MachineConfig> machines;
    machines.push_back({sim::ModelKind::P5, sim::TimerConfig{}});
    machines.push_back({sim::ModelKind::P6, sim::TimerConfig{}});
    sim::MachineConfig small_l1{sim::ModelKind::P5, sim::TimerConfig{}};
    small_l1.timer.l1.size_bytes = 8 * 1024;
    machines.push_back(small_l1);
    sim::MachineConfig small_btb{sim::ModelKind::P6, sim::TimerConfig{}};
    small_btb.timer.btb_entries = 128;
    machines.push_back(small_btb);
    return machines;
}

/** A cold machine nobody else asks about: a unique L2-miss penalty per
 *  id (machineHash() sees every field, so any distinct value is a
 *  distinct result-cache key, and penalties carry no power-of-two
 *  constraint the way cache/BTB geometries do). */
sim::MachineConfig
coldMachine(uint32_t id)
{
    sim::MachineConfig machine{sim::ModelKind::P5, sim::TimerConfig{}};
    machine.timer.penalties.l2_miss = 8 + id;
    return machine;
}

bool
sameResult(const profile::ProfileResult &a, const profile::ProfileResult &b)
{
    return a.cycles == b.cycles
           && a.dynamicInstructions == b.dynamicInstructions
           && a.staticInstructions == b.staticInstructions
           && a.uops == b.uops && a.memoryReferences == b.memoryReferences
           && a.mmxInstructions == b.mmxInstructions
           && a.mmxByCategory == b.mmxByCategory
           && a.functionCalls == b.functionCalls
           && a.callRetCycles == b.callRetCycles
           && a.callOverheadCycles == b.callOverheadCycles
           && a.opCounts == b.opCounts
           && a.l1.misses == b.l1.misses && a.l2.misses == b.l2.misses
           && a.btb.mispredicts == b.btb.mispredicts;
}

} // namespace

int
main(int argc, char **argv)
{
    // Own flags first; parseBenchArgs exits on anything unknown.
    size_t n_queries = 4000;
    double hot_fraction = 0.95;
    std::string store_root = "vprofd_store_bench";
    std::vector<char *> args;
    for (int i = 0; i < argc; ++i) {
        if (std::strncmp(argv[i], "--queries=", 10) == 0) {
            n_queries = static_cast<size_t>(std::atol(argv[i] + 10));
        } else if (std::strncmp(argv[i], "--hot=", 6) == 0) {
            hot_fraction = std::atof(argv[i] + 6);
        } else if (std::strncmp(argv[i], "--store=", 8) == 0) {
            store_root = argv[i] + 8;
        } else {
            args.push_back(argv[i]);
        }
    }
    harness::BenchOptions opts = harness::parseBenchArgs(
        static_cast<int>(args.size()), args.data());

    // A fresh store each run: this binary measures the service, not
    // leftovers from the previous invocation.
    std::error_code ec;
    std::filesystem::remove_all(store_root, ec);

    service::EngineOptions eopts;
    eopts.store.root = store_root;
    eopts.suite = opts.suiteConfig();
    eopts.threads = opts.threads;

    const auto pairs = harness::BenchmarkSuite::allRuns();
    const auto machines = hotMachines();

    // Hot set: every pair x every hot machine.
    std::vector<service::Query> hot;
    for (const auto &[bench, version] : pairs)
        for (const sim::MachineConfig &machine : machines)
            hot.push_back({bench, version, machine});

    // -- phase 1: populate the corpus (live capture + v2 publish) --
    // One query per pair, timed individually: every one is a distinct
    // trace absent from the fresh store, so each sample is exactly one
    // cold capture (execute + materialize + publish).
    std::fprintf(stderr, "populating %zu traces (scale %d)...\n",
                 pairs.size(), opts.scale);
    double populate_seconds = 0.0;
    std::vector<double> capture_lat;
    capture_lat.reserve(pairs.size());
    {
        service::QueryEngine engine(eopts);
        for (const auto &[bench, version] : pairs) {
            const double t0 = now();
            auto r = engine.query({bench, version, machines[0]});
            const double dt = now() - t0;
            if (!r.ok) {
                std::fprintf(stderr, "FAIL: populate: %s\n",
                             r.error.c_str());
                return 1;
            }
            if (!r.trace_captured) {
                std::fprintf(stderr,
                             "FAIL: populate served %s/%s without a "
                             "capture on a fresh store\n",
                             bench.c_str(), version.c_str());
                return 1;
            }
            capture_lat.push_back(dt);
            populate_seconds += dt;
        }
        if (engine.stats().captures != pairs.size()) {
            std::fprintf(stderr,
                         "FAIL: expected %zu captures, got %llu\n",
                         pairs.size(),
                         static_cast<unsigned long long>(
                             engine.stats().captures));
            return 1;
        }
    }

    // -- phase 2: cold restart must serve from mmap'd v2 only --
    service::EngineOptions ropts = eopts;
    ropts.allow_capture = false;
    service::QueryEngine engine(ropts);
    double warm_batch_seconds = 0.0;
    {
        const double t0 = now();
        auto results = engine.queryBatch(hot);
        warm_batch_seconds = now() - t0;
        for (const auto &r : results)
            if (!r.ok) {
                std::fprintf(stderr, "FAIL: warm batch: %s\n",
                             r.error.c_str());
                return 1;
            }
    }
    const service::EngineStats warm = engine.stats();
    const service::StoreStats store_warm = engine.store().stats();
    if (warm.captures != 0) {
        std::fprintf(stderr, "FAIL: warm store still captured live\n");
        return 1;
    }
    if (store_warm.v2_hits > pairs.size() || store_warm.v1_hits != 0) {
        std::fprintf(stderr,
                     "FAIL: %llu store loads for %zu distinct traces "
                     "(re-decode instead of serve-from-memory)\n",
                     static_cast<unsigned long long>(store_warm.v2_hits),
                     pairs.size());
        return 1;
    }

    // -- identity: a served profile must be bit-identical to an
    //    independent mmap load of the same entry replayed through the
    //    scalar reference kernel (the engine serves through the packed
    //    sweep kernel, so this crosses both the load and replay paths;
    //    note two *live executions* are not comparable here — recorded
    //    heap addresses differ run to run, and cache behavior follows).
    {
        service::TraceStore check(ropts.store);
        auto mat = check.load(pairs.front().first, pairs.front().second,
                              eopts.suite.hash());
        if (!mat) {
            std::fprintf(stderr, "FAIL: identity trace missing\n");
            return 1;
        }
        const profile::ProfileResult expect =
            mat->replayProfile(machines[0]);
        auto served = engine.query(
            {pairs.front().first, pairs.front().second, machines[0]});
        if (!served.ok || !sameResult(served.profile, expect)) {
            std::fprintf(stderr,
                         "FAIL: served profile diverges from scalar "
                         "replay of the stored trace\n");
            return 1;
        }
    }

    // -- phase 3: steady-state latency distribution --
    const service::EngineStats pre_steady = engine.stats();
    Rng rng(0x5eed5eedull);
    std::vector<double> latencies;
    latencies.reserve(n_queries);
    std::vector<double> hot_lat;    ///< served from the result cache
    std::vector<double> replay_lat; ///< replayed a resident/mmap'd trace
    hot_lat.reserve(n_queries);
    replay_lat.reserve(n_queries);
    size_t cold_id = 0;
    const double t_steady = now();
    for (size_t i = 0; i < n_queries; ++i) {
        service::Query q;
        if (rng.nextDouble() < hot_fraction) {
            q = hot[rng.nextBelow(static_cast<uint32_t>(hot.size()))];
        } else {
            const auto &[bench, version] =
                pairs[rng.nextBelow(static_cast<uint32_t>(pairs.size()))];
            q = {bench, version,
                 coldMachine(static_cast<uint32_t>(cold_id++))};
        }
        const double t0 = now();
        auto r = engine.query(q);
        const double dt = now() - t0;
        latencies.push_back(dt);
        (r.from_result_cache ? hot_lat : replay_lat).push_back(dt);
        if (!r.ok) {
            std::fprintf(stderr, "FAIL: steady-state query failed: %s\n",
                         r.error.c_str());
            return 1;
        }
    }
    const double steady_seconds = now() - t_steady;
    const service::EngineStats stats = engine.stats();

    const auto pctOf = [](std::vector<double> &v, double p) {
        if (v.empty())
            return 0.0;
        const size_t idx = std::min(
            v.size() - 1,
            static_cast<size_t>(p * static_cast<double>(v.size())));
        return v[idx];
    };
    std::sort(latencies.begin(), latencies.end());
    std::sort(hot_lat.begin(), hot_lat.end());
    std::sort(replay_lat.begin(), replay_lat.end());
    std::sort(capture_lat.begin(), capture_lat.end());
    const double p50 = pctOf(latencies, 0.50), p99 = pctOf(latencies, 0.99);
    const double hot_p50 = pctOf(hot_lat, 0.50);
    const double hot_p99 = pctOf(hot_lat, 0.99);
    const double replay_p50 = pctOf(replay_lat, 0.50);
    const double replay_p99 = pctOf(replay_lat, 0.99);
    const double capture_p50 = pctOf(capture_lat, 0.50);
    const double capture_p99 = pctOf(capture_lat, 0.99);
    const double qps = static_cast<double>(n_queries) / steady_seconds;
    const uint64_t steady_queries = stats.queries - pre_steady.queries;
    const uint64_t steady_hits =
        stats.result_hits - pre_steady.result_hits;
    const double hit_rate = steady_queries
                                ? static_cast<double>(steady_hits)
                                      / static_cast<double>(steady_queries)
                                : 0.0;

    // -- batch amortization: the warm miss set, batch vs singles --
    double single_seconds = 0.0;
    {
        service::QueryEngine fresh(ropts);
        const double t0 = now();
        for (const service::Query &q : hot)
            if (!fresh.query(q).ok)
                return 1;
        single_seconds = now() - t0;
    }
    const double batch_speedup = single_seconds / warm_batch_seconds;

    std::printf("vprofd service load — %zu pairs, %zu hot queries, "
                "%zu total, scale %d\n\n",
                pairs.size(), hot.size(), n_queries, opts.scale);
    Table table({"metric", "value"});
    const std::string populate_label =
        "populate (" + std::to_string(pairs.size()) + " captures)";
    table.addRow({populate_label,
                  Table::fmtCount(
                      static_cast<int64_t>(populate_seconds * 1e3))});
    table.addRow({"warm batch ms",
                  Table::fmtCount(
                      static_cast<int64_t>(warm_batch_seconds * 1e3))});
    table.addRow(
        {"p50 latency us",
         Table::fmtCount(static_cast<int64_t>(p50 * 1e6))});
    table.addRow(
        {"p99 latency us",
         Table::fmtCount(static_cast<int64_t>(p99 * 1e6))});
    table.addRow(
        {"hot-hit p50/p99 us",
         Table::fmtCount(static_cast<int64_t>(hot_p50 * 1e6)) + " / "
             + Table::fmtCount(static_cast<int64_t>(hot_p99 * 1e6))});
    table.addRow(
        {"cold-replay p50/p99 us",
         Table::fmtCount(static_cast<int64_t>(replay_p50 * 1e6)) + " / "
             + Table::fmtCount(static_cast<int64_t>(replay_p99 * 1e6))});
    table.addRow(
        {"cold-capture p50/p99 ms",
         Table::fmtCount(static_cast<int64_t>(capture_p50 * 1e3)) + " / "
             + Table::fmtCount(static_cast<int64_t>(capture_p99 * 1e3))});
    table.addRow({"queries/s",
                  Table::fmtCount(static_cast<int64_t>(qps))});
    char rate[32];
    std::snprintf(rate, sizeof(rate), "%.1f%%", hit_rate * 100.0);
    table.addRow({"result-cache hit rate", rate});
    char amort[32];
    std::snprintf(amort, sizeof(amort), "%.2fx", batch_speedup);
    table.addRow({"batch vs single", amort});
    table.print();

    std::printf("\nstore: %llu entries, %.1f MB, %llu mmap loads, "
                "0 captures after restart\n",
                static_cast<unsigned long long>(
                    engine.store().entryCount()),
                static_cast<double>(engine.store().totalBytes()) / 1e6,
                static_cast<unsigned long long>(
                    engine.store().stats().v2_hits));

    std::FILE *json = std::fopen("BENCH_vprofd.json", "w");
    if (json) {
        std::fprintf(
            json,
            "{\n"
            "  \"pairs\": %zu,\n"
            "  \"scale\": %d,\n"
            "  \"hot_set\": %zu,\n"
            "  \"queries\": %zu,\n"
            "  \"hot_fraction\": %.3f,\n"
            "  \"populate_seconds\": %.6f,\n"
            "  \"warm_batch_seconds\": %.6f,\n"
            "  \"p50_seconds\": %.9f,\n"
            "  \"p99_seconds\": %.9f,\n"
            "  \"cold_capture_p50_seconds\": %.6f,\n"
            "  \"cold_capture_p99_seconds\": %.6f,\n"
            "  \"cold_capture_count\": %zu,\n"
            "  \"cold_replay_p50_seconds\": %.9f,\n"
            "  \"cold_replay_p99_seconds\": %.9f,\n"
            "  \"cold_replay_count\": %zu,\n"
            "  \"hot_hit_p50_seconds\": %.9f,\n"
            "  \"hot_hit_p99_seconds\": %.9f,\n"
            "  \"hot_hit_count\": %zu,\n"
            "  \"queries_per_sec\": %.1f,\n"
            "  \"hit_rate\": %.4f,\n"
            "  \"batch_speedup\": %.3f,\n"
            "  \"store_entries\": %llu,\n"
            "  \"store_bytes\": %llu,\n"
            "  \"store_mmap_loads\": %llu,\n"
            "  \"captures_after_restart\": %llu\n"
            "}\n",
            pairs.size(), opts.scale, hot.size(), n_queries, hot_fraction,
            populate_seconds, warm_batch_seconds, p50, p99,
            capture_p50, capture_p99, capture_lat.size(),
            replay_p50, replay_p99, replay_lat.size(),
            hot_p50, hot_p99, hot_lat.size(),
            qps, hit_rate, batch_speedup,
            static_cast<unsigned long long>(engine.store().entryCount()),
            static_cast<unsigned long long>(engine.store().totalBytes()),
            static_cast<unsigned long long>(
                engine.store().stats().v2_hits),
            static_cast<unsigned long long>(stats.captures));
        std::fclose(json);
        std::fprintf(stderr, "wrote BENCH_vprofd.json\n");
    }

#ifdef NDEBUG
    if (hit_rate < kHitRateGate) {
        std::fprintf(stderr,
                     "FAIL: steady-state hit rate %.1f%% below gate "
                     "%.0f%%\n",
                     hit_rate * 100.0, kHitRateGate * 100.0);
        return 1;
    }
#endif
    return 0;
}
