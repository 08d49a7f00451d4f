/**
 * @file
 * vprofd_mix — the vprofd serve path at scale 8, in one process, as one
 * closed-loop client (vprofd --serve is one session that waits for
 * each reply, and QueryEngine serializes queries under one mutex).
 *
 * Set-up publishes the store: an engine that may capture answers the
 * hot set (23 pairs x 4 machines), then a restarted engine that may not
 * answers it again from the store. Each timed round restarts the
 * engine, answers the hot set from the store (cold) and from the result
 * cache (warm), then sends a block of seeded query lines through
 * parseQueryLine + query. The result cache and single-lane replays do
 * the work; emulation and disk writes do none.
 */

#include <unistd.h>

#include <cstdio>

#include "common.hh"
#include "service/trace_store.hh"

namespace pipebench {

using namespace mmxdsp;

namespace {

constexpr int kScale = 8;
constexpr int kSetups = 7;
/** Hot-set passes per round answered from the result cache. */
constexpr int kWarmPasses = 8;
/**
 * Block lines per timed chunk: one class deck of QueryMix, so a chunk
 * holds 23 misses, one of each pair, and every chunk costs about the
 * same.
 */
constexpr size_t kChunk = 230;
constexpr size_t kBlock = 10 * kChunk;
constexpr int kLayerQueries = 8000;
/** Served miss profiles kept for the after-loop identity check. */
constexpr size_t kCheckSamples = 24;

/**
 * Per-segment times (see Timings): a round's cold pass is timed one
 * pair at a time, each warm pass on its own, and its block in chunks of
 * kChunk lines.
 */
struct Samples
{
    explicit Samples(size_t pairs) : cold(pairs) {}

    Timings cold;  ///< per pair: its hot lines on a new engine
    Timings warm;  ///< per warm hot-set pass
    Timings chunk; ///< per block chunk
    uint64_t events = 0; ///< replayed by all block chunks
    std::vector<double> all, miss; ///< every block query's latency

    double qps() const { return static_cast<double>(kChunk) / chunk.quiet(); }
    double lanes() const
    {
        return static_cast<double>(events)
               / static_cast<double>(chunk.size()) / chunk.quiet();
    }
};

struct Context
{
    explicit Context(uint64_t seed) : mix(seed) {}

    service::EngineOptions capture; ///< set-up: may capture and publish
    service::EngineOptions serve;   ///< restarted daemon: store only
    std::vector<std::string> hot;
    QueryMix mix;
    uint64_t request = 0;
    std::vector<Served> kept; ///< sampled miss answers to re-check
};

/**
 * Answer the hot set one pair at a time: pair p's lines are timed as
 * segment @p first + p of @p out.
 */
void
answerPairs(Run &run, Context &c, service::QueryEngine &engine,
            Timings &out, size_t first = 0)
{
    const size_t pairs = harness::BenchmarkSuite::allRuns().size();
    const size_t per_pair = c.hot.size() / pairs;
    for (size_t p = 0; p < pairs; ++p)
        timeSegment(out, [&] {
            for (size_t i = p * per_pair; i < (p + 1) * per_pair; ++i)
                serveLine(run, engine, c.hot[i], QueryMix::Hot, ++c.request);
        }, first + p);
}

/**
 * Publish the store: an engine that may capture answers the hot set,
 * then a restarted one that may not answers it again. Each pair's hot
 * lines are one segment of @p setup on each engine.
 */
void
setupStore(Run &run, Context &c, Timings &setup)
{
    const size_t pairs = harness::BenchmarkSuite::allRuns().size();
    fs::remove_all(c.capture.store.root);
    {
        service::QueryEngine engine(c.capture);
        answerPairs(run, c, engine, setup);
        run.check(engine.stats().captures == pairs,
                  "set-up captures every pair once");
    }
    service::QueryEngine restarted(c.serve);
    answerPairs(run, c, restarted, setup, pairs);
    run.check(restarted.stats().captures == 0,
              "restarted engine serves from the store");
}

void
serveRound(Run &run, Context &c, Samples &s)
{
    service::QueryEngine engine(c.serve);
    answerPairs(run, c, engine, s.cold);
    for (int pass = 0; pass < kWarmPasses; ++pass) {
        bool all_hits = true;
        timeSegment(s.warm, [&] {
            for (const std::string &line : c.hot)
                all_hits &= serveLine(run, engine, line, QueryMix::Hot,
                                      ++c.request)
                                .hit;
        });
        run.check(all_hits, "hot set served from the result cache");
    }

    for (size_t chunk = 0; chunk < kBlock / kChunk; ++chunk)
        timeSegment(s.chunk, [&] {
            for (size_t i = 0; i < kChunk; ++i) {
                const QueryMix::Line line = c.mix.next();
                Served served = serveLine(run, engine, line.text, line.cls,
                                          ++c.request);
                s.all.push_back(served.seconds);
                if (served.hit)
                    continue;
                s.miss.push_back(served.seconds);
                s.events += served.profile.dynamicInstructions;
                if (c.kept.size() < kCheckSamples && c.request % 61 == 0)
                    c.kept.push_back(std::move(served));
            }
        });
}

/**
 * After the loop: sampled served miss profiles must equal replayProfile
 * of an independent TraceStore::load of the same entry.
 */
void
checkServed(Run &run, const Context &c)
{
    service::TraceStore store(c.serve.store);
    const uint64_t hash = c.serve.suite.hash();
    for (const Served &s : c.kept) {
        const service::Query &q = s.query;
        auto mat = store.load(q.benchmark, q.version, hash);
        run.check(mat && sameProfile(s.profile, mat->replayProfile(q.machine)),
                  "served " + q.benchmark + "." + q.version
                      + " equals an independent store replay");
    }
    run.check(!c.kept.empty(), "the block served sampled misses");
}

} // namespace

void
runVprofdMix(Run &run)
{
    run.suite_scale = run.scale(kScale);
    std::printf("# config %s\n", run.configJson().c_str());

    Context c(run.seed);
    c.hot = QueryMix::hotLines();
    c.capture.store.root = (run.work / "store").string();
    c.capture.suite = suiteConfig(run.suite_scale, run.seed);
    c.capture.threads = kThreads;
    c.serve = c.capture;
    c.serve.allow_capture = false;

    const size_t pairs = harness::BenchmarkSuite::allRuns().size();
    Timings setup(2 * pairs);
    for (int i = 0; i < kSetups; ++i)
        setupStore(run, c, setup);
    const double corpus_mb =
        static_cast<double>(service::TraceStore(c.serve.store).totalBytes())
        / 1e6;
    // Write the store back now, so the disk traffic of set-up does not
    // land inside the timed rounds.
    sync();

    resetPeakRss();
    const double budget = run.traced ? run.seconds / 2 : run.seconds;
    Samples base(pairs);
    repeatFor(budget, [&] { serveRound(run, c, base); });
    checkServed(run, c);
    std::printf("# %zu block chunks: %.0f queries/s on a quiet core (%.0f "
                "as measured), miss p50 %.3f ms (%zu), all p99 %.3f ms, hit "
                "rate %.3f, store %.1f MB\n",
                base.chunk.size(), base.qps(),
                static_cast<double>(kChunk) / base.chunk.measured(),
                median(base.miss) * 1e3, base.miss.size(),
                percentile(base.all, 0.99) * 1e3,
                1.0 - static_cast<double>(base.miss.size())
                          / static_cast<double>(base.all.size()),
                corpus_mb);
    std::printf("# quiet core vs as measured: setup %.3f / %.3f s, cold "
                "%.3f / %.3f s, warm %.3f / %.3f ms\n",
                setup.quiet(), setup.measured(), base.cold.quiet(),
                base.cold.measured(), base.warm.quiet() * 1e3,
                base.warm.measured() * 1e3);

    if (!run.traced) {
        run.metric("setup_s", setup.quiet(), "s");
        run.metric("cold_s", base.cold.quiet(), "s");
        run.metric("warm_s", base.warm.quiet(), "s");
        run.metric("qps", base.qps(), "1/s");
        run.metric("lane_events_per_s", base.lanes(), "1/s");
        run.metric("corpus_mb", corpus_mb, "MB");
        run.metric("peak_rss_mb", peakRssMb(), "MB");
        return;
    }

    Samples traced(pairs);
    run.tracer.setEnabled(true);
    repeatFor(budget, [&] { serveRound(run, c, traced); });
    runLayerPass(run, {run.suite_scale, kLayerQueries},
                 overheadPct(base.chunk.quiet(), traced.chunk.quiet()));
}

} // namespace pipebench
