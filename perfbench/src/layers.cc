/**
 * @file
 * The traced run's layer pass. Every pair of the workload's corpus goes
 * through the v3 pipeline one public call at a time, each inside its own
 * span: capture (BenchmarkSuite::materializedFor on a cache-less suite:
 * Cpu + mmx + MaterializeSink), seal (serializeV2), TraceStore publish
 * and load, a direct loadV2File, one replayProfile per model, and the
 * 1-, 12- and 36-machine sweeps beside their scalar references. A
 * seeded query block then runs against the published store. Layer
 * metrics are span self times over counted work (instrCount,
 * EngineStats and StoreStats deltas).
 */

#include <cstdio>
#include <memory>

#include "common.hh"
#include "service/query_engine.hh"
#include "service/trace_store.hh"

namespace pipebench {

using namespace mmxdsp;
using harness::BenchmarkSuite;

namespace {

/** Sum of span self times for @p name, in seconds (0 when absent). */
double
selfSeconds(const std::map<std::string, Tracer::Totals> &totals,
            const std::string &name)
{
    auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.self_s;
}

bool
sameSweep(const std::vector<profile::ProfileResult> &a,
          const std::vector<profile::ProfileResult> &b, size_t n)
{
    if (a.size() < n || b.size() < n)
        return false;
    for (size_t i = 0; i < n; ++i)
        if (!sameProfile(a[i], b[i]))
            return false;
    return true;
}

struct PipelineCounts
{
    uint64_t events = 0;
    uint64_t sweep_events = 0; ///< events of the pairs swept 12/36 ways
    uint64_t resident_bytes = 0;
    std::vector<double> suite_setup;
};

/** One pair through capture -> seal -> publish -> load -> replay/sweep. */
void
pipelinePair(Run &run, const harness::SuiteConfig &config,
             service::TraceStore &store,
             const std::pair<std::string, std::string> &pair,
             uint64_t request, bool sweeps, PipelineCounts &counts)
{
    Tracer &tr = run.tracer;
    const auto &[bench, version] = pair;
    const std::string name = pairName(pair);
    const uint64_t hash = config.hash();
    SpanScope pair_span(tr, "pair." + name, request);

    {
        std::unique_ptr<BenchmarkSuite> suite;
        {
            const double t0 = now();
            SpanScope span(tr, "harness.suite_setup");
            suite = std::make_unique<BenchmarkSuite>(
                config, harness::TraceOptions{false, ""});
            counts.suite_setup.push_back(now() - t0);
        }
        std::shared_ptr<const trace::MaterializedTrace> mat;
        {
            SpanScope span(tr, "runtime.capture");
            mat = suite->materializedFor(bench, version);
        }
        run.check(mat && mat->valid(), "capture " + name);
        if (!mat || !mat->valid())
            return;
        counts.events += mat->instrCount();
        counts.resident_bytes += mat->byteSize();
        {
            std::vector<uint8_t> image;
            {
                SpanScope span(tr, "trace.seal");
                image = mat->serializeV2();
            }
            run.check(!image.empty(), "seal " + name);
        }
        SpanScope span(tr, "service.publish");
        run.check(store.store(bench, version, hash, *mat), "publish " + name);
    }

    std::shared_ptr<const trace::MaterializedTrace> loaded;
    {
        SpanScope span(tr, "service.load");
        loaded = store.load(bench, version, hash);
    }
    run.check(loaded && loaded->valid(), "store load " + name);
    if (!loaded || !loaded->valid())
        return;
    {
        trace::MaterializedTrace direct;
        bool ok = false;
        {
            SpanScope span(tr, "trace.load");
            ok = direct.loadV2File(store.path(bench, version, hash));
        }
        run.check(ok && direct.instrCount() == loaded->instrCount(),
                  "loadV2File " + name);
    }

    std::vector<profile::ProfileResult> by_model;
    for (sim::ModelKind model :
         {sim::ModelKind::P5, sim::ModelKind::P6, sim::ModelKind::P6P}) {
        SpanScope span(tr, std::string("sim.") + sim::modelName(model));
        by_model.push_back(
            loaded->replayProfile(sim::MachineConfig{model, {}}));
    }

    const std::vector<sim::MachineConfig> one{sim::MachineConfig{}};
    std::vector<profile::ProfileResult> sweep1, scalar1, sweep12, sweep36,
        scalar36;
    {
        SpanScope span(tr, "trace.sweep1");
        sweep1 = loaded->replaySweep(one, kThreads);
    }
    {
        SpanScope span(tr, "trace.scalar1");
        scalar1 = loaded->replaySweepScalar(one, kThreads);
    }
    run.check(sameSweep(sweep1, {by_model[0]}, 1)
                  && sameSweep(scalar1, {by_model[0]}, 1),
              "1-machine sweeps of " + name + " equal replayProfile");

    if (!sweeps)
        return;
    counts.sweep_events += loaded->instrCount();
    const std::vector<sim::MachineConfig> machines = sweepMachines();
    {
        SpanScope span(tr, "trace.sweep12");
        sweep12 = loaded->replaySweep(p5Geometries(), kThreads);
    }
    {
        SpanScope span(tr, "trace.sweep36");
        sweep36 = loaded->replaySweep(machines, kThreads);
    }
    {
        SpanScope span(tr, "trace.scalar36");
        scalar36 = loaded->replaySweepScalar(machines, kThreads);
    }
    run.check(sameSweep(sweep36, scalar36, machines.size())
                  && sameSweep(sweep12, sweep36, 12),
              "packed sweeps of " + name + " equal the scalar reference");
}

} // namespace

void
runLayerPass(Run &run, const LayerPlan &plan, double overhead_pct)
{
    Tracer &tr = run.tracer;
    tr.setEnabled(true);
    const size_t first_span = tr.spans().size();
    const harness::SuiteConfig config = suiteConfig(plan.scale, run.seed);

    service::StoreOptions store_opts;
    store_opts.root = (run.work / "layer_store").string();
    fs::remove_all(store_opts.root);
    service::TraceStore store(store_opts);

    PipelineCounts counts;
    const auto pairs = BenchmarkSuite::allRuns();
    for (size_t i = 0; i < pairs.size(); ++i)
        pipelinePair(run, config, store, pairs[i], i + 1,
                     i % static_cast<size_t>(plan.sweep_stride) == 0, counts);
    const uint64_t store_bytes = store.totalBytes();

    // The service layer over the store just published: a restarted
    // daemon answers the hot set, then the seeded query block.
    service::EngineOptions engine_opts;
    engine_opts.store = store_opts;
    engine_opts.suite = config;
    engine_opts.threads = kThreads;
    engine_opts.allow_capture = false;
    service::QueryEngine engine(engine_opts);
    uint64_t request = 1000000;
    for (const std::string &line : QueryMix::hotLines())
        serveLine(run, engine, line, QueryMix::Hot, ++request);

    const size_t first_query = tr.spans().size();
    QueryMix mix(run.seed);
    std::vector<double> hit, penalty, geometry;
    for (int i = 0; i < plan.query_lines; ++i) {
        const QueryMix::Line line = mix.next();
        const Served s = serveLine(run, engine, line.text, line.cls,
                                   ++request);
        if (s.hit)
            hit.push_back(s.seconds);
        else if (line.cls == QueryMix::ColdPenalty)
            penalty.push_back(s.seconds);
        else if (line.cls == QueryMix::ColdGeometry)
            geometry.push_back(s.seconds);
    }
    // Counts cover the engine's whole life: the restart's hot set
    // (which loads every trace from the store) plus the block.
    const service::EngineStats stats = engine.stats();
    const service::StoreStats store_stats = engine.store().stats();

    const auto totals = tr.totalsByName(first_span);
    const auto query_totals = tr.totalsByName(first_query);
    const double events = static_cast<double>(counts.events);
    const auto perEvent = [&](const char *span) {
        return selfSeconds(totals, span) * 1e9 / events;
    };
    const auto perLaneEvent = [&](const char *span, double lanes) {
        return selfSeconds(totals, span) * 1e9
               / (static_cast<double>(counts.sweep_events) * lanes);
    };
    const auto parse = query_totals.find("service.parse");

    run.metric("runtime.capture_ns_per_event", perEvent("runtime.capture"),
               "ns");
    run.metric("runtime.events", events, "count");
    run.metric("trace.seal_ns_per_event", perEvent("trace.seal"), "ns");
    run.metric("trace.load_ns_per_event", perEvent("trace.load"), "ns");
    run.metric("trace.resident_bytes_per_event",
               static_cast<double>(counts.resident_bytes) / events, "B");
    run.metric("trace.sweep1_ns_per_event", perEvent("trace.sweep1"), "ns");
    run.metric("trace.scalar1_ns_per_event", perEvent("trace.scalar1"),
               "ns");
    run.metric("trace.sweep12_ns_per_lane_event",
               perLaneEvent("trace.sweep12", 12.0), "ns");
    run.metric("trace.sweep36_ns_per_lane_event",
               perLaneEvent("trace.sweep36", 36.0), "ns");
    run.metric("trace.scalar36_ns_per_lane_event",
               perLaneEvent("trace.scalar36", 36.0), "ns");
    run.metric("sim.p5_ns_per_event", perEvent("sim.p5"), "ns");
    run.metric("sim.p6_ns_per_event", perEvent("sim.p6"), "ns");
    run.metric("sim.p6p_ns_per_event", perEvent("sim.p6p"), "ns");
    run.metric("service.publish_ns_per_event", perEvent("service.publish"),
               "ns");
    run.metric("service.load_ns_per_event", perEvent("service.load"), "ns");
    run.metric("service.store_bytes_per_event",
               static_cast<double>(store_bytes) / events, "B");
    run.metric("service.parse_us",
               parse == query_totals.end()
                   ? 0.0
                   : median(parse->second.self_samples) * 1e6,
               "us");
    run.metric("service.hit_us_p50", median(hit) * 1e6, "us");
    run.metric("service.hit_us_p99", percentile(hit, 0.99) * 1e6, "us");
    run.metric("service.cold_penalty_ms_p50", median(penalty) * 1e3, "ms");
    run.metric("service.cold_penalty_ms_p99", percentile(penalty, 0.99) * 1e3,
               "ms");
    run.metric("service.cold_geometry_ms_p50", median(geometry) * 1e3,
               "ms");
    run.metric("service.cold_geometry_ms_p99",
               percentile(geometry, 0.99) * 1e3, "ms");
    run.metric("service.hit_rate",
               static_cast<double>(stats.result_hits)
                   / static_cast<double>(stats.queries),
               "ratio");
    run.metric("service.replays", static_cast<double>(stats.replays),
               "count");
    run.metric("service.store_loads",
               static_cast<double>(store_stats.v2_hits + store_stats.v1_hits),
               "count");
    run.metric("service.failures", static_cast<double>(stats.failures),
               "count");
    run.metric("harness.suite_setup_ms", median(counts.suite_setup) * 1e3,
               "ms");
    run.metric("bench.tracing_overhead_pct", overhead_pct, "%");

    std::printf("# layer pass at scale %d: %.0f events; query block %d "
                "lines (hits %zu, penalty misses %zu, geometry misses %zu)\n",
                plan.scale, events, plan.query_lines, hit.size(),
                penalty.size(), geometry.size());
    std::printf("# %-34s %8s %12s %12s\n", "span (whole traced run)", "count",
                "total ms", "self ms");
    for (const auto &[name, t] : tr.totalsByName())
        if (name.rfind("pair.", 0) != 0)
            std::printf("# %-34s %8llu %12.3f %12.3f\n", name.c_str(),
                        static_cast<unsigned long long>(t.count),
                        t.total_s * 1e3, t.self_s * 1e3);
    fs::remove_all(store_opts.root);
}

} // namespace pipebench
