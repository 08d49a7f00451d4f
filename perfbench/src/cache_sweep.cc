/**
 * @file
 * cache_sweep — the cache-geometry ablation flow at scale 8 (23 pairs;
 * scale 8 rather than 2 so that a round takes about a second and a run
 * times every pair dozens of times).
 * Set-up captures the corpus into a trace directory. Each round opens a
 * fresh BenchmarkSuite on that directory and, for every pair, loads the
 * trace (MaterializedTrace, mmap + validate) and sweeps it over 36
 * machines: L1 {4,8,16,32} KB x L2 {128K,512K,2M} x P5/P6/P6P. Trace
 * load and the packed sweep kernel do the work; the emulator does none.
 */

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <optional>

#include "common.hh"

namespace pipebench {

using namespace mmxdsp;
using harness::BenchmarkSuite;

namespace {

constexpr int kScale = 8;
constexpr int kSetups = 9;
constexpr int kLayerQueries = 2000;

using Sweep = std::vector<profile::ProfileResult>;

/**
 * Per-pair times (see Timings): each pair's load + sweep is one
 * segment, and the sweep call inside it shares its probe.
 */
struct Samples
{
    explicit Samples(size_t pairs) : cold(pairs), warm(pairs), events(pairs)
    {
    }

    Timings cold;                 ///< per pair: load + sweep
    Timings warm;                 ///< per pair: the sweep call alone
    std::vector<uint64_t> events; ///< per pair
    size_t rounds = 0;
};

/**
 * Capture every pair into @p dir through the suite's trace cache. The
 * suite's construction is segment 0 of @p setup, pair i's capture
 * segment i + 1.
 */
void
buildCorpus(Run &run, const harness::SuiteConfig &config,
            const fs::path &dir, Timings &setup)
{
    fs::remove_all(dir);
    std::optional<BenchmarkSuite> suite;
    timeSegment(setup, [&] {
        suite.emplace(config, harness::TraceOptions{true, dir.string()});
    });
    const auto pairs = BenchmarkSuite::allRuns();
    for (size_t i = 0; i < pairs.size(); ++i)
        timeSegment(setup, [&] {
            suite->materializedFor(pairs[i].first, pairs[i].second);
        }, i + 1);
    run.check(suite->traceActivity().captured
                  == static_cast<int>(pairs.size()),
              "corpus build captures every pair");
}

/**
 * Outside the timed phase: the packed sweep must equal the scalar
 * reference sweep on a fixed sample, across all 36 machines.
 */
void
checkSample(Run &run, const harness::SuiteConfig &config,
            const fs::path &dir)
{
    BenchmarkSuite suite(config, harness::TraceOptions{true, dir.string()});
    const std::vector<sim::MachineConfig> machines = sweepMachines();
    for (const auto &[bench, version] :
         {std::pair<std::string, std::string>{"jpeg", "mmx"},
          {"gemm", "mmx_blocked"}}) {
        const Sweep packed = suite.sweep(bench, version, machines, kThreads);
        const Sweep scalar =
            suite.materializedFor(bench, version)
                ->replaySweepScalar(machines, kThreads);
        for (size_t i = 0; i < machines.size(); ++i)
            run.check(i < packed.size() && i < scalar.size()
                          && sameProfile(packed[i], scalar[i]),
                      "packed sweep of " + bench + "." + version
                          + " equals scalar on machine "
                          + std::to_string(i));
    }
}

/**
 * One fresh-suite pass: load every pair's trace, then sweep it. Load +
 * sweep is the pair's cold time; the sweep call alone, on a trace
 * already resident, is its warm time. Every round must reproduce the
 * first round's profiles exactly.
 */
void
sweepRound(Run &run, const harness::SuiteConfig &config,
           const fs::path &dir, Samples &s, std::vector<Sweep> &reference)
{
    const auto pairs = BenchmarkSuite::allRuns();
    const std::vector<sim::MachineConfig> machines = sweepMachines();
    std::vector<Sweep> results(pairs.size());

    BenchmarkSuite suite(config, harness::TraceOptions{true, dir.string()});
    for (size_t i = 0; i < pairs.size(); ++i) {
        const auto &[bench, version] = pairs[i];
        SpanScope span(run.tracer, "pair." + pairName(pairs[i]), i + 1);
        double sweeping = 0.0;
        const double before = coreProbe();
        const double t0 = now();
        {
            SpanScope load(run.tracer, "trace.load");
            s.events[i] = suite.materializedFor(bench, version)->instrCount();
        }
        {
            SpanScope sweep(run.tracer, "trace.sweep36");
            const double t1 = now();
            results[i] = suite.sweep(bench, version, machines, kThreads);
            sweeping = now() - t1;
        }
        const double seconds = now() - t0;
        const double probe = std::max(before, coreProbe());
        s.cold.add(seconds, probe, i);
        s.warm.add(sweeping, probe, i);
    }
    ++s.rounds;

    if (reference.empty())
        reference = results;
    for (size_t i = 0; i < pairs.size(); ++i) {
        bool same = results[i].size() == machines.size()
                    && reference[i].size() == machines.size();
        for (size_t j = 0; same && j < machines.size(); ++j)
            same = sameProfile(results[i][j], reference[i][j]);
        run.check(same, "sweep of " + pairName(pairs[i])
                            + " reproduces the first round");
    }
    run.ops(pairs.size());
}

} // namespace

void
runCacheSweep(Run &run)
{
    run.suite_scale = run.scale(kScale);
    const harness::SuiteConfig config =
        suiteConfig(run.suite_scale, run.seed);
    std::printf("# config %s\n", run.configJson().c_str());

    const fs::path dir = run.work / "corpus";
    const size_t pairs = BenchmarkSuite::allRuns().size();
    Timings setup(pairs + 1);
    for (int i = 0; i < kSetups; ++i)
        buildCorpus(run, config, dir, setup);
    const double corpus_mb = static_cast<double>(dirBytes(dir)) / 1e6;
    checkSample(run, config, dir);
    // Write the corpus back now, so the disk traffic of set-up does not
    // land inside the timed rounds.
    sync();

    resetPeakRss();
    const double budget = run.traced ? run.seconds / 2 : run.seconds;
    Samples base(pairs);
    std::vector<Sweep> reference;
    repeatFor(budget,
              [&] { sweepRound(run, config, dir, base, reference); });

    const double cold = base.cold.quiet();
    const double lanes = static_cast<double>(sweepMachines().size());
    uint64_t events = 0;
    for (uint64_t e : base.events)
        events += e;
    std::printf("# %zu rounds on a quiet core: load+sweep %.3f s (%.3f s as "
                "measured), of which sweep %.3f s, %.1f M lane-events/s, "
                "set-up %.3f s (%.3f s as measured), corpus %.1f MB\n",
                base.rounds, cold, base.cold.measured(), base.warm.quiet(),
                static_cast<double>(events) * lanes / cold / 1e6,
                setup.quiet(), setup.measured(), corpus_mb);

    if (!run.traced) {
        run.metric("setup_s", setup.quiet(), "s");
        run.metric("cold_s", cold, "s");
        run.metric("warm_s", base.warm.quiet(), "s");
        run.metric("qps", static_cast<double>(pairs) * lanes / cold, "1/s");
        run.metric("lane_events_per_s",
                   static_cast<double>(events) * lanes / cold, "1/s");
        run.metric("corpus_mb", corpus_mb, "MB");
        run.metric("peak_rss_mb", peakRssMb(), "MB");
        return;
    }

    Samples traced(pairs);
    run.tracer.setEnabled(true);
    repeatFor(budget,
              [&] { sweepRound(run, config, dir, traced, reference); });
    fs::remove_all(dir);
    runLayerPass(run, {run.suite_scale, kLayerQueries},
                 overheadPct(cold, traced.cold.quiet()));
}

} // namespace pipebench
