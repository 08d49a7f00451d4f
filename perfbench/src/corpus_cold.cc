/**
 * @file
 * corpus_cold — the table3_ratios flow at full scale (the paper's
 * Table 1 inputs, 23 pairs, P5). Each round runs BenchmarkSuite::runAll
 * on a fresh suite over an empty trace directory (live capture, trace
 * encoding, disk writes and one P5 replay per pair), then runAll on
 * further fresh suites over the directory the first one filled (trace
 * load plus replay). The warm profiles must be bit-identical to the
 * cold ones. Sweep kernels and the service layer do no work here.
 */

#include <algorithm>
#include <cstdio>
#include <map>

#include "common.hh"
#include "harness/paper_data.hh"

namespace pipebench {

using namespace mmxdsp;
using harness::BenchmarkSuite;

namespace {

constexpr int kScale = 1;
/** Suite constructions timed in set-up, besides two per round. */
constexpr int kSetups = 31;
/** Warm runAll calls per round, each on its own fresh suite. */
constexpr int kWarmRuns = 2;
/** The traced run's layer pass at this scale: query lines sent, and
 *  the stride of pairs that also get the 12- and 36-machine sweeps. */
constexpr int kLayerQueries = 200;
constexpr int kLayerSweepStride = 8;

using Profiles = std::map<std::string, profile::ProfileResult>;

/** What one cold + warm round measured. */
struct Round
{
    std::vector<double> setup; ///< each fresh suite's construction
    double cold = 0, corpus_mb = 0;
    std::vector<double> warm; ///< each warm runAll
    uint64_t events = 0;
    Profiles profiles; ///< the cold runAll's results
};

/**
 * A run reports its best samples (see Series); qps and
 * lane_events_per_s are the rates of the best cold and best warm
 * runAll, one of each.
 */
struct Samples
{
    Series setup, cold, warm;
    Series round; ///< cold + warm: what the tracing overhead compares
    std::vector<double> corpus_mb;
    uint64_t events = 0; ///< simulated events of one runAll

    void add(const Round &r)
    {
        for (double t : r.setup)
            setup.add(t);
        cold.add(r.cold);
        for (double t : r.warm)
            warm.add(t);
        round.add(r.cold + r.warm.front());
        corpus_mb.push_back(r.corpus_mb);
        events = r.events;
    }
    double pairSeconds() const { return cold.lowest() + warm.lowest(); }
    double qps() const
    {
        return 2 * static_cast<double>(BenchmarkSuite::allRuns().size())
               / pairSeconds();
    }
    double lanes() const
    {
        return 2 * static_cast<double>(events) / pairSeconds();
    }
};

Profiles
collect(BenchmarkSuite &suite)
{
    Profiles out;
    for (const auto &pair : BenchmarkSuite::allRuns())
        out[pairName(pair)] = suite.run(pair.first, pair.second).profile;
    return out;
}

/** One cold runAll and kWarmRuns warm ones over a fresh trace dir. */
Round
corpusRound(Run &run, const harness::SuiteConfig &config)
{
    const fs::path dir = run.work / "corpus";
    fs::remove_all(dir);
    const harness::TraceOptions traces{true, dir.string()};
    const size_t n_pairs = BenchmarkSuite::allRuns().size();
    Round r;

    {
        double t0 = now();
        BenchmarkSuite suite(config, traces);
        r.setup.push_back(now() - t0);
        {
            SpanScope span(run.tracer, "harness.runAll.cold");
            t0 = now();
            suite.runAll(kThreads);
            r.cold = now() - t0;
        }
        run.check(suite.traceActivity().captured == static_cast<int>(n_pairs),
                  "cold runAll captures every pair");
        r.profiles = collect(suite);
    }
    r.corpus_mb = static_cast<double>(dirBytes(dir)) / 1e6;

    for (const auto &[name, profile] : r.profiles)
        r.events += profile.dynamicInstructions;

    for (int i = 0; i < kWarmRuns; ++i) {
        double t0 = now();
        BenchmarkSuite suite(config, traces);
        r.setup.push_back(now() - t0);
        {
            SpanScope span(run.tracer, "harness.runAll.warm");
            t0 = now();
            suite.runAll(kThreads);
            r.warm.push_back(now() - t0);
        }
        run.check(suite.traceActivity().captured == 0,
                  "warm runAll captures nothing");
        Profiles warm = collect(suite);
        for (const auto &[name, profile] : r.profiles)
            run.check(sameProfile(profile, warm[name]),
                      "warm " + name + " bit-identical to cold");
    }
    fs::remove_all(dir);
    run.ops(1 + kWarmRuns);
    return r;
}

/** Rounds for about @p seconds; returns each round's cold profiles. */
std::vector<Profiles>
corpusRounds(Run &run, const harness::SuiteConfig &config, double seconds,
             Samples &s)
{
    std::vector<Profiles> out;
    repeatFor(seconds, [&] {
        Round r = corpusRound(run, config);
        s.add(r);
        out.push_back(std::move(r.profiles));
    });
    return out;
}

/**
 * Model accuracy, printed and not gated: each benchmark's simulated
 * C/MMX speedup beside the paper's Table 3, and how far the P5 cycles
 * of one pair moved between this run's cold captures (capture is not
 * yet deterministic: host addresses reach the cache model).
 */
void
printAccuracy(const std::vector<Profiles> &rounds, int scale)
{
    const Profiles &p = rounds.front();
    std::printf("# model accuracy (scale %d, P5; paper Table 3 is the "
                "reference)\n",
                scale);
    std::printf("# %-10s %10s %10s %9s\n", "program", "simulated", "paper",
                "error");
    static const char *const kRows[] = {"fft.c",  "fft.fp", "fir.c",
                                        "fir.fp", "iir.c",  "iir.fp",
                                        "matvec.c", "g722.c", "image.c",
                                        "jpeg.c", "radar.c"};
    for (const char *row : kRows) {
        const std::string name = row;
        const std::string mmx = name.substr(0, name.find('.')) + ".mmx";
        const double sim = static_cast<double>(p.at(name).cycles)
                           / static_cast<double>(p.at(mmx).cycles);
        const harness::PaperTable3Row *paper = harness::paperTable3For(name);
        if (!paper)
            continue;
        std::printf("# %-10s %10.3f %10.2f %+8.1f%%\n", row, sim,
                    paper->speedup,
                    (sim - paper->speedup) / paper->speedup * 100.0);
    }

    double worst = 0.0;
    std::string worst_pair = "-";
    for (const auto &[name, first] : p) {
        uint64_t lo = first.cycles, hi = first.cycles;
        for (const Profiles &r : rounds) {
            lo = std::min(lo, r.at(name).cycles);
            hi = std::max(hi, r.at(name).cycles);
        }
        const double spread = static_cast<double>(hi - lo)
                              / static_cast<double>(lo) * 100.0;
        if (spread > worst) {
            worst = spread;
            worst_pair = name;
        }
    }
    std::printf("# cycle spread across %zu cold captures: max %.4f%% "
                "(%s)\n",
                rounds.size(), worst, worst_pair.c_str());
}

} // namespace

void
runCorpusCold(Run &run)
{
    run.suite_scale = run.scale(kScale);
    const harness::SuiteConfig config =
        suiteConfig(run.suite_scale, run.seed);
    std::printf("# config %s\n", run.configJson().c_str());

    Samples base;
    for (int i = 0; i < kSetups; ++i) {
        const double t0 = now();
        BenchmarkSuite suite(config);
        base.setup.add(now() - t0);
    }

    resetPeakRss();
    const double budget = run.traced ? run.seconds / 2 : run.seconds;
    const std::vector<Profiles> rounds =
        corpusRounds(run, config, budget, base);
    printAccuracy(rounds, run.suite_scale);
    std::printf("# %zu rounds: cold %.3f s, warm %.3f s, corpus %.1f MB\n",
                base.cold.size(), base.cold.lowest(), base.warm.lowest(),
                median(base.corpus_mb));
    base.setup.print("setup_s");
    base.cold.print("cold_s");
    base.warm.print("warm_s");

    if (!run.traced) {
        run.metric("setup_s", base.setup.middle(), "s");
        run.metric("cold_s", base.cold.lowest(), "s");
        run.metric("warm_s", base.warm.lowest(), "s");
        run.metric("qps", base.qps(), "1/s");
        run.metric("lane_events_per_s", base.lanes(), "1/s");
        run.metric("corpus_mb", median(base.corpus_mb), "MB");
        run.metric("peak_rss_mb", peakRssMb(), "MB");
        return;
    }

    Samples traced;
    run.tracer.setEnabled(true);
    corpusRounds(run, config, budget, traced);
    runLayerPass(run, {run.suite_scale, kLayerQueries, kLayerSweepStride},
                 overheadPct(base.round.lowest(), traced.round.lowest()));
}

} // namespace pipebench
