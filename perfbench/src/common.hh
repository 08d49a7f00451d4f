/**
 * @file
 * Shared pieces of the pipeline benchmark: the run context every
 * workload reports into, timing and statistics helpers, the machine
 * sets the workloads sweep, and the workload entry points.
 *
 * The benchmark drives the program only through the interfaces its
 * roadmap keeps: harness::BenchmarkSuite, trace::MaterializedTrace
 * (replayProfile, replaySweep, replaySweepScalar, serializeV2,
 * loadV2File), service::TraceStore and service::QueryEngine.
 */

#ifndef PIPEBENCH_COMMON_HH
#define PIPEBENCH_COMMON_HH

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "harness/suite.hh"
#include "profile/vprof.hh"
#include "service/query_engine.hh"
#include "sim/timing_model.hh"
#include "support/rng.hh"
#include "tracer.hh"

namespace pipebench {

namespace fs = std::filesystem;

/**
 * Replay and sweep worker threads. Fixed, so one benchmark process
 * never runs more than the main thread plus two workers, and numbers
 * from different hosts compare like with like.
 */
constexpr int kThreads = 2;

/** Seconds on the steady clock. */
double now();

/** Median of @p v (0 for an empty sample). */
double median(std::vector<double> v);

/** Nearest-rank percentile, @p p in [0, 1] (0 for an empty sample). */
double percentile(std::vector<double> v, double p);

/** The samples of one metric in one run. */
class Series
{
  public:
    void add(double value) { values_.push_back(value); }
    double middle() const { return median(values_); }
    double lowest() const;
    size_t size() const { return values_.size(); }
    /** Print "# samples <name>: v1 v2 ...". */
    void print(const char *name) const;

  private:
    std::vector<double> values_;
};

/**
 * Seconds of a fixed loop of independent integer operations on an
 * L1-resident buffer. It runs at the core's full issue width, so it
 * slows down as soon as another tenant's thread shares the core.
 */
double coreProbe();

/** coreProbe() on an idle core of a 4-core Xeon VM. */
constexpr double kQuietProbeS = 125e-6;

/**
 * How the program's segment times grow with the probe's on a shared
 * core: t ~ p^kProbeExponent. Least-squares fits of log t on log p over
 * single runs of both workloads gave 0.34-0.72, around 0.5; a fit per
 * run spread the results more than this constant does.
 */
constexpr double kProbeExponent = 0.5;

/**
 * The times of one kind of segment in one run, each with the slower of
 * the coreProbe() calls just before and just after it, in groups (one
 * per pair, say).
 *
 * The host's other tenants share its cores: a core runs the program at
 * full speed for a second or so, then slower while another tenant's
 * thread shares it, by an amount that changes from minute to minute, as
 * does the share of loaded time. So every segment is scaled to a quiet
 * core, t (kQuietProbeS / p)^kProbeExponent, and a run reports the
 * median of each group. quiet() sums the groups.
 */
class Timings
{
  public:
    explicit Timings(size_t groups = 1) : groups_(groups) {}

    void add(double seconds, double probe, size_t group = 0);
    /** Sum over groups of the median time scaled to a quiet core. */
    double quiet() const;
    /** Sum over groups of the median time as measured. */
    double measured() const;
    size_t size() const;

  private:
    struct Sample
    {
        double seconds, probe;
    };
    std::vector<std::vector<Sample>> groups_;
};

/** Time @p work between two coreProbe() calls into group @p group of
 *  @p into. */
template <typename F>
void
timeSegment(Timings &into, F &&work, size_t group = 0)
{
    const double before = coreProbe();
    const double t0 = now();
    work();
    const double seconds = now() - t0;
    const double after = coreProbe();
    into.add(seconds, before > after ? before : after, group);
}

/** Bytes in the regular files under @p dir. */
uint64_t dirBytes(const fs::path &dir);

/**
 * Start a new peak resident set measurement: hand the heap's free pages
 * back to the kernel (what set-up freed would otherwise stay resident,
 * as much as its thread timing left behind), then drop the kernel's
 * high-water mark to the resident set. Where the kernel does not allow
 * that, this says so on stdout and peakRssMb() covers the whole process
 * life.
 */
void resetPeakRss();

/** Peak resident set size since the last reset, in MB (1e6 bytes). */
double peakRssMb();

/** Field-by-field equality of two profiles (bit-identical results). */
bool sameProfile(const mmxdsp::profile::ProfileResult &a,
                 const mmxdsp::profile::ProfileResult &b);

/** The paper's Table 1 workload, shrunk by @p scale, with @p seed. */
mmxdsp::harness::SuiteConfig suiteConfig(int scale, uint64_t seed);

/** L1 {4,8,16,32} KB x L2 {128K,512K,2M}, default everything else. */
std::vector<mmxdsp::sim::TimerConfig> cacheGeometries();

/** The 12 cache geometries on the P5. */
std::vector<mmxdsp::sim::MachineConfig> p5Geometries();

/** The 12 cache geometries on each of P5, P6 and P6P (36 machines). */
std::vector<mmxdsp::sim::MachineConfig> sweepMachines();

/** "fir.mmx" */
std::string pairName(const std::pair<std::string, std::string> &pair);

/**
 * The seeded vprofd query mix, as query lines for
 * QueryEngine::parseQueryLine:
 *  - 90% hot: one of the 23 pairs x 4 hot machines;
 *  - 7.8% penalty misses: default cache geometry with a never-repeated
 *    penalty, model rotating P5/P6/P6P (query lines cannot set the L2
 *    miss penalty, so the unique penalty is the mispredict penalty);
 *  - 2.2% geometry misses: a unique penalty on one of 300 L1 size x
 *    ways x line x L2 size geometries.
 * The classes are dealt from shuffled decks of 230 lines (207 hot, 18
 * penalty, 5 geometry) and the miss pairs from shuffled decks of the 23
 * pairs, so each deck of lines holds one miss of every pair and costs
 * about the same whatever the seed.
 */
class QueryMix
{
  public:
    enum Class { Hot, ColdPenalty, ColdGeometry };
    static const char *className(Class cls);

    struct Line
    {
        std::string text;
        Class cls;
    };

    explicit QueryMix(uint64_t seed);

    /** Every pair x every hot machine, in a fixed order. */
    static std::vector<std::string> hotLines();

    Line next();

  private:
    /** Next card of @p deck, refilled from @p full and shuffled when
     *  empty. */
    template <typename T>
    T deal(std::vector<T> &deck, const std::vector<T> &full);

    mmxdsp::Rng rng_;
    uint64_t unique_ = 0;
    std::vector<Class> classes_;
    std::vector<uint32_t> pairs_;
};

/** Everything one benchmark process measures and reports. */
class Run
{
  public:
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool traced = false;
    /** Tiny workloads for the benchmark's own smoke test. */
    bool smoke = false;
    /** SuiteConfig scale the workload ran at (set by the workload). */
    int suite_scale = 1;
    /** Scratch directory for trace corpora and stores (removed at exit). */
    fs::path work;
    /** Where a traced run writes its spans. */
    fs::path spans_out;
    Tracer tracer;

    /** The workload's SuiteConfig scale (smoke runs shrink it further). */
    int scale(int full) const { return smoke ? 64 : full; }

    /** Count one attempted operation or output check. */
    void check(bool ok, const std::string &what);
    /** Count @p n operations that all succeeded. */
    void ops(uint64_t n) { attempted_ += n; }

    void metric(const std::string &name, double value, const char *unit);

    /** The run's configuration (scale, threads, nproc, build, seed). */
    std::string configJson() const;

    /**
     * The result line: exactly the keys correct, attempted, failed and
     * metrics. Every name in @p expected must have been reported.
     */
    void printResult(const std::vector<std::string> &expected) const;

  private:
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
    std::vector<Metric> metrics_;
};

/**
 * Call @p round() until about @p seconds have passed: another round
 * starts only while the last one would still fit the budget. At least
 * one round always runs.
 */
template <typename F>
void
repeatFor(double seconds, F &&round)
{
    const double start = now();
    for (;;) {
        const double t0 = now();
        round();
        const double last = now() - t0;
        if (now() - start + last > seconds)
            return;
    }
}

/** One query line as vprofd serves it: parseQueryLine, then query. */
struct Served
{
    bool ok = false;
    bool hit = false; ///< answered from the result cache
    double seconds = 0.0; ///< parse + query
    mmxdsp::service::Query query;
    mmxdsp::profile::ProfileResult profile;
};

/**
 * Serve @p line on @p engine, inside a "query.<cls>" span (request id
 * @p request) with "service.parse" and "service.query" children.
 */
Served serveLine(Run &run, mmxdsp::service::QueryEngine &engine,
                 const std::string &line, QueryMix::Class cls,
                 uint64_t request);

/** End-to-end metric names, in report order. */
const std::vector<std::string> &endToEndMetrics();
/** Per-layer metric names, in report order. */
const std::vector<std::string> &perLayerMetrics();

/**
 * Untraced vs traced cost of one workload's main operation, as a
 * percentage of the untraced cost (reported as tracing overhead).
 */
double overheadPct(double untraced, double traced);

/** Per-layer probe settings for runLayerPass(). */
struct LayerPlan
{
    int scale = 1;
    /** Seeded query lines sent to the engine over the layer store. */
    int query_lines = 1000;
    /** The 12- and 36-machine sweeps run on every n-th pair only. */
    int sweep_stride = 1;
};

/**
 * The traced run's layer pass: every pair of the workload's corpus
 * goes through the v3 pipeline one layer call at a time (capture, seal,
 * publish, load, per-model replay, sweeps) and a seeded query block
 * runs against the published store. Spans around each call give the
 * per-layer metrics, which this reports through @p run.
 */
void runLayerPass(Run &run, const LayerPlan &plan, double overhead_pct);

void runCorpusCold(Run &run);
void runCacheSweep(Run &run);
void runVprofdMix(Run &run);

} // namespace pipebench

#endif // PIPEBENCH_COMMON_HH
