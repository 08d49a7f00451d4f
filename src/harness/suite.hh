/**
 * @file
 * The benchmark harness: every (benchmark, version) pair profiled with
 * the paper's workload parameters on one machine, so one bench binary
 * builds several tables from a single simulation pass.
 *
 * BenchmarkSuite is a thin front over service::QueryEngine, the one
 * trace pipeline, and follows the paper's VTune methodology — capture
 * the instruction stream once, characterize it as often as needed:
 * each pair executes once (PairRunner) into a trace, published to the
 * trace store rooted at the trace directory, and every result is a
 * replay of that trace. Later suites mmap the stored image instead of
 * executing benchmark code; without a store (--no-trace-cache) a pair
 * is still captured and replayed, in memory.
 */

#ifndef MMXDSP_HARNESS_SUITE_HH
#define MMXDSP_HARNESS_SUITE_HH

#include <memory>
#include <string>
#include <vector>

#include "sim/trace_sink.hh"
#include "trace/materialize.hh"

namespace mmxdsp::service {
class QueryEngine;
}

namespace mmxdsp::harness {

/** Workload parameters (defaults follow the paper's Table 1). */
struct SuiteConfig
{
    int fir_samples = 4096;
    int iir_samples = 8192;
    int fft_size = 4096;     ///< "4096 point, in-place FFT"
    int matvec_dim = 512;    ///< "512 x 512 matrix ... vector of length 512"
    int gemm_dim = 128;      ///< blocked GEMM: C = A x B, dim x dim Q15
    int gemm_block = 32;     ///< GEMM jj/kk cache-block edge
    int image_width = 640;   ///< "480 x 640 RGB image"
    int image_height = 480;
    int jpeg_width = 224;    ///< ~118 kB RGB bitmap like the paper's input
    int jpeg_height = 168;
    int jpeg_quality = 75;
    int g722_samples = 3072; ///< "a 6 kB speech file"
    int radar_echoes = 1025; ///< 12 range gates, 64 16-pulse segments
    uint64_t seed = 42;
    /** Shrink every workload (for quick runs / examples). */
    void scaleDown(int factor);

    /**
     * Key of this workload for the trace store: an FNV-1a hash over
     * kTraceKeySalt and every field above, so any workload change
     * misses cleanly.
     */
    uint64_t hash() const;
};

/**
 * Salt mixed first into SuiteConfig::hash(). Its value (1) is part of
 * every stored trace's key, so it stays fixed; the trace image carries
 * its own format version in its header.
 */
constexpr uint64_t kTraceKeySalt = 1;

/** How the suite uses the instruction-trace layer. */
struct TraceOptions
{
    /** Capture executions into the trace store and replay them. */
    bool enabled = false;
    /** Root of the trace store (entries live in "<dir>/", one file per
     *  pair). */
    std::string dir = "traces";
};

/** One measured (benchmark, version) run. */
struct RunResult
{
    std::string benchmark;
    std::string version; ///< "c", "fp", "mmx", "c_blocked", ...
    profile::ProfileResult profile;

    std::string name() const { return benchmark + "." + version; }
};

/**
 * One instance of every benchmark, set up from a SuiteConfig, and the
 * single-threaded runtime they execute on.
 */
class PairRunner
{
  public:
    explicit PairRunner(const SuiteConfig &config);
    ~PairRunner();

    /** True when @p benchmark.@p version is a registered pair (one of
     *  BenchmarkSuite::allRuns()). */
    static bool known(const std::string &benchmark,
                      const std::string &version);

    /**
     * Execute one pair with @p sink attached. Fatal on an unknown pair
     * (callers that take untrusted names check known() first).
     */
    void execute(const std::string &benchmark, const std::string &version,
                 sim::TraceSink *sink);

    /** Execute one pair into a trace::MaterializeSink and return its
     *  trace, keyed by the config's hash(). */
    std::shared_ptr<const trace::MaterializedTrace>
    capture(const std::string &benchmark, const std::string &version);

    /** The benchmark instances and the runtime (suite.cc). */
    struct Impl;

  private:
    std::unique_ptr<Impl> impl_;
};

class BenchmarkSuite
{
  public:
    /**
     * @p machine selects the timing model every run()/runAll() profile
     * is computed on (default: P5 with default parameters). Captured
     * traces are model-independent, so suites with different machines
     * share the same trace store entries.
     */
    explicit BenchmarkSuite(
        const SuiteConfig &config = SuiteConfig{},
        const TraceOptions &trace_options = TraceOptions{},
        const sim::MachineConfig &machine = sim::MachineConfig{});
    ~BenchmarkSuite();

    /** One pair's profile on machine(): an engine query, a replay of
     *  the pair's trace. Fatal on a pair not in allRuns(). */
    RunResult run(const std::string &benchmark, const std::string &version);

    /** Profile every pair in one engine batch on @p n_threads workers
     *  (0 = auto); afterwards run() answers from the result cache. */
    void runAll(int n_threads = 1);

    /** The engine's trace of one pair (resident, loaded or captured):
     *  the trace run(), runAll() and sweep() replay. */
    std::shared_ptr<const trace::MaterializedTrace>
    materializedFor(const std::string &benchmark,
                    const std::string &version);

    /** Replay one pair's trace on every machine in @p machines over
     *  @p threads workers, leaving no memos or results in the engine. */
    std::vector<profile::ProfileResult>
    sweep(const std::string &benchmark, const std::string &version,
          const std::vector<sim::MachineConfig> &machines, int threads = 0);

    /** All (benchmark, version) pairs, kernels first (paper order). */
    static std::vector<std::pair<std::string, std::string>> allRuns();

    /** Benchmarks ordered by ascending measured C/MMX speedup. */
    std::vector<std::string> benchmarksBySpeedup();

    /** Measured C-version / MMX-version cycle ratio. */
    double speedup(const std::string &benchmark);

    const SuiteConfig &config() const;
    /** The machine run()/runAll() results are computed on. */
    const sim::MachineConfig &machine() const { return machine_; }
    /** Root of the trace store; empty when tracing is off. */
    const std::string &traceDir() const;

    /** How traces were obtained so far (for provenance footers). */
    struct TraceActivity
    {
        int captured = 0;  ///< pairs executed live this process
        int disk_hits = 0; ///< pairs loaded from the trace store
    };
    /** The engine's captures and store loads so far. */
    TraceActivity traceActivity() const;

    /**
     * Capture one pair live and publish it when tracing is on. The
     * suite keeps no reference to the trace (unlike materializedFor()),
     * so it lives exactly as long as the caller holds it; @p published
     * (when given) says whether the store took it.
     */
    std::shared_ptr<const trace::MaterializedTrace>
    capture(const std::string &benchmark, const std::string &version,
            bool *published = nullptr);

    /**
     * Execute one pair on the engine's live runtime with @p sink
     * attached, caching nothing (tests tee a VProf and a
     * trace::MaterializeSink onto one execution this way).
     */
    void executeLive(const std::string &benchmark,
                     const std::string &version, sim::TraceSink *sink);

  private:
    sim::MachineConfig machine_;
    std::unique_ptr<service::QueryEngine> engine_;
};

} // namespace mmxdsp::harness

#endif // MMXDSP_HARNESS_SUITE_HH
