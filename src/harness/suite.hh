/**
 * @file
 * The benchmark harness: owns one instance of every benchmark, runs any
 * (benchmark, version) pair under a fresh profiler with the paper's
 * workload parameters, and caches results so one bench binary can build
 * several tables from a single simulation pass.
 *
 * With tracing enabled the harness follows the paper's VTune
 * methodology — capture the instruction stream once, characterize it as
 * often as needed: each pair executes once through a
 * trace::MaterializeSink, its trace image is published to a
 * service::TraceStore rooted at the trace directory, and every result
 * is a replay of that trace. Later suites (or other bench binaries with
 * the same workload config) mmap the stored image instead of executing
 * benchmark code. runAll() fans replay out over a worker pool, and
 * sweep() replays one trace under many timing configurations.
 */

#ifndef MMXDSP_HARNESS_SUITE_HH
#define MMXDSP_HARNESS_SUITE_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "profile/vprof.hh"
#include "runtime/cpu.hh"
#include "sim/pentium_timer.hh"
#include "sim/timing_model.hh"
#include "service/trace_store.hh"
#include "trace/materialize.hh"

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

/**
 * How the suite uses the instruction-trace layer. The environment
 * overrides both fields: MMXDSP_TRACE_CACHE=0 turns tracing off (any
 * other value turns it on), and a non-empty MMXDSP_TRACE_DIR replaces
 * @c dir.
 */
struct TraceOptions
{
    /** Capture executions into the trace store and replay them. */
    bool enabled = false;
    /** Root of the trace store (entries live in "<dir>/shard-NN/"). */
    std::string dir = "traces";
};

/** One measured (benchmark, version) run. */
struct RunResult
{
    std::string benchmark;
    std::string version; ///< "c", "fp", "mmx", "mmx_v1"
    profile::ProfileResult profile;
    /** True when the metrics came from trace replay, not execution. */
    bool replayed = false;

    std::string name() const { return benchmark + "." + version; }
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

    /**
     * Run (and cache) one benchmark version. Valid names:
     * fft/fir/iir/matvec/gemm/jpeg/image/g722/radar; versions "c" for
     * all, "fp" for fft/fir/iir, "mmx" for all, "mmx_v1" for fft, and
     * "c_blocked"/"mmx_blocked" for gemm. Fatal on unknown pairs.
     *
     * With tracing enabled (or once materializedFor() has captured the
     * pair) the result is a replay of the pair's trace; otherwise the
     * pair executes live under a profile::VProf — the oracle every
     * replay is tested against.
     */
    const RunResult &run(const std::string &benchmark,
                         const std::string &version);

    /**
     * Produce every (benchmark, version) result: the store is searched
     * in parallel, missing traces are captured (serially — the runtime
     * is single-threaded), and every profile is computed by replaying
     * a trace across @p n_threads workers (0 = auto). Afterwards run()
     * returns cached results. Metrics are bit-identical to the serial
     * path.
     *
     * With a store attached, a trace loaded from it or published to it
     * is dropped once replayed (a later materializedFor() maps it
     * again), so peak memory follows a few traces, not the corpus. A
     * capture the store could not take is kept.
     */
    void runAll(int n_threads = 1);

    /**
     * The captured trace of one pair, loaded from the trace store or
     * captured on demand (and published when tracing is enabled), then
     * kept for the suite's lifetime (runAll() drops the traces the
     * store holds once it has replayed them). This is the trace run(),
     * runAll() and sweep() replay from; a pair executes at most once in
     * one suite, unless the store loses an entry runAll() dropped.
     */
    std::shared_ptr<const trace::MaterializedTrace>
    materializedFor(const std::string &benchmark,
                    const std::string &version);

    /**
     * Replay one benchmark's trace under every timing configuration in
     * @p configs (L1/L2 geometry, penalties, BTB size, ...), fanning out
     * over @p threads workers. One capture, many machine models: every
     * worker replays the same MaterializedTrace.
     */
    std::vector<profile::ProfileResult>
    sweep(const std::string &benchmark, const std::string &version,
          const std::vector<sim::TimerConfig> &configs, int threads = 0);

    /**
     * Cross-model sweep: each entry selects its own machine (P5 or P6)
     * and timer parameters, all replayed from the same captured trace.
     */
    std::vector<profile::ProfileResult>
    sweep(const std::string &benchmark, const std::string &version,
          const std::vector<sim::MachineConfig> &machines, int threads = 0);

    /** All (benchmark, version) pairs, kernels first (paper order). */
    static std::vector<std::pair<std::string, std::string>> allRuns();

    /** Benchmarks ordered by ascending measured C/MMX speedup. */
    std::vector<std::string> benchmarksBySpeedup();

    /** Measured C-version / MMX-version cycle ratio. */
    double speedup(const std::string &benchmark);

    const SuiteConfig &config() const { return config_; }
    /** The machine run()/runAll() results are computed on. */
    const sim::MachineConfig &machine() const { return machine_; }
    /** Root of the trace store; empty when tracing is off. */
    std::string traceDir() const
    {
        return store_ ? store_->options().root : std::string();
    }

    /** How traces were obtained so far (for provenance footers). */
    struct TraceActivity
    {
        int captured = 0;  ///< pairs executed live this process
        int disk_hits = 0; ///< pairs loaded from the trace store
    };
    const TraceActivity &traceActivity() const { return activity_; }

    /**
     * Execute one pair on the suite's live runtime with @p sink
     * attached, caching nothing (tests tee a VProf and a
     * trace::MaterializeSink onto one execution this way).
     */
    void executeLive(const std::string &benchmark,
                     const std::string &version, sim::TraceSink *sink);

  private:
    struct Impl;

    /** Capture one pair live and publish it when tracing is on;
     *  @p published (when given) says whether the store took it. */
    std::shared_ptr<const trace::MaterializedTrace>
    capture(const std::string &benchmark, const std::string &version,
            bool *published = nullptr);

    SuiteConfig config_;
    sim::MachineConfig machine_;
    std::unique_ptr<service::TraceStore> store_; ///< null = tracing off
    TraceActivity activity_;
    std::unique_ptr<Impl> impl_;
    std::map<std::string, RunResult> cache_;
    std::map<std::string, std::shared_ptr<const trace::MaterializedTrace>>
        materialized_;
};

} // namespace mmxdsp::harness

#endif // MMXDSP_HARNESS_SUITE_HH
