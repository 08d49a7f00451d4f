/**
 * @file
 * The shared command-line interface of the bench/ binaries.
 *
 * Every table/figure/ablation binary accepts the same flags so the full
 * result set can be produced quickly on scaled-down workloads and fanned
 * out over worker threads:
 *
 *   --scale=N          shrink every workload by ~N (SuiteConfig::scaleDown)
 *   --threads=N        replay worker threads (0 = auto, default 0)
 *   --model=p5|p6|p6p      timing model the profiles run on (default p5)
 *   --trace-dir=PATH   trace store directory (default "traces")
 *   --no-trace-cache   no trace store: read and write no trace files
 *                      (each pair is still captured and replayed in
 *                      memory)
 *   --sizes=A,B,...    problem-size list (benches that sweep sizes)
 *   --blocks=A,B,...   block-size list (benches that sweep blockings)
 *   --help             usage
 */

#ifndef MMXDSP_HARNESS_CLI_HH
#define MMXDSP_HARNESS_CLI_HH

#include <string>
#include <vector>

#include "harness/suite.hh"

namespace mmxdsp::harness {

/** Parsed bench-binary options. */
struct BenchOptions
{
    int scale = 1;
    int threads = 0; ///< 0 = auto (support/parallel resolveThreads)
    sim::ModelKind model = sim::ModelKind::P5;
    bool trace_cache = true;
    std::string trace_dir = "traces";
    /** --sizes= / --blocks= lists; empty = the bench's defaults. */
    std::vector<int> sizes;
    std::vector<int> blocks;

    /** The workload config: paper defaults scaled down by --scale. */
    SuiteConfig suiteConfig() const;

    /** The trace options implied by the flags. */
    TraceOptions traceOptions() const;

    /** The machine --model selected (with default timer parameters). */
    sim::MachineConfig machineConfig() const;

    /** Convenience: a suite built from the three above. */
    BenchmarkSuite makeSuite() const;
};

/**
 * Parse the shared flags. Prints usage and exits on --help or an
 * unrecognized/malformed argument, so bench mains can assume a valid
 * result.
 */
BenchOptions parseBenchArgs(int argc, char **argv);

/**
 * Parse "@p name=N" with N a decimal integer in [0, 1<<20] into @p out.
 * False when @p arg is another flag or N is malformed or out of range
 * (empty, trailing characters, negative); @p out is then unchanged.
 */
bool parseIntFlag(const char *arg, const char *name, int *out);

/**
 * Parse a comma-separated list of positive integers ("16,32,48") into
 * @p out. Rejects empty input, empty elements, non-digits, zero, and
 * values above 1<<20; on failure @p out is left unchanged. This is the
 * shared parser behind --sizes=/--blocks= — benches with their own
 * list-valued flags should reuse it rather than hand-rolling strtol
 * loops.
 */
bool parseIntList(const char *text, std::vector<int> *out);

/**
 * runAll() wrapped in a wall-clock measurement, with a stderr
 * provenance footer (captured vs disk-cache-replayed pair counts,
 * worker threads, elapsed time). Tables on stdout stay byte-identical
 * across runs; the footer shows where the numbers came from.
 */
void runAllTimed(BenchmarkSuite &suite, int threads);

} // namespace mmxdsp::harness

#endif // MMXDSP_HARNESS_CLI_HH
