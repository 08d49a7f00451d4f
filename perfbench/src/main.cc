/**
 * @file
 * pipebench — the pipeline benchmark's executable.
 *
 *   pipebench --workload corpus_cold|cache_sweep|vprofd_mix --seed N
 *             --seconds S --trace 0|1 --work DIR [--spans FILE] [--smoke]
 *
 * Runs one workload for about S seconds and prints, as the last line of
 * stdout, one JSON object with the keys correct, attempted, failed and
 * metrics: the end-to-end metrics untraced, the per-layer metrics with
 * --trace 1 (which also writes every span to --spans). Lines before it
 * start with '#' and are for people. --smoke shrinks every workload to
 * a tiny scale for the benchmark's own test.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.hh"

using namespace pipebench;

namespace {

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload corpus_cold|cache_sweep|vprofd_mix "
                 "--seed N --seconds S --trace 0|1 --work DIR "
                 "[--spans FILE] [--smoke]\n",
                 argv0);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    Run run;
    int trace = -1;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--smoke") {
            run.smoke = true;
        } else if (!has_value) {
            usage(argv[0]);
        } else if (arg == "--workload") {
            run.workload = argv[++i];
        } else if (arg == "--seed") {
            run.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--seconds") {
            run.seconds = std::atof(argv[++i]);
        } else if (arg == "--trace") {
            trace = std::atoi(argv[++i]);
        } else if (arg == "--work") {
            run.work = argv[++i];
        } else if (arg == "--spans") {
            run.spans_out = argv[++i];
        } else {
            usage(argv[0]);
        }
    }
    void (*workload)(Run &) = nullptr;
    if (run.workload == "corpus_cold")
        workload = runCorpusCold;
    else if (run.workload == "cache_sweep")
        workload = runCacheSweep;
    else if (run.workload == "vprofd_mix")
        workload = runVprofdMix;
    if (!workload || (trace != 0 && trace != 1) || run.work.empty()
        || !(run.seconds > 0.0))
        usage(argv[0]);
    run.traced = trace == 1;

    // The program reads these to relocate or force its trace cache; the
    // benchmark chooses every directory itself.
    unsetenv("MMXDSP_TRACE_DIR");
    unsetenv("MMXDSP_TRACE_CACHE");
    unsetenv("MMXDSP_SWEEP_DEBUG");

    try {
        fs::remove_all(run.work);
        fs::create_directories(run.work);
        workload(run);
        fs::remove_all(run.work);
        if (run.traced && !run.spans_out.empty()) {
            fs::create_directories(run.spans_out.parent_path());
            if (!run.tracer.write(run.spans_out, run.configJson()))
                std::fprintf(stderr, "pipebench: cannot write %s\n",
                             run.spans_out.c_str());
            else
                std::printf("# spans: %s (%zu)\n", run.spans_out.c_str(),
                            run.tracer.spans().size());
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "pipebench: %s\n", e.what());
        return 1;
    }

    run.printResult(run.traced ? perLayerMetrics() : endToEndMetrics());
    return 0;
}
