#include "cli.hh"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "support/parallel.hh"

namespace mmxdsp::harness {

namespace {

[[noreturn]] void
usage(const char *prog, int exit_code)
{
    std::printf(
        "usage: %s [--scale=N] [--threads=N] [--model=p5|p6|p6p]\n"
        "          [--trace-dir=PATH] [--no-trace-cache]\n"
        "          [--sizes=A,B,...] [--blocks=A,B,...]\n"
        "\n"
        "  --scale=N         shrink every workload by ~N for quick runs\n"
        "  --threads=N       replay worker threads (0 = auto)\n"
        "  --model=p5|p6|p6p     timing model profiles run on (default p5)\n"
        "  --trace-dir=PATH  instruction-trace store directory\n"
        "                    (default traces; MMXDSP_TRACE_DIR overrides)\n"
        "  --no-trace-cache  always execute; skip trace capture/replay\n"
        "  --sizes=A,B,...   problem sizes for size-sweeping benches\n"
        "  --blocks=A,B,...  block sizes for blocking-sweeping benches\n",
        prog);
    std::exit(exit_code);
}

bool
parseIntFlag(const char *arg, const char *name, int *out)
{
    const size_t len = std::strlen(name);
    if (std::strncmp(arg, name, len) != 0 || arg[len] != '=')
        return false;
    char *end = nullptr;
    const long v = std::strtol(arg + len + 1, &end, 10);
    if (end == arg + len + 1 || *end != '\0' || v < 0 || v > 1 << 20)
        return false;
    *out = static_cast<int>(v);
    return true;
}

/** --name=A,B,... list flag built on parseIntList. */
bool
parseListFlag(const char *arg, const char *name, std::vector<int> *out)
{
    const size_t len = std::strlen(name);
    if (std::strncmp(arg, name, len) != 0 || arg[len] != '=')
        return false;
    return parseIntList(arg + len + 1, out);
}

} // namespace

bool
parseIntList(const char *text, std::vector<int> *out)
{
    if (text == nullptr || *text == '\0')
        return false;
    std::vector<int> values;
    const char *p = text;
    while (true) {
        char *end = nullptr;
        const long v = std::strtol(p, &end, 10);
        if (end == p || v <= 0 || v > 1 << 20)
            return false;
        values.push_back(static_cast<int>(v));
        if (*end == '\0')
            break;
        if (*end != ',')
            return false;
        p = end + 1;
    }
    *out = std::move(values);
    return true;
}

SuiteConfig
BenchOptions::suiteConfig() const
{
    SuiteConfig config;
    config.scaleDown(scale);
    return config;
}

TraceOptions
BenchOptions::traceOptions() const
{
    TraceOptions topts;
    topts.enabled = trace_cache;
    topts.dir = trace_dir;
    return topts;
}

sim::MachineConfig
BenchOptions::machineConfig() const
{
    return sim::MachineConfig{model, sim::TimerConfig{}};
}

BenchmarkSuite
BenchOptions::makeSuite() const
{
    return BenchmarkSuite(suiteConfig(), traceOptions(), machineConfig());
}

BenchOptions
parseBenchArgs(int argc, char **argv)
{
    BenchOptions opts;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0)
            usage(argv[0], 0);
        else if (parseIntFlag(arg, "--scale", &opts.scale)) {
            if (opts.scale < 1)
                opts.scale = 1;
        } else if (parseIntFlag(arg, "--threads", &opts.threads)) {
        } else if (std::strncmp(arg, "--model=", 8) == 0) {
            if (!sim::parseModelName(arg + 8, &opts.model)) {
                std::fprintf(stderr, "%s: unknown model '%s'\n\n", argv[0],
                             arg + 8);
                usage(argv[0], 1);
            }
        } else if (std::strncmp(arg, "--trace-dir=", 12) == 0
                   && arg[12] != '\0') {
            opts.trace_dir = arg + 12;
        } else if (parseListFlag(arg, "--sizes", &opts.sizes)) {
        } else if (parseListFlag(arg, "--blocks", &opts.blocks)) {
        } else if (std::strcmp(arg, "--no-trace-cache") == 0) {
            opts.trace_cache = false;
        } else if (std::strcmp(arg, "--trace-cache") == 0) {
            opts.trace_cache = true;
        } else {
            std::fprintf(stderr, "%s: unrecognized argument '%s'\n\n",
                         argv[0], arg);
            usage(argv[0], 1);
        }
    }
    return opts;
}

void
runAllTimed(BenchmarkSuite &suite, int threads)
{
    const auto start = std::chrono::steady_clock::now();
    suite.runAll(threads);
    const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - start);

    const BenchmarkSuite::TraceActivity &activity = suite.traceActivity();
    const std::string dir = suite.traceDir();
    std::fprintf(
        stderr,
        "[harness] %d pair(s) captured live, %d replayed from %s; "
        "%d worker thread(s), %lld ms\n",
        activity.captured, activity.disk_hits,
        dir.empty() ? "(cache off)" : dir.c_str(),
        resolveThreads(threads),
        static_cast<long long>(elapsed.count()));
}

} // namespace mmxdsp::harness
