#include "suite.hh"

#include <algorithm>

#include "apps/g722/g722_app.hh"
#include "apps/image/image_app.hh"
#include "apps/jpeg/jpeg_encoder.hh"
#include "apps/radar/radar_app.hh"
#include "kernels/fft.hh"
#include "kernels/fir.hh"
#include "kernels/gemm.hh"
#include "kernels/iir.hh"
#include "kernels/matvec.hh"
#include "runtime/cpu.hh"
#include "service/query_engine.hh"
#include "support/logging.hh"
#include "trace/format.hh"
#include "trace/materialize_sink.hh"
#include "workloads/image_data.hh"

namespace mmxdsp::harness {

void
SuiteConfig::scaleDown(int factor)
{
    if (factor <= 1)
        return;
    fir_samples = std::max(64, fir_samples / factor);
    iir_samples = std::max(64, iir_samples / factor);
    while (fft_size / factor < fft_size && fft_size > 64)
        fft_size /= 2;
    matvec_dim = std::max(32, matvec_dim / factor);
    // Odd floors on purpose: scaled suites keep exercising the gemm
    // kernels' non-multiple-of-4 and non-multiple-of-block tail paths.
    gemm_dim = std::max(27, gemm_dim / factor);
    gemm_block = std::max(10, gemm_block / factor);
    image_width = std::max(48, image_width / factor);
    image_height = std::max(48, image_height / factor);
    jpeg_width = std::max(32, jpeg_width / factor);
    jpeg_height = std::max(32, jpeg_height / factor);
    g722_samples = std::max(256, g722_samples / factor);
    radar_echoes = std::max(65, radar_echoes / factor);
}

uint64_t
SuiteConfig::hash() const
{
    uint64_t h = 0xcbf29ce484222325ull;
    h = trace::fnv1aMix(h, kTraceKeySalt);
    h = trace::fnv1aMix(h, static_cast<uint64_t>(fir_samples));
    h = trace::fnv1aMix(h, static_cast<uint64_t>(iir_samples));
    h = trace::fnv1aMix(h, static_cast<uint64_t>(fft_size));
    h = trace::fnv1aMix(h, static_cast<uint64_t>(matvec_dim));
    h = trace::fnv1aMix(h, static_cast<uint64_t>(gemm_dim));
    h = trace::fnv1aMix(h, static_cast<uint64_t>(gemm_block));
    h = trace::fnv1aMix(h, static_cast<uint64_t>(image_width));
    h = trace::fnv1aMix(h, static_cast<uint64_t>(image_height));
    h = trace::fnv1aMix(h, static_cast<uint64_t>(jpeg_width));
    h = trace::fnv1aMix(h, static_cast<uint64_t>(jpeg_height));
    h = trace::fnv1aMix(h, static_cast<uint64_t>(jpeg_quality));
    h = trace::fnv1aMix(h, static_cast<uint64_t>(g722_samples));
    h = trace::fnv1aMix(h, static_cast<uint64_t>(radar_echoes));
    h = trace::fnv1aMix(h, seed);
    return h;
}

struct PairRunner::Impl
{
    uint64_t configHash;
    kernels::FirBenchmark fir;
    kernels::IirBenchmark iir;
    kernels::FftBenchmark fft;
    kernels::MatvecBenchmark matvec;
    kernels::GemmBenchmark gemm;
    apps::jpeg::JpegBenchmark jpeg;
    apps::image::ImageBenchmark image;
    apps::g722::G722Benchmark g722;
    apps::radar::RadarBenchmark radar;
    runtime::Cpu cpu;
};

namespace {

/** One registered pair: its names and how it runs. */
struct Pair
{
    const char *benchmark;
    const char *version;
    void (*run)(PairRunner::Impl &w);
};

/** The pair registry, kernels first (paper order). */
const Pair kPairs[] = {
    {"fft", "c", [](auto &w) { w.fft.runC(w.cpu); }},
    {"fft", "fp", [](auto &w) { w.fft.runFp(w.cpu); }},
    {"fft", "mmx", [](auto &w) { w.fft.runMmx(w.cpu); }},
    {"fir", "c", [](auto &w) { w.fir.runC(w.cpu); }},
    {"fir", "fp", [](auto &w) { w.fir.runFp(w.cpu); }},
    {"fir", "mmx", [](auto &w) { w.fir.runMmx(w.cpu); }},
    {"iir", "c", [](auto &w) { w.iir.runC(w.cpu); }},
    {"iir", "fp", [](auto &w) { w.iir.runFp(w.cpu); }},
    {"iir", "mmx", [](auto &w) { w.iir.runMmx(w.cpu); }},
    {"matvec", "c", [](auto &w) { w.matvec.runC(w.cpu); }},
    {"matvec", "mmx", [](auto &w) { w.matvec.runMmx(w.cpu); }},
    {"gemm", "c", [](auto &w) { w.gemm.runC(w.cpu); }},
    {"gemm", "c_blocked", [](auto &w) { w.gemm.runCBlocked(w.cpu); }},
    {"gemm", "mmx", [](auto &w) { w.gemm.runMmx(w.cpu); }},
    {"gemm", "mmx_blocked", [](auto &w) { w.gemm.runMmxBlocked(w.cpu); }},
    {"radar", "c", [](auto &w) { w.radar.runC(w.cpu); }},
    {"radar", "mmx", [](auto &w) { w.radar.runMmx(w.cpu); }},
    {"g722", "c", [](auto &w) { w.g722.runC(w.cpu); }},
    {"g722", "mmx", [](auto &w) { w.g722.runMmx(w.cpu); }},
    {"jpeg", "c", [](auto &w) { w.jpeg.runC(w.cpu); }},
    {"jpeg", "mmx", [](auto &w) { w.jpeg.runMmx(w.cpu); }},
    {"image", "c", [](auto &w) { w.image.runC(w.cpu); }},
    {"image", "mmx", [](auto &w) { w.image.runMmx(w.cpu); }},
};

const Pair *
findPair(const std::string &benchmark, const std::string &version)
{
    for (const Pair &p : kPairs)
        if (benchmark == p.benchmark && version == p.version)
            return &p;
    return nullptr;
}

service::EngineOptions
engineOptions(const SuiteConfig &config, const TraceOptions &trace_options)
{
    service::EngineOptions opts;
    opts.store.root = trace_options.enabled ? trace_options.dir : "";
    opts.suite = config;
    // Every trace of a scale-8 corpus (21 MB) stays resident across a
    // bench's sweeps, while a full-scale run (0.64 GB) keeps little
    // beyond the traces it is replaying.
    opts.trace_cache_bytes = size_t{32} << 20;
    return opts;
}

} // namespace

PairRunner::PairRunner(const SuiteConfig &config)
    : impl_(std::make_unique<Impl>())
{
    impl_->configHash = config.hash();
    impl_->fir.setup(config.fir_samples, config.seed);
    impl_->iir.setup(config.iir_samples, config.seed + 1);
    impl_->fft.setup(config.fft_size, config.seed + 2);
    impl_->matvec.setup(config.matvec_dim, config.seed + 3);
    impl_->gemm.setup(config.gemm_dim, config.gemm_block, config.seed + 8);
    impl_->jpeg.setup(
        workloads::makeTestImage(config.jpeg_width, config.jpeg_height,
                                 config.seed + 4),
        config.jpeg_quality);
    impl_->image.setup(workloads::makeTestImage(
        config.image_width, config.image_height, config.seed + 5));
    impl_->g722.setup(config.g722_samples, config.seed + 6);
    workloads::RadarScenario scenario;
    scenario.num_echoes = config.radar_echoes;
    scenario.seed = config.seed + 7;
    impl_->radar.setup(scenario);
}

PairRunner::~PairRunner() = default;

bool
PairRunner::known(const std::string &benchmark, const std::string &version)
{
    return findPair(benchmark, version) != nullptr;
}

void
PairRunner::execute(const std::string &benchmark, const std::string &version,
                    sim::TraceSink *sink)
{
    const Pair *pair = findPair(benchmark, version);
    if (!pair)
        mmxdsp_fatal("unknown benchmark run %s.%s", benchmark.c_str(),
                     version.c_str());
    impl_->cpu.attachSink(sink);
    pair->run(*impl_);
    impl_->cpu.attachSink(nullptr);
}

std::shared_ptr<const trace::MaterializedTrace>
PairRunner::capture(const std::string &benchmark, const std::string &version)
{
    // Capture-only pass: no profiler attached, so the capture costs
    // functional execution plus packing the records, not a timing-model
    // run.
    trace::MaterializeSink sink(benchmark, version, impl_->configHash);
    execute(benchmark, version, &sink);
    return std::make_shared<const trace::MaterializedTrace>(
        sink.finish(&impl_->cpu));
}

BenchmarkSuite::BenchmarkSuite(const SuiteConfig &config,
                               const TraceOptions &trace_options,
                               const sim::MachineConfig &machine)
    : machine_(machine),
      engine_(std::make_unique<service::QueryEngine>(
          engineOptions(config, trace_options)))
{
    // The workloads are set up with the suite, so a capture costs
    // execution alone (perfbench times the two as separate layers).
    engine_->runner();
}

BenchmarkSuite::~BenchmarkSuite() = default;

const SuiteConfig &
BenchmarkSuite::config() const
{
    return engine_->options().suite;
}

const std::string &
BenchmarkSuite::traceDir() const
{
    return engine_->options().store.root;
}

void
BenchmarkSuite::executeLive(const std::string &benchmark,
                            const std::string &version, sim::TraceSink *sink)
{
    engine_->runner().execute(benchmark, version, sink);
}

std::shared_ptr<const trace::MaterializedTrace>
BenchmarkSuite::capture(const std::string &benchmark,
                        const std::string &version, bool *published)
{
    return engine_->capture(benchmark, version, published);
}

std::shared_ptr<const trace::MaterializedTrace>
BenchmarkSuite::materializedFor(const std::string &benchmark,
                                const std::string &version)
{
    std::string error;
    auto mat = engine_->trace(benchmark, version, &error);
    if (!mat)
        mmxdsp_fatal("%s.%s: %s", benchmark.c_str(), version.c_str(),
                     error.c_str());
    return mat;
}

RunResult
BenchmarkSuite::run(const std::string &benchmark, const std::string &version)
{
    service::QueryResult r = engine_->query({benchmark, version, machine_});
    if (!r.ok)
        mmxdsp_fatal("%s.%s: %s", benchmark.c_str(), version.c_str(),
                     r.error.c_str());
    return {benchmark, version, std::move(r.profile)};
}

void
BenchmarkSuite::runAll(int n_threads)
{
    std::vector<service::Query> queries;
    for (const auto &[benchmark, version] : allRuns())
        queries.push_back({benchmark, version, machine_});
    engine_->queryBatch(queries, n_threads);
}

std::vector<profile::ProfileResult>
BenchmarkSuite::sweep(const std::string &benchmark,
                      const std::string &version,
                      const std::vector<sim::MachineConfig> &machines,
                      int threads)
{
    return materializedFor(benchmark, version)
        ->replaySweep(machines, threads);
}

std::vector<std::pair<std::string, std::string>>
BenchmarkSuite::allRuns()
{
    std::vector<std::pair<std::string, std::string>> runs;
    for (const Pair &p : kPairs)
        runs.emplace_back(p.benchmark, p.version);
    return runs;
}

BenchmarkSuite::TraceActivity
BenchmarkSuite::traceActivity() const
{
    const service::EngineStats stats = engine_->stats();
    return {static_cast<int>(stats.captures),
            static_cast<int>(stats.store_loads)};
}

double
BenchmarkSuite::speedup(const std::string &benchmark)
{
    return static_cast<double>(run(benchmark, "c").profile.cycles)
           / static_cast<double>(run(benchmark, "mmx").profile.cycles);
}

std::vector<std::string>
BenchmarkSuite::benchmarksBySpeedup()
{
    std::vector<std::string> names{"jpeg", "g722", "radar", "fir",
                                   "fft",  "iir",  "image", "matvec"};
    std::sort(names.begin(), names.end(),
              [&](const std::string &a, const std::string &b) {
                  return speedup(a) < speedup(b);
              });
    return names;
}

} // namespace mmxdsp::harness
