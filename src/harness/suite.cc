#include "suite.hh"

#include <algorithm>
#include <cstdlib>
#include <future>

#include "apps/g722/g722_app.hh"
#include "apps/image/image_app.hh"
#include "apps/jpeg/jpeg_encoder.hh"
#include "apps/radar/radar_app.hh"
#include "kernels/fft.hh"
#include "kernels/fir.hh"
#include "kernels/gemm.hh"
#include "kernels/iir.hh"
#include "kernels/matvec.hh"
#include "support/logging.hh"
#include "support/parallel.hh"
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

namespace {

/** The store root @p options resolve to under the environment
 *  overrides (see TraceOptions); empty means tracing is off. */
std::string
resolveTraceDir(const TraceOptions &options)
{
    bool enabled = options.enabled;
    if (const char *flag = std::getenv("MMXDSP_TRACE_CACHE")) {
        if (flag[0] == '0' && flag[1] == '\0')
            return {};
        enabled = true;
    }
    if (!enabled)
        return {};
    if (const char *env = std::getenv("MMXDSP_TRACE_DIR"); env && env[0])
        return env;
    return options.dir;
}

} // namespace

struct BenchmarkSuite::Impl
{
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

BenchmarkSuite::BenchmarkSuite(const SuiteConfig &config,
                               const TraceOptions &trace_options,
                               const sim::MachineConfig &machine)
    : config_(config),
      machine_(machine),
      impl_(std::make_unique<Impl>())
{
    if (std::string dir = resolveTraceDir(trace_options); !dir.empty()) {
        service::StoreOptions store;
        store.root = std::move(dir);
        store_ = std::make_unique<service::TraceStore>(std::move(store));
    }
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

BenchmarkSuite::~BenchmarkSuite() = default;

void
BenchmarkSuite::executeLive(const std::string &benchmark,
                            const std::string &version, sim::TraceSink *sink)
{
    runtime::Cpu &cpu = impl_->cpu;
    cpu.attachSink(sink);

    bool ok = true;
    if (benchmark == "fir") {
        if (version == "c")
            impl_->fir.runC(cpu);
        else if (version == "fp")
            impl_->fir.runFp(cpu);
        else if (version == "mmx")
            impl_->fir.runMmx(cpu);
        else
            ok = false;
    } else if (benchmark == "iir") {
        if (version == "c")
            impl_->iir.runC(cpu);
        else if (version == "fp")
            impl_->iir.runFp(cpu);
        else if (version == "mmx")
            impl_->iir.runMmx(cpu);
        else
            ok = false;
    } else if (benchmark == "fft") {
        if (version == "c")
            impl_->fft.runC(cpu);
        else if (version == "fp")
            impl_->fft.runFp(cpu);
        else if (version == "mmx")
            impl_->fft.runMmx(cpu);
        else if (version == "mmx_v1")
            impl_->fft.runMmxV1(cpu);
        else
            ok = false;
    } else if (benchmark == "matvec") {
        if (version == "c")
            impl_->matvec.runC(cpu);
        else if (version == "mmx")
            impl_->matvec.runMmx(cpu);
        else
            ok = false;
    } else if (benchmark == "gemm") {
        if (version == "c")
            impl_->gemm.runC(cpu);
        else if (version == "c_blocked")
            impl_->gemm.runCBlocked(cpu);
        else if (version == "mmx")
            impl_->gemm.runMmx(cpu);
        else if (version == "mmx_blocked")
            impl_->gemm.runMmxBlocked(cpu);
        else
            ok = false;
    } else if (benchmark == "jpeg") {
        if (version == "c")
            impl_->jpeg.runC(cpu);
        else if (version == "mmx")
            impl_->jpeg.runMmx(cpu);
        else
            ok = false;
    } else if (benchmark == "image") {
        if (version == "c")
            impl_->image.runC(cpu);
        else if (version == "mmx")
            impl_->image.runMmx(cpu);
        else
            ok = false;
    } else if (benchmark == "g722") {
        if (version == "c")
            impl_->g722.runC(cpu);
        else if (version == "mmx")
            impl_->g722.runMmx(cpu);
        else
            ok = false;
    } else if (benchmark == "radar") {
        if (version == "c")
            impl_->radar.runC(cpu);
        else if (version == "mmx")
            impl_->radar.runMmx(cpu);
        else
            ok = false;
    } else {
        ok = false;
    }
    cpu.attachSink(nullptr);
    if (!ok)
        mmxdsp_fatal("unknown benchmark run %s.%s", benchmark.c_str(),
                     version.c_str());
}

std::shared_ptr<const trace::MaterializedTrace>
BenchmarkSuite::capture(const std::string &benchmark,
                        const std::string &version, bool *published)
{
    // Capture-only pass: no profiler attached, so the capture costs
    // functional execution plus packing the records, not a timing-model
    // run.
    const uint64_t h = config_.hash();
    trace::MaterializeSink sink(benchmark, version, h);
    executeLive(benchmark, version, &sink);
    auto mat = std::make_shared<const trace::MaterializedTrace>(
        sink.finish(&impl_->cpu));
    ++activity_.captured;
    const bool stored = store_ && store_->store(benchmark, version, h, *mat);
    if (published)
        *published = stored;
    return mat;
}

std::shared_ptr<const trace::MaterializedTrace>
BenchmarkSuite::materializedFor(const std::string &benchmark,
                                const std::string &version)
{
    const std::string key = benchmark + "." + version;
    auto it = materialized_.find(key);
    if (it != materialized_.end())
        return it->second;

    std::shared_ptr<const trace::MaterializedTrace> mat;
    if (store_ && (mat = store_->load(benchmark, version, config_.hash())))
        ++activity_.disk_hits;
    else
        mat = capture(benchmark, version);
    materialized_.emplace(key, mat);
    return mat;
}

const RunResult &
BenchmarkSuite::run(const std::string &benchmark, const std::string &version)
{
    const std::string key = benchmark + "." + version;
    auto it = cache_.find(key);
    if (it != cache_.end())
        return it->second;

    RunResult result;
    result.benchmark = benchmark;
    result.version = version;
    // A pair already captured by this suite (sweep()/materializedFor())
    // replays too, so run() and sweep() see one event stream.
    if (store_ || materialized_.count(key)) {
        result.profile =
            materializedFor(benchmark, version)->replayProfile(machine_);
        result.replayed = true;
    } else {
        profile::VProf prof(machine_);
        executeLive(benchmark, version, &prof);
        result.profile = prof.result();
    }
    return cache_.emplace(key, std::move(result)).first->second;
}

void
BenchmarkSuite::runAll(int n_threads)
{
    struct Job
    {
        std::string benchmark;
        std::string version;
        std::shared_ptr<const trace::MaterializedTrace> mat;
        profile::ProfileResult profile;
        bool done = false; ///< profile filled
    };

    // Phase 1: gather every pair still to be measured; a pair this
    // suite already holds a trace for replays that trace.
    std::vector<Job> jobs;
    for (const auto &[benchmark, version] : allRuns()) {
        const std::string key = benchmark + "." + version;
        if (cache_.count(key))
            continue;
        Job job{benchmark, version, nullptr, {}};
        if (auto it = materialized_.find(key); it != materialized_.end())
            job.mat = it->second;
        jobs.push_back(std::move(job));
    }

    // Phase 2 (parallel): the store lookups — mapping and checksumming
    // an image costs real time, and each load is independent. A loaded
    // trace is replayed at once and dropped (a later materializedFor()
    // maps it again), so the corpus is never resident all at once.
    if (store_) {
        const uint64_t h = config_.hash();
        parallelFor(jobs.size(), n_threads, [&](size_t i) {
            Job &job = jobs[i];
            if (job.mat)
                return;
            if (auto loaded = store_->load(job.benchmark, job.version, h)) {
                job.profile = loaded->replayProfile(machine_);
                job.done = true;
            }
        });
        for (const Job &job : jobs)
            activity_.disk_hits += job.done;
    }

    // Phase 3 (serial): capture whatever the store didn't have. The
    // runtime executes single-threaded. A capture the store took is
    // replayed beside the next pair's execution and then dropped, so a
    // cold run holds about two traces rather than every one. A capture
    // the store could not take stays in materialized_: a recapture
    // could shift the address stream.
    const bool overlap = resolveThreads(n_threads) > 1;
    std::future<void> replaying; // destroyed before jobs: waits for its task
    for (Job &job : jobs) {
        if (job.mat || job.done)
            continue;
        bool published = false;
        auto mat = capture(job.benchmark, job.version, &published);
        if (!published) {
            job.mat = mat;
            materialized_.emplace(job.benchmark + "." + job.version, mat);
            continue;
        }
        auto replay = [this, &job, mat = std::move(mat)] {
            job.profile = mat->replayProfile(machine_);
            job.done = true;
        };
        if (replaying.valid())
            replaying.get();
        if (overlap)
            replaying = std::async(std::launch::async, std::move(replay));
        else
            replay();
    }
    if (replaying.valid())
        replaying.get();

    // Phase 4 (parallel): each worker replays a trace through its own
    // timing model; the shared traces are immutable.
    parallelFor(jobs.size(), n_threads, [&](size_t i) {
        if (!jobs[i].done)
            jobs[i].profile = jobs[i].mat->replayProfile(machine_);
    });

    for (Job &job : jobs) {
        RunResult result;
        result.benchmark = job.benchmark;
        result.version = job.version;
        result.profile = std::move(job.profile);
        result.replayed = true;
        cache_.emplace(job.benchmark + "." + job.version, std::move(result));
    }
}

std::vector<profile::ProfileResult>
BenchmarkSuite::sweep(const std::string &benchmark,
                      const std::string &version,
                      const std::vector<sim::TimerConfig> &configs,
                      int threads)
{
    return materializedFor(benchmark, version)
        ->replaySweep(configs, threads);
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
    return {
        {"fft", "c"},    {"fft", "fp"},  {"fft", "mmx"},
        {"fir", "c"},    {"fir", "fp"},  {"fir", "mmx"},
        {"iir", "c"},    {"iir", "fp"},  {"iir", "mmx"},
        {"matvec", "c"}, {"matvec", "mmx"},
        {"gemm", "c"},   {"gemm", "c_blocked"},
        {"gemm", "mmx"}, {"gemm", "mmx_blocked"},
        {"radar", "c"},  {"radar", "mmx"},
        {"g722", "c"},   {"g722", "mmx"},
        {"jpeg", "c"},   {"jpeg", "mmx"},
        {"image", "c"},  {"image", "mmx"},
    };
}

double
BenchmarkSuite::speedup(const std::string &benchmark)
{
    const RunResult &c = run(benchmark, "c");
    const RunResult &mmx = run(benchmark, "mmx");
    return static_cast<double>(c.profile.cycles)
           / static_cast<double>(mmx.profile.cycles);
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
