#include "common.hh"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>

namespace pipebench {

using namespace mmxdsp;

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t rank = static_cast<size_t>(
        std::max(1.0, std::ceil(p * static_cast<double>(v.size()))));
    return v[std::min(rank, v.size()) - 1];
}

double
Series::lowest() const
{
    return values_.empty() ? 0.0
                           : *std::min_element(values_.begin(), values_.end());
}

namespace {
volatile uint64_t probe_sink;
} // namespace

double
coreProbe()
{
    static uint32_t buf[4096] = {7};
    uint64_t a = 0, b = 0, c = 0, d = 0, e = 0, f = 0, g = 0, h = 0;
    const double t0 = now();
    for (uint32_t r = 0; r < 150; ++r)
        for (size_t i = 0; i < 4096; i += 8) {
            a += buf[i] * 3u;
            b ^= buf[i + 1] + r;
            c += buf[i + 2] >> 1;
            d += buf[i + 3] ^ a;
            e += buf[i + 4] * 5u;
            f ^= buf[i + 5] + b;
            g += buf[i + 6] << 2;
            h += buf[i + 7] ^ c;
            buf[i] += static_cast<uint32_t>(h);
        }
    const double seconds = now() - t0;
    probe_sink = a + b + c + d + e + f + g + h;
    return seconds;
}

void
Timings::add(double seconds, double probe, size_t group)
{
    groups_.at(group).push_back({seconds, probe});
}

size_t
Timings::size() const
{
    size_t n = 0;
    for (const auto &group : groups_)
        n += group.size();
    return n;
}

double
Timings::quiet() const
{
    double sum = 0.0;
    for (const auto &group : groups_) {
        std::vector<double> scaled;
        for (const Sample &s : group)
            scaled.push_back(s.seconds * std::pow(kQuietProbeS / s.probe,
                                                  kProbeExponent));
        sum += median(scaled);
    }
    return sum;
}

double
Timings::measured() const
{
    double sum = 0.0;
    for (const auto &group : groups_) {
        std::vector<double> seconds;
        for (const Sample &s : group)
            seconds.push_back(s.seconds);
        sum += median(seconds);
    }
    return sum;
}

void
Series::print(const char *name) const
{
    std::printf("# samples %s:", name);
    for (double x : values_)
        std::printf(" %.6g", x);
    std::printf("\n");
}

uint64_t
dirBytes(const fs::path &dir)
{
    uint64_t bytes = 0;
    std::error_code ec;
    for (auto it = fs::recursive_directory_iterator(dir, ec);
         !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
        if (it->is_regular_file(ec))
            bytes += it->file_size(ec);
    }
    return bytes;
}

void
resetPeakRss()
{
    malloc_trim(0);
    std::FILE *f = std::fopen("/proc/self/clear_refs", "w");
    bool ok = f && std::fputs("5", f) >= 0;
    if (f)
        ok = std::fclose(f) == 0 && ok;
    if (!ok)
        std::printf("# peak_rss_mb covers the whole process: cannot reset "
                    "the resident set high-water mark\n");
}

double
peakRssMb()
{
    // VmHWM follows resetPeakRss(); ru_maxrss never goes down.
    if (std::FILE *f = std::fopen("/proc/self/status", "r")) {
        char line[256];
        unsigned long long kb = 0;
        bool found = false;
        while (!found && std::fgets(line, sizeof(line), f))
            found = std::sscanf(line, "VmHWM: %llu kB", &kb) == 1;
        std::fclose(f);
        if (found)
            return static_cast<double>(kb) * 1024.0 / 1e6;
    }
    struct rusage usage
    {
    };
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;
}

bool
sameProfile(const profile::ProfileResult &a, const profile::ProfileResult &b)
{
    const auto sameFunctions = [&] {
        return std::equal(
            a.functions.begin(), a.functions.end(), b.functions.begin(),
            b.functions.end(), [](const auto &x, const auto &y) {
                return x.first == y.first && x.second.calls == y.second.calls
                       && x.second.instructions == y.second.instructions
                       && x.second.cycles == y.second.cycles;
            });
    };
    const auto sameCache = [](const mem::CacheStats &x,
                              const mem::CacheStats &y) {
        return x.accesses == y.accesses && x.misses == y.misses
               && x.evictions == y.evictions && x.writebacks == y.writebacks;
    };
    const sim::TimerStats &ta = a.timer, &tb = b.timer;
    return a.dynamicInstructions == b.dynamicInstructions
           && a.staticInstructions == b.staticInstructions
           && a.uops == b.uops && a.cycles == b.cycles
           && a.memoryReferences == b.memoryReferences
           && a.mmxInstructions == b.mmxInstructions
           && a.mmxByCategory == b.mmxByCategory
           && a.functionCalls == b.functionCalls
           && a.callRetCycles == b.callRetCycles
           && a.callOverheadCycles == b.callOverheadCycles
           && a.opCounts == b.opCounts && sameFunctions()
           && ta.instructions == tb.instructions && ta.pairs == tb.pairs
           && ta.memPenaltyCycles == tb.memPenaltyCycles
           && ta.mispredictCycles == tb.mispredictCycles
           && ta.dependStallCycles == tb.dependStallCycles
           && ta.blockingExtraCycles == tb.blockingExtraCycles
           && ta.uopsIssued == tb.uopsIssued
           && ta.retireStallCycles == tb.retireStallCycles
           && ta.portStallCycles == tb.portStallCycles
           && sameCache(a.l1, b.l1) && sameCache(a.l2, b.l2)
           && a.btb.branches == b.btb.branches
           && a.btb.mispredicts == b.btb.mispredicts
           && a.btb.missesInBtb == b.btb.missesInBtb;
}

harness::SuiteConfig
suiteConfig(int scale, uint64_t seed)
{
    harness::SuiteConfig config;
    config.scaleDown(scale);
    config.seed = seed;
    return config;
}

std::vector<sim::TimerConfig>
cacheGeometries()
{
    std::vector<sim::TimerConfig> out;
    for (uint32_t l1_kb : {4, 8, 16, 32})
        for (uint32_t l2_kb : {128, 512, 2048}) {
            sim::TimerConfig t;
            t.l1.size_bytes = l1_kb * 1024;
            t.l2.size_bytes = l2_kb * 1024;
            out.push_back(t);
        }
    return out;
}

std::vector<sim::MachineConfig>
p5Geometries()
{
    std::vector<sim::MachineConfig> out;
    for (const sim::TimerConfig &t : cacheGeometries())
        out.push_back({sim::ModelKind::P5, t});
    return out;
}

std::vector<sim::MachineConfig>
sweepMachines()
{
    std::vector<sim::MachineConfig> out;
    for (sim::ModelKind model :
         {sim::ModelKind::P5, sim::ModelKind::P6, sim::ModelKind::P6P})
        for (const sim::TimerConfig &t : cacheGeometries())
            out.push_back({model, t});
    return out;
}

std::string
pairName(const std::pair<std::string, std::string> &pair)
{
    return pair.first + "." + pair.second;
}

// -- QueryMix ---------------------------------------------------------------

const char *
QueryMix::className(Class cls)
{
    switch (cls) {
      case Hot:
        return "hot";
      case ColdPenalty:
        return "cold_penalty";
      case ColdGeometry:
        return "cold_geometry";
    }
    return "?";
}

QueryMix::QueryMix(uint64_t seed) : rng_(seed ^ 0x51a5eedull) {}

std::vector<std::string>
QueryMix::hotLines()
{
    // The service_load hot machines: both paper models plus a small L1
    // and a small BTB.
    static const char *const kHotMachines[] = {
        "", " model=p6", " l1=8192", " model=p6 btb=128"};
    std::vector<std::string> lines;
    for (const auto &[bench, version] :
         harness::BenchmarkSuite::allRuns())
        for (const char *machine : kHotMachines)
            lines.push_back(bench + " " + version + machine);
    return lines;
}

template <typename T>
T
QueryMix::deal(std::vector<T> &deck, const std::vector<T> &full)
{
    if (deck.empty()) {
        deck = full;
        for (size_t i = deck.size() - 1; i > 0; --i)
            std::swap(deck[i],
                      deck[rng_.nextBelow(static_cast<uint32_t>(i + 1))]);
    }
    const T card = deck.back();
    deck.pop_back();
    return card;
}

QueryMix::Line
QueryMix::next()
{
    static const std::vector<std::string> hot = hotLines();
    static const auto pairs = harness::BenchmarkSuite::allRuns();
    static const char *const kModels[] = {"p5", "p6", "p6p"};
    static const std::vector<Class> kClasses = [] {
        std::vector<Class> deck(207, Hot);
        deck.insert(deck.end(), 18, ColdPenalty);
        deck.insert(deck.end(), 5, ColdGeometry);
        return deck;
    }();
    static const std::vector<uint32_t> kPairs = [] {
        std::vector<uint32_t> deck(pairs.size());
        for (uint32_t i = 0; i < deck.size(); ++i)
            deck[i] = i;
        return deck;
    }();

    const Class cls = deal(classes_, kClasses);
    if (cls == Hot)
        return {hot[rng_.nextBelow(static_cast<uint32_t>(hot.size()))], Hot};

    const auto &[bench, version] = pairs[deal(pairs_, kPairs)];
    const char *model = kModels[unique_ % 3];
    const unsigned long long penalty = 16 + unique_++;
    char buf[160];
    if (cls == ColdPenalty) {
        std::snprintf(buf, sizeof(buf), "%s %s model=%s mp=%llu",
                      bench.c_str(), version.c_str(), model, penalty);
        return {buf, ColdPenalty};
    }
    static const uint32_t kL1Kb[] = {4, 8, 16, 32, 64};
    static const uint32_t kWays[] = {1, 2, 4, 8};
    static const uint32_t kLine[] = {16, 32, 64};
    static const uint32_t kL2Kb[] = {128, 256, 512, 1024, 2048};
    const uint32_t l1 = kL1Kb[rng_.nextBelow(5)] * 1024;
    const uint32_t ways = kWays[rng_.nextBelow(4)];
    const uint32_t line = kLine[rng_.nextBelow(3)];
    const uint32_t l2 = kL2Kb[rng_.nextBelow(5)] * 1024;
    std::snprintf(buf, sizeof(buf),
                  "%s %s model=%s l1=%u l1_ways=%u l1_line=%u l2=%u mp=%llu",
                  bench.c_str(), version.c_str(), model, l1, ways, line, l2,
                  penalty);
    return {buf, ColdGeometry};
}

// -- Run --------------------------------------------------------------------

void
Run::check(bool ok, const std::string &what)
{
    ++attempted_;
    if (!ok) {
        ++failed_;
        std::fprintf(stderr, "pipebench: check failed: %s\n", what.c_str());
    }
}

void
Run::metric(const std::string &name, double value, const char *unit)
{
    metrics_.push_back({name, value, unit});
}

std::string
Run::configJson() const
{
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "{\"workload\": \"%s\", \"seed\": %llu, \"scale\": %d, "
                  "\"threads\": %d, \"nproc\": %ld, \"build_type\": \"%s\", "
                  "\"seconds\": %g, \"traced\": %s, \"smoke\": %s}",
                  workload.c_str(), static_cast<unsigned long long>(seed),
                  suite_scale, kThreads, sysconf(_SC_NPROCESSORS_ONLN),
                  PIPEBENCH_BUILD_TYPE, seconds, traced ? "true" : "false",
                  smoke ? "true" : "false");
    return buf;
}

void
Run::printResult(const std::vector<std::string> &expected) const
{
    std::set<std::string> reported;
    for (const Metric &m : metrics_)
        reported.insert(m.name);
    bool complete = reported.size() == metrics_.size();
    for (const std::string &name : expected)
        complete = complete && reported.count(name);
    if (!complete || reported.size() != expected.size()) {
        std::fprintf(stderr, "pipebench: metric set does not match the "
                             "benchmark definition\n");
        std::exit(3);
    }

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                failed_ == 0 && attempted_ > 0 ? "true" : "false",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_));
    for (size_t i = 0; i < metrics_.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics_[i].name.c_str(),
                    metrics_[i].value, metrics_[i].unit.c_str());
    std::printf("}}\n");
    std::fflush(stdout);
}

Served
serveLine(Run &run, service::QueryEngine &engine, const std::string &line,
          QueryMix::Class cls, uint64_t request)
{
    Served out;
    SpanScope span(run.tracer,
                   std::string("query.") + QueryMix::className(cls), request);
    const double t0 = now();
    std::string error;
    bool parsed = false;
    {
        SpanScope parse(run.tracer, "service.parse");
        parsed = service::QueryEngine::parseQueryLine(line, &out.query, &error);
    }
    if (parsed) {
        SpanScope query(run.tracer, "service.query");
        service::QueryResult r = engine.query(out.query);
        out.ok = r.ok;
        out.hit = r.from_result_cache;
        out.profile = std::move(r.profile);
        if (!r.ok)
            error = r.error;
    }
    out.seconds = now() - t0;
    run.check(out.ok, "query '" + line + "': " + error);
    return out;
}

const std::vector<std::string> &
endToEndMetrics()
{
    static const std::vector<std::string> names = {
        "setup_s", "cold_s",      "warm_s",     "qps",
        "lane_events_per_s", "corpus_mb", "peak_rss_mb",
    };
    return names;
}

const std::vector<std::string> &
perLayerMetrics()
{
    static const std::vector<std::string> names = {
        "runtime.capture_ns_per_event",
        "runtime.events",
        "trace.seal_ns_per_event",
        "trace.load_ns_per_event",
        "trace.resident_bytes_per_event",
        "trace.sweep1_ns_per_event",
        "trace.scalar1_ns_per_event",
        "trace.sweep12_ns_per_lane_event",
        "trace.sweep36_ns_per_lane_event",
        "trace.scalar36_ns_per_lane_event",
        "sim.p5_ns_per_event",
        "sim.p6_ns_per_event",
        "sim.p6p_ns_per_event",
        "service.publish_ns_per_event",
        "service.load_ns_per_event",
        "service.store_bytes_per_event",
        "service.parse_us",
        "service.hit_us_p50",
        "service.hit_us_p99",
        "service.cold_penalty_ms_p50",
        "service.cold_penalty_ms_p99",
        "service.cold_geometry_ms_p50",
        "service.cold_geometry_ms_p99",
        "service.hit_rate",
        "service.replays",
        "service.store_loads",
        "service.failures",
        "harness.suite_setup_ms",
        "bench.tracing_overhead_pct",
    };
    return names;
}

double
overheadPct(double untraced, double traced)
{
    return untraced > 0.0 ? (traced - untraced) / untraced * 100.0 : 0.0;
}

} // namespace pipebench
