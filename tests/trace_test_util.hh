/**
 * @file
 * Helpers shared by the trace, format, capture and store tests: a
 * byte-wise FNV-1a digest, scratch directories, a small suite config,
 * random event streams captured through trace::MaterializeSink, every
 * registry pair captured next to its live profiles, a recording sink,
 * and the gtest check that two ProfileResults are bit-identical.
 */

#ifndef MMXDSP_TESTS_TRACE_TEST_UTIL_HH
#define MMXDSP_TESTS_TRACE_TEST_UTIL_HH

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <iterator>
#include <string>
#include <vector>

#include "harness/suite.hh"
#include "isa/event.hh"
#include "isa/op.hh"
#include "profile/vprof.hh"
#include "runtime/cpu.hh"
#include "sim/timing_model.hh"
#include "sim/trace_sink.hh"
#include "support/rng.hh"
#include "trace/materialize.hh"
#include "trace/materialize_sink.hh"

namespace mmxdsp::testutil {

namespace fs = std::filesystem;

/** The machine models every identity test covers. */
inline constexpr sim::ModelKind kModels[] = {
    sim::ModelKind::P5, sim::ModelKind::P6, sim::ModelKind::P6P};

/** Byte-wise FNV-1a over a byte range: the tests' digest of an image. */
inline uint64_t
fnv1a(const uint8_t *data, size_t size)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (size_t i = 0; i < size; ++i) {
        h ^= data[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

/** One P5 machine per timer configuration of @p configs. */
inline std::vector<sim::MachineConfig>
onP5(const std::vector<sim::TimerConfig> &configs)
{
    std::vector<sim::MachineConfig> machines;
    for (const sim::TimerConfig &config : configs)
        machines.push_back({sim::ModelKind::P5, config});
    return machines;
}

/** Fresh scratch directory under the temp dir, removed on destruction. */
struct ScratchDir
{
    fs::path path;

    explicit ScratchDir(const char *name)
        : path(fs::temp_directory_path() / name)
    {
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~ScratchDir() { fs::remove_all(path); }
};

/** The suite config the trace tests run: every workload scaled 1/16. */
inline harness::SuiteConfig
tinyConfig()
{
    harness::SuiteConfig config;
    config.scaleDown(16);
    return config;
}

/** A random instruction event over the whole op table. */
inline isa::InstrEvent
randomEvent(Rng &rng)
{
    isa::InstrEvent e;
    e.op = static_cast<isa::Op>(rng.nextBelow(isa::kNumOps));
    e.mem = static_cast<isa::MemMode>(rng.nextBelow(3));
    if (e.mem != isa::MemMode::None) {
        // Up to 8 address regions (high 32-bit halves, one of them 0)
        // under any low half: near and far addresses, as a capture's
        // heap, stack and static data give, within the trace image's
        // 128-region limit.
        e.addr = uint64_t{rng.nextBelow(8)} << 44 | (rng.next() >> 32);
        e.size = static_cast<uint8_t>(1u << rng.nextBelow(4));
    }
    e.site = rng.nextBelow(2000);
    auto tag = [&]() -> isa::RegTag {
        if (rng.nextBelow(4) == 0)
            return isa::kNoReg;
        return isa::makeTag(static_cast<isa::RegClass>(rng.nextBelow(3)),
                            static_cast<uint8_t>(rng.nextBelow(8)));
    };
    e.src0 = tag();
    e.src1 = tag();
    e.dst = tag();
    e.taken = rng.nextBelow(2) != 0;
    return e;
}

/**
 * Feed @p sink a random stream of about @p target_events events with
 * nested enter/leave markers (one in 20 steps enters, one leaves).
 */
inline void
feedRandomStream(uint64_t seed, int target_events, sim::TraceSink &sink)
{
    Rng rng(seed);
    int depth = 0;
    for (int i = 0; i < target_events; ++i) {
        const uint32_t roll = rng.nextBelow(20);
        if (roll == 0) {
            const char *names[] = {"alpha", "beta", "gamma", "delta"};
            sink.onEnterFunction(names[rng.nextBelow(4)]);
            ++depth;
        } else if (roll == 1 && depth > 0) {
            sink.onLeaveFunction();
            --depth;
        } else {
            const isa::InstrEvent e = randomEvent(rng);
            sink.onInstrBatch({&e, 1});
        }
    }
}

/** A random stream captured through a MaterializeSink (key "rand.c",
 *  config hash @p seed, no site metadata). */
inline trace::MaterializedTrace
randomTrace(uint64_t seed, int target_events)
{
    trace::MaterializeSink sink("rand", "c", seed);
    feedRandomStream(seed, target_events, sink);
    return sink.finish();
}

/** One registry pair: its capture and its live profile per model. */
struct PairCapture
{
    std::string name; ///< "bench.version"
    trace::MaterializedTrace mat;
    profile::ProfileResult live[std::size(kModels)]; ///< as kModels
};

/**
 * Every allRuns() pair at tinyConfig(), each executed once and observed
 * at once by a live VProf per model and a MaterializeSink (a second
 * execution need not reproduce the address stream, so it must be one).
 * Built on first use and shared by the tests of one process.
 */
inline const std::vector<PairCapture> &
everyPairCapture()
{
    static const std::vector<PairCapture> captures = [] {
        std::vector<PairCapture> out;
        harness::BenchmarkSuite suite(tinyConfig());
        // Site ids are process-global, so any Cpu resolves the metadata.
        runtime::Cpu cpu;
        for (const auto &[bench, version] :
             harness::BenchmarkSuite::allRuns()) {
            profile::VProf p5(sim::MachineConfig{kModels[0], {}});
            profile::VProf p6(sim::MachineConfig{kModels[1], {}});
            profile::VProf p6p(sim::MachineConfig{kModels[2], {}});
            trace::MaterializeSink sink(bench, version, tinyConfig().hash());
            sim::TeeSink t3(&p6p, &sink), t2(&p6, &t3), tee(&p5, &t2);
            suite.executeLive(bench, version, &tee);
            PairCapture &pc = out.emplace_back();
            pc.name = bench + "." + version;
            pc.mat = sink.finish(&cpu);
            pc.live[0] = p5.result();
            pc.live[1] = p6.result();
            pc.live[2] = p6p.result();
        }
        return out;
    }();
    return captures;
}

/** Sink that records everything for later comparison. */
struct RecordingSink final : sim::TraceSink
{
    std::vector<isa::InstrEvent> events;
    std::vector<std::string> enters;
    int leaves = 0;

    void onInstrBatch(std::span<const isa::InstrEvent> batch) override
    {
        events.insert(events.end(), batch.begin(), batch.end());
    }
    void onEnterFunction(const char *name) override
    {
        enters.emplace_back(name);
    }
    void onLeaveFunction() override { ++leaves; }
};

inline bool
sameEvent(const isa::InstrEvent &a, const isa::InstrEvent &b)
{
    return a.op == b.op && a.mem == b.mem && a.addr == b.addr
           && a.size == b.size && a.site == b.site && a.src0 == b.src0
           && a.src1 == b.src1 && a.dst == b.dst && a.taken == b.taken;
}

/** Expect @p got to be event for event, marker for marker @p want. */
inline void
expectSameStream(const RecordingSink &got, const RecordingSink &want)
{
    ASSERT_EQ(got.events.size(), want.events.size());
    for (size_t i = 0; i < got.events.size(); ++i)
        ASSERT_TRUE(sameEvent(got.events[i], want.events[i])) << "event " << i;
    EXPECT_EQ(got.enters, want.enters);
    EXPECT_EQ(got.leaves, want.leaves);
}

/**
 * Expect two profiles to be bit-identical: ProfileResult::operator==
 * decides; the message only names the parts that differ.
 */
inline void
expectSameProfile(const profile::ProfileResult &a,
                  const profile::ProfileResult &b, const std::string &what)
{
    EXPECT_TRUE(a == b)
        << what << ": cycles " << a.cycles << " vs " << b.cycles
        << (a.timer == b.timer ? "" : "; timer stats differ")
        << (a.l1 == b.l1 && a.l2 == b.l2 ? "" : "; cache stats differ")
        << (a.btb == b.btb ? "" : "; BTB stats differ")
        << (a.opCounts == b.opCounts ? "" : "; op counts differ")
        << (a.functions == b.functions ? "" : "; function stats differ");
}

} // namespace mmxdsp::testutil

#endif // MMXDSP_TESTS_TRACE_TEST_UTIL_HH
