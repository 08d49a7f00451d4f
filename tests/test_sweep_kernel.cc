/**
 * @file
 * Tests for the sweep driver and its P5 lane kernel (trace/sweep_kernel.cc)
 * and the sweep-entry deduplication in replaySweep():
 *
 *  - duplicate TimerConfig/MachineConfig entries come back with
 *    bit-identical ProfileResults (the dedup fan-out),
 *  - edge geometries the memo/lane paths could mishandle (direct-mapped
 *    caches, a 1-entry BTB, degenerate penalty sets) stay bit-identical
 *    to the scalar golden reference,
 *  - a randomized-config-set differential across every registry (benchmark,
 *    version) pairs: replaySweepPacked() == replaySweepScalar() for
 *    every entry, P5 and P6 alike;
 *  - the per-geometry memos: replays that record a cache/BTB memo and
 *    replays that consume one (under any model) equal the memo-less
 *    replayProfile(), on the edge machines and on random ones;
 *  - the sweep driver's mixed sweeps: the ablation's 36 machines on
 *    every pair, and P5 lane blocks of several widths beside
 *    per-machine P6/P6P runs, dispatched and packed, at 1, 2 and 4
 *    threads;
 *  - the lane kernel at every vector ISA the host runs (the others
 *    skip): 1-33 lanes per model, so full, half-width and padded blocks
 *    all run, with distinct penalties per lane; penalties near the lane
 *    bound, which make every block rebase every few dozen events, on
 *    every pair; machines the 32-bit lanes cannot take (a
 *    4294967295-cycle mispredict penalty) running per machine beside
 *    the lanes; and one outcome plane shared by the ablation's three
 *    lane groups.
 *
 * These tests deliberately go through both replaySweepPacked() and
 * replaySweepScalar() explicitly, so they pin the identity regardless
 * of which groups replaySweep() puts on lanes.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "harness/suite.hh"
#include "profile/vprof.hh"
#include "sim/timing_model.hh"
#include "support/rng.hh"
#include "trace/materialize.hh"
#include "trace/materialize_sink.hh"

namespace mmxdsp {
namespace trace {

/** Test parameters print as "avx2" / "avx512". */
void
PrintTo(LaneIsa isa, std::ostream *os)
{
    *os << laneIsaName(isa);
}

} // namespace trace

namespace {

namespace fs = std::filesystem;

/** Fresh scratch directory, removed on destruction. */
struct ScratchDir
{
    fs::path path;

    explicit ScratchDir(const char *name)
        : path(fs::temp_directory_path() / name)
    {
        fs::remove_all(path);
    }
    ~ScratchDir() { fs::remove_all(path); }
};

harness::SuiteConfig
tinyConfig()
{
    harness::SuiteConfig config;
    config.scaleDown(16);
    return config;
}

void
expectSameProfile(const profile::ProfileResult &a,
                  const profile::ProfileResult &b, const std::string &what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.dynamicInstructions, b.dynamicInstructions);
    EXPECT_EQ(a.staticInstructions, b.staticInstructions);
    EXPECT_EQ(a.uops, b.uops);
    EXPECT_EQ(a.memoryReferences, b.memoryReferences);
    EXPECT_EQ(a.mmxInstructions, b.mmxInstructions);
    EXPECT_EQ(a.functionCalls, b.functionCalls);
    EXPECT_EQ(a.callRetCycles, b.callRetCycles);
    EXPECT_EQ(a.callOverheadCycles, b.callOverheadCycles);
    EXPECT_EQ(a.timer.instructions, b.timer.instructions);
    EXPECT_EQ(a.timer.pairs, b.timer.pairs);
    EXPECT_EQ(a.timer.uopsIssued, b.timer.uopsIssued);
    EXPECT_EQ(a.timer.retireStallCycles, b.timer.retireStallCycles);
    EXPECT_EQ(a.timer.portStallCycles, b.timer.portStallCycles);
    EXPECT_EQ(a.timer.memPenaltyCycles, b.timer.memPenaltyCycles);
    EXPECT_EQ(a.timer.mispredictCycles, b.timer.mispredictCycles);
    EXPECT_EQ(a.timer.dependStallCycles, b.timer.dependStallCycles);
    EXPECT_EQ(a.timer.blockingExtraCycles, b.timer.blockingExtraCycles);
    EXPECT_EQ(a.l1.accesses, b.l1.accesses);
    EXPECT_EQ(a.l1.misses, b.l1.misses);
    EXPECT_EQ(a.l1.evictions, b.l1.evictions);
    EXPECT_EQ(a.l2.accesses, b.l2.accesses);
    EXPECT_EQ(a.l2.misses, b.l2.misses);
    EXPECT_EQ(a.btb.branches, b.btb.branches);
    EXPECT_EQ(a.btb.mispredicts, b.btb.mispredicts);
    EXPECT_EQ(a.btb.missesInBtb, b.btb.missesInBtb);
    ASSERT_EQ(a.functions.size(), b.functions.size());
    for (const auto &[name, st] : a.functions) {
        auto it = b.functions.find(name);
        ASSERT_NE(it, b.functions.end()) << name;
        EXPECT_EQ(st.calls, it->second.calls) << name;
        EXPECT_EQ(st.instructions, it->second.instructions) << name;
        EXPECT_EQ(st.cycles, it->second.cycles) << name;
    }
}

/** One materialized trace to sweep against, captured once per suite. */
std::shared_ptr<const trace::MaterializedTrace>
materializedTrace(harness::BenchmarkSuite &suite, const std::string &bench,
                  const std::string &version)
{
    suite.run(bench, version);
    auto mat = suite.materializedFor(bench, version);
    EXPECT_NE(mat, nullptr);
    return mat;
}

// ---------------- dedup ----------------

TEST(SweepDedup, DuplicateConfigsReturnIdenticalResults)
{
    ScratchDir scratch("mmxdsp_sweep_dedup_test");
    harness::BenchmarkSuite suite(
        tinyConfig(), harness::TraceOptions{true, scratch.path.string()});
    auto mat = materializedTrace(suite, "fir", "mmx");

    sim::TimerConfig tiny;
    tiny.l1.size_bytes = 512;
    tiny.l1.ways = 1;
    sim::TimerConfig paper; // the default machine

    // The same two machines, each several times over, with cosmetic
    // differences (cache names) that must not defeat the dedup.
    sim::TimerConfig renamed = paper;
    renamed.l1.name = "l1-under-an-alias";
    constexpr sim::ModelKind kP5 = sim::ModelKind::P5;
    const std::vector<sim::MachineConfig> configs = {
        {kP5, paper}, {kP5, tiny}, {kP5, paper}, {kP5, renamed}, {kP5, tiny}};
    const auto results = mat->replaySweep(configs, 2);
    ASSERT_EQ(results.size(), configs.size());

    // Every duplicate index carries the unique entry's exact result...
    expectSameProfile(results[2], results[0], "paper duplicate");
    expectSameProfile(results[3], results[0], "renamed duplicate");
    expectSameProfile(results[4], results[1], "tiny duplicate");
    // ...which is itself bit-identical to a solo replay.
    expectSameProfile(results[0], mat->replayProfile({kP5, paper}),
                      "paper solo");
    expectSameProfile(results[1], mat->replayProfile({kP5, tiny}),
                      "tiny solo");
    // And the two machines genuinely differ, so the dedup didn't just
    // collapse everything onto one config.
    EXPECT_NE(results[0].cycles, results[1].cycles);
}

TEST(SweepDedup, CrossModelDuplicatesStayPerModel)
{
    ScratchDir scratch("mmxdsp_sweep_dedup_model_test");
    harness::BenchmarkSuite suite(
        tinyConfig(), harness::TraceOptions{true, scratch.path.string()});
    auto mat = materializedTrace(suite, "fft", "mmx");

    // Identical timer parameters under all three models: these must
    // NOT dedup onto each other.
    const sim::TimerConfig timer;
    const std::vector<sim::MachineConfig> machines = {
        {sim::ModelKind::P5, timer},
        {sim::ModelKind::P6, timer},
        {sim::ModelKind::P6P, timer},
        {sim::ModelKind::P5, timer},
        {sim::ModelKind::P6, timer},
        {sim::ModelKind::P6P, timer},
    };
    const auto results = mat->replaySweep(machines, 2);
    ASSERT_EQ(results.size(), machines.size());
    expectSameProfile(results[3], results[0], "P5 duplicate");
    expectSameProfile(results[4], results[1], "P6 duplicate");
    expectSameProfile(results[5], results[2], "P6P duplicate");
    expectSameProfile(results[0], mat->replayProfile(machines[0]),
                      "P5 solo");
    expectSameProfile(results[1], mat->replayProfile(machines[1]),
                      "P6 solo");
    expectSameProfile(results[2], mat->replayProfile(machines[2]),
                      "P6P solo");
    EXPECT_NE(results[0].cycles, results[1].cycles);
    EXPECT_NE(results[1].cycles, results[2].cycles);
}

// ---------------- edge geometries ----------------

/**
 * Machines the memo/lane paths could mishandle: four timer configs,
 * each on P5, P6 and P6P in turn (the model varies fastest).
 */
std::vector<sim::MachineConfig>
edgeMachines()
{
    // Direct-mapped everything: assoc=1 at both levels plus a starved
    // L1, so the memo records plenty of class-1/class-2 events and the
    // conflict-miss pattern differs from every set-associative lane.
    sim::TimerConfig directMapped;
    directMapped.l1.size_bytes = 512;
    directMapped.l1.ways = 1;
    directMapped.l2.size_bytes = 4096;
    directMapped.l2.ways = 1;

    // A 1-entry BTB (the smallest legal predictor) thrashes on every
    // second branch site — the mispredict memo must still line up.
    sim::TimerConfig oneBtb;
    oneBtb.btb_entries = 1;
    oneBtb.btb_ways = 1;

    // Degenerate penalties: a free L2 and an expensive L1 miss, so the
    // class->penalty table is non-monotone across configs (never within
    // one: ofClass() is monotone in the class by construction).
    sim::TimerConfig weirdPen;
    weirdPen.penalties.l1_miss = 9;
    weirdPen.penalties.l2_hit = 0;
    weirdPen.penalties.l2_miss = 1;

    // Tiny line size exercises the line-straddling max-of-classes path.
    sim::TimerConfig smallLines;
    smallLines.l1.size_bytes = 256;
    smallLines.l1.line_bytes = 8;
    smallLines.l2.size_bytes = 1024;
    smallLines.l2.line_bytes = 16;

    std::vector<sim::MachineConfig> machines;
    for (const sim::TimerConfig &tc :
         {directMapped, oneBtb, weirdPen, smallLines}) {
        machines.push_back({sim::ModelKind::P5, tc});
        machines.push_back({sim::ModelKind::P6, tc});
        machines.push_back({sim::ModelKind::P6P, tc});
    }
    return machines;
}

TEST(SweepKernel, EdgeGeometriesMatchScalar)
{
    ScratchDir scratch("mmxdsp_sweep_edge_test");
    harness::BenchmarkSuite suite(
        tinyConfig(), harness::TraceOptions{true, scratch.path.string()});
    auto mat = materializedTrace(suite, "matvec", "mmx");
    const std::vector<sim::MachineConfig> machines = edgeMachines();

    const auto scalar = mat->replaySweepScalar(machines, 2);
    const auto packed = mat->replaySweepPacked(machines, 2);
    ASSERT_EQ(scalar.size(), machines.size());
    ASSERT_EQ(packed.size(), machines.size());
    for (size_t i = 0; i < machines.size(); ++i) {
        expectSameProfile(packed[i], scalar[i],
                          "edge machine " + std::to_string(i));
        // The scalar path itself is pinned to the solo replay, so the
        // chain packed == scalar == replayProfile closes.
        expectSameProfile(scalar[i], mat->replayProfile(machines[i]),
                          "edge machine solo " + std::to_string(i));
    }
}

// ---------------- randomized differential, all pairs ----------------

/** A random but legal machine: power-of-two geometry throughout. */
sim::MachineConfig
randomMachine(Rng &rng)
{
    sim::MachineConfig m;
    m.model = static_cast<sim::ModelKind>(rng.nextBelow(sim::kNumModelKinds));
    sim::TimerConfig &tc = m.timer;
    tc.l1.line_bytes = 8u << rng.nextBelow(3);            // 8..32
    tc.l1.ways = 1u << rng.nextBelow(3);                  // 1..4
    tc.l1.size_bytes = (tc.l1.line_bytes * tc.l1.ways)
                       << (1 + rng.nextBelow(5));         // >= 2 sets
    tc.l2.line_bytes = tc.l1.line_bytes << rng.nextBelow(2);
    tc.l2.ways = 1u << rng.nextBelow(3);
    tc.l2.size_bytes = (tc.l2.line_bytes * tc.l2.ways)
                       << (2 + rng.nextBelow(5));
    tc.penalties.l1_miss = rng.nextBelow(8);
    tc.penalties.l2_hit = rng.nextBelow(8);
    tc.penalties.l2_miss = rng.nextBelow(16);
    tc.btb_ways = 1u << rng.nextBelow(3);
    tc.btb_entries = tc.btb_ways << rng.nextBelow(5);
    tc.mispredict_penalty = rng.nextBelow(8);
    return m;
}

TEST(SweepKernel, RandomizedConfigsMatchScalarOnEveryPair)
{
    ScratchDir scratch("mmxdsp_sweep_random_test");
    harness::BenchmarkSuite suite(
        tinyConfig(), harness::TraceOptions{true, scratch.path.string()});

    Rng rng(0x5eedc0de);
    for (const auto &[bench, version] : harness::BenchmarkSuite::allRuns()) {
        const std::string what = bench + "." + version;
        auto mat = materializedTrace(suite, bench, version);
        ASSERT_NE(mat, nullptr) << what;

        // A fresh random grid per pair, with one deliberate duplicate
        // so every sweep also crosses the dedup fan-out.
        std::vector<sim::MachineConfig> machines;
        for (int c = 0; c < 5; ++c)
            machines.push_back(randomMachine(rng));
        machines.push_back(machines[1]);

        const auto scalar = mat->replaySweepScalar(machines);
        const auto packed = mat->replaySweepPacked(machines);
        ASSERT_EQ(scalar.size(), machines.size()) << what;
        ASSERT_EQ(packed.size(), machines.size()) << what;
        for (size_t i = 0; i < machines.size(); ++i)
            expectSameProfile(packed[i], scalar[i],
                              what + " machine " + std::to_string(i));
    }
}

// ---------------- per-geometry memos ----------------

TEST(SweepMemos, EdgeGeometriesReplayBitIdentically)
{
    ScratchDir scratch("mmxdsp_sweep_memo_edge_test");
    harness::BenchmarkSuite suite(
        tinyConfig(), harness::TraceOptions{true, scratch.path.string()});
    auto mat = materializedTrace(suite, "matvec", "mmx");
    const std::vector<sim::MachineConfig> machines = edgeMachines();

    // One machine per call: the first use of a cache or BTB geometry
    // records its memo, every later use replays it — across models,
    // since the model varies fastest. Replays with both memos found:
    // P6+P6P of directMapped (2), of oneBtb (2), all of weirdPen (3,
    // default geometries already recorded), P6+P6P of smallLines (2).
    trace::MaterializedTrace::Memos memos;
    std::vector<profile::ProfileResult> solo;
    for (size_t i = 0; i < machines.size(); ++i) {
        solo.push_back(mat->replayProfile(machines[i]));
        const auto r = mat->replaySweepScalar({machines[i]}, 1, &memos);
        ASSERT_EQ(r.size(), 1u);
        expectSameProfile(r[0], solo[i], "edge memo " + std::to_string(i));
    }
    EXPECT_EQ(memos.hits(), 9u);
    EXPECT_GT(memos.byteSize(), 0u);

    // A second pass replays every machine, several at a time.
    const auto again = mat->replaySweepScalar(machines, 2, &memos);
    ASSERT_EQ(again.size(), machines.size());
    for (size_t i = 0; i < machines.size(); ++i)
        expectSameProfile(again[i], solo[i],
                          "edge memo replay " + std::to_string(i));
    EXPECT_EQ(memos.hits(), 9u + machines.size());

    // Dropped memos are recorded again, not replayed stale.
    memos.clear();
    EXPECT_EQ(memos.byteSize(), 0u);
    const auto fresh = mat->replaySweepScalar({machines[0]}, 1, &memos);
    expectSameProfile(fresh[0], solo[0], "edge memo after clear");
    EXPECT_EQ(memos.hits(), 9u + machines.size());
}

TEST(SweepMemos, RandomizedMachinesReplayAcrossModelsOnEveryPair)
{
    ScratchDir scratch("mmxdsp_sweep_memo_random_test");
    harness::BenchmarkSuite suite(
        tinyConfig(), harness::TraceOptions{true, scratch.path.string()});

    Rng rng(0x6e60c0de);
    for (const auto &[bench, version] : harness::BenchmarkSuite::allRuns()) {
        const std::string what = bench + "." + version;
        auto mat = materializedTrace(suite, bench, version);
        ASSERT_NE(mat, nullptr) << what;

        trace::MaterializedTrace::Memos memos;
        for (int c = 0; c < 3; ++c) {
            // Record under one random machine...
            const sim::MachineConfig recorder = randomMachine(rng);
            const auto rec = mat->replaySweepScalar({recorder}, 1, &memos);
            expectSameProfile(rec[0], mat->replayProfile(recorder),
                              what + " recorder " + std::to_string(c));

            // ...and replay under another model with fresh penalties
            // on the same geometries.
            sim::MachineConfig other = randomMachine(rng);
            other.model = static_cast<sim::ModelKind>(
                (static_cast<size_t>(recorder.model) + 1
                 + rng.nextBelow(2))
                % sim::kNumModelKinds);
            other.timer.l1 = recorder.timer.l1;
            other.timer.l2 = recorder.timer.l2;
            other.timer.btb_entries = recorder.timer.btb_entries;
            other.timer.btb_ways = recorder.timer.btb_ways;
            const uint64_t hits = memos.hits();
            const auto rep = mat->replaySweepScalar({other}, 1, &memos);
            EXPECT_EQ(memos.hits(), hits + 1) << what;
            expectSameProfile(rep[0], mat->replayProfile(other),
                              what + " replay " + std::to_string(c));
        }
    }
}


// ---------------- mixed sweeps: P5 lanes beside per-machine runs ----------------

/**
 * The cache-size ablation's 36 machines: L1 {4,8,16,32} KB x L2
 * {128K,512K,2M}, each on P5, P6 and P6P (the model varies slowest).
 */
std::vector<sim::MachineConfig>
ablationMachines()
{
    std::vector<sim::MachineConfig> machines;
    for (sim::ModelKind model :
         {sim::ModelKind::P5, sim::ModelKind::P6, sim::ModelKind::P6P})
        for (uint32_t l1_kb : {4, 8, 16, 32})
            for (uint32_t l2_kb : {128, 512, 2048}) {
                sim::MachineConfig m{model, sim::TimerConfig{}};
                m.timer.l1.size_bytes = l1_kb * 1024;
                m.timer.l2.size_bytes = l2_kb * 1024;
                machines.push_back(m);
            }
    return machines;
}

TEST(SweepDriver, AblationSweepMatchesScalarOnEveryPair)
{
    ScratchDir scratch("mmxdsp_sweep_ablation_test");
    harness::BenchmarkSuite suite(
        tinyConfig(), harness::TraceOptions{true, scratch.path.string()});
    const std::vector<sim::MachineConfig> machines = ablationMachines();

    for (const auto &[bench, version] : harness::BenchmarkSuite::allRuns()) {
        const std::string what = bench + "." + version;
        auto mat = suite.materializedFor(bench, version);
        ASSERT_NE(mat, nullptr) << what;

        // The memo-less per-machine sweep is the reference; its P6/P6P
        // entries are pinned to solo replays.
        const auto scalar = mat->replaySweepScalar(machines, 4);
        ASSERT_EQ(scalar.size(), machines.size()) << what;
        for (size_t i = 0; i < machines.size(); ++i)
            if (machines[i].model != sim::ModelKind::P5)
                expectSameProfile(scalar[i], mat->replayProfile(machines[i]),
                                  what + " solo " + std::to_string(i));

        // The memoized per-machine kernel records the memos at one
        // thread and reuses them at two and four.
        trace::MaterializedTrace::Memos memos;
        for (int threads : {1, 2, 4}) {
            const std::string at =
                what + " threads " + std::to_string(threads) + " machine ";
            const auto dispatched = mat->replaySweep(machines, threads);
            const auto packed = mat->replaySweepPacked(machines, threads);
            const auto memoized =
                mat->replaySweepScalar(machines, threads, &memos);
            ASSERT_EQ(dispatched.size(), machines.size()) << at;
            ASSERT_EQ(packed.size(), machines.size()) << at;
            ASSERT_EQ(memoized.size(), machines.size()) << at;
            for (size_t i = 0; i < machines.size(); ++i) {
                expectSameProfile(dispatched[i], scalar[i],
                                  at + std::to_string(i) + " dispatched");
                expectSameProfile(packed[i], scalar[i],
                                  at + std::to_string(i) + " packed");
                expectSameProfile(memoized[i], scalar[i],
                                  at + std::to_string(i) + " memoized");
            }
        }
    }
}

TEST(SweepDriver, P5LaneBlocksRunBesidePerMachineTasks)
{
    // 3, 5, 13 and 17 P5 lanes beside one P6 and one P6P machine: at 1,
    // 2 and 4 threads the lanes split into AVX2 groups, mask-select
    // tails and several blocks, all in one pool with the per-machine
    // runs. The P6/P6P machines share lane 0's cache geometry.
    ScratchDir scratch("mmxdsp_sweep_lane_mix_test");
    harness::BenchmarkSuite suite(
        tinyConfig(), harness::TraceOptions{true, scratch.path.string()});
    auto mat = materializedTrace(suite, "fft", "mmx");

    for (uint32_t lanes : {3u, 5u, 13u, 17u}) {
        std::vector<sim::MachineConfig> machines;
        for (uint32_t k = 0; k < lanes; ++k) {
            sim::MachineConfig m{sim::ModelKind::P5, sim::TimerConfig{}};
            m.timer.l1.size_bytes = 1024u << (k % 4);
            m.timer.l2.size_bytes = 16384u << (k % 3);
            m.timer.btb_entries = 64u << (k % 2);
            m.timer.mispredict_penalty = 1 + k;
            machines.push_back(m);
        }
        for (sim::ModelKind model : {sim::ModelKind::P6, sim::ModelKind::P6P}) {
            sim::MachineConfig m = machines[0];
            m.model = model;
            machines.push_back(m);
        }
        std::vector<profile::ProfileResult> solo;
        for (const sim::MachineConfig &m : machines)
            solo.push_back(mat->replayProfile(m));

        for (int threads : {1, 2, 4}) {
            const std::string what = std::to_string(lanes) + " lanes threads "
                                     + std::to_string(threads) + " machine ";
            const auto dispatched = mat->replaySweep(machines, threads);
            const auto packed = mat->replaySweepPacked(machines, threads);
            ASSERT_EQ(dispatched.size(), machines.size()) << what;
            ASSERT_EQ(packed.size(), machines.size()) << what;
            for (size_t i = 0; i < machines.size(); ++i) {
                expectSameProfile(dispatched[i], solo[i],
                                  what + std::to_string(i) + " dispatched");
                expectSameProfile(packed[i], solo[i],
                                  what + std::to_string(i) + " packed");
            }
        }
    }
}

// ---------------- the lane kernel at every vector ISA ----------------

/**
 * @p n machines of @p model, each lane with its own cache/BTB
 * geometry, memory penalties and mispredict penalty.
 */
std::vector<sim::MachineConfig>
laneMachines(sim::ModelKind model, uint32_t n)
{
    std::vector<sim::MachineConfig> machines;
    for (uint32_t k = 0; k < n; ++k) {
        sim::MachineConfig m{model, sim::TimerConfig{}};
        m.timer.l1.size_bytes = 1024u << (k % 4);
        m.timer.l2.size_bytes = 16384u << (k % 3);
        m.timer.btb_entries = 64u << (k % 2);
        m.timer.penalties.l1_miss = k % 5;
        m.timer.penalties.l2_hit = 1 + k % 3;
        m.timer.penalties.l2_miss = 4 + k;
        m.timer.mispredict_penalty = 1 + k;
        machines.push_back(m);
    }
    return machines;
}

/** The packed sweep at @p isa equals the memo-less scalar sweep. */
void
expectLanesMatchScalar(const trace::MaterializedTrace &mat,
                       const std::vector<sim::MachineConfig> &machines,
                       trace::LaneIsa isa, const std::string &what)
{
    const auto packed = mat.replaySweepPacked(machines, 2, isa);
    const auto scalar = mat.replaySweepScalar(machines, 2);
    ASSERT_EQ(packed.size(), machines.size()) << what;
    ASSERT_EQ(scalar.size(), machines.size()) << what;
    for (size_t i = 0; i < machines.size(); ++i)
        expectSameProfile(packed[i], scalar[i],
                          what + " machine " + std::to_string(i));
}

class SweepLanes : public ::testing::TestWithParam<trace::LaneIsa>
{
  protected:
    void
    SetUp() override
    {
        if (static_cast<int>(GetParam())
            > static_cast<int>(trace::hostLaneIsa()))
            GTEST_SKIP() << trace::laneIsaName(GetParam())
                         << " is not supported by this CPU";
    }

    /** A scratch directory name of its own per test and ISA (ctest
     *  runs the instances in parallel). */
    std::string
    scratchName(const char *test) const
    {
        return std::string("mmxdsp_sweep_lanes_") + test + "_"
               + trace::laneIsaName(GetParam());
    }
};

TEST_P(SweepLanes, EveryLaneCountMatchesScalar)
{
    ScratchDir scratch(scratchName("count").c_str());
    harness::BenchmarkSuite suite(
        tinyConfig(), harness::TraceOptions{true, scratch.path.string()});
    auto mat = materializedTrace(suite, "fft", "mmx");

    // 1-33 lanes per model: full registers, half-width remainders and
    // padded blocks (16-, 8- and 4-lane blocks across the two ISAs),
    // every model in one sweep.
    for (uint32_t n = 1; n <= 33; ++n) {
        std::vector<sim::MachineConfig> machines;
        for (sim::ModelKind model :
             {sim::ModelKind::P5, sim::ModelKind::P6, sim::ModelKind::P6P}) {
            const auto some = laneMachines(model, n);
            machines.insert(machines.end(), some.begin(), some.end());
        }
        expectLanesMatchScalar(*mat, machines, GetParam(),
                               std::to_string(n) + " lanes");
    }
    // The chain closes on the solo replay.
    const auto one = laneMachines(sim::ModelKind::P6P, 1);
    expectSameProfile(mat->replaySweepPacked(one, 1, GetParam())[0],
                      mat->replayProfile(one[0]), "P6P solo");
}

/**
 * laneMachines() with memory and mispredict penalties near 2^22: a
 * block's lane bound comes near the lane limit, so the kernel rebases
 * every few dozen events and values left behind for a few hundred
 * events fall more than 2^30 cycles back and are clamped.
 */
std::vector<sim::MachineConfig>
nearBoundMachines(sim::ModelKind model, uint32_t n)
{
    std::vector<sim::MachineConfig> machines = laneMachines(model, n);
    for (uint32_t k = 0; k < n; ++k) {
        sim::TimerConfig &t = machines[k].timer;
        t.penalties.l1_miss = (1u << 20) + k;
        t.penalties.l2_miss = (3u << 22) - 7 * k;
        t.mispredict_penalty = (1u << 21) + k;
    }
    return machines;
}

TEST_P(SweepLanes, ForcedRebasesMatchScalarOnEveryPair)
{
    ScratchDir scratch(scratchName("rebase").c_str());
    harness::BenchmarkSuite suite(
        tinyConfig(), harness::TraceOptions{true, scratch.path.string()});

    // 12 machines per model: one 16-lane block on AVX-512, an 8- and a
    // 4-lane block on AVX2.
    std::vector<sim::MachineConfig> machines;
    for (sim::ModelKind model :
         {sim::ModelKind::P5, sim::ModelKind::P6, sim::ModelKind::P6P}) {
        const auto some = nearBoundMachines(model, 12);
        machines.insert(machines.end(), some.begin(), some.end());
    }
    for (const auto &[bench, version] : harness::BenchmarkSuite::allRuns()) {
        const std::string what = bench + "." + version;
        auto mat = suite.materializedFor(bench, version);
        ASSERT_NE(mat, nullptr) << what;
        trace::SweepReport report;
        const auto packed =
            mat->replaySweepPacked(machines, 2, GetParam(), &report);
        const auto scalar = mat->replaySweepScalar(machines, 2);
        EXPECT_EQ(report.unfit, 0u) << what;
        EXPECT_EQ(report.perMachine, 0u) << what;
        // Every block rebases at least once per 40 events.
        EXPECT_GE(report.rebases,
                  report.blocks * (mat->instrCount() / 40))
            << what;
        ASSERT_EQ(packed.size(), machines.size()) << what;
        for (size_t i = 0; i < machines.size(); ++i)
            expectSameProfile(packed[i], scalar[i],
                              what + " machine " + std::to_string(i));
    }
}

TEST_P(SweepLanes, StalePortsKeepTheirOrderAcrossRebases)
{
    // A crafted P6P stream: port 1 and then port 0 take a uop (port 0
    // ends one cycle later), 120 loads that miss both caches carry the
    // clock more than 2^30 cycles past both ports, so a rebase clamps
    // them, and an Either uop must still pick port 1, the earlier. A
    // run of port-0 multiplies then makes port 0's backlog, and so the
    // cycle count, show which port it took.
    trace::MaterializeSink sink("ports", "c", 1);
    sink.onEnterFunction("work");
    const auto emit = [&](isa::Op op, isa::MemMode mem, uint64_t addr,
                          uint8_t reg) {
        isa::InstrEvent e;
        e.op = op;
        e.mem = mem;
        e.addr = addr;
        e.size = mem == isa::MemMode::None ? 0 : 8;
        e.site = static_cast<uint32_t>(op);
        e.src0 = isa::makeTag(isa::RegClass::Mmx, 0); // always ready
        e.dst = isa::makeTag(isa::RegClass::Mmx, reg);
        sink.onInstr(e);
    };
    emit(isa::Op::Psllw, isa::MemMode::None, 0, 1);
    emit(isa::Op::Pmullw, isa::MemMode::None, 0, 2);
    emit(isa::Op::Pmullw, isa::MemMode::None, 0, 3);
    for (uint64_t k = 0; k < 120; ++k)
        emit(isa::Op::Movq, isa::MemMode::Load, 0x100000 + k * 65536, 4);
    emit(isa::Op::Paddw, isa::MemMode::None, 0, 5);
    for (int k = 0; k < 24; ++k)
        emit(isa::Op::Pmullw, isa::MemMode::None, 0, 6);
    sink.onLeaveFunction();
    const trace::MaterializedTrace mat = sink.finish();

    const auto machines = nearBoundMachines(sim::ModelKind::P6P, 5);
    trace::SweepReport report;
    const auto packed =
        mat.replaySweepPacked(machines, 1, GetParam(), &report);
    EXPECT_GE(report.rebases, 4u);
    const auto scalar = mat.replaySweepScalar(machines, 1);
    for (size_t i = 0; i < machines.size(); ++i)
        expectSameProfile(packed[i], scalar[i],
                          "machine " + std::to_string(i));
}

TEST_P(SweepLanes, OverBoundMachinesRunPerMachine)
{
    ScratchDir scratch(scratchName("unfit").c_str());
    harness::BenchmarkSuite suite(
        tinyConfig(), harness::TraceOptions{true, scratch.path.string()});

    // Per model, 6 ordinary machines and one whose mispredict penalty
    // (4294967295, which vprofd accepts) is beyond any lane bound.
    std::vector<sim::MachineConfig> machines;
    for (sim::ModelKind model :
         {sim::ModelKind::P5, sim::ModelKind::P6, sim::ModelKind::P6P}) {
        const auto some = laneMachines(model, 6);
        machines.insert(machines.end(), some.begin(), some.end());
        sim::MachineConfig huge = some[2];
        huge.timer.mispredict_penalty = 4294967295u;
        machines.push_back(huge);
    }

    for (const auto &[bench, version] :
         {std::pair<std::string, std::string>{"fir", "mmx"},
          {"jpeg", "c"}}) {
        const std::string what = bench + "." + version;
        auto mat = materializedTrace(suite, bench, version);
        trace::SweepReport report;
        const auto packed =
            mat->replaySweepPacked(machines, 2, GetParam(), &report);
        EXPECT_EQ(report.unfit, 3u) << what;
        EXPECT_EQ(report.perMachine, 3u) << what;
        EXPECT_EQ(report.lanes,
                  (std::array<size_t, sim::kNumModelKinds>{6, 6, 6}))
            << what;
        const auto scalar = mat->replaySweepScalar(machines, 2);
        ASSERT_EQ(packed.size(), machines.size()) << what;
        for (size_t i = 0; i < machines.size(); ++i)
            expectSameProfile(packed[i], scalar[i],
                              what + " machine " + std::to_string(i));
    }
}

TEST_P(SweepLanes, AblationGroupsShareOneOutcomePlane)
{
    ScratchDir scratch(scratchName("plane").c_str());
    harness::BenchmarkSuite suite(
        tinyConfig(), harness::TraceOptions{true, scratch.path.string()});
    auto mat = materializedTrace(suite, "iir", "mmx");

    // The three models' 12 machines list the same geometries in the
    // same order, so their blocks share their lane tuples: one 16-lane
    // plane on AVX-512, an 8- and a 4-lane plane on AVX2.
    const std::vector<sim::MachineConfig> machines = ablationMachines();
    trace::SweepReport report;
    const auto packed =
        mat->replaySweepPacked(machines, 2, GetParam(), &report);
    const bool zmm = GetParam() == trace::LaneIsa::Avx512;
    EXPECT_EQ(report.blocks, zmm ? 3u : 6u);
    EXPECT_EQ(report.planes, zmm ? 1u : 2u);
    EXPECT_EQ(report.laneServed, machines.size());
    const auto scalar = mat->replaySweepScalar(machines, 2);
    for (size_t i = 0; i < machines.size(); ++i)
        expectSameProfile(packed[i], scalar[i],
                          "machine " + std::to_string(i));
}

INSTANTIATE_TEST_SUITE_P(Isa, SweepLanes,
                         ::testing::Values(trace::LaneIsa::Avx2,
                                           trace::LaneIsa::Avx512),
                         [](const auto &info) {
                             return std::string(
                                 trace::laneIsaName(info.param));
                         });

} // namespace
} // namespace mmxdsp
