/**
 * @file
 * Microbenchmark of the replay engine's sweep paths over one resident
 * trace, and the regression gate for the sweep dispatcher:
 *
 *  - per machine: replaySweepScalar without memos, one full timing pass
 *    per configuration with the timer's own cache and BTB (the golden
 *    reference path);
 *  - lanes: replaySweepPacked, all configurations advancing together
 *    on the config-parallel lane kernel, fed by per-geometry cache/BTB
 *    memos (where replaySweep sends every wide group of machines of one
 *    model and front end).
 *
 * Also times cold capture (functional execution into a
 * trace::MaterializeSink, no timing model) on a fresh cache-less suite,
 * so the capture-once cost can be read next to the replay-many cost.
 *
 * --configs=N picks the sweep width of the headline table (default 12);
 * a scaling run at N = 2/4/8/12 lands in BENCH_replay.json regardless.
 * The dispatch boundary then times, on each model, the lanes against
 * memoized per-machine runs (memo pre-pass + the per-machine kernel,
 * what replaySweep runs for narrow groups) at the two widths around
 * the switch: max(2, workers) machines, the widest group replaySweep
 * keeps per machine, and one more, the narrowest it puts on lanes. The
 * cache-size ablation's 36-machine mixed sweep is split into its parts:
 * ns per lane-event of the memo pre-pass, the outcome planes, the lanes
 * of each model and the P6 and P6P per-machine runs, on the widest lane
 * ISA the CPU runs.
 * The binary verifies all sweeps are bit-identical and exits nonzero on
 * divergence or (in optimized builds on a CPU with a lane ISA) if, on
 * any model, the lanes lose to the per-machine runs at the narrowest
 * width replaySweep gives them (median of paired ratios below 1.0x).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "harness/cli.hh"
#include "harness/suite.hh"
#include "profile/vprof.hh"
#include "support/parallel.hh"
#include "support/table.hh"
#include "trace/materialize.hh"

using namespace mmxdsp;

namespace {

constexpr int kRepetitions = 3;
/** The dispatch boundary's sweeps take milliseconds: more repetitions. */
constexpr int kLadderRepetitions = 9;
/** At the narrowest lane width: lanes vs per-machine runs, per model. */
constexpr double kDispatchGate = 1.0;

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** The sweep grid: up to 12 distinct memory-hierarchy configurations
 *  (4 L1 sizes x 3 L2 sizes), repeated with scaled BTBs beyond that. */
std::vector<sim::TimerConfig>
makeConfigs(size_t count)
{
    std::vector<sim::TimerConfig> configs;
    uint32_t btb = 256;
    while (configs.size() < count) {
        for (uint32_t l1_kb : {4, 8, 16, 32}) {
            for (uint32_t l2_kb : {128, 512, 2048}) {
                if (configs.size() == count)
                    break;
                sim::TimerConfig config;
                config.l1.size_bytes = l1_kb * 1024;
                config.l2.size_bytes = l2_kb * 1024;
                config.btb_entries = btb;
                configs.push_back(config);
            }
        }
        btb /= 2; // every dozen gets a fresh BTB geometry: all unique
    }
    return configs;
}

bool
sameResult(const profile::ProfileResult &a, const profile::ProfileResult &b)
{
    if (a.cycles != b.cycles
        || a.dynamicInstructions != b.dynamicInstructions
        || a.staticInstructions != b.staticInstructions || a.uops != b.uops
        || a.memoryReferences != b.memoryReferences
        || a.mmxInstructions != b.mmxInstructions
        || a.mmxByCategory != b.mmxByCategory
        || a.functionCalls != b.functionCalls
        || a.callRetCycles != b.callRetCycles
        || a.callOverheadCycles != b.callOverheadCycles
        || a.opCounts != b.opCounts)
        return false;
    if (a.timer.pairs != b.timer.pairs
        || a.timer.uopsIssued != b.timer.uopsIssued
        || a.timer.memPenaltyCycles != b.timer.memPenaltyCycles
        || a.timer.mispredictCycles != b.timer.mispredictCycles
        || a.timer.dependStallCycles != b.timer.dependStallCycles
        || a.timer.retireStallCycles != b.timer.retireStallCycles
        || a.timer.blockingExtraCycles != b.timer.blockingExtraCycles)
        return false;
    if (a.l1.accesses != b.l1.accesses || a.l1.misses != b.l1.misses
        || a.l2.accesses != b.l2.accesses || a.l2.misses != b.l2.misses
        || a.btb.branches != b.btb.branches
        || a.btb.mispredicts != b.btb.mispredicts)
        return false;
    if (a.functions.size() != b.functions.size())
        return false;
    for (const auto &[name, st] : a.functions) {
        auto it = b.functions.find(name);
        if (it == b.functions.end() || st.calls != it->second.calls
            || st.instructions != it->second.instructions
            || st.cycles != it->second.cycles)
            return false;
    }
    return true;
}

/** One sweep-width measurement across the two sweep kernels. */
struct ScalePoint
{
    size_t configs = 0;
    double scalar_seconds = 0.0; ///< replaySweepScalar, no memos
    double packed_seconds = 0.0; ///< replaySweepPacked
};

/** One dispatch-boundary point: sweep-only times on a resident trace. */
struct DispatchPoint
{
    sim::ModelKind model = sim::ModelKind::P5;
    size_t configs = 0;
    double per_machine_seconds = 0.0; ///< memo pre-pass + per machine
    double lanes_seconds = 0.0;       ///< replaySweepPacked
    /** Median over repetitions of per-machine / lanes time, each pair
     *  timed back to back (robust to drift in machine speed). */
    double speedup = 0.0;
};

/**
 * The cache-size ablation's 36-machine mixed sweep (4 L1 x 3 L2
 * geometries on P5, P6 and P6P), split into the sweep driver's parts:
 * medians of paired timings, in ns per lane-event.
 */
struct LaneCost
{
    double memo_ns = 0.0;      ///< memo pre-pass, per lane it serves (36)
    double plane_ns = 0.0;     ///< outcome planes, per lane they serve
    double p5_lanes_ns = 0.0;  ///< P5 lanes over recorded memos
    double p6_lanes_ns = 0.0;  ///< P6 lanes over recorded memos
    double p6p_lanes_ns = 0.0; ///< P6P lanes over recorded memos
    double p6_ns = 0.0;        ///< P6 per-machine runs over recorded memos
    double p6p_ns = 0.0;       ///< P6P per-machine runs over recorded memos
    double sweep_ns = 0.0;    ///< the dispatched sweep, end to end
};

double
median(std::vector<double> v)
{
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
}

} // namespace

int
main(int argc, char **argv)
{
    // --configs=N is this binary's own flag; parseBenchArgs exits on
    // anything it does not recognize, so strip it from argv first.
    size_t gateConfigs = 12;
    std::vector<char *> args;
    for (int i = 0; i < argc; ++i) {
        if (std::strncmp(argv[i], "--configs=", 10) == 0) {
            const long v = std::atol(argv[i] + 10);
            if (v < 1) {
                std::fprintf(stderr, "--configs=N requires N >= 1\n");
                return 2;
            }
            gateConfigs = static_cast<size_t>(v);
        } else {
            args.push_back(argv[i]);
        }
    }
    harness::BenchOptions opts = harness::parseBenchArgs(
        static_cast<int>(args.size()), args.data());
    harness::BenchmarkSuite suite = opts.makeSuite();

    const char *bench = "jpeg";
    const char *version = "c";
    std::fprintf(stderr, "capturing %s.%s trace (scale %d)...\n", bench,
                 version, opts.scale);
    const auto trace = suite.materializedFor(bench, version);
    const trace::MaterializedTrace &mat = *trace;
    const uint64_t events = mat.instrCount();

    // The sweep widths measured: the scaling ladder plus --configs=N.
    std::vector<size_t> widths = {2, 4, 8, 12};
    if (std::find(widths.begin(), widths.end(), gateConfigs) == widths.end())
        widths.push_back(gateConfigs);
    std::sort(widths.begin(), widths.end());

    // -- both sweep kernels at every width (best-of-N wall time each) --
    std::vector<ScalePoint> scaling;
    std::vector<profile::ProfileResult> scalarSwept, packedSwept;
    for (size_t width : widths) {
        std::vector<sim::MachineConfig> machines;
        for (const sim::TimerConfig &config : makeConfigs(width))
            machines.push_back({opts.model, config});
        ScalePoint point;
        point.configs = width;
        std::vector<profile::ProfileResult> scalar, packed;
        for (int rep = 0; rep < kRepetitions; ++rep) {
            double t0 = now();
            scalar = mat.replaySweepScalar(machines, opts.threads);
            double dt = now() - t0;
            if (!rep || dt < point.scalar_seconds)
                point.scalar_seconds = dt;
            t0 = now();
            packed = mat.replaySweepPacked(machines, opts.threads);
            dt = now() - t0;
            if (!rep || dt < point.packed_seconds)
                point.packed_seconds = dt;
        }
        scaling.push_back(point);
        if (width == gateConfigs) {
            scalarSwept = std::move(scalar);
            packedSwept = std::move(packed);
        }
    }
    const ScalePoint &gate = *std::find_if(
        scaling.begin(), scaling.end(),
        [&](const ScalePoint &p) { return p.configs == gateConfigs; });

    // -- single-replay throughput --
    double single = 0.0;
    for (int rep = 0; rep < kRepetitions; ++rep) {
        const double t0 = now();
        mat.replayProfile(opts.machineConfig());
        const double dt = now() - t0;
        if (!rep || dt < single)
            single = dt;
    }

    // -- dispatch boundary: lanes vs per-machine runs around the switch --
    // replaySweep keeps a group of at most max(2, workers) machines per
    // machine and puts a wider one on lanes.
    const size_t laneWidth =
        std::max<size_t>(2, static_cast<size_t>(resolveThreads(opts.threads)))
        + 1;
    std::vector<DispatchPoint> boundary;
    bool boundary_identical = true;
    for (sim::ModelKind model :
         {sim::ModelKind::P5, sim::ModelKind::P6, sim::ModelKind::P6P}) {
        for (size_t width : {laneWidth - 1, laneWidth}) {
            std::vector<sim::MachineConfig> machines;
            for (const sim::TimerConfig &config : makeConfigs(width))
                machines.push_back({model, config});
            DispatchPoint point;
            point.model = model;
            point.configs = width;
            // Both arms record the same memos per call (the per-machine
            // arm into fresh Memos), so each pays the memo pre-pass.
            std::vector<profile::ProfileResult> perMachine, lanes;
            std::vector<double> ratios;
            for (int rep = 0; rep < kLadderRepetitions; ++rep) {
                trace::MaterializedTrace::Memos memos;
                double t0 = now();
                perMachine =
                    mat.replaySweepScalar(machines, opts.threads, &memos);
                const double pm = now() - t0;
                t0 = now();
                lanes = mat.replaySweepPacked(machines, opts.threads);
                const double ln = now() - t0;
                if (!rep || pm < point.per_machine_seconds)
                    point.per_machine_seconds = pm;
                if (!rep || ln < point.lanes_seconds)
                    point.lanes_seconds = ln;
                ratios.push_back(pm / ln);
            }
            point.speedup = median(ratios);
            const auto dispatched = mat.replaySweep(machines, opts.threads);
            for (size_t i = 0; i < width; ++i)
                boundary_identical = boundary_identical
                                     && sameResult(lanes[i], perMachine[i])
                                     && sameResult(dispatched[i],
                                                   perMachine[i]);
            boundary.push_back(point);
        }
    }

    // -- the 36-machine mixed sweep, part by part --
    // Each repetition records the 13 memos into fresh Memos through
    // the P6 sweep, then times every part over them: the first P6
    // sweep minus the second is the memo pre-pass.
    LaneCost laneCost;
    bool mixed_identical = true;
    {
        std::vector<sim::MachineConfig> p5Set, p6Set, p6pSet;
        for (const sim::TimerConfig &config : makeConfigs(12)) {
            p5Set.push_back({sim::ModelKind::P5, config});
            p6Set.push_back({sim::ModelKind::P6, config});
            p6pSet.push_back({sim::ModelKind::P6P, config});
        }
        std::vector<sim::MachineConfig> mixed = p5Set;
        mixed.insert(mixed.end(), p6Set.begin(), p6Set.end());
        mixed.insert(mixed.end(), p6pSet.begin(), p6pSet.end());
        const double ev = static_cast<double>(events);
        std::vector<double> memo, planes, p5, p6Lanes, p6pLanes, p6, p6p,
            sweep;
        std::vector<profile::ProfileResult> swept;
        for (int rep = 0; rep < kLadderRepetitions; ++rep) {
            trace::MaterializedTrace::Memos memos;
            const auto time = [](auto &&run) {
                const double t0 = now();
                run();
                return now() - t0;
            };
            const double recording = time([&] {
                mat.replaySweepScalar(p6Set, opts.threads, &memos);
            });
            const double p6s = time([&] {
                mat.replaySweepScalar(p6Set, opts.threads, &memos);
            });
            memo.push_back((recording - p6s) / (ev * 36));
            p6.push_back(p6s / (ev * 12));
            p6p.push_back(time([&] {
                mat.replaySweepScalar(p6pSet, opts.threads, &memos);
            }) / (ev * 12));
            // 12 machines of one model: the dispatched sweep packs them
            // (in a MMXDSP_FORCE_SCALAR_SWEEP build it runs them per
            // machine).
            p5.push_back(time([&] {
                mat.replaySweep(p5Set, opts.threads, &memos);
            }) / (ev * 12));
            p6Lanes.push_back(time([&] {
                mat.replaySweep(p6Set, opts.threads, &memos);
            }) / (ev * 12));
            p6pLanes.push_back(time([&] {
                mat.replaySweep(p6pSet, opts.threads, &memos);
            }) / (ev * 12));
            trace::SweepReport report;
            sweep.push_back(time([&] {
                swept = mat.replaySweep(mixed, opts.threads, nullptr,
                                        &report);
            }) / (ev * 36));
            // The planes' pool wall, per lane-event of the lanes that
            // read them.
            planes.push_back(
                report.laneServed
                    ? report.planeWallMs * 1e-3
                          / (ev * static_cast<double>(report.laneServed))
                    : 0.0);
        }
        laneCost = {median(memo) * 1e9,     median(planes) * 1e9,
                    median(p5) * 1e9,       median(p6Lanes) * 1e9,
                    median(p6pLanes) * 1e9, median(p6) * 1e9,
                    median(p6p) * 1e9,      median(sweep) * 1e9};
        const auto golden = mat.replaySweepScalar(mixed, opts.threads);
        for (size_t i = 0; i < mixed.size(); ++i)
            mixed_identical =
                mixed_identical && sameResult(swept[i], golden[i]);
    }

    // -- capture arm: execution into a MaterializeSink, no timing model --
    // A fresh cache-less suite pays the full cold capture each time.
    double capture_seconds = 0.0;
    for (int rep = 0; rep < kRepetitions; ++rep) {
        harness::BenchmarkSuite cold(opts.suiteConfig(),
                                     harness::TraceOptions{},
                                     opts.machineConfig());
        const double t0 = now();
        auto captured = cold.materializedFor(bench, version);
        const double dt = now() - t0;
        if (captured->instrCount() != events) {
            std::fprintf(stderr, "FAIL: cold capture event count drifted\n");
            return 1;
        }
        if (!rep || dt < capture_seconds)
            capture_seconds = dt;
    }

    // -- bit-identity gate: per machine == lanes at every point --
    bool identical = packedSwept.size() == scalarSwept.size();
    for (size_t i = 0; identical && i < scalarSwept.size(); ++i)
        identical = sameResult(packedSwept[i], scalarSwept[i]);
    identical = identical && boundary_identical && mixed_identical;

    const double scalar_eps = static_cast<double>(events) / single;
    const double packed_speedup = gate.scalar_seconds / gate.packed_seconds;
    const double capture_eps = static_cast<double>(events) / capture_seconds;
    // Aggregate config-lanes-per-second of the packed pass: N configs
    // advance per event, so the kernel's useful work scales with N.
    const double packed_lane_eps =
        static_cast<double>(events) * static_cast<double>(gateConfigs)
        / gate.packed_seconds;

    std::printf("replay throughput — %s.%s, %llu events, %zu configs\n\n",
                bench, version, static_cast<unsigned long long>(events),
                gateConfigs);
    Table table({"path", "sweep ms", "single ms", "events/sec"});
    table.addRow({"per machine",
                  Table::fmtCount(
                      static_cast<int64_t>(gate.scalar_seconds * 1e3)),
                  Table::fmtCount(static_cast<int64_t>(single * 1e3)),
                  Table::fmtCount(static_cast<int64_t>(scalar_eps))});
    table.addRow({"config-parallel",
                  Table::fmtCount(
                      static_cast<int64_t>(gate.packed_seconds * 1e3)),
                  "n/a",
                  Table::fmtCount(static_cast<int64_t>(packed_lane_eps))});
    table.addRow({"cold capture", "n/a",
                  Table::fmtCount(
                      static_cast<int64_t>(capture_seconds * 1e3)),
                  Table::fmtCount(static_cast<int64_t>(capture_eps))});
    table.print();

    std::printf("\nsweep scaling (ms, resident trace)\n");
    Table scale({"configs", "per machine", "config-parallel",
                 "speedup vs per machine"});
    for (const ScalePoint &p : scaling) {
        char speed[32];
        std::snprintf(speed, sizeof(speed), "%.2fx",
                      p.scalar_seconds / p.packed_seconds);
        scale.addRow({Table::fmtCount(static_cast<int64_t>(p.configs)),
                      Table::fmtCount(
                          static_cast<int64_t>(p.scalar_seconds * 1e3)),
                      Table::fmtCount(
                          static_cast<int64_t>(p.packed_seconds * 1e3)),
                      speed});
    }
    scale.print();

    std::printf("\nsweep dispatch boundary (ms, resident trace, "
                "--threads=%d: lanes from %zu machines)\n",
                opts.threads, laneWidth);
    Table dispatch({"model", "configs", "per machine", "lanes",
                    "per machine / lanes"});
    for (const DispatchPoint &p : boundary) {
        char ms[2][32], ratio[32];
        std::snprintf(ms[0], sizeof(ms[0]), "%.2f",
                      p.per_machine_seconds * 1e3);
        std::snprintf(ms[1], sizeof(ms[1]), "%.2f", p.lanes_seconds * 1e3);
        std::snprintf(ratio, sizeof(ratio), "%.2fx", p.speedup);
        dispatch.addRow({sim::modelName(p.model),
                         Table::fmtCount(static_cast<int64_t>(p.configs)),
                         ms[0], ms[1], ratio});
    }
    dispatch.print();

    const trace::LaneIsa isa = trace::hostLaneIsa();
    std::printf("\nmixed 36-machine sweep (ns per lane-event, resident trace, "
                "--threads=%d, lanes: %s, %d × i32)\n",
                opts.threads, trace::laneIsaName(isa), static_cast<int>(isa));
    Table parts({"part", "ns/lane-event"});
    const std::pair<const char *, double> partRows[] = {
        {"memo pre-pass (per lane served)", laneCost.memo_ns},
        {"outcome planes (per lane served)", laneCost.plane_ns},
        {"P5 lanes", laneCost.p5_lanes_ns},
        {"P6 lanes", laneCost.p6_lanes_ns},
        {"P6 per-machine", laneCost.p6_ns},
        {"P6P lanes", laneCost.p6p_lanes_ns},
        {"P6P per-machine", laneCost.p6p_ns},
        {"dispatched sweep", laneCost.sweep_ns}};
    for (const auto &[part, ns] : partRows) {
        char cell[32];
        std::snprintf(cell, sizeof(cell), "%.2f", ns);
        parts.addRow({part, cell});
    }
    parts.print();

    std::printf("\nresident trace        %.1f MB\n",
                static_cast<double>(mat.byteSize()) / 1e6);
    std::printf("packed sweep speedup  %.2fx (vs per machine)\n",
                packed_speedup);
    for (const DispatchPoint &p : boundary)
        if (p.configs == laneWidth)
            std::printf("lanes at %zu machines %.2fx (%s, vs per machine)\n",
                        p.configs, p.speedup, sim::modelName(p.model));
    std::printf("results bit-identical %s\n", identical ? "yes" : "NO");

    std::FILE *json = std::fopen("BENCH_replay.json", "w");
    if (json) {
        std::fprintf(
            json,
            "{\n"
            "  \"benchmark\": \"%s.%s\",\n"
            "  \"scale\": %d,\n"
            "  \"events\": %llu,\n"
            "  \"configs\": %zu,\n"
            "  \"repetitions\": %d,\n"
            "  \"per_machine\": {\n"
            "    \"sweep_seconds\": %.6f,\n"
            "    \"single_seconds\": %.6f,\n"
            "    \"events_per_sec\": %.0f,\n"
            "    \"resident_bytes\": %zu\n"
            "  },\n"
            "  \"config_parallel\": {\n"
            "    \"sweep_seconds\": %.6f,\n"
            "    \"lane_events_per_sec\": %.0f,\n"
            "    \"speedup_vs_per_machine\": %.3f\n"
            "  },\n"
            "  \"cold_capture\": {\n"
            "    \"seconds\": %.6f,\n"
            "    \"events_per_sec\": %.0f\n"
            "  },\n",
            bench, version, opts.scale,
            static_cast<unsigned long long>(events), gateConfigs,
            kRepetitions, gate.scalar_seconds, single, scalar_eps,
            mat.byteSize(), gate.packed_seconds, packed_lane_eps,
            packed_speedup, capture_seconds, capture_eps);
        std::fprintf(json, "  \"scaling\": [\n");
        for (size_t i = 0; i < scaling.size(); ++i) {
            const ScalePoint &p = scaling[i];
            std::fprintf(
                json,
                "    {\"configs\": %zu, \"scalar_seconds\": %.6f, "
                "\"packed_seconds\": %.6f, \"packed_speedup\": %.3f}%s\n",
                p.configs, p.scalar_seconds, p.packed_seconds,
                p.scalar_seconds / p.packed_seconds,
                i + 1 < scaling.size() ? "," : "");
        }
        std::fprintf(json, "  ],\n  \"lane_width\": %zu,\n  \"dispatch\": [\n",
                     laneWidth);
        for (size_t i = 0; i < boundary.size(); ++i) {
            const DispatchPoint &p = boundary[i];
            std::fprintf(
                json,
                "    {\"model\": \"%s\", \"configs\": %zu, "
                "\"per_machine_seconds\": %.6f, \"lanes_seconds\": %.6f, "
                "\"speedup\": %.3f}%s\n",
                sim::modelName(p.model), p.configs, p.per_machine_seconds,
                p.lanes_seconds, p.speedup,
                i + 1 < boundary.size() ? "," : "");
        }
        std::fprintf(json,
                     "  ],\n"
                     "  \"lane_cost\": {\"machines\": 36, \"threads\": %d, "
                     "\"isa\": \"%s\", \"lanes_per_register\": %d, "
                     "\"memo_prepass_ns\": %.3f, \"planes_ns\": %.3f, "
                     "\"p5_lanes_ns\": %.3f, "
                     "\"p6_lanes_ns\": %.3f, \"p6_per_machine_ns\": %.3f, "
                     "\"p6p_lanes_ns\": %.3f, \"p6p_per_machine_ns\": %.3f, "
                     "\"sweep_ns\": %.3f},\n",
                     opts.threads, trace::laneIsaName(isa),
                     static_cast<int>(isa), laneCost.memo_ns,
                     laneCost.plane_ns, laneCost.p5_lanes_ns, laneCost.p6_lanes_ns,
                     laneCost.p6_ns, laneCost.p6p_lanes_ns, laneCost.p6p_ns,
                     laneCost.sweep_ns);
        std::fprintf(json, "  \"identical\": %s\n}\n",
                     identical ? "true" : "false");
        std::fclose(json);
        std::fprintf(stderr, "wrote BENCH_replay.json\n");
    }

    if (!identical) {
        std::fprintf(stderr, "FAIL: sweep paths diverged\n");
        return 1;
    }
#ifdef NDEBUG
    // The dispatch gate (optimized builds on a CPU with a lane ISA;
    // elsewhere replaySweepPacked runs per machine too): where
    // replaySweep() switches a group to lanes, the lanes must not lose
    // to the per-machine runs it would otherwise use, on any model.
    bool fast = true;
    for (const DispatchPoint &p : boundary) {
        if (isa == trace::LaneIsa::None || p.configs != laneWidth
            || p.speedup >= kDispatchGate)
            continue;
        std::fprintf(stderr,
                     "FAIL: %s lanes at %zu machines only %.2fx vs per "
                     "machine (gate %.1fx)\n",
                     sim::modelName(p.model), p.configs, p.speedup,
                     kDispatchGate);
        fast = false;
    }
    if (!fast)
        return 1;
#endif
    return 0;
}
