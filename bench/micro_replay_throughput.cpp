/**
 * @file
 * Microbenchmark of the sweep driver over one resident trace, and the
 * regression gate for its dispatch rule.
 *
 * The dispatch boundary times, on each model, the lanes
 * (replaySweepPacked: every machine advancing together on the lane
 * kernel, fed by per-geometry cache/BTB memos) against memoized
 * per-machine runs (memo pre-pass + the per-machine kernel, what
 * replaySweep runs for narrow groups) at the two widths around the
 * switch: trace::perMachineWidth() machines, the widest group
 * replaySweep keeps per machine, and one more, the narrowest it puts on
 * lanes. The cache-size ablation's 36-machine mixed sweep is split into
 * its parts: ns per lane-event of the memo pre-pass, the outcome
 * planes, and the lanes and the memoized per-machine runs of each
 * model, on the widest lane ISA the CPU runs.
 *
 * Single-replay, capture and wide-sweep throughput are perfbench's
 * layer metrics (sim.*, runtime.capture_ns_per_event, trace.sweep*).
 * The binary verifies all sweeps are bit-identical and exits nonzero on
 * divergence or (in optimized builds on a CPU with a lane ISA) if, on
 * any model, the lanes lose to the per-machine runs at the narrowest
 * width replaySweep gives them (median of paired ratios below 1.0x).
 * Results land in BENCH_replay.json.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "harness/cli.hh"
#include "harness/suite.hh"
#include "support/table.hh"
#include "trace/materialize.hh"

using namespace mmxdsp;

namespace {

/** Repetitions per timed sweep (each takes milliseconds). */
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

/** One dispatch-boundary point: sweep-only times on a resident trace. */
struct DispatchPoint
{
    sim::ModelKind model = sim::ModelKind::P5;
    size_t configs = 0;
    bool lanes = false; ///< the narrowest width replaySweep puts on lanes
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
    double p5_ns = 0.0;        ///< P5 per-machine runs over recorded memos
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
    harness::BenchOptions opts = harness::parseBenchArgs(argc, argv);
    harness::BenchmarkSuite suite = opts.makeSuite();

    const char *bench = "jpeg";
    const char *version = "c";
    std::fprintf(stderr, "capturing %s.%s trace (scale %d)...\n", bench,
                 version, opts.scale);
    const auto trace = suite.materializedFor(bench, version);
    const trace::MaterializedTrace &mat = *trace;
    const uint64_t events = mat.instrCount();

    // -- dispatch boundary: lanes vs per-machine runs around the switch --
    // replaySweep keeps a group of at most perMachineWidth() machines per
    // machine and puts a wider one on lanes.
    std::vector<DispatchPoint> boundary;
    bool boundary_identical = true;
    for (sim::ModelKind model :
         {sim::ModelKind::P5, sim::ModelKind::P6, sim::ModelKind::P6P}) {
        const size_t laneWidth =
            trace::perMachineWidth(model, opts.threads) + 1;
        for (size_t width : {laneWidth - 1, laneWidth}) {
            std::vector<sim::MachineConfig> machines;
            for (const sim::TimerConfig &config : makeConfigs(width))
                machines.push_back({model, config});
            DispatchPoint point;
            point.model = model;
            point.configs = width;
            point.lanes = width == laneWidth;
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
                                     && lanes[i] == perMachine[i]
                                     && dispatched[i] == perMachine[i];
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
        std::vector<double> memo, planes, p5, p6Lanes, p6pLanes, p5s, p6,
            p6p, sweep;
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
            p5s.push_back(time([&] {
                mat.replaySweepScalar(p5Set, opts.threads, &memos);
            }) / (ev * 12));
            p6.push_back(p6s / (ev * 12));
            p6p.push_back(time([&] {
                mat.replaySweepScalar(p6pSet, opts.threads, &memos);
            }) / (ev * 12));
            // 12 machines of one model: the dispatched sweep packs them.
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
                    median(p6pLanes) * 1e9, median(p5s) * 1e9,
                    median(p6) * 1e9,       median(p6p) * 1e9,
                    median(sweep) * 1e9};
        const auto golden = mat.replaySweepScalar(mixed, opts.threads);
        for (size_t i = 0; i < mixed.size(); ++i)
            mixed_identical = mixed_identical && swept[i] == golden[i];
    }

    const bool identical = boundary_identical && mixed_identical;

    std::printf("replay sweeps — %s.%s, %llu events\n", bench, version,
                static_cast<unsigned long long>(events));
    std::printf("\nsweep dispatch boundary (ms, resident trace, "
                "--threads=%d; replaySweep puts the second width of each "
                "model on lanes)\n",
                opts.threads);
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
        {"P5 per-machine", laneCost.p5_ns},
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

    std::printf("\n");
    for (const DispatchPoint &p : boundary)
        if (p.lanes)
            std::printf("lanes at %zu machines %.2fx (%s, vs per machine)\n",
                        p.configs, p.speedup, sim::modelName(p.model));
    std::printf("results bit-identical %s\n", identical ? "yes" : "NO");

    std::FILE *json = std::fopen("BENCH_replay.json", "w");
    if (json) {
        std::fprintf(json,
                     "{\n"
                     "  \"benchmark\": \"%s.%s\",\n"
                     "  \"scale\": %d,\n"
                     "  \"events\": %llu,\n"
                     "  \"repetitions\": %d,\n"
                     "  \"dispatch\": [\n",
                     bench, version, opts.scale,
                     static_cast<unsigned long long>(events),
                     kLadderRepetitions);
        for (size_t i = 0; i < boundary.size(); ++i) {
            const DispatchPoint &p = boundary[i];
            std::fprintf(
                json,
                "    {\"model\": \"%s\", \"configs\": %zu, "
                "\"dispatched_to_lanes\": %s, "
                "\"per_machine_seconds\": %.6f, \"lanes_seconds\": %.6f, "
                "\"speedup\": %.3f}%s\n",
                sim::modelName(p.model), p.configs,
                p.lanes ? "true" : "false", p.per_machine_seconds,
                p.lanes_seconds, p.speedup,
                i + 1 < boundary.size() ? "," : "");
        }
        std::fprintf(json,
                     "  ],\n"
                     "  \"lane_cost\": {\"machines\": 36, \"threads\": %d, "
                     "\"isa\": \"%s\", \"lanes_per_register\": %d, "
                     "\"memo_prepass_ns\": %.3f, \"planes_ns\": %.3f, "
                     "\"p5_lanes_ns\": %.3f, \"p5_per_machine_ns\": %.3f, "
                     "\"p6_lanes_ns\": %.3f, \"p6_per_machine_ns\": %.3f, "
                     "\"p6p_lanes_ns\": %.3f, \"p6p_per_machine_ns\": %.3f, "
                     "\"sweep_ns\": %.3f},\n",
                     opts.threads, trace::laneIsaName(isa),
                     static_cast<int>(isa), laneCost.memo_ns,
                     laneCost.plane_ns, laneCost.p5_lanes_ns, laneCost.p5_ns,
                     laneCost.p6_lanes_ns, laneCost.p6_ns,
                     laneCost.p6p_lanes_ns, laneCost.p6p_ns,
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
        if (isa == trace::LaneIsa::None || !p.lanes
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
