/**
 * @file
 * Roofline-style characterization of the blocked GEMM family: one
 * materialized trace per (variant, matrix size, block size), each
 * replayed through the config-parallel packed sweep kernel across a
 * block-size-encoded workload grid x the ablation_cache_sweep L1/L2
 * geometry set x all three machine models. Reports cycles/MAC against
 * arithmetic intensity (MACs per byte of L1 refill traffic) so the
 * table shows, per machine, where each blocking falls off the cache
 * cliff — the Aberdeen & Baxter question asked of the paper's models.
 *
 * Gates (exit nonzero on violation):
 *  - packed-sweep results bit-identical to the scalar reference sweep
 *    at the paper geometry on all three models, for every gemm trace;
 *  - blocked-MMX beats naive-scalar in simulated cycles on every model
 *    at the paper geometry (with the best swept block size).
 *
 * Writes BENCH_gemm.json for CI artifact upload. --sizes= and
 * --blocks= override the swept matrix and block sizes.
 */

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "harness/cli.hh"
#include "harness/suite.hh"
#include "profile/vprof.hh"
#include "sim/timing_model.hh"
#include "support/table.hh"
#include "trace/materialize.hh"

using namespace mmxdsp;
using harness::BenchmarkSuite;

namespace {

/** The swept geometries: the ablation_cache_sweep L1 axis over the
 *  paper's 512KB L2, plus the L2 axis at the paper's 16KB L1. The
 *  paper machine (16KB/512KB) is a member of both axes — dedup below
 *  keeps one copy. */
std::vector<sim::TimerConfig>
makeGeometries()
{
    std::vector<sim::TimerConfig> geo;
    auto add = [&geo](uint32_t l1_kb, uint32_t l2_kb) {
        sim::TimerConfig config;
        config.l1.size_bytes = l1_kb * 1024;
        config.l2.size_bytes = l2_kb * 1024;
        for (const sim::TimerConfig &have : geo)
            if (have.l1.size_bytes == config.l1.size_bytes
                && have.l2.size_bytes == config.l2.size_bytes)
                return;
        geo.push_back(config);
    };
    for (uint32_t l1_kb : {4, 8, 16, 32, 64})
        add(l1_kb, 512);
    for (uint32_t l2_kb : {128, 512, 2048})
        add(16, l2_kb);
    return geo;
}

struct Lane
{
    std::string variant;
    int size = 0;
    int block = 0; ///< 0 for the block-independent naive variants
    sim::ModelKind model;
    uint32_t l1_kb = 0;
    uint32_t l2_kb = 0;
    uint64_t cycles = 0;
    uint64_t l1_misses = 0;
    double cycles_per_mac = 0.0;
    double intensity = 0.0; ///< MACs per byte of L1 refill traffic
};

} // namespace

int
main(int argc, char **argv)
{
    harness::BenchOptions opts = harness::parseBenchArgs(argc, argv);

    const harness::SuiteConfig base = opts.suiteConfig();
    std::vector<int> sizes =
        opts.sizes.empty() ? std::vector<int>{base.gemm_dim} : opts.sizes;
    // Default blocks bracket the workload's block size so the sweep
    // crosses the L1 boundary at any --scale.
    std::vector<int> blocks = opts.blocks;
    if (blocks.empty())
        blocks = {std::max(4, base.gemm_block / 2), base.gemm_block,
                  base.gemm_block + base.gemm_block / 2};

    const std::vector<sim::TimerConfig> geometries = makeGeometries();
    const sim::ModelKind kinds[] = {sim::ModelKind::P5, sim::ModelKind::P6,
                                    sim::ModelKind::P6P};
    std::vector<sim::MachineConfig> machines;
    for (const sim::ModelKind kind : kinds)
        for (const sim::TimerConfig &geo : geometries)
            machines.push_back(sim::MachineConfig{kind, geo});

    // The identity-gate subset: the paper geometry on each model
    // (l1=16KB/l2=512KB is geometries[2] by construction — assert it).
    std::vector<size_t> gate_lanes;
    for (size_t m = 0; m < machines.size(); ++m)
        if (machines[m].timer.l1.size_bytes == 16 * 1024
            && machines[m].timer.l2.size_bytes == 512 * 1024)
            gate_lanes.push_back(m);
    if (gate_lanes.size() != 3) {
        std::fprintf(stderr, "FAIL: paper geometry missing from grid\n");
        return 1;
    }

    bool identical = true;
    bool perf_ok = true;
    std::vector<Lane> lanes;
    // cycles at the paper geometry, for the perf gate:
    // [model][variant-key] -> cycles.
    struct PaperCycles
    {
        uint64_t naive_scalar = 0;
        uint64_t best_blocked_mmx = 0;
    };

    for (const int size : sizes) {
        // One suite per block size: the block is a workload parameter
        // (it changes the instruction stream), so each block gets its
        // own config hash and captured trace. The naive variants are
        // block-independent and are materialized from the first suite
        // only.
        std::vector<std::unique_ptr<BenchmarkSuite>> suites;
        for (const int block : blocks) {
            harness::SuiteConfig config = base;
            config.gemm_dim = size;
            config.gemm_block = block;
            suites.push_back(std::make_unique<BenchmarkSuite>(
                config, opts.traceOptions(), opts.machineConfig()));
        }
        const uint64_t macs = static_cast<uint64_t>(size)
                              * static_cast<uint64_t>(size)
                              * static_cast<uint64_t>(size);

        struct Job
        {
            const char *variant;
            int block; ///< 0 = block-independent
            BenchmarkSuite *suite;
        };
        std::vector<Job> jobs = {
            {"c", 0, suites.front().get()},
            {"mmx", 0, suites.front().get()},
        };
        for (size_t b = 0; b < blocks.size(); ++b) {
            jobs.push_back({"c_blocked", blocks[b], suites[b].get()});
            jobs.push_back({"mmx_blocked", blocks[b], suites[b].get()});
        }

        PaperCycles paper[3];
        for (const Job &job : jobs) {
            auto mat = job.suite->materializedFor("gemm", job.variant);
            const std::vector<profile::ProfileResult> swept =
                mat->replaySweepPacked(machines, opts.threads);

            // Identity gate: the packed lanes at the paper geometry
            // must be bit-identical to the scalar reference sweep.
            std::vector<sim::MachineConfig> gate_machines;
            for (const size_t m : gate_lanes)
                gate_machines.push_back(machines[m]);
            const std::vector<profile::ProfileResult> golden =
                mat->replaySweepScalar(gate_machines, opts.threads);
            for (size_t g = 0; g < gate_lanes.size(); ++g) {
                if (swept[gate_lanes[g]] != golden[g]) {
                    std::fprintf(
                        stderr,
                        "FAIL: gemm.%s (dim %d block %d) packed sweep "
                        "diverged from scalar reference on %s\n",
                        job.variant, size, job.block,
                        sim::modelName(machines[gate_lanes[g]].model));
                    identical = false;
                }
            }

            for (size_t m = 0; m < machines.size(); ++m) {
                const profile::ProfileResult &p = swept[m];
                Lane lane;
                lane.variant = job.variant;
                lane.size = size;
                lane.block = job.block;
                lane.model = machines[m].model;
                lane.l1_kb = machines[m].timer.l1.size_bytes / 1024;
                lane.l2_kb = machines[m].timer.l2.size_bytes / 1024;
                lane.cycles = p.cycles;
                lane.l1_misses = p.l1.misses;
                lane.cycles_per_mac =
                    static_cast<double>(p.cycles) / static_cast<double>(macs);
                const uint64_t bytes = p.l1.misses
                                       * machines[m].timer.l1.line_bytes;
                lane.intensity = bytes ? static_cast<double>(macs)
                                             / static_cast<double>(bytes)
                                       : 0.0;
                lanes.push_back(std::move(lane));
            }

            // Collect the paper-geometry cycles for the perf gate.
            for (size_t g = 0; g < gate_lanes.size(); ++g) {
                const uint64_t cycles = swept[gate_lanes[g]].cycles;
                PaperCycles &pc = paper[g];
                if (std::string(job.variant) == "c")
                    pc.naive_scalar = cycles;
                else if (std::string(job.variant) == "mmx_blocked")
                    pc.best_blocked_mmx =
                        pc.best_blocked_mmx
                            ? std::min(pc.best_blocked_mmx, cycles)
                            : cycles;
            }
        }

        // Perf gate: blocked-MMX (best block) beats naive-scalar on
        // every model at the paper geometry.
        for (size_t g = 0; g < 3; ++g) {
            if (paper[g].best_blocked_mmx >= paper[g].naive_scalar) {
                std::fprintf(
                    stderr,
                    "FAIL: gemm dim %d: blocked MMX (%llu cycles) does "
                    "not beat naive scalar (%llu cycles) on %s\n",
                    size,
                    static_cast<unsigned long long>(
                        paper[g].best_blocked_mmx),
                    static_cast<unsigned long long>(paper[g].naive_scalar),
                    sim::modelName(machines[gate_lanes[g]].model));
                perf_ok = false;
            }
        }
    }

    // One compact table per model: cycles/MAC across the L1 axis (at
    // the paper's 512KB L2) plus intensity at the paper geometry.
    for (const sim::ModelKind kind : kinds) {
        std::printf("%s: cycles/MAC by L1 size (L2 512KB)\n\n",
                    sim::modelName(kind));
        Table table({"variant", "dim", "block", "L1 4K", "L1 8K", "L1 16K",
                     "L1 32K", "L1 64K", "MACs/byte@16K"});
        for (const int size : sizes) {
            for (const auto &[variant, block] :
                 [&]() {
                     std::vector<std::pair<std::string, int>> keys = {
                         {"c", 0}, {"mmx", 0}};
                     for (const int b : blocks) {
                         keys.emplace_back("c_blocked", b);
                         keys.emplace_back("mmx_blocked", b);
                     }
                     return keys;
                 }()) {
                std::vector<std::string> row = {
                    variant, std::to_string(size),
                    block ? std::to_string(block) : "-"};
                double intensity = 0.0;
                for (const uint32_t l1_kb : {4u, 8u, 16u, 32u, 64u}) {
                    for (const Lane &lane : lanes) {
                        if (lane.model == kind && lane.variant == variant
                            && lane.size == size && lane.block == block
                            && lane.l1_kb == l1_kb && lane.l2_kb == 512) {
                            row.push_back(
                                Table::fmtFixed(lane.cycles_per_mac, 2));
                            if (l1_kb == 16)
                                intensity = lane.intensity;
                            break;
                        }
                    }
                }
                row.push_back(Table::fmtFixed(intensity, 2));
                table.addRow(row);
            }
        }
        table.print();
        std::printf("\n");
    }
    std::printf("packed sweep bit-identical to scalar reference: %s\n",
                identical ? "yes" : "NO");
    std::printf("blocked MMX beats naive scalar on every model: %s\n",
                perf_ok ? "yes" : "NO");

    std::FILE *json = std::fopen("BENCH_gemm.json", "w");
    if (json) {
        std::fprintf(json, "{\n  \"scale\": %d,\n  \"lanes\": [\n",
                     opts.scale);
        for (size_t i = 0; i < lanes.size(); ++i) {
            const Lane &lane = lanes[i];
            std::fprintf(
                json,
                "    {\"variant\": \"%s\", \"dim\": %d, \"block\": %d, "
                "\"model\": \"%s\", \"l1_kb\": %u, \"l2_kb\": %u, "
                "\"cycles\": %llu, \"l1_misses\": %llu, "
                "\"cycles_per_mac\": %.4f, "
                "\"intensity_macs_per_byte\": %.4f}%s\n",
                lane.variant.c_str(), lane.size, lane.block,
                sim::modelName(lane.model), lane.l1_kb, lane.l2_kb,
                static_cast<unsigned long long>(lane.cycles),
                static_cast<unsigned long long>(lane.l1_misses),
                lane.cycles_per_mac, lane.intensity,
                i + 1 < lanes.size() ? "," : "");
        }
        std::fprintf(json,
                     "  ],\n  \"identical\": %s,\n"
                     "  \"blocked_mmx_beats_naive_scalar\": %s\n}\n",
                     identical ? "true" : "false",
                     perf_ok ? "true" : "false");
        std::fclose(json);
        std::fprintf(stderr, "wrote BENCH_gemm.json\n");
    }

    return identical && perf_ok ? 0 : 1;
}
