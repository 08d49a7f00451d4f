/**
 * @file
 * Capture-once / simulate-many demonstration of the trace engine: one
 * recorded execution each of fft.mmx and jpeg.c is replayed through a
 * grid of memory hierarchies (L1 size x L2 size) on the machine model
 * --model selects (the P5 by default), reporting cycles and miss rates
 * per configuration without ever re-running the benchmark code. On the
 * P5 the 16KB/512KB point reproduces the paper's machine (a 200 MHz
 * Pentium with MMX); the rest of the grid shows how far the paper's
 * cycle counts depend on that geometry.
 */

#include <cstdio>
#include <vector>

#include "harness/cli.hh"
#include "harness/suite.hh"
#include "mem/cache.hh"
#include "sim/timing_model.hh"
#include "support/table.hh"

using namespace mmxdsp;
using harness::BenchmarkSuite;

namespace {

/** The L1 x L2 grid on @p base: every pairing where L2 is strictly
 *  larger. */
std::vector<sim::MachineConfig>
makeGrid(const sim::MachineConfig &base)
{
    std::vector<sim::MachineConfig> grid;
    for (uint32_t l1_kb : {4, 8, 16, 32, 64}) {
        for (uint32_t l2_kb : {128, 512, 2048}) {
            if (l2_kb <= l1_kb)
                continue;
            sim::MachineConfig machine = base;
            machine.timer.l1.size_bytes = l1_kb * 1024;
            machine.timer.l2.size_bytes = l2_kb * 1024;
            grid.push_back(machine);
        }
    }
    return grid;
}

void
sweepOne(BenchmarkSuite &suite, const char *bench, const char *version,
         int threads)
{
    const std::vector<sim::MachineConfig> grid = makeGrid(suite.machine());
    const std::vector<profile::ProfileResult> results =
        suite.sweep(bench, version, grid, threads);

    std::printf("%s.%s — one trace, %zu machine models\n\n", bench,
                version, grid.size());
    Table table({"L1", "L2", "cycles", "IPC", "L1 miss", "L2 miss",
                 "mem-stall %"});
    uint64_t baseline = 0;
    for (size_t i = 0; i < results.size(); ++i) {
        const profile::ProfileResult &p = results[i];
        const sim::TimerConfig &config = grid[i].timer;
        if (config.l1.size_bytes == 16 * 1024
            && config.l2.size_bytes == 512 * 1024)
            baseline = p.cycles;
        table.addRow(
            {config.l1.describe(), config.l2.describe(),
             Table::fmtCount(static_cast<int64_t>(p.cycles)),
             Table::fmtFixed(p.instructionsPerCycle(), 2),
             Table::fmtPercent(p.l1.missRate(), 2),
             Table::fmtPercent(p.l2.missRate(), 2),
             Table::fmtPercent(
                 p.cycles ? static_cast<double>(p.timer.memPenaltyCycles)
                                / static_cast<double>(p.cycles)
                          : 0.0,
                 1)});
    }
    table.print();
    if (baseline)
        std::printf("\n16KB/512KB is the paper's %s: %llu cycles.\n\n",
                    suite.machine().model == sim::ModelKind::P5
                        ? "machine"
                        : "cache geometry",
                    static_cast<unsigned long long>(baseline));
}

} // namespace

int
main(int argc, char **argv)
{
    harness::BenchOptions opts = harness::parseBenchArgs(argc, argv);
    BenchmarkSuite suite = opts.makeSuite();

    std::printf("Ablation: cache-geometry sweep by trace replay\n"
                "(each benchmark executes once; every row below is a "
                "replay of that one trace)\n\n");

    sweepOne(suite, "fft", "mmx", opts.threads);
    sweepOne(suite, "jpeg", "c", opts.threads);

    const BenchmarkSuite::TraceActivity &activity = suite.traceActivity();
    const std::string dir = suite.traceDir();
    std::fprintf(stderr,
                 "[harness] %d trace(s) captured live, %d loaded from %s\n",
                 activity.captured, activity.disk_hits,
                 dir.empty() ? "(cache off)" : dir.c_str());
    return 0;
}
