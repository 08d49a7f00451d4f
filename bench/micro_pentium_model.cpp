/**
 * @file
 * Characterization of the timing substrate itself: per-benchmark IPC,
 * U/V pairing rate, stall composition, cache and BTB behaviour — the
 * numbers that explain *why* the Table 3 speedups come out the way
 * they do on a Pentium-class in-order machine.
 */

#include <cstdio>

#include "harness/cli.hh"
#include "harness/suite.hh"
#include "support/table.hh"

using namespace mmxdsp;
using harness::BenchmarkSuite;

int
main(int argc, char **argv)
{
    harness::BenchOptions opts = harness::parseBenchArgs(argc, argv);
    harness::SuiteConfig config = opts.suiteConfig();
    config.scaleDown(2); // characterization doesn't need full sizes
    BenchmarkSuite suite(config, opts.traceOptions());
    harness::runAllTimed(suite, opts.threads);

    Table table({"program", "IPC", "pair rate", "mem-stall %",
                 "depend-stall %", "mispredict %", "L1 miss", "BTB mpr"});

    for (const auto &[bench, version] : BenchmarkSuite::allRuns()) {
        const auto p = suite.run(bench, version).profile;
        auto pct = [&](uint64_t cyc) {
            return Table::fmtPercent(
                p.cycles ? static_cast<double>(cyc)
                               / static_cast<double>(p.cycles)
                         : 0.0,
                1);
        };
        table.addRow({bench + ("." + version),
                      Table::fmtFixed(p.instructionsPerCycle(), 2),
                      Table::fmtPercent(p.timer.pairRate(), 1),
                      pct(p.timer.memPenaltyCycles),
                      pct(p.timer.dependStallCycles),
                      pct(p.timer.mispredictCycles),
                      Table::fmtPercent(p.l1.missRate(), 2),
                      Table::fmtPercent(p.btb.mispredictRate(), 2)});
    }

    std::printf("Pentium model characterization (half-size workloads)\n\n");
    table.print();
    std::printf(
        "\nReading guide: the .c versions of the float kernels sit at "
        "low IPC (x87 is non-pairing and\nimul/idiv block the pipe); "
        "the MMX versions pair heavily until memory or the single\n"
        "multiplier port limits them. jpeg.c's IPC is dominated by "
        "idiv-based quantization.\n");
    return 0;
}
