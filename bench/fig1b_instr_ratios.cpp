/**
 * @file
 * Regenerates the paper's Figure 1(b): static and dynamic instruction
 * counts of the C-only version as ratios to the MMX version, benchmarks
 * ordered by ascending speedup. Static ratios sit below 1 (MMX bloats
 * static code everywhere); dynamic ratios exceed 1 wherever MMX wins.
 */

#include <cstdio>

#include "harness/cli.hh"
#include "harness/paper_data.hh"
#include "harness/suite.hh"
#include "support/table.hh"

using namespace mmxdsp;
using harness::BenchmarkSuite;

int
main(int argc, char **argv)
{
    harness::BenchOptions opts = harness::parseBenchArgs(argc, argv);
    BenchmarkSuite suite = opts.makeSuite();
    harness::runAllTimed(suite, opts.threads);
    auto order = suite.benchmarksBySpeedup();

    std::printf("Figure 1(b): C-only vs MMX instruction-count ratios, "
                "ascending speedup order\n\n");

    Table table({"Benchmark", "Speedup", "static c/mmx", "dynamic c/mmx",
                 "| paper:", "static", "dynamic"});
    for (const auto &bench : order) {
        const auto c = suite.run(bench, "c").profile;
        const auto mmx = suite.run(bench, "mmx").profile;
        const harness::PaperTable3Row *paper =
            harness::paperTable3For(bench + ".c");
        table.addRow(
            {bench, Table::fmtFixed(suite.speedup(bench), 2),
             Table::fmtFixed(static_cast<double>(c.staticInstructions)
                                 / static_cast<double>(
                                       mmx.staticInstructions),
                             3),
             Table::fmtFixed(static_cast<double>(c.dynamicInstructions)
                                 / static_cast<double>(
                                       mmx.dynamicInstructions),
                             2),
             "|", paper ? Table::fmtFixed(paper->staticRatio, 3) : "n/a",
             paper ? Table::fmtFixed(paper->dynamicRatio, 2) : "n/a"});
    }
    table.print();

    // The figure's headline: every static ratio < 1.
    std::printf("\nAll static ratios < 1 (MMX always increases static "
                "code size):");
    bool all = true;
    for (const auto &bench : order) {
        const auto c = suite.run(bench, "c").profile;
        const auto mmx = suite.run(bench, "mmx").profile;
        all = all && c.staticInstructions < mmx.staticInstructions;
    }
    std::printf(" %s\n", all ? "yes" : "NO");
    return 0;
}
