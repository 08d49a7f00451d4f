/**
 * @file
 * Regenerates the paper's Figure 2(a): C-only to MMX ratios for
 * execution time (speedup), dynamic instructions, and memory references,
 * across all benchmarks. The figure's point: the reductions in dynamic
 * instructions and memory references track the reduction in execution
 * time closely.
 */

#include <cmath>
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

    std::printf("Figure 2(a): C-only / MMX ratios — speedup, dynamic "
                "instructions, memory references\n\n");

    Table table({"Benchmark", "speedup", "dyn instrs", "mem refs",
                 "| paper:", "speedup", "dyn", "mem"});
    double corr_num = 0.0;
    double corr_da = 0.0;
    double corr_db = 0.0;
    double mean_s = 0.0;
    double mean_d = 0.0;
    for (const auto &bench : order) {
        const auto c = suite.run(bench, "c").profile;
        const auto mmx = suite.run(bench, "mmx").profile;
        double s = suite.speedup(bench);
        double d = static_cast<double>(c.dynamicInstructions)
                   / static_cast<double>(mmx.dynamicInstructions);
        double m = static_cast<double>(c.memoryReferences)
                   / static_cast<double>(mmx.memoryReferences);
        mean_s += s;
        mean_d += d;
        const harness::PaperTable3Row *paper =
            harness::paperTable3For(bench + ".c");
        table.addRow({bench, Table::fmtFixed(s, 2), Table::fmtFixed(d, 2),
                      Table::fmtFixed(m, 2), "|",
                      paper ? Table::fmtFixed(paper->speedup, 2) : "n/a",
                      paper ? Table::fmtFixed(paper->dynamicRatio, 2)
                            : "n/a",
                      paper ? Table::fmtFixed(paper->memRatio, 2) : "n/a"});
    }
    table.print();

    // "The reduction of memory references and dynamic instructions ...
    // correspond closely with the decrease in execution time."
    mean_s /= static_cast<double>(order.size());
    mean_d /= static_cast<double>(order.size());
    for (const auto &bench : order) {
        const auto c = suite.run(bench, "c").profile;
        const auto mmx = suite.run(bench, "mmx").profile;
        double s = suite.speedup(bench) - mean_s;
        double d = static_cast<double>(c.dynamicInstructions)
                       / static_cast<double>(mmx.dynamicInstructions)
                   - mean_d;
        corr_num += s * d;
        corr_da += s * s;
        corr_db += d * d;
    }
    std::printf("\nCorrelation(speedup, dynamic-instruction ratio) = "
                "%.3f (paper: 'correspond closely')\n",
                corr_num / std::sqrt(corr_da * corr_db));
    return 0;
}
