/**
 * @file
 * Regenerates the paper's Figure 2(b): the same ratios as Figure 2(a)
 * but between the hand-optimized floating-point library versions and
 * the MMX versions — only fft, fir, and iir have .fp versions (matvec
 * is integer data). The MMX versions beat even hand-optimized x87
 * assembly, by smaller factors than they beat compiled C.
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

    std::printf("Figure 2(b): fp-library / MMX ratios — speedup, dynamic "
                "instructions, memory references\n\n");

    Table table({"Benchmark", "speedup", "dyn instrs", "mem refs",
                 "| paper:", "speedup", "dyn", "mem"});
    for (const char *bench : {"fft", "fir", "iir"}) {
        const auto fp = suite.run(bench, "fp").profile;
        const auto mmx = suite.run(bench, "mmx").profile;
        double s = static_cast<double>(fp.cycles)
                   / static_cast<double>(mmx.cycles);
        double d = static_cast<double>(fp.dynamicInstructions)
                   / static_cast<double>(mmx.dynamicInstructions);
        double m = static_cast<double>(fp.memoryReferences)
                   / static_cast<double>(mmx.memoryReferences);
        const harness::PaperTable3Row *paper =
            harness::paperTable3For(std::string(bench) + ".fp");
        table.addRow({bench, Table::fmtFixed(s, 2), Table::fmtFixed(d, 2),
                      Table::fmtFixed(m, 2), "|",
                      paper ? Table::fmtFixed(paper->speedup, 2) : "n/a",
                      paper ? Table::fmtFixed(paper->dynamicRatio, 2)
                            : "n/a",
                      paper ? Table::fmtFixed(paper->memRatio, 2) : "n/a"});
    }
    table.print();

    std::printf("\nPaper: 'Additional speedup is achieved using MMX "
                "instead of hand-optimized floating-point assembly code' "
                "— every measured speedup above should exceed 1.0.\n");
    return 0;
}
