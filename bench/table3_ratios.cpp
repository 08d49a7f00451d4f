/**
 * @file
 * Regenerates the paper's Table 3: results as ratios of the non-MMX
 * program to the MMX program — speedup (clock cycles), static
 * instructions, dynamic instructions, micro-ops, and memory references —
 * printed beside the paper's values. Also reports the paper's in-text
 * function-call observations (call counts and call/ret cycle shares).
 */

#include <cstdio>
#include <limits>

#include "harness/cli.hh"
#include "harness/paper_data.hh"
#include "harness/suite.hh"
#include "support/table.hh"

using namespace mmxdsp;
using harness::BenchmarkSuite;

namespace {

double
ratio(uint64_t a, uint64_t b)
{
    return b ? static_cast<double>(a) / static_cast<double>(b)
             : std::numeric_limits<double>::quiet_NaN();
}

} // namespace

int
main(int argc, char **argv)
{
    harness::BenchOptions opts = harness::parseBenchArgs(argc, argv);
    BenchmarkSuite suite = opts.makeSuite();
    harness::runAllTimed(suite, opts.threads);

    Table table({"Program", "Speedup", "Static", "Dynamic", "uops", "Mem",
                 "| paper:", "Speedup", "Static", "Dynamic", "uops",
                 "Mem"});

    // Paper order: fft.c, fft.fp, fir.c, fir.fp, iir.c, iir.fp,
    // matvec.c, g722.c, image.c, jpeg.c, radar.c.
    const std::pair<const char *, const char *> rows[] = {
        {"fft", "c"},    {"fft", "fp"},  {"fir", "c"},   {"fir", "fp"},
        {"iir", "c"},    {"iir", "fp"},  {"matvec", "c"}, {"g722", "c"},
        {"image", "c"},  {"jpeg", "c"},  {"radar", "c"},
    };

    for (const auto &[bench, version] : rows) {
        const auto base = suite.run(bench, version).profile;
        const auto mmx = suite.run(bench, "mmx").profile;
        std::string name = std::string(bench) + "." + version;
        const harness::PaperTable3Row *paper = harness::paperTable3For(name);

        std::vector<std::string> row{
            name,
            Table::fmtRatio(ratio(base.cycles, mmx.cycles)),
            Table::fmtRatio(
                ratio(base.staticInstructions, mmx.staticInstructions), 3),
            Table::fmtRatio(
                ratio(base.dynamicInstructions, mmx.dynamicInstructions)),
            Table::fmtRatio(ratio(base.uops, mmx.uops)),
            Table::fmtRatio(
                ratio(base.memoryReferences, mmx.memoryReferences)),
            "|",
        };
        if (paper) {
            row.push_back(Table::fmtFixed(paper->speedup, 2));
            row.push_back(Table::fmtFixed(paper->staticRatio, 3));
            row.push_back(Table::fmtFixed(paper->dynamicRatio, 2));
            row.push_back(Table::fmtFixed(paper->uopRatio, 2));
            row.push_back(Table::fmtFixed(paper->memRatio, 2));
        } else {
            for (int i = 0; i < 5; ++i)
                row.emplace_back("n/a");
        }
        table.addRow(std::move(row));
    }

    std::printf("Table 3: ratios of non-MMX program to MMX program "
                "(measured | paper)\n\n");
    table.print();

    // The paper's in-text call-overhead observations.
    std::printf("\nFunction-call overhead in the MMX versions "
                "(paper, section 4):\n\n");
    Table calls({"Benchmark", "calls (c)", "calls (mmx)", "ratio",
                 "call/ret cyc", "linkage cyc", "paper note"});
    struct Note
    {
        const char *bench;
        const char *note;
    } notes[] = {
        {"fir", "call+ret ~11% of cycles"},
        {"radar", "27x more calls; call/ret 23.88% of cycles"},
        {"g722", "7.7% of cycles on call overhead"},
        {"jpeg", "8.3x more clock cycles in function calling"},
    };
    for (const auto &n : notes) {
        const auto c = suite.run(n.bench, "c").profile;
        const auto mmx = suite.run(n.bench, "mmx").profile;
        calls.addRow({n.bench,
                      Table::fmtCount(static_cast<int64_t>(c.functionCalls)),
                      Table::fmtCount(
                          static_cast<int64_t>(mmx.functionCalls)),
                      Table::fmtRatio(ratio(mmx.functionCalls,
                                            std::max<uint64_t>(
                                                c.functionCalls, 1)),
                                      1),
                      Table::fmtPercent(mmx.pctCallRetCycles()),
                      Table::fmtPercent(
                          mmx.cycles ? static_cast<double>(
                                           mmx.callOverheadCycles)
                                           / static_cast<double>(mmx.cycles)
                                     : 0.0),
                      n.note});
    }
    calls.print();
    return 0;
}
