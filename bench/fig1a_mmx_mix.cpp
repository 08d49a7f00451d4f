/**
 * @file
 * Regenerates the paper's Figure 1(a): the percentage of MMX
 * instructions in each MMX benchmark version, broken into the paper's
 * four categories (pack/unpack, MMX arithmetic, 64-bit MMX moves, emms),
 * with benchmarks ordered by ascending C-to-MMX speedup and the speedup
 * printed above each bar, exactly as in the paper.
 */

#include <cstdio>

#include "harness/cli.hh"
#include "harness/paper_data.hh"
#include "harness/suite.hh"
#include "support/table.hh"

using namespace mmxdsp;
using harness::BenchmarkSuite;

namespace {

std::string
bar(double fraction, double per_char = 0.01)
{
    int n = static_cast<int>(fraction / per_char + 0.5);
    return std::string(static_cast<size_t>(std::max(n, 0)), '#');
}

} // namespace

int
main(int argc, char **argv)
{
    harness::BenchOptions opts = harness::parseBenchArgs(argc, argv);
    BenchmarkSuite suite = opts.makeSuite();
    harness::runAllTimed(suite, opts.threads);
    auto order = suite.benchmarksBySpeedup();

    std::printf("Figure 1(a): breakdown of MMX instructions, benchmarks "
                "in ascending speedup order\n(speedup above each bar; "
                "one '#' = 1%% of dynamic instructions)\n\n");

    Table table({"Benchmark", "Speedup", "%MMX", "pack/unpack", "arith",
                 "mov64", "emms", "paper %MMX"});
    for (const auto &bench : order) {
        const auto mmx = suite.run(bench, "mmx").profile;
        const harness::PaperTable2Row *paper =
            harness::paperTable2For(bench + ".mmx");
        auto cat = [&](isa::MmxCategory c) {
            return mmx.pctMmxOfCategory(c);
        };
        table.addRow({bench, Table::fmtFixed(suite.speedup(bench), 2),
                      Table::fmtPercent(mmx.pctMmx()),
                      Table::fmtPercent(cat(isa::MmxCategory::PackUnpack)),
                      Table::fmtPercent(cat(isa::MmxCategory::Arith)),
                      Table::fmtPercent(cat(isa::MmxCategory::Mov)),
                      Table::fmtPercent(cat(isa::MmxCategory::Emms), 3),
                      paper ? Table::fmtFixed(paper->pctMmx, 2) + "%"
                            : "n/a"});
    }
    table.print();

    std::printf("\nBars (P = pack/unpack, A = arithmetic, M = moves):\n\n");
    for (const auto &bench : order) {
        const auto mmx = suite.run(bench, "mmx").profile;
        double p = mmx.pctMmxOfCategory(isa::MmxCategory::PackUnpack);
        double a = mmx.pctMmxOfCategory(isa::MmxCategory::Arith);
        double m = mmx.pctMmxOfCategory(isa::MmxCategory::Mov);
        std::printf("%8s (%.2fx) |", bench.c_str(), suite.speedup(bench));
        std::string pb = bar(p);
        std::string ab = bar(a);
        std::string mb = bar(m);
        for (char &ch : pb)
            ch = 'P';
        for (char &ch : ab)
            ch = 'A';
        for (char &ch : mb)
            ch = 'M';
        std::printf("%s%s%s\n", pb.c_str(), ab.c_str(), mb.c_str());
    }

    std::printf("\nIn-text checks: fir pack/unpack = %llu (paper: zero); "
                "matvec pack/unpack share of MMX = %.1f%% (paper: 20.5%% "
                "of instructions with significant speedup anyway).\n",
                static_cast<unsigned long long>(
                    suite.run("fir", "mmx")
                        .profile.mmxByCategory[static_cast<size_t>(
                            isa::MmxCategory::PackUnpack)]),
                100.0
                    * suite.run("matvec", "mmx")
                          .profile.pctMmxOfCategory(
                              isa::MmxCategory::PackUnpack));
    return 0;
}
