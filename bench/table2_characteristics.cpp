/**
 * @file
 * Regenerates the paper's Table 2: benchmark instruction characteristics
 * (static instructions, dynamic micro-ops, dynamic instructions, % memory
 * references, % MMX instructions) for every benchmark version, printed
 * side by side with the paper's published values.
 *
 * Absolute counts differ from the paper's (their workload sizes and the
 * IJG/Intel binaries are not reproducible); the comparison targets are
 * the within-benchmark relationships, which Table 3 expresses as ratios.
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

    Table table({"Program", "Static", "Dyn uops", "Dyn instrs", "%Mem",
                 "%MMX", "| paper:", "Static", "Dyn uops", "Dyn instrs",
                 "%Mem", "%MMX"});

    std::string last_bench;
    for (const auto &[bench, version] : BenchmarkSuite::allRuns()) {
        if (!last_bench.empty() && bench != last_bench)
            table.addSeparator();
        last_bench = bench;

        const harness::RunResult r = suite.run(bench, version);
        const auto &p = r.profile;
        const harness::PaperTable2Row *paper =
            harness::paperTable2For(r.name());

        std::vector<std::string> row{
            r.name(),
            Table::fmtCount(static_cast<int64_t>(p.staticInstructions)),
            Table::fmtCount(static_cast<int64_t>(p.uops)),
            Table::fmtCount(static_cast<int64_t>(p.dynamicInstructions)),
            Table::fmtPercent(p.pctMemoryReferences()),
            version == "c" || version == "fp"
                ? std::string("-")
                : Table::fmtPercent(p.pctMmx()),
            "|",
        };
        if (paper) {
            row.push_back(Table::fmtCount(paper->staticInstrs));
            row.push_back(Table::fmtCount(paper->dynamicUops));
            row.push_back(Table::fmtCount(paper->dynamicInstrs));
            row.push_back(Table::fmtFixed(paper->pctMemoryRefs, 2) + "%");
            row.push_back(paper->pctMmx < 0
                              ? std::string("-")
                              : Table::fmtFixed(paper->pctMmx, 2) + "%");
        } else {
            for (int i = 0; i < 5; ++i)
                row.emplace_back("n/a");
        }
        table.addRow(std::move(row));
    }

    std::printf("Table 2: benchmark instruction characteristics "
                "(measured | paper)\n\n");
    table.print();
    std::printf("\nWorkloads: fft %d-pt, fir %d samples/35 taps, iir %d "
                "samples/8th-order, matvec %dx%d,\n"
                "jpeg %dx%d q%d, image %dx%d, g722 %d samples, radar %d "
                "echoes x 12 ranges.\n",
                suite.config().fft_size, suite.config().fir_samples,
                suite.config().iir_samples, suite.config().matvec_dim,
                suite.config().matvec_dim, suite.config().jpeg_width,
                suite.config().jpeg_height, suite.config().jpeg_quality,
                suite.config().image_width, suite.config().image_height,
                suite.config().g722_samples, suite.config().radar_echoes);
    return 0;
}
