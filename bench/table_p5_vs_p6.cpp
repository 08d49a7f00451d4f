/**
 * @file
 * The paper's machines side by side, from one captured trace.
 *
 * The paper characterizes every benchmark on the Pentium (cycle counts,
 * its Table 2/3 speedups) and on the Pentium II (dynamic micro-op
 * counts) but never runs the timing comparison between them. This bench
 * closes that gap: each (benchmark, version) trace is captured once and
 * replayed under all three sim::TimingModel backends — P5 (in-order
 * dual pipe), P6 (uop decode/issue front end), and P6P (P6 plus
 * single-issue execution ports and a dispatch window) — giving
 * per-benchmark cycles, CPI, cycles-per-uop, and the MMX-vs-C speedup
 * as each machine sees it.
 *
 * Also the regression gate for the model layer: for every pair, the P5
 * entry of the cross-model sweep must be bit-identical to the plain P5
 * replay, and the P6 and P6P entries must each be bit-identical to the
 * same trace replayed event by event through a profile::VProf on that
 * model (MaterializedTrace::replayTo).
 * Exits nonzero on any divergence, and writes BENCH_p5_vs_p6.json for
 * CI artifact upload.
 */

#include <cstdio>
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

bool
sameResult(const profile::ProfileResult &a, const profile::ProfileResult &b)
{
    if (a.cycles != b.cycles
        || a.dynamicInstructions != b.dynamicInstructions
        || a.staticInstructions != b.staticInstructions || a.uops != b.uops
        || a.memoryReferences != b.memoryReferences
        || a.mmxInstructions != b.mmxInstructions
        || a.functionCalls != b.functionCalls
        || a.callRetCycles != b.callRetCycles
        || a.callOverheadCycles != b.callOverheadCycles
        || a.opCounts != b.opCounts)
        return false;
    return a.timer.instructions == b.timer.instructions
           && a.timer.pairs == b.timer.pairs
           && a.timer.uopsIssued == b.timer.uopsIssued
           && a.timer.retireStallCycles == b.timer.retireStallCycles
           && a.timer.portStallCycles == b.timer.portStallCycles
           && a.l1.misses == b.l1.misses && a.l2.misses == b.l2.misses
           && a.btb.mispredicts == b.btb.mispredicts;
}

/** @p mat replayed event by event through a fresh VProf on @p machine. */
profile::ProfileResult
vprofReplay(const trace::MaterializedTrace &mat,
            const sim::MachineConfig &machine)
{
    profile::VProf prof(machine);
    mat.replayTo(prof);
    return prof.result();
}

double
cpi(uint64_t cycles, uint64_t n)
{
    return n ? static_cast<double>(cycles) / static_cast<double>(n) : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    harness::BenchOptions opts = harness::parseBenchArgs(argc, argv);
    BenchmarkSuite suite = opts.makeSuite();

    const sim::MachineConfig p5{sim::ModelKind::P5, sim::TimerConfig{}};
    const sim::MachineConfig p6{sim::ModelKind::P6, sim::TimerConfig{}};
    const sim::MachineConfig p6p{sim::ModelKind::P6P, sim::TimerConfig{}};

    struct Row
    {
        std::string benchmark;
        std::string version;
        profile::ProfileResult p5;
        profile::ProfileResult p6;
        profile::ProfileResult p6p;
    };
    std::vector<Row> rows;
    bool identical = true;

    for (const auto &[benchmark, version] : BenchmarkSuite::allRuns()) {
        auto mat = suite.materializedFor(benchmark, version);

        // One cross-model sweep per pair: all three entries share the
        // trace buffers and (same BTB geometry) one prediction pass.
        std::vector<profile::ProfileResult> swept = mat->replaySweep(
            std::vector<sim::MachineConfig>{p5, p6, p6p}, opts.threads);

        // Gate 1: the sweep's P5 entry matches the plain P5 replay.
        if (!sameResult(swept[0], mat->replayProfile(sim::TimerConfig{}))) {
            std::fprintf(stderr,
                         "FAIL: %s.%s cross-model sweep P5 entry diverged "
                         "from plain P5 replay\n",
                         benchmark.c_str(), version.c_str());
            identical = false;
        }
        // Gates 2 and 3: the sweep's P6/P6P entries match a VProf fed
        // the same trace event by event on those models.
        if (!sameResult(swept[1], vprofReplay(*mat, p6))) {
            std::fprintf(stderr,
                         "FAIL: %s.%s swept P6 entry diverged from the "
                         "VProf replay\n",
                         benchmark.c_str(), version.c_str());
            identical = false;
        }
        if (!sameResult(swept[2], vprofReplay(*mat, p6p))) {
            std::fprintf(stderr,
                         "FAIL: %s.%s swept P6P entry diverged from the "
                         "VProf replay\n",
                         benchmark.c_str(), version.c_str());
            identical = false;
        }

        rows.push_back({benchmark, version, std::move(swept[0]),
                        std::move(swept[1]), std::move(swept[2])});
    }

    std::printf("P5 vs P6 vs P6P: one captured trace per pair, replayed "
                "on all three machines\n\n");
    Table table({"Program", "instrs", "uops", "P5 cyc", "P6 cyc",
                 "P6P cyc", "P5 CPI", "P6 CPI", "P6P CPI", "port stall",
                 "P5/P6P"});
    for (const Row &row : rows) {
        table.addRow(
            {row.benchmark + "." + row.version,
             Table::fmtCount(
                 static_cast<int64_t>(row.p5.dynamicInstructions)),
             Table::fmtCount(static_cast<int64_t>(row.p5.uops)),
             Table::fmtCount(static_cast<int64_t>(row.p5.cycles)),
             Table::fmtCount(static_cast<int64_t>(row.p6.cycles)),
             Table::fmtCount(static_cast<int64_t>(row.p6p.cycles)),
             Table::fmtFixed(cpi(row.p5.cycles, row.p5.dynamicInstructions),
                             2),
             Table::fmtFixed(cpi(row.p6.cycles, row.p6.dynamicInstructions),
                             2),
             Table::fmtFixed(
                 cpi(row.p6p.cycles, row.p6p.dynamicInstructions), 2),
             Table::fmtCount(
                 static_cast<int64_t>(row.p6p.timer.portStallCycles)),
             Table::fmtRatio(cpi(row.p5.cycles, row.p6p.cycles))});
    }
    table.print();

    // The MMX payoff as each machine sees it (the paper's speedups are
    // all P5; the P6's pipelined multiplier and wider issue shift them,
    // and the P6P's port contention pulls part of that back).
    auto find = [&rows](const std::string &benchmark,
                        const std::string &version) -> const Row * {
        for (const Row &row : rows)
            if (row.benchmark == benchmark && row.version == version)
                return &row;
        return nullptr;
    };
    std::printf("\nMMX-vs-C speedup on each machine:\n\n");
    Table speedups({"Benchmark", "P5 speedup", "P6 speedup", "P6P speedup"});
    for (const char *benchmark :
         {"fft", "fir", "iir", "matvec", "radar", "g722", "jpeg", "image"}) {
        const Row *c = find(benchmark, "c");
        const Row *mmx = find(benchmark, "mmx");
        speedups.addRow(
            {benchmark,
             Table::fmtRatio(cpi(c->p5.cycles, mmx->p5.cycles)),
             Table::fmtRatio(cpi(c->p6.cycles, mmx->p6.cycles)),
             Table::fmtRatio(cpi(c->p6p.cycles, mmx->p6p.cycles))});
    }
    speedups.print();
    std::printf("\nresults bit-identical %s\n", identical ? "yes" : "NO");

    std::FILE *json = std::fopen("BENCH_p5_vs_p6.json", "w");
    if (json) {
        std::fprintf(json, "{\n  \"scale\": %d,\n  \"pairs\": [\n",
                     opts.scale);
        for (size_t i = 0; i < rows.size(); ++i) {
            const Row &row = rows[i];
            std::fprintf(
                json,
                "    {\"name\": \"%s.%s\", \"instructions\": %llu, "
                "\"uops\": %llu, \"p5_cycles\": %llu, "
                "\"p6_cycles\": %llu, \"p6p_cycles\": %llu, "
                "\"p6_retire_stalls\": %llu, "
                "\"p6p_port_stalls\": %llu}%s\n",
                row.benchmark.c_str(), row.version.c_str(),
                static_cast<unsigned long long>(row.p5.dynamicInstructions),
                static_cast<unsigned long long>(row.p5.uops),
                static_cast<unsigned long long>(row.p5.cycles),
                static_cast<unsigned long long>(row.p6.cycles),
                static_cast<unsigned long long>(row.p6p.cycles),
                static_cast<unsigned long long>(
                    row.p6.timer.retireStallCycles),
                static_cast<unsigned long long>(
                    row.p6p.timer.portStallCycles),
                i + 1 < rows.size() ? "," : "");
        }
        std::fprintf(json, "  ],\n  \"identical\": %s\n}\n",
                     identical ? "true" : "false");
        std::fclose(json);
        std::fprintf(stderr, "wrote BENCH_p5_vs_p6.json\n");
    }

    return identical ? 0 : 1;
}
