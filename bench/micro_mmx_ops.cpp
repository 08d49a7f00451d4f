/**
 * @file
 * Microbenchmark and regression gate for the MMX fast paths:
 *
 *  - op layer: every mmx:: binop and shift timed through the scalar
 *    lane-loop golden reference and through the active dispatch path
 *    (host SSE2), reported as Mops/sec plus geomean speedup;
 *  - live capture: an MMX micro kernel captured through the real
 *    runtime into a trace::MaterializeSink twice — with the block
 *    buffer disabled (setEmitBatch(1)) and with the default 512-event
 *    blocks.
 *
 * Verifies that the batched and per-instruction captures serialize to
 * byte-identical trace images, writes BENCH_mmx_ops.json, and (in
 * Release builds with the host SSE2 path) exits nonzero unless the
 * op-layer geomean beats scalar — so CI can run it as a perf smoke
 * test.
 */

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "isa/event.hh"
#include "mmx/mmx_ops.hh"
#include "runtime/cpu.hh"
#include "sim/trace_sink.hh"
#include "support/rng.hh"
#include "support/table.hh"
#include "trace/materialize_sink.hh"

using namespace mmxdsp;
using mmx::MmxReg;

namespace {

constexpr int kRepetitions = 3;
constexpr uint64_t kOpIters = 1u << 20;
constexpr size_t kBufSize = 4096; // power of two
constexpr int kKernelIters = 1 << 17;

#if defined(MMXDSP_MMX_HAVE_HOST_SIMD)
constexpr const char *kActivePath = "host-sse2";
#else
constexpr const char *kActivePath = "scalar";
#endif

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

template <class F>
double
bestOf(F &&body)
{
    double best = 0.0;
    for (int rep = 0; rep < kRepetitions; ++rep) {
        const double t0 = now();
        body();
        const double dt = now() - t0;
        if (!rep || dt < best)
            best = dt;
    }
    return best;
}

/** Defeats dead-code elimination of the timed op loops. */
volatile uint64_t g_sinkBits = 0;

struct OpRow
{
    const char *name;
    double scalarMops;
    double fastMops;
};

/** Time every binop and shift: scalar reference vs active dispatch. */
std::vector<OpRow>
benchOps(const std::vector<MmxReg> &a, const std::vector<MmxReg> &b)
{
    std::vector<OpRow> rows;
    const size_t mask = kBufSize - 1;
    const double iters = static_cast<double>(kOpIters);

#define MMXDSP_X(op_name, op_enum)                                           \
    {                                                                        \
        uint64_t acc = 0;                                                    \
        const double ts = bestOf([&] {                                       \
            for (uint64_t i = 0; i < kOpIters; ++i)                          \
                acc ^= mmx::scalar::op_name(a[i & mask], b[i & mask]).bits;  \
        });                                                                  \
        const double tf = bestOf([&] {                                       \
            for (uint64_t i = 0; i < kOpIters; ++i)                          \
                acc ^= mmx::op_name(a[i & mask], b[i & mask]).bits;          \
        });                                                                  \
        g_sinkBits = g_sinkBits + acc;                                       \
        rows.push_back({#op_name, iters / ts / 1e6, iters / tf / 1e6});      \
    }
    MMXDSP_MMX_BINOP_LIST(MMXDSP_X)
#undef MMXDSP_X

#define MMXDSP_X(op_name, op_enum)                                           \
    {                                                                        \
        uint64_t acc = 0;                                                    \
        const double ts = bestOf([&] {                                       \
            for (uint64_t i = 0; i < kOpIters; ++i)                          \
                acc ^= mmx::scalar::op_name(a[i & mask],                     \
                                            static_cast<unsigned>(i & 15))   \
                           .bits;                                            \
        });                                                                  \
        const double tf = bestOf([&] {                                       \
            for (uint64_t i = 0; i < kOpIters; ++i)                          \
                acc ^= mmx::op_name(a[i & mask],                             \
                                    static_cast<unsigned>(i & 15))           \
                           .bits;                                            \
        });                                                                  \
        g_sinkBits = g_sinkBits + acc;                                       \
        rows.push_back({#op_name, iters / ts / 1e6, iters / tf / 1e6});      \
    }
    MMXDSP_MMX_SHIFT_LIST(MMXDSP_X)
#undef MMXDSP_X

    return rows;
}

double
geomeanSpeedup(const std::vector<OpRow> &rows)
{
    double logSum = 0.0;
    for (const OpRow &r : rows)
        logSum += std::log(r.fastMops / r.scalarMops);
    return std::exp(logSum / static_cast<double>(rows.size()));
}

// ---------------- live-capture arms ----------------

/**
 * The measured MMX micro kernel, driven through the real runtime:
 * eight events per iteration (load, pmaddwd, paddsw, psraw, paddd,
 * packssdw, store, jcc) plus one coefficient load up front.
 */
void
cpuMicroKernel(runtime::Cpu &cpu, const int16_t *src, const int16_t *coef,
               int16_t *dst, int iters)
{
    using runtime::M64;
    M64 k = cpu.movqLoad(coef);
    for (int i = 0; i < iters; ++i) {
        const int off = (i & 255) * 4;
        M64 a = cpu.movqLoad(src + off);
        M64 m = cpu.pmaddwd(a, k);
        M64 s = cpu.paddsw(a, k);
        M64 t = cpu.psraw(s, 2);
        M64 u = cpu.paddd(m, m);
        M64 v = cpu.packssdw(u, t);
        cpu.movqStore(dst + off, v);
        cpu.jcc(i + 1 < iters);
    }
}

struct CaptureArm
{
    double seconds = 0.0;
    uint64_t events = 0;
    std::vector<uint8_t> image; ///< trace image from the last rep
};

/**
 * Capture the Cpu-driven kernel with the given emit block size. The
 * timed region is attach -> run -> detach: the per-event emit and
 * capture path. finish()/serializeV2() (one-shot per capture) run
 * outside the clock but still feed the byte-identity gate.
 */
CaptureArm
captureWithCpu(uint32_t batch, const int16_t *src, const int16_t *coef,
               int16_t *dst)
{
    CaptureArm arm;
    for (int rep = 0; rep < kRepetitions; ++rep) {
        runtime::Cpu cpu; // fresh register round-robin state per rep
        cpu.setEmitBatch(batch);
        trace::MaterializeSink sink("micro_mmx", "mmx", 1);
        cpu.attachSink(&sink);
        const double t0 = now();
        cpuMicroKernel(cpu, src, coef, dst, kKernelIters);
        cpu.attachSink(nullptr); // tail flush is part of the capture
        const double dt = now() - t0;
        if (!rep || dt < arm.seconds)
            arm.seconds = dt;
        const trace::MaterializedTrace mat = sink.finish(&cpu);
        arm.events = mat.instrCount();
        arm.image = mat.serializeV2();
    }
    return arm;
}

} // namespace

int
main()
{
    // -- part 1: op-layer throughput --
    Rng rng(0xb0a710ad);
    std::vector<MmxReg> a;
    std::vector<MmxReg> b;
    for (size_t i = 0; i < kBufSize; ++i) {
        a.push_back(MmxReg(rng.next()));
        b.push_back(MmxReg(rng.next()));
    }

    std::printf("mmx op throughput — scalar reference vs %s, %llu iters\n\n",
                kActivePath, static_cast<unsigned long long>(kOpIters));
    const std::vector<OpRow> rows = benchOps(a, b);
    Table opsTable({"op", "scalar Mops/s", "fast Mops/s", "speedup"});
    for (const OpRow &r : rows)
        opsTable.addRow({r.name, Table::fmtFixed(r.scalarMops, 1),
                         Table::fmtFixed(r.fastMops, 1),
                         Table::fmtRatio(r.fastMops / r.scalarMops)});
    opsTable.print();
    const double geomean = geomeanSpeedup(rows);
    std::printf("\ngeomean op speedup    %.2fx\n\n", geomean);

    // -- part 2: live-capture throughput --
    std::vector<int16_t> src(1024);
    std::vector<int16_t> coef(4);
    std::vector<int16_t> dst(1024);
    for (int16_t &v : src)
        v = static_cast<int16_t>(rng.next());
    for (int16_t &v : coef)
        v = static_cast<int16_t>(rng.next());

    CaptureArm perInstr =
        captureWithCpu(1, src.data(), coef.data(), dst.data());
    CaptureArm batched = captureWithCpu(runtime::Cpu::kEmitBatch, src.data(),
                                        coef.data(), dst.data());

    const bool identical = perInstr.image == batched.image;
    auto eps = [](double seconds, uint64_t events) {
        return static_cast<double>(events) / seconds;
    };
    const double speedupVsPerInstr = perInstr.seconds / batched.seconds;

    std::printf("live capture — %llu events into a MaterializeSink\n\n",
                static_cast<unsigned long long>(batched.events));
    Table capTable({"arm", "capture ms", "events/sec"});
    capTable.addRow({"cpu, batch=1",
                     Table::fmtFixed(perInstr.seconds * 1e3, 2),
                     Table::fmtCount(static_cast<int64_t>(
                         eps(perInstr.seconds, perInstr.events)))});
    capTable.addRow({"cpu, batch=512",
                     Table::fmtFixed(batched.seconds * 1e3, 2),
                     Table::fmtCount(static_cast<int64_t>(
                         eps(batched.seconds, batched.events)))});
    capTable.print();
    std::printf("\ncapture speedup       %.2fx vs batch=1\n",
                speedupVsPerInstr);
    std::printf("traces byte-identical %s\n", identical ? "yes" : "NO");

    std::FILE *json = std::fopen("BENCH_mmx_ops.json", "w");
    if (json) {
        std::fprintf(json,
                     "{\n"
                     "  \"active_path\": \"%s\",\n"
                     "  \"op_iters\": %llu,\n"
                     "  \"repetitions\": %d,\n"
                     "  \"ops\": [\n",
                     kActivePath, static_cast<unsigned long long>(kOpIters),
                     kRepetitions);
        for (size_t i = 0; i < rows.size(); ++i)
            std::fprintf(json,
                         "    {\"name\": \"%s\", \"scalar_mops\": %.1f, "
                         "\"fast_mops\": %.1f}%s\n",
                         rows[i].name, rows[i].scalarMops, rows[i].fastMops,
                         i + 1 < rows.size() ? "," : "");
        std::fprintf(
            json,
            "  ],\n"
            "  \"geomean_op_speedup\": %.3f,\n"
            "  \"live_capture\": {\n"
            "    \"events\": %llu,\n"
            "    \"per_instr_seconds\": %.6f,\n"
            "    \"batched_seconds\": %.6f,\n"
            "    \"batched_events_per_sec\": %.0f,\n"
            "    \"speedup_vs_per_instr\": %.3f,\n"
            "    \"identical\": %s\n"
            "  }\n"
            "}\n",
            geomean, static_cast<unsigned long long>(batched.events),
            perInstr.seconds, batched.seconds,
            eps(batched.seconds, batched.events), speedupVsPerInstr,
            identical ? "true" : "false");
        std::fclose(json);
        std::fprintf(stderr, "wrote BENCH_mmx_ops.json\n");
    }

    if (!identical) {
        std::fprintf(stderr, "FAIL: batched capture diverged from "
                             "per-instruction capture\n");
        return 1;
    }
#if defined(NDEBUG) && defined(MMXDSP_MMX_HAVE_HOST_SIMD)
    if (geomean <= 1.0) {
        std::fprintf(stderr,
                     "FAIL: %s op path not faster than scalar "
                     "(geomean %.2fx)\n",
                     kActivePath, geomean);
        return 1;
    }
#else
    std::fprintf(stderr, "perf gates skipped (debug build or no host "
                         "SSE2 path)\n");
#endif
    return 0;
}
