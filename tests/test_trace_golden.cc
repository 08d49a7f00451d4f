/**
 * @file
 * Regression gates for the trace format and the live-capture path.
 *
 * The batched emit path (runtime::Cpu buffering kEmitBatch events per
 * TraceSink::onInstrBatch call) must be invisible on disk: the same
 * execution captured batched and per-instruction has to produce the
 * same image bytes, the image itself has to stay byte-stable for a
 * fixed event stream, and SuiteConfig::hash() — the trace-store key —
 * must not move, or every stored trace on every machine is silently
 * invalidated.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "harness/suite.hh"
#include "isa/event.hh"
#include "kernels/fir.hh"
#include "runtime/cpu.hh"
#include "sim/trace_sink.hh"
#include "trace/format.hh"
#include "trace/materialize.hh"
#include "trace/materialize_sink.hh"

namespace mmxdsp {
namespace {

// ---------------- cache-key stability ----------------

// A change here means every existing trace store misses (or
// worse, collides): bump only with a deliberate workload/format
// migration. Last bumped when the gemm_dim/gemm_block workload fields
// joined the key.
TEST(TraceGolden, SuiteConfigHashIsStable)
{
    harness::SuiteConfig config;
    EXPECT_EQ(config.hash(), 0x8fc92f1c99584f5full);

    harness::SuiteConfig eighth;
    eighth.scaleDown(8);
    EXPECT_EQ(eighth.hash(), 0xa591fef502cf4b19ull);

    harness::SuiteConfig thirtysecond;
    thirtysecond.scaleDown(32);
    EXPECT_EQ(thirtysecond.hash(), 0x109e820b5e76d541ull);
}

// ---------------- batched capture == per-event capture ----------------

/** Forwards every event one at a time into a second sink. Deliberately
 *  does NOT override onInstrBatch: the base class unrolls batches into
 *  per-instruction onInstr calls, i.e. the historical delivery
 *  cadence. */
class PerEventRelay final : public sim::TraceSink
{
  public:
    explicit PerEventRelay(sim::TraceSink &s) : s_(s) {}
    void onInstr(const isa::InstrEvent &e) override { s_.onInstr(e); }
    void onEnterFunction(const char *n) override { s_.onEnterFunction(n); }
    void onLeaveFunction() override { s_.onLeaveFunction(); }

  private:
    sim::TraceSink &s_;
};

TEST(TraceGolden, BatchedCaptureIsByteIdenticalToPerEventCapture)
{
    // One real benchmark pair, captured once. The tee hands each block
    // to `batched` through onInstrBatch and unrolls the same block
    // per-instruction into `unbatched`; since both sinks see the
    // identical sequence in the identical process, their images
    // (addresses, segments, checksums and all) must match byte for
    // byte. This pins the whole batching layer — block boundaries,
    // enter/leave flush points, tail flush on detach — to the exact
    // on-disk artifact the per-instruction path produces.
    kernels::FirBenchmark fir;
    fir.setup(512, 42);
    runtime::Cpu cpu;

    for (const char *version : {"c", "mmx"}) {
        trace::MaterializeSink batched("fir", version, 0x1234);
        trace::MaterializeSink unbatched("fir", version, 0x1234);
        PerEventRelay relay(unbatched);
        sim::TeeSink tee(&batched, &relay);

        cpu.attachSink(&tee);
        if (version[0] == 'c')
            fir.runC(cpu);
        else
            fir.runMmx(cpu);
        cpu.attachSink(nullptr);

        const trace::MaterializedTrace a = batched.finish(&cpu);
        const trace::MaterializedTrace b = unbatched.finish(&cpu);
        ASSERT_GT(a.instrCount(), 1000u) << version;
        EXPECT_EQ(a.instrCount(), b.instrCount()) << version;
        EXPECT_EQ(a.serializeV2(), b.serializeV2()) << version;
    }
}

// ---------------- image byte-stability ----------------

/** A fixed, address-deterministic event stream (no heap pointers), so
 *  the serialized image is reproducible across processes and builds. */
void
writeFixedStream(sim::TraceSink &writer)
{
    uint64_t addr = 0x1000;
    for (int i = 0; i < 800; ++i) {
        isa::InstrEvent e;
        e.op = static_cast<isa::Op>(i % isa::kNumOps);
        e.site = static_cast<uint32_t>((i * 7) % 23);
        e.mem = static_cast<isa::MemMode>(i % 3);
        if (e.mem != isa::MemMode::None) {
            addr += (i % 5) * 4 - 8; // mix positive and negative deltas
            e.addr = addr;
            e.size = static_cast<uint8_t>(1u << (i % 4));
        }
        if (i % 4 != 0)
            e.src0 = isa::makeTag(isa::RegClass::Mmx, i % 8);
        if (i % 5 != 0)
            e.src1 = isa::makeTag(isa::RegClass::Int, i % 6);
        if (i % 3 != 0)
            e.dst = isa::makeTag(isa::RegClass::Fp, i % 8);
        e.taken = i % 7 == 0;

        if (i % 100 == 0)
            writer.onEnterFunction(i % 200 == 0 ? "even" : "odd");
        writer.onInstr(e);
        if (i % 100 == 99)
            writer.onLeaveFunction();
    }
}

TEST(TraceGolden, EncoderImageIsByteStable)
{
    // Golden size and FNV-1a of the image for the fixed stream above.
    // Any drift in the section layout, the static-table or region
    // interning order, the Meta encoding, the profile template, the
    // checksums or the header trips this. Last re-pinned for the v4
    // image (static table, 6-byte records, memory-only addresses).
    trace::MaterializeSink sink("golden", "mmx", 0xfeedfacecafef00dull);
    writeFixedStream(sink);
    const std::vector<uint8_t> image = sink.finish().serializeV2();
    EXPECT_EQ(image.size(), 14080u);
    EXPECT_EQ(trace::fnv1a(image.data(), image.size()),
              0x76575e0d450ae316ull);
}

} // namespace
} // namespace mmxdsp
