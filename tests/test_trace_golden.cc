/**
 * @file
 * Regression gates for the trace format and the live-capture path.
 *
 * The batched emit path (runtime::Cpu buffering kEmitBatch events per
 * TraceSink::onInstrBatch call) must be invisible on disk: the same
 * execution captured batched, per instruction and in one span per run
 * between function markers has to produce the same image bytes, the
 * image itself has to stay byte-stable for a
 * fixed event stream, and SuiteConfig::hash() — the trace-store key —
 * must not move, or every stored trace on every machine is silently
 * invalidated.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "harness/suite.hh"
#include "isa/event.hh"
#include "kernels/fir.hh"
#include "kernels/gemm.hh"
#include "runtime/cpu.hh"
#include "sim/trace_sink.hh"
#include "trace/materialize.hh"
#include "trace/materialize_sink.hh"
#include "trace_test_util.hh"

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

/** Forwards every event into a second sink as a span of one: the
 *  per-instruction delivery cadence. */
class PerEventRelay final : public sim::TraceSink
{
  public:
    explicit PerEventRelay(sim::TraceSink &s) : s_(s) {}
    void
    onInstrBatch(std::span<const isa::InstrEvent> events) override
    {
        for (const isa::InstrEvent &e : events)
            s_.onInstrBatch({&e, 1});
    }
    void onEnterFunction(const char *n) override { s_.onEnterFunction(n); }
    void onLeaveFunction() override { s_.onLeaveFunction(); }

  private:
    sim::TraceSink &s_;
};

/** Gathers everything between two function markers and forwards it
 *  into a second sink as one span, however long. */
class PerRunRelay final : public sim::TraceSink
{
  public:
    explicit PerRunRelay(sim::TraceSink &s) : s_(s) {}
    void
    onInstrBatch(std::span<const isa::InstrEvent> events) override
    {
        run_.insert(run_.end(), events.begin(), events.end());
    }
    void
    onEnterFunction(const char *n) override
    {
        flush();
        s_.onEnterFunction(n);
    }
    void
    onLeaveFunction() override
    {
        flush();
        s_.onLeaveFunction();
    }
    /** Forward the open run (the events after the last marker). */
    void
    flush()
    {
        if (run_.empty())
            return;
        longest = std::max(longest, run_.size());
        s_.onInstrBatch(run_);
        run_.clear();
    }

    size_t longest = 0; ///< the longest span forwarded

  private:
    sim::TraceSink &s_;
    std::vector<isa::InstrEvent> run_;
};

TEST(TraceGolden, BatchedCaptureIsByteIdenticalToPerEventCapture)
{
    // Real benchmark pairs, each captured once. The tees hand each
    // block to `batched` as the runtime emits it, to `unbatched` one
    // event at a time, and to `perRun` as one span per run between
    // function markers (gemm's single call is one run far longer than
    // the runtime's 512-event blocks); since all three sinks see the
    // identical sequence in the identical process, their images
    // (addresses, segments, checksums and all) must match byte for
    // byte. This pins the whole batching layer — block boundaries,
    // enter/leave flush points, tail flush on detach, spans of any
    // length — to one on-disk artifact.
    kernels::FirBenchmark fir;
    fir.setup(512, 42);
    kernels::GemmBenchmark gemm;
    gemm.setup(16, 8, 42);
    struct Pair
    {
        const char *name;
        std::function<void(runtime::Cpu &)> run;
    };
    const Pair pairs[] = {
        {"fir.c", [&](runtime::Cpu &c) { fir.runC(c); }},
        {"fir.mmx", [&](runtime::Cpu &c) { fir.runMmx(c); }},
        {"gemm.c", [&](runtime::Cpu &c) { gemm.runC(c); }},
    };
    runtime::Cpu cpu;
    size_t longest = 0;

    for (const Pair &pair : pairs) {
        trace::MaterializeSink batched(pair.name, "", 0x1234);
        trace::MaterializeSink unbatched(pair.name, "", 0x1234);
        trace::MaterializeSink perRun(pair.name, "", 0x1234);
        PerEventRelay eventRelay(unbatched);
        PerRunRelay runRelay(perRun);
        sim::TeeSink relays(&eventRelay, &runRelay);
        sim::TeeSink tee(&batched, &relays);

        cpu.attachSink(&tee);
        pair.run(cpu);
        cpu.attachSink(nullptr);
        runRelay.flush();
        longest = std::max(longest, runRelay.longest);

        const trace::MaterializedTrace a = batched.finish(&cpu);
        const trace::MaterializedTrace b = unbatched.finish(&cpu);
        const trace::MaterializedTrace c = perRun.finish(&cpu);
        ASSERT_GT(a.instrCount(), 1000u) << pair.name;
        EXPECT_EQ(a.instrCount(), b.instrCount()) << pair.name;
        EXPECT_EQ(a.instrCount(), c.instrCount()) << pair.name;
        const std::vector<uint8_t> image = a.serializeV2();
        EXPECT_EQ(image, b.serializeV2()) << pair.name;
        EXPECT_EQ(image, c.serializeV2()) << pair.name;
    }
    EXPECT_GT(longest, size_t{runtime::Cpu::kEmitBatch});
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
        writer.onInstrBatch({&e, 1});
        if (i % 100 == 99)
            writer.onLeaveFunction();
    }
}

TEST(TraceGolden, EncoderImageIsByteStable)
{
    // Golden size and FNV-1a of the image for the fixed stream above.
    // Any drift in the section layout, the static-table or region
    // interning order, the Meta encoding, the checksums or the header
    // trips this. Last re-pinned for the v5 image (no stored tallies,
    // 56-byte header).
    trace::MaterializeSink sink("golden", "mmx", 0xfeedfacecafef00dull);
    writeFixedStream(sink);
    const std::vector<uint8_t> image = sink.finish().serializeV2();
    EXPECT_EQ(image.size(), 13952u);
    EXPECT_EQ(testutil::fnv1a(image.data(), image.size()),
              0x94da4ea88076ba03ull);
}

} // namespace
} // namespace mmxdsp
