/**
 * @file
 * Unit tests for the instrumented runtime: value semantics, register-tag
 * allocation, event emission, and call modelling.
 */

#include <gtest/gtest.h>

#include <vector>

#include "runtime/cpu.hh"
#include "sim/trace_sink.hh"

namespace mmxdsp::runtime {
namespace {

using isa::InstrEvent;
using isa::MemMode;
using isa::Op;

/** Records every event and function transition. */
class RecordingSink : public sim::TraceSink
{
  public:
    void
    onInstrBatch(std::span<const InstrEvent> batch) override
    {
        events.insert(events.end(), batch.begin(), batch.end());
    }
    void
    onEnterFunction(const char *name) override
    {
        entered.emplace_back(name);
    }
    void onLeaveFunction() override { ++leaves; }

    std::vector<InstrEvent> events;
    std::vector<std::string> entered;
    int leaves = 0;

    size_t
    countOf(Op op) const
    {
        size_t n = 0;
        for (const auto &e : events)
            n += e.op == op;
        return n;
    }
};

TEST(Cpu, ScalarArithmeticComputes)
{
    Cpu cpu;
    R32 a = cpu.imm32(20);
    R32 b = cpu.imm32(22);
    EXPECT_EQ(cpu.add(a, b).v, 42);
    EXPECT_EQ(cpu.sub(a, b).v, -2);
    EXPECT_EQ(cpu.imul(a, b).v, 440);
    EXPECT_EQ(cpu.sar(cpu.imm32(-8), 1).v, -4);
    EXPECT_EQ(cpu.shr(cpu.imm32(8), 2).v, 2);
    EXPECT_EQ(cpu.idiv(cpu.imm32(-7), cpu.imm32(2)).v, -3); // C truncation
    EXPECT_EQ(cpu.neg(a).v, -20);
}

TEST(Cpu, WraparoundMatchesX86)
{
    Cpu cpu;
    R32 max = cpu.imm32(0x7fffffff);
    EXPECT_EQ(cpu.addImm(max, 1).v, INT32_MIN);
    R32 min = cpu.imm32(INT32_MIN);
    EXPECT_EQ(cpu.subImm(min, 1).v, INT32_MAX);
}

TEST(Cpu, LoadsAndStoresMoveRealData)
{
    Cpu cpu;
    int16_t src = -1234;
    int16_t dst = 0;
    R32 v = cpu.load16s(&src);
    EXPECT_EQ(v.v, -1234);
    cpu.store16(&dst, v);
    EXPECT_EQ(dst, -1234);

    uint8_t b = 200;
    EXPECT_EQ(cpu.load8u(&b).v, 200);
    int8_t sb = -100;
    EXPECT_EQ(cpu.load8s(&sb).v, -100);
}

TEST(Cpu, TwoOperandOpsReuseFirstSourceTag)
{
    Cpu cpu;
    R32 a = cpu.imm32(1);
    R32 b = cpu.imm32(2);
    R32 c = cpu.add(a, b);
    EXPECT_EQ(c.tag, a.tag);
    R32 d = cpu.imul(c, b);
    EXPECT_EQ(d.tag, a.tag);
}

TEST(Cpu, LoadsAllocateFreshTags)
{
    Cpu cpu;
    int32_t x = 0;
    R32 a = cpu.load32(&x);
    R32 b = cpu.load32(&x);
    EXPECT_NE(a.tag, b.tag);
}

TEST(Cpu, EventsCarryMemoryOperands)
{
    Cpu cpu;
    RecordingSink sink;
    cpu.attachSink(&sink);

    int32_t x = 7;
    R32 v = cpu.load32(&x);
    cpu.store32(&x, v);
    cpu.flushEmit();

    ASSERT_EQ(sink.events.size(), 2u);
    EXPECT_EQ(sink.events[0].op, Op::Mov);
    EXPECT_EQ(sink.events[0].mem, MemMode::Load);
    EXPECT_EQ(sink.events[0].addr, reinterpret_cast<uint64_t>(&x));
    EXPECT_EQ(sink.events[0].size, 4);
    EXPECT_EQ(sink.events[1].mem, MemMode::Store);
}

TEST(Cpu, DistinctCallSitesGetDistinctSiteIds)
{
    Cpu cpu;
    RecordingSink sink;
    cpu.attachSink(&sink);

    R32 a = cpu.imm32(1);
    R32 b = cpu.imm32(2);
    cpu.add(a, b);
    cpu.add(a, b);
    cpu.flushEmit();

    ASSERT_EQ(sink.events.size(), 4u);
    EXPECT_NE(sink.events[2].site, sink.events[3].site);
}

TEST(Cpu, SameSiteInLoopKeepsOneId)
{
    Cpu cpu;
    RecordingSink sink;
    cpu.attachSink(&sink);

    R32 a = cpu.imm32(0);
    for (int i = 0; i < 5; ++i)
        a = cpu.addImm(a, 1);
    EXPECT_EQ(a.v, 5);
    cpu.flushEmit();

    uint32_t site = sink.events[1].site;
    for (size_t i = 2; i < sink.events.size(); ++i)
        EXPECT_EQ(sink.events[i].site, site);
}

TEST(Cpu, NoSinkMeansNoObservationButSameValues)
{
    Cpu cpu;
    R32 a = cpu.imm32(5);
    R32 b = cpu.addImm(a, 10);
    EXPECT_EQ(b.v, 15);
}

TEST(Cpu, FloatingPointPath)
{
    Cpu cpu;
    float f = 2.5f;
    double d = 4.0;
    F64 a = cpu.fld32(&f);
    F64 b = cpu.fld64(&d);
    EXPECT_DOUBLE_EQ(cpu.fadd(a, b).v, 6.5);
    EXPECT_DOUBLE_EQ(cpu.fmul(a, b).v, 10.0);
    EXPECT_DOUBLE_EQ(cpu.fdiv(b, a).v, 1.6);
    EXPECT_DOUBLE_EQ(cpu.fchs(a).v, -2.5);

    float out = 0.0f;
    cpu.fstp32(&out, cpu.fadd(a, b));
    EXPECT_FLOAT_EQ(out, 6.5f);
}

TEST(Cpu, FtoiRoundsToNearestEven)
{
    Cpu cpu;
    EXPECT_EQ(cpu.ftoi(F64{2.5, isa::kNoReg}).v, 2);
    EXPECT_EQ(cpu.ftoi(F64{3.5, isa::kNoReg}).v, 4);
    EXPECT_EQ(cpu.ftoi(F64{-2.5, isa::kNoReg}).v, -2);
    EXPECT_EQ(cpu.ftoi(F64{2.4, isa::kNoReg}).v, 2);
    EXPECT_EQ(cpu.ftoi(F64{2.6, isa::kNoReg}).v, 3);
}

TEST(Cpu, FtoiEmitsFistpPlusReload)
{
    Cpu cpu;
    RecordingSink sink;
    cpu.attachSink(&sink);
    cpu.ftoi(F64{1.0, isa::kNoReg});
    cpu.flushEmit();
    ASSERT_EQ(sink.events.size(), 2u);
    EXPECT_EQ(sink.events[0].op, Op::Fistp);
    EXPECT_EQ(sink.events[0].mem, MemMode::Store);
    EXPECT_EQ(sink.events[1].op, Op::Mov);
    EXPECT_EQ(sink.events[1].mem, MemMode::Load);
}

TEST(Cpu, FimmDedupesConstantPoolSlots)
{
    Cpu cpu;
    RecordingSink sink;
    cpu.attachSink(&sink);
    cpu.fimm(3.14159);
    cpu.fimm(3.14159);
    cpu.fimm(2.71828);
    cpu.flushEmit();
    ASSERT_EQ(sink.events.size(), 3u);
    EXPECT_EQ(sink.events[0].addr, sink.events[1].addr);
    EXPECT_NE(sink.events[0].addr, sink.events[2].addr);
}

TEST(Cpu, MmxOpsComputeAndEmit)
{
    Cpu cpu;
    RecordingSink sink;
    cpu.attachSink(&sink);

    alignas(8) int16_t data[4] = {1000, 2000, 3000, 4000};
    alignas(8) int16_t coef[4] = {2, 2, 2, 2};
    M64 d = cpu.movqLoad(data);
    M64 c = cpu.movqLoad(coef);
    M64 prod = cpu.pmaddwd(d, c);
    EXPECT_EQ(prod.v.sd(0), 2 * 1000 + 2 * 2000);
    EXPECT_EQ(prod.v.sd(1), 2 * 3000 + 2 * 4000);

    alignas(8) int32_t out[2];
    cpu.movqStore(out, prod);
    EXPECT_EQ(out[0], 6000);
    EXPECT_EQ(out[1], 14000);
    cpu.flushEmit();

    EXPECT_EQ(sink.countOf(Op::Movq), 3u);
    EXPECT_EQ(sink.countOf(Op::Pmaddwd), 1u);
}

TEST(Cpu, BranchEventsCarryOutcome)
{
    Cpu cpu;
    RecordingSink sink;
    cpu.attachSink(&sink);
    for (int i = 0; i < 3; ++i) {
        cpu.cmpImm(cpu.imm32(i), 3);
        cpu.jcc(i + 1 < 3);
    }
    cpu.flushEmit();
    ASSERT_EQ(sink.countOf(Op::Jcc), 3u);
    std::vector<bool> outcomes;
    for (const auto &e : sink.events) {
        if (e.op == Op::Jcc)
            outcomes.push_back(e.taken);
    }
    EXPECT_EQ(outcomes, (std::vector<bool>{true, true, false}));
}

TEST(CallGuard, EmitsFullLinkageSequence)
{
    Cpu cpu;
    RecordingSink sink;
    cpu.attachSink(&sink);

    {
        CallGuard g(cpu, "nspsFirTest", 3, 2);
        cpu.imm32(0); // one body instruction
    }
    cpu.flushEmit();

    // 3 arg pushes + 1 ebp push + 2 saved pushes = 6 pushes.
    EXPECT_EQ(sink.countOf(Op::Push), 6u);
    EXPECT_EQ(sink.countOf(Op::Call), 1u);
    EXPECT_EQ(sink.countOf(Op::Ret), 1u);
    // 2 saved pops + ebp pop = 3.
    EXPECT_EQ(sink.countOf(Op::Pop), 3u);
    ASSERT_EQ(sink.entered.size(), 1u);
    EXPECT_EQ(sink.entered[0], "nspsFirTest");
    EXPECT_EQ(sink.leaves, 1);

    // Ret arrives before the leave callback and after the body.
    bool saw_ret = false;
    for (const auto &e : sink.events)
        saw_ret = saw_ret || e.op == Op::Ret;
    EXPECT_TRUE(saw_ret);
}

/** Records batch boundaries in addition to the flat event stream. */
class BatchRecordingSink : public RecordingSink
{
  public:
    void
    onInstrBatch(std::span<const InstrEvent> events) override
    {
        batchSizes.push_back(events.size());
        RecordingSink::onInstrBatch(events);
    }

    std::vector<size_t> batchSizes;
};

TEST(CpuEmitBatching, DetachFlushesTheBufferedTail)
{
    Cpu cpu;
    RecordingSink sink;
    cpu.attachSink(&sink);
    R32 a = cpu.imm32(1);
    cpu.addImm(a, 2);
    // Two events, well under a block: nothing delivered yet...
    EXPECT_EQ(sink.events.size(), 0u);
    cpu.attachSink(nullptr);
    // ...until detach flushes them to the old sink.
    ASSERT_EQ(sink.events.size(), 2u);
    EXPECT_EQ(sink.events[0].op, Op::Mov);
    EXPECT_EQ(sink.events[1].op, Op::Add);
}

TEST(CpuEmitBatching, FullBlocksAreDeliveredInKEmitBatchUnits)
{
    Cpu cpu;
    BatchRecordingSink sink;
    cpu.attachSink(&sink);
    R32 a = cpu.imm32(0);
    const size_t n = Cpu::kEmitBatch + Cpu::kEmitBatch / 2;
    for (size_t i = 1; i < n; ++i)
        a = cpu.addImm(a, 1);
    cpu.attachSink(nullptr);
    ASSERT_EQ(sink.batchSizes.size(), 2u);
    EXPECT_EQ(sink.batchSizes[0], Cpu::kEmitBatch);
    EXPECT_EQ(sink.batchSizes[1], Cpu::kEmitBatch / 2);
    EXPECT_EQ(sink.events.size(), n);
}

TEST(CpuEmitBatching, EnterAndLeaveMarkersForceAFlush)
{
    Cpu cpu;
    BatchRecordingSink sink;
    cpu.attachSink(&sink);
    {
        CallGuard g(cpu, "f", 1, 0);
        cpu.imm32(7);
    }
    // Everything up to the Call flushes before the enter marker; the
    // body + Pops/Ret flush before the leave marker. Only the trailing
    // caller-cleanup Add is still buffered here.
    EXPECT_EQ(sink.entered.size(), 1u);
    EXPECT_EQ(sink.leaves, 1);
    EXPECT_EQ(sink.batchSizes.size(), 2u);
    cpu.flushEmit();
    EXPECT_EQ(sink.batchSizes.size(), 3u);
    EXPECT_EQ(sink.countOf(Op::Add), 1u);
}

TEST(CallGuard, NestedCallsBalanceTheModelledStack)
{
    Cpu cpu;
    RecordingSink sink;
    cpu.attachSink(&sink);
    for (int i = 0; i < 50; ++i) {
        CallGuard outer(cpu, "outer", 4);
        CallGuard inner(cpu, "inner", 2);
        cpu.imm32(i);
    }
    EXPECT_EQ(sink.entered.size(), 100u);
    EXPECT_EQ(sink.leaves, 100);
    // If pushes/pops were unbalanced the modelled stack would have
    // overflowed long before 50 iterations (16 KB / ~56 bytes per pair).
}

} // namespace
} // namespace mmxdsp::runtime
