/**
 * @file
 * Tests for the profiler (VProf), the library allocator, and the
 * internal library-call primitives.
 */

#include <gtest/gtest.h>

#include "nsp/alloc.hh"
#include "nsp/internal.hh"
#include "profile/vprof.hh"
#include "runtime/cpu.hh"

namespace mmxdsp {
namespace {

using profile::ProfileResult;
using profile::VProf;
using runtime::CallGuard;
using runtime::Cpu;
using runtime::R32;

// ---------------- VProf ----------------

TEST(VProf, CountsBasicMetrics)
{
    Cpu cpu;
    VProf prof;
    cpu.attachSink(&prof);
    int32_t mem = 0;
    R32 a = cpu.imm32(1);        // 1 instr
    R32 b = cpu.load32(&mem);    // 1 instr, 1 mem ref
    a = cpu.add(a, b);           // 1 instr
    cpu.store32(&mem, a);        // 1 instr, 1 mem ref
    cpu.attachSink(nullptr);

    ProfileResult r = prof.result();
    EXPECT_EQ(r.dynamicInstructions, 4u);
    EXPECT_EQ(r.memoryReferences, 2u);
    EXPECT_EQ(r.staticInstructions, 4u);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_EQ(r.mmxInstructions, 0u);
}

TEST(VProf, StaticVsDynamicInLoop)
{
    Cpu cpu;
    VProf prof;
    cpu.attachSink(&prof);
    R32 a = cpu.imm32(0);
    for (int i = 0; i < 100; ++i)
        a = cpu.addImm(a, 1);
    cpu.attachSink(nullptr);

    ProfileResult r = prof.result();
    EXPECT_EQ(r.dynamicInstructions, 101u);
    EXPECT_EQ(r.staticInstructions, 2u); // the imm32 site + the add site
}

TEST(VProf, FunctionAttributionNests)
{
    Cpu cpu;
    VProf prof;
    cpu.attachSink(&prof);
    {
        CallGuard outer(cpu, "outer_fn", 1);
        cpu.imm32(1);
        cpu.imm32(2);
        {
            CallGuard inner(cpu, "inner_fn", 1);
            cpu.imm32(3);
        }
        cpu.imm32(4);
    }
    cpu.attachSink(nullptr);

    ProfileResult r = prof.result();
    ASSERT_TRUE(r.functions.count("outer_fn"));
    ASSERT_TRUE(r.functions.count("inner_fn"));
    EXPECT_EQ(r.functions.at("outer_fn").calls, 1u);
    EXPECT_EQ(r.functions.at("inner_fn").calls, 1u);
    // inner_fn owns its body plus its prologue/epilogue instructions.
    EXPECT_GE(r.functions.at("inner_fn").instructions, 1u);
    EXPECT_GT(r.functions.at("outer_fn").instructions,
              r.functions.at("inner_fn").instructions);
    EXPECT_EQ(r.functionCalls, 2u);
}

TEST(VProf, PerEventCostsSumToTotalCycles)
{
    // The invariant the reports rely on: per-site cycles sum exactly to
    // the machine's total cycle count.
    Cpu cpu;
    VProf prof;
    cpu.attachSink(&prof);
    int32_t mem[64] = {};
    R32 acc = cpu.imm32(0);
    for (int i = 0; i < 64; ++i) {
        acc = cpu.addLoad32(acc, &mem[i]);
        acc = cpu.imulImm(acc, 3);
        cpu.jcc(i + 1 < 64);
    }
    cpu.attachSink(nullptr);

    uint64_t site_sum = 0;
    for (const auto &[id, st] : prof.sites())
        site_sum += st.cycles;
    EXPECT_EQ(site_sum, prof.result().cycles);
}

TEST(VProf, MmxCategoriesBucketCorrectly)
{
    Cpu cpu;
    VProf prof;
    cpu.attachSink(&prof);
    alignas(8) int16_t d[4] = {1, 2, 3, 4};
    runtime::M64 a = cpu.movqLoad(d);       // Mov
    runtime::M64 b = cpu.paddw(a, a);       // Arith
    b = cpu.punpcklwd(b, b);                // PackUnpack
    cpu.movqStore(d, b);                    // Mov
    cpu.emms();                             // Emms
    cpu.attachSink(nullptr);

    ProfileResult r = prof.result();
    EXPECT_EQ(r.mmxByCategory[static_cast<size_t>(isa::MmxCategory::Mov)],
              2u);
    EXPECT_EQ(r.mmxByCategory[static_cast<size_t>(isa::MmxCategory::Arith)],
              1u);
    EXPECT_EQ(r.mmxByCategory[static_cast<size_t>(
                  isa::MmxCategory::PackUnpack)],
              1u);
    EXPECT_EQ(r.mmxByCategory[static_cast<size_t>(isa::MmxCategory::Emms)],
              1u);
    EXPECT_EQ(r.mmxInstructions, 5u);
}

// ---------------- library allocator ----------------

TEST(NspAlloc, AllocationsAreAlignedAndDistinct)
{
    nsp::tempReset();
    Cpu cpu;
    void *a = nsp::tempAlloc(cpu, 32);
    void *b = nsp::tempAlloc(cpu, 100);
    EXPECT_NE(a, b);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(a) % 8, 0u);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(b) % 8, 0u);
    EXPECT_EQ(nsp::tempLiveCount(), 2);
    nsp::tempFree(cpu, b);
    nsp::tempFree(cpu, a);
    EXPECT_EQ(nsp::tempLiveCount(), 0);
}

TEST(NspAlloc, FreedBlocksAreReused)
{
    nsp::tempReset();
    Cpu cpu;
    void *a = nsp::tempAlloc(cpu, 64);
    nsp::tempFree(cpu, a);
    void *b = nsp::tempAlloc(cpu, 64);
    EXPECT_EQ(a, b) << "first-fit should reuse the freed block";
    nsp::tempFree(cpu, b);
}

TEST(NspAlloc, ManyCyclesDoNotLeakArena)
{
    nsp::tempReset();
    Cpu cpu;
    for (int i = 0; i < 20000; ++i) {
        void *a = nsp::tempAlloc(cpu, 32);
        void *b = nsp::tempAlloc(cpu, 16384);
        nsp::tempFree(cpu, b);
        nsp::tempFree(cpu, a);
    }
    EXPECT_EQ(nsp::tempLiveCount(), 0);
    // Arena must still satisfy a large request (no fragmentation creep).
    void *big = nsp::tempAlloc(cpu, 256 * 1024);
    EXPECT_NE(big, nullptr);
    nsp::tempFree(cpu, big);
}

TEST(NspAlloc, WritesStayWithinBlock)
{
    nsp::tempReset();
    Cpu cpu;
    auto *a = static_cast<uint8_t *>(nsp::tempAlloc(cpu, 64));
    auto *b = static_cast<uint8_t *>(nsp::tempAlloc(cpu, 64));
    for (int i = 0; i < 64; ++i)
        a[i] = 0xaa;
    for (int i = 0; i < 64; ++i)
        b[i] = 0x55;
    for (int i = 0; i < 64; ++i) {
        EXPECT_EQ(a[i], 0xaa);
        EXPECT_EQ(b[i], 0x55);
    }
    nsp::tempFree(cpu, b);
    nsp::tempFree(cpu, a);
}

TEST(NspAlloc, EmitsCallLinkageAndLockTraffic)
{
    nsp::tempReset();
    Cpu cpu;
    VProf prof;
    cpu.attachSink(&prof);
    void *a = nsp::tempAlloc(cpu, 32);
    nsp::tempFree(cpu, a);
    cpu.attachSink(nullptr);

    ProfileResult r = prof.result();
    EXPECT_EQ(r.functionCalls, 2u); // nspAlloc + nspFree
    EXPECT_TRUE(r.functions.count("nspAlloc"));
    EXPECT_TRUE(r.functions.count("nspFree"));
    // The locked xchg appears twice (acquire in each).
    EXPECT_EQ(r.opCounts[static_cast<size_t>(isa::Op::Xchg)], 2u);
}

// ---------------- internal library primitives ----------------

TEST(NspInternal, CopyMovesDataAndCostsACall)
{
    Cpu cpu;
    VProf prof;
    cpu.attachSink(&prof);
    int16_t src[13];
    int16_t dst[13] = {};
    for (int i = 0; i < 13; ++i)
        src[i] = static_cast<int16_t>(i * 3 - 7);
    nsp::detail::libCopy16(cpu, src, dst, 13);
    cpu.attachSink(nullptr);

    for (int i = 0; i < 13; ++i)
        EXPECT_EQ(dst[i], src[i]);
    EXPECT_EQ(prof.result().functionCalls, 1u);
}

TEST(NspInternal, CheckArgsIsPureOverhead)
{
    Cpu cpu;
    VProf prof;
    cpu.attachSink(&prof);
    int dummy = 0;
    nsp::detail::libCheckArgs(cpu, &dummy, 8);
    cpu.attachSink(nullptr);
    // A handful of instructions, one call, no memory writes of data.
    EXPECT_EQ(prof.result().functionCalls, 1u);
    EXPECT_LT(prof.result().dynamicInstructions, 40u);
}

} // namespace
} // namespace mmxdsp
