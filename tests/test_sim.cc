/**
 * @file
 * Unit tests for the Pentium timing model and the Pentium II micro-op
 * decode model.
 */

#include <gtest/gtest.h>

#include "isa/event.hh"
#include "sim/pentium_timer.hh"
#include "sim/uop.hh"

namespace mmxdsp::sim {
namespace {

using isa::InstrEvent;
using isa::MemMode;
using isa::Op;
using isa::RegClass;

InstrEvent
ev(Op op, isa::RegTag s0 = isa::kNoReg, isa::RegTag s1 = isa::kNoReg,
   isa::RegTag dst = isa::kNoReg)
{
    InstrEvent e;
    e.op = op;
    e.src0 = s0;
    e.src1 = s1;
    e.dst = dst;
    return e;
}

InstrEvent
load(Op op, uint64_t addr, uint8_t size, isa::RegTag dst)
{
    InstrEvent e = ev(op, isa::kNoReg, isa::kNoReg, dst);
    e.mem = MemMode::Load;
    e.addr = addr;
    e.size = size;
    return e;
}

InstrEvent
branch(Op op, uint32_t site, bool taken)
{
    InstrEvent e = ev(op);
    e.site = site;
    e.taken = taken;
    return e;
}

constexpr isa::RegTag r0 = isa::makeTag(RegClass::Int, 0);
constexpr isa::RegTag r1 = isa::makeTag(RegClass::Int, 1);
constexpr isa::RegTag r2 = isa::makeTag(RegClass::Int, 2);
constexpr isa::RegTag r3 = isa::makeTag(RegClass::Int, 3);
constexpr isa::RegTag m0 = isa::makeTag(RegClass::Mmx, 0);
constexpr isa::RegTag m1 = isa::makeTag(RegClass::Mmx, 1);
constexpr isa::RegTag m2 = isa::makeTag(RegClass::Mmx, 2);
constexpr isa::RegTag m3 = isa::makeTag(RegClass::Mmx, 3);

TEST(PentiumTimer, IndependentUvOpsPair)
{
    PentiumTimer t;
    EXPECT_EQ(t.consume(ev(Op::Add, r0, r1, r0)), 1u);
    // Independent: pairs into the V pipe at zero extra cost.
    EXPECT_EQ(t.consume(ev(Op::Sub, r2, r3, r2)), 0u);
    EXPECT_EQ(t.cycles(), 1u);
    EXPECT_EQ(t.stats().pairs, 1u);
}

TEST(PentiumTimer, RawDependenceBlocksPairing)
{
    PentiumTimer t;
    t.consume(ev(Op::Add, r0, r1, r0));
    // Consumes r0 produced by the U instruction: no pairing.
    t.consume(ev(Op::Add, r2, r0, r2));
    EXPECT_EQ(t.cycles(), 2u);
    EXPECT_EQ(t.stats().pairs, 0u);
}

TEST(PentiumTimer, WawDependenceBlocksPairing)
{
    PentiumTimer t;
    t.consume(ev(Op::Add, r0, r1, r0));
    t.consume(ev(Op::Sub, r2, r3, r0)); // writes same dest
    EXPECT_EQ(t.cycles(), 2u);
}

TEST(PentiumTimer, ThreeOpsTakeTwoCycles)
{
    PentiumTimer t;
    t.consume(ev(Op::Add, r0, isa::kNoReg, r0));
    t.consume(ev(Op::Sub, r1, isa::kNoReg, r1));
    t.consume(ev(Op::And, r2, isa::kNoReg, r2));
    EXPECT_EQ(t.cycles(), 2u);
}

TEST(PentiumTimer, NpOpIssuesAloneWithFullBlocking)
{
    PentiumTimer t;
    EXPECT_EQ(t.consume(ev(Op::Imul, r0, r1, r0)), 10u);
    EXPECT_EQ(t.cycles(), 10u);
}

TEST(PentiumTimer, ImulLatencySeenByConsumer)
{
    PentiumTimer t;
    t.consume(ev(Op::Imul, r0, r1, r0)); // ready at 10
    t.consume(ev(Op::Add, r2, r0, r2));  // must wait
    EXPECT_EQ(t.cycles(), 11u);
}

TEST(PentiumTimer, PuClassCanOnlyLeadNotFollow)
{
    PentiumTimer t;
    // shl is PU: can open a pair in U...
    t.consume(ev(Op::Shl, r0, isa::kNoReg, r0));
    // ...and an independent UV op joins in V.
    EXPECT_EQ(t.consume(ev(Op::Add, r1, isa::kNoReg, r1)), 0u);
    EXPECT_EQ(t.cycles(), 1u);

    // But a PU op cannot be the V half.
    PentiumTimer t2;
    t2.consume(ev(Op::Add, r1, isa::kNoReg, r1));
    t2.consume(ev(Op::Shl, r0, isa::kNoReg, r0));
    EXPECT_EQ(t2.cycles(), 2u);
}

TEST(PentiumTimer, MmxMultiplierIsPipelined)
{
    PentiumTimer t;
    // Independent pmaddwd ops: single multiplier forbids pairing, but
    // the unit is pipelined so they stream one per cycle.
    t.consume(ev(Op::Pmaddwd, m0, m1, m0));
    t.consume(ev(Op::Pmaddwd, m2, m3, m2));
    EXPECT_EQ(t.cycles(), 2u);

    // A dependent consumer waits the 3-cycle latency.
    PentiumTimer t2;
    t2.consume(ev(Op::Pmaddwd, m0, m1, m0));
    t2.consume(ev(Op::Paddd, m2, m0, m2));
    EXPECT_EQ(t2.cycles(), 4u);
}

TEST(PentiumTimer, MmxAluPairsWithMultiply)
{
    PentiumTimer t;
    t.consume(ev(Op::Pmaddwd, m0, m1, m0));
    // Independent ALU op can share the cycle (different units).
    EXPECT_EQ(t.consume(ev(Op::Paddw, m2, m3, m2)), 0u);
    EXPECT_EQ(t.cycles(), 1u);
}

TEST(PentiumTimer, TwoShifterOpsCannotPair)
{
    PentiumTimer t;
    t.consume(ev(Op::Punpcklbw, m0, m1, m0));
    t.consume(ev(Op::Punpckhbw, m2, m3, m2));
    EXPECT_EQ(t.cycles(), 2u);
}

TEST(PentiumTimer, ColdLoadChargesPaperPenalty)
{
    PentiumTimer t;
    // Cold load: 1 issue + 15 penalty.
    EXPECT_EQ(t.consume(load(Op::Mov, 0x1000, 4, r0)), 16u);
    // Warm load: 1 cycle.
    EXPECT_EQ(t.consume(load(Op::Mov, 0x1004, 4, r1)), 1u);
    EXPECT_EQ(t.stats().memPenaltyCycles, 15u);
}

TEST(PentiumTimer, TwoMemoryOpsCannotPair)
{
    PentiumTimer t;
    t.consume(load(Op::Mov, 0x1000, 4, r0)); // cold
    t.consume(load(Op::Mov, 0x1004, 4, r1)); // warm, but U slot closed
    t.consume(load(Op::Mov, 0x1008, 4, r2)); // warm, previous was mem
    EXPECT_EQ(t.cycles(), 18u);
    EXPECT_EQ(t.stats().pairs, 0u);
}

TEST(PentiumTimer, LoadCanPairWithAluOp)
{
    PentiumTimer t;
    t.consume(load(Op::Mov, 0x1000, 4, r0)); // cold miss, closes pairing
    t.consume(load(Op::Mov, 0x1008, 4, r1)); // warm, opens pair
    EXPECT_EQ(t.consume(ev(Op::Add, r2, isa::kNoReg, r2)), 0u);
}

TEST(PentiumTimer, FirstTakenBranchPaysMispredict)
{
    PentiumTimer t;
    uint64_t c = t.consume(branch(Op::Jcc, 7, true));
    EXPECT_EQ(c, 1u + 4u); // issue + the P5's mispredict penalty
    // Trained now.
    EXPECT_EQ(t.consume(branch(Op::Jcc, 7, true)), 1u);
}

TEST(PentiumTimer, EmmsCostsFiftyCycles)
{
    PentiumTimer t;
    EXPECT_EQ(t.consume(ev(Op::Emms)), 50u);
}

TEST(PentiumTimer, FaddStreamsButHasLatency)
{
    constexpr isa::RegTag f0 = isa::makeTag(RegClass::Fp, 0);
    constexpr isa::RegTag f1 = isa::makeTag(RegClass::Fp, 1);
    constexpr isa::RegTag f2 = isa::makeTag(RegClass::Fp, 2);

    // Independent fadds: 1 per cycle (pipelined, non-pairing).
    PentiumTimer t;
    t.consume(ev(Op::Fadd, f0, isa::kNoReg, f0));
    t.consume(ev(Op::Fadd, f1, isa::kNoReg, f1));
    EXPECT_EQ(t.cycles(), 2u);

    // Dependent chain: 3-cycle latency dominates.
    PentiumTimer t2;
    t2.consume(ev(Op::Fadd, f0, f1, f0));
    t2.consume(ev(Op::Fadd, f2, f0, f2));
    EXPECT_EQ(t2.cycles(), 4u);
}

TEST(PentiumTimer, MispredictClosesTheOpenPair)
{
    PentiumTimer t;
    t.consume(ev(Op::Add, r0, isa::kNoReg, r0)); // opens a pair
    // A mispredicted branch cannot join the pair and adds its bubble.
    uint64_t cost = t.consume(branch(Op::Jcc, 11, true));
    EXPECT_GT(cost, 1u);
    // The next instruction cannot pair with anything pre-branch.
    uint64_t after = t.consume(ev(Op::Sub, r1, isa::kNoReg, r1));
    EXPECT_EQ(after, 1u);
}

TEST(PentiumTimer, NpInstructionCannotJoinAPair)
{
    PentiumTimer t;
    t.consume(ev(Op::Add, r0, isa::kNoReg, r0));
    // NP ret/emms-class op issues alone.
    EXPECT_EQ(t.consume(ev(Op::Movzx, r1, isa::kNoReg, r1)), 3u);
}

TEST(PentiumTimer, StorePairsWithAluOp)
{
    PentiumTimer t;
    // Warm the line first.
    InstrEvent warm = ev(Op::Mov, isa::kNoReg, isa::kNoReg, r0);
    warm.mem = MemMode::Load;
    warm.addr = 0x2000;
    warm.size = 4;
    t.consume(warm);

    InstrEvent store = ev(Op::Mov, r1);
    store.mem = MemMode::Store;
    store.addr = 0x2004;
    store.size = 4;
    t.consume(store); // opens a pair (warm store)
    EXPECT_EQ(t.consume(ev(Op::Add, r2, isa::kNoReg, r2)), 0u)
        << "independent ALU op joins the store's cycle";
}

TEST(PentiumTimer, ResetTimeOnlyKeepsCachesWarm)
{
    // The timer keeps its caches warm: a second load of a resident line
    // costs one cycle.
    PentiumTimer t;
    InstrEvent load = ev(Op::Mov, isa::kNoReg, isa::kNoReg, r0);
    load.mem = MemMode::Load;
    load.addr = 0x4000;
    load.size = 4;
    EXPECT_GT(t.consume(load), 1u); // cold miss
    EXPECT_EQ(t.consume(load), 1u) << "line still resident";
}

TEST(PentiumTimer, StatsDecomposeCycles)
{
    // The stall counters never exceed total cycles.
    PentiumTimer t;
    for (int i = 0; i < 50; ++i) {
        t.consume(ev(Op::Imul, r0, r1, r0));
        t.consume(ev(Op::Add, r2, r0, r2));
        t.consume(branch(Op::Jcc, 400 + (i % 3), i % 2 == 0));
    }
    const TimerStats &s = t.stats();
    EXPECT_EQ(s.instructions, 150u);
    EXPECT_LE(s.memPenaltyCycles + s.mispredictCycles
                  + s.dependStallCycles,
              t.cycles());
}

// ---------------- micro-op decode ----------------

TEST(UopCount, RegRegFormsUseTable)
{
    EXPECT_EQ(uopCount(ev(Op::Add)), 1u);
    EXPECT_EQ(uopCount(ev(Op::Imul)), 1u);
    EXPECT_EQ(uopCount(ev(Op::Ret)), 4u);
    EXPECT_EQ(uopCount(ev(Op::Paddw)), 1u);
}

TEST(UopCount, PureLoadIsOneUop)
{
    EXPECT_EQ(uopCount(load(Op::Mov, 0, 4, r0)), 1u);
    EXPECT_EQ(uopCount(load(Op::Movq, 0, 8, m0)), 1u);
    EXPECT_EQ(uopCount(load(Op::Fld, 0, 8, isa::kNoReg)), 1u);
}

TEST(UopCount, LoadOpAddsOne)
{
    EXPECT_EQ(uopCount(load(Op::Add, 0, 4, r0)), 2u);
    EXPECT_EQ(uopCount(load(Op::Pmaddwd, 0, 8, m0)), 2u);
}

TEST(UopCount, StoresSplitIntoAddressAndData)
{
    InstrEvent e = ev(Op::Mov);
    e.mem = MemMode::Store;
    e.size = 4;
    EXPECT_EQ(uopCount(e), 2u);

    e.op = Op::Push;
    EXPECT_EQ(uopCount(e), 3u);

    e.op = Op::Fstp;
    EXPECT_EQ(uopCount(e), 2u);
}

} // namespace
} // namespace mmxdsp::sim
