/**
 * @file
 * Unit tests for the sim::TimingModel layer: the P6 (Pentium II) decode
 * and issue model, the P6P (Pentium III-class) issue-port model, the
 * per-event cost contract shared by every backend, the P6-family
 * relation (the P6P times like the P6 until its first port stall), the
 * model factory and name parsing, and the edge timer geometries
 * (direct-mapped caches, 1-entry BTB) that a sweep may request.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "isa/event.hh"
#include "isa/op.hh"
#include "sim/p6_timer.hh"
#include "sim/pentium_timer.hh"
#include "sim/timing_model.hh"
#include "sim/uop.hh"
#include "support/rng.hh"

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
store(Op op, uint64_t addr, uint8_t size, isa::RegTag src)
{
    InstrEvent e = ev(op, src);
    e.mem = MemMode::Store;
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

// ---------------- uop decode table ----------------

TEST(UopTable, MatchesUopCountForEveryOpAndMemMode)
{
    // descTable() is the one per-(op, memory mode) table: its uops are
    // uopCount()'s, its attribution bits are set for exactly the ops
    // VProf charges to call/ret and to call overhead, and bits 0-5 are
    // the timers' flags, derived from isa::opInfo().
    for (size_t op = 0; op < isa::kNumOps; ++op) {
        for (size_t mem = 0; mem < 3; ++mem) {
            InstrEvent e;
            e.op = static_cast<Op>(op);
            e.mem = static_cast<MemMode>(mem);
            const isa::OpInfo &info = isa::opInfo(e.op);
            const UopDesc &d = descTable()[uopTableIndex(e)];
            EXPECT_EQ(d.uops, uopCount(e)) << info.name << " mem " << mem;

            const bool callRet = e.op == Op::Call || e.op == Op::Ret;
            const bool overhead =
                callRet || e.op == Op::Push || e.op == Op::Pop;
            EXPECT_EQ((d.flags & kDescCallRet) != 0, callRet)
                << info.name << " mem " << mem;
            EXPECT_EQ((d.flags & kDescOverhead) != 0, overhead)
                << info.name << " mem " << mem;

            const bool pairable = info.blocking == 1;
            uint8_t low = 0;
            if (e.mem != MemMode::None)
                low |= kDescMem;
            if (info.unit == isa::Unit::MmxMul)
                low |= kDescMmxMul;
            if (info.unit == isa::Unit::MmxShift)
                low |= kDescMmxShift;
            if (pairable && (info.pair == isa::PairClass::UV
                             || info.pair == isa::PairClass::PV))
                low |= kDescPairPV;
            if (pairable && (info.pair == isa::PairClass::UV
                             || info.pair == isa::PairClass::PU))
                low |= kDescPairUP;
            if (isa::isControl(e.op))
                low |= kDescControl;
            EXPECT_EQ(d.flags & 0x3f, low) << info.name << " mem " << mem;
        }
    }
}

// ---------------- P6 decode grouping ----------------

TEST(P6Timer, ThreeIndependentSinglesShareAGroup)
{
    P6Timer t;
    // Three independent single-uop ops fill the 3 decoders in one cycle.
    EXPECT_EQ(t.consume(ev(Op::Add, r1, isa::kNoReg, r0)), 1u);
    EXPECT_EQ(t.consume(ev(Op::Sub, r3, isa::kNoReg, r2)), 0u);
    EXPECT_EQ(t.consume(ev(Op::And, m1, isa::kNoReg, m0)), 0u);
    EXPECT_EQ(t.cycles(), 1u);
    EXPECT_EQ(t.stats().pairs, 2u);
    EXPECT_EQ(t.stats().uopsIssued, 3u);
    // The fourth starts the next group one cycle later.
    EXPECT_EQ(t.consume(ev(Op::Xor, r1, isa::kNoReg, r0)), 1u);
    EXPECT_EQ(t.cycles(), 2u);
}

TEST(P6Timer, IssueWidthBoundsTheGroup)
{
    P6Timer t;
    // add (1 uop) + adc (2 uops) exhaust the 3-uop issue bandwidth...
    EXPECT_EQ(t.consume(ev(Op::Add, r1, isa::kNoReg, r0)), 1u);
    EXPECT_EQ(t.consume(ev(Op::Adc, r3, isa::kNoReg, r2)), 0u);
    // ...so a third instruction cannot join even though a decode slot
    // is free.
    EXPECT_EQ(t.consume(ev(Op::Sub, m1, isa::kNoReg, m0)), 1u);
    EXPECT_EQ(t.cycles(), 2u);
    EXPECT_EQ(t.stats().pairs, 1u);
}

TEST(P6Timer, OnlyDecoderZeroTakesMultiUopOps)
{
    // At issue width 3 the 4-1-1 rule and the uop bandwidth agree: the
    // second multi-uop op of a group never fits either.
    P6Timer t;
    EXPECT_EQ(t.consume(ev(Op::Add, r1, isa::kNoReg, r0)), 1u);
    // First multi-uop op takes decoder 0...
    EXPECT_EQ(t.consume(ev(Op::Adc, r3, isa::kNoReg, r2)), 0u);
    // ...the second must wait for the next group even though a decode
    // slot remains.
    EXPECT_EQ(t.consume(ev(Op::Sbb, m1, isa::kNoReg, m0)), 1u);
    EXPECT_EQ(t.cycles(), 2u);
    EXPECT_EQ(t.stats().pairs, 1u);
}

TEST(P6Timer, MicrocodedOpsStreamAloneFromTheRom)
{
    P6Timer t;
    // emms is 11 uops: microcoded, decodes alone, and drains through
    // the 3-wide issue port over ceil(11/3) = 4 cycles.
    EXPECT_EQ(t.consume(ev(Op::Emms)), 4u);
    EXPECT_EQ(t.stats().blockingExtraCycles, 3u);
    // The group is closed: the next op starts a fresh cycle.
    EXPECT_EQ(t.consume(ev(Op::Add, r1, isa::kNoReg, r0)), 1u);
    EXPECT_EQ(t.cycles(), 5u);
    EXPECT_EQ(t.stats().pairs, 0u);
}

TEST(P6Timer, CallTemplateOccupiesTwoIssueCycles)
{
    P6Timer t;
    // call is a 4-uop template: ceil(4/3) = 2 issue cycles.
    EXPECT_EQ(t.consumeResolved(ev(Op::Call), 0, false), 2u);
    EXPECT_EQ(t.cycles(), 2u);
    EXPECT_EQ(t.stats().uopsIssued, 4u);
}

TEST(P6Timer, PipelinedMultiplierShortensDependencyStalls)
{
    // The P6 multiplier is pipelined: imul latency drops from the
    // Pentium's 10 to 4, so a dependent consumer waits 3 extra cycles,
    // not 9.
    P6Timer p6;
    p6.consume(ev(Op::Imul, r1, isa::kNoReg, r0));
    p6.consume(ev(Op::Add, r0, isa::kNoReg, r2));
    EXPECT_EQ(p6.cycles(), 5u);
    EXPECT_EQ(p6.stats().dependStallCycles, 3u);

    PentiumTimer p5;
    p5.consume(ev(Op::Imul, r1, isa::kNoReg, r0));
    p5.consume(ev(Op::Add, r0, isa::kNoReg, r2));
    EXPECT_EQ(p5.cycles(), 11u);
    EXPECT_GT(p5.cycles(), p6.cycles());
}

TEST(P6Timer, MispredictPaysTheDeepPipelinePenalty)
{
    P6Timer t;
    // Supplied-outcome path: a mispredicted branch charges the P6's
    // 11-cycle penalty on top of its own issue cycle.
    EXPECT_EQ(t.consumeResolved(branch(Op::Jcc, 7, true), 0, true), 12u);
    EXPECT_EQ(t.stats().mispredictCycles, 11u);
    // The fetch bubble closes the decode group.
    EXPECT_EQ(t.consume(ev(Op::Add, r1, isa::kNoReg, r0)), 1u);
    EXPECT_EQ(t.cycles(), 13u);
}

TEST(P6Timer, ConsumePredictsThroughTheSharedBtb)
{
    P6Timer t;
    // Cold BTB: a taken branch is predicted not-taken -> mispredict.
    EXPECT_EQ(t.consume(branch(Op::Jcc, 7, true)), 12u);
    // Now allocated weakly-taken: the same branch predicts correctly.
    EXPECT_EQ(t.consume(branch(Op::Jcc, 7, true)), 1u);
    EXPECT_EQ(t.btb().stats().branches, 2u);
    EXPECT_EQ(t.btb().stats().mispredicts, 1u);
}

TEST(P6Timer, UopsIssuedMatchesTheDecodeTable)
{
    const std::vector<InstrEvent> events = {
        ev(Op::Add, r1, isa::kNoReg, r0),     // 1 uop
        ev(Op::Adc, r3, isa::kNoReg, r2),     // 2 uops
        load(Op::Mov, 0x1000, 4, r0),         // pure load: 1 uop
        load(Op::Add, 0x2000, 4, r2),         // load + alu: 2 uops
        store(Op::Mov, 0x3000, 4, r0),        // store addr + data: 2 uops
        store(Op::Push, 0x4000, 4, r1),       // + esp update: 3 uops
        ev(Op::Emms),                         // microcoded: 11 uops
    };
    uint64_t expected = 0;
    for (const InstrEvent &e : events)
        expected += uopCount(e);

    P6Timer t;
    uint64_t cost_sum = 0;
    for (const InstrEvent &e : events)
        cost_sum += t.consume(e);
    EXPECT_EQ(t.stats().uopsIssued, expected);
    EXPECT_EQ(t.stats().instructions, events.size());
    EXPECT_EQ(cost_sum, t.cycles());
}

// ---------------- P6P port binding ----------------

TEST(P6PTimer, DualAluStreamIsPortBoundNotDecodeBound)
{
    // Three independent 1-uop ALU instructions decode per cycle, but
    // only two ALU ports (p0/p1) drain them: the scheduler window
    // backpressures decode to two uops per cycle, i.e. 0.5 cycles per
    // instruction where the port-less P6 sustains 1/3.
    const int n = 4098;
    P6PTimer pp;
    P6Timer p6;
    for (int i = 0; i < n; ++i) {
        const InstrEvent e = ev(Op::Add, isa::kNoReg, isa::kNoReg,
                                isa::makeTag(RegClass::Int, i & 7));
        pp.consume(e);
        p6.consume(e);
    }
    EXPECT_NEAR(static_cast<double>(pp.cycles()) / n, 0.5, 0.02);
    EXPECT_NEAR(static_cast<double>(p6.cycles()) / n, 1.0 / 3.0, 0.02);
    EXPECT_GT(pp.cycles(), p6.cycles());
    EXPECT_GT(pp.stats().portStallCycles, 0u);
}

TEST(P6PTimer, MultiplierStreamSerializesOnPortZero)
{
    // Independent fmuls all need port 0, the only FP port: one per
    // cycle despite the 3-wide decode front end.
    const int n = 1026;
    P6PTimer t;
    for (int i = 0; i < n; ++i)
        t.consume(ev(Op::Fmul, isa::kNoReg, isa::kNoReg,
                     isa::makeTag(RegClass::Fp, i & 7)));
    EXPECT_NEAR(static_cast<double>(t.cycles()) / n, 1.0, 0.02);
    EXPECT_GT(t.stats().portStallCycles, 0u);
}

TEST(P6PTimer, LoadStreamSerializesOnTheLoadPort)
{
    // Independent hot-line loads: p2 is the single load port, so the
    // stream sustains one load per cycle.
    const int n = 1026;
    P6PTimer t;
    for (int i = 0; i < n; ++i)
        t.consume(load(Op::Mov, 0x40, 4,
                       isa::makeTag(RegClass::Int, i & 7)));
    EXPECT_NEAR(static_cast<double>(t.cycles()) / n, 1.0, 0.05);
}

TEST(P6PTimer, PortDispatchDoesNotExtendResultLatency)
{
    // Port delays bound decode through the window but never push back
    // result readiness: a dependent add after an imul waits the same 3
    // extra cycles as on the P6 (pipelined multiplier, latency 4).
    P6PTimer t;
    t.consume(ev(Op::Imul, r1, isa::kNoReg, r0));
    t.consume(ev(Op::Add, r0, isa::kNoReg, r2));
    EXPECT_EQ(t.cycles(), 5u);
    EXPECT_EQ(t.stats().dependStallCycles, 3u);
}

TEST(P6PTimer, MispredictPaysTheDeeperPipelinePenalty)
{
    P6PTimer t;
    // One stage deeper than the P6: 12 cycles on top of the branch's
    // own issue cycle.
    EXPECT_EQ(t.consumeResolved(branch(Op::Jcc, 7, true), 0, true),
              13u);
    EXPECT_EQ(t.stats().mispredictCycles, 12u);
    // The fetch bubble closes the decode group.
    EXPECT_EQ(t.consume(ev(Op::Add, r1, isa::kNoReg, r0)), 1u);
    EXPECT_EQ(t.cycles(), 14u);
}

// ---------------- shared TimingModel contract ----------------

/** A randomized but well-formed event, mirroring the trace codec test. */
InstrEvent
randomEvent(Rng &rng)
{
    InstrEvent e;
    e.op = static_cast<Op>(rng.nextBelow(isa::kNumOps));
    e.mem = static_cast<MemMode>(rng.nextBelow(3));
    if (e.mem != MemMode::None) {
        e.addr = rng.nextBelow(1 << 20);
        e.size = static_cast<uint8_t>(1u << rng.nextBelow(4));
    }
    e.site = rng.nextBelow(500);
    auto tag = [&]() -> isa::RegTag {
        if (rng.nextBelow(4) == 0)
            return isa::kNoReg;
        return isa::makeTag(static_cast<RegClass>(rng.nextBelow(3)),
                            static_cast<uint8_t>(rng.nextBelow(8)));
    };
    e.src0 = tag();
    e.src1 = tag();
    e.dst = tag();
    e.taken = rng.nextBelow(2) != 0;
    return e;
}

TEST(TimingModel, PerEventCostsSumToCyclesOnBothModels)
{
    Rng rng(101);
    std::vector<InstrEvent> events;
    for (int i = 0; i < 3000; ++i)
        events.push_back(randomEvent(rng));

    for (ModelKind kind :
         {ModelKind::P5, ModelKind::P6, ModelKind::P6P}) {
        auto model = makeTimingModel(MachineConfig{kind, TimerConfig{}});
        uint64_t sum = 0;
        for (const InstrEvent &e : events)
            sum += model->consume(e);
        EXPECT_EQ(sum, model->cycles()) << modelName(kind);
        EXPECT_EQ(model->stats().instructions, events.size())
            << modelName(kind);
    }
}

TEST(TimingModel, StatsDecomposeCyclesExactlyOnEveryModel)
{
    // The CPI stack: cycles = (instructions - pairs) + blocking extra +
    // dependency + memory + mispredict + port stall cycles, exactly, on
    // a stream with pairs or joins, multi-uop ops, penalties and
    // mispredicts on both outcome paths. Every other thousand events
    // are port-bound (independent multiplies, which p0 alone takes), so
    // the P6P's window stalls too.
    const auto check = [](auto &&timer) {
        Rng rng(77);
        for (int i = 0; i < 6000; ++i) {
            InstrEvent e = randomEvent(rng);
            if ((i / 1000) % 2 == 1 && rng.nextBelow(4) != 0) {
                e.op = Op::Pmullw;
                e.mem = MemMode::None;
                e.src0 = e.src1 = isa::kNoReg;
            }
            if (i % 2 == 0) {
                timer.consume(e);
                continue;
            }
            const uint32_t penalty =
                e.mem != MemMode::None ? rng.nextBelow(20) : 0;
            const bool mispredict =
                isa::isControl(e.op) && rng.nextBelow(2) != 0;
            timer.consumeResolved(e, penalty, mispredict);
        }
        const TimerStats s = timer.stats();
        const char *name = modelName(timer.kind());
        EXPECT_EQ(s.instructions, 6000u) << name;
        EXPECT_GT(s.pairs, 0u) << name;
        EXPECT_GT(s.blockingExtraCycles, 0u) << name;
        EXPECT_GT(s.dependStallCycles, 0u) << name;
        EXPECT_GT(s.memPenaltyCycles, 0u) << name;
        EXPECT_GT(s.mispredictCycles, 0u) << name;
        EXPECT_EQ(s.portStallCycles > 0, timer.kind() == ModelKind::P6P)
            << name;
        EXPECT_EQ((s.instructions - s.pairs) + s.blockingExtraCycles
                      + s.dependStallCycles + s.memPenaltyCycles
                      + s.mispredictCycles + s.portStallCycles,
                  timer.cycles())
            << name;
    };
    check(PentiumTimer{});
    check(P6Timer{});
    check(P6PTimer{});
}

TEST(TimingModel, P6PTimesLikeP6UntilItsFirstPortStall)
{
    // The P6P is the P6 front end plus a port-dispatch window. With one
    // shared mispredict penalty, the window is the only difference, so
    // the P6P must charge every event what the P6 charges until its
    // window first holds decode back — on both outcome paths. Every
    // other round mixes in independent multiplies, which p0 alone takes,
    // so its backlog outgrows the window.
    Rng rng(2024);
    int stalled = 0;
    for (int round = 0; round < 20; ++round) {
        TimerConfig config;
        config.mispredict_penalty = rng.nextBelow(16);
        P6Timer base(config);
        P6PTimer ports(config);
        for (int i = 0; i < 2000; ++i) {
            InstrEvent e = randomEvent(rng);
            if (round % 2 == 1 && rng.nextBelow(4) != 0) {
                e.op = Op::Pmullw;
                e.mem = MemMode::None;
                e.src0 = e.src1 = isa::kNoReg;
            }
            uint64_t want, got;
            if (i % 2 == 0) {
                want = base.consume(e);
                got = ports.consume(e);
            } else {
                const uint32_t penalty =
                    e.mem != MemMode::None ? rng.nextBelow(20) : 0;
                const bool mispredict =
                    isa::isControl(e.op) && rng.nextBelow(2) != 0;
                want = base.consumeResolved(e, penalty, mispredict);
                got = ports.consumeResolved(e, penalty, mispredict);
            }
            if (ports.stats().portStallCycles > 0) {
                ++stalled;
                break;
            }
            ASSERT_EQ(got, want) << "round " << round << " event " << i;
            ASSERT_EQ(ports.cycles(), base.cycles()) << round;
            ASSERT_EQ(ports.stats().pairs, base.stats().pairs) << round;
        }
    }
    EXPECT_GT(stalled, 0);
}

TEST(TimingModel, FactoryBuildsTheRequestedModel)
{
    auto p5 = makeTimingModel(MachineConfig{ModelKind::P5, TimerConfig{}});
    ASSERT_NE(p5, nullptr);
    EXPECT_EQ(p5->kind(), ModelKind::P5);
    EXPECT_EQ(p5->cycles(), 0u);

    TimerConfig tweaked;
    tweaked.l1.size_bytes = 8 * 1024;
    auto p6 = makeTimingModel(MachineConfig{ModelKind::P6, tweaked});
    ASSERT_NE(p6, nullptr);
    EXPECT_EQ(p6->kind(), ModelKind::P6);
    EXPECT_EQ(p6->config().l1.size_bytes, 8u * 1024u);

    tweaked.mispredict_penalty = 4;
    auto p6p = makeTimingModel(MachineConfig{ModelKind::P6P, tweaked});
    ASSERT_NE(p6p, nullptr);
    EXPECT_EQ(p6p->kind(), ModelKind::P6P);
    EXPECT_EQ(p6p->config().mispredict_penalty, 4u);
}

TEST(TimingModel, ModelNamesRoundTrip)
{
    // Table-driven over the full enum: every kind must have a distinct
    // lower-case name that parses back to itself.
    for (size_t k = 0; k < kNumModelKinds; ++k) {
        const ModelKind kind = static_cast<ModelKind>(k);
        const char *name = modelName(kind);
        ASSERT_NE(name, nullptr);
        ModelKind parsed{};
        ASSERT_TRUE(parseModelName(name, &parsed)) << name;
        EXPECT_EQ(parsed, kind) << name;
        for (size_t other = 0; other < k; ++other)
            EXPECT_STRNE(name, modelName(static_cast<ModelKind>(other)));
    }
    ModelKind ignored{};
    EXPECT_FALSE(parseModelName("p7", &ignored));
    EXPECT_FALSE(parseModelName("p6pp", &ignored));
    EXPECT_FALSE(parseModelName("", &ignored));
    EXPECT_FALSE(parseModelName("P5", &ignored)); // names are lower-case
}

// ---------------- edge timer geometries ----------------

TEST(TimingModel, DirectMappedCachesThrashOnConflict)
{
    // assoc=1 on both levels: two addresses one L1-wavelength apart
    // evict each other on every access.
    TimerConfig config;
    config.l1.ways = 1;
    config.l2.ways = 1;
    const uint64_t stride =
        static_cast<uint64_t>(config.l1.size_bytes); // same L1 set

    for (ModelKind kind :
         {ModelKind::P5, ModelKind::P6, ModelKind::P6P}) {
        auto model = makeTimingModel(MachineConfig{kind, config});
        uint64_t sum = 0;
        const int rounds = 64;
        for (int i = 0; i < rounds; ++i) {
            sum += model->consume(load(Op::Mov, 0, 4, r0));
            sum += model->consume(load(Op::Mov, stride, 4, r1));
        }
        EXPECT_EQ(sum, model->cycles()) << modelName(kind);
        const mem::CacheStats &l1 = model->memory().l1().stats();
        EXPECT_EQ(l1.accesses, 2u * rounds) << modelName(kind);
        // Direct-mapped: every access after the first pair conflicts.
        EXPECT_EQ(l1.misses, 2u * rounds) << modelName(kind);
        // The two lines land in different L2 sets, so L2 only cold-misses.
        EXPECT_EQ(model->memory().l2().stats().misses, 2u)
            << modelName(kind);
    }

    // The same stream on the default 4-way L1 hits after the cold pair.
    auto assoc = makeTimingModel(MachineConfig{ModelKind::P5, TimerConfig{}});
    for (int i = 0; i < 64; ++i) {
        assoc->consume(load(Op::Mov, 0, 4, r0));
        assoc->consume(load(Op::Mov, stride, 4, r1));
    }
    EXPECT_EQ(assoc->memory().l1().stats().misses, 2u);
}

TEST(TimingModel, SingleEntryBtbThrashesBetweenTwoBranches)
{
    TimerConfig config;
    config.btb_entries = 1;
    config.btb_ways = 1;

    for (ModelKind kind :
         {ModelKind::P5, ModelKind::P6, ModelKind::P6P}) {
        auto model = makeTimingModel(MachineConfig{kind, config});
        uint64_t sum = 0;
        const int rounds = 32;
        for (int i = 0; i < rounds; ++i) {
            sum += model->consume(branch(Op::Jcc, 1, true));
            sum += model->consume(branch(Op::Jcc, 2, true));
        }
        EXPECT_EQ(sum, model->cycles()) << modelName(kind);
        const mem::BtbStats &btb = model->btb().stats();
        EXPECT_EQ(btb.branches, 2u * rounds) << modelName(kind);
        // One entry: each taken branch evicts the other, so every
        // prediction is a miss-allocate mispredict.
        EXPECT_EQ(btb.mispredicts, 2u * rounds) << modelName(kind);
    }

    // A single repeated branch fits even the 1-entry BTB.
    auto model = makeTimingModel(MachineConfig{ModelKind::P6, config});
    for (int i = 0; i < 32; ++i)
        model->consume(branch(Op::Jcc, 1, true));
    EXPECT_EQ(model->btb().stats().mispredicts, 1u);
}

} // namespace
} // namespace mmxdsp::sim
