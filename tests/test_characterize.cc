/**
 * @file
 * Golden tests for the uops.info-style self-characterization layer
 * (sim/characterize.hh): the P5 rows must match the paper's published
 * pairing/latency/blocking rules bit-exactly, a handful of
 * paper-derived spot values are pinned literally so a table edit that
 * happens to satisfy the closed forms still trips a golden, and the
 * P6P port model must diverge from the P6 issue-width-only model exactly
 * where dual-ALU contention predicts.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>

#include "isa/op.hh"
#include "sim/characterize.hh"
#include "sim/timing_model.hh"
#include "sim/uop.hh"

namespace mmxdsp::sim {
namespace {

using isa::MemMode;
using isa::Op;

std::vector<CharacterizeRow>
rowsFor(ModelKind kind)
{
    return characterize(MachineConfig{kind, TimerConfig{}});
}

/** Index measured rows by (op, mem) for literal spot checks. */
std::map<std::pair<Op, MemMode>, CharacterizeRow>
byForm(const std::vector<CharacterizeRow> &rows)
{
    std::map<std::pair<Op, MemMode>, CharacterizeRow> m;
    for (const CharacterizeRow &r : rows)
        m[{r.op, r.mem}] = r;
    return m;
}

TEST(Characterize, P5RowsMatchTheClosedFormsBitExactly)
{
    const auto rows = rowsFor(ModelKind::P5);
    ASSERT_EQ(rows.size(), characterizeForms().size());
    for (const CharacterizeRow &r : rows) {
        const char *name = isa::opInfo(r.op).name;
        EXPECT_EQ(r.latency, expectedP5Latency(r.op, r.mem))
            << name << " mem " << static_cast<int>(r.mem);
        EXPECT_EQ(r.throughput, expectedP5Throughput(r.op, r.mem))
            << name << " mem " << static_cast<int>(r.mem);
    }
}

TEST(Characterize, P5SpotValuesMatchThePaperTables)
{
    // Literal paper-derived goldens, independent of the closed forms:
    // if someone edits isa::opTable() *and* the expectations together,
    // these still pin the published machine.
    const auto rows = byForm(rowsFor(ModelKind::P5));
    const struct
    {
        Op op;
        MemMode mem;
        double latency;
        double throughput;
    } golden[] = {
        {Op::Mov, MemMode::None, 1.0, 0.5},   // freely pairing UV
        {Op::Mov, MemMode::Load, 1.0, 1.0},   // mem ref keeps V empty
        {Op::Mov, MemMode::Store, 1.0, 1.0},
        {Op::Shl, MemMode::None, 1.0, 1.0},   // PU: U-pipe only
        {Op::Imul, MemMode::None, 10.0, 10.0}, // NP, blocking 10
        {Op::Fadd, MemMode::None, 3.0, 1.0},  // FP latency 3
        {Op::Fmul, MemMode::None, 3.0, 2.0},  // multiplier blocks 2
        {Op::Pmullw, MemMode::None, 3.0, 1.0}, // MMX multiplier hazard
        {Op::Paddw, MemMode::None, 1.0, 0.5}, // MMX ALU pairs freely
        {Op::Emms, MemMode::None, 50.0, 50.0}, // microcoded, NP
    };
    for (const auto &g : golden) {
        auto it = rows.find({g.op, g.mem});
        ASSERT_NE(it, rows.end()) << isa::opInfo(g.op).name;
        EXPECT_EQ(it->second.latency, g.latency) << isa::opInfo(g.op).name;
        EXPECT_EQ(it->second.throughput, g.throughput)
            << isa::opInfo(g.op).name;
    }
}

TEST(Characterize, P6SpotValuesMatchTheDecodeModel)
{
    const auto rows = byForm(rowsFor(ModelKind::P6));
    // Pipelined multiplier: chain latency 4, independent streams retire
    // 3 per cycle (1-uop imul issues from any decoder on the P6).
    const CharacterizeRow &imul = rows.at({Op::Imul, MemMode::None});
    EXPECT_EQ(imul.latency, 4.0);
    EXPECT_NEAR(imul.throughput, 1.0 / 3.0, 0.01);
    // Single-uop ALU streams sustain the full 3-wide issue.
    EXPECT_NEAR(rows.at({Op::Add, MemMode::None}).throughput, 1.0 / 3.0,
                0.01);
    // Microcoded emms streams alone: ceil(11 uops / 3 wide) = 4.
    EXPECT_EQ(rows.at({Op::Emms, MemMode::None}).throughput, 4.0);
}

TEST(Characterize, P6PDivergesFromP6ExactlyOnDualAluSaturation)
{
    // The acceptance gate of the port model: any independent stream of
    // single-uop ALU instructions saturates both ALU ports, so the P6P
    // must be strictly slower than the P6 there (2/cycle vs 3/cycle) —
    // and on port-serialized streams the P6P sustains its port rate.
    const auto p6 = byForm(rowsFor(ModelKind::P6));
    const auto p6p = byForm(rowsFor(ModelKind::P6P));
    ASSERT_EQ(p6.size(), p6p.size());

    size_t divergent = 0;
    for (const auto &[form, row6] : p6) {
        const auto &info = isa::opInfo(form.first);
        const bool dualAlu = form.second == MemMode::None
                             && info.uops == 1
                             && (info.unit == isa::Unit::IntAlu
                                 || info.unit == isa::Unit::MmxAlu);
        if (!dualAlu)
            continue;
        const CharacterizeRow &rowP = p6p.at(form);
        EXPECT_GT(rowP.throughput, row6.throughput)
            << isa::opInfo(form.first).name;
        // The scheduler window absorbs one cycle at the measurement
        // boundary, so the measured rate sits 1/kCharacterizeMeasure
        // under the steady-state 0.5 — hence NEAR, not EQ.
        EXPECT_NEAR(rowP.throughput, 0.5, 0.01)
            << isa::opInfo(form.first).name;
        ++divergent;
    }
    EXPECT_GT(divergent, 0u);

    // Port-serialized spot values: one per cycle on the single p0
    // (multiplier/FP) and p1 (MMX shift) ports, one load per cycle on
    // p2, and the deeper store path on p3/p4.
    EXPECT_NEAR(p6p.at({Op::Fmul, MemMode::None}).throughput, 1.0, 0.01);
    EXPECT_NEAR(p6p.at({Op::Pmullw, MemMode::None}).throughput, 1.0, 0.01);
    EXPECT_NEAR(p6p.at({Op::Psllw, MemMode::None}).throughput, 1.0, 0.01);
    EXPECT_EQ(p6p.at({Op::Mov, MemMode::Store}).throughput, 1.0);
    EXPECT_NEAR(p6p.at({Op::Mov, MemMode::Load}).throughput, 1.0, 0.05);
    // Latencies are port-independent (dispatch never extends results):
    // the imul chain matches the P6.
    EXPECT_EQ(p6p.at({Op::Imul, MemMode::None}).latency,
              p6.at({Op::Imul, MemMode::None}).latency);
}

TEST(Characterize, GemmRooflineOpsAgreeWithTheDescriptorTable)
{
    // The GEMM roofline analysis converts cycles into cycles/MAC using
    // the pmaddwd (+paddd accumulate, +packssdw store) rates; if the
    // measured machine ever drifted from the UopDesc contract those
    // tables would silently lie. Tie the measured rows to the
    // descriptor fields on all three models, plus literal spot goldens.
    const auto p5 = byForm(rowsFor(ModelKind::P5));
    const auto p6 = byForm(rowsFor(ModelKind::P6));
    const auto p6p = byForm(rowsFor(ModelKind::P6P));

    for (const Op op : {Op::Pmaddwd, Op::Paddd, Op::Packssdw}) {
        const char *name = isa::opInfo(op).name;
        isa::InstrEvent e;
        e.op = op;
        e.mem = MemMode::None;
        const UopDesc &desc = uopDesc(e);

        // Dependency-chain latencies must equal the per-model
        // descriptor latencies (all three ops are 1-blocking, so the
        // P5 chain sustains exactly latP5).
        EXPECT_EQ(p5.at({op, MemMode::None}).latency, desc.latP5) << name;
        EXPECT_EQ(p6.at({op, MemMode::None}).latency, desc.latP6) << name;
        EXPECT_EQ(p6p.at({op, MemMode::None}).latency, desc.latP6) << name;

        // P5 issue rate follows the structural-hazard flags: a
        // single-instance unit (multiplier/shifter) serializes at 1
        // per cycle, a freely-pairing MMX ALU op dual-issues.
        const bool hazard = desc.flags & (kDescMmxMul | kDescMmxShift);
        EXPECT_EQ(p5.at({op, MemMode::None}).throughput, hazard ? 1.0 : 0.5)
            << name;

        // P6 has no ports: every 1-uop op retires 3 per cycle.
        ASSERT_EQ(desc.uops, 1) << name;
        EXPECT_NEAR(p6.at({op, MemMode::None}).throughput, 1.0 / 3.0, 0.01)
            << name;

        // P6P dispatch follows the descriptor's port class: a
        // single-port op sustains 1 per cycle, an either-port ALU op
        // saturates both ports at 2 per cycle.
        const double port_rate = desc.port == PortClass::Either ? 0.5 : 1.0;
        EXPECT_NEAR(p6p.at({op, MemMode::None}).throughput, port_rate, 0.01)
            << name;
    }

    // Literal spot goldens (independent of the descriptor table): the
    // rates the EXPERIMENTS.md roofline discussion quotes.
    EXPECT_EQ(p5.at({Op::Pmaddwd, MemMode::None}).latency, 3.0);
    EXPECT_EQ(p5.at({Op::Pmaddwd, MemMode::None}).throughput, 1.0);
    EXPECT_EQ(p5.at({Op::Paddd, MemMode::None}).throughput, 0.5);
    EXPECT_EQ(p6.at({Op::Pmaddwd, MemMode::None}).latency, 3.0);
    EXPECT_NEAR(p6p.at({Op::Pmaddwd, MemMode::None}).throughput, 1.0, 0.01);
    EXPECT_NEAR(p6p.at({Op::Packssdw, MemMode::None}).throughput, 1.0,
                0.01);
}

} // namespace
} // namespace mmxdsp::sim
