#include "uop.hh"

#include "isa/op.hh"

namespace mmxdsp::sim {

namespace {

using isa::MemMode;
using isa::Op;

/** Ops whose memory-source form is a single load micro-op. */
bool
isPureLoad(Op op)
{
    switch (op) {
      case Op::Mov:
      case Op::Movzx:
      case Op::Movsx:
      case Op::Fld:
      case Op::Fild:
      case Op::Movd:
      case Op::Movq:
        return true;
      default:
        return false;
    }
}

/** Ops whose memory-destination form is exactly store-address+data. */
bool
isPureStore(Op op)
{
    switch (op) {
      case Op::Mov:
      case Op::Fst:
      case Op::Fstp:
      case Op::Fistp:
      case Op::Movd:
      case Op::Movq:
        return true;
      default:
        return false;
    }
}

} // namespace

uint32_t
uopCount(const isa::InstrEvent &event)
{
    const isa::OpInfo &info = isa::opInfo(event.op);

    switch (event.mem) {
      case MemMode::None:
        return info.uops;
      case MemMode::Load:
        return isPureLoad(event.op) ? 1u : info.uops + 1u;
      case MemMode::Store:
        if (event.op == Op::Push)
            return 3; // store-address, store-data, ESP update
        if (isPureStore(event.op))
            return 2;
        return info.uops + 2u;
    }
    return info.uops;
}

namespace {

/** Port binding of an execution unit's compute uops. */
PortClass
portOf(isa::Unit unit)
{
    switch (unit) {
      case isa::Unit::IntMul:
      case isa::Unit::IntDiv:
      case isa::Unit::Fp:
      case isa::Unit::FpDiv:
      case isa::Unit::MmxMul:
        return PortClass::P0;
      case isa::Unit::MmxShift:
      case isa::Unit::Branch:
        return PortClass::P1;
      case isa::Unit::IntAlu:
      case isa::Unit::MmxAlu:
      case isa::Unit::Other:
        return PortClass::Either;
    }
    return PortClass::Either;
}

} // namespace

const std::array<UopDesc, isa::kNumOps * 3> &
descTable()
{
    static const std::array<UopDesc, isa::kNumOps * 3> table = [] {
        std::array<UopDesc, isa::kNumOps * 3> t{};
        for (size_t op = 0; op < isa::kNumOps; ++op) {
            const isa::OpInfo &info = isa::opInfo(static_cast<Op>(op));
            for (size_t mem = 0; mem < 3; ++mem) {
                isa::InstrEvent e;
                e.op = static_cast<Op>(op);
                e.mem = static_cast<MemMode>(mem);
                UopDesc &d = t[uopTableIndex(e)];
                d.uops = static_cast<uint8_t>(uopCount(e));
                d.loadUops = mem == static_cast<size_t>(MemMode::Load);
                d.storeOps = mem == static_cast<size_t>(MemMode::Store);
                d.aluUops = static_cast<uint8_t>(
                    d.uops - d.loadUops - 2 * d.storeOps);
                d.port = portOf(info.unit);
                uint8_t f = 0;
                if (mem != static_cast<size_t>(MemMode::None))
                    f |= kDescMem;
                if (info.unit == isa::Unit::MmxMul)
                    f |= kDescMmxMul;
                if (info.unit == isa::Unit::MmxShift)
                    f |= kDescMmxShift;
                if (info.blocking == 1) {
                    if (info.pair == isa::PairClass::UV
                        || info.pair == isa::PairClass::PV)
                        f |= kDescPairPV;
                    if (info.pair == isa::PairClass::UV
                        || info.pair == isa::PairClass::PU)
                        f |= kDescPairUP;
                }
                if (isa::isControl(e.op))
                    f |= kDescControl;
                if (e.op == Op::Call || e.op == Op::Ret)
                    f |= kDescCallRet | kDescOverhead;
                if (e.op == Op::Push || e.op == Op::Pop)
                    f |= kDescOverhead;
                d.flags = f;
                d.blocking = info.blocking;
                d.latP5 = info.latency;
                // The P6 core's pipelined integer multiplier (latency 4
                // instead of the P5's blocking 10) is the one per-op
                // latency difference between the machines.
                d.latP6 = info.latency;
                if (e.op == Op::Imul || e.op == Op::Mul)
                    d.latP6 = 4;
                d.occupy = static_cast<uint8_t>(
                    (d.uops + kP6IssueWidth - 1) / kP6IssueWidth);
                d.opens = static_cast<uint8_t>(
                    d.occupy == 1 ? kP6IssueWidth - d.uops : 0);
            }
        }
        return t;
    }();
    return table;
}

} // namespace mmxdsp::sim
