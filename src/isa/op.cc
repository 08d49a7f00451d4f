#include "op.hh"

#include <array>

#include "support/logging.hh"

namespace mmxdsp::isa {

namespace {

using enum PairClass;
using enum Unit;
using enum MmxCategory;

constexpr size_t
idx(Op op)
{
    return static_cast<size_t>(op);
}

/**
 * Build the attribute table.
 *
 * Latency/blocking values follow the Intel Architecture Optimization
 * Manual for the Pentium with MMX (P55C), with the values the paper
 * itself quotes taking precedence (imul = 10 cycles, emms up to 50).
 * Micro-op counts follow the Pentium II decode rules for the reg-reg
 * form; the decode rules behind sim::descTable() adjust memory forms.
 */
std::array<OpInfo, kNumOps>
makeTable()
{
    std::array<OpInfo, kNumOps> t{};

    auto set = [&](Op op, const char *name, PairClass pc, uint8_t lat,
                   uint8_t block, Unit u, uint8_t uops, MmxCategory cat) {
        t[idx(op)] = OpInfo{name, pc, lat, block, u, uops, cat};
    };

    // Scalar data movement.
    set(Op::Mov,   "mov",   UV, 1, 1, IntAlu, 1, None);
    set(Op::Lea,   "lea",   UV, 1, 1, IntAlu, 1, None);
    set(Op::Movzx, "movzx", NP, 3, 3, IntAlu, 1, None);
    set(Op::Movsx, "movsx", NP, 3, 3, IntAlu, 1, None);
    set(Op::Xchg,  "xchg",  NP, 3, 3, IntAlu, 3, None);
    set(Op::Push,  "push",  UV, 1, 1, IntAlu, 3, None);
    set(Op::Pop,   "pop",   UV, 1, 1, IntAlu, 2, None);

    // Scalar ALU.
    set(Op::Add,  "add",  UV, 1, 1, IntAlu, 1, None);
    set(Op::Adc,  "adc",  PU, 1, 1, IntAlu, 2, None);
    set(Op::Sub,  "sub",  UV, 1, 1, IntAlu, 1, None);
    set(Op::Sbb,  "sbb",  PU, 1, 1, IntAlu, 2, None);
    set(Op::Inc,  "inc",  UV, 1, 1, IntAlu, 1, None);
    set(Op::Dec,  "dec",  UV, 1, 1, IntAlu, 1, None);
    set(Op::Neg,  "neg",  UV, 1, 1, IntAlu, 1, None);
    set(Op::Cmp,  "cmp",  UV, 1, 1, IntAlu, 1, None);
    set(Op::Test, "test", UV, 1, 1, IntAlu, 1, None);
    set(Op::And,  "and",  UV, 1, 1, IntAlu, 1, None);
    set(Op::Or,   "or",   UV, 1, 1, IntAlu, 1, None);
    set(Op::Xor,  "xor",  UV, 1, 1, IntAlu, 1, None);
    set(Op::Not,  "not",  UV, 1, 1, IntAlu, 1, None);
    set(Op::Shl,  "shl",  PU, 1, 1, IntAlu, 1, None);
    set(Op::Shr,  "shr",  PU, 1, 1, IntAlu, 1, None);
    set(Op::Sar,  "sar",  PU, 1, 1, IntAlu, 1, None);

    // Multiply / divide. The paper attributes matvec's superlinear MMX
    // speedup to imul's 10-cycle, non-pipelined latency.
    set(Op::Imul, "imul", NP, 10, 10, IntMul, 1, None);
    set(Op::Mul,  "mul",  NP, 10, 10, IntMul, 1, None);
    set(Op::Idiv, "idiv", NP, 46, 46, IntDiv, 4, None);
    set(Op::Div,  "div",  NP, 41, 41, IntDiv, 4, None);
    set(Op::Cdq,  "cdq",  NP, 2, 2, IntAlu, 1, None);

    // Control flow.
    set(Op::Jmp,   "jmp",   PV, 1, 1, Branch, 1, None);
    set(Op::Jcc,   "jcc",   PV, 1, 1, Branch, 1, None);
    set(Op::Call,  "call",  PV, 1, 1, Branch, 4, None);
    set(Op::Ret,   "ret",   NP, 2, 2, Branch, 4, None);
    set(Op::Setcc, "setcc", NP, 1, 1, IntAlu, 1, None);
    set(Op::Nop,   "nop",   UV, 1, 1, IntAlu, 1, None);

    // x87. Modelled as non-pairing (we do not emit fxch scheduling), with
    // pipelined add/mul so independent operations still stream at ~1/cycle.
    set(Op::Fld,   "fld",   NP, 1, 1, Fp, 1, None);
    set(Op::Fst,   "fst",   NP, 2, 2, Fp, 2, None);
    set(Op::Fstp,  "fstp",  NP, 2, 2, Fp, 2, None);
    set(Op::Fild,  "fild",  NP, 3, 3, Fp, 3, None);
    set(Op::Fistp, "fistp", NP, 6, 6, Fp, 3, None);
    set(Op::Fadd,  "fadd",  NP, 3, 1, Fp, 1, None);
    set(Op::Fsub,  "fsub",  NP, 3, 1, Fp, 1, None);
    set(Op::Fmul,  "fmul",  NP, 3, 2, Fp, 1, None);
    set(Op::Fdiv,  "fdiv",  NP, 39, 39, FpDiv, 1, None);
    set(Op::Fchs,  "fchs",  NP, 1, 1, Fp, 1, None);
    set(Op::Fabs,  "fabs",  NP, 1, 1, Fp, 1, None);
    set(Op::Fsqrt, "fsqrt", NP, 70, 70, FpDiv, 1, None);
    set(Op::Fcom,  "fcom",  NP, 1, 1, Fp, 1, None);
    set(Op::Fxch,  "fxch",  PV, 1, 1, Fp, 1, None);

    // MMX data transfer.
    set(Op::Movd, "movd", UV, 1, 1, MmxAlu, 1, Mov);
    set(Op::Movq, "movq", UV, 1, 1, MmxAlu, 1, Mov);

    // MMX packed arithmetic.
    set(Op::Paddb,   "paddb",   UV, 1, 1, MmxAlu, 1, Arith);
    set(Op::Paddw,   "paddw",   UV, 1, 1, MmxAlu, 1, Arith);
    set(Op::Paddd,   "paddd",   UV, 1, 1, MmxAlu, 1, Arith);
    set(Op::Paddsb,  "paddsb",  UV, 1, 1, MmxAlu, 1, Arith);
    set(Op::Paddsw,  "paddsw",  UV, 1, 1, MmxAlu, 1, Arith);
    set(Op::Paddusb, "paddusb", UV, 1, 1, MmxAlu, 1, Arith);
    set(Op::Paddusw, "paddusw", UV, 1, 1, MmxAlu, 1, Arith);
    set(Op::Psubb,   "psubb",   UV, 1, 1, MmxAlu, 1, Arith);
    set(Op::Psubw,   "psubw",   UV, 1, 1, MmxAlu, 1, Arith);
    set(Op::Psubd,   "psubd",   UV, 1, 1, MmxAlu, 1, Arith);
    set(Op::Psubsb,  "psubsb",  UV, 1, 1, MmxAlu, 1, Arith);
    set(Op::Psubsw,  "psubsw",  UV, 1, 1, MmxAlu, 1, Arith);
    set(Op::Psubusb, "psubusb", UV, 1, 1, MmxAlu, 1, Arith);
    set(Op::Psubusw, "psubusw", UV, 1, 1, MmxAlu, 1, Arith);

    // The single MMX multiplier: 3-cycle latency, fully pipelined. The
    // paper contrasts pmaddwd (two 16x16 multiplies in 3 cycles) with
    // imul (one multiply in 10).
    set(Op::Pmulhw,  "pmulhw",  UV, 3, 1, MmxMul, 1, Arith);
    set(Op::Pmullw,  "pmullw",  UV, 3, 1, MmxMul, 1, Arith);
    set(Op::Pmaddwd, "pmaddwd", UV, 3, 1, MmxMul, 1, Arith);

    // MMX compares.
    set(Op::Pcmpeqb, "pcmpeqb", UV, 1, 1, MmxAlu, 1, Arith);
    set(Op::Pcmpeqw, "pcmpeqw", UV, 1, 1, MmxAlu, 1, Arith);
    set(Op::Pcmpeqd, "pcmpeqd", UV, 1, 1, MmxAlu, 1, Arith);
    set(Op::Pcmpgtb, "pcmpgtb", UV, 1, 1, MmxAlu, 1, Arith);
    set(Op::Pcmpgtw, "pcmpgtw", UV, 1, 1, MmxAlu, 1, Arith);
    set(Op::Pcmpgtd, "pcmpgtd", UV, 1, 1, MmxAlu, 1, Arith);

    // Pack / unpack run on the single shifter unit.
    set(Op::Packsswb,  "packsswb",  UV, 1, 1, MmxShift, 1, PackUnpack);
    set(Op::Packssdw,  "packssdw",  UV, 1, 1, MmxShift, 1, PackUnpack);
    set(Op::Packuswb,  "packuswb",  UV, 1, 1, MmxShift, 1, PackUnpack);
    set(Op::Punpckhbw, "punpckhbw", UV, 1, 1, MmxShift, 1, PackUnpack);
    set(Op::Punpckhwd, "punpckhwd", UV, 1, 1, MmxShift, 1, PackUnpack);
    set(Op::Punpckhdq, "punpckhdq", UV, 1, 1, MmxShift, 1, PackUnpack);
    set(Op::Punpcklbw, "punpcklbw", UV, 1, 1, MmxShift, 1, PackUnpack);
    set(Op::Punpcklwd, "punpcklwd", UV, 1, 1, MmxShift, 1, PackUnpack);
    set(Op::Punpckldq, "punpckldq", UV, 1, 1, MmxShift, 1, PackUnpack);

    // Logical.
    set(Op::Pand,  "pand",  UV, 1, 1, MmxAlu, 1, Arith);
    set(Op::Pandn, "pandn", UV, 1, 1, MmxAlu, 1, Arith);
    set(Op::Por,   "por",   UV, 1, 1, MmxAlu, 1, Arith);
    set(Op::Pxor,  "pxor",  UV, 1, 1, MmxAlu, 1, Arith);

    // Shifts.
    set(Op::Psllw, "psllw", UV, 1, 1, MmxShift, 1, Arith);
    set(Op::Pslld, "pslld", UV, 1, 1, MmxShift, 1, Arith);
    set(Op::Psllq, "psllq", UV, 1, 1, MmxShift, 1, Arith);
    set(Op::Psrlw, "psrlw", UV, 1, 1, MmxShift, 1, Arith);
    set(Op::Psrld, "psrld", UV, 1, 1, MmxShift, 1, Arith);
    set(Op::Psrlq, "psrlq", UV, 1, 1, MmxShift, 1, Arith);
    set(Op::Psraw, "psraw", UV, 1, 1, MmxShift, 1, Arith);
    set(Op::Psrad, "psrad", UV, 1, 1, MmxShift, 1, Arith);

    // State switch back to x87: "up to a 50-cycle penalty" (paper 3.1).
    set(Op::Emms, "emms", NP, 50, 50, Other, 11, MmxCategory::Emms);

    for (size_t i = 0; i < kNumOps; ++i) {
        if (t[i].name == nullptr)
            mmxdsp_panic("OpInfo table entry %zu left unset", i);
    }
    return t;
}

} // namespace

const std::array<OpInfo, kNumOps> &
opTable()
{
    static const std::array<OpInfo, kNumOps> t = makeTable();
    return t;
}

const OpInfo &
opInfo(Op op)
{
    if (op >= Op::NumOps)
        mmxdsp_panic("opInfo: bad op %u", static_cast<unsigned>(op));
    return opTable()[idx(op)];
}

bool
isX87(Op op)
{
    return op >= Op::Fld && op <= Op::Fxch;
}


} // namespace mmxdsp::isa
