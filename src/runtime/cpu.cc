#include "cpu.hh"

#include <cmath>
#include <cstring>

#include "support/logging.hh"

namespace mmxdsp::runtime {

using isa::MemMode;
using isa::Op;
using isa::RegClass;
using isa::RegTag;

namespace {

/**
 * Process-global static-site table. Site ids must be stable across Cpu
 * instances because the profiler aggregates by id and the BTB treats the
 * id as the branch identity.
 */
class SiteTable
{
  public:
    uint32_t
    idFor(const std::source_location &loc)
    {
        Key key{loc.file_name(), loc.line(), loc.column()};
        auto it = ids_.find(key);
        if (it != ids_.end())
            return it->second;
        uint32_t id = static_cast<uint32_t>(infos_.size());
        infos_.push_back(SiteInfo{loc.file_name(), loc.line(), loc.column(),
                                  loc.function_name()});
        ids_.emplace(key, id);
        return id;
    }

    const SiteInfo &
    info(uint32_t id) const
    {
        if (id >= infos_.size())
            mmxdsp_panic("bad site id %u", id);
        return infos_[id];
    }

    static SiteTable &
    instance()
    {
        static SiteTable table;
        return table;
    }

  private:
    struct Key
    {
        const char *file;
        uint32_t line;
        uint32_t column;
        bool operator==(const Key &) const = default;
    };

    struct KeyHash
    {
        size_t
        operator()(const Key &k) const
        {
            size_t h = std::hash<const void *>()(k.file);
            h = h * 1315423911u + k.line;
            h = h * 1315423911u + k.column;
            return h;
        }
    };

    std::unordered_map<Key, uint32_t, KeyHash> ids_;
    std::vector<SiteInfo> infos_;
};

constexpr size_t kStackBytes = 16 * 1024;
constexpr size_t kConstPoolMax = 4096;

} // namespace

Cpu::Cpu()
    : stack_(kStackBytes), sp_(kStackBytes)
{
    emitBuf_.reserve(kEmitBatch);
    constPool_.reserve(kConstPoolMax);
}

void
Cpu::attachSink(sim::TraceSink *sink)
{
    flushEmit(); // deliver the buffered tail to the previous sink
    sink_ = sink;
}

const SiteInfo &
Cpu::siteInfo(uint32_t site) const
{
    return SiteTable::instance().info(site);
}

uint32_t
Cpu::siteId(const Loc &loc)
{
    return SiteTable::instance().idFor(loc);
}

RegTag
Cpu::newIntTag()
{
    intRr_ = static_cast<uint8_t>((intRr_ + 1) % 6);
    return isa::makeTag(RegClass::Int, intRr_);
}

RegTag
Cpu::newFpTag()
{
    fpRr_ = static_cast<uint8_t>((fpRr_ + 1) % 8);
    return isa::makeTag(RegClass::Fp, fpRr_);
}

RegTag
Cpu::newMmxTag()
{
    mmxRr_ = static_cast<uint8_t>((mmxRr_ + 1) % 8);
    return isa::makeTag(RegClass::Mmx, mmxRr_);
}

void *
Cpu::stackPush()
{
    if (sp_ < 4)
        mmxdsp_panic("modelled stack overflow");
    sp_ -= 4;
    return &stack_[sp_];
}

void
Cpu::stackPop(int slots)
{
    sp_ += static_cast<size_t>(slots) * 4;
    if (sp_ > stack_.size())
        mmxdsp_panic("modelled stack underflow");
}

// ================= scalar integer =================

R32
Cpu::imm32(int32_t value, Loc loc)
{
    R32 r{value, newIntTag()};
    emitRR(Op::Mov, isa::kNoReg, isa::kNoReg, r.tag, loc);
    return r;
}

R32
Cpu::mov(R32 a, Loc loc)
{
    R32 r{a.v, newIntTag()};
    emitRR(Op::Mov, a.tag, isa::kNoReg, r.tag, loc);
    return r;
}

R32
Cpu::load32(const int32_t *p, Loc loc)
{
    R32 r{*p, newIntTag()};
    emitLoad(Op::Mov, p, 4, isa::kNoReg, r.tag, loc);
    return r;
}

R32
Cpu::load32u(const uint32_t *p, Loc loc)
{
    R32 r{static_cast<int32_t>(*p), newIntTag()};
    emitLoad(Op::Mov, p, 4, isa::kNoReg, r.tag, loc);
    return r;
}

R32
Cpu::load16s(const int16_t *p, Loc loc)
{
    R32 r{*p, newIntTag()};
    emitLoad(Op::Movsx, p, 2, isa::kNoReg, r.tag, loc);
    return r;
}

R32
Cpu::load16u(const uint16_t *p, Loc loc)
{
    R32 r{*p, newIntTag()};
    emitLoad(Op::Movzx, p, 2, isa::kNoReg, r.tag, loc);
    return r;
}

R32
Cpu::load8s(const int8_t *p, Loc loc)
{
    R32 r{*p, newIntTag()};
    emitLoad(Op::Movsx, p, 1, isa::kNoReg, r.tag, loc);
    return r;
}

R32
Cpu::load8u(const uint8_t *p, Loc loc)
{
    R32 r{*p, newIntTag()};
    emitLoad(Op::Movzx, p, 1, isa::kNoReg, r.tag, loc);
    return r;
}

void
Cpu::store32(int32_t *p, R32 a, Loc loc)
{
    *p = a.v;
    emitStore(Op::Mov, p, 4, a.tag, loc);
}

void
Cpu::store32u(uint32_t *p, R32 a, Loc loc)
{
    *p = static_cast<uint32_t>(a.v);
    emitStore(Op::Mov, p, 4, a.tag, loc);
}

void
Cpu::store16(int16_t *p, R32 a, Loc loc)
{
    *p = static_cast<int16_t>(a.v);
    emitStore(Op::Mov, p, 2, a.tag, loc);
}

void
Cpu::store16u(uint16_t *p, R32 a, Loc loc)
{
    *p = static_cast<uint16_t>(a.v);
    emitStore(Op::Mov, p, 2, a.tag, loc);
}

void
Cpu::store8(uint8_t *p, R32 a, Loc loc)
{
    *p = static_cast<uint8_t>(a.v);
    emitStore(Op::Mov, p, 1, a.tag, loc);
}

R32
Cpu::add(R32 a, R32 b, Loc loc)
{
    R32 r{static_cast<int32_t>(static_cast<uint32_t>(a.v)
                               + static_cast<uint32_t>(b.v)),
          a.tag};
    emitRR(Op::Add, a.tag, b.tag, r.tag, loc);
    return r;
}

R32
Cpu::addImm(R32 a, int32_t imm, Loc loc)
{
    R32 r{static_cast<int32_t>(static_cast<uint32_t>(a.v)
                               + static_cast<uint32_t>(imm)),
          a.tag};
    emitRR(Op::Add, a.tag, isa::kNoReg, r.tag, loc);
    return r;
}

R32
Cpu::addLoad32(R32 a, const int32_t *p, Loc loc)
{
    R32 r{static_cast<int32_t>(static_cast<uint32_t>(a.v)
                               + static_cast<uint32_t>(*p)),
          a.tag};
    emit(Op::Add, MemMode::Load, p, 4, a.tag, isa::kNoReg, r.tag, false, loc);
    return r;
}

R32
Cpu::sub(R32 a, R32 b, Loc loc)
{
    R32 r{static_cast<int32_t>(static_cast<uint32_t>(a.v)
                               - static_cast<uint32_t>(b.v)),
          a.tag};
    emitRR(Op::Sub, a.tag, b.tag, r.tag, loc);
    return r;
}

R32
Cpu::subImm(R32 a, int32_t imm, Loc loc)
{
    R32 r{static_cast<int32_t>(static_cast<uint32_t>(a.v)
                               - static_cast<uint32_t>(imm)),
          a.tag};
    emitRR(Op::Sub, a.tag, isa::kNoReg, r.tag, loc);
    return r;
}

R32
Cpu::and_(R32 a, R32 b, Loc loc)
{
    R32 r{a.v & b.v, a.tag};
    emitRR(Op::And, a.tag, b.tag, r.tag, loc);
    return r;
}

R32
Cpu::andImm(R32 a, int32_t imm, Loc loc)
{
    R32 r{a.v & imm, a.tag};
    emitRR(Op::And, a.tag, isa::kNoReg, r.tag, loc);
    return r;
}

R32
Cpu::or_(R32 a, R32 b, Loc loc)
{
    R32 r{a.v | b.v, a.tag};
    emitRR(Op::Or, a.tag, b.tag, r.tag, loc);
    return r;
}

R32
Cpu::xor_(R32 a, R32 b, Loc loc)
{
    R32 r{a.v ^ b.v, a.tag};
    emitRR(Op::Xor, a.tag, b.tag, r.tag, loc);
    return r;
}

R32
Cpu::xchgMem(int32_t *p, R32 a, Loc loc)
{
    R32 r{*p, a.tag};
    *p = a.v;
    emit(Op::Xchg, MemMode::Store, p, 4, a.tag, isa::kNoReg, r.tag, false,
         loc);
    return r;
}

R32
Cpu::not_(R32 a, Loc loc)
{
    R32 r{~a.v, a.tag};
    emitRR(Op::Not, a.tag, isa::kNoReg, r.tag, loc);
    return r;
}

R32
Cpu::neg(R32 a, Loc loc)
{
    R32 r{-a.v, a.tag};
    emitRR(Op::Neg, a.tag, isa::kNoReg, r.tag, loc);
    return r;
}

R32
Cpu::shl(R32 a, int count, Loc loc)
{
    R32 r{static_cast<int32_t>(static_cast<uint32_t>(a.v) << (count & 31)),
          a.tag};
    emitRR(Op::Shl, a.tag, isa::kNoReg, r.tag, loc);
    return r;
}

R32
Cpu::shr(R32 a, int count, Loc loc)
{
    R32 r{static_cast<int32_t>(static_cast<uint32_t>(a.v) >> (count & 31)),
          a.tag};
    emitRR(Op::Shr, a.tag, isa::kNoReg, r.tag, loc);
    return r;
}

R32
Cpu::sar(R32 a, int count, Loc loc)
{
    R32 r{a.v >> (count & 31), a.tag};
    emitRR(Op::Sar, a.tag, isa::kNoReg, r.tag, loc);
    return r;
}

R32
Cpu::imul(R32 a, R32 b, Loc loc)
{
    R32 r{static_cast<int32_t>(static_cast<int64_t>(a.v)
                               * static_cast<int64_t>(b.v)),
          a.tag};
    emitRR(Op::Imul, a.tag, b.tag, r.tag, loc);
    return r;
}

R32
Cpu::imulImm(R32 a, int32_t imm, Loc loc)
{
    R32 r{static_cast<int32_t>(static_cast<int64_t>(a.v)
                               * static_cast<int64_t>(imm)),
          a.tag};
    emitRR(Op::Imul, a.tag, isa::kNoReg, r.tag, loc);
    return r;
}

R32
Cpu::imulLoad16(R32 a, const int16_t *p, Loc loc)
{
    R32 r{static_cast<int32_t>(static_cast<int64_t>(a.v)
                               * static_cast<int64_t>(*p)),
          a.tag};
    emit(Op::Imul, MemMode::Load, p, 2, a.tag, isa::kNoReg, r.tag, false,
         loc);
    return r;
}

R32
Cpu::idiv(R32 a, R32 b, Loc loc)
{
    if (b.v == 0)
        mmxdsp_panic("idiv by zero in instrumented code");
    emitRR(Op::Cdq, a.tag, isa::kNoReg, a.tag, loc);
    R32 r{a.v / b.v, a.tag};
    emitRR(Op::Idiv, a.tag, b.tag, r.tag, loc);
    return r;
}

void
Cpu::cmp(R32 a, R32 b, Loc loc)
{
    emitRR(Op::Cmp, a.tag, b.tag, isa::kNoReg, loc);
}

void
Cpu::cmpImm(R32 a, int32_t imm, Loc loc)
{
    (void)imm;
    emitRR(Op::Cmp, a.tag, isa::kNoReg, isa::kNoReg, loc);
}

void
Cpu::test(R32 a, R32 b, Loc loc)
{
    emitRR(Op::Test, a.tag, b.tag, isa::kNoReg, loc);
}

void
Cpu::jcc(bool taken, Loc loc)
{
    emit(Op::Jcc, MemMode::None, nullptr, 0, isa::kNoReg, isa::kNoReg,
         isa::kNoReg, taken, loc);
}

void
Cpu::jmp(Loc loc)
{
    emit(Op::Jmp, MemMode::None, nullptr, 0, isa::kNoReg, isa::kNoReg,
         isa::kNoReg, true, loc);
}

// ================= x87 =================

F64
Cpu::fldz(Loc loc)
{
    F64 r{0.0, newFpTag()};
    emitRR(Op::Fld, isa::kNoReg, isa::kNoReg, r.tag, loc);
    return r;
}

F64
Cpu::fimm(double value, Loc loc)
{
    uint64_t key;
    std::memcpy(&key, &value, sizeof(key));
    auto it = constSlots_.find(key);
    size_t slot;
    if (it != constSlots_.end()) {
        slot = it->second;
    } else {
        if (constPool_.size() >= kConstPoolMax)
            mmxdsp_panic("constant pool exhausted");
        slot = constPool_.size();
        constPool_.push_back(value);
        constSlots_.emplace(key, slot);
    }
    F64 r{value, newFpTag()};
    emitLoad(Op::Fld, &constPool_[slot], 8, isa::kNoReg, r.tag, loc);
    return r;
}

F64
Cpu::fld32(const float *p, Loc loc)
{
    F64 r{static_cast<double>(*p), newFpTag()};
    emitLoad(Op::Fld, p, 4, isa::kNoReg, r.tag, loc);
    return r;
}

F64
Cpu::fld64(const double *p, Loc loc)
{
    F64 r{*p, newFpTag()};
    emitLoad(Op::Fld, p, 8, isa::kNoReg, r.tag, loc);
    return r;
}

F64
Cpu::fild16(const int16_t *p, Loc loc)
{
    F64 r{static_cast<double>(*p), newFpTag()};
    emitLoad(Op::Fild, p, 2, isa::kNoReg, r.tag, loc);
    return r;
}

F64
Cpu::fild32(const int32_t *p, Loc loc)
{
    F64 r{static_cast<double>(*p), newFpTag()};
    emitLoad(Op::Fild, p, 4, isa::kNoReg, r.tag, loc);
    return r;
}

F64
Cpu::fmov(F64 a, Loc loc)
{
    F64 r{a.v, newFpTag()};
    emitRR(Op::Fld, a.tag, isa::kNoReg, r.tag, loc);
    return r;
}

F64
Cpu::fadd(F64 a, F64 b, Loc loc)
{
    F64 r{a.v + b.v, a.tag};
    emitRR(Op::Fadd, a.tag, b.tag, r.tag, loc);
    return r;
}

F64
Cpu::fsub(F64 a, F64 b, Loc loc)
{
    F64 r{a.v - b.v, a.tag};
    emitRR(Op::Fsub, a.tag, b.tag, r.tag, loc);
    return r;
}

F64
Cpu::fmul(F64 a, F64 b, Loc loc)
{
    F64 r{a.v * b.v, a.tag};
    emitRR(Op::Fmul, a.tag, b.tag, r.tag, loc);
    return r;
}

F64
Cpu::fdiv(F64 a, F64 b, Loc loc)
{
    F64 r{a.v / b.v, a.tag};
    emitRR(Op::Fdiv, a.tag, b.tag, r.tag, loc);
    return r;
}

F64
Cpu::fchs(F64 a, Loc loc)
{
    F64 r{-a.v, a.tag};
    emitRR(Op::Fchs, a.tag, isa::kNoReg, r.tag, loc);
    return r;
}

F64
Cpu::fsqrt_(F64 a, Loc loc)
{
    F64 r{a.v > 0.0 ? std::sqrt(a.v) : 0.0, a.tag};
    emitRR(Op::Fsqrt, a.tag, isa::kNoReg, r.tag, loc);
    return r;
}

F64
Cpu::fabs_(F64 a, Loc loc)
{
    F64 r{a.v < 0 ? -a.v : a.v, a.tag};
    emitRR(Op::Fabs, a.tag, isa::kNoReg, r.tag, loc);
    return r;
}

F64
Cpu::faddLoad32(F64 a, const float *p, Loc loc)
{
    F64 r{a.v + static_cast<double>(*p), a.tag};
    emit(Op::Fadd, MemMode::Load, p, 4, a.tag, isa::kNoReg, r.tag, false,
         loc);
    return r;
}

F64
Cpu::faddLoad64(F64 a, const double *p, Loc loc)
{
    F64 r{a.v + *p, a.tag};
    emit(Op::Fadd, MemMode::Load, p, 8, a.tag, isa::kNoReg, r.tag, false,
         loc);
    return r;
}

F64
Cpu::fmulLoad32(F64 a, const float *p, Loc loc)
{
    F64 r{a.v * static_cast<double>(*p), a.tag};
    emit(Op::Fmul, MemMode::Load, p, 4, a.tag, isa::kNoReg, r.tag, false,
         loc);
    return r;
}

F64
Cpu::fmulLoad64(F64 a, const double *p, Loc loc)
{
    F64 r{a.v * *p, a.tag};
    emit(Op::Fmul, MemMode::Load, p, 8, a.tag, isa::kNoReg, r.tag, false,
         loc);
    return r;
}

void
Cpu::fstp32(float *p, F64 a, Loc loc)
{
    *p = static_cast<float>(a.v);
    emitStore(Op::Fstp, p, 4, a.tag, loc);
}

void
Cpu::fstp64(double *p, F64 a, Loc loc)
{
    *p = a.v;
    emitStore(Op::Fstp, p, 8, a.tag, loc);
}

R32
Cpu::ftoi(F64 a, Loc loc)
{
    // Round-half-to-even like the FPU default rounding mode.
    double fl = std::floor(a.v);
    double frac = a.v - fl;
    int64_t n;
    if (frac < 0.5)
        n = static_cast<int64_t>(fl);
    else if (frac > 0.5)
        n = static_cast<int64_t>(fl) + 1;
    else
        n = static_cast<int64_t>(fl) + (static_cast<int64_t>(fl) % 2 != 0);
    scratch_ = static_cast<int32_t>(n);
    emitStore(Op::Fistp, &scratch_, 4, a.tag, loc);
    R32 r{scratch_, newIntTag()};
    emitLoad(Op::Mov, &scratch_, 4, isa::kNoReg, r.tag, loc);
    return r;
}

void
Cpu::fistp16(int16_t *p, F64 a, Loc loc)
{
    double v = a.v < 0 ? a.v - 0.5 : a.v + 0.5;
    *p = static_cast<int16_t>(static_cast<int32_t>(v));
    emitStore(Op::Fistp, p, 2, a.tag, loc);
}

void
Cpu::fistp32(int32_t *p, F64 a, Loc loc)
{
    double fl = std::floor(a.v);
    double frac = a.v - fl;
    int64_t n;
    if (frac < 0.5)
        n = static_cast<int64_t>(fl);
    else if (frac > 0.5)
        n = static_cast<int64_t>(fl) + 1;
    else
        n = static_cast<int64_t>(fl) + (static_cast<int64_t>(fl) % 2 != 0);
    *p = static_cast<int32_t>(n);
    emitStore(Op::Fistp, p, 4, a.tag, loc);
}

void
Cpu::fcmpJcc(F64 a, F64 b, bool taken, Loc loc)
{
    // fcom; fnstsw ax; test ah, mask; jcc
    emitRR(Op::Fcom, a.tag, b.tag, isa::kNoReg, loc);
    R32 flags{0, newIntTag()};
    emitRR(Op::Mov, isa::kNoReg, isa::kNoReg, flags.tag, loc);
    emitRR(Op::Test, flags.tag, isa::kNoReg, isa::kNoReg, loc);
    emit(Op::Jcc, MemMode::None, nullptr, 0, isa::kNoReg, isa::kNoReg,
         isa::kNoReg, taken, loc);
}

// ================= MMX =================

M64
Cpu::movqLoad(const void *p, Loc loc)
{
    M64 r{mmx::MmxReg::load(p), newMmxTag()};
    emitLoad(Op::Movq, p, 8, isa::kNoReg, r.tag, loc);
    return r;
}

void
Cpu::movqStore(void *p, M64 a, Loc loc)
{
    a.v.store(p);
    emitStore(Op::Movq, p, 8, a.tag, loc);
}

M64
Cpu::movdLoad(const void *p, Loc loc)
{
    uint32_t lo;
    std::memcpy(&lo, p, 4);
    M64 r{mmx::MmxReg(lo), newMmxTag()};
    emitLoad(Op::Movd, p, 4, isa::kNoReg, r.tag, loc);
    return r;
}

void
Cpu::movdStore(void *p, M64 a, Loc loc)
{
    uint32_t lo = a.v.ud(0);
    std::memcpy(p, &lo, 4);
    emitStore(Op::Movd, p, 4, a.tag, loc);
}

M64
Cpu::movdFromR32(R32 a, Loc loc)
{
    M64 r{mmx::MmxReg(static_cast<uint32_t>(a.v)), newMmxTag()};
    emitRR(Op::Movd, a.tag, isa::kNoReg, r.tag, loc);
    return r;
}

R32
Cpu::movdToR32(M64 a, Loc loc)
{
    R32 r{a.v.sd(0), newIntTag()};
    emitRR(Op::Movd, a.tag, isa::kNoReg, r.tag, loc);
    return r;
}

M64
Cpu::movq(M64 a, Loc loc)
{
    M64 r{a.v, newMmxTag()};
    emitRR(Op::Movq, a.tag, isa::kNoReg, r.tag, loc);
    return r;
}

M64
Cpu::mmxZero(Loc loc)
{
    M64 r{mmx::MmxReg(0), newMmxTag()};
    emitRR(Op::Pxor, r.tag, r.tag, r.tag, loc);
    return r;
}

// The two-operand value ops and immediate-count shifts are generated
// header-inline in cpu.hh from mmx/mmx_op_list.hh; only the load-op
// forms (a memory operand needs emit(), not emitRR()) stay here.

M64
Cpu::pmaddwdLoad(M64 a, const void *p, Loc loc)
{
    M64 r{mmx::pmaddwd(a.v, mmx::MmxReg::load(p)), a.tag};
    emit(Op::Pmaddwd, MemMode::Load, p, 8, a.tag, isa::kNoReg, r.tag, false,
         loc);
    return r;
}

M64
Cpu::paddwLoad(M64 a, const void *p, Loc loc)
{
    M64 r{mmx::paddw(a.v, mmx::MmxReg::load(p)), a.tag};
    emit(Op::Paddw, MemMode::Load, p, 8, a.tag, isa::kNoReg, r.tag, false,
         loc);
    return r;
}

M64
Cpu::pmullwLoad(M64 a, const void *p, Loc loc)
{
    M64 r{mmx::pmullw(a.v, mmx::MmxReg::load(p)), a.tag};
    emit(Op::Pmullw, MemMode::Load, p, 8, a.tag, isa::kNoReg, r.tag, false,
         loc);
    return r;
}

void
Cpu::emms(Loc loc)
{
    emitRR(Op::Emms, isa::kNoReg, isa::kNoReg, isa::kNoReg, loc);
}

// ================= calls =================

void
Cpu::pushArg(R32 a, Loc loc)
{
    void *slot = stackPush();
    std::memcpy(slot, &a.v, 4);
    emitStore(Op::Push, slot, 4, a.tag, loc);
}

void
Cpu::pushImmArg(int32_t v, Loc loc)
{
    void *slot = stackPush();
    std::memcpy(slot, &v, 4);
    emitStore(Op::Push, slot, 4, isa::kNoReg, loc);
}

void
Cpu::call(const char *name, Loc loc)
{
    void *slot = stackPush(); // return address
    emit(Op::Call, MemMode::Store, slot, 4, isa::kNoReg, isa::kNoReg,
         isa::kNoReg, true, loc);
    // Drain the block buffer so the enter marker lands after the Call
    // event in every sink, exactly like the per-instruction path.
    flushEmit();
    if (sink_)
        sink_->onEnterFunction(name);
}

void
Cpu::prologue(int saved_regs, Loc loc)
{
    // push ebp; mov ebp, esp; push <saved>...
    void *slot = stackPush();
    emitStore(Op::Push, slot, 4, isa::kNoReg, loc);
    emitRR(Op::Mov, isa::kNoReg, isa::kNoReg, isa::kNoReg, loc);
    for (int i = 0; i < saved_regs; ++i) {
        void *s = stackPush();
        emitStore(Op::Push, s, 4, isa::kNoReg, loc);
    }
}

void
Cpu::epilogue(int saved_regs, int args, Loc loc)
{
    // pop <saved>...; pop ebp; ret; add esp, 4*args (cdecl caller cleanup)
    for (int i = 0; i < saved_regs; ++i) {
        emitLoad(Op::Pop, &stack_[sp_], 4, isa::kNoReg, isa::kNoReg, loc);
        stackPop(1);
    }
    emitLoad(Op::Pop, &stack_[sp_], 4, isa::kNoReg, isa::kNoReg, loc);
    stackPop(1);
    emit(Op::Ret, MemMode::Load, &stack_[sp_], 4, isa::kNoReg, isa::kNoReg,
         isa::kNoReg, true, loc);
    stackPop(1); // return address
    // Drain the block buffer so the leave marker lands after the Ret
    // event (the caller-cleanup Add below stays after the marker).
    flushEmit();
    if (sink_)
        sink_->onLeaveFunction();
    if (args > 0) {
        emitRR(Op::Add, isa::kNoReg, isa::kNoReg, isa::kNoReg, loc);
        stackPop(args);
    }
}

CallGuard::CallGuard(Cpu &cpu, const char *name, int args, int saved_regs,
                     Cpu::Loc loc)
    : cpu_(cpu), args_(args), savedRegs_(saved_regs), loc_(loc)
{
    for (int i = 0; i < args; ++i)
        cpu_.pushImmArg(0, loc);
    cpu_.call(name, loc);
    cpu_.prologue(saved_regs, loc);
}

CallGuard::~CallGuard()
{
    cpu_.epilogue(savedRegs_, args_, loc_);
}

} // namespace mmxdsp::runtime
