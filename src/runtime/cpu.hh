/**
 * @file
 * The instrumented execution engine.
 *
 * Benchmark kernels and the NSP library are written against this class at
 * "assembly altitude": explicit loads and stores, two-operand ALU ops,
 * x87 operations, MMX operations, compare-and-branch, and modelled
 * call/return. Every method
 *
 *   1. computes the real result on real data (so benchmark outputs are
 *      genuine and can be validated), and
 *   2. emits one isa::InstrEvent to the attached sim::TraceSink, carrying
 *      the mnemonic, memory operand, register dependency tags, and a
 *      static site id derived from std::source_location. Events are
 *      buffered and delivered in kEmitBatch-sized blocks through
 *      TraceSink::onInstrBatch (one virtual dispatch per block, not per
 *      instruction); attachSink(nullptr) flushes the tail, and function
 *      enter/leave callbacks always flush first so ordering relative to
 *      the markers is exactly the per-instruction sequence.
 *
 * Register modelling: values are carried in small handles (R32 / F64 /
 * M64) that hold both the concrete value and a register tag. Two-operand
 * operations write their first source's register (x86 `add eax, ebx`
 * semantics); loads and immediates allocate tags round-robin from the
 * architectural pool (6 allocatable integer registers, 8 x87, 8 MMX).
 * The timing model's scoreboard uses these tags for dependency stalls.
 *
 * When no sink is attached the emit path is a single branch, so the same
 * code doubles as a plain (fast) implementation for output validation.
 */

#ifndef MMXDSP_RUNTIME_CPU_HH
#define MMXDSP_RUNTIME_CPU_HH

#include <cstdint>
#include <source_location>
#include <string>
#include <unordered_map>
#include <vector>

#include "isa/event.hh"
#include "mmx/mmx_ops.hh"
#include "sim/trace_sink.hh"

namespace mmxdsp::runtime {

/** A 32-bit integer value living in a modelled x86 register. */
struct R32
{
    int32_t v = 0;
    isa::RegTag tag = isa::kNoReg;
};

/** A floating-point value living in a modelled x87 register. */
struct F64
{
    double v = 0.0;
    isa::RegTag tag = isa::kNoReg;
};

/** A 64-bit packed value living in a modelled MMX register. */
struct M64
{
    mmx::MmxReg v;
    isa::RegTag tag = isa::kNoReg;
};

/** Descriptive record for one static emit site. */
struct SiteInfo
{
    const char *file = "";
    uint32_t line = 0;
    uint32_t column = 0;
    const char *function = "";
};

/**
 * The instrumented CPU. See the file comment for the model.
 */
class Cpu
{
  public:
    Cpu();

    /** Events per onInstrBatch() block on the live-capture path. */
    static constexpr uint32_t kEmitBatch = 512;

    /**
     * Attach/detach the event consumer (nullptr = run unobserved).
     *
     * Buffered events are flushed to the *previous* sink first, so
     * detaching is also how a run is finalised: after
     * `attachSink(nullptr)` the old sink has seen every instruction.
     * A sink read while still attached may be missing up to one block
     * of trailing events — call flushEmit() first. Destroying a Cpu
     * with a sink still attached drops the buffered tail; detach first.
     */
    void attachSink(sim::TraceSink *sink);
    sim::TraceSink *sink() const { return sink_; }

    /** Deliver buffered events to the attached sink (see attachSink). */
    void
    flushEmit()
    {
        if (sink_ && !emitBuf_.empty())
            sink_->onInstrBatch({emitBuf_.data(), emitBuf_.size()});
        emitBuf_.clear();
    }

    /**
     * Override the emit block size (default kEmitBatch); flushes first
     * so already-buffered events keep their delivery order. n == 1
     * restores the historical one-virtual-call-per-instruction cadence;
     * event content and ordering are identical at any block size.
     */
    void setEmitBatch(uint32_t n);

    /** Descriptive info for a site id (for profiler reports). */
    const SiteInfo &siteInfo(uint32_t site) const;

    /** Number of distinct sites seen so far (across the process). */
    uint32_t siteCount() const;

    using Loc = std::source_location;

    // ================= scalar integer =================

    /** mov r, imm32 */
    R32 imm32(int32_t value, Loc loc = Loc::current());

    /** mov r, r (register copy) */
    R32 mov(R32 a, Loc loc = Loc::current());

    // -- loads (allocate a fresh register) --
    R32 load32(const int32_t *p, Loc loc = Loc::current());
    R32 load32u(const uint32_t *p, Loc loc = Loc::current());
    /** movsx r, word ptr */
    R32 load16s(const int16_t *p, Loc loc = Loc::current());
    /** movzx r, word ptr */
    R32 load16u(const uint16_t *p, Loc loc = Loc::current());
    /** movsx r, byte ptr */
    R32 load8s(const int8_t *p, Loc loc = Loc::current());
    /** movzx r, byte ptr */
    R32 load8u(const uint8_t *p, Loc loc = Loc::current());

    // -- stores --
    void store32(int32_t *p, R32 a, Loc loc = Loc::current());
    void store32u(uint32_t *p, R32 a, Loc loc = Loc::current());
    void store16(int16_t *p, R32 a, Loc loc = Loc::current());
    void store16u(uint16_t *p, R32 a, Loc loc = Loc::current());
    void store8(uint8_t *p, R32 a, Loc loc = Loc::current());

    // -- two-operand ALU (dest = first source's register) --
    R32 add(R32 a, R32 b, Loc loc = Loc::current());
    R32 addImm(R32 a, int32_t imm, Loc loc = Loc::current());
    /** add r, m32 (load-op form) */
    R32 addLoad32(R32 a, const int32_t *p, Loc loc = Loc::current());
    R32 sub(R32 a, R32 b, Loc loc = Loc::current());
    R32 subImm(R32 a, int32_t imm, Loc loc = Loc::current());
    R32 and_(R32 a, R32 b, Loc loc = Loc::current());
    R32 andImm(R32 a, int32_t imm, Loc loc = Loc::current());
    R32 or_(R32 a, R32 b, Loc loc = Loc::current());
    R32 xor_(R32 a, R32 b, Loc loc = Loc::current());
    R32 not_(R32 a, Loc loc = Loc::current());
    /** xchg [m32], r — the locked read-modify-write used for locks. */
    R32 xchgMem(int32_t *p, R32 a, Loc loc = Loc::current());
    R32 neg(R32 a, Loc loc = Loc::current());
    R32 shl(R32 a, int count, Loc loc = Loc::current());
    R32 shr(R32 a, int count, Loc loc = Loc::current());
    R32 sar(R32 a, int count, Loc loc = Loc::current());

    /** imul r, r — the 10-cycle scalar multiply. */
    R32 imul(R32 a, R32 b, Loc loc = Loc::current());
    /** imul r, imm */
    R32 imulImm(R32 a, int32_t imm, Loc loc = Loc::current());
    /** imul r, m16 via movsx'd operand (load-op form). */
    R32 imulLoad16(R32 a, const int16_t *p, Loc loc = Loc::current());
    /** cdq + idiv: returns the quotient (truncating, like C). */
    R32 idiv(R32 a, R32 b, Loc loc = Loc::current());

    // -- flags & branches --
    void cmp(R32 a, R32 b, Loc loc = Loc::current());
    void cmpImm(R32 a, int32_t imm, Loc loc = Loc::current());
    void test(R32 a, R32 b, Loc loc = Loc::current());
    /**
     * Conditional branch with the actual outcome. In loop idiom, pass
     * `taken = loop-continues` at the bottom of the C++ loop body.
     */
    void jcc(bool taken, Loc loc = Loc::current());
    /** Unconditional jump (always taken). */
    void jmp(Loc loc = Loc::current());

    // ================= x87 floating point =================

    /** fldz */
    F64 fldz(Loc loc = Loc::current());
    /** fld from a compiler-generated constant-pool slot. */
    F64 fimm(double value, Loc loc = Loc::current());
    F64 fld32(const float *p, Loc loc = Loc::current());
    F64 fld64(const double *p, Loc loc = Loc::current());
    /** fild m16 */
    F64 fild16(const int16_t *p, Loc loc = Loc::current());
    /** fild m32 */
    F64 fild32(const int32_t *p, Loc loc = Loc::current());

    /** fld st(i) — register-to-register x87 copy. */
    F64 fmov(F64 a, Loc loc = Loc::current());

    F64 fadd(F64 a, F64 b, Loc loc = Loc::current());
    F64 fsub(F64 a, F64 b, Loc loc = Loc::current());
    F64 fmul(F64 a, F64 b, Loc loc = Loc::current());
    F64 fdiv(F64 a, F64 b, Loc loc = Loc::current());
    F64 fchs(F64 a, Loc loc = Loc::current());
    /** fsqrt — the 70-cycle x87 square root. */
    F64 fsqrt_(F64 a, Loc loc = Loc::current());
    F64 fabs_(F64 a, Loc loc = Loc::current());
    /** fadd m32 (load-op form — the workhorse of compiled C loops). */
    F64 faddLoad32(F64 a, const float *p, Loc loc = Loc::current());
    F64 faddLoad64(F64 a, const double *p, Loc loc = Loc::current());
    F64 fmulLoad32(F64 a, const float *p, Loc loc = Loc::current());
    F64 fmulLoad64(F64 a, const double *p, Loc loc = Loc::current());

    void fstp32(float *p, F64 a, Loc loc = Loc::current());
    void fstp64(double *p, F64 a, Loc loc = Loc::current());
    /**
     * Float -> int conversion the way MSVC compiled a C cast:
     * fistp to a stack temporary, then mov the result into a register.
     * Rounds to nearest (the FPU default mode the paper's code ran with).
     */
    R32 ftoi(F64 a, Loc loc = Loc::current());
    /** fistp m16 with saturation handled by the caller's C code. */
    void fistp16(int16_t *p, F64 a, Loc loc = Loc::current());
    /** fistp m32 (round to nearest). */
    void fistp32(int32_t *p, F64 a, Loc loc = Loc::current());

    /** fcom + fnstsw + test + jcc sequence for a float compare. */
    void fcmpJcc(F64 a, F64 b, bool taken, Loc loc = Loc::current());

    // ================= MMX =================

    /** movq mm, m64 */
    M64 movqLoad(const void *p, Loc loc = Loc::current());
    /** movq m64, mm */
    void movqStore(void *p, M64 a, Loc loc = Loc::current());
    /** movd mm, m32 (upper half zeroed) */
    M64 movdLoad(const void *p, Loc loc = Loc::current());
    /** movd m32, mm (low dword) */
    void movdStore(void *p, M64 a, Loc loc = Loc::current());
    /** movd mm, r32 */
    M64 movdFromR32(R32 a, Loc loc = Loc::current());
    /** movd r32, mm */
    R32 movdToR32(M64 a, Loc loc = Loc::current());
    /** movq mm, mm */
    M64 movq(M64 a, Loc loc = Loc::current());
    /** pxor mm, mm — the canonical zero idiom (fresh register). */
    M64 mmxZero(Loc loc = Loc::current());

    /*
     * Two-operand MMX value ops, generated header-inline from
     * mmx/mmx_op_list.hh: a call compiles down to the SSE2 ops plus one
     * buffered event append, with no out-of-line hop on the hot path of
     * the NSP kernels.
     */
#define MMXDSP_X(op_name, op_enum)                                           \
    M64 op_name(M64 a, M64 b, Loc loc = Loc::current())                      \
    {                                                                        \
        M64 r{mmx::op_name(a.v, b.v), a.tag};                                \
        emitRR(isa::Op::op_enum, a.tag, b.tag, r.tag, loc);                  \
        return r;                                                            \
    }
    MMXDSP_MMX_BINOP_LIST(MMXDSP_X)
#undef MMXDSP_X

    /** pmaddwd mm, m64 (load-op form). */
    M64 pmaddwdLoad(M64 a, const void *p, Loc loc = Loc::current());
    /** paddw/paddsw/... load-op forms used by tight library loops. */
    M64 paddwLoad(M64 a, const void *p, Loc loc = Loc::current());
    M64 pmullwLoad(M64 a, const void *p, Loc loc = Loc::current());

    /* Immediate-count MMX shifts (count >= lane width zeroes; psra*
     * sign-fills), header-inline like the two-operand ops above. */
#define MMXDSP_X(op_name, op_enum)                                           \
    M64 op_name(M64 a, int count, Loc loc = Loc::current())                  \
    {                                                                        \
        M64 r{mmx::op_name(a.v, static_cast<unsigned>(count)), a.tag};       \
        emitRR(isa::Op::op_enum, a.tag, isa::kNoReg, r.tag, loc);            \
        return r;                                                            \
    }
    MMXDSP_MMX_SHIFT_LIST(MMXDSP_X)
#undef MMXDSP_X

    /** emms — leave MMX mode (the 50-cycle mode switch). */
    void emms(Loc loc = Loc::current());

    // ================= calls (used by CallGuard) =================

    /** push r (argument passing); stores to the modelled stack. */
    void pushArg(R32 a, Loc loc = Loc::current());
    void pushImmArg(int32_t v, Loc loc = Loc::current());
    /** call (always-taken control transfer + function-entry callback). */
    void call(const char *name, Loc loc = Loc::current());
    /** callee prologue: push ebp; mov ebp, esp; push saved regs. */
    void prologue(int saved_regs, Loc loc = Loc::current());
    /** callee epilogue: pop saved regs; pop ebp; ret; add esp, argbytes. */
    void epilogue(int saved_regs, int args, Loc loc = Loc::current());

  private:
    uint32_t siteId(const Loc &loc);

    /**
     * Append one event to the block buffer; a full block is flushed
     * through TraceSink::onInstrBatch. Every enter/leave callback is
     * preceded by a flush (call()/epilogue()), so batching never
     * reorders events across function boundaries: sinks observe
     * exactly the sequence the per-instruction path produced.
     */
    void
    emit(isa::Op op, isa::MemMode mem, const void *addr, uint8_t size,
         isa::RegTag s0, isa::RegTag s1, isa::RegTag dst, bool taken,
         const Loc &loc)
    {
        if (!sink_)
            return;
        isa::InstrEvent e;
        e.op = op;
        e.mem = mem;
        e.addr = reinterpret_cast<uint64_t>(addr);
        e.size = size;
        e.site = siteId(loc);
        e.src0 = s0;
        e.src1 = s1;
        e.dst = dst;
        e.taken = taken;
        emitBuf_.push_back(e);
        if (emitBuf_.size() >= emitCap_)
            flushEmit();
    }

    // Convenience emitters.
    void
    emitRR(isa::Op op, isa::RegTag s0, isa::RegTag s1, isa::RegTag dst,
           const Loc &loc)
    {
        emit(op, isa::MemMode::None, nullptr, 0, s0, s1, dst, false, loc);
    }

    void
    emitLoad(isa::Op op, const void *p, uint8_t size, isa::RegTag s0,
             isa::RegTag dst, const Loc &loc)
    {
        emit(op, isa::MemMode::Load, p, size, s0, isa::kNoReg, dst, false,
             loc);
    }

    void
    emitStore(isa::Op op, const void *p, uint8_t size, isa::RegTag s0,
              const Loc &loc)
    {
        emit(op, isa::MemMode::Store, p, size, s0, isa::kNoReg, isa::kNoReg,
             false, loc);
    }

    isa::RegTag newIntTag();
    isa::RegTag newFpTag();
    isa::RegTag newMmxTag();

    /** Address of the next modelled stack slot (grows down). */
    void *stackPush();
    void stackPop(int slots);

    sim::TraceSink *sink_ = nullptr;

    /** Pending live-capture events, flushed in kEmitBatch-sized blocks. */
    std::vector<isa::InstrEvent> emitBuf_;
    uint32_t emitCap_ = kEmitBatch;

    uint8_t intRr_ = 0;
    uint8_t fpRr_ = 0;
    uint8_t mmxRr_ = 0;

    std::vector<uint8_t> stack_;
    size_t sp_; ///< byte offset into stack_, grows down

    /** Scratch slot for ftoi spills (modelled stack memory). */
    int32_t scratch_ = 0;
    /** Constant-pool slots for fimm (modelled .rodata). */
    std::vector<double> constPool_;
    std::unordered_map<uint64_t, size_t> constSlots_;
};

/**
 * RAII model of a library-function call: argument pushes, `call`,
 * callee prologue on construction; epilogue and `ret` on destruction.
 * The profiler uses the enter/leave callbacks to attribute instructions
 * and cycles to functions (the paper's call-overhead analysis).
 */
class CallGuard
{
  public:
    /**
     * @param cpu        the runtime
     * @param name       callee name for profiler attribution
     * @param args       number of dword arguments pushed
     * @param saved_regs callee-saved registers pushed in the prologue
     */
    CallGuard(Cpu &cpu, const char *name, int args, int saved_regs = 2,
              Cpu::Loc loc = Cpu::Loc::current());
    ~CallGuard();

    CallGuard(const CallGuard &) = delete;
    CallGuard &operator=(const CallGuard &) = delete;

  private:
    Cpu &cpu_;
    int args_;
    int savedRegs_;
    Cpu::Loc loc_;
};

} // namespace mmxdsp::runtime

#endif // MMXDSP_RUNTIME_CPU_HH
