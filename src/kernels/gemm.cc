#include "gemm.hh"

#include <algorithm>

#include "nsp/vector.hh"
#include "support/fixed_point.hh"
#include "support/logging.hh"
#include "support/rng.hh"

namespace mmxdsp::kernels {

using runtime::CallGuard;
using runtime::M64;
using runtime::R32;

void
GemmBenchmark::setup(int dim, int block, uint64_t seed)
{
    dim_ = dim;
    block_ = block;
    Rng rng(seed);
    const size_t n2 = static_cast<size_t>(dim) * dim;
    a_.resize(n2);
    b_.resize(n2);
    // Modest Q15 amplitudes, like matvec: the workload data. The
    // randomized tests drive full-range inputs through setInputs().
    for (auto &x : a_)
        x = static_cast<int16_t>(rng.nextInRange(-256, 256));
    for (auto &x : b_)
        x = static_cast<int16_t>(rng.nextInRange(-256, 256));
    bt_.clear();
    panel_.clear();
    acc_.clear();
    outC_.clear();
    outCBlocked_.clear();
    outMmx_.clear();
    outMmxBlocked_.clear();
}

void
GemmBenchmark::setInputs(std::vector<int16_t> a, std::vector<int16_t> b)
{
    const size_t n2 = static_cast<size_t>(dim_) * dim_;
    if (a.size() != n2 || b.size() != n2)
        mmxdsp_fatal("gemm: inputs of %zu and %zu elements for a %dx%d "
                     "matrix (want %zu each)",
                     a.size(), b.size(), dim_, dim_, n2);
    a_ = std::move(a);
    b_ = std::move(b);
}

void
GemmBenchmark::storeSat16(Cpu &cpu, int16_t *p, R32 acc)
{
    // The scalar epilogue every variant's result is defined by:
    // arithmetic >> 15 of the wrapped 32-bit accumulator, then the
    // two rarely-taken clamp branches, then a 16-bit store.
    R32 s = cpu.sar(acc, 15);
    cpu.cmpImm(s, 32767);
    cpu.jcc(s.v > 32767);
    cpu.cmpImm(s, -32768);
    cpu.jcc(s.v < -32768);
    R32 sat{saturate16(s.v), s.tag};
    cpu.store16(p, sat);
}

void
GemmBenchmark::runC(Cpu &cpu)
{
    const int n = dim_;
    outC_.assign(static_cast<size_t>(n) * n, 0);

    CallGuard call(cpu, "gemm_c", 4, 2);
    R32 row = cpu.imm32(0);
    for (int i = 0; i < n; ++i) {
        const int16_t *arow = &a_[static_cast<size_t>(i) * n];
        R32 col = cpu.imm32(0);
        for (int j = 0; j < n; ++j) {
            // Walks column j of B: stride 2n bytes per step, the
            // access pattern that falls off the cache cliff first.
            R32 acc = cpu.xor_(cpu.imm32(0), cpu.imm32(0));
            R32 kidx = cpu.imm32(0);
            for (int k = 0; k < n; ++k) {
                R32 x = cpu.load16s(arow + k);
                x = cpu.imulLoad16(x, &b_[static_cast<size_t>(k) * n + j]);
                acc = cpu.add(acc, x);
                kidx = cpu.addImm(kidx, 1);
                cpu.cmpImm(kidx, n);
                cpu.jcc(k + 1 < n);
            }
            storeSat16(cpu, &outC_[static_cast<size_t>(i) * n + j], acc);
            col = cpu.addImm(col, 1);
            cpu.cmpImm(col, n);
            cpu.jcc(j + 1 < n);
        }
        row = cpu.addImm(row, 1);
        cpu.cmpImm(row, n);
        cpu.jcc(i + 1 < n);
    }
}

void
GemmBenchmark::runCBlocked(Cpu &cpu)
{
    const int n = dim_;
    const int nb = block_;
    const size_t n2 = static_cast<size_t>(n) * n;
    outCBlocked_.assign(n2, 0);
    acc_.assign(n2, 0);

    CallGuard call(cpu, "gemm_c_blocked", 5, 3);

    // Zero the 32-bit accumulator plane (the blocked code's memset).
    R32 zero = cpu.xor_(cpu.imm32(0), cpu.imm32(0));
    for (size_t idx = 0; idx < n2; ++idx) {
        cpu.store32(&acc_[idx], zero);
        cpu.jcc(idx + 1 < n2);
    }

    // jj/kk blocking: the resident set per block sweep is the nb x nb
    // tile of B plus one row slice of A — sized to sit in L1.
    for (int kk = 0; kk < n; kk += nb) {
        const int kend = std::min(kk + nb, n);
        for (int jj = 0; jj < n; jj += nb) {
            const int jend = std::min(jj + nb, n);
            for (int i = 0; i < n; ++i) {
                const int16_t *arow = &a_[static_cast<size_t>(i) * n];
                for (int j = jj; j < jend; ++j) {
                    R32 acc
                        = cpu.load32(&acc_[static_cast<size_t>(i) * n + j]);
                    R32 kidx = cpu.imm32(kk);
                    // Same inner-loop instruction mix as runC so the
                    // only difference the models see is the locality.
                    for (int k = kk; k < kend; ++k) {
                        R32 x = cpu.load16s(arow + k);
                        x = cpu.imulLoad16(
                            x, &b_[static_cast<size_t>(k) * n + j]);
                        acc = cpu.add(acc, x);
                        kidx = cpu.addImm(kidx, 1);
                        cpu.cmpImm(kidx, kend);
                        cpu.jcc(k + 1 < kend);
                    }
                    cpu.store32(&acc_[static_cast<size_t>(i) * n + j], acc);
                    cpu.jcc(j + 1 < jend);
                }
                cpu.jcc(i + 1 < n);
            }
        }
    }

    // Epilogue pass: shift, clamp, and narrow the accumulator plane.
    for (size_t idx = 0; idx < n2; ++idx) {
        R32 acc = cpu.load32(&acc_[idx]);
        storeSat16(cpu, &outCBlocked_[idx], acc);
        cpu.jcc(idx + 1 < n2);
    }
}

void
GemmBenchmark::runMmx(Cpu &cpu)
{
    const int n = dim_;
    const size_t n2 = static_cast<size_t>(n) * n;
    outMmx_.assign(n2, 0);
    bt_.assign(n2, 0);

    // The data reformatting the paper charges to MMX versions: a
    // scalar transpose so each dot product reads B contiguously.
    {
        CallGuard call(cpu, "gemm_transpose", 3, 2);
        for (int k = 0; k < n; ++k) {
            for (int j = 0; j < n; ++j) {
                R32 x = cpu.load16s(&b_[static_cast<size_t>(k) * n + j]);
                cpu.store16(&bt_[static_cast<size_t>(j) * n + k], x);
                cpu.jcc(j + 1 < n);
            }
            cpu.jcc(k + 1 < n);
        }
    }

    // One library dot-product call per output element: n^2 calls, each
    // paying argument checks, prologue/epilogue, and the 50-cycle emms.
    R32 row = cpu.imm32(0);
    for (int i = 0; i < n; ++i) {
        R32 col = cpu.imm32(0);
        for (int j = 0; j < n; ++j) {
            R32 acc = nsp::dotProdMmx(cpu, &a_[static_cast<size_t>(i) * n],
                                      &bt_[static_cast<size_t>(j) * n], n);
            storeSat16(cpu, &outMmx_[static_cast<size_t>(i) * n + j], acc);
            col = cpu.addImm(col, 1);
            cpu.cmpImm(col, n);
            cpu.jcc(j + 1 < n);
        }
        row = cpu.addImm(row, 1);
        cpu.cmpImm(row, n);
        cpu.jcc(i + 1 < n);
    }
}

void
GemmBenchmark::runMmxBlocked(Cpu &cpu)
{
    const int n = dim_;
    const int nb = block_;
    const size_t n2 = static_cast<size_t>(n) * n;
    outMmxBlocked_.assign(n2, 0);
    acc_.assign(n2, 0);
    panel_.assign(static_cast<size_t>(nb) * nb, 0);

    CallGuard call(cpu, "gemm_mmx_blocked", 5, 3);

    // Zero the accumulator plane two dwords at a time.
    M64 z = cpu.mmxZero();
    size_t zi = 0;
    for (; zi + 2 <= n2; zi += 2) {
        cpu.movqStore(&acc_[zi], z);
        cpu.jcc(zi + 2 < n2);
    }
    if (zi < n2)
        cpu.movdStore(&acc_[zi], z);

    for (int kk = 0; kk < n; kk += nb) {
        const int kend = std::min(kk + nb, n);
        const int kb = kend - kk;
        const int kb4 = kb & ~3;
        for (int jj = 0; jj < n; jj += nb) {
            const int jend = std::min(jj + nb, n);

            // Pack the B block into a column-major panel: column j of
            // the block becomes kb contiguous int16s, so the pmaddwd
            // loop below is sequential loads with reuse across all i.
            for (int j = jj; j < jend; ++j) {
                int16_t *col = &panel_[static_cast<size_t>(j - jj) * kb];
                for (int k = kk; k < kend; ++k) {
                    R32 x = cpu.load16s(&b_[static_cast<size_t>(k) * n + j]);
                    cpu.store16(&col[k - kk], x);
                    cpu.jcc(k + 1 < kend);
                }
                cpu.jcc(j + 1 < jend);
            }

            for (int i = 0; i < n; i += 2) {
                const bool two_rows = i + 1 < n;
                const int16_t *a0 = &a_[static_cast<size_t>(i) * n + kk];
                const int16_t *a1
                    = two_rows ? &a_[static_cast<size_t>(i + 1) * n + kk]
                               : nullptr;
                for (int j = jj; j < jend; j += 2) {
                    const bool two_cols = j + 1 < jend;
                    const int16_t *p0
                        = &panel_[static_cast<size_t>(j - jj) * kb];
                    const int16_t *p1
                        = two_cols
                              ? &panel_[static_cast<size_t>(j + 1 - jj) * kb]
                              : nullptr;

                    // 2x2 register tile: four dword-pair accumulators
                    // stay in MMX registers across the whole k block.
                    M64 acc00 = cpu.mmxZero();
                    M64 acc01 = cpu.mmxZero();
                    M64 acc10 = cpu.mmxZero();
                    M64 acc11 = cpu.mmxZero();
                    for (int k = 0; k < kb4; k += 4) {
                        M64 va0 = cpu.movqLoad(a0 + k);
                        M64 t0 = cpu.movq(va0);
                        acc00 = cpu.paddd(acc00,
                                          cpu.pmaddwdLoad(t0, p0 + k));
                        if (two_cols)
                            acc01 = cpu.paddd(
                                acc01, cpu.pmaddwdLoad(va0, p1 + k));
                        if (two_rows) {
                            M64 va1 = cpu.movqLoad(a1 + k);
                            M64 t1 = cpu.movq(va1);
                            acc10 = cpu.paddd(acc10,
                                              cpu.pmaddwdLoad(t1, p0 + k));
                            if (two_cols)
                                acc11 = cpu.paddd(
                                    acc11, cpu.pmaddwdLoad(va1, p1 + k));
                        }
                        cpu.jcc(k + 4 < kb4);
                    }
                    // Scalar tail for kb % 4: folded into lane 0.
                    for (int k = kb4; k < kb; ++k) {
                        R32 x0 = cpu.load16s(a0 + k);
                        x0 = cpu.imulLoad16(x0, p0 + k);
                        acc00 = cpu.paddd(acc00, cpu.movdFromR32(x0));
                        if (two_cols) {
                            R32 x = cpu.load16s(a0 + k);
                            x = cpu.imulLoad16(x, p1 + k);
                            acc01 = cpu.paddd(acc01, cpu.movdFromR32(x));
                        }
                        if (two_rows) {
                            R32 x = cpu.load16s(a1 + k);
                            x = cpu.imulLoad16(x, p0 + k);
                            acc10 = cpu.paddd(acc10, cpu.movdFromR32(x));
                            if (two_cols) {
                                R32 y = cpu.load16s(a1 + k);
                                y = cpu.imulLoad16(y, p1 + k);
                                acc11
                                    = cpu.paddd(acc11, cpu.movdFromR32(y));
                            }
                        }
                        cpu.jcc(k + 1 < kb);
                    }

                    // Reduce each accumulator's two lanes, merge the
                    // tile row into a dword pair, and add it into the
                    // memory plane.
                    const auto reduce = [&](M64 acc) {
                        M64 hi = cpu.movq(acc);
                        hi = cpu.psrlq(hi, 32);
                        return cpu.paddd(acc, hi);
                    };
                    M64 r00 = reduce(acc00);
                    int32_t *c0 = &acc_[static_cast<size_t>(i) * n + j];
                    if (two_cols) {
                        M64 pair = cpu.punpckldq(r00, reduce(acc01));
                        pair = cpu.paddd(pair, cpu.movqLoad(c0));
                        cpu.movqStore(c0, pair);
                    } else {
                        M64 one = cpu.paddd(r00, cpu.movdLoad(c0));
                        cpu.movdStore(c0, one);
                    }
                    if (two_rows) {
                        M64 r10 = reduce(acc10);
                        int32_t *c1
                            = &acc_[static_cast<size_t>(i + 1) * n + j];
                        if (two_cols) {
                            M64 pair = cpu.punpckldq(r10, reduce(acc11));
                            pair = cpu.paddd(pair, cpu.movqLoad(c1));
                            cpu.movqStore(c1, pair);
                        } else {
                            M64 one = cpu.paddd(r10, cpu.movdLoad(c1));
                            cpu.movdStore(c1, one);
                        }
                    }
                    cpu.jcc(j + 2 < jend);
                }
                cpu.jcc(i + 2 < n);
            }
        }
    }

    // Epilogue: psrad 15 + packssdw saturation, four outputs per store.
    size_t idx = 0;
    for (; idx + 4 <= n2; idx += 4) {
        M64 d0 = cpu.movqLoad(&acc_[idx]);
        M64 d1 = cpu.movqLoad(&acc_[idx + 2]);
        d0 = cpu.psrad(d0, 15);
        d1 = cpu.psrad(d1, 15);
        M64 w = cpu.packssdw(d0, d1);
        cpu.movqStore(&outMmxBlocked_[idx], w);
        cpu.jcc(idx + 4 < n2);
    }
    for (; idx < n2; ++idx) {
        R32 acc = cpu.load32(&acc_[idx]);
        storeSat16(cpu, &outMmxBlocked_[idx], acc);
    }
    cpu.emms();
}

std::vector<int16_t>
GemmBenchmark::reference() const
{
    const int n = dim_;
    std::vector<int16_t> out(static_cast<size_t>(n) * n, 0);
    for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) {
            // The accumulator the hardware builds: int32 products
            // summed mod 2^32, in any order.
            uint32_t acc = 0;
            for (int k = 0; k < n; ++k) {
                const int32_t prod
                    = static_cast<int32_t>(a_[static_cast<size_t>(i) * n + k])
                      * static_cast<int32_t>(
                          b_[static_cast<size_t>(k) * n + j]);
                acc += static_cast<uint32_t>(prod);
            }
            out[static_cast<size_t>(i) * n + j]
                = saturate16(static_cast<int32_t>(acc) >> 15);
        }
    }
    return out;
}

} // namespace mmxdsp::kernels
