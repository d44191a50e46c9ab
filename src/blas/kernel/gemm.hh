// Blocked GEMM driver over the packed micro-kernels.
//
// Classic five-loop Goto/BLIS structure: NC column panels of op(B), KC deep
// k-panels (packed once per (jc, pc)), MC row panels of op(A) (packed once
// per (pc, ic)), then the NR x MR register-block sweep calling the
// micro-kernel. The driver and the packers are instantiated on a
// kernel-shape type (microkernel.hh); kernel::gemm picks the AVX-512 shape
// for float/double when the CPU has AVX-512F and the portable one
// otherwise, once per call. Pack buffers come from the calling thread's
// arena, so a task worker allocates at most once per buffer growth, not per
// tile.
//
// Semantics are identical to blas::gemm_naive (see blas/gemm.hh), including
// the BLAS beta convention: beta == 0 stores zeros without reading C, so
// NaN/Inf in uninitialized C tiles cannot leak into results.
//
// Float-typed gemms consult the thread's execution-time gemm mode
// (prec::exec_gemm_mode):
//   * Bf16     — both operands are truncated to bf16 at pack time and the
//                unchanged fp32 micro-kernel accumulates them (the
//                bf16-in/fp32-accumulate matrix-unit contract).
//   * Bf16Comp — the TPU-paper compensated scheme: with hi = bf16(x) and
//                lo = bf16(x - hi), three truncated passes accumulate
//                hi*hi (carrying beta), then hi*lo and lo*hi with beta = 1;
//                the O(eps_bf16^2) lo*lo term is dropped. Costs ~3x the
//                packing and kernel time of one pass — the precision-aware
//                cost model charges the same flop formula but models the
//                rate, not the count, as 3x.
// Double-typed gemms never consult the mode.

#pragma once

#include <algorithm>

#include "blas/kernel/arena.hh"
#include "blas/kernel/microkernel.hh"
#include "blas/kernel/pack.hh"
#include "blas/kernel/params.hh"
#include "common/error.hh"
#include "common/precision.hh"
#include "common/types.hh"
#include "matrix/tile.hh"

namespace tbp::blas::kernel {

/// BLAS-convention beta scaling: beta == 1 leaves C untouched, beta == 0
/// stores T(0) unconditionally (clearing NaN/Inf), anything else scales.
/// Column pointers keep both loops vectorizable: at nb = 128 the indexed
/// per-element form cost a third of a tile gemm on the AVX-512 kernels.
template <typename T>
inline void scale_beta(T beta, Tile<T> const& C) {
    if (beta == T(1))
        return;
    for (int j = 0; j < C.nb(); ++j) {
        T* c = C.data() + static_cast<std::ptrdiff_t>(j) * C.ld();
        if (beta == T(0))
            std::fill_n(c, C.mb(), T(0));
        else
            for (int i = 0; i < C.mb(); ++i)
                c[i] = beta * c[i];
    }
}

namespace detail {

/// Strip base pointers are computed in T units and viewed as real planes for
/// the split-complex kernels (same element count either way, see pack.hh).
template <typename T>
inline auto plane(T const* p) {
    if constexpr (is_complex_v<T>)
        return reinterpret_cast<real_t<T> const*>(p);
    else
        return p;
}

/// One full five-loop accumulation pass of kernel-shape type K (Portable<T>
/// or Avx512<T>, microkernel.hh) with per-operand pack transforms. beta
/// has already been applied by the caller; this pass only accumulates.
template <typename K, typename T>
void gemm_pass(Op opA, Op opB, T alpha, Tile<T> const& A, Tile<T> const& B,
               Tile<T> const& C, int k, prec::PackTrans ta,
               prec::PackTrans tb) {
    int const m = C.mb();
    int const n = C.nb();

    auto& arena = tls_arena<T>();
    for (int jc = 0; jc < n; jc += K::NC) {
        int const nc = std::min(K::NC, n - jc);
        int const nstrips = (nc + K::NR - 1) / K::NR;
        for (int pc = 0; pc < k; pc += K::KC) {
            int const kc = std::min(K::KC, k - pc);
            T* bbuf = arena.get(kPackB,
                                static_cast<std::size_t>(nstrips) * K::NR * kc);
            pack_b<K>(opB, B, pc, jc, kc, nc, bbuf, tb);
            for (int ic = 0; ic < m; ic += K::MC) {
                int const mc = std::min(K::MC, m - ic);
                int const mstrips = (mc + K::MR - 1) / K::MR;
                T* abuf = arena.get(
                    kPackA, static_cast<std::size_t>(mstrips) * K::MR * kc);
                pack_a<K>(opA, A, ic, pc, mc, kc, abuf, ta);
                for (int jr = 0; jr < nc; jr += K::NR) {
                    int const nr = std::min(K::NR, nc - jr);
                    T const* bp = bbuf
                                  + static_cast<std::size_t>(jr / K::NR) * kc
                                        * K::NR;
                    for (int ir = 0; ir < mc; ir += K::MR) {
                        int const mr = std::min(K::MR, mc - ir);
                        T const* ap = abuf
                                      + static_cast<std::size_t>(ir / K::MR)
                                            * kc * K::MR;
                        K::run(kc, alpha, plane(ap), plane(bp),
                               &C(ic + ir, jc + jr), C.ld(), mr, nr);
                    }
                }
            }
        }
    }
}

/// The gemm passes of one call on kernel-shape type K: one pass natively,
/// or the truncated passes of the simulated-bf16 modes (header comment).
template <typename K, typename T>
void gemm_passes(prec::GemmMode mode, Op opA, Op opB, T alpha,
                 Tile<T> const& A, Tile<T> const& B, Tile<T> const& C,
                 int k) {
    using PT = prec::PackTrans;
    switch (mode) {
        case prec::GemmMode::Native:
            gemm_pass<K>(opA, opB, alpha, A, B, C, k, PT::None, PT::None);
            break;
        case prec::GemmMode::Bf16:
            gemm_pass<K>(opA, opB, alpha, A, B, C, k, PT::Bf16Hi, PT::Bf16Hi);
            break;
        case prec::GemmMode::Bf16Comp:
            gemm_pass<K>(opA, opB, alpha, A, B, C, k, PT::Bf16Hi, PT::Bf16Hi);
            gemm_pass<K>(opA, opB, alpha, A, B, C, k, PT::Bf16Hi, PT::Bf16Lo);
            gemm_pass<K>(opA, opB, alpha, A, B, C, k, PT::Bf16Lo, PT::Bf16Hi);
            break;
    }
}

}  // namespace detail

/// C := alpha * op(A) * op(B) + beta * C through the packed micro-kernel.
/// Dimension contract matches blas::gemm.
template <typename T>
void gemm(Op opA, Op opB, T alpha, Tile<T> const& A, Tile<T> const& B,
          T beta, Tile<T> const& C) {
    int const m = C.mb();
    int const n = C.nb();
    int const k = (opA == Op::NoTrans) ? A.nb() : A.mb();

    tbp_require(((opA == Op::NoTrans) ? A.mb() : A.nb()) == m);
    tbp_require(((opB == Op::NoTrans) ? B.mb() : B.nb()) == k);
    tbp_require(((opB == Op::NoTrans) ? B.nb() : B.mb()) == n);

    scale_beta(beta, C);
    if (alpha == T(0) || k == 0)
        return;

    auto mode = prec::GemmMode::Native;
    if constexpr (std::is_same_v<real_t<T>, float>)
        mode = prec::exec_gemm_mode();

    if constexpr (!is_complex_v<T>) {
        if (avx512_selected()) {
            detail::gemm_passes<Avx512<T>>(mode, opA, opB, alpha, A, B, C, k);
            return;
        }
    }
    detail::gemm_passes<Portable<T>>(mode, opA, opB, alpha, A, B, C, k);
}

}  // namespace tbp::blas::kernel
