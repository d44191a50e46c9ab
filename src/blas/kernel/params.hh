// Blocking parameters and path selection for the micro-kernel tile BLAS.
//
// The kernel layer follows the classic GotoBLAS/BLIS decomposition: an
// MR x NR register-blocked micro-kernel at the bottom, fed by A panels packed
// into MC x KC buffers (MR-row strips) and B panels packed into KC x NC
// buffers (NR-column strips). MR x NR is sized so the accumulator block stays
// in vector registers; KC so a packed A strip plus B strip live in L1/L2; MC
// so the packed A panel fits L2 (keep MC a multiple of MR). NC is
// effectively unbounded here because tile dimensions stay in the hundreds.
//
// Two kernel shapes exist for the real types, picked once at load time by
// cpuid (see microkernel.hh):
//   Avx512Params<T> - explicit AVX-512 intrinsics kernels: double 16 x 8 and
//                     float 32 x 8, i.e. two zmm rows times eight columns =
//                     16 accumulator registers. Measured on a 4-core
//                     AVX-512 Xeon at nb = 128: ~2x the portable rate.
//   Params<T>       - the portable auto-vectorized kernels, compiled as
//                     target_clones (AVX-512 / AVX2 / baseline) and run on
//                     hosts without AVX-512F. Complex types always use it.
// KC is the same in both shapes and both kernels accumulate with fused
// multiply-adds, so every C element sees the same rounding sequence: on a
// 4-core AVX-512 Xeon a full QDWH solve (d and z, kappa 1e2 and 1e16) came
// out bit for bit identical to the portable kernels' target_clones build.
//
// Retuning the portable shapes: always measure with `bench_gemm_kernel` —
// the auto-vectorizer's register allocation is shape-sensitive in ways
// simple register counting does not predict (GCC 12: float MR=16/NR=6
// collapses to ~2 GF/s while MR=8 and MR=32 at the same NR exceed 45/150
// GF/s, and double MR=16 shows the same cliff). The explicit kernels have
// no such cliff; their shape is fixed by the register file.
//
// Complex types use split real/imaginary packing (see pack.hh), so their
// micro-kernels run on contiguous real planes and auto-vectorize like the
// portable real kernels.
//
// The non-gemm kernels reach this micro-kernel through two constants below:
// the recursion base of trsm/trmm/herk/potrf and the inner blocking of the
// geqrt/tsqrt panels. Both are compile-time values, not options.

#pragma once

#include <complex>
#include <cstdlib>

namespace tbp::blas::kernel {

template <typename T>
struct Params;

template <>
struct Params<float> {
    static constexpr int MR = 32, NR = 6;
    static constexpr int MC = 128, KC = 320, NC = 4096;
};

template <>
struct Params<double> {
    static constexpr int MR = 8, NR = 6;
    static constexpr int MC = 96, KC = 256, NC = 4096;
};

template <>
struct Params<std::complex<float>> {
    static constexpr int MR = 32, NR = 4;
    static constexpr int MC = 96, KC = 256, NC = 4096;
};

template <>
struct Params<std::complex<double>> {
    static constexpr int MR = 4, NR = 4;
    static constexpr int MC = 64, KC = 192, NC = 4096;
};

/// Shapes of the explicit AVX-512 kernels (real types only).
template <typename T>
struct Avx512Params;

template <>
struct Avx512Params<float> {
    static constexpr int MR = 32, NR = 8;
    static constexpr int MC = 128, KC = Params<float>::KC, NC = 4096;
};

template <>
struct Avx512Params<double> {
    static constexpr int MR = 16, NR = 8;
    static constexpr int MC = 128, KC = Params<double>::KC, NC = 4096;
};

/// Base case of the recursive trsm/trmm/herk/potrf in level3.hh and
/// factor.hh: a diagonal block at most this wide runs the naive loops;
/// every larger triangle is halved and its off-diagonal block goes through
/// the packed GEMM. Re-measured with the AVX-512 kernels (nb = 128, one
/// thread): 8 still wins although its 8-row off-diagonal blocks are
/// half-empty 16-row fringes; 16 loses 10-30% on trsm/trmm/herk/tsmqr
/// (twice the flops in the unvectorized naive leaves), 32 loses 40-55%.
/// The split rounds to multiples of 8, so smaller values do not apply.
inline constexpr int kRecursionBase = 8;

/// Inner blocking `ib` of the geqrt/tsqrt panels in householder.hh: ib
/// columns are factored by the level-2 loop, the rest of the tile is
/// updated with the level-3 applier and T is merged blockwise. Re-measured
/// with the AVX-512 kernels: 8 and 16 tie on geqrt/tsqrt within the noise,
/// 32 loses 10-25% on tsqrt.
inline constexpr int kQrInnerBlock = 16;

/// Below this m*n*k volume the packed path's setup cost is not worth it and
/// the dispatchers use the naive kernels directly. Re-measured with the
/// AVX-512 kernels: 512, 2048 and 8192 give the same kernel rates within
/// the noise.
inline constexpr double kGemmCrossover = 2048;

/// Runtime selection of the naive reference kernels, initialized from the
/// TBP_NAIVE_BLAS environment variable ("0"/unset selects the micro-kernel
/// layer, anything else the naive loops). Mutable so tests and benches can
/// A/B both paths in one process; flip only from a single thread while no
/// kernels are in flight.
inline bool& naive_flag() {
    static bool flag = [] {
        char const* e = std::getenv("TBP_NAIVE_BLAS");
        return e != nullptr && e[0] != '\0' && !(e[0] == '0' && e[1] == '\0');
    }();
    return flag;
}

inline bool use_naive() { return naive_flag(); }
inline void set_naive(bool v) { naive_flag() = v; }

}  // namespace tbp::blas::kernel
