// Register-blocked MR x NR GEMM micro-kernels (definitions in
// microkernel.cc, compiled separately at -O3).
//
// Contract: `a` is a packed A strip (kc steps of MR contiguous scalars),
// `b` a packed B strip (kc steps of NR scalars), both zero-padded to full
// MR/NR width by pack.hh. The kernel accumulates the full MR x NR product in
// registers and then updates C (column-major, leading dimension ldc):
//
//   C(0:MR, 0:NR) += alpha * sum_l a_l * b_l^T        (full block)
//   C(0:m,  0:n ) += ...   for m <= MR, n <= NR       (fringe block)
//
// A fringe block never reads or writes C outside its m x n corner: a C
// tile may end its allocation right after its last element.
//
// Beta handling is NOT done here — the blocked driver pre-scales C once per
// call (beta == 0 stores zeros unconditionally, clearing NaN/Inf, matching
// the BLAS convention documented in blas/gemm.hh).
//
// Two kernel families exist, each wrapped in a *kernel-shape type* that the
// blocked driver and the packers are instantiated on (kernel/gemm.hh):
//   Portable<T> - the auto-vectorized kernels on Params<T> shapes, all four
//                 scalar types;
//   Avx512<T>   - explicit AVX-512F intrinsics kernels on Avx512Params<T>
//                 shapes, float and double only.
// avx512_selected() reports, once per process, whether the CPU supports
// AVX-512F; kernel::gemm then runs Avx512<T> for the real types and
// Portable<T> otherwise. There is no switch beyond the cpuid check.
//
// Complex kernels take split real/imaginary packed planes (see pack.hh):
// each k-step of `a` is MR reals followed by MR imaginaries (2*MR scalars of
// the real type), likewise `b` with NR — so the inner loops run on
// contiguous real data and auto-vectorize like the real kernels.

#pragma once

#include <complex>

#include "blas/kernel/params.hh"
#include "common/types.hh"

namespace tbp::blas::kernel {

void ukernel(int kc, float alpha, float const* a, float const* b,
             float* c, int ldc);
void ukernel(int kc, double alpha, double const* a, double const* b,
             double* c, int ldc);
void ukernel(int kc, std::complex<float> alpha, float const* a,
             float const* b, std::complex<float>* c, int ldc);
void ukernel(int kc, std::complex<double> alpha, double const* a,
             double const* b, std::complex<double>* c, int ldc);

void ukernel_fringe(int kc, float alpha, float const* a, float const* b,
                    float* c, int ldc, int m, int n);
void ukernel_fringe(int kc, double alpha, double const* a, double const* b,
                    double* c, int ldc, int m, int n);
void ukernel_fringe(int kc, std::complex<float> alpha, float const* a,
                    float const* b, std::complex<float>* c, int ldc,
                    int m, int n);
void ukernel_fringe(int kc, std::complex<double> alpha, double const* a,
                    double const* b, std::complex<double>* c, int ldc,
                    int m, int n);

/// AVX-512F kernels on Avx512Params shapes; full and fringe blocks alike
/// (m <= MR, n <= NR). Call only when avx512_selected() is true.
void ukernel_avx512(int kc, float alpha, float const* a, float const* b,
                    float* c, int ldc, int m, int n);
void ukernel_avx512(int kc, double alpha, double const* a, double const* b,
                    double* c, int ldc, int m, int n);

/// Whether this CPU runs the AVX-512 kernels (cpuid, evaluated once).
bool avx512_selected();

/// The selected kernel family and register blocks, e.g.
/// "avx512 d16x8 s32x8" or "portable d8x6 s32x6".
char const* variant_name();

/// Kernel-shape type of the portable path.
template <typename T>
struct Portable : Params<T> {
    using P = Params<T>;
    static void run(int kc, T alpha, real_t<T> const* a, real_t<T> const* b,
                    T* c, int ldc, int m, int n) {
        if (m == P::MR && n == P::NR)
            ukernel(kc, alpha, a, b, c, ldc);
        else
            ukernel_fringe(kc, alpha, a, b, c, ldc, m, n);
    }
};

/// Kernel-shape type of the AVX-512 path (T = float or double).
template <typename T>
struct Avx512 : Avx512Params<T> {
    static void run(int kc, T alpha, T const* a, T const* b, T* c, int ldc,
                    int m, int n) {
        ukernel_avx512(kc, alpha, a, b, c, ldc, m, n);
    }
};

}  // namespace tbp::blas::kernel
