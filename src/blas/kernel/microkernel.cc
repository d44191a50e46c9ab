// MR x NR register-blocked micro-kernel bodies.
//
// This translation unit is compiled at -O3 -funroll-loops (see
// src/CMakeLists.txt) while the rest of the tree keeps the default flags.
// It holds two kernel families (see microkernel.hh):
//
// * The explicit AVX-512F kernels for float and double. Each k-step loads
//   two zmm rows of the packed A strip, broadcasts the NR values of the
//   packed B strip, and issues 2 * NR fused multiply-adds into 16
//   accumulator registers; the alpha-scaled update of C is one fused
//   multiply-add per zmm row. Fringe blocks use masked loads and stores,
//   which never touch (or fault on) C outside the m x n corner. The
//   functions carry target("avx512f") and run only after the cpuid check in
//   avx512_selected(), so the file itself stays portable and no ifunc
//   resolver is involved: sanitizer builds run the same kernels.
//
// * The portable kernels for all four types. Each carries GCC
//   target_clones, so one binary holds AVX-512 / AVX2 / baseline versions
//   selected at load time by an ifunc — the portable stand-in for linking a
//   vendor BLAS tuned per machine. Their bodies are written so the
//   auto-vectorizer does the work: fixed MR/NR trip counts, a local
//   accumulator array that maps onto vector registers, contiguous packed
//   operands, and __restrict everywhere. The loop nests are spelled out
//   inside each kernel macro rather than factored into a shared template
//   helper: GCC only promotes the accumulator array to vector registers
//   when the loops sit directly in the function body — routing them through
//   an (even always_inline) helper that takes the accumulator by pointer
//   defeats scalar replacement and costs >10x. This auto-vectorizer cliff
//   concerns the portable kernels only; measure with bench_gemm_kernel
//   before restructuring them.

#include "blas/kernel/microkernel.hh"

#include <algorithm>
#include <cstdlib>
#include <string>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define TBP_AVX512_KERNELS 1
#include <immintrin.h>
#else
#define TBP_AVX512_KERNELS 0
#endif

// target_clones emits an ifunc whose resolver runs before the TSan runtime
// is initialized, which segfaults any instrumented binary at startup (GCC
// 12 + libtsan; reproduce with a 3-line target_clones program under
// -fsanitize=thread). Sanitizer builds measure correctness, not GFLOP/s,
// so they get the un-cloned baseline portable kernel instead.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__SANITIZE_THREAD__)
#define TBP_KERNEL_CLONES \
    __attribute__((target_clones("arch=x86-64-v4,arch=x86-64-v3,default")))
#else
#define TBP_KERNEL_CLONES
#endif

namespace tbp::blas::kernel {

// ---------------------------------------------------------------------------
// AVX-512F kernels
// ---------------------------------------------------------------------------

#if TBP_AVX512_KERNELS

#define TBP_AVX512 __attribute__((target("avx512f")))

namespace {

/// One zmm register's worth of T: the handful of intrinsics the kernel uses.
template <typename T>
struct Zmm;

template <>
struct Zmm<double> {
    using V = __m512d;
    using Mask = __mmask8;
    static constexpr int W = 8;
    TBP_AVX512 static V zero() { return _mm512_setzero_pd(); }
    TBP_AVX512 static V set1(double x) { return _mm512_set1_pd(x); }
    TBP_AVX512 static V load(double const* p) { return _mm512_loadu_pd(p); }
    TBP_AVX512 static void store(double* p, V v) { _mm512_storeu_pd(p, v); }
    TBP_AVX512 static V load(Mask k, double const* p) {
        return _mm512_maskz_loadu_pd(k, p);
    }
    TBP_AVX512 static void store(Mask k, double* p, V v) {
        _mm512_mask_storeu_pd(p, k, v);
    }
    TBP_AVX512 static V fma(V a, V b, V c) { return _mm512_fmadd_pd(a, b, c); }
};

template <>
struct Zmm<float> {
    using V = __m512;
    using Mask = __mmask16;
    static constexpr int W = 16;
    TBP_AVX512 static V zero() { return _mm512_setzero_ps(); }
    TBP_AVX512 static V set1(float x) { return _mm512_set1_ps(x); }
    TBP_AVX512 static V load(float const* p) { return _mm512_loadu_ps(p); }
    TBP_AVX512 static void store(float* p, V v) { _mm512_storeu_ps(p, v); }
    TBP_AVX512 static V load(Mask k, float const* p) {
        return _mm512_maskz_loadu_ps(k, p);
    }
    TBP_AVX512 static void store(Mask k, float* p, V v) {
        _mm512_mask_storeu_ps(p, k, v);
    }
    TBP_AVX512 static V fma(V a, V b, V c) { return _mm512_fmadd_ps(a, b, c); }
};

/// Lane mask of the first `rows` (clamped to [0, W]) lanes.
template <typename Z>
typename Z::Mask lanes(int rows) {
    rows = std::clamp(rows, 0, Z::W);
    return static_cast<typename Z::Mask>((1u << rows) - 1u);
}

/// C(0:m, 0:n) += alpha * A_strip * B_strip^T with a 2W x NR register
/// block. Each accumulator is one fused multiply-add chain over l, and the
/// C update is fma(alpha, acc, C): the same rounding sequence as the
/// portable kernel's contracted `acc += a * b` and `c += alpha * acc`.
template <typename T>
TBP_AVX512 void avx512_block(int kc, T alpha, T const* __restrict a,
                             T const* __restrict b, T* __restrict c, int ldc,
                             int m, int n) {
    using Z = Zmm<T>;
    using V = typename Z::V;
    constexpr int W = Z::W;
    constexpr int MR = Avx512Params<T>::MR, NR = Avx512Params<T>::NR;
    static_assert(MR == 2 * W, "two zmm rows per register block");

    V lo[NR], hi[NR];
#pragma GCC unroll 8
    for (int j = 0; j < NR; ++j)
        lo[j] = hi[j] = Z::zero();
#pragma GCC unroll 2
    for (int l = 0; l < kc; ++l, a += MR, b += NR) {
        V const a0 = Z::load(a);
        V const a1 = Z::load(a + W);
#pragma GCC unroll 8
        for (int j = 0; j < NR; ++j) {
            V const bj = Z::set1(b[j]);
            lo[j] = Z::fma(a0, bj, lo[j]);
            hi[j] = Z::fma(a1, bj, hi[j]);
        }
    }

    V const al = Z::set1(alpha);
    if (m == MR && n == NR) {
#pragma GCC unroll 8
        for (int j = 0; j < NR; ++j) {
            T* cj = c + static_cast<std::ptrdiff_t>(j) * ldc;
            Z::store(cj, Z::fma(al, lo[j], Z::load(cj)));
            Z::store(cj + W, Z::fma(al, hi[j], Z::load(cj + W)));
        }
        return;
    }
    auto const k0 = lanes<Z>(m), k1 = lanes<Z>(m - W);
#pragma GCC unroll 8
    for (int j = 0; j < NR; ++j) {
        if (j >= n)
            break;
        T* cj = c + static_cast<std::ptrdiff_t>(j) * ldc;
        Z::store(k0, cj, Z::fma(al, lo[j], Z::load(k0, cj)));
        Z::store(k1, cj + W, Z::fma(al, hi[j], Z::load(k1, cj + W)));
    }
}

}  // namespace

TBP_AVX512 void ukernel_avx512(int kc, float alpha, float const* a,
                               float const* b, float* c, int ldc, int m,
                               int n) {
    avx512_block<float>(kc, alpha, a, b, c, ldc, m, n);
}

TBP_AVX512 void ukernel_avx512(int kc, double alpha, double const* a,
                               double const* b, double* c, int ldc, int m,
                               int n) {
    avx512_block<double>(kc, alpha, a, b, c, ldc, m, n);
}

bool avx512_selected() {
    static bool const ok = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("avx512f") != 0;
    }();
    return ok;
}

#undef TBP_AVX512

#else  // !TBP_AVX512_KERNELS

void ukernel_avx512(int, float, float const*, float const*, float*, int, int,
                    int) {
    std::abort();  // unreachable: avx512_selected() is false
}

void ukernel_avx512(int, double, double const*, double const*, double*, int,
                    int, int) {
    std::abort();
}

bool avx512_selected() { return false; }

#endif  // TBP_AVX512_KERNELS

char const* variant_name() {
    static std::string const name = [] {
        auto shape = [](char t, int mr, int nr) {
            return t + std::to_string(mr) + "x" + std::to_string(nr);
        };
        if (avx512_selected())
            return "avx512 "
                   + shape('d', Avx512Params<double>::MR,
                           Avx512Params<double>::NR)
                   + " "
                   + shape('s', Avx512Params<float>::MR,
                           Avx512Params<float>::NR);
        return "portable " + shape('d', Params<double>::MR, Params<double>::NR)
               + " " + shape('s', Params<float>::MR, Params<float>::NR);
    }();
    return name.c_str();
}

// ---------------------------------------------------------------------------
// Portable auto-vectorized kernels
// ---------------------------------------------------------------------------

// Rank-kc update of an MR x NR register block from packed strips, then the
// alpha-scaled store into the m x n (<= MR x NR) top-left corner of C.
#define TBP_REAL_UKERNEL_BODY(T, m, n)                                       \
    constexpr int MR = Params<T>::MR, NR = Params<T>::NR;                    \
    T acc[MR * NR] = {};                                                     \
    for (int l = 0; l < kc; ++l, a += MR, b += NR)                           \
        for (int j = 0; j < NR; ++j)                                         \
            for (int i = 0; i < MR; ++i)                                     \
                acc[i + j * MR] += a[i] * b[j];                              \
    for (int j = 0; j < (n); ++j)                                            \
        for (int i = 0; i < (m); ++i)                                        \
            c[i + j * ldc] += alpha * acc[i + j * MR];

#define TBP_DEFINE_REAL_UKERNEL(T)                                           \
    TBP_KERNEL_CLONES                                                        \
    void ukernel(int kc, T alpha, T const* __restrict a,                     \
                 T const* __restrict b, T* __restrict c, int ldc) {          \
        TBP_REAL_UKERNEL_BODY(T, MR, NR)                                     \
    }                                                                        \
    TBP_KERNEL_CLONES                                                        \
    void ukernel_fringe(int kc, T alpha, T const* __restrict a,              \
                        T const* __restrict b, T* __restrict c, int ldc,     \
                        int m, int n) {                                      \
        TBP_REAL_UKERNEL_BODY(T, m, n)                                       \
    }

// Split-complex rank-kc update: the packed planes hold MR (NR) reals then
// MR (NR) imaginaries per k-step, so both product accumulations run on
// contiguous real vectors and auto-vectorize like the real kernels.
#define TBP_CPLX_UKERNEL_BODY(R, m, n)                                       \
    using C = std::complex<R>;                                               \
    constexpr int MR = Params<C>::MR, NR = Params<C>::NR;                    \
    R acr[MR * NR] = {}, aci[MR * NR] = {};                                  \
    for (int l = 0; l < kc; ++l, a += 2 * MR, b += 2 * NR) {                 \
        for (int j = 0; j < NR; ++j) {                                       \
            R const br = b[j];                                               \
            R const bi = b[NR + j];                                          \
            for (int i = 0; i < MR; ++i) {                                   \
                R const ar = a[i];                                           \
                R const ai = a[MR + i];                                      \
                acr[i + j * MR] += ar * br - ai * bi;                        \
                aci[i + j * MR] += ar * bi + ai * br;                        \
            }                                                                \
        }                                                                    \
    }                                                                        \
    R const alr = alpha.real();                                              \
    R const ali = alpha.imag();                                              \
    for (int j = 0; j < (n); ++j)                                            \
        for (int i = 0; i < (m); ++i) {                                      \
            R const pr = acr[i + j * MR];                                    \
            R const pi = aci[i + j * MR];                                    \
            c[i + j * ldc] += C(alr * pr - ali * pi, alr * pi + ali * pr);   \
        }

#define TBP_DEFINE_CPLX_UKERNEL(R)                                           \
    TBP_KERNEL_CLONES                                                        \
    void ukernel(int kc, std::complex<R> alpha, R const* __restrict a,       \
                 R const* __restrict b, std::complex<R>* __restrict c,       \
                 int ldc) {                                                  \
        TBP_CPLX_UKERNEL_BODY(R, MR, NR)                                     \
    }                                                                        \
    TBP_KERNEL_CLONES                                                        \
    void ukernel_fringe(int kc, std::complex<R> alpha,                       \
                        R const* __restrict a, R const* __restrict b,        \
                        std::complex<R>* __restrict c, int ldc, int m,       \
                        int n) {                                             \
        TBP_CPLX_UKERNEL_BODY(R, m, n)                                       \
    }

TBP_DEFINE_REAL_UKERNEL(float)
TBP_DEFINE_REAL_UKERNEL(double)
TBP_DEFINE_CPLX_UKERNEL(float)
TBP_DEFINE_CPLX_UKERNEL(double)

#undef TBP_DEFINE_REAL_UKERNEL
#undef TBP_DEFINE_CPLX_UKERNEL
#undef TBP_REAL_UKERNEL_BODY
#undef TBP_CPLX_UKERNEL_BODY

}  // namespace tbp::blas::kernel
