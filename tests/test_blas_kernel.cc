// Micro-kernel layer (blas/kernel/) vs the naive reference loops.
//
// Every routine that dispatches between a packed/blocked path and the naive
// element loops is checked for bitwise-plausible agreement on the same
// inputs: gemm across all op combinations, odd/fringe sizes (deliberately
// not multiples of any MR/NR/MC/KC), strided sub-views with ld > mb, and the
// alpha/beta corner cases including the beta == 0 store-zeros convention.
// Each compiled micro-kernel variant (AVX-512 where the CPU has it, and the
// portable one) is driven directly through detail::gemm_pass over every
// fringe shape, on a C tile that ends at a guard page.
// herk/trsm/trmm/potrf run recursive-vs-naive over triangle orders that
// hit the naive base case, its edge, and uneven splits; the level-3 Householder
// appliers and the inner-blocked geqrt/tsqrt panels run against their
// element-loop references; and every public level-3 and Householder entry
// must charge its flops:: formula exactly once, on either path.

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <tuple>

#include "blas/factor.hh"
#include "blas/gemm.hh"
#include "blas/householder.hh"
#include "blas/level3.hh"
#include "ref/dense.hh"
#include "test_util.hh"

using namespace tbp;

template <typename T>
class BlasKernel : public ::testing::Test {};
TYPED_TEST_SUITE(BlasKernel, test::AllTypes);

namespace {

template <typename T>
Tile<T> as_tile(ref::Dense<T>& D) {
    return Tile<T>(D.data(), static_cast<int>(D.m()), static_cast<int>(D.n()),
                   static_cast<int>(D.m()));
}

/// Agreement tolerance between two level-3 formulations of the same product:
/// both accumulate ~k rounding steps, so scale eps by the reduction depth.
template <typename T>
real_t<T> path_tol(int k) {
    return test::tol<T>(50.0 * std::max(k, 8));
}

/// Triangle orders for the recursive-vs-naive checks: the naive base case
/// (<= kRecursionBase), its edge, and uneven splits one and more levels
/// deep.
constexpr int kTriangleOrders[] = {1, 8, 9, 15, 16, 17, 33, 96, 100, 129};

template <typename T>
void check_gemm_paths(Op opA, Op opB, int m, int n, int k, T alpha, T beta) {
    auto A = (opA == Op::NoTrans) ? ref::random_dense<T>(m, k, 17)
                                  : ref::random_dense<T>(k, m, 17);
    auto B = (opB == Op::NoTrans) ? ref::random_dense<T>(k, n, 29)
                                  : ref::random_dense<T>(n, k, 29);
    auto C = ref::random_dense<T>(m, n, 43);
    auto Cref = C;

    blas::gemm_naive(opA, opB, alpha, as_tile(A), as_tile(B), beta,
                     as_tile(Cref));
    blas::kernel::gemm(opA, opB, alpha, as_tile(A), as_tile(B), beta,
                       as_tile(C));
    EXPECT_LE(ref::diff_fro(C, Cref),
              path_tol<T>(k) * (1 + ref::norm_fro(Cref)))
        << "opA=" << static_cast<int>(opA) << " opB=" << static_cast<int>(opB)
        << " m=" << m << " n=" << n << " k=" << k;
}

}  // namespace

TYPED_TEST(BlasKernel, GemmAllOpsOddSizes) {
    using T = TypeParam;
    T const alpha = from_real<T>(real_t<T>(1.25));
    T const beta = from_real<T>(real_t<T>(-0.5));
    for (Op opA : {Op::NoTrans, Op::Trans, Op::ConjTrans})
        for (Op opB : {Op::NoTrans, Op::Trans, Op::ConjTrans})
            check_gemm_paths<T>(opA, opB, 37, 29, 31, alpha, beta);
}

TYPED_TEST(BlasKernel, GemmFringeSizes) {
    using T = TypeParam;
    T const alpha = from_real<T>(real_t<T>(0.75));
    T const beta = from_real<T>(real_t<T>(1.5));
    // Degenerate panels, single rows/columns, and sizes straddling the
    // register/cache blocking (MR/NR fringes, MC/KC boundaries).
    check_gemm_paths<T>(Op::NoTrans, Op::NoTrans, 5, 67, 3, alpha, beta);
    check_gemm_paths<T>(Op::NoTrans, Op::NoTrans, 130, 70, 85, alpha, beta);
    check_gemm_paths<T>(Op::ConjTrans, Op::NoTrans, 1, 9, 200, alpha, beta);
    check_gemm_paths<T>(Op::NoTrans, Op::ConjTrans, 97, 1, 33, alpha, beta);
    check_gemm_paths<T>(Op::Trans, Op::Trans, 33, 31, 1, alpha, beta);
    check_gemm_paths<T>(Op::NoTrans, Op::NoTrans, 257, 129, 96, alpha, beta);
}

TYPED_TEST(BlasKernel, GemmAlphaBetaCorners) {
    using T = TypeParam;
    int const m = 41, n = 23, k = 19;
    T const one(1), zero(0);
    T const a = from_real<T>(real_t<T>(2.0));
    check_gemm_paths<T>(Op::NoTrans, Op::NoTrans, m, n, k, zero, a);
    check_gemm_paths<T>(Op::NoTrans, Op::NoTrans, m, n, k, a, zero);
    check_gemm_paths<T>(Op::NoTrans, Op::NoTrans, m, n, k, one, one);
    check_gemm_paths<T>(Op::NoTrans, Op::NoTrans, m, n, k, zero, zero);
}

TYPED_TEST(BlasKernel, GemmSubViewsLdGtMb) {
    using T = TypeParam;
    // Operands are interior windows of a larger tile, so every view has
    // ld > mb and a nonzero row/col offset — the packing routines must honor
    // the stride, and stores must not touch the frame.
    int const M = 150, N = 140;
    int const m = 53, n = 38, k = 47;
    auto Abig = ref::random_dense<T>(M, N, 7);
    auto Bbig = ref::random_dense<T>(M, N, 8);
    auto Cbig = ref::random_dense<T>(M, N, 9);
    auto Cframe = Cbig;

    auto A = as_tile(Abig).sub(11, 5, m, k);
    auto B = as_tile(Bbig).sub(3, 21, k, n);
    auto C = as_tile(Cbig).sub(29, 17, m, n);

    ref::Dense<T> Ad(m, k), Bd(k, n), Cd(m, n);
    for (int j = 0; j < k; ++j)
        for (int i = 0; i < m; ++i)
            Ad(i, j) = A(i, j);
    for (int j = 0; j < n; ++j)
        for (int i = 0; i < k; ++i)
            Bd(i, j) = B(i, j);
    for (int j = 0; j < n; ++j)
        for (int i = 0; i < m; ++i)
            Cd(i, j) = C(i, j);

    T const alpha = from_real<T>(real_t<T>(1.5));
    T const beta = from_real<T>(real_t<T>(0.25));
    blas::gemm_naive(Op::NoTrans, Op::NoTrans, alpha, as_tile(Ad),
                     as_tile(Bd), beta, as_tile(Cd));
    blas::kernel::gemm(Op::NoTrans, Op::NoTrans, alpha, A, B, beta, C);

    for (int j = 0; j < n; ++j)
        for (int i = 0; i < m; ++i)
            EXPECT_LE(std::abs(C(i, j) - Cd(i, j)),
                      path_tol<T>(k) * (1 + std::abs(Cd(i, j))));

    // The frame around the window must be untouched.
    for (int j = 0; j < N; ++j)
        for (int i = 0; i < M; ++i) {
            bool const inside =
                i >= 29 && i < 29 + m && j >= 17 && j < 17 + n;
            if (!inside)
                ASSERT_EQ(Cbig(i, j), Cframe(i, j))
                    << "frame touched at (" << i << "," << j << ")";
        }
}

TYPED_TEST(BlasKernel, GemmBetaZeroClearsNaN) {
    using T = TypeParam;
    using R = real_t<T>;
    int const m = 40, n = 36, k = 24;
    auto A = ref::random_dense<T>(m, k, 4);
    auto B = ref::random_dense<T>(k, n, 5);
    ref::Dense<T> C(m, n);
    R const qnan = std::numeric_limits<R>::quiet_NaN();
    for (int j = 0; j < n; ++j)
        for (int i = 0; i < m; ++i)
            C(i, j) = from_real<T>(qnan);
    auto Cref = ref::gemm(Op::NoTrans, Op::NoTrans, T(1), A, B);

    // beta == 0 must overwrite, never scale: NaNs in C may not survive.
    blas::kernel::gemm(Op::NoTrans, Op::NoTrans, T(1), as_tile(A), as_tile(B),
                       T(0), as_tile(C));
    for (int j = 0; j < n; ++j)
        for (int i = 0; i < m; ++i)
            ASSERT_TRUE(std::isfinite(std::abs(C(i, j))));
    EXPECT_LE(ref::diff_fro(C, Cref),
              path_tol<T>(k) * (1 + ref::norm_fro(Cref)));

    // Same convention on the naive path.
    for (int j = 0; j < n; ++j)
        for (int i = 0; i < m; ++i)
            C(i, j) = from_real<T>(qnan);
    blas::gemm_naive(Op::NoTrans, Op::NoTrans, T(1), as_tile(A), as_tile(B),
                     T(0), as_tile(C));
    for (int j = 0; j < n; ++j)
        for (int i = 0; i < m; ++i)
            ASSERT_TRUE(std::isfinite(std::abs(C(i, j))));
}

// --- Micro-kernel variant conformance ---------------------------------------

namespace {

/// Buffer of `count` scalars that ends at a PROT_NONE guard page, so any
/// access past its last element faults, masked vector code included (asan
/// does not instrument the intrinsics; the guard page does not care).
template <typename T>
class GuardedBuffer {
public:
    explicit GuardedBuffer(std::size_t count) {
        std::size_t const page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
        std::size_t const bytes = count * sizeof(T);
        data_pages_ = (bytes + page - 1) / page * page;
        len_ = data_pages_ + page;
        void* p = mmap(nullptr, len_, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        EXPECT_NE(p, MAP_FAILED);
        base_ = static_cast<char*>(p);
        EXPECT_EQ(mprotect(base_ + data_pages_, page, PROT_NONE), 0);
        end_ = reinterpret_cast<T*>(base_ + data_pages_);
    }
    ~GuardedBuffer() { munmap(base_, len_); }
    GuardedBuffer(GuardedBuffer const&) = delete;
    GuardedBuffer& operator=(GuardedBuffer const&) = delete;

    /// One past the last usable scalar (the first byte of the guard page).
    T* end() const { return end_; }

private:
    char* base_ = nullptr;
    std::size_t len_ = 0, data_pages_ = 0;
    T* end_ = nullptr;
};

/// Drive one kernel-shape type K through detail::gemm_pass on every fringe
/// m <= MR, n <= NR, depth kc in {1, 7, KC, KC + 1}, alpha in {1, -1,
/// 0.75}, with ldc > m, against gemm_naive (beta = 1, the pass only
/// accumulates). C's last element is the last scalar before a guard page,
/// and the ldc - m gap rows must come back untouched.
template <typename K, typename T>
void check_variant(char const* name) {
    constexpr int MR = K::MR, NR = K::NR;
    int const ldc = MR + 3;
    int const kmax = K::KC + 1;
    auto Abig = ref::random_dense<T>(MR, kmax, 201);
    auto AbigT = ref::random_dense<T>(kmax, MR, 202);
    auto Bbig = ref::random_dense<T>(kmax, NR, 203);
    auto BbigT = ref::random_dense<T>(NR, kmax, 204);
    auto Cinit = ref::random_dense<T>(ldc, NR, 205);
    GuardedBuffer<T> buf(static_cast<std::size_t>(ldc) * NR);
    T const sentinel(-7);
    int fails = 0;

    for (int kc : {1, 7, K::KC, kmax})
        for (int m = 1; m <= MR; ++m)
            for (int n = 1; n <= NR; ++n)
                for (T alpha : {T(1), T(-1), T(0.75)}) {
                    // Alternate the operand transposes across shapes so both
                    // pack layouts run on every variant.
                    Op const opA = ((m + kc) % 2) ? Op::Trans : Op::NoTrans;
                    Op const opB = ((n + kc) % 2) ? Op::Trans : Op::NoTrans;
                    auto A = (opA == Op::NoTrans)
                                 ? as_tile(Abig).sub(0, 0, m, kc)
                                 : as_tile(AbigT).sub(0, 0, kc, m);
                    auto B = (opB == Op::NoTrans)
                                 ? as_tile(Bbig).sub(0, 0, kc, n)
                                 : as_tile(BbigT).sub(0, 0, n, kc);
                    std::size_t const span =
                        static_cast<std::size_t>(ldc) * (n - 1) + m;
                    T* c = buf.end() - span;
                    for (std::size_t q = 0; q < span; ++q)
                        c[q] = (static_cast<int>(q % ldc) < m)
                                   ? Cinit(static_cast<int>(q % ldc),
                                           static_cast<int>(q / ldc))
                                   : sentinel;
                    Tile<T> C(c, m, n, ldc);
                    ref::Dense<T> Cref(m, n);
                    for (int j = 0; j < n; ++j)
                        for (int i = 0; i < m; ++i)
                            Cref(i, j) = Cinit(i, j);

                    blas::gemm_naive(opA, opB, alpha, A, B, T(1),
                                     as_tile(Cref));
                    blas::kernel::detail::gemm_pass<K>(
                        opA, opB, alpha, A, B, C, kc, prec::PackTrans::None,
                        prec::PackTrans::None);

                    real_t<T> err = 0;
                    for (int j = 0; j < n; ++j)
                        for (int i = 0; i < m; ++i)
                            err = std::max(err, std::abs(C(i, j) - Cref(i, j))
                                                    / (1 + std::abs(Cref(i, j))));
                    bool gap_ok = true;
                    for (std::size_t q = 0; q < span; ++q)
                        if (static_cast<int>(q % ldc) >= m)
                            gap_ok = gap_ok && c[q] == sentinel;
                    if (err > path_tol<T>(kc) || !gap_ok) {
                        ADD_FAILURE() << name << " m=" << m << " n=" << n
                                      << " kc=" << kc << " alpha=" << alpha
                                      << " err=" << err
                                      << " gap_ok=" << gap_ok;
                        if (++fails > 10)
                            return;
                    }
                }
}

/// Same product with the simulated-bf16 pack transforms on a float
/// variant: Bf16 truncates both operands, Bf16Comp sums hi*hi, hi*lo and
/// lo*hi. The oracle applies the truncation to copies of the operands and
/// runs gemm_naive on them.
template <typename K>
void check_variant_bf16(char const* name) {
    int const m = 2 * K::MR - 3, n = 2 * K::NR + 1, k = K::KC + 5;
    auto A = ref::random_dense<float>(m, k, 211);
    auto B = ref::random_dense<float>(k, n, 212);
    auto C0 = ref::random_dense<float>(m, n, 213);
    auto split = [](ref::Dense<float> const& X, prec::PackTrans tr) {
        auto Y = X;
        for (std::int64_t j = 0; j < X.n(); ++j)
            for (std::int64_t i = 0; i < X.m(); ++i)
                Y(i, j) = prec::apply_pack_trans(tr, X(i, j));
        return Y;
    };
    auto Ahi = split(A, prec::PackTrans::Bf16Hi);
    auto Alo = split(A, prec::PackTrans::Bf16Lo);
    auto Bhi = split(B, prec::PackTrans::Bf16Hi);
    auto Blo = split(B, prec::PackTrans::Bf16Lo);
    float const alpha = 0.75f;

    for (auto mode : {prec::GemmMode::Bf16, prec::GemmMode::Bf16Comp}) {
        auto C = C0, Cref = C0;
        blas::gemm_naive(Op::NoTrans, Op::NoTrans, alpha, as_tile(Ahi),
                         as_tile(Bhi), 1.0f, as_tile(Cref));
        if (mode == prec::GemmMode::Bf16Comp) {
            blas::gemm_naive(Op::NoTrans, Op::NoTrans, alpha, as_tile(Ahi),
                             as_tile(Blo), 1.0f, as_tile(Cref));
            blas::gemm_naive(Op::NoTrans, Op::NoTrans, alpha, as_tile(Alo),
                             as_tile(Bhi), 1.0f, as_tile(Cref));
        }
        blas::kernel::detail::gemm_passes<K>(mode, Op::NoTrans, Op::NoTrans,
                                             alpha, as_tile(A), as_tile(B),
                                             as_tile(C), k);
        EXPECT_LE(ref::diff_fro(C, Cref),
                  path_tol<float>(k) * (1 + ref::norm_fro(Cref)))
            << name << " mode=" << prec::gemm_mode_name(mode);
    }
}

}  // namespace

TEST(KernelVariant, PortableDouble) {
    check_variant<blas::kernel::Portable<double>, double>("portable d");
}

TEST(KernelVariant, PortableFloat) {
    check_variant<blas::kernel::Portable<float>, float>("portable s");
    check_variant_bf16<blas::kernel::Portable<float>>("portable s");
}

TEST(KernelVariant, Avx512Double) {
    if (!blas::kernel::avx512_selected())
        GTEST_SKIP() << "CPU without AVX-512F";
    check_variant<blas::kernel::Avx512<double>, double>("avx512 d");
}

TEST(KernelVariant, Avx512Float) {
    if (!blas::kernel::avx512_selected())
        GTEST_SKIP() << "CPU without AVX-512F";
    check_variant<blas::kernel::Avx512<float>, float>("avx512 s");
    check_variant_bf16<blas::kernel::Avx512<float>>("avx512 s");
}

TEST(KernelVariant, NameReportsSelection) {
    std::string const name = blas::kernel::variant_name();
    EXPECT_EQ(name.rfind(blas::kernel::avx512_selected() ? "avx512 d"
                                                         : "portable d",
                         0),
              0u)
        << name;
}

TYPED_TEST(BlasKernel, HerkBlockedMatchesNaive) {
    using T = TypeParam;
    using R = real_t<T>;
    int const k = 37;
    R const alpha = R(0.5), beta = R(-1.5);
    for (int n : kTriangleOrders)
        for (Uplo uplo : {Uplo::Lower, Uplo::Upper})
            for (Op op : {Op::NoTrans, Op::ConjTrans}) {
                auto A = (op == Op::NoTrans) ? ref::random_dense<T>(n, k, 21)
                                             : ref::random_dense<T>(k, n, 21);
                auto C = ref::random_dense<T>(n, n, 31);
                auto Cref = C;
                blas::herk_naive(uplo, op, alpha, as_tile(A), beta,
                                 as_tile(Cref));
                blas::herk_recursive(uplo, op, alpha, as_tile(A), beta,
                                     as_tile(C));
                EXPECT_LE(ref::diff_fro(C, Cref),
                          path_tol<T>(k) * (1 + ref::norm_fro(Cref)))
                    << "n=" << n << " uplo=" << static_cast<int>(uplo)
                    << " op=" << static_cast<int>(op);
            }
}

TYPED_TEST(BlasKernel, TrsmBlockedMatchesNaive) {
    using T = TypeParam;
    int const nrhs = 70;
    T const alpha = from_real<T>(real_t<T>(2.0));
    for (int na : kTriangleOrders)
        for (Side side : {Side::Left, Side::Right})
            for (Uplo uplo : {Uplo::Lower, Uplo::Upper})
                for (Op op : {Op::NoTrans, Op::Trans, Op::ConjTrans})
                    for (Diag diag : {Diag::NonUnit, Diag::Unit}) {
                        int const m = (side == Side::Left) ? na : nrhs;
                        int const n = (side == Side::Left) ? nrhs : na;
                        auto A = ref::random_dense<T>(na, na, 51);
                        for (int i = 0; i < na; ++i)  // well-conditioned
                            A(i, i) = A(i, i) + from_real<T>(real_t<T>(4));
                        auto B = ref::random_dense<T>(m, n, 61);
                        auto Bref = B;
                        blas::trsm_naive(side, uplo, op, diag, alpha,
                                         as_tile(A), as_tile(Bref));
                        blas::trsm_recursive(side, uplo, op, diag, alpha,
                                             as_tile(A), as_tile(B));
                        EXPECT_LE(ref::diff_fro(B, Bref),
                                  path_tol<T>(na)
                                      * (1 + ref::norm_fro(Bref)))
                            << "na=" << na
                            << " side=" << static_cast<int>(side)
                            << " uplo=" << static_cast<int>(uplo)
                            << " op=" << static_cast<int>(op)
                            << " diag=" << static_cast<int>(diag);
                    }
}

TYPED_TEST(BlasKernel, TrmmBlockedMatchesNaive) {
    using T = TypeParam;
    int const n = 58;
    T const alpha = from_real<T>(real_t<T>(-0.75));
    for (int m : kTriangleOrders)
        for (Uplo uplo : {Uplo::Lower, Uplo::Upper})
            for (Op op : {Op::NoTrans, Op::Trans, Op::ConjTrans})
                for (Diag diag : {Diag::NonUnit, Diag::Unit}) {
                    auto A = ref::random_dense<T>(m, m, 71);
                    auto B = ref::random_dense<T>(m, n, 81);
                    auto Bref = B;
                    blas::trmm_naive(uplo, op, diag, alpha, as_tile(A),
                                     as_tile(Bref));
                    blas::trmm_recursive(uplo, op, diag, alpha, as_tile(A),
                                         as_tile(B));
                    EXPECT_LE(ref::diff_fro(B, Bref),
                              path_tol<T>(m) * (1 + ref::norm_fro(Bref)))
                        << "m=" << m << " uplo=" << static_cast<int>(uplo)
                        << " op=" << static_cast<int>(op)
                        << " diag=" << static_cast<int>(diag);
                }
}

namespace {

/// Hermitian positive definite test matrix: B B^H + n I.
template <typename T>
ref::Dense<T> make_hpd(int n, std::uint64_t seed) {
    auto B = ref::random_dense<T>(n, n, seed);
    auto A = ref::gemm(Op::NoTrans, Op::ConjTrans, T(1), B, B);
    for (int i = 0; i < n; ++i)
        A(i, i) += from_real<T>(static_cast<real_t<T>>(n));
    return A;
}

}  // namespace

TYPED_TEST(BlasKernel, PotrfRecursiveMatchesNaive) {
    using T = TypeParam;
    for (int n : {1, 8, 9, 17, 100, 128, 129})
        for (Uplo uplo : {Uplo::Lower, Uplo::Upper}) {
            auto A = make_hpd<T>(n, 131);
            auto Aref = A;
            blas::potrf_naive(uplo, as_tile(Aref));
            blas::potrf_recursive(uplo, as_tile(A));
            // The other triangle is never touched, so all of A compares.
            EXPECT_LE(ref::diff_fro(A, Aref),
                      path_tol<T>(n) * (1 + ref::norm_fro(Aref)))
                << "n=" << n << " uplo=" << static_cast<int>(uplo);
        }
}

TYPED_TEST(BlasKernel, PotrfRecursiveThrowsOnNonHpd) {
    // A negative pivot in the last leaf: the recursion must get there
    // through trsm/herk updates and still throw tbp::Error, on which the
    // precision ladder's rung promotion depends.
    using T = TypeParam;
    int const n = 100;
    for (Uplo uplo : {Uplo::Lower, Uplo::Upper}) {
        auto A = make_hpd<T>(n, 132);
        A(n - 3, n - 3) = from_real<T>(real_t<T>(-1));
        EXPECT_THROW(blas::potrf_recursive(uplo, as_tile(A)), Error)
            << "uplo=" << static_cast<int>(uplo);
        auto A1 = make_hpd<T>(n, 133);
        A1(0, 0) = from_real<T>(real_t<T>(0));
        EXPECT_THROW(blas::potrf(uplo, as_tile(A1)), Error)
            << "uplo=" << static_cast<int>(uplo);
    }
}

TYPED_TEST(BlasKernel, UnmqrLevel3MatchesNaive) {
    using T = TypeParam;
    int const mb = 96, nb = 32, nn = 40;
    auto V = ref::random_dense<T>(mb, nb, 91);
    ref::Dense<T> Tf(nb, nb);
    blas::geqrt(as_tile(V), as_tile(Tf));

    for (Op op : {Op::NoTrans, Op::ConjTrans}) {
        auto C = ref::random_dense<T>(mb, nn, 92);
        auto Cref = C;
        blas::unmqr_naive(op, as_tile(V), as_tile(Tf), as_tile(Cref));
        blas::unmqr_level3(op, as_tile(V), as_tile(Tf), as_tile(C));
        EXPECT_LE(ref::diff_fro(C, Cref),
                  path_tol<T>(mb) * (1 + ref::norm_fro(Cref)))
            << "op=" << static_cast<int>(op);
    }
}

TYPED_TEST(BlasKernel, TsmqrLevel3MatchesNaive) {
    using T = TypeParam;
    int const n = 32, m2 = 96, nn = 40;
    auto A1 = ref::random_dense<T>(n, n, 93);
    auto A2 = ref::random_dense<T>(m2, n, 94);
    ref::Dense<T> Tf(n, n);
    blas::tsqrt(as_tile(A1), as_tile(A2), as_tile(Tf));

    for (Op op : {Op::NoTrans, Op::ConjTrans}) {
        auto C1 = ref::random_dense<T>(n, nn, 95);
        auto C2 = ref::random_dense<T>(m2, nn, 96);
        auto C1ref = C1, C2ref = C2;
        blas::tsmqr_naive(op, as_tile(A2), as_tile(Tf), as_tile(C1ref),
                          as_tile(C2ref));
        blas::tsmqr_level3(op, as_tile(A2), as_tile(Tf), as_tile(C1),
                           as_tile(C2));
        EXPECT_LE(ref::diff_fro(C1, C1ref),
                  path_tol<T>(m2) * (1 + ref::norm_fro(C1ref)))
            << "op=" << static_cast<int>(op);
        EXPECT_LE(ref::diff_fro(C2, C2ref),
                  path_tol<T>(m2) * (1 + ref::norm_fro(C2ref)))
            << "op=" << static_cast<int>(op);
    }
}

namespace {

/// The strictly lower part of every factored column of T must be zero on
/// every path: callers use the whole nb x nb tile as the triangular factor.
template <typename T>
void expect_t_lower_zero(ref::Dense<T> const& Tf, int k, char const* what) {
    for (int j = 0; j < k; ++j)
        for (int i = j + 1; i < static_cast<int>(Tf.m()); ++i)
            EXPECT_EQ(Tf(i, j), T(0)) << what << " T(" << i << "," << j << ")";
}

}  // namespace

TYPED_TEST(BlasKernel, GeqrtLevel3MatchesNaive) {
    using T = TypeParam;
    // mb < nb, mb > nb, square, k not a multiple of kQrInnerBlock, and an
    // already upper-triangular tile (every real reflector is H = I, tau = 0).
    for (auto [mb, nb, upper] :
         {std::tuple{40, 70, false}, {96, 40, false}, {64, 64, false},
          {100, 37, false}, {129, 129, false}, {48, 48, true}}) {
        auto A = ref::random_dense<T>(mb, nb, 101);
        if (upper)
            for (int j = 0; j < nb; ++j)
                for (int i = j + 1; i < mb; ++i)
                    A(i, j) = T(0);
        auto Aref = A;
        // T is the full nb x nb tile, as alloc_qr_t hands it out; stale
        // values in it must not survive below the diagonal.
        ref::Dense<T> Tf(nb, nb);
        for (int j = 0; j < nb; ++j)
            for (int i = 0; i < nb; ++i)
                Tf(i, j) = from_real<T>(real_t<T>(7));
        auto Tref = Tf;
        blas::geqrt_naive(as_tile(Aref), as_tile(Tref));
        blas::geqrt_level3(as_tile(A), as_tile(Tf));

        int const k = std::min(mb, nb);
        // A holds R (upper trapezoid) and V (strict lower part) together.
        EXPECT_LE(ref::diff_fro(A, Aref),
                  path_tol<T>(mb) * (1 + ref::norm_fro(Aref)))
            << "R, V mb=" << mb << " nb=" << nb;
        EXPECT_LE(ref::diff_fro(Tf, Tref),
                  path_tol<T>(mb) * (1 + ref::norm_fro(Tref)))
            << "T mb=" << mb << " nb=" << nb;
        expect_t_lower_zero(Tf, k, "level3");
        expect_t_lower_zero(Tref, k, "naive");
    }
}

TYPED_TEST(BlasKernel, TsqrtLevel3MatchesNaive) {
    using T = TypeParam;
    // m2 < ib, m2 < n, m2 > n, and n not a multiple of kQrInnerBlock.
    for (auto [n, m2] : {std::pair{64, 7}, {40, 24}, {37, 100}, {128, 128},
                         {129, 64}}) {
        auto A1 = ref::random_dense<T>(n, n, 102);
        auto A2 = ref::random_dense<T>(m2, n, 103);
        auto A1ref = A1, A2ref = A2;
        ref::Dense<T> Tf(n, n);
        for (int j = 0; j < n; ++j)
            for (int i = 0; i < n; ++i)
                Tf(i, j) = from_real<T>(real_t<T>(7));
        auto Tref = Tf;
        blas::tsqrt_naive(as_tile(A1ref), as_tile(A2ref), as_tile(Tref));
        blas::tsqrt_level3(as_tile(A1), as_tile(A2), as_tile(Tf));

        // R lives in A1's upper triangle; its strict lower part is never
        // touched, so comparing all of A1 is comparing R.
        int const depth = n + m2;
        EXPECT_LE(ref::diff_fro(A1, A1ref),
                  path_tol<T>(depth) * (1 + ref::norm_fro(A1ref)))
            << "R n=" << n << " m2=" << m2;
        EXPECT_LE(ref::diff_fro(A2, A2ref),
                  path_tol<T>(depth) * (1 + ref::norm_fro(A2ref)))
            << "V n=" << n << " m2=" << m2;
        EXPECT_LE(ref::diff_fro(Tf, Tref),
                  path_tol<T>(depth) * (1 + ref::norm_fro(Tref)))
            << "T n=" << n << " m2=" << m2;
        expect_t_lower_zero(Tf, n, "level3");
        expect_t_lower_zero(Tref, n, "naive");
    }
}

TYPED_TEST(BlasKernel, PublicEntriesChargeFormulaOnce) {
    // Each public call moves the counter by exactly its flops:: formula,
    // on the fast path (whose internal gemm/trmm/applier calls must not
    // charge again) and on the TBP_NAIVE_BLAS path.
    using T = TypeParam;
    using R = real_t<T>;
    int const n = 100, nn = 72;
    double const w = fma_flops<T>() / 2.0;
    auto charged = [](double fl) {
        return static_cast<double>(static_cast<std::uint64_t>(fl));
    };
    auto moved = [](auto&& call) {
        double const f0 = blas::kernel::flops_performed();
        call();
        return blas::kernel::flops_performed() - f0;
    };
    bool const was_naive = blas::kernel::use_naive();
    for (bool naive : {false, true}) {
        blas::kernel::set_naive(naive);
        auto A = ref::random_dense<T>(n, n, 111);
        for (int i = 0; i < n; ++i)
            A(i, i) = A(i, i) + from_real<T>(R(4));
        auto B = ref::random_dense<T>(n, nn, 112);
        auto C = ref::random_dense<T>(n, n, 113);

        EXPECT_EQ(moved([&] {
                      blas::trmm(Uplo::Upper, Op::NoTrans, Diag::NonUnit,
                                 T(1), as_tile(A), as_tile(B));
                  }),
                  charged(flops::trmm(n, nn) * w))
            << "trmm naive=" << naive;
        EXPECT_EQ(moved([&] {
                      blas::trsm(Side::Left, Uplo::Lower, Op::NoTrans,
                                 Diag::NonUnit, T(1), as_tile(A),
                                 as_tile(B));
                  }),
                  charged(flops::trsm_left(n, nn) * w))
            << "trsm left naive=" << naive;
        auto Br = ref::random_dense<T>(nn, n, 114);
        EXPECT_EQ(moved([&] {
                      blas::trsm(Side::Right, Uplo::Lower, Op::ConjTrans,
                                 Diag::NonUnit, T(1), as_tile(A),
                                 as_tile(Br));
                  }),
                  charged(flops::trsm_right(nn, n) * w))
            << "trsm right naive=" << naive;
        EXPECT_EQ(moved([&] {
                      blas::herk(Uplo::Lower, Op::NoTrans, R(1),
                                 as_tile(B), R(0), as_tile(C));
                  }),
                  charged(flops::syrk(n, nn) * w))
            << "herk naive=" << naive;
        auto H = make_hpd<T>(n, 121);
        EXPECT_EQ(moved([&] { blas::potrf(Uplo::Lower, as_tile(H)); }),
                  charged(flops::potrf(n) * w))
            << "potrf naive=" << naive;

        auto V = ref::random_dense<T>(n, n, 115);
        ref::Dense<T> Tf(n, n);
        EXPECT_EQ(moved([&] { blas::geqrt(as_tile(V), as_tile(Tf)); }),
                  charged(flops::geqrf(n, n) * w))
            << "geqrt naive=" << naive;
        auto Cq = ref::random_dense<T>(n, nn, 116);
        EXPECT_EQ(moved([&] {
                      blas::unmqr(Op::ConjTrans, as_tile(V), as_tile(Tf),
                                  as_tile(Cq));
                  }),
                  charged(flops::unmqr(n, nn, n) * w))
            << "unmqr naive=" << naive;

        auto R1 = ref::random_dense<T>(n, n, 117);
        auto A2 = ref::random_dense<T>(n, n, 118);
        ref::Dense<T> Ts(n, n);
        EXPECT_EQ(moved([&] {
                      blas::tsqrt(as_tile(R1), as_tile(A2), as_tile(Ts));
                  }),
                  charged(flops::tsqrt(n, n) * w))
            << "tsqrt naive=" << naive;
        auto C1 = ref::random_dense<T>(n, nn, 119);
        auto C2 = ref::random_dense<T>(n, nn, 120);
        EXPECT_EQ(moved([&] {
                      blas::tsmqr(Op::ConjTrans, as_tile(A2), as_tile(Ts),
                                  as_tile(C1), as_tile(C2));
                  }),
                  charged(flops::tsmqr(n, n, nn) * w))
            << "tsmqr naive=" << naive;
    }
    blas::kernel::set_naive(was_naive);
}

TYPED_TEST(BlasKernel, PublicGemmRoutesAndCounts) {
    using T = TypeParam;
    // The public entry must agree with the naive path regardless of which
    // kernel it picks, and the flop counter must advance by the model count.
    int const m = 80, n = 72, k = 64;
    auto A = ref::random_dense<T>(m, k, 97);
    auto B = ref::random_dense<T>(k, n, 98);
    auto C = ref::random_dense<T>(m, n, 99);
    auto Cref = C;
    T const alpha = from_real<T>(real_t<T>(1.5));
    T const beta = from_real<T>(real_t<T>(0.5));

    blas::gemm_naive(Op::NoTrans, Op::NoTrans, alpha, as_tile(A), as_tile(B),
                     beta, as_tile(Cref));
    double const f0 = blas::kernel::flops_performed();
    blas::gemm(Op::NoTrans, Op::NoTrans, alpha, as_tile(A), as_tile(B), beta,
               as_tile(C));
    double const df = blas::kernel::flops_performed() - f0;
    EXPECT_LE(ref::diff_fro(C, Cref),
              path_tol<T>(k) * (1 + ref::norm_fro(Cref)));
    EXPECT_DOUBLE_EQ(df, flops::gemm(m, n, k) * (fma_flops<T>() / 2.0));
}
