// Sequential tile-level triangular and rank-k kernels: herk/syrk, trsm, trmm.
//
// Conventions follow BLAS: only the `uplo` triangle of Hermitian results is
// referenced, triangular solves overwrite the right-hand side, and `Diag`
// selects an implicit unit diagonal.
//
// Each kernel exists in two forms sharing one public entry point:
//   *_naive     - the original element loops, kept as the tested reference,
//                 the TBP_NAIVE_BLAS path, and the recursion's base case.
//   *_recursive - the triangle is halved (split on a multiple of 8) until a
//                 diagonal block is at most kernel::kRecursionBase wide,
//                 where the naive loops run; every off-diagonal block is one
//                 GEMM through the packed micro-kernel layer (blas/kernel/).
//                 At nb = 128 the naive leaves hold 1/16 of the
//                 triangle's flops, the GEMMs the rest.
// The dispatcher picks naive only when TBP_NAIVE_BLAS is set (the recursion
// falls through to it by itself for small triangles), and charges the
// call's flops to the measured-rate counter either way.

#pragma once

#include <algorithm>

#include "blas/gemm.hh"
#include "blas/kernel/params.hh"
#include "blas/kernel/stats.hh"
#include "common/flops.hh"
#include "common/types.hh"
#include "matrix/tile.hh"

namespace tbp::blas {

namespace detail {

/// Split point of a triangle of order n > kernel::kRecursionBase: about
/// half, rounded down to a multiple of 8, and never below 8.
inline int recursion_split(int n) { return std::max(8, n / 16 * 8); }

/// The stored off-diagonal block of an n-by-n triangular A split at n1:
/// A12 for Upper, A21 for Lower. Applying `op` to it gives the
/// off-diagonal block of op(A) either way.
template <typename T>
Tile<T> off_diagonal(Uplo uplo, Tile<T> const& A, int n1) {
    int const n2 = A.mb() - n1;
    return (uplo == Uplo::Upper) ? A.sub(0, n1, n1, n2) : A.sub(n1, 0, n2, n1);
}

}  // namespace detail

/// Hermitian rank-k update.
///   op == NoTrans:   C := alpha * A * A^H + beta * C,  A n-by-k
///   op == ConjTrans: C := alpha * A^H * A + beta * C,  A k-by-n
/// alpha, beta are real; for real T this is syrk.
template <typename T>
void herk_naive(Uplo uplo, Op op, real_t<T> alpha, Tile<T> const& A,
                real_t<T> beta, Tile<T> const& C) {
    int const n = C.mb();
    tbp_require(C.nb() == n);
    int const k = (op == Op::NoTrans) ? A.nb() : A.mb();
    tbp_require(((op == Op::NoTrans) ? A.mb() : A.nb()) == n);

    auto a = [&](int i, int l) -> T {
        return (op == Op::NoTrans) ? A(i, l) : conj_val(A(l, i));
    };

    for (int j = 0; j < n; ++j) {
        int const ilo = (uplo == Uplo::Lower) ? j : 0;
        int const ihi = (uplo == Uplo::Lower) ? n : j + 1;
        for (int i = ilo; i < ihi; ++i) {
            T sum(0);
            for (int l = 0; l < k; ++l)
                sum += a(i, l) * conj_val(a(j, l));
            T c0 = (beta == real_t<T>(0)) ? T(0) : from_real<T>(beta) * C(i, j);
            C(i, j) = c0 + from_real<T>(alpha) * sum;
            if (i == j) {
                // Force an exactly real diagonal, as zherk does.
                C(i, j) = from_real<T>(real_part(C(i, j)));
            }
        }
    }
}

/// Recursive herk: both diagonal blocks of C recurse (the naive base keeps
/// the exactly-real diagonal), the off-diagonal block is one GEMM.
template <typename T>
void herk_recursive(Uplo uplo, Op op, real_t<T> alpha, Tile<T> const& A,
                    real_t<T> beta, Tile<T> const& C) {
    int const n = C.mb();
    tbp_require(C.nb() == n);
    int const k = (op == Op::NoTrans) ? A.nb() : A.mb();
    tbp_require(((op == Op::NoTrans) ? A.mb() : A.nb()) == n);
    if (n <= kernel::kRecursionBase) {
        herk_naive(uplo, op, alpha, A, beta, C);
        return;
    }

    int const n1 = detail::recursion_split(n), n2 = n - n1;
    bool const notrans = (op == Op::NoTrans);
    auto A1 = notrans ? A.sub(0, 0, n1, k) : A.sub(0, 0, k, n1);
    auto A2 = notrans ? A.sub(n1, 0, n2, k) : A.sub(0, n1, k, n2);
    herk_recursive(uplo, op, alpha, A1, beta, C.sub(0, 0, n1, n1));
    herk_recursive(uplo, op, alpha, A2, beta, C.sub(n1, n1, n2, n2));

    // C21 = alpha op(A2) op(A1)^H + beta C21, or C12 with A1, A2 swapped.
    Op const opl = notrans ? Op::NoTrans : Op::ConjTrans;
    Op const opr = notrans ? Op::ConjTrans : Op::NoTrans;
    T const al = from_real<T>(alpha);
    T const be = from_real<T>(beta);
    if (uplo == Uplo::Lower)
        gemm_dispatch(opl, opr, al, A2, A1, be, C.sub(n1, 0, n2, n1));
    else
        gemm_dispatch(opl, opr, al, A1, A2, be, C.sub(0, n1, n1, n2));
}

template <typename T>
void herk(Uplo uplo, Op op, real_t<T> alpha, Tile<T> const& A,
          real_t<T> beta, Tile<T> const& C) {
    int const n = C.mb();
    int const k = (op == Op::NoTrans) ? A.nb() : A.mb();
    if (kernel::use_naive())
        herk_naive(uplo, op, alpha, A, beta, C);
    else
        herk_recursive(uplo, op, alpha, A, beta, C);
    kernel::count_flops(flops::syrk(n, k) * (fma_flops<T>() / 2.0),
                        prec::charge_prec<T>());
}

/// Triangular solve with multiple right-hand sides.
///   side == Left:  solve op(A) * X = alpha * B,  A m-by-m, B m-by-n
///   side == Right: solve X * op(A) = alpha * B,  A n-by-n, B m-by-n
/// X overwrites B.
template <typename T>
void trsm_naive(Side side, Uplo uplo, Op op, Diag diag, T alpha,
                Tile<T> const& A, Tile<T> const& B) {
    int const m = B.mb();
    int const n = B.nb();
    int const na = (side == Side::Left) ? m : n;
    tbp_require(A.mb() == na && A.nb() == na);

    // Element of op(A).
    auto a = [&](int i, int j) -> T {
        return (op == Op::NoTrans) ? A(i, j) : apply_op(op, A(j, i));
    };
    // Is op(A) effectively upper triangular?
    bool const eff_upper = (uplo == Uplo::Upper) == (op == Op::NoTrans);

    if (alpha != T(1)) {
        for (int j = 0; j < n; ++j)
            for (int i = 0; i < m; ++i)
                B(i, j) = (alpha == T(0)) ? T(0) : alpha * B(i, j);
    }

    if (side == Side::Left) {
        for (int j = 0; j < n; ++j) {
            if (!eff_upper) {
                for (int i = 0; i < m; ++i) {
                    T x = B(i, j);
                    for (int l = 0; l < i; ++l)
                        x -= a(i, l) * B(l, j);
                    B(i, j) = (diag == Diag::Unit) ? x : x / a(i, i);
                }
            } else {
                for (int i = m - 1; i >= 0; --i) {
                    T x = B(i, j);
                    for (int l = i + 1; l < m; ++l)
                        x -= a(i, l) * B(l, j);
                    B(i, j) = (diag == Diag::Unit) ? x : x / a(i, i);
                }
            }
        }
    } else {
        // X * op(A) = B: column j of B couples X columns l with a(l, j) != 0.
        if (eff_upper) {
            for (int j = 0; j < n; ++j) {
                for (int l = 0; l < j; ++l) {
                    T const alj = a(l, j);
                    if (alj == T(0))
                        continue;
                    for (int i = 0; i < m; ++i)
                        B(i, j) -= B(i, l) * alj;
                }
                if (diag == Diag::NonUnit) {
                    T const d = a(j, j);
                    for (int i = 0; i < m; ++i)
                        B(i, j) /= d;
                }
            }
        } else {
            for (int j = n - 1; j >= 0; --j) {
                for (int l = j + 1; l < n; ++l) {
                    T const alj = a(l, j);
                    if (alj == T(0))
                        continue;
                    for (int i = 0; i < m; ++i)
                        B(i, j) -= B(i, l) * alj;
                }
                if (diag == Diag::NonUnit) {
                    T const d = a(j, j);
                    for (int i = 0; i < m; ++i)
                        B(i, j) /= d;
                }
            }
        }
    }
}

/// Recursive trsm: solve with the first diagonal block of op(A), update
/// the other half of the right-hand sides with one GEMM (which also applies
/// alpha to it), then solve with the second diagonal block. alpha reaches
/// each right-hand side exactly once, as in the naive kernel.
template <typename T>
void trsm_recursive(Side side, Uplo uplo, Op op, Diag diag, T alpha,
                    Tile<T> const& A, Tile<T> const& B) {
    int const m = B.mb();
    int const n = B.nb();
    int const na = (side == Side::Left) ? m : n;
    tbp_require(A.mb() == na && A.nb() == na);
    if (na <= kernel::kRecursionBase) {
        trsm_naive(side, uplo, op, diag, alpha, A, B);
        return;
    }
    if (m == 0 || n == 0)
        return;

    int const n1 = detail::recursion_split(na), n2 = na - n1;
    auto A11 = A.sub(0, 0, n1, n1);
    auto A22 = A.sub(n1, n1, n2, n2);
    auto Aoff = detail::off_diagonal(uplo, A, n1);
    bool const eff_upper = (uplo == Uplo::Upper) == (op == Op::NoTrans);
    auto solve = [&](T a, Tile<T> const& Ad, Tile<T> const& Bd) {
        trsm_recursive(side, uplo, op, diag, a, Ad, Bd);
    };

    if (side == Side::Left) {
        auto B1 = B.sub(0, 0, n1, n);
        auto B2 = B.sub(n1, 0, n2, n);
        if (!eff_upper) {
            solve(alpha, A11, B1);
            gemm_dispatch(op, Op::NoTrans, T(-1), Aoff, B1, alpha, B2);
            solve(T(1), A22, B2);
        } else {
            solve(alpha, A22, B2);
            gemm_dispatch(op, Op::NoTrans, T(-1), Aoff, B2, alpha, B1);
            solve(T(1), A11, B1);
        }
    } else {
        auto B1 = B.sub(0, 0, m, n1);
        auto B2 = B.sub(0, n1, m, n2);
        if (eff_upper) {
            solve(alpha, A11, B1);
            gemm_dispatch(Op::NoTrans, op, T(-1), B1, Aoff, alpha, B2);
            solve(T(1), A22, B2);
        } else {
            solve(alpha, A22, B2);
            gemm_dispatch(Op::NoTrans, op, T(-1), B2, Aoff, alpha, B1);
            solve(T(1), A11, B1);
        }
    }
}

template <typename T>
void trsm(Side side, Uplo uplo, Op op, Diag diag, T alpha,
          Tile<T> const& A, Tile<T> const& B) {
    int const m = B.mb();
    int const n = B.nb();
    if (kernel::use_naive())
        trsm_naive(side, uplo, op, diag, alpha, A, B);
    else
        trsm_recursive(side, uplo, op, diag, alpha, A, B);
    kernel::count_flops((side == Side::Left ? flops::trsm_left(m, n)
                                            : flops::trsm_right(m, n))
                        * (fma_flops<T>() / 2.0),
                        prec::charge_prec<T>());
}

/// Triangular matrix-matrix multiply, left side only (all TBP call sites):
///   B := alpha * op(A) * B,  A m-by-m triangular, B m-by-n.
template <typename T>
void trmm_naive(Uplo uplo, Op op, Diag diag, T alpha, Tile<T> const& A,
                Tile<T> const& B) {
    int const m = B.mb();
    int const n = B.nb();
    tbp_require(A.mb() == m && A.nb() == m);

    auto a = [&](int i, int j) -> T {
        return (op == Op::NoTrans) ? A(i, j) : apply_op(op, A(j, i));
    };
    bool const eff_upper = (uplo == Uplo::Upper) == (op == Op::NoTrans);

    for (int j = 0; j < n; ++j) {
        if (eff_upper) {
            // Row i of the product uses B rows >= i: process top-down.
            for (int i = 0; i < m; ++i) {
                T x = (diag == Diag::Unit) ? B(i, j) : a(i, i) * B(i, j);
                for (int l = i + 1; l < m; ++l)
                    x += a(i, l) * B(l, j);
                B(i, j) = alpha * x;
            }
        } else {
            // Row i uses B rows <= i: process bottom-up.
            for (int i = m - 1; i >= 0; --i) {
                T x = (diag == Diag::Unit) ? B(i, j) : a(i, i) * B(i, j);
                for (int l = 0; l < i; ++l)
                    x += a(i, l) * B(l, j);
                B(i, j) = alpha * x;
            }
        }
    }
}

/// Recursive trmm: with op(A) = [X11 X12; 0 X22] (effectively upper) the
/// first block row is multiplied by X11, then receives X12 * B2 as one GEMM
/// while B2 is still unmodified, and B2 is multiplied by X22 last; the
/// effectively-lower case runs the mirror order.
template <typename T>
void trmm_recursive(Uplo uplo, Op op, Diag diag, T alpha, Tile<T> const& A,
                    Tile<T> const& B) {
    int const m = B.mb();
    int const n = B.nb();
    tbp_require(A.mb() == m && A.nb() == m);
    if (m <= kernel::kRecursionBase) {
        trmm_naive(uplo, op, diag, alpha, A, B);
        return;
    }
    if (n == 0)
        return;

    int const m1 = detail::recursion_split(m), m2 = m - m1;
    auto A11 = A.sub(0, 0, m1, m1);
    auto A22 = A.sub(m1, m1, m2, m2);
    auto Aoff = detail::off_diagonal(uplo, A, m1);
    auto B1 = B.sub(0, 0, m1, n);
    auto B2 = B.sub(m1, 0, m2, n);
    bool const eff_upper = (uplo == Uplo::Upper) == (op == Op::NoTrans);
    if (eff_upper) {
        trmm_recursive(uplo, op, diag, alpha, A11, B1);
        gemm_dispatch(op, Op::NoTrans, alpha, Aoff, B2, T(1), B1);
        trmm_recursive(uplo, op, diag, alpha, A22, B2);
    } else {
        trmm_recursive(uplo, op, diag, alpha, A22, B2);
        gemm_dispatch(op, Op::NoTrans, alpha, Aoff, B1, T(1), B2);
        trmm_recursive(uplo, op, diag, alpha, A11, B1);
    }
}

/// Path selection without flop accounting (for composite kernels that
/// charge aggregate counts, e.g. the Householder kernels).
template <typename T>
void trmm_dispatch(Uplo uplo, Op op, Diag diag, T alpha, Tile<T> const& A,
                   Tile<T> const& B) {
    if (kernel::use_naive())
        trmm_naive(uplo, op, diag, alpha, A, B);
    else
        trmm_recursive(uplo, op, diag, alpha, A, B);
}

template <typename T>
void trmm(Uplo uplo, Op op, Diag diag, T alpha, Tile<T> const& A,
          Tile<T> const& B) {
    trmm_dispatch(uplo, op, diag, alpha, A, B);
    kernel::count_flops(flops::trmm(B.mb(), B.nb()) * (fma_flops<T>() / 2.0),
                        prec::charge_prec<T>());
}

}  // namespace tbp::blas
