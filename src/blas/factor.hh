// Sequential tile-level Cholesky factorization.
//
// Two forms share one public entry point, as in level3.hh:
//   potrf_naive     - the column loop, kept as the tested reference, the
//                     TBP_NAIVE_BLAS path, and the recursion's base case.
//   potrf_recursive - the matrix is halved until a diagonal block is at
//                     most kernel::kRecursionBase wide, where the loop runs;
//                     the off-diagonal block is one recursive trsm and the
//                     trailing block one recursive herk, so almost all of
//                     the flops run in the packed GEMM.

#pragma once

#include <cmath>

#include "blas/kernel/params.hh"
#include "blas/kernel/stats.hh"
#include "blas/level3.hh"
#include "common/error.hh"
#include "common/flops.hh"
#include "common/types.hh"
#include "matrix/tile.hh"

namespace tbp::blas {

/// Cholesky factorization of a Hermitian positive definite tile:
///   uplo == Lower: A = L * L^H, L overwrites the lower triangle.
///   uplo == Upper: A = U^H * U, U overwrites the upper triangle.
/// Throws tbp::Error if a non-positive pivot is met (matrix not HPD), as
/// xPOTRF reports via info > 0; QDWH relies on this signal never firing once
/// the iterate is well-conditioned, and the precision ladder promotes a
/// rung when it does.
template <typename T>
void potrf_naive(Uplo uplo, Tile<T> const& A) {
    using R = real_t<T>;
    int const n = A.mb();
    tbp_require(A.nb() == n);

    if (uplo == Uplo::Lower) {
        for (int j = 0; j < n; ++j) {
            R djj = real_part(A(j, j));
            for (int k = 0; k < j; ++k)
                djj -= abs_sq(A(j, k));
            if (!(djj > R(0)))
                tbp_throw("potrf: matrix is not positive definite");
            R const ljj = std::sqrt(djj);
            A(j, j) = from_real<T>(ljj);
            for (int i = j + 1; i < n; ++i) {
                T x = A(i, j);
                for (int k = 0; k < j; ++k)
                    x -= A(i, k) * conj_val(A(j, k));
                A(i, j) = x / from_real<T>(ljj);
            }
        }
    } else {
        for (int j = 0; j < n; ++j) {
            R djj = real_part(A(j, j));
            for (int k = 0; k < j; ++k)
                djj -= abs_sq(A(k, j));
            if (!(djj > R(0)))
                tbp_throw("potrf: matrix is not positive definite");
            R const ujj = std::sqrt(djj);
            A(j, j) = from_real<T>(ujj);
            for (int i = j + 1; i < n; ++i) {
                T x = A(j, i);
                for (int k = 0; k < j; ++k)
                    x -= conj_val(A(k, j)) * A(k, i);
                A(j, i) = x / from_real<T>(ujj);
            }
        }
    }
}

/// Recursive potrf: factor A11, solve the off-diagonal block against it,
/// downdate A22 by a herk, factor A22. A non-HPD operand throws from the
/// leaf whose pivot fails.
template <typename T>
void potrf_recursive(Uplo uplo, Tile<T> const& A) {
    using R = real_t<T>;
    int const n = A.mb();
    tbp_require(A.nb() == n);
    if (n <= kernel::kRecursionBase) {
        potrf_naive(uplo, A);
        return;
    }

    int const n1 = detail::recursion_split(n), n2 = n - n1;
    auto A11 = A.sub(0, 0, n1, n1);
    auto A22 = A.sub(n1, n1, n2, n2);
    potrf_recursive(uplo, A11);
    if (uplo == Uplo::Lower) {
        // A21 := A21 L11^-H;  A22 := A22 - A21 A21^H.
        auto A21 = A.sub(n1, 0, n2, n1);
        trsm_recursive(Side::Right, Uplo::Lower, Op::ConjTrans, Diag::NonUnit,
                       T(1), A11, A21);
        herk_recursive(Uplo::Lower, Op::NoTrans, R(-1), A21, R(1), A22);
    } else {
        // A12 := U11^-H A12;  A22 := A22 - A12^H A12.
        auto A12 = A.sub(0, n1, n1, n2);
        trsm_recursive(Side::Left, Uplo::Upper, Op::ConjTrans, Diag::NonUnit,
                       T(1), A11, A12);
        herk_recursive(Uplo::Upper, Op::ConjTrans, R(-1), A12, R(1), A22);
    }
    potrf_recursive(uplo, A22);
}

template <typename T>
void potrf(Uplo uplo, Tile<T> const& A) {
    if (kernel::use_naive())
        potrf_naive(uplo, A);
    else
        potrf_recursive(uplo, A);
    kernel::count_flops(flops::potrf(A.mb()) * (fma_flops<T>() / 2.0),
                        prec::charge_prec<T>());
}

}  // namespace tbp::blas
