// Accuracy checks of a polar decomposition A = U H against the contract of
// the precision it ran at. Computed with the library's tiled gemm on the
// workload's engine (outside every timed region): a dense reference check
// at n = 1024 would take longer than the solve it checks.

#pragma once

#include <cmath>
#include <limits>

#include "linalg/gemm.hh"
#include "linalg/util.hh"
#include "matrix/tiled_matrix.hh"
#include "runtime/engine.hh"

namespace perfbench {

struct PolarError {
    double orth = 0;      ///< ||I - U^H U||_F / sqrt(n)
    double backward = 0;  ///< ||A - U H||_F / ||A||_F
};

/// The accuracy a result must reach: a multiple of the unit roundoff that
/// governs each quantity.
struct Contract {
    double orth = 0;
    double backward = 0;
};

/// Headroom over eps: the measured native values sit at 5-15 eps for
/// n <= 1024, so 100 eps flags a real loss of accuracy but not rounding.
inline constexpr double kEpsMultiple = 100;

/// Native precision: orthogonality and backward error both at a small
/// multiple of double eps.
inline Contract native_contract() {
    double const e = std::numeric_limits<double>::epsilon();
    return {kEpsMultiple * e, kEpsMultiple * e};
}

/// Float rungs with a native tail: native orthogonality, and the backward
/// error of the coarsest executed rung (float).
inline Contract float_contract() {
    return {kEpsMultiple * std::numeric_limits<double>::epsilon(),
            kEpsMultiple * std::numeric_limits<float>::epsilon()};
}

inline bool meets(Contract const& c, PolarError const& e) {
    return e.orth <= c.orth && e.backward <= c.backward;
}

template <typename T>
PolarError polar_error(tbp::rt::Engine& eng, tbp::TiledMatrix<T> const& A,
                       tbp::TiledMatrix<T> const& U,
                       tbp::TiledMatrix<T> const& H) {
    using namespace tbp;
    PolarError e;
    auto const n = static_cast<double>(U.n());
    TiledMatrix<T> G(U.col_tile_sizes(), U.col_tile_sizes(), U.grid());
    la::set_identity(eng, G);
    la::gemm(eng, Op::ConjTrans, Op::NoTrans, T(-1), U, U, T(1), G);
    e.orth = static_cast<double>(la::norm(eng, Norm::Fro, G)) / std::sqrt(n);

    TiledMatrix<T> R = A.clone();
    la::gemm(eng, Op::NoTrans, Op::NoTrans, T(-1), U, H, T(1), R);
    e.backward = static_cast<double>(la::norm(eng, Norm::Fro, R))
                 / static_cast<double>(la::norm(eng, Norm::Fro, A));
    return e;
}

/// H = (U^H A + (U^H A)^H) / 2, for drivers that return only U.
template <typename T>
tbp::TiledMatrix<T> hermitian_factor(tbp::rt::Engine& eng,
                                     tbp::TiledMatrix<T> const& A,
                                     tbp::TiledMatrix<T> const& U) {
    using namespace tbp;
    TiledMatrix<T> H(U.col_tile_sizes(), U.col_tile_sizes(), U.grid());
    TiledMatrix<T> Ht(U.col_tile_sizes(), U.col_tile_sizes(), U.grid());
    la::gemm(eng, Op::ConjTrans, Op::NoTrans, T(1), U, A, T(0), H);
    la::transpose_copy(eng, Op::ConjTrans, H, Ht);
    la::add(eng, T(0.5), Ht, T(0.5), H);
    eng.wait();
    return H;
}

}  // namespace perfbench
