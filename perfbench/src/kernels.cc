// Microbenches of single layers: the tile kernels (blas::, one thread,
// nb = 128, flops from the kernel counter) and the engine's per-task cost.

#include <functional>
#include <string>

#include "bench.hh"
#include "blas/factor.hh"
#include "blas/gemm.hh"
#include "blas/householder.hh"
#include "blas/kernel/stats.hh"
#include "blas/level3.hh"
#include "common/rng.hh"
#include "common/timer.hh"
#include "matrix/tiled_matrix.hh"
#include "runtime/engine.hh"

namespace perfbench {

using namespace tbp;

namespace {

constexpr int kNb = 128;
constexpr double kKernelBudget = 0.1;  ///< seconds of timed calls per kernel
constexpr int kMinCalls = 5;

/// One nb x nb tile with its own (aligned) storage.
template <typename T>
struct OwnedTile {
    TiledMatrix<T> m{kNb, kNb, kNb};
    Tile<T> t() const { return m.tile(0, 0); }
};

template <typename T>
void fill(Tile<T> const& t, std::uint64_t seed) {
    CounterRng const rng(seed);
    for (int j = 0; j < t.nb(); ++j)
        for (int i = 0; i < t.mb(); ++i)
            t(i, j) = rng.gaussian<T>(static_cast<std::uint64_t>(i + j * kNb));
}

/// Triangular and diagonally dominant: a well-conditioned factor for the
/// triangular kernels.
template <typename T>
void make_triangular(Tile<T> const& t, std::uint64_t seed, Uplo uplo) {
    fill(t, seed);
    for (int j = 0; j < kNb; ++j) {
        for (int i = 0; i < kNb; ++i)
            if (uplo == Uplo::Lower ? i < j : i > j)
                t(i, j) = T(0);
        t(j, j) = T(2 * kNb);
    }
}

/// Time `call` (restoring inputs with the untimed `prepare` before each
/// call) until the budget is spent. Returns kernel-counter flops over the
/// median call time, in GF/s.
double rate(std::function<void()> const& prepare,
            std::function<void()> const& call) {
    std::vector<double> secs;
    double flops = 0, spent = 0;
    while (spent < kKernelBudget || static_cast<int>(secs.size()) < kMinCalls) {
        prepare();
        double const f0 = blas::kernel::flops_performed();
        Timer t;
        call();
        double const dt = t.elapsed();
        flops = blas::kernel::flops_performed() - f0;
        secs.push_back(dt);
        spent += dt;
    }
    return flops / median(secs) / 1e9;
}

template <typename T>
void kernels(char p, Report& rep) {
    OwnedTile<T> A, B, C, C2, L, U, Tf, V, R1, R2, S1, S2, keep1, keep2;
    fill(A.t(), 1);
    fill(B.t(), 2);
    fill(keep1.t(), 3);
    fill(keep2.t(), 4);
    make_triangular(L.t(), 5, Uplo::Lower);
    make_triangular(U.t(), 6, Uplo::Upper);
    auto nothing = [] {};
    auto add = [&](char const* k, std::function<void()> const& prepare,
                   std::function<void()> const& call) {
        rep.add(std::string("blas.") + k + "." + p + ".gflops",
                rate(prepare, call), "GF/s");
    };
    auto restore = [&](OwnedTile<T> const& dst, OwnedTile<T> const& src) {
        blas::copy(src.t(), dst.t());
    };

    add("gemm", nothing, [&] {
        blas::gemm(Op::NoTrans, Op::NoTrans, T(1), A.t(), B.t(), T(0), C.t());
    });
    add("herk", nothing, [&] {
        blas::herk(Uplo::Lower, Op::ConjTrans, real_t<T>(1), A.t(),
                   real_t<T>(0), C.t());
    });
    add("trsm", [&] { restore(C, keep1); }, [&] {
        blas::trsm(Side::Right, Uplo::Lower, Op::ConjTrans, Diag::NonUnit,
                   T(1), L.t(), C.t());
    });
    add("trmm", [&] { restore(C, keep1); }, [&] {
        blas::trmm(Uplo::Upper, Op::NoTrans, Diag::NonUnit, T(1), U.t(),
                   C.t());
    });
    // potrf of L L^H, HPD since L has a dominant diagonal.
    OwnedTile<T> hpd;
    blas::herk(Uplo::Lower, Op::NoTrans, real_t<T>(1), L.t(), real_t<T>(0),
               hpd.t());
    add("potrf", [&] { restore(C, hpd); },
        [&] { blas::potrf(Uplo::Lower, C.t()); });

    // QR panels and their appliers. geqrt of a Gaussian tile gives the
    // unmqr reflectors; tsqrt of [R; Gaussian] the tsmqr ones; ttqrt of
    // [R; upper triangle] the ttmqr ones.
    add("geqrt", [&] { restore(V, keep1); },
        [&] { blas::geqrt(V.t(), Tf.t()); });
    restore(R1, V);  // R of keep1
    OwnedTile<T> Tu;
    blas::copy(Tf.t(), Tu.t());
    add("unmqr", [&] { restore(C, keep2); },
        [&] { blas::unmqr(Op::ConjTrans, V.t(), Tu.t(), C.t()); });

    OwnedTile<T> Ts;
    add("tsqrt", [&] { restore(S1, R1); restore(S2, keep2); },
        [&] { blas::tsqrt(S1.t(), S2.t(), Ts.t()); });
    add("tsmqr", [&] { restore(C, keep1); restore(C2, keep2); }, [&] {
        blas::tsmqr(Op::ConjTrans, S2.t(), Ts.t(), C.t(), C2.t());
    });

    OwnedTile<T> Tt, upper;
    blas::copy(U.t(), upper.t());
    add("ttqrt", [&] { restore(S1, R1); restore(R2, upper); },
        [&] { blas::ttqrt(S1.t(), R2.t(), Tt.t()); });
    add("ttmqr", [&] { restore(C, keep1); restore(C2, keep2); }, [&] {
        blas::ttmqr(Op::ConjTrans, R2.t(), Tt.t(), C.t(), C2.t());
    });
}

}  // namespace

void trace_kernels(Report& rep) {
    kernels<double>('d', rep);
    kernels<float>('s', rep);
}

void trace_empty_task(Report& rep) {
    constexpr int kTasks = 20000;
    constexpr int kReps = 5;
    rt::Engine eng(4);
    std::vector<double> us;
    for (int r = 0; r < kReps; ++r) {
        Timer t;
        for (int i = 0; i < kTasks; ++i)
            eng.submit("empty", std::vector<rt::Access>{}, [] {});
        eng.wait();
        us.push_back(t.elapsed() / kTasks * 1e6);
    }
    rep.add_median("runtime.empty_task_us", us, "us");
}

}  // namespace perfbench
