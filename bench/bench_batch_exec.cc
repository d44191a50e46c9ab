// bench_batch_exec — A/B of the batched device executor (dev::Executor,
// Target::BatchedHost) against the per-tile task oracle (Target::Tasks).
//
// The sweep runs the QDWH building blocks most sensitive to scheduler
// pressure — a tiled gemm update sweep and the structured stacked-QR
// factor + Q generation pair — over tile size x max_batch, measuring:
//   - wall-clock per target (best of several repetitions);
//   - tile ops vs engine tasks (the coalescing factor: how much scheduler
//     load the collector removes);
//   - bitwise identity of the batched results against the oracle.
//
// Usage:
//   bench_batch_exec [--smoke] [--json PATH]
//
// --smoke runs inside ctest (label "device"): exits nonzero if the batched
// path is not bitwise identical to the per-tile oracle, if the measured
// coalescing at QDWH scale (nt = 16 panels) falls below the 5x acceptance
// bar, or if batching does not beat the per-tile path's wall-clock on the
// scheduler-bound small-tile structured-QR pair, judged on the median
// speedup of 15 interleaved tasks/batched pairs (the QDWH QR iterate's hot
// kernel; the gemm sweep's fused k-loop bodies are already coarse, so its
// wall-clock is a tie and only checked for bitwise identity + coalescing).
// Results land in BENCH_batch_exec.json.

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/timer.hh"
#include "device/executor.hh"
#include "gen/matgen.hh"
#include "linalg/gemm.hh"
#include "linalg/geqrf.hh"
#include "linalg/util.hh"
#include "perf/cost_model.hh"

using namespace tbp;

namespace {

struct Measure {
    double secs = 0;          ///< wall-clock: best of reps (median of
                              ///< pairs for the smoke's QR pair)
    std::uint64_t ops = 0;    ///< tile ops routed
    std::uint64_t tasks = 0;  ///< engine tasks created
    double coalescing() const {
        return tasks > 0 ? static_cast<double>(ops) / static_cast<double>(tasks)
                         : 1.0;
    }
};

template <typename T>
bool bitwise_equal(TiledMatrix<T> const& A, TiledMatrix<T> const& B) {
    for (std::int64_t j = 0; j < A.n(); ++j)
        for (std::int64_t i = 0; i < A.m(); ++i) {
            T const a = A.at(i, j);
            T const b = B.at(i, j);
            if (std::memcmp(&a, &b, sizeof(T)) != 0)
                return false;
        }
    return true;
}

/// C := A B on an n x n grid with tile size nb through an executor; the
/// canonical scheduler-bound workload (one long run of same-shape gemm
/// ops). Returns the result for the bitwise check.
TiledMatrix<double> run_gemm(rt::Engine& eng, dev::ExecOptions eo,
                             std::int64_t n, int nb, int reps, Measure& m) {
    TiledMatrix<double> A(n, n, nb), B(n, n, nb), C(n, n, nb);
    gen::fill_gaussian(eng, A, 101);
    gen::fill_gaussian(eng, B, 202);
    eng.wait();
    m.secs = 1e30;
    for (int r = 0; r < reps; ++r) {
        dev::Executor ex(eng, eo);
        la::set(ex, 0.0, 0.0, C);
        ex.wait();
        Timer t;
        la::gemm(ex, Op::NoTrans, Op::NoTrans, 1.0, A, B, 0.0, C);
        ex.wait();
        m.secs = std::min(m.secs, t.elapsed());
        m.ops = ex.batch_stats().ops;
        m.tasks = ex.batch_stats().tasks;
    }
    return C;
}

/// Structured stacked QR factor + Q generation on W = [A; I] (n x n A),
/// the QDWH QR iterate's hot pair. Returns Q for the bitwise check.
TiledMatrix<double> run_qr(rt::Engine& eng, dev::ExecOptions eo,
                           std::int64_t n, int nb, int reps, Measure& m) {
    TiledMatrix<double> A0(n, n, nb);
    gen::fill_gaussian(eng, A0, 303);
    eng.wait();
    int const mt1 = A0.mt();
    auto rows = TiledMatrix<double>::chop(n, nb);
    auto const cols = rows;
    rows.insert(rows.end(), cols.begin(), cols.end());

    TiledMatrix<double> Q(rows, cols);
    m.secs = 1e30;
    for (int r = 0; r < reps; ++r) {
        TiledMatrix<double> W(rows, cols);
        dev::Executor ex(eng, eo);
        la::copy(ex, A0, W.sub(0, 0, mt1, W.nt()));
        ex.wait();
        auto Tm = la::alloc_qr_t(W);
        std::uint64_t const ops0 = ex.batch_stats().ops;
        std::uint64_t const tasks0 = ex.batch_stats().tasks;
        Timer t;
        la::geqrf_stacked_tri(ex, W, mt1, 1.0, Tm);
        la::ungqr_stacked_tri(ex, W, mt1, Tm, Q);
        ex.wait();
        m.secs = std::min(m.secs, t.elapsed());
        m.ops = ex.batch_stats().ops - ops0;
        m.tasks = ex.batch_stats().tasks - tasks0;
    }
    return Q;
}

double median(std::vector<double> v) {
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
}

dev::ExecOptions opts_for(bool batched, int max_batch) {
    dev::ExecOptions eo;
    eo.target = batched ? dev::Target::BatchedHost : dev::Target::Tasks;
    eo.max_batch = max_batch;
    return eo;
}

}  // namespace

int main(int argc, char** argv) {
    bool smoke = false;
    std::string json_path = "BENCH_batch_exec.json";
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--smoke")) {
            smoke = true;
        } else if (!std::strcmp(argv[i], "--json") && i + 1 < argc) {
            json_path = argv[++i];
        } else {
            std::fprintf(stderr, "usage: %s [--smoke] [--json PATH]\n",
                         argv[0]);
            return 2;
        }
    }

    int const threads = bench::bench_threads();
    bench::header("batch_exec",
                  "batched device executor vs per-tile task oracle");
    std::printf("threads %d\n\n", threads);
    rt::Engine eng(threads);
    bench::JsonEmitter out;

    auto record = [&](char const* kernel, std::int64_t n, int nb,
                      int max_batch, Measure const& tasks,
                      Measure const& batched, bool identical) {
        std::printf("%-8s n %4lld nb %3d  mb %3d | tasks %8.3fms (%6llu t) | "
                    "batched %8.3fms (%6llu t, %4.1fx) | speedup %.2fx  "
                    "bitwise %s\n",
                    kernel, static_cast<long long>(n), nb, max_batch,
                    tasks.secs * 1e3,
                    static_cast<unsigned long long>(tasks.tasks),
                    batched.secs * 1e3,
                    static_cast<unsigned long long>(batched.tasks),
                    batched.coalescing(),
                    batched.secs > 0 ? tasks.secs / batched.secs : 0.0,
                    identical ? "ok" : "FAIL");
        bench::JsonRecord r;
        r.field("bench", "batch_exec")
            .field("kernel", kernel)
            .field("n", n)
            .field("nb", nb)
            .field("max_batch", max_batch)
            .field("tasks_seconds", tasks.secs)
            .field("tasks_engine_tasks", tasks.tasks)
            .field("batched_seconds", batched.secs)
            .field("batched_engine_tasks", batched.tasks)
            .field("tile_ops", batched.ops)
            .field("coalescing", batched.coalescing())
            .field("speedup", batched.secs > 0 ? tasks.secs / batched.secs : 0.0)
            .field("bitwise_identical", identical);
        out.add(r);
    };

    bool ok = true;
    auto check = [&](bool cond, char const* what) {
        if (!cond) {
            std::printf("smoke FAIL: %s\n", what);
            ok = false;
        }
    };

    if (smoke) {
        // Small-tile gemm sweep: bitwise + coalescing gate (its fused
        // k-loop bodies are coarse enough that wall-clock is a tie).
        int const reps = 3;
        Measure gt, gb;
        auto C0 = run_gemm(eng, opts_for(false, 32), 256, 8, reps, gt);
        auto C1 = run_gemm(eng, opts_for(true, 32), 256, 8, reps, gb);
        bool const g_same = bitwise_equal(C0, C1);
        record("gemm", 256, 8, 32, gt, gb, g_same);

        // QDWH-scale structured QR pair (nt = 16 panels), judged on the
        // median speedup of kPairs interleaved tasks/batched runs: a
        // best-of-3 per arm flipped about one run in six on a loaded host,
        // and 7 same-order pairs about one in five inside a full ctest -j.
        // The arms swap order every pair, so neither always runs second.
        constexpr int kPairs = 15;
        Measure qt, qb;
        bool q_same = true;
        std::vector<double> t_secs, b_secs, speedups;
        for (int p = 0; p < kPairs; ++p) {
            TiledMatrix<double> Q0, Q1;
            if (p % 2 == 0) {
                Q0 = run_qr(eng, opts_for(false, 32), 128, 8, 1, qt);
                Q1 = run_qr(eng, opts_for(true, 32), 128, 8, 1, qb);
            } else {
                Q1 = run_qr(eng, opts_for(true, 32), 128, 8, 1, qb);
                Q0 = run_qr(eng, opts_for(false, 32), 128, 8, 1, qt);
            }
            q_same = q_same && bitwise_equal(Q0, Q1);
            t_secs.push_back(qt.secs);
            b_secs.push_back(qb.secs);
            speedups.push_back(qt.secs / qb.secs);
        }
        qt.secs = median(t_secs);
        qb.secs = median(b_secs);
        double const q_speedup = median(speedups);
        std::printf("qr_tt pair speedups:");
        for (double r : speedups)
            std::printf(" %.2f", r);
        std::printf("  median %.2fx\n", q_speedup);
        record("qr_tt", 128, 8, 32, qt, qb, q_same);

        out.write(json_path);

        check(g_same, "batched gemm differs from the per-tile oracle");
        check(q_same, "batched stacked QR differs from the per-tile oracle");
        check(gb.coalescing() >= 5.0,
              "gemm coalescing below the 5x acceptance bar");
        check(qb.coalescing() >= 5.0,
              "stacked-QR coalescing below the 5x acceptance bar");
        check(q_speedup > 1.0,
              "batched stacked QR not faster than the per-tile oracle "
              "(median of interleaved pairs)");
        // The perf model's replay must agree with what actually ran.
        auto const model = perf::qr_batched_counts(16, 16, 8, true, 32);
        check(static_cast<std::uint64_t>(model.tile_ops) == qb.ops,
              "qr_batched_counts tile_ops mismatch vs the measured run");
        check(static_cast<std::uint64_t>(model.engine_tasks) == qb.tasks,
              "qr_batched_counts engine_tasks mismatch vs the measured run");
        std::printf("smoke: %s\n", ok ? "PASS" : "FAIL");
        return ok ? 0 : 1;
    }

    // Full sweep: tile size x batch depth, both kernels.
    int const reps = 3;
    for (int nb : {8, 16, 32, 64}) {
        for (int mb : {8, 32, 128}) {
            Measure t, b;
            auto C0 = run_gemm(eng, opts_for(false, mb), 256, nb, reps, t);
            auto C1 = run_gemm(eng, opts_for(true, mb), 256, nb, reps, b);
            record("gemm", 256, nb, mb, t, b, bitwise_equal(C0, C1));
        }
    }
    for (int nb : {8, 16, 32, 64}) {
        for (int mb : {8, 32, 128}) {
            Measure t, b;
            auto Q0 = run_qr(eng, opts_for(false, mb), 256, nb, reps, t);
            auto Q1 = run_qr(eng, opts_for(true, mb), 256, nb, reps, b);
            record("qr_tt", 256, nb, mb, t, b, bitwise_equal(Q0, Q1));
        }
    }
    out.write(json_path);
    return 0;
}
