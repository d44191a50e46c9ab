// The benchmark's workloads: qdwh-qr (native double, kappa = 1e16, the
// ROADMAP anchor run) and qdwh-float (float rungs with a native tail,
// kappa = 1e12).
//
// End to end: back-to-back solves from one caller, each checked against
// its precision's accuracy contract. Traced: the same solve with the
// engine trace on, aggregated into the per-task-class table, plus the QDWH
// phases of core/qdwh.hh timed at the workload's shape: the cond::/la::
// calls of the estimate stages and the program's own iteration and H-stage
// functions.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>

#include "bench.hh"
#include "common/timer.hh"
#include "cond/condest.hh"
#include "cond/norm2est.hh"
#include "core/qdwh.hh"
#include "gen/matgen.hh"
#include "linalg/geqrf.hh"
#include "linalg/util.hh"
#include "polar_check.hh"
#include "runtime/trace_analysis.hh"

namespace perfbench {

using namespace tbp;

namespace {

struct QdwhWorkload {
    char const* name;
    std::int64_t n;
    int nb;
    double cond;
    prec::Precision precision;
};

// Why each workload is here:
// qdwh-qr    - the ROADMAP anchor (3 QR + 3 Cholesky iterations); the QR
//              kernels take about two thirds of busy time, so a QR-kernel
//              or scheduler change shows here first.
// qdwh-float - the same layers used differently (2 QR + 4 Cholesky, the QR
//              iterations on the float rung): float kernels, conversion
//              sweeps and the ladder planner carry it, and precision-ladder
//              simplifications must leave it unchanged.
constexpr QdwhWorkload kWorkloads[] = {
    {"qdwh-qr", 1024, 128, 1e16, prec::Precision::Native},
    {"qdwh-float", 1024, 128, 1e12, prec::Precision::Float},
};

constexpr int kWorkers = 4;
constexpr std::uint64_t kMatrixSalt = 1;
constexpr int kSetupSamples = 5;  ///< setup_s is their median

QdwhWorkload const& workload(std::string const& name) {
    for (auto const& w : kWorkloads)
        if (name == w.name)
            return w;
    tbp_throw("unknown QDWH workload " + name);
}

Contract contract(QdwhWorkload const& w) {
    return w.precision == prec::Precision::Native ? native_contract()
                                                  : float_contract();
}

struct Problem {
    std::unique_ptr<rt::Engine> eng;
    TiledMatrix<double> A0;
};

Problem make_problem(QdwhWorkload const& w, std::uint64_t seed) {
    Problem p;
    p.eng = std::make_unique<rt::Engine>(kWorkers);
    gen::MatGenOptions o;
    o.cond = w.cond;
    o.seed = derive_seed(seed, kMatrixSalt);
    p.A0 = gen::cond_matrix<double>(*p.eng, w.n, w.n, w.nb, o);
    return p;
}

/// Set-up (engine start + input generation) timed kSetupSamples times; the
/// last problem is kept.
Problem timed_setup(QdwhWorkload const& w, std::uint64_t seed,
                    std::vector<double>& setups) {
    Problem p;
    for (int k = 0; k < kSetupSamples; ++k) {
        p = Problem{};
        Timer t;
        p = make_problem(w, seed);
        setups.push_back(t.elapsed());
    }
    return p;
}

struct Solve {
    TiledMatrix<double> U, H;
    QdwhInfo info;
    Status status = Status::InternalError;
    double secs = 0;
};

Solve run_solve(rt::Engine& eng, QdwhWorkload const& w,
                TiledMatrix<double> const& A0) {
    Solve s;
    s.U = A0.clone();
    s.H = TiledMatrix<double>(w.n, w.n, w.nb);
    QdwhOptions o;
    o.precision.request = w.precision;
    Timer t;
    s.status = qdwh_status(eng, s.U, s.H, s.info, o);
    s.secs = t.elapsed();
    return s;
}

/// Check one solve against the contract; records it in the tally.
PolarError check(rt::Engine& eng, QdwhWorkload const& w,
                 TiledMatrix<double> const& A0, Solve const& s, Tally& tally) {
    PolarError e;
    bool ok = s.status == Status::Ok && s.info.converged;
    if (ok) {
        e = polar_error(eng, A0, s.U, s.H);
        ok = meets(contract(w), e);
    }
    if (!ok)
        std::fprintf(stderr,
                     "%s: solve failed: status %s orth %.3e backward %.3e\n",
                     w.name, status_name(s.status), e.orth, e.backward);
    tally.record(ok);
    return e;
}

// --- QDWH phases ------------------------------------------------------------

/// One iteration of the given branch plus its convergence norm, through the
/// program's own detail::qdwh_qr_iter / detail::qdwh_chol_iter with the
/// default options, as qdwh_impl and the ladder run them.
template <typename T>
double time_iter(rt::Engine& eng, bool qr, TiledMatrix<T> cur,
                 prec::QdwhWeights const& wt) {
    QdwhOptions const o;
    detail::QdwhWorkspace<T> ws(cur.row_tile_sizes(), cur.col_tile_sizes(),
                                cur.grid());
    TiledMatrix<T> oth(cur.row_tile_sizes(), cur.col_tile_sizes());
    eng.wait();
    Timer t;
    if (qr)
        detail::qdwh_qr_iter(eng, wt.a, wt.b, wt.c, cur, oth, ws, cur.mt(),
                             cur.nt(), o.structured_qr, o.lookahead);
    else
        detail::qdwh_chol_iter(eng, wt.a, wt.b, wt.c, cur, oth, ws,
                               o.lookahead);
    la::diff_norm_fro(eng, oth, cur);
    return t.elapsed();
}

constexpr int kPhaseReps = 3;

template <typename F>
double median_of(F&& f) {
    std::vector<double> v;
    for (int r = 0; r < kPhaseReps; ++r)
        v.push_back(f());
    return median(v);
}

/// Phase times of one solve of workload `w`, and the share of the solve
/// time they account for given the solve's branch and rung sequence.
void report_phases(rt::Engine& eng, QdwhWorkload const& w,
                   TiledMatrix<double> const& A0, QdwhInfo const& info,
                   double solve_s, Report& rep) {
    TiledMatrix<double> A = A0.clone();
    TiledMatrix<double> Wc(A.row_tile_sizes(), A.col_tile_sizes());
    TiledMatrix<double> Tc = la::alloc_qr_t(Wc);

    // Stage 1: two-norm estimate, then scale.
    double alpha = 0;
    double const t_norm2 = median_of([&] {
        Timer t;
        alpha = cond::norm2est(eng, A);
        return t.elapsed();
    });
    la::scale(eng, 1.0 / alpha, A);
    eng.wait();

    // Stage 2: condition estimate (norm, QR, triangular condest), the calls
    // of qdwh_impl's stage 2; keep the two in step.
    double li = 0;
    double const t_condest = median_of([&] {
        Timer t;
        double const anorm = la::norm(eng, Norm::One, A);
        la::copy(eng, A, Wc);
        la::geqrf(eng, Wc, Tc);
        eng.wait();
        double const rcond = cond::trcondest(eng, Wc);
        li = anorm * rcond / std::sqrt(static_cast<double>(w.n));
        return t.elapsed();
    });
    li = std::clamp(li, std::numeric_limits<double>::min() * 100, 1.0);

    // Stage 3: one iteration of each branch at each rung the solve used.
    // The QR timing uses the first iteration's weights, the Cholesky one
    // the weights of the first iteration with c <= 100.
    auto const qr_w = prec::qdwh_weights(li);
    prec::QdwhWeights chol_w = qr_w;
    for (double l = li; chol_w.qr; l = chol_w.li_next)
        chol_w = prec::qdwh_weights(l);
    TiledMatrix<float> Af(A.row_tile_sizes(), A.col_tile_sizes());
    la::convert_copy(eng, A, Af);
    eng.wait();
    std::map<std::pair<bool, prec::Prec>, double> iter_s;
    auto iter_time = [&](bool qr, prec::Prec p) {
        auto const key = std::make_pair(qr, p);
        if (!iter_s.count(key)) {
            bool const f = p == prec::Prec::Float;
            auto const& wt = qr ? qr_w : chol_w;
            iter_s[key] = median_of([&] {
                return f ? time_iter(eng, qr, Af, wt)
                         : time_iter(eng, qr, A, wt);
            });
        }
        return iter_s[key];
    };
    double t_iters = 0;
    for (int k = 0; k < info.iterations; ++k)
        t_iters += iter_time(k < info.it_qr, info.rungs[static_cast<size_t>(k)]);
    prec::Prec const first_qr = info.it_qr > 0 ? info.rungs.front()
                                               : prec::Prec::Double;
    prec::Prec const first_chol =
        info.it_chol > 0 ? info.rungs[static_cast<size_t>(info.it_qr)]
                         : prec::Prec::Double;

    // Stage 4: H = U^H A, symmetrized (always native).
    TiledMatrix<double> H(A.col_tile_sizes(), A.col_tile_sizes());
    TiledMatrix<double> Acpy = A0;
    double const t_h = median_of([&] {
        Timer t;
        detail::qdwh_h_stage(eng, A, Acpy, H, QdwhOptions{}.symmetrize_h);
        eng.wait();
        return t.elapsed();
    });

    rep.add("cond.norm2est_s", t_norm2, "s", kPhaseReps);
    rep.add("cond.condest_s", t_condest, "s", kPhaseReps);
    rep.add("linalg.qr_iter_s", iter_time(true, first_qr), "s", kPhaseReps,
            prec::prec_name(first_qr));
    rep.add("linalg.chol_iter_s", iter_time(false, first_chol), "s",
            kPhaseReps, prec::prec_name(first_chol));
    rep.add("linalg.h_s", t_h, "s", kPhaseReps);
    double const accounted = t_norm2 + t_condest + t_iters + t_h;
    rep.add("core.accounted_frac", accounted / solve_s, "frac", 1,
            "phase times weighted by iteration counts over solve_s");
}

// Task classes of the "where QDWH time goes" table that hold >= 2% of busy
// time on a QDWH workload at the commit that defined this benchmark. The
// readable table lists every class; these are the ones kept as metrics.
constexpr char const* kTaskClasses[] = {
    "tsmqr", "tsqrt", "unmqr", "herk", "gemm", "trsm", "trsm_gemm", "ttmqr",
};

void report_trace(std::vector<rt::TaskRecord> const& trace, Report& rep) {
    struct Row {
        double busy = 0, flops = 0;
        std::uint64_t tasks = 0;
    };
    std::map<std::string, Row> rows;
    double busy = 0;
    for (auto const& r : trace) {
        auto& row = rows[r.name];
        row.busy += r.t_end - r.t_start;
        row.flops += r.flops;
        ++row.tasks;
        busy += r.t_end - r.t_start;
    }
    std::vector<std::pair<std::string, Row>> sorted(rows.begin(), rows.end());
    std::sort(sorted.begin(), sorted.end(), [](auto const& a, auto const& b) {
        return a.second.busy > b.second.busy;
    });
    std::printf("where the time goes (engine trace, %zu tasks, %.3f s busy):\n",
                trace.size(), busy);
    for (auto const& [name, row] : sorted)
        std::printf("  %-14s share %6.2f%%  %8.2f GF/s  tasks %llu\n",
                    name.c_str(), 100 * row.busy / busy,
                    row.busy > 0 ? row.flops / row.busy / 1e9 : 0.0,
                    static_cast<unsigned long long>(row.tasks));
    for (char const* c : kTaskClasses) {
        Row const row = rows.count(c) ? rows[c] : Row{};
        std::string const base = std::string("blas.") + c;
        rep.add(base + ".share", busy > 0 ? row.busy / busy : 0, "frac",
                row.tasks);
        rep.add(base + ".insitu_gflops",
                row.busy > 0 ? row.flops / row.busy / 1e9 : 0, "GF/s",
                row.tasks);
    }

    auto const dag = rt::analyze(trace);
    auto const eff = rt::scheduler_efficiency(trace);
    rep.add("runtime.busy_frac", eff.utilization, "frac");
    rep.add("runtime.idle_s", eff.idle, "s");
    rep.add("runtime.tasks", static_cast<double>(dag.tasks), "count");
    rep.add("runtime.critical_path_s", dag.critical_path, "s");
    rep.add("runtime.avg_parallelism", dag.avg_parallelism, "ratio");
}

}  // namespace

bool is_qdwh_workload(std::string const& name) {
    for (auto const& w : kWorkloads)
        if (name == w.name)
            return true;
    return false;
}

void run_qdwh(Args const& args, Report& rep) {
    auto const& w = workload(args.workload);
    std::vector<double> setups;
    Problem p = timed_setup(w, args.seed, setups);
    auto& eng = *p.eng;

    // One untimed warm-up solve, checked like the rest.
    check(eng, w, p.A0, run_solve(eng, w, p.A0), rep.tally);

    std::vector<double> solves;
    Timer window;
    do {
        Solve const s = run_solve(eng, w, p.A0);
        solves.push_back(s.secs);
        check(eng, w, p.A0, s, rep.tally);
    } while (window.elapsed() < args.seconds);
    // The fastest solve of the window: other tenants of the machine can
    // only slow a solve down, so the minimum is the statistic that moves
    // least with their load and most with the code.
    auto const q = quartiles(solves);
    char note[160];
    std::snprintf(note, sizeof note,
                  "fastest solve; q1 %.6g, median %.6g, q3 %.6g", q.q1,
                  median(solves), q.q3);
    rep.add("solve_s", *std::min_element(solves.begin(), solves.end()), "s",
            solves.size(), note);
    rep.add_median("setup_s", setups, "s");
}

void qdwh_memory_pass(Args const& args, Tally& tally) {
    auto const& w = workload(args.workload);
    Problem p = make_problem(w, args.seed);
    for (int r = 0; r < 3; ++r)
        check(*p.eng, w, p.A0, run_solve(*p.eng, w, p.A0), tally);
}

void trace_qdwh(std::string const& name, Args const& args, Report& rep) {
    auto const& w = workload(name);
    std::printf("qdwh layers measured on %s\n", w.name);
    Problem p = make_problem(w, args.seed);
    auto& eng = *p.eng;
    check(eng, w, p.A0, run_solve(eng, w, p.A0), rep.tally);

    // Untraced and traced solves interleaved, so slow drift of the machine
    // cannot masquerade as tracing overhead.
    std::vector<double> plain, traced;
    std::vector<rt::TaskRecord> trace;
    rt::Engine::SchedStats sched;
    Solve last;
    PolarError err;
    for (int r = 0; r < 3; ++r) {
        Solve const s = run_solve(eng, w, p.A0);
        plain.push_back(s.secs);
        check(eng, w, p.A0, s, rep.tally);

        eng.reset_stats();
        eng.clear_trace();
        eng.set_trace(true);
        last = run_solve(eng, w, p.A0);
        eng.set_trace(false);
        traced.push_back(last.secs);
        trace = eng.trace();
        sched = eng.sched_stats();
        err = check(eng, w, p.A0, last, rep.tally);
    }
    double const solve_s = median(plain);

    report_trace(trace, rep);
    rep.add("runtime.steals", static_cast<double>(sched.steals), "count");
    rep.add("runtime.sleeps", static_cast<double>(sched.sleeps), "count");

    auto const& info = last.info;
    rep.add("core.it_qr", info.it_qr, "count");
    rep.add("core.it_chol", info.it_chol, "count");
    rep.add("core.flops", info.flops, "flop");
    rep.add("core.gflops", info.flops / solve_s / 1e9, "GF/s", plain.size());
    rep.add("core.orth", err.orth, "ratio");
    rep.add("core.backward_err", err.backward, "ratio");
    double kflops = 0;
    for (double f : info.kernel_flops_by_prec)
        kflops += f;
    auto const fl = info.kernel_flops_by_prec[static_cast<size_t>(
        prec::Prec::Float)];
    rep.add("core.float_flop_share", kflops > 0 ? fl / kflops : 0, "frac");
    rep.add("core.fallbacks", info.fallbacks, "count");
    report_phases(eng, w, p.A0, info, solve_s, rep);

    rep.add("trace_overhead_frac", median(traced) / solve_s - 1, "frac",
            traced.size(), "traced over untraced solve_s, minus 1");
    // The plain single-threaded baseline: the same solve on one worker.
    rt::Engine one(1);
    Solve const s1 = run_solve(one, w, p.A0);
    check(eng, w, p.A0, s1, rep.tally);
    rep.add("runtime.speedup_1t", s1.secs / solve_s, "ratio", 1,
            "1-worker solve over 4-worker solve_s");
}

}  // namespace perfbench
