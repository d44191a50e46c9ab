// The service layer in the traced run: svc::PolarService under a closed
// loop (the service-mix traffic). One client thread keeps twice as many
// jobs in flight as the engine has workers and submits the next job when
// one completes. The mix is qdwh, zolopd, posv and geqrf over s, d, c and z
// on 1-36 tiles, plus three specs that must fail with a typed status; every
// job uses the defaults users get (JobPrec::Auto, JobTarget::Auto). Per-job
// service, engine and workspace overhead dominate here; the tile kernels
// (nb <= 16) do little of the work.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <random>
#include <thread>

#include "bench.hh"
#include "common/timer.hh"
#include "core/qdwh.hh"
#include "gen/matgen.hh"
#include "polar_check.hh"
#include "runtime/trace_analysis.hh"
#include "service/service.hh"

namespace perfbench {

using namespace tbp;

namespace {

struct Case {
    svc::JobSpec spec;
    Status expect = Status::Ok;
};

/// The job table; its matrices are generated from `seed`.
std::vector<Case> make_cases(std::uint64_t seed) {
    using svc::JobKind;
    std::vector<Case> cs;
    auto add = [&](JobKind k, char t, std::int64_t m, std::int64_t n, int nb,
                   double cond, Status expect = Status::Ok) {
        Case c;
        c.spec.kind = k;
        c.spec.type = t;
        c.spec.m = m;
        c.spec.n = n;
        c.spec.nb = nb;
        c.spec.cond = cond;
        c.spec.seed = derive_seed(seed, 100 + cs.size());
        if (k == JobKind::ZoloPd)
            c.spec.r = 2;
        c.expect = expect;
        cs.push_back(c);
    };
    add(JobKind::Qdwh, 'd', 16, 16, 8, 1e6);
    add(JobKind::Qdwh, 'd', 48, 48, 8, 1e6);  // 36 tiles: Bulk goes Batched
    add(JobKind::Geqrf, 'd', 32, 24, 8, 0);   // 12 tiles: Bulk goes Batched
    add(JobKind::Qdwh, 's', 24, 16, 8, 1e3);
    add(JobKind::Qdwh, 'z', 12, 12, 4, 1e4);
    add(JobKind::Qdwh, 'c', 16, 16, 16, 1e2);  // single tile
    add(JobKind::ZoloPd, 'd', 16, 16, 8, 1e4);
    add(JobKind::ZoloPd, 'c', 12, 12, 12, 1e2);
    add(JobKind::Geqrf, 'd', 24, 16, 8, 0);
    add(JobKind::Geqrf, 'z', 16, 12, 4, 0);
    add(JobKind::Geqrf, 's', 16, 16, 16, 0);
    add(JobKind::Posv, 'd', 2, 16, 8, 0);  // m = number of right-hand sides
    add(JobKind::Posv, 'c', 1, 12, 12, 0);
    // Deliberate failures, each with the exact status it must return: a
    // qdwh capped at one iteration, an indefinite posv matrix, and a wide
    // matrix rejected at admission.
    add(JobKind::Qdwh, 'd', 16, 16, 8, 1e8, Status::NotConverged);
    cs.back().spec.max_iter = 1;
    add(JobKind::Posv, 'd', 1, 16, 8, -1, Status::NumericalError);
    add(JobKind::Qdwh, 'd', 8, 16, 8, 1e6, Status::InvalidArgument);
    return cs;
}

struct Oracle {
    Status status = Status::InternalError;
    std::vector<std::byte> u, h;
};

/// Single-job oracle: the provider run exactly as a service worker runs it
/// (private sequential engine, private workspace), keeping the bytes.
Oracle run_oracle(svc::ProviderRegistry const& reg, svc::JobSpec const& spec) {
    Oracle o;
    if (svc::validate(spec) != Status::Ok) {
        o.status = Status::InvalidArgument;
        return o;
    }
    svc::Workspace ws;
    svc::JobResult res;
    try {
        rt::Engine eng(1, rt::Mode::Sequential);
        (*reg.find(spec.kind))(eng, spec, ws, res);
        o.status = res.status;
    } catch (Error const&) {
        o.status = Status::NumericalError;
    }
    if (o.status == Status::Ok) {
        auto bytes = [&](svc::Workspace::Slot s) {
            return std::vector<std::byte>(ws.data(s), ws.data(s) + ws.used(s));
        };
        o.u = bytes(svc::Workspace::OutU);
        o.h = bytes(svc::Workspace::OutH);
    }
    return o;
}

bool same_bytes(svc::JobHandle const& h, svc::Workspace::Slot s,
                std::vector<std::byte> const& want) {
    return h.output_bytes(s) == want.size()
           && std::memcmp(h.output(s), want.data(), want.size()) == 0;
}

/// A completed job is right when it returns its case's status and, if Ok,
/// the oracle's bytes.
bool job_ok(svc::JobHandle const& h, Case const& c, Oracle const& want) {
    auto const& res = h.result();
    bool ok = res.status == c.expect && want.status == c.expect;
    if (ok && res.ok())
        ok = same_bytes(h, svc::Workspace::OutU, want.u)
             && same_bytes(h, svc::Workspace::OutH, want.h);
    if (!ok)
        std::fprintf(stderr, "job %llu failed: status %s, expected %s\n",
                     static_cast<unsigned long long>(res.id),
                     status_name(res.status), status_name(c.expect));
    return ok;
}

/// Engine workers: one core is left to the client and the dispatcher.
int service_workers() {
    int const hw = static_cast<int>(std::thread::hardware_concurrency());
    return std::max(1, hw - 1);
}

struct JobRecord {
    svc::JobKind kind;
    bool latency_class;
    bool ok;
    bool typed_failure;  ///< a deliberate-failure spec returned its status
    double t_submit, t_start, t_end;
};

/// Every (case, class) pair's oracle: Auto precision resolves per class,
/// so the two classes of one case may differ in their bytes.
struct Oracles {
    std::vector<Oracle> bulk, latency;
};

Oracles make_oracles(std::vector<Case> const& cases) {
    auto const reg = svc::ProviderRegistry::builtin();
    Oracles o;
    for (auto const& c : cases) {
        svc::JobSpec s = c.spec;
        s.cls = svc::JobClass::Bulk;
        o.bulk.push_back(run_oracle(reg, s));
        s.cls = svc::JobClass::Latency;
        o.latency.push_back(run_oracle(reg, s));
    }
    return o;
}

constexpr int kLatencyEvery = 8;  ///< one job in eight is Latency class
/// The loop runs this long, and on until 1000 Latency jobs completed so
/// that their p99 has ten samples beyond it.
constexpr double kLoopSeconds = 2;
constexpr double kTracedSeconds = 0.5;  ///< the busy_frac loop
constexpr std::size_t kMinLatencyJobs = 1000;

/// Closed-loop run for at least `seconds` and until `min_latency_jobs`
/// Latency jobs completed; every job is checked.
std::vector<JobRecord> closed_loop(svc::PolarService& service, int workers,
                                   std::vector<Case> const& cases,
                                   Oracles const& oracles, std::uint64_t seed,
                                   double seconds,
                                   std::size_t min_latency_jobs) {
    struct InFlight {
        svc::JobHandle h;
        std::size_t c;
        bool lat;
    };
    std::mt19937_64 pick(derive_seed(seed, 2));
    std::vector<InFlight> flying;
    std::vector<JobRecord> done;
    std::size_t const window = 2 * static_cast<std::size_t>(workers);
    std::size_t lat_done = 0;
    std::uint64_t submitted = 0;
    double const t0 = wall_time();
    double const hard_stop = t0 + 3 * seconds + 30;

    for (;;) {
        double const now = wall_time();
        bool const more = now < hard_stop
                          && (now - t0 < seconds || lat_done < min_latency_jobs);
        while (more && flying.size() < window) {
            std::size_t const c = pick() % cases.size();
            bool const lat = submitted++ % kLatencyEvery == 0;
            svc::JobSpec s = cases[c].spec;
            s.cls = lat ? svc::JobClass::Latency : svc::JobClass::Bulk;
            flying.push_back({service.submit(s), c, lat});
        }
        if (flying.empty())
            break;
        bool progressed = false;
        for (std::size_t k = 0; k < flying.size();) {
            if (!flying[k].h.done()) {
                ++k;
                continue;
            }
            auto const& f = flying[k];
            auto const& res = f.h.result();
            bool const ok = job_ok(
                f.h, cases[f.c], (f.lat ? oracles.latency : oracles.bulk)[f.c]);
            done.push_back({cases[f.c].spec.kind, f.lat, ok,
                            ok && !res.ok(), res.t_submit, res.t_start,
                            res.t_end});
            lat_done += f.lat;
            flying[k] = std::move(flying.back());
            flying.pop_back();
            progressed = true;
        }
        if (!progressed)
            std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
    service.wait_all();
    return done;
}

/// One job of every case in both classes, each checked: fills the
/// workspace pool and the code paths before the loop starts.
void warm_up(svc::PolarService& service, std::vector<Case> const& cases,
             Oracles const& oracles, Tally& tally) {
    std::vector<svc::JobHandle> warm;
    for (auto const& c : cases)
        for (auto cls : {svc::JobClass::Bulk, svc::JobClass::Latency}) {
            svc::JobSpec spec = c.spec;
            spec.cls = cls;
            warm.push_back(service.submit(spec));
        }
    service.wait_all();
    for (std::size_t i = 0; i < warm.size(); ++i)
        tally.record(job_ok(warm[i], cases[i / 2],
                            (i % 2 ? oracles.latency : oracles.bulk)[i / 2]));
}

}  // namespace

void trace_service(Args const& args, Report& rep) {
    auto const cases = make_cases(args.seed);
    auto const oracles = make_oracles(cases);
    rt::Engine eng(service_workers());
    svc::PolarService service(eng);  // declared after eng: destroyed first
    warm_up(service, cases, oracles, rep.tally);
    int const workers = eng.num_threads();
    auto const done = closed_loop(service, workers, cases, oracles, args.seed,
                                  kLoopSeconds, kMinLatencyJobs);
    // busy_frac from a short traced loop of its own, so the timed loop
    // above carries no trace-recording cost.
    eng.clear_trace();
    eng.set_trace(true);
    auto const traced = closed_loop(service, workers, cases, oracles,
                                    derive_seed(args.seed, 3), kTracedSeconds,
                                    0);
    eng.set_trace(false);
    for (auto const& j : traced)
        rep.tally.record(j.ok);

    std::vector<Completion> comps;
    std::vector<double> wait;
    std::map<svc::JobKind, std::vector<double>> run;
    std::uint64_t typed_failures = 0;
    double first = done.front().t_submit, last = done.front().t_end;
    for (auto const& j : done) {
        comps.push_back({j.latency_class, j.t_end - j.t_submit, j.ok});
        typed_failures += j.typed_failure;
        wait.push_back(j.t_start - j.t_submit);
        run[j.kind].push_back(j.t_end - j.t_start);
        first = std::min(first, j.t_submit);
        last = std::max(last, j.t_end);
    }
    auto const split = split_by_class(comps);
    rep.tally += split.tally;
    auto const st = service.stats();
    std::printf("service-mix: %d workers, %zu jobs in flight, %zu jobs\n",
                workers, 2 * static_cast<std::size_t>(workers), done.size());
    rep.add("service.jobs_per_s",
            static_cast<double>(done.size()) / (last - first), "jobs/s",
            done.size());
    rep.add_median("service.latency_p50_ms", split.latency_class, "ms", 1e3);
    rep.add_tail("service.latency_p99_ms", split.latency_class, 99, "ms", 1e3);
    rep.add_median("service.bulk_p50_ms", split.bulk_class, "ms", 1e3);
    rep.add_tail("service.bulk_p99_ms", split.bulk_class, 99, "ms", 1e3);
    rep.add_median("service.queue_wait_p50_ms", wait, "ms", 1e3);
    rep.add_tail("service.queue_wait_p99_ms", wait, 99, "ms", 1e3);
    for (auto k : {svc::JobKind::Qdwh, svc::JobKind::ZoloPd,
                   svc::JobKind::Posv, svc::JobKind::Geqrf})
        rep.add_median(std::string("service.run_p50_ms.")
                           + svc::job_kind_name(k),
                       run[k], "ms", 1e3);
    rep.add("service.busy_frac",
            rt::scheduler_efficiency(eng.trace()).utilization, "frac",
            traced.size(), "from a traced loop of its own");
    rep.add("service.workspaces_created",
            static_cast<double>(st.workspaces_created), "count");
    rep.add("service.expected_failures",
            static_cast<double>(typed_failures), "count");

    // device: one Batched-routed spec of the mix (qdwh, d, 48x48, nb 8)
    // through qdwh_status on the batched host executor.
    rt::Engine seq(1, rt::Mode::Sequential);
    svc::JobSpec const& spec = cases[1].spec;
    gen::MatGenOptions o;
    o.cond = spec.cond;
    o.seed = spec.seed;
    auto A0 = gen::cond_matrix<double>(seq, spec.m, spec.n, spec.nb, o);
    auto U = A0.clone();
    TiledMatrix<double> H(spec.n, spec.n, spec.nb);
    QdwhOptions qo;
    qo.target = dev::Target::BatchedHost;
    qo.model_streams = false;
    QdwhInfo info;
    Status const status = qdwh_status(seq, U, H, info, qo);
    bool const ok = status == Status::Ok
                    && meets(native_contract(), polar_error(seq, A0, U, H));
    rep.tally.record(ok);
    rep.add("device.coalescing", info.coalescing, "ratio");
    rep.add("device.tile_ops", static_cast<double>(info.tile_ops), "count");
    rep.add("device.engine_tasks", static_cast<double>(info.engine_tasks),
            "count");
}

}  // namespace perfbench
