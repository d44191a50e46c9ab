// The comm layer in the traced run: one comm::dist_qdwh solve (the dqdwh
// traffic), double, 768 x 768, nb = 64, kappa = 1e12, l0 = 1/kappa, on 4
// virtual ranks of a 2 x 2 grid with no fault plan installed: p2p
// envelopes, collectives and the SUMMA trailing updates.

#include <algorithm>
#include <cstdio>

#include "bench.hh"
#include "comm/dist.hh"
#include "comm/dist_qdwh.hh"
#include "common/timer.hh"
#include "gen/matgen.hh"
#include "polar_check.hh"

namespace perfbench {

using namespace tbp;

namespace {

constexpr std::int64_t kN = 768;
constexpr int kNb = 64;
constexpr double kCond = 1e12;
constexpr Grid kGrid{2, 2};
constexpr int kGenWorkers = 4;
constexpr std::uint64_t kMatrixSalt = 3;

TiledMatrix<double> make_input(rt::Engine& eng, std::uint64_t seed) {
    gen::MatGenOptions o;
    o.cond = kCond;
    o.seed = derive_seed(seed, kMatrixSalt);
    return gen::cond_matrix<double>(eng, kN, kN, kNb, o);
}

struct Solve {
    TiledMatrix<double> U;
    double secs = 0;  ///< first rank entering dist_qdwh to last leaving it
    std::vector<comm::CommStats> rank_comm;  ///< traffic inside dist_qdwh
};

comm::CommStats minus(comm::CommStats a, comm::CommStats const& b) {
    a.sends -= b.sends;
    a.recvs -= b.recvs;
    a.bytes_sent -= b.bytes_sent;
    a.bytes_recv -= b.bytes_recv;
    a.collectives -= b.collectives;
    a.wait_seconds -= b.wait_seconds;
    return a;
}

Solve run_solve(comm::World& world, TiledMatrix<double> const& A0) {
    int const P = kGrid.size();
    Solve s;
    s.U = TiledMatrix<double>(kN, kN, kNb);
    s.rank_comm.resize(static_cast<std::size_t>(P));
    std::vector<double> t0(static_cast<std::size_t>(P)),
        t1(static_cast<std::size_t>(P));
    TiledMatrix<double>& U = s.U;
    world.run([&](comm::Communicator& c) {
        auto const r = static_cast<std::size_t>(c.rank());
        comm::DistMatrix<double> A(c, kN, kN, kNb, kGrid);
        A.fill([&](std::int64_t i, std::int64_t j) { return A0.at(i, j); });
        comm::CommStats const s0 = c.stats();
        t0[r] = wall_time();
        comm::dist_qdwh(c, kGrid, A, 1.0 / kCond);
        t1[r] = wall_time();
        s.rank_comm[r] = minus(c.stats(), s0);
        auto const dense = comm::dist_gather(c, A);
        if (r == 0)
            for (std::int64_t j = 0; j < kN; ++j)
                for (std::int64_t i = 0; i < kN; ++i)
                    U.at(i, j) = dense[static_cast<std::size_t>(i + j * kN)];
    });
    s.secs = *std::max_element(t1.begin(), t1.end())
             - *std::min_element(t0.begin(), t0.end());
    return s;
}

void check(rt::Engine& eng, TiledMatrix<double> const& A0, Solve const& s,
           Tally& tally) {
    auto const H = hermitian_factor(eng, A0, s.U);
    auto const e = polar_error(eng, A0, s.U, H);
    bool const ok = meets(native_contract(), e);
    if (!ok)
        std::fprintf(stderr, "dqdwh: solve failed: orth %.3e backward %.3e\n",
                     e.orth, e.backward);
    tally.record(ok);
}

}  // namespace

void trace_dqdwh(Args const& args, Report& rep) {
    comm::World world(kGrid.size());
    rt::Engine eng(kGenWorkers);  // input generation and checks
    auto const A0 = make_input(eng, args.seed);
    Solve const s = run_solve(world, A0);
    check(eng, A0, s, rep.tally);

    comm::CommStats total;
    std::uint64_t max_bytes = 0, max_sends = 0;
    for (auto const& r : s.rank_comm) {
        total += r;
        max_bytes = std::max(max_bytes, r.bytes_sent);
        max_sends = std::max(max_sends, r.sends);
    }
    rep.add("comm.solve_s", s.secs, "s");
    rep.add("comm.messages", static_cast<double>(total.sends), "count");
    rep.add("comm.bytes", static_cast<double>(total.bytes_sent), "B");
    rep.add("comm.max_rank_bytes", static_cast<double>(max_bytes), "B");
    rep.add("comm.max_rank_sends", static_cast<double>(max_sends), "count");
    rep.add("comm.collectives", static_cast<double>(total.collectives),
            "count");
    rep.add("comm.wait_frac",
            total.wait_seconds / (s.secs * static_cast<double>(kGrid.size())),
            "frac", 1, "rank-time blocked in recv/wait/barrier");
    rep.add("comm.leaked", static_cast<double>(world.leaked_messages()),
            "count");
}

}  // namespace perfbench
