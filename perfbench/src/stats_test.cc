// Self-test of the benchmark's statistics (stats.hh). Expected quartiles
// are Python's statistics.quantiles(v, n=4), the estimator the run-to-run
// spread is judged by. Exits nonzero on the first failed check.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.hh"

namespace {

int failures = 0;

void expect(bool ok, char const* what, int line) {
    if (!ok) {
        std::fprintf(stderr, "stats_test:%d: FAILED %s\n", line, what);
        ++failures;
    }
}

#define CHECK(cond) expect((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) <= 1e-12 * (1 + std::fabs(b)); }

std::vector<double> iota(int n) {
    std::vector<double> v;
    for (int i = n; i >= 1; --i)  // unsorted on purpose
        v.push_back(i);
    return v;
}

}  // namespace

int main() {
    using namespace perfbench;

    // median: odd, even (mean of the middle two), empty.
    CHECK(median({3, 1, 2}) == 2);
    CHECK(median({4, 1, 3, 2}) == 2.5);
    CHECK(median({}) == 0);

    // quartiles == statistics.quantiles(v, n=4), including the
    // extrapolating small-sample cases.
    auto q = quartiles({1, 2});
    CHECK(near(q.q1, 0.75) && near(q.q2, 1.5) && near(q.q3, 2.25));
    q = quartiles({1, 2, 3});
    CHECK(near(q.q1, 1) && near(q.q2, 2) && near(q.q3, 3));
    q = quartiles({5, 1, 4, 2, 3});
    CHECK(near(q.q1, 1.5) && near(q.q2, 3) && near(q.q3, 4.5));
    q = quartiles({0.9, 1.3, 1.1, 1.0, 1.2, 1.4, 0.8, 1.5, 1.05, 1.25});
    CHECK(near(q.q1, 0.975) && near(q.q2, 1.15) && near(q.q3, 1.325));
    q = quartiles({7});
    CHECK(q.q1 == 7 && q.q3 == 7);

    // tail: p99 qualifies from 1000 samples (ten beyond rank 990) ...
    auto t = tail(iota(1000), 99);
    CHECK(t.full && t.value == 990 && t.beyond == 10);
    // ... and not from 999: the highest rank with ten beyond is reported.
    t = tail(iota(999), 99);
    CHECK(!t.full && t.value == 989 && t.beyond == 10);
    CHECK(near(t.pct, 100.0 * 989 / 999));
    // p50 of 1000 is the plain nearest rank.
    t = tail(iota(1000), 50);
    CHECK(t.full && t.value == 500);
    // Twenty samples: the highest rank with ten beyond (the 10th) is under
    // the median, so the median is reported; likewise with ten or fewer,
    // where no rank has ten beyond it at all.
    t = tail(iota(20), 99);
    CHECK(!t.full && t.value == 10.5 && t.pct == 50);
    t = tail(iota(6), 99);
    CHECK(!t.full && t.value == 3.5 && t.pct == 50);
    // Twenty-one: rank 11, the median itself, is the highest qualifying.
    t = tail(iota(21), 99);
    CHECK(!t.full && t.value == 11 && t.beyond == 10);
    CHECK(tail({}, 99).value == 0);

    // Failure accounting.
    Tally tl;
    CHECK(!tl.clean());  // nothing attempted is not a clean run
    tl.record(true);
    tl.record(true);
    CHECK(tl.clean() && tl.attempted == 2 && tl.failed == 0);
    tl.record(false);
    CHECK(!tl.clean() && tl.attempted == 3 && tl.failed == 1);
    Tally sum;
    sum += tl;
    sum += tl;
    CHECK(sum.attempted == 6 && sum.failed == 2);

    // Class split: failed requests count as attempted and enter their class
    // as an infinite latency.
    std::vector<Completion> done = {
        {true, 0.001, true},  {false, 0.002, true}, {false, 0.003, true},
        {true, 0.004, false}, {false, 0.005, true},
    };
    auto const s = split_by_class(done);
    CHECK(s.latency_class.size() == 2 && s.bulk_class.size() == 3);
    CHECK(s.latency_class[0] == 0.001 && std::isinf(s.latency_class[1]));
    CHECK(s.tally.attempted == 5 && s.tally.failed == 1);
    CHECK(median(s.bulk_class) == 0.003);
    CHECK(std::isinf(tail(s.latency_class, 99).value));

    if (failures) {
        std::fprintf(stderr, "stats_test: %d check(s) failed\n", failures);
        return 1;
    }
    std::fprintf(stderr, "stats_test: all checks passed\n");
    return 0;
}
