// Sample statistics of the benchmark: medians, quartiles, the tail
// percentile rule, the QoS class split and failure accounting. Header-only
// and free of the library so stats_test.cc can check it in isolation.

#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Median as Python's statistics.median: the mean of the two middle values
/// for an even count. 0 for an empty sample.
inline double median(std::vector<double> v) {
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t const n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Quartiles {
    double q1 = 0, q2 = 0, q3 = 0;
};

/// Quartiles as Python's statistics.quantiles(v, n=4) with its default
/// "exclusive" method, the estimator the run-to-run spread is judged by. A
/// single sample is its own quartiles; an empty one reads 0.
inline Quartiles quartiles(std::vector<double> v) {
    Quartiles q;
    if (v.empty())
        return q;
    std::sort(v.begin(), v.end());
    std::size_t const n = v.size();
    if (n == 1) {
        q.q1 = q.q2 = q.q3 = v[0];
        return q;
    }
    // CPython's formula: j = i (n+1) div 4 clamped to [1, n-1], and a signed
    // offset delta, so the outer cuts of a small sample extrapolate.
    auto cut = [&](long i) {
        long const num = i * static_cast<long>(n + 1);
        long const j = std::clamp(num / 4, 1L, static_cast<long>(n) - 1);
        double const delta = static_cast<double>(num - 4 * j);
        auto const k = static_cast<std::size_t>(j);
        return (v[k - 1] * (4.0 - delta) + v[k] * delta) / 4.0;
    };
    q.q1 = cut(1);
    q.q2 = cut(2);
    q.q3 = cut(3);
    return q;
}

/// A tail value and the percentile it actually reports.
struct Tail {
    double value = 0;
    double pct = 0;      ///< percentile reported, in (0, 100]
    std::size_t beyond = 0;  ///< samples above the reported value's rank
    bool full = false;   ///< the requested percentile had >= 10 samples beyond
};

/// Samples a reported tail must have beyond it.
inline constexpr std::size_t kTailBeyond = 10;

/// Tail percentile under the rule "report the highest percentile that has
/// at least ten samples beyond it": the nearest-rank p-th percentile when
/// it qualifies, otherwise the highest rank that does (n - 10, 1-based).
/// A tail is never reported below the median: with fewer than 21 samples
/// even that rank sits under it, no tail is supported by the data, and the
/// median is reported (`pct` = 50).
inline Tail tail(std::vector<double> v, double p) {
    Tail t;
    if (v.empty())
        return t;
    std::sort(v.begin(), v.end());
    std::size_t const n = v.size();
    auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
    rank = std::clamp<std::size_t>(rank, 1, n);  // 1-based nearest rank
    if (n - rank >= kTailBeyond) {
        t.full = true;
    } else if (n > kTailBeyond && n - kTailBeyond >= n / 2 + 1) {
        rank = n - kTailBeyond;
    } else {
        t.value = median(v);
        t.pct = 50;
        t.beyond = n / 2;
        return t;
    }
    t.value = v[rank - 1];
    t.beyond = n - rank;
    t.pct = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
    return t;
}

/// Operations attempted and failed. A failure is a wrong status, an
/// accuracy outside the contract, or a byte mismatch against an oracle.
struct Tally {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void record(bool ok) {
        ++attempted;
        if (!ok)
            ++failed;
    }
    Tally& operator+=(Tally const& o) {
        attempted += o.attempted;
        failed += o.failed;
        return *this;
    }
    bool clean() const { return attempted > 0 && failed == 0; }
};

/// One completed request of a closed-loop run.
struct Completion {
    bool latency_class = false;
    double latency = 0;  ///< seconds from submit to end
    bool ok = false;     ///< status and bytes as the oracle says
};

/// Latencies split by QoS class. A failed request counts in `tally` and
/// enters its class's samples as an infinite latency: it misses any latency
/// limit, so it can only push a percentile up, never hide.
struct ClassSplit {
    std::vector<double> latency_class, bulk_class;
    Tally tally;
};

inline ClassSplit split_by_class(std::vector<Completion> const& done) {
    ClassSplit s;
    for (auto const& c : done) {
        s.tally.record(c.ok);
        double const lat = c.ok ? c.latency : HUGE_VAL;
        (c.latency_class ? s.latency_class : s.bulk_class).push_back(lat);
    }
    return s;
}

}  // namespace perfbench
