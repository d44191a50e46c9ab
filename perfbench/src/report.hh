// Metric collection and output. Every metric is printed once as a readable
// line (name, value, unit, sample count, spread) and once more inside the
// JSON object that is the last line of standard output:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {name: {...}}}

#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "stats.hh"

namespace perfbench {

class Report {
public:
    /// A value with no spread: a count, a ratio of two totals, a median
    /// computed elsewhere. `samples` is how many measurements it rests on.
    void add(std::string name, double value, std::string unit,
             std::size_t samples = 1, std::string note = {}) {
        metrics_.push_back({std::move(name), value, std::move(unit), samples,
                            std::move(note)});
    }

    /// The median of `v` (times `scale`), with its quartiles in the line.
    void add_median(std::string name, std::vector<double> const& v,
                    std::string unit, double scale = 1) {
        auto const q = quartiles(v);
        char buf[160];
        std::snprintf(buf, sizeof buf, "q1 %.6g, q3 %.6g", q.q1 * scale,
                      q.q3 * scale);
        add(std::move(name), median(v) * scale, std::move(unit), v.size(),
            buf);
    }

    /// A tail percentile under the ten-beyond rule (stats.hh::tail); the
    /// line states which percentile was reportable.
    void add_tail(std::string name, std::vector<double> const& v, double p,
                  std::string unit, double scale = 1) {
        auto const t = tail(v, p);
        char buf[160];
        if (t.full)
            std::snprintf(buf, sizeof buf, "p%g, %zu samples beyond", p,
                          t.beyond);
        else if (t.pct > 50)
            std::snprintf(buf, sizeof buf,
                          "p%g has < 10 samples beyond; reports p%.3g", p,
                          t.pct);
        else
            std::snprintf(buf, sizeof buf,
                          "too few samples for any tail; reports the median");
        add(std::move(name), t.value * scale, std::move(unit), v.size(), buf);
    }

    Tally tally;

    /// Print every metric as a line, then the JSON result as the last line.
    void print() const {
        for (auto const& m : metrics_) {
            std::printf("metric %-32s %14.6g %-8s n=%zu", m.name.c_str(),
                        m.value, m.unit.c_str(), m.samples);
            if (!m.note.empty())
                std::printf("  (%s)", m.note.c_str());
            std::printf("\n");
        }
        std::printf("ops %llu failed %llu\n",
                    static_cast<unsigned long long>(tally.attempted),
                    static_cast<unsigned long long>(tally.failed));
        std::string js = "{\"correct\": ";
        js += tally.clean() ? "true" : "false";
        js += ", \"attempted\": " + std::to_string(tally.attempted);
        js += ", \"failed\": " + std::to_string(tally.failed);
        js += ", \"metrics\": {";
        for (std::size_t i = 0; i < metrics_.size(); ++i) {
            auto const& m = metrics_[i];
            js += (i ? ", \"" : "\"") + m.name + "\": {\"value\": "
                  + number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
        }
        js += "}}";
        std::printf("%s\n", js.c_str());
        std::fflush(stdout);
    }

private:
    struct Metric {
        std::string name;
        double value;
        std::string unit;
        std::size_t samples;
        std::string note;
    };

    /// Shortest round-trip decimal form, so no measured digit is lost.
    /// JSON has no infinity: a non-finite value (a failed request's
    /// latency) is written as the largest finite double.
    static std::string number(double v) {
        if (!std::isfinite(v))
            v = std::numeric_limits<double>::max();
        char buf[64];
        auto const r = std::to_chars(buf, buf + sizeof buf, v);
        return std::string(buf, r.ptr);
    }

    std::vector<Metric> metrics_;
};

}  // namespace perfbench
