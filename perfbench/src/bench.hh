// Shared declarations of the benchmark: command-line arguments, the
// workload entry points, and helpers every workload uses.

#pragma once

#include <cstdint>
#include <string>

#include "report.hh"

namespace perfbench {

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;  ///< length of the measured window
    bool trace = false;   ///< per-layer run instead of the end-to-end one
};

/// Independent 64-bit stream `salt` of a benchmark seed (splitmix64), so
/// every generated input is a pure function of --seed.
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
    std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

// --- workloads (end-to-end, tracing off) ----------------------------------
bool is_qdwh_workload(std::string const& name);
/// solve_s and setup_s, with glibc's allocator left at its defaults.
void run_qdwh(Args const& args, Report& rep);
/// Set-up and three checked solves of the workload: the work whose peak
/// RSS is peak_rss_mb, run in a process of its own (main.cc).
void qdwh_memory_pass(Args const& args, Tally& tally);

// --- per-layer groups of the traced run -----------------------------------
/// Engine-trace class table, runtime, QDWH phase and core metrics, the
/// 1-worker baseline and the tracing overhead, on QDWH workload `name`.
void trace_qdwh(std::string const& name, Args const& args, Report& rep);
/// service.* from a closed-loop service-mix run, and device.*.
void trace_service(Args const& args, Report& rep);
/// comm.* from one dqdwh solve.
void trace_dqdwh(Args const& args, Report& rep);
/// blas.<k>.<d|s>.gflops single-threaded tile-kernel microbench.
void trace_kernels(Report& rep);
/// runtime.empty_task_us no-op task microbench.
void trace_empty_task(Report& rep);

}  // namespace perfbench
