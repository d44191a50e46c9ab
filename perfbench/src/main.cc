// perfbench: the repository benchmark. One workload per invocation:
//
//   perfbench --workload <qdwh-qr|qdwh-float> --seed <n> --seconds <s>
//             --trace <0|1>
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 is
// the separate traced run that produces the per-layer metrics. Every
// output is checked; the last line of standard output is the JSON result.

#include <malloc.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

[[noreturn]] void usage(char const* why) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<qdwh-qr|qdwh-float> --seed <n> --seconds <s> "
                 "--trace <0|1>\n",
                 why);
    std::exit(2);
}

Args parse(int argc, char** argv) {
    Args a;
    for (int i = 1; i < argc; ++i) {
        if (i + 1 >= argc)
            usage("missing value");
        std::string const key = argv[i];
        char const* val = argv[++i];
        char* end = nullptr;
        if (key == "--workload") {
            a.workload = val;
        } else if (key == "--seed") {
            a.seed = std::strtoull(val, &end, 10);
        } else if (key == "--seconds") {
            a.seconds = std::strtod(val, &end);
            if (!(a.seconds > 0))
                usage("--seconds must be positive");
        } else if (key == "--trace") {
            if (std::strcmp(val, "0") && std::strcmp(val, "1"))
                usage("--trace takes 0 or 1");
            a.trace = val[0] == '1';
        } else {
            usage(("unknown option " + key).c_str());
        }
        if (end && *end)
            usage(("not a number: " + std::string(val)).c_str());
    }
    if (!is_qdwh_workload(a.workload))
        usage("unknown or missing --workload");
    return a;
}

void fingerprint() {
#if defined(__clang__)
    char const* compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
    char const* compiler = "gcc " __VERSION__;
#else
    char const* compiler = "unknown";
#endif
    std::printf("machine: nproc %u, compiler %s, build %s\n",
                std::thread::hardware_concurrency(), compiler,
                PERFBENCH_BUILD_TYPE);
}

/// peak_rss_mb: qdwh_memory_pass in a child process with glibc's mmap
/// threshold pinned at its initial 128 KiB. Left dynamic, the threshold
/// rises after the first large free, so whether later workspaces are
/// mapped fresh or carved from a thread's heap depends on allocation order
/// across threads, and peak RSS wanders by 10-30% between identical runs;
/// pinned, it follows the live memory. The setting is process-wide and
/// makes every large block a fresh mapping, so the timed solves run in
/// this process with the defaults users get. Call before any thread
/// starts: the child is forked.
void memory_pass(Args const& args, Report& rep) {
    struct Result {
        double rss_mb = 0;
        Tally tally;
        bool ok = false;
    };
    int fd[2];
    if (pipe(fd))
        throw std::runtime_error("memory pass: pipe failed");
    std::fflush(stdout);
    std::fflush(stderr);
    pid_t const pid = fork();
    if (pid < 0)
        throw std::runtime_error("memory pass: fork failed");
    if (pid == 0) {
        close(fd[0]);
        mallopt(M_MMAP_THRESHOLD, 128 * 1024);
        Result r;
        try {
            qdwh_memory_pass(args, r.tally);
            r.ok = true;
        } catch (std::exception const& e) {
            std::fprintf(stderr, "perfbench: memory pass: %s\n", e.what());
        }
        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        r.rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
        bool const sent = write(fd[1], &r, sizeof r) == sizeof r;
        _exit(sent ? 0 : 1);
    }
    close(fd[1]);
    Result r;
    auto const got = read(fd[0], &r, sizeof r);  // one write < PIPE_BUF
    close(fd[0]);
    int status = 0;
    waitpid(pid, &status, 0);
    if (got != static_cast<ssize_t>(sizeof r) || !WIFEXITED(status)
        || WEXITSTATUS(status) != 0 || !r.ok)
        throw std::runtime_error("memory pass failed");
    rep.tally += r.tally;
    rep.add("peak_rss_mb", r.rss_mb, "MiB", 1,
            "set-up + 3 solves in a process of its own, mmap threshold "
            "pinned");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
    using namespace perfbench;
    Args const args = parse(argc, argv);
    fingerprint();
    std::printf("workload %s, seed %llu, %g s, trace %d\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0);
    Report rep;
    try {
        if (!args.trace) {
            memory_pass(args, rep);
            run_qdwh(args, rep);
        } else {
            // Every per-layer metric, on every workload: the engine trace
            // and QDWH phases on this workload, and the layers the QDWH
            // workloads do not run on runs of their own: service.* and
            // device.* on a service-mix loop, comm.* on a dqdwh solve.
            trace_kernels(rep);
            trace_empty_task(rep);
            trace_qdwh(args.workload, args, rep);
            trace_service(args, rep);
            trace_dqdwh(args, rep);
        }
    } catch (std::exception const& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    rep.print();
    return 0;
}
