#include "service/service.hh"

#include <algorithm>
#include <chrono>
#include <thread>

#include "comm/comm_error.hh"
#include "common/error.hh"
#include "common/timer.hh"

namespace tbp::svc {

PolarService::PolarService(rt::Engine& eng, ServiceOptions opts)
    : PolarService(eng, ProviderRegistry::builtin(), opts) {}

PolarService::PolarService(rt::Engine& eng, ProviderRegistry reg,
                           ServiceOptions opts)
    : eng_(eng),
      registry_(std::move(reg)),
      opts_(opts),
      pool_(WorkspacePool::make()),
      dispatcher_([this] { dispatcher_loop(); }) {}

PolarService::~PolarService() {
    wait_all();
    {
        std::lock_guard<std::mutex> lk(mtx_);
        stop_ = true;
    }
    admit_cv_.notify_all();
    dispatcher_.join();
}

JobHandle PolarService::submit(JobSpec spec) {
    auto st = std::make_shared<detail::JobState>();
    st->spec = spec;
    st->result.kind = spec.kind;
    st->result.cls = spec.cls;
    st->result.t_submit = wall_time();
    {
        std::lock_guard<std::mutex> lk(mtx_);
        st->result.id = next_id_++;
        ++stats_.admitted;
        if (spec.cls == JobClass::Latency)
            ++stats_.admitted_latency;
        else
            ++stats_.admitted_bulk;
        queue_.push_back(st);
    }
    admit_cv_.notify_one();
    return JobHandle(st);
}

void PolarService::wait_all() {
    std::vector<rt::JobId> claim;
    {
        std::unique_lock<std::mutex> lk(mtx_);
        done_cv_.wait(lk, [this] {
            return stats_.completed == stats_.admitted;
        });
        claim.swap(poisoned_);
    }
    // Claim the per-job error latches so the engine's job-error map stays
    // empty; the exceptions were already transcribed into JobResults.
    for (rt::JobId j : claim)
        (void)eng_.take_job_error(j);
}

ServiceStats PolarService::stats() const {
    std::lock_guard<std::mutex> lk(mtx_);
    ServiceStats s = stats_;
    s.workspaces_created = pool_->created();
    return s;
}

HealthReport PolarService::health() const {
    std::lock_guard<std::mutex> lk(mtx_);
    HealthReport h;
    h.dispatcher_alive = dispatcher_alive_ && !stop_;
    h.heartbeats = heartbeats_;
    h.heartbeat_age =
        heartbeats_ == 0 ? 0 : wall_time() - last_heartbeat_;
    h.queued = queue_.size();
    h.in_flight = stats_.dispatched - stats_.completed;
    h.retried_jobs = stats_.retried_jobs;
    h.recovered_jobs = stats_.recovered_jobs;
    h.failed_over = stats_.failed_over;
    return h;
}

// Sole submitter of eng_: pops admissions and turns each into one coarse
// engine task. The QoS split happens here — Latency jobs enter the high
// priority lane, Bulk the normal lane (or both at 0 in fifo mode).
void PolarService::dispatcher_loop() {
    {
        std::lock_guard<std::mutex> lk(mtx_);
        dispatcher_alive_ = true;
        last_heartbeat_ = wall_time();
    }
    for (;;) {
        std::shared_ptr<detail::JobState> st;
        {
            std::unique_lock<std::mutex> lk(mtx_);
            admit_cv_.wait(lk, [this] { return stop_ || !queue_.empty(); });
            ++heartbeats_;
            last_heartbeat_ = wall_time();
            if (queue_.empty()) {
                dispatcher_alive_ = false;
                return;  // stop_ and drained
            }
            st = std::move(queue_.front());
            queue_.pop_front();
            ++stats_.dispatched;
        }
        st->ejob = eng_.new_job();
        int const prio =
            (!opts_.fifo && st->spec.cls == JobClass::Latency)
                ? opts_.latency_priority
                : 0;
        // Each job touches only its own state: no inter-job dependencies,
        // so the task declares no accesses, the engine is free to run any
        // mix of jobs concurrently, and it reclaims each finished job's
        // task on a later submit (the dispatcher never calls wait()).
        eng_.submit("svc_job", std::vector<rt::Access>{},
                    [this, st] { run_job(st); }, prio, st->ejob);
    }
}

void PolarService::run_attempt(JobSpec const& spec, detail::JobState& st,
                               JobResult& res) {
    Status const v = validate(spec);
    if (v != Status::Ok) {
        res.status = v;
        res.error = std::string(job_kind_name(spec.kind))
                    + ": invalid job spec";
    } else if (auto const* p = registry_.find(spec.kind)) {
        // Private sequential engine: tasks run inline on this worker, and
        // the job's outputs depend only on its spec.
        rt::Engine jeng(1, rt::Mode::Sequential);
        (*p)(jeng, spec, *st.ws, res);
    } else {
        res.status = Status::InvalidArgument;
        res.error = std::string(job_kind_name(spec.kind))
                    + ": no provider registered";
    }
}

// Body of one job, executed on an engine worker. Catches everything: a
// failing provider becomes a JobResult error plus a poisoned per-job latch,
// never an escaped exception that would poison unrelated jobs. The retry
// policy lives here: retryable failures (comm faults, numerical failures)
// re-run the provider with backoff up to the attempt budget; a DistQdwh job
// that exhausts its budget degrades once to the single-rank Qdwh provider.
void PolarService::run_job(std::shared_ptr<detail::JobState> const& st) {
    JobResult& res = st->result;
    res.t_start = wall_time();
    // Checked out here, not at dispatch: a queued backlog of thousands of
    // jobs must not pin thousands of arenas. The pool's steady state is
    // one workspace per concurrently *running* job.
    st->ws = pool_->checkout();

    JobSpec spec = st->spec;
    int budget = std::max(
        1, spec.max_attempts > 0 ? spec.max_attempts
                                 : opts_.retry.max_attempts);
    bool failed_over = false;
    std::exception_ptr last_exc;
    double backoff_ms = opts_.retry.backoff_ms;
    int attempt = 0;

    for (;;) {
        ++attempt;
        res.attempts = attempt;
        res.status = Status::InternalError;
        res.error.clear();
        last_exc = nullptr;
        try {
            run_attempt(spec, *st, res);
        } catch (comm::CommError const& e) {
            // Transport-level failure the p2p recovery could not absorb
            // (retry budget spent, dead peer): an infrastructure error,
            // not a numerical one.
            res.status = Status::InternalError;
            res.error = e.what();
            last_exc = std::current_exception();
        } catch (comm::RankFailedError const& e) {
            res.status = Status::InternalError;
            res.error = e.what();
            last_exc = std::current_exception();
        } catch (Error const& e) {
            res.status = Status::NumericalError;
            res.error = e.what();
            last_exc = std::current_exception();
        } catch (std::exception const& e) {
            res.status = Status::InternalError;
            res.error = e.what();
            last_exc = std::current_exception();
        } catch (...) {
            res.status = Status::InternalError;
            res.error = "unknown exception";
            last_exc = std::current_exception();
        }

        if (res.ok())
            break;
        bool const retryable = res.status == Status::InternalError
                               || res.status == Status::NumericalError;
        if (!retryable)
            break;
        if (attempt < budget) {
            std::this_thread::sleep_for(
                std::chrono::duration<double>(backoff_ms / 1e3));
            backoff_ms *= opts_.retry.backoff_mult;
            continue;
        }
        // Budget exhausted. Graceful degradation: a distributed job whose
        // World keeps failing is worth one shot on the single-rank
        // provider — same spec-derived input and solver family, no
        // network to fault.
        if (!failed_over && opts_.retry.failover
            && spec.kind == JobKind::DistQdwh) {
            failed_over = true;
            spec.kind = JobKind::Qdwh;
            spec.fault = fault::FaultPlan{};
            budget = attempt + 1;
            continue;
        }
        break;
    }

    res.failed_over = failed_over;
    res.recovered = res.ok() && (res.attempts > 1 || failed_over);
    bool poisoned = false;
    if (!res.ok() && last_exc) {
        eng_.poison_job(st->ejob, last_exc);
        poisoned = true;
    }
    res.t_end = wall_time();

    {
        std::lock_guard<std::mutex> lk(mtx_);
        ++stats_.completed;
        if (res.status != Status::Ok)
            ++stats_.failed;
        if (res.attempts > 1 || failed_over)
            ++stats_.retried_jobs;
        if (res.recovered)
            ++stats_.recovered_jobs;
        if (failed_over)
            ++stats_.failed_over;
        if (poisoned)
            poisoned_.push_back(st->ejob);
        // Notify under the lock: wait_all() may return (and the service
        // may be destroyed) the instant the predicate holds, so the cv
        // must not be touched after the mutex is released.
        done_cv_.notify_all();
    }
    {
        std::lock_guard<std::mutex> lk(st->mtx);
        st->done = true;
    }
    st->cv.notify_all();
}

}  // namespace tbp::svc
