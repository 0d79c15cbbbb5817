#include "engine/engine.h"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace_ring.h"
#include "util/spinlock.h"
#include "util/thread_pin.h"
#include "util/timer.h"

namespace relax::engine {

unsigned EngineOptions::threads() const {
  return num_threads == 0 ? util::hardware_threads() : num_threads;
}

namespace {

// Telemetry sinks must cover every worker id BEFORE the first worker runs
// (pool workers park immediately and record park metrics); these run in the
// pool_ member initializer, i.e. strictly before any thread is spawned.
obs::MetricsRegistry* prepared_metrics(const EngineOptions& opts) {
  if (opts.metrics != nullptr) opts.metrics->resize(opts.threads());
  return opts.metrics;
}

obs::TraceRing* prepared_trace(const EngineOptions& opts) {
  if (opts.trace != nullptr) opts.trace->resize(opts.threads());
  return opts.trace;
}

}  // namespace

core::ExecutionStats JobTicket::wait() {
  if (!state_)
    throw std::logic_error("JobTicket::wait() on a ticket with no job");
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [&] { return state_->done; });
  return state_->stats;
}

bool JobTicket::ready() const {
  if (!state_) return false;  // empty ticket: no job, never ready
  std::lock_guard<std::mutex> guard(state_->mu);
  return state_->done;
}

SchedulingEngine::SchedulingEngine(EngineOptions opts)
    : opts_(opts),
      placement_(util::plan_workers(opts.topology, opts.threads())),
      worker_caches_(opts.threads()),
      pool_(opts.threads(), opts.pin_threads,
            [this](unsigned worker) { return work(worker); },
            prepared_metrics(opts), prepared_trace(opts),
            placement_.pin_slot) {
  if (opts_.max_in_flight == 0) opts_.max_in_flight = 1;
  if (opts_.max_pending == 0) opts_.max_pending = 1;
  if (opts_.slice_budget == 0) opts_.slice_budget = 1;
  // Safe after the pool spawned: workers only consult the governor through
  // Admitted::tenant, and no job can be admitted before this returns.
  qos_.configure(opts_.slice_budget, opts_.metrics);
}

SchedulingEngine::~SchedulingEngine() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    drain_cv_.wait(lock, [&] { return completed_ == submitted_; });
  }
  pool_.stop();
}

JobTicket SchedulingEngine::submit(std::shared_ptr<Job> job,
                                   CompletionFn on_complete) {
  auto state = std::make_shared<JobTicket::State>();
  state->on_complete = std::move(on_complete);
  {
    std::unique_lock<std::mutex> lock(mu_);
    space_cv_.wait(lock,
                   [&] { return pending_.size() < opts_.max_pending; });
    ++submitted_;
    pending_.push_back(Admitted{std::move(job), state, submitted_});
    admit(lock);
  }
  if (opts_.metrics != nullptr) opts_.metrics->jobs_submitted().add();
  pool_.notify();
  return JobTicket(std::move(state));
}

std::optional<JobTicket> SchedulingEngine::try_submit(
    std::shared_ptr<Job> job, CompletionFn on_complete) {
  auto state = std::make_shared<JobTicket::State>();
  state->on_complete = std::move(on_complete);
  {
    std::unique_lock<std::mutex> lock(mu_);
    // Same bound the blocking submit waits on; rejecting here instead of
    // waiting is the whole point — the caller sheds load explicitly.
    if (pending_.size() >= opts_.max_pending) return std::nullopt;
    ++submitted_;
    pending_.push_back(Admitted{std::move(job), state, submitted_});
    admit(lock);
  }
  if (opts_.metrics != nullptr) opts_.metrics->jobs_submitted().add();
  pool_.notify();
  return JobTicket(std::move(state));
}

void SchedulingEngine::admit(std::unique_lock<std::mutex>& lock) {
  // activating_ reserves the in-flight slot while the lock is dropped, so
  // concurrent admitters can neither over-admit nor reorder the queue (each
  // takes the front under the lock).
  while (active_.size() + activating_ < opts_.max_in_flight &&
         !pending_.empty()) {
    Admitted admitted = std::move(pending_.front());
    pending_.pop_front();
    ++activating_;
    space_cv_.notify_one();  // one admission-queue slot freed
    lock.unlock();
    admitted.job->activate(EngineContext{pool_.size(), opts_.metrics,
                                         opts_.trace, placement_.num_domains,
                                         &placement_.domain});
    lock.lock();
    --activating_;
    // Register the tenant under mu_ (the governor's aggregate counters are
    // serialized here) before publication, so every worker-cache copy of
    // this entry carries the ledger.
    admitted.tenant = qos_.admit(admitted.id, admitted.job->weight());
    active_.push_back(std::move(admitted));
    active_version_.fetch_add(1, std::memory_order_release);
  }
}

bool SchedulingEngine::work(unsigned worker) {
  // Refresh this worker's snapshot of the active set only when the version
  // stamp moved; steady-state passes cost one shared atomic read, not a
  // mutex + shared_ptr copies. A stale snapshot is harmless: reaped jobs
  // are sealed (slices skip them) and newly admitted jobs bump the version.
  auto& cache = *worker_caches_[worker];
  const std::uint64_t version =
      active_version_.load(std::memory_order_acquire);
  if (cache.seen_version != version) {
    std::lock_guard<std::mutex> guard(mu_);
    cache.jobs = active_;
    cache.seen_version = version;
  }
  const std::vector<Admitted>& jobs = cache.jobs;
  if (jobs.empty()) return false;  // park until the next submit
  bool any = false;
  const std::size_t k = jobs.size();
  // Slice timing lives here, not in the jobs: the engine sees every slice
  // of every job type through one choke point, so one timer covers them
  // all and an unobserved engine pays nothing.
  const bool observing = opts_.metrics != nullptr || opts_.trace != nullptr;
  for (std::size_t i = 0; i < k; ++i) {
    // Rotate by worker id so the pool fans out over jobs instead of
    // convoying on the first one.
    const Admitted& admitted = jobs[(worker + i) % k];
    // Slice entry protocol (all seq_cst, paired with finish()): register in
    // in_slice BEFORE checking the seal. Either this registration is
    // ordered before the reaper's quiescence scan — then the reaper waits
    // for the slice — or the scan came first, in which case the seal is
    // already visible here and the slice is skipped. Both ways no slice can
    // write stat stripes concurrently with collect().
    admitted.state->in_slice.fetch_add(1);
    if (!admitted.state->sealed.load()) {
      // Budget grant through the QoS governor — the one choke point where
      // fixed slice_budget became per-tenant policy. Jobs submitted before
      // the governor existed in a cache snapshot (tenant == nullptr only
      // for entries admitted by older engines' caches; defensively keep
      // the fixed budget there).
      const std::uint32_t budget = admitted.tenant != nullptr
                                       ? qos_.grant(*admitted.tenant)
                                       : opts_.slice_budget;
      if (!observing) {
        const SliceResult r = admitted.job->run_slice(worker, budget);
        if (admitted.tenant != nullptr)
          qos_.report(*admitted.tenant, budget, r.iterations, /*slice_ns=*/0);
        if (r.progress) any = true;
      } else {
        const std::uint64_t start_ns =
            opts_.trace != nullptr ? opts_.trace->now_ns() : 0;
        util::Timer slice_timer;
        const SliceResult r = admitted.job->run_slice(worker, budget);
        const bool progress = r.progress;
        const std::uint64_t dur_ns =
            static_cast<std::uint64_t>(slice_timer.seconds() * 1e9);
        if (admitted.tenant != nullptr)
          qos_.report(*admitted.tenant, budget, r.iterations, dur_ns);
        if (opts_.metrics != nullptr && worker < opts_.metrics->width()) {
          auto& wm = opts_.metrics->worker(worker);
          if (progress) {
            wm.slices.add();
            wm.slice_ns.record(dur_ns);
          } else {
            wm.idle_visits.add();
          }
        }
        // Trace only slices that made progress: a starved multi-job engine
        // emits thousands of microsecond-scale empty polls per second, and
        // letting them churn the ring would evict the slices worth seeing.
        if (progress && opts_.trace != nullptr &&
            worker < opts_.trace->width()) {
          opts_.trace->record(worker, obs::EventKind::kSlice, start_ns,
                              dur_ns, admitted.id);
        }
        if (progress) any = true;
      }
    }
    admitted.state->in_slice.fetch_sub(1);
    if (admitted.job->finished()) finish(admitted);
  }
  // All active jobs are momentarily starved (queues empty, work in flight
  // elsewhere): back off briefly but keep polling — completion detection
  // needs the pops.
  if (!any) {
    for (int i = 0; i < 64; ++i) util::cpu_relax();
  }
  return true;
}

void SchedulingEngine::finish(const Admitted& admitted) {
  if (admitted.state->reaped.exchange(true, std::memory_order_acq_rel))
    return;  // another worker is reaping this job
  // Seal, then wait for in-flight slices to retire (see work() for the
  // pairing argument). Slices observe finished() and return quickly, so
  // this spin is short; afterwards every per-worker stat stripe is
  // quiescent and collect() is race-free.
  admitted.state->sealed.store(true);
  while (admitted.state->in_slice.load() != 0) util::cpu_relax();
  // Quiescent: tear down the job's per-worker scheduler sessions (cached
  // handles into a possibly caller-owned queue) before the ticket is
  // fulfilled — a waiter returning from wait() may destroy that queue
  // immediately, and no handle may outlive it.
  admitted.job->retire();
  const core::ExecutionStats stats = admitted.job->collect();
  // Retire the job from the engine BEFORE fulfilling the ticket: a waiter
  // that returns from wait() must observe jobs_completed() counting this
  // job (and may immediately destroy problem/queue it owns — nothing may
  // touch the job afterwards).
  {
    std::unique_lock<std::mutex> lock(mu_);
    active_.erase(std::find_if(active_.begin(), active_.end(),
                               [&](const Admitted& a) {
                                 return a.state == admitted.state;
                               }));
    active_version_.fetch_add(1, std::memory_order_release);
    ++completed_;
    // Drop the tenant from the governor's aggregates under the same lock
    // that registered it; the remaining tenants' shares widen immediately.
    if (admitted.tenant != nullptr) qos_.release(*admitted.tenant);
    admit(lock);
  }
  if (opts_.metrics != nullptr) opts_.metrics->jobs_completed().add();
  {
    std::lock_guard<std::mutex> guard(admitted.state->mu);
    admitted.state->stats = stats;
    admitted.state->done = true;
  }
  admitted.state->cv.notify_all();
  drain_cv_.notify_all();
  pool_.notify();  // wake parked workers for any newly admitted jobs
  // Callback completion, strictly after the ticket: a waiter woken by the
  // notify above and the callback both observe the same fulfilled state,
  // and the callback may free job-borrowed resources (see CompletionFn).
  if (admitted.state->on_complete) admitted.state->on_complete(stats);
}

std::uint64_t SchedulingEngine::jobs_submitted() const {
  std::lock_guard<std::mutex> guard(mu_);
  return submitted_;
}

std::uint64_t SchedulingEngine::jobs_completed() const {
  std::lock_guard<std::mutex> guard(mu_);
  return completed_;
}

}  // namespace relax::engine
