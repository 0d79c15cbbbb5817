// Multi-tenant job layer: type-erased units of work for SchedulingEngine.
//
// A Job wraps one framework execution — a core::Problem, its priority
// permutation pi, and a scheduler — behind a uniform slice interface so a
// pool of persistent workers can multiplex many jobs:
//
//   activate(ctx)            engine admits the job and hands it its context
//                            (pool width, telemetry sinks, worker placement)
//   run_slice(worker, b)     run up to b scheduler iterations for `worker`
//   finished()               retirement count reached num_tasks()
//   collect()                merged ExecutionStats (only after finished())
//
// Slices keep every worker responsive: instead of looping to termination as
// core/parallel_executor.h's executors did, a worker runs a bounded burst,
// returns, and visits the other in-flight jobs. Determinism is untouched —
// the framework property (decided outcome == sequential execution under pi
// for any schedule, paper §2.2) covers arbitrary interleaving, including
// interleaving with unrelated jobs.
//
// Admission is batched and cooperative: the submitting thread does not load
// the n initial labels. Workers claim chunks of the label range from an
// atomic cursor inside run_slice and push them through BatchInserter, so a
// large job's admission is spread over the pool and overlaps both its own
// execution and other jobs. Termination via striped retirement counting is
// unaffected: a task can only retire after its final pop, hence after its
// insert, so retired == n implies admission completed too.
//
// Task acquisition is batched as well (JobConfig::pop_batch): run_slice
// claims up to k labels per scheduler touch via sched::pop_batch — the
// backend's native batched claim where one exists, a one-at-a-time shim
// elsewhere — into a worker-local buffer. The buffer is always fully
// drained before the next termination check or slice return, and a
// buffered label is its task's only live pop, so retirement counting can
// never reach n while labels sit buffered.
//
// Re-insertion is batched symmetrically: each touch's kNotReady labels
// accumulate in a worker-local buffer and flush through
// sched::insert_batch (the backend's native batched insert where one
// exists) once per scheduler touch — one batched claim out, one batched
// insert back. Flushing per touch (not per slice) keeps the captivity
// window short: a buffered label is invisible to every other worker, and
// holding a dependency chain across a whole slice lets an ill-timed OS
// preemption stall the peers into failed-delete churn. A buffered
// re-insertion is an unretired task, so the retirement sum cannot reach n
// while it sits here; a defensive flush at slice end guarantees no label
// ever outlives its slice outside the scheduler.
//
// Scheduler access is organized as per-worker *sessions*: each worker's
// first slice for a job creates that worker's handle via sched::make_handle
// and parks it in WorkerState; every later slice reuses it, so a job costs
// at most one handle construction per worker instead of one per slice. The
// session is torn down by retire(), which the engine calls exactly once
// after the job finishes and all slices have returned — no handle ever
// outlives the job's execution, so a caller may destroy a caller-owned
// queue as soon as the ticket's wait() returns, exactly as before. The
// caching is sound because a worker id maps to one pool thread for the
// pool's whole lifetime (engine/worker_pool.h), so a cached handle is only
// ever driven by the thread that created it.
//
// By default (JobConfig::pop_batch_auto) the claimed batch size adapts per
// worker through a sched::BatchController session: a full batch doubles the
// next claim (up to the cap — sustained load), a short or empty claim
// resets it to 1 (the chosen sub-structure is running dry; near drain,
// large batches only buy rank error, see sched::batched_rank_bound), and
// every few dozen claims the controller consults the backend's striped
// size() to set the claim from *global* occupancy — a deep backlog jumps
// straight to the cap, a near-drained scheduler pins single pops. The cap
// is pop_batch, lowered for small jobs to n / (pool width *
// JobConfig::kAutoCapTasksPerClaim).
//
// Problems may expose an optional prefetch(task) hook (core/problem.h);
// run_slice then warms each claimed label's state a few labels before
// try_process reads it.
//
// Jobs:
//   RelaxedJob<P, Queue>  the one relaxed loop, over any scheduler with
//                         per-thread handles or a plain
//                         sched::ConcurrentScheduler surface. The queue is
//                         borrowed from the caller, or owned: built in place
//                         from forwarded args (how engine/backend_jobs.h
//                         stands up any registry backend per job). An owned
//                         AuditedQueue<Q> is also audited: every scheduler
//                         op goes through a lock-serialized
//                         RelaxationMonitor, and collect() reports its
//                         Definition 1 rank-error / inversion statistics.
//   ExactJob<P>           the exact baseline (FAA ticket dispenser +
//                         bounded backoff-wait, never re-inserts)
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <optional>
#include <span>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/execution_stats.h"
#include "core/problem.h"
#include "engine/batch_inserter.h"
#include "graph/permutation.h"
#include "obs/metrics.h"
#include "obs/trace_ring.h"
#include "sched/batch_controller.h"
#include "sched/concurrent_multiqueue.h"
#include "sched/faa_array_queue.h"
#include "sched/handles.h"
#include "sched/relaxation_monitor.h"
#include "sched/scheduler.h"
#include "util/padded.h"
#include "util/spinlock.h"
#include "util/timer.h"

namespace relax::engine {

/// Per-job knobs. queue_factor/seed/relaxation_k mirror core::ParallelOptions
/// and parameterize schedulers the job owns; they are ignored for borrowed
/// queues (submit_relaxed_on).
struct JobConfig {
  /// Ceiling on QoS weights; far above any sensible tenant ratio, this
  /// only bounds the weighted-share arithmetic against nonsense values.
  static constexpr std::uint32_t kMaxWeight = 1024;
  /// Multi-tenant QoS weight (engine/qos.h). Under contention a weight-2
  /// tenant receives ~2x the slice budget of a weight-1 tenant; solo
  /// tenants always get the full budget. Clamped to [1, kMaxWeight] by
  /// the jobs; 0 is treated as 1.
  std::uint32_t weight = 1;
  unsigned queue_factor = 4;       // MultiQueue sub-queues per pool worker
  std::uint64_t seed = 1;          // scheduler randomness
  std::uint32_t relaxation_k = 0;  // k for window/sim backends (0 = derive
                                   // queue_factor * pool width)
  /// Upper bound on pop_batch (64Ki labels = 256 KiB of worker buffer).
  /// Far above any useful batch — the rank envelope scales with k — this
  /// only bounds memory against nonsense values. RelaxedJob clamps to it;
  /// CLI front-ends clamp at parse time so reported == effective.
  static constexpr std::uint32_t kMaxPopBatch = 1u << 16;
  /// Adaptive cap used by default and by --pop-batch=auto when no explicit
  /// max is given.
  static constexpr std::uint32_t kDefaultAutoPopBatch = 64;
  /// Job-size limit on the adaptive cap: an adaptive job of n tasks on a
  /// pool of W workers claims at most n / (W * kAutoCapTasksPerClaim)
  /// labels per touch (never below 1, never above pop_batch). Small jobs
  /// drain in a few claim rounds at cap 64, and every label a claim pulls
  /// ahead of its predecessors comes back as a failed delete; large jobs
  /// keep the full cap. Fixed-size claims are left alone.
  static constexpr std::uint32_t kAutoCapTasksPerClaim = 256;
  /// Labels claimed per scheduler touch (the cap in adaptive mode): k>1
  /// amortizes the sample/lock/CAS round trip over k pops at an O(k * q)
  /// rank cost (see sched::batched_rank_bound).
  std::uint32_t pop_batch = kDefaultAutoPopBatch;
  /// Adaptive batch sizing, on by default (CLI: --pop-batch=auto[:max];
  /// a plain --pop-batch=<k> turns it off): pop_batch becomes the cap and
  /// each worker's sched::BatchController picks its claim size from
  /// observed occupancy — full batches double the next claim toward the
  /// cap, short or empty claims (the sampled sub-structure ran dry: the
  /// near-drain signal) reset it to 1 so a draining queue is not charged
  /// the O(k*q) rank cost for throughput it can no longer deliver, and an
  /// occasional consult of the backend's striped size() jumps straight to
  /// the cap under a deep backlog (or pins 1 when the whole scheduler is
  /// near drain, whatever the per-worker feedback says).
  bool pop_batch_auto = true;
  /// Audit mode: make_backend_job runs the backend as an AuditedQueue
  /// (serialized, every pop's quality measured).
  bool monitor_relaxation = false;
  std::uint32_t monitor_stride = 64;  // inversion tracking sample stride
};

/// What the engine hands every job at activation, whoever built the job.
/// All pointers are engine-owned and outlive the job's execution.
struct EngineContext {
  /// Workers that may call run_slice (ids 0 .. pool_width - 1).
  unsigned pool_width = 1;

  /// Engine-wide telemetry sinks (EngineOptions), sized for the pool; null
  /// when unobserved. The hot path accumulates into worker-locals and
  /// flushes once per slice, so an attached registry costs a handful of
  /// relaxed adds per ~slice_budget iterations (pinned by the obs overhead
  /// guard test).
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceRing* trace = nullptr;

  /// Topology placement (util::WorkerPlacement). numa_domains > 1 makes a
  /// job configure a backend that supports it with a sched::StripeMap
  /// during activate() (the queue is quiescent there) and open each
  /// worker's session with that worker's domain, so same-domain stripes
  /// are preferred and cross-domain traffic becomes the bounded steal
  /// schedule. worker_domains maps pool worker id -> domain; when null,
  /// workers fall back to a contiguous block split over numa_domains.
  unsigned numa_domains = 1;
  const std::vector<unsigned>* worker_domains = nullptr;
};

/// Parsed form of a --pop-batch CLI value. `batch` is the fixed size, or
/// the adaptive cap when `adaptive` is set. `valid` is false when the
/// input was unparseable or an explicit zero — `batch` still carries a
/// safe degraded value (1, or the default auto cap) so library callers
/// keep working, but CLI front-ends must reject the flag with a clear
/// error instead of silently running a batch size the user never asked
/// for (a zero cap flowing into the batch controller was satellite bug
/// territory; see tools/relaxsched.cc and examples/job_server.cpp).
struct PopBatchFlag {
  std::uint32_t batch = 1;
  bool adaptive = false;
  bool valid = true;
};

/// Parses --pop-batch=<k>|auto|auto:<max>. Unparseable or zero values
/// degrade to batch 1 (or, after "auto:", the default auto cap) with
/// `valid` cleared; in-range numbers above kMaxPopBatch are clamped
/// (and stay valid) so reported == effective.
inline PopBatchFlag parse_pop_batch_flag(std::string_view value) {
  PopBatchFlag flag;
  if (value == "auto") {
    return PopBatchFlag{JobConfig::kDefaultAutoPopBatch, true, true};
  }
  if (value.starts_with("auto:")) {
    flag.adaptive = true;
    value.remove_prefix(5);
  }
  std::uint64_t parsed = 0;
  const auto [ptr, ec] =
      std::from_chars(value.data(), value.data() + value.size(), parsed);
  if (ec != std::errc{} || ptr != value.data() + value.size() ||
      parsed == 0) {
    return PopBatchFlag{flag.adaptive ? JobConfig::kDefaultAutoPopBatch : 1,
                        flag.adaptive, /*valid=*/false};
  }
  flag.batch = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(parsed, JobConfig::kMaxPopBatch));
  return flag;
}

/// What one run_slice visit accomplished. `iterations` is the scheduler
/// iterations actually consumed of the granted budget — the QoS governor
/// settles the tenant's deficit ledger from it; `progress` keeps the old
/// boolean meaning (popped a task or admitted labels) the engine's
/// idle-backoff reads.
struct SliceResult {
  std::uint32_t iterations = 0;
  bool progress = false;
};

class Job {
 public:
  virtual ~Job() = default;

  /// Called once, by the engine, when the job becomes active. No slice runs
  /// before activation returns.
  virtual void activate(const EngineContext& ctx) = 0;

  /// Runs up to `budget` scheduler iterations on behalf of `worker`
  /// (a stable id < pool_width). Reports the iterations consumed and
  /// whether the slice made progress (popped a task or admitted labels;
  /// false lets the caller back off).
  virtual SliceResult run_slice(unsigned worker, std::uint32_t budget) = 0;

  /// The job's QoS weight (JobConfig::weight), read once at admission by
  /// the engine's QosGovernor. Virtual because the type-erased
  /// submit(shared_ptr<Job>) path never sees a JobConfig.
  [[nodiscard]] virtual std::uint32_t weight() const noexcept { return 1; }

  [[nodiscard]] virtual bool finished() const noexcept = 0;

  /// Called exactly once by the engine when the job is reaped: after
  /// finished() is true and after every in-flight slice has returned, but
  /// before the ticket is fulfilled. Jobs release their per-worker
  /// scheduler sessions here (cached handles into a possibly caller-owned
  /// queue), so no handle outlives the job's execution — the submitter may
  /// destroy the queue the moment wait() returns.
  virtual void retire() noexcept {}

  /// Merged statistics. Valid only after finished() is true and all slices
  /// have returned (the engine guarantees both before reaping).
  virtual core::ExecutionStats collect() = 0;
};

/// Shared machinery for jobs over the task framework: per-worker stat and
/// retirement stripes, the striped-sum termination check, and wall-time
/// stamping of the admit -> done interval.
class TaskJobBase : public Job {
 public:
  void activate(const EngineContext& ctx) override {
    retired_ = std::vector<util::Padded<std::atomic<std::uint32_t>>>(
        ctx.pool_width);
    stats_ = std::vector<util::Padded<core::ExecutionStats>>(ctx.pool_width);
    timer_.reset();
    if (n_ == 0) {
      done_seconds_ = 0.0;
      done_.store(true, std::memory_order_release);
    }
  }

  [[nodiscard]] bool finished() const noexcept override {
    return done_.load(std::memory_order_acquire);
  }

  core::ExecutionStats collect() override {
    // Stripes carry busy time (the sum of that worker's slice latencies) in
    // `seconds`; merged_wall() accumulates everything and then overrides
    // the total's seconds with the job's wall clock — the contract its name
    // encodes. The stripes themselves become the per-worker breakdown.
    std::vector<core::ExecutionStats> stripes;
    stripes.reserve(stats_.size());
    for (const auto& s : stats_) {
      stripes.push_back(*s);
      stripes.back().seconds =
          static_cast<double>(stripes.back().slice_latency_ns.sum()) / 1e9;
    }
    core::ExecutionStats total = core::ExecutionStats::merged_wall(
        std::span<const core::ExecutionStats>(stripes), done_seconds_);
    total.per_worker = std::move(stripes);
    return total;
  }

 protected:
  explicit TaskJobBase(std::uint32_t num_tasks) : n_(num_tasks) {}

  /// Sums the retirement stripes; the first thread to observe the sum reach
  /// n stamps the wall time and raises the done flag (the release store
  /// orders the stamp before any acquire load that sees the flag).
  void check_done() noexcept {
    std::uint64_t sum = 0;
    for (const auto& slot : retired_)
      sum += slot->load(std::memory_order_acquire);
    if (sum < n_ || done_.load(std::memory_order_relaxed)) return;
    std::lock_guard<util::Spinlock> guard(finish_lock_);
    if (!done_.load(std::memory_order_relaxed)) {
      done_seconds_ = timer_.seconds();
      done_.store(true, std::memory_order_release);
    }
  }

  const std::uint32_t n_;
  std::vector<util::Padded<std::atomic<std::uint32_t>>> retired_;
  std::vector<util::Padded<core::ExecutionStats>> stats_;
  std::atomic<bool> done_{false};
  util::Spinlock finish_lock_;
  util::Timer timer_;
  double done_seconds_ = 0.0;
};

/// A backend run in audit mode: every scheduler op goes through one lock
/// into a RelaxationMonitor that keeps an exact order-statistics mirror, so
/// every pop's rank error and the sampled per-element inversion counts
/// (Definition 1) are measured in situ. The lock trades scalability for
/// observability — audit a sampled subset of production jobs, not all of
/// them. Built in place from (std::in_place, capacity, sample_stride,
/// backend ctor args...); every registry backend qualifies.
template <typename Queue>
using AuditedQueue = sched::LockedScheduler<sched::RelaxationMonitor<Queue>>;

/// The paper's relaxed concurrent loop (§4) as a multiplexable job. The
/// problem and priorities are caller-owned and must outlive the job; the
/// queue is either borrowed likewise or owned by the job.
template <core::Problem P, typename Queue>
class RelaxedJob : public TaskJobBase {
 public:
  /// The per-worker scheduler access point: the backend's own handle when
  /// it has one, a DirectHandle shim otherwise (sched/handles.h). Cached
  /// in WorkerState for the job's lifetime — one make_handle per
  /// (worker, job), not per slice.
  using Handle = decltype(sched::make_handle(std::declval<Queue&>()));

  /// Runs over a caller-owned queue.
  RelaxedJob(P& problem, const graph::Priorities& pri, Queue& queue,
             const JobConfig& cfg = {})
      : RelaxedJob(problem, pri, cfg) {
    queue_ = &queue;
  }

  /// Runs over a queue the job owns, constructed in place from
  /// `queue_args`.
  template <typename... QueueArgs>
  RelaxedJob(P& problem, const graph::Priorities& pri, const JobConfig& cfg,
             std::in_place_t, QueueArgs&&... queue_args)
      : RelaxedJob(problem, pri, cfg) {
    queue_ = &owned_.emplace(std::forward<QueueArgs>(queue_args)...);
  }

  void activate(const EngineContext& ctx) override {
    TaskJobBase::activate(ctx);
    ctx_ = ctx;
    // Worker-local session state. Popped labels only ever live in `popped`
    // between a pop_batch claim and the processing loop a few lines below
    // it — never across a run_slice return. kNotReady labels accumulate in
    // `reinsert` and are always flushed back into the scheduler before the
    // slice returns. The handle slot starts empty; each worker fills its
    // own on its first slice (activation runs on the submitting thread,
    // which must not construct handles the pool threads will drive).
    const unsigned pool_width = ctx.pool_width;
    // An adaptive job's cap also scales with the job: see
    // JobConfig::kAutoCapTasksPerClaim.
    const std::uint32_t cap =
        adaptive_ ? std::clamp<std::uint32_t>(
                        n_ / (std::max(pool_width, 1u) *
                              JobConfig::kAutoCapTasksPerClaim),
                        1, pop_batch_)
                  : pop_batch_;
    workers_ = std::vector<util::Padded<WorkerState>>(pool_width);
    for (auto& ws : workers_) {
      ws->popped.reserve(cap);
      ws->reinsert.reserve(cap);
      // Watermarks scale with the pool: occupancy is global, and
      // pool_width workers drain up to width * cap labels per claim round.
      // Measured mode re-derives them from the observed drain rate once a
      // consult window of claim feedback exists; the static width-scaled
      // marks remain the cold-start values.
      ws->controller = sched::BatchController(
          cap, adaptive_, /*high_watermark=*/0,
          sched::BatchController::kDefaultConsultPeriod, pool_width,
          /*measured_watermarks=*/true);
    }
    // Topology-aware striping: when the engine placed workers into more
    // than one domain and the backend partitions into sub-queues, hand it
    // the matching StripeMap now — activation runs before any slice, so
    // the quiescence requirement on set_stripe_map holds even for
    // borrowed queues. Backends without the surface (SprayList's is a
    // documented no-op; monitors/wrappers lack it entirely) stay flat.
    if constexpr (requires(Queue& q, const sched::StripeMap& m) {
                    q.num_queues();
                    q.set_stripe_map(m);
                  }) {
      if (ctx.numa_domains > 1) {
        queue_->set_stripe_map(sched::StripeMap(
            static_cast<std::size_t>(queue_->num_queues()), ctx.numa_domains));
      }
    }
    // Schedulers with a quiescent bulk_load but no live bulk_insert
    // (LockFreeMultiQueue, whose sorted sub-lists degrade to O(n) per
    // ascending insert) get their whole initial load here, while the job is
    // still unpublished and the queue guaranteed quiescent. Everything else
    // is loaded cooperatively by the workers via admit_chunk.
    if constexpr (requires(Queue& q, std::span<const sched::Priority> s) {
                    q.bulk_load(s);
                  } && !requires(Handle h, std::span<const sched::Priority> s) {
                    h.bulk_insert(s);
                  }) {
      std::vector<sched::Priority> labels(n_);
      std::iota(labels.begin(), labels.end(), 0u);
      queue_->bulk_load(std::span<const sched::Priority>(labels));
      load_cursor_.store(n_, std::memory_order_release);
    }
  }

  /// Session teardown: drops every worker's cached handle (and with it the
  /// last pointer a worker holds into a borrowed queue). Called by the
  /// engine after all slices have returned, so no handle is in use.
  void retire() noexcept override {
    for (auto& ws : workers_) ws->handle.reset();
  }

  /// The merged stats, plus the monitor's Definition 1 measurements when
  /// the queue is audited (AuditedQueue).
  core::ExecutionStats collect() override {
    core::ExecutionStats total = TaskJobBase::collect();
    if constexpr (requires(Queue& q) { q.inner().rank_histogram(); }) {
      const auto& monitor = queue_->inner();
      const auto& ranks = monitor.rank_histogram();
      const auto& inversions = monitor.inversion_histogram();
      total.rank_samples = ranks.total();
      total.mean_rank_error = ranks.mean();
      total.max_rank_error = ranks.max_value();
      total.inversion_samples = inversions.total();
      total.mean_inversions = inversions.mean();
    }
    return total;
  }

  [[nodiscard]] std::uint32_t weight() const noexcept override {
    return weight_;
  }

  SliceResult run_slice(unsigned worker, std::uint32_t budget) override {
    if (finished()) return {};
    util::Timer slice_timer;  // slice latency -> this worker's stripe
    auto& ws = *workers_[worker];
    // First slice for this worker: open its session. Later slices reuse
    // the cached handle — handle construction off the per-slice path.
    if (!ws.handle) {
      ws.handle.emplace(sched::make_handle(*queue_));
      // Session state carries the worker's topology domain: every claim
      // and batched insert this handle issues prefers that domain's
      // stripes (engine placement table when present, contiguous block
      // split otherwise). Flat (single-domain) jobs skip the call — the
      // backends treat domain 0 of a 1-domain map as the flat path anyway.
      if constexpr (requires(Handle& h) { h.set_domain(0u); }) {
        if (ctx_.numa_domains > 1) {
          ws.handle->set_domain(
              ctx_.worker_domains != nullptr &&
                      worker < ctx_.worker_domains->size()
                  ? (*ctx_.worker_domains)[worker]
                  : worker * ctx_.numa_domains /
                        std::max(ctx_.pool_width, 1u));
        }
      }
    }
    auto& handle = *ws.handle;
    bool progress = admit_chunk(handle);
    auto& stats = *stats_[worker];
    auto& my_retired = *retired_[worker];
    auto& buffer = ws.popped;
    // Telemetry is accumulated in plain locals and flushed once per slice
    // (see flush_metrics) so the per-claim cost with a registry attached is
    // plain-integer arithmetic, not atomics. Snapshot the stripe counters
    // and controller tally now; the deltas at slice end are this slice's
    // contribution.
    obs::WorkerMetrics* wm =
        ctx_.metrics != nullptr && worker < ctx_.metrics->width()
            ? &ctx_.metrics->worker(worker)
            : nullptr;
    obs::TraceRing* trace =
        ctx_.trace != nullptr && worker < ctx_.trace->width() ? ctx_.trace
                                                              : nullptr;
    const std::uint64_t processed0 = stats.processed;
    const std::uint64_t failed0 = stats.failed_deletes;
    const std::uint64_t dead0 = stats.dead_skips;
    const std::uint64_t empty0 = stats.empty_polls;
    const sched::BatchController::Transitions trans0 =
        ws.controller.transitions();
    // Stripe-placement tallies live in the handle's session context (plain
    // uint64s — the handle is worker-private); snapshot them so the slice's
    // delta can be flushed into the registry like every other counter.
    sched::StripeStats stripe0{};
    if constexpr (requires(Handle& h) { h.stripe_stats(); }) {
      stripe0 = handle.stripe_stats();
    }
    std::uint64_t claims_made = 0;
    std::uint64_t labels_claimed = 0;
    obs::Histogram claim_sizes;  // worker-local; merged into wm at slice end
    std::uint32_t last_regime_claim = ws.controller.current();
    std::uint32_t iters = 0;
    while (!done_.load(std::memory_order_acquire) && iters < budget) {
      // Claim up to pop_batch labels (or the session controller's adaptive
      // size — claim feedback plus an occasional striped-size() occupancy
      // consult) in one scheduler touch, capped by the remaining budget so
      // the buffer is always fully drained before the slice returns.
      buffer.clear();
      const std::uint32_t want =
          ws.controller.next_claim(sched::QueueOccupancy<Queue>{queue_});
      const std::uint32_t claim = std::min<std::uint32_t>(want, budget - iters);
      const std::size_t got = sched::pop_batch(handle, claim, buffer);
      ws.controller.feedback(claim, static_cast<std::uint32_t>(got));
      ++claims_made;
      if (got > 0) {
        labels_claimed += got;
        claim_sizes.record(got);
      }
      if (trace != nullptr) {
        trace->record(worker, obs::EventKind::kClaim, trace->now_ns(), 0,
                      static_cast<std::uint32_t>(got));
        const std::uint32_t regime_claim = ws.controller.current();
        if (regime_claim != last_regime_claim) {
          trace->record(worker, obs::EventKind::kRegime, trace->now_ns(), 0,
                        regime_claim);
          last_regime_claim = regime_claim;
        }
      }
      if (buffer.empty()) {
        ++stats.empty_polls;
        check_done();
        // Prefer feeding the queue over spinning when admission is still
        // in flight; otherwise yield the worker to other jobs.
        if (admit_chunk(handle)) {
          progress = true;
          continue;
        }
        break;
      }
      progress = true;
      // Process the whole buffer before the next done_/budget check. A
      // buffered label is its task's only live pop (labels are unique in
      // the scheduler), so that task cannot retire elsewhere and the
      // retirement sum cannot reach n — termination can never fire while
      // labels sit here, provided none survive this loop. The same holds
      // for ws.reinsert: a buffered re-insertion is an unretired task.
      //
      // The claim names the next labels, so their problem state is
      // prefetched kPrefetchAhead labels ahead of processing: the random
      // state/priority/adjacency reads are what try_process waits on.
      if constexpr (kHasPrefetch) {
        for (std::size_t i = 0; i < std::min(got, kPrefetchAhead); ++i)
          problem_->prefetch(pri_->order[buffer[i]]);
      }
      std::uint32_t repeats = 0;  // most times a label here was blocked
      for (std::size_t i = 0; i < got; ++i) {
        if constexpr (kHasPrefetch) {
          if (i + kPrefetchAhead < got)
            problem_->prefetch(pri_->order[buffer[i + kPrefetchAhead]]);
        }
        ++iters;
        ++stats.iterations;
        const sched::Priority label = buffer[i];
        const core::Task task = pri_->order[label];
        switch (problem_->try_process(task)) {
          case core::Outcome::kProcessed:
            ++stats.processed;
            my_retired.fetch_add(1, std::memory_order_release);
            break;
          case core::Outcome::kNotReady:
            ++stats.failed_deletes;
            ws.reinsert.push_back(label);
            repeats = std::max(repeats, ws.note_blocked(label));
            break;
          case core::Outcome::kRetired:
            ++stats.dead_skips;
            my_retired.fetch_add(1, std::memory_order_release);
            break;
        }
      }
      // Flush the touch's kNotReady run before the next claim: one batched
      // insert per batched pop (the symmetric round trip). Holding the run
      // any longer makes those labels invisible to every other worker —
      // on an oversubscribed host a descheduled worker mid-slice would
      // hold dependency chains captive for a scheduler quantum while its
      // peers churn failed deletes against them.
      flush_reinserts(handle, ws);
      back_off(repeats);
    }
    // A no-op today (every touch flushed above), but the invariant — no
    // label may ever outlive its slice outside the scheduler — must hold
    // even if flushing ever becomes conditional, so drain defensively
    // before the final termination check and the slice return.
    flush_reinserts(handle, ws);
    check_done();
    // Slice telemetry: always into this worker's stripe (per-job slice
    // latency percentiles — the starvation metric), and the slice's deltas
    // into the engine registry when one is attached.
    const std::uint64_t slice_ns =
        static_cast<std::uint64_t>(slice_timer.seconds() * 1e9);
    ++stats.slices;
    stats.slice_latency_ns.record(slice_ns);
    if (wm != nullptr) {
      wm->claims.add(claims_made);
      wm->pops.add(labels_claimed);
      wm->claim_size.merge_from(claim_sizes);
      wm->processed.add(stats.processed - processed0);
      wm->failed_deletes.add(stats.failed_deletes - failed0);
      wm->dead_skips.add(stats.dead_skips - dead0);
      wm->empty_polls.add(stats.empty_polls - empty0);
      // Every kNotReady label was flushed back exactly once this slice.
      wm->reinserts.add(stats.failed_deletes - failed0);
      const sched::BatchController::Transitions& tr =
          ws.controller.transitions();
      wm->regime_ramps.add(tr.ramps - trans0.ramps);
      wm->regime_resets.add(tr.resets - trans0.resets);
      wm->regime_backlog_jumps.add(tr.backlog_jumps - trans0.backlog_jumps);
      wm->regime_drain_pins.add(tr.drain_pins - trans0.drain_pins);
      if constexpr (requires(Handle& h) { h.stripe_stats(); }) {
        const sched::StripeStats stripe = handle.stripe_stats();
        wm->numa_local_claims.add(stripe.local_claims - stripe0.local_claims);
        wm->numa_steal_claims.add(stripe.steal_claims - stripe0.steal_claims);
      }
      wm->current_claim.set(ws.controller.current());
    }
    return {iters, progress};
  }

 private:
  /// Shared by the public constructors, which then set queue_.
  RelaxedJob(P& problem, const graph::Priorities& pri, const JobConfig& cfg)
      : TaskJobBase(problem.num_tasks()),
        problem_(&problem),
        pri_(&pri),
        // Clamp defensively: a negative CLI value cast to uint32 would
        // otherwise make activate() reserve a multi-GiB buffer per worker.
        // The slice budget caps the effective batch per claim anyway.
        pop_batch_(std::clamp<std::uint32_t>(cfg.pop_batch, 1,
                                             JobConfig::kMaxPopBatch)),
        adaptive_(cfg.pop_batch_auto),
        weight_(std::clamp<std::uint32_t>(cfg.weight, 1,
                                          JobConfig::kMaxWeight)) {}

  /// Labels admitted per claimed chunk of the initial label range.
  static constexpr std::uint32_t kAdmissionBatch = 1024;
  /// Optional problem hook (core/problem.h): warm a task's state before
  /// try_process reaches it.
  static constexpr bool kHasPrefetch =
      requires(const P& p, core::Task t) { p.prefetch(t); };
  /// Labels between a prefetch and the try_process that uses it.
  static constexpr std::size_t kPrefetchAhead = 8;
  /// Pause after a claim whose label was blocked twice, in cpu_relax
  /// rounds; it doubles with each further block, kMaxBlockedDoublings
  /// times (64 << 8 rounds ≈ 0.3 ms at 17 ns each). After that the worker
  /// sleeps kBlockedSleep instead, giving its CPU to the stalled peer.
  static constexpr std::uint32_t kMinBlockedPause = 64;
  static constexpr std::uint32_t kMaxBlockedDoublings = 9;
  static constexpr std::chrono::microseconds kBlockedSleep{100};
  /// log2 of the per-worker table of recently blocked labels.
  static constexpr unsigned kBlockedTableLog2 = 8;

  /// One worker's scheduler session for this job: the cached handle, the
  /// batched-path buffers, the adaptive claim controller and the table of
  /// recently blocked labels that drives back_off. Owned by the
  /// job, keyed by the pool's stable worker id, and only ever touched by
  /// that worker's thread (run_slice) or by the reaper after quiescence
  /// (retire).
  struct WorkerState {
    std::optional<Handle> handle;           // created on first slice,
                                            // dropped by retire()
    std::vector<sched::Priority> popped;    // batched-pop landing buffer
    std::vector<sched::Priority> reinsert;  // kNotReady labels awaiting flush
    sched::BatchController controller;      // claim sizing (auto mode)
    // Labels this worker recently found kNotReady, hashed, with how many
    // times it did (label + 1, so the zeroed table matches none).
    struct Blocked {
      sched::Priority label_plus1 = 0;
      std::uint32_t times = 0;
    };
    std::array<Blocked, 1u << kBlockedTableLog2> blocked{};

    /// Records that `label` was kNotReady; returns how many times this
    /// worker has found it so (a table collision restarts the count).
    std::uint32_t note_blocked(sched::Priority label) noexcept {
      Blocked& b = blocked[(label * 0x9E3779B1u) >> (32 - kBlockedTableLog2)];
      if (b.label_plus1 != label + 1) b = {label + 1, 0};
      return ++b.times;
    }
  };

  /// Contention backoff between claims. A label this worker finds
  /// kNotReady again is stuck behind a blocker nobody is processing —
  /// typically one held in the claim of a peer the OS has descheduled.
  /// Until that peer runs again, every other worker would re-pop the
  /// labels stuck behind it, one failed delete each, for the whole stall.
  /// So after a claim in which some label was blocked for the r-th time
  /// (r >= 2), the worker pauses kMinBlockedPause << (r - 2) rounds, and
  /// sleeps once that ladder is spent: spinning would keep a descheduled
  /// peer off an oversubscribed CPU for longer. A label blocked once, the
  /// normal relaxed case, costs no pause. The blocked labels are already
  /// back in the scheduler, so a pausing worker holds nothing its peers
  /// need.
  static void back_off(std::uint32_t repeats) {
    if (repeats < 2) return;
    if (repeats - 2 >= kMaxBlockedDoublings) {
      std::this_thread::sleep_for(kBlockedSleep);
      return;
    }
    const std::uint32_t pause = kMinBlockedPause << (repeats - 2);
    for (std::uint32_t i = 0; i < pause; ++i) util::cpu_relax();
  }

  /// Flushes the worker's buffered kNotReady labels back into the
  /// scheduler as one batched insert (the backend's native path where one
  /// exists; singleton runs take the plain insert — see
  /// sched::insert_batch).
  template <typename Handle>
  void flush_reinserts(Handle& handle, WorkerState& ws) {
    if (ws.reinsert.empty()) return;
    sched::insert_batch(handle,
                        std::span<const sched::Priority>(ws.reinsert));
    ws.reinsert.clear();
  }

  /// Claims one chunk of the initial label range and inserts it. Multiple
  /// workers admit concurrently; the queue is live throughout.
  template <typename Handle>
  bool admit_chunk(Handle& handle) {
    if (load_cursor_.load(std::memory_order_relaxed) >= n_) return false;
    const std::uint64_t lo =
        load_cursor_.fetch_add(kAdmissionBatch, std::memory_order_acq_rel);
    if (lo >= n_) return false;
    const std::uint32_t hi = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(n_, lo + kAdmissionBatch));
    BatchInserter<Handle> inserter(handle, hi - static_cast<std::uint32_t>(lo));
    for (std::uint32_t label = static_cast<std::uint32_t>(lo); label < hi;
         ++label)
      inserter.push(label);
    return true;
  }

  P* problem_;
  const graph::Priorities* pri_;
  std::optional<Queue> owned_;  // engaged when the job owns its queue
  Queue* queue_ = nullptr;      // &*owned_, or the borrowed queue
  std::uint32_t pop_batch_;
  bool adaptive_;
  std::uint32_t weight_;        // QoS tenant weight (clamped)
  EngineContext ctx_;           // set by activate()
  std::vector<util::Padded<WorkerState>> workers_;
  std::atomic<std::uint64_t> load_cursor_{0};
};

/// The exact baseline (§4) as a job: tasks pre-loaded in strict priority
/// order into a wait-free FAA ticket dispenser. A dequeued task whose
/// predecessor is still undecided is *held* by the dequeuing worker (never
/// re-inserted) with exponential backoff; unlike the one-shot executor, the
/// backoff is bounded per slice so the worker stays available to other
/// in-flight jobs and retries the held task on its next visit.
template <core::Problem P>
class ExactJob : public TaskJobBase {
 public:
  ExactJob(P& problem, const graph::Priorities& pri,
           const JobConfig& cfg = {})
      : TaskJobBase(problem.num_tasks()),
        problem_(&problem),
        pri_(&pri),
        weight_(std::clamp<std::uint32_t>(cfg.weight, 1,
                                          JobConfig::kMaxWeight)) {}

  [[nodiscard]] std::uint32_t weight() const noexcept override {
    return weight_;
  }

  void activate(const EngineContext& ctx) override {
    // Load inside activation, after the timer reset in the base activate:
    // the n-label load is charged to the timed window exactly like the
    // relaxed jobs' batched admission — keeping relaxed-vs-exact wall-time
    // comparisons symmetric.
    TaskJobBase::activate(ctx);
    std::vector<std::uint32_t> labels(n_);
    std::iota(labels.begin(), labels.end(), 0u);
    queue_.load(std::move(labels));
    slots_ = std::vector<util::Padded<Slot>>(ctx.pool_width);
  }

  SliceResult run_slice(unsigned worker, std::uint32_t budget) override {
    if (finished()) return {};
    util::Timer slice_timer;  // slice latency -> this worker's stripe
    auto& stats = *stats_[worker];
    auto& my_retired = *retired_[worker];
    auto& slot = *slots_[worker];
    bool progress = false;
    std::uint32_t iters = 0;
    while (iters < budget) {
      if (!slot.has_pending) {
        const auto label = queue_.try_dequeue();
        if (!label) break;  // drained; held tasks may still be in flight
        slot.pending = *label;
        slot.has_pending = true;
        slot.pause = 1;
        ++stats.iterations;
        ++iters;
      }
      const core::Task task = pri_->order[slot.pending];
      const core::Outcome outcome = problem_->try_process(task);
      if (outcome == core::Outcome::kNotReady) {
        ++stats.failed_deletes;  // wasted work while waiting
        for (unsigned i = 0; i < slot.pause; ++i) util::cpu_relax();
        if (slot.pause >= kMaxPause) break;  // hold the task, free the worker
        slot.pause <<= 1;
        continue;
      }
      if (outcome == core::Outcome::kProcessed) {
        ++stats.processed;
      } else {
        ++stats.dead_skips;
      }
      my_retired.fetch_add(1, std::memory_order_release);
      slot.has_pending = false;
      progress = true;
    }
    check_done();
    ++stats.slices;
    stats.slice_latency_ns.record(
        static_cast<std::uint64_t>(slice_timer.seconds() * 1e9));
    return {iters, progress};
  }

 private:
  static constexpr unsigned kMaxPause = 4096;

  struct Slot {
    std::uint32_t pending = 0;
    bool has_pending = false;
    unsigned pause = 1;
  };

  P* problem_;
  const graph::Priorities* pri_;
  std::uint32_t weight_;  // QoS tenant weight (clamped)
  sched::FaaArrayQueue<std::uint32_t> queue_;
  std::vector<util::Padded<Slot>> slots_;
};

}  // namespace relax::engine
