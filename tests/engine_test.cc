// SchedulingEngine behaviour: multi-tenant determinism (every job's decided
// outcome equals its sequential execution under the same pi, even with
// heterogeneous jobs in flight on a shared pool — the concurrent-submission
// analogue of determinism_property_test.cc), admission backpressure
// (blocking, never dropping), scheduler plug-ins through the job layer, and
// the opt-in relaxation-quality audit mode.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "algorithms/coloring.h"
#include "algorithms/knuth_shuffle.h"
#include "algorithms/list_contraction.h"
#include "algorithms/matching.h"
#include "algorithms/mis.h"
#include "algorithms/sssp.h"
#include "engine/engine.h"
#include "graph/generators.h"
#include "obs/metrics.h"
#include "sched/concurrent_multiqueue.h"
#include "sched/kbounded.h"
#include "sched/spraylist.h"
#include "util/topology.h"

namespace relax::engine {
namespace {

using graph::Graph;

EngineOptions engine_opts(unsigned threads, unsigned in_flight,
                          std::size_t max_pending = 64) {
  EngineOptions opts;
  opts.num_threads = threads;
  opts.pin_threads = false;  // CI-style environment friendliness
  opts.max_in_flight = in_flight;
  opts.max_pending = max_pending;
  return opts;
}

JobConfig job_cfg(std::uint64_t seed) {
  JobConfig cfg;
  cfg.seed = seed;
  return cfg;
}

/// A relaxed job on the registry's default backend.
template <core::Problem P>
JobTicket submit_default(SchedulingEngine& eng, P& problem,
                         const graph::Priorities& pri,
                         const JobConfig& cfg = {}) {
  return eng.submit_relaxed_backend(problem, pri, sched::default_backend(),
                                    cfg);
}

TEST(SchedulingEngine, SingleJobMatchesSequential) {
  const Graph g = graph::gnm(3000, 20000, 3);
  const auto pri = graph::random_priorities(3000, 7);
  const auto expected = algorithms::sequential_greedy_mis(g, pri);
  SchedulingEngine eng(engine_opts(4, 1));
  algorithms::AtomicMisProblem problem(g, pri);
  const auto stats = submit_default(eng, problem, pri, job_cfg(1)).wait();
  EXPECT_EQ(problem.result(), expected);
  EXPECT_EQ(stats.processed + stats.dead_skips, 3000u);
  EXPECT_EQ(stats.iterations,
            stats.processed + stats.failed_deletes + stats.dead_skips);
  EXPECT_EQ(eng.jobs_completed(), 1u);
}

// The headline multi-tenant property: heterogeneous jobs (MIS, coloring,
// matching, list contraction, shuffle) submitted concurrently from several
// client threads, multiplexed over one pool, each still produces exactly
// its sequential outcome.
TEST(SchedulingEngine, ConcurrentHeterogeneousJobsAreDeterministic) {
  const Graph g1 = graph::gnm(2000, 12000, 11);
  const auto pri1 = graph::random_priorities(2000, 13);
  const auto mis_expected = algorithms::sequential_greedy_mis(g1, pri1);

  const Graph g2 = graph::gnm(1500, 10000, 17);
  const auto pri2 = graph::random_priorities(1500, 19);
  const auto color_expected = algorithms::sequential_greedy_coloring(g2, pri2);

  const Graph g3 = graph::gnm(800, 5000, 23);
  const algorithms::EdgeIncidence inc(g3);
  const auto pri3 = graph::random_priorities(inc.num_edges(), 29);
  const auto match_expected = algorithms::sequential_greedy_matching(inc, pri3);

  std::vector<std::uint32_t> arr(3000);
  std::iota(arr.begin(), arr.end(), 0u);
  const auto pri4 = graph::random_priorities(3000, 31);
  const auto contraction_expected =
      algorithms::sequential_list_contraction(arr, pri4);

  SchedulingEngine eng(engine_opts(4, 3));

  algorithms::AtomicMisProblem mis(g1, pri1);
  algorithms::AtomicColoringProblem coloring(g2, pri2);
  algorithms::AtomicMatchingProblem matching(inc, pri3);
  algorithms::AtomicListContractionProblem contraction(arr, pri4);

  // Each client thread submits one job and waits on its own ticket.
  std::vector<std::jthread> clients;
  clients.emplace_back([&] {
    const auto stats = submit_default(eng, mis, pri1, job_cfg(2)).wait();
    EXPECT_EQ(stats.processed + stats.dead_skips, 2000u);
  });
  clients.emplace_back([&] {
    submit_default(eng, coloring, pri2, job_cfg(3)).wait();
  });
  clients.emplace_back([&] {
    submit_default(eng, matching, pri3, job_cfg(5)).wait();
  });
  clients.emplace_back([&] {
    using ExactContraction =
        ExactJob<algorithms::AtomicListContractionProblem>;
    eng.submit(std::make_shared<ExactContraction>(contraction, pri4,
                                                  job_cfg(7)))
        .wait();
  });
  clients.clear();  // join all

  EXPECT_EQ(mis.result(), mis_expected);
  EXPECT_EQ(coloring.colors(), color_expected);
  EXPECT_EQ(matching.result(), match_expected);
  EXPECT_EQ(contraction.trace(), contraction_expected);
  EXPECT_EQ(eng.jobs_completed(), 4u);
}

// A stream of jobs far longer than max_in_flight/max_pending, submitted
// from multiple threads, all on one persistent pool.
TEST(SchedulingEngine, JobStreamFromMultipleSubmitters) {
  const Graph g = graph::gnm(600, 4000, 37);
  const auto pri = graph::random_priorities(600, 41);
  const auto mis_expected = algorithms::sequential_greedy_mis(g, pri);
  const auto color_expected = algorithms::sequential_greedy_coloring(g, pri);

  constexpr int kPerClient = 8;
  SchedulingEngine eng(engine_opts(4, 2, /*max_pending=*/4));

  std::vector<algorithms::AtomicMisProblem> mis_problems;
  std::vector<algorithms::AtomicColoringProblem> color_problems;
  for (int i = 0; i < kPerClient; ++i) {
    mis_problems.emplace_back(g, pri);
    color_problems.emplace_back(g, pri);
  }
  {
    std::jthread mis_client([&] {
      for (int i = 0; i < kPerClient; ++i)
        submit_default(eng, mis_problems[i], pri, job_cfg(100 + i)).wait();
    });
    std::jthread color_client([&] {
      for (int i = 0; i < kPerClient; ++i)
        submit_default(eng, color_problems[i], pri, job_cfg(200 + i)).wait();
    });
  }
  for (int i = 0; i < kPerClient; ++i) {
    EXPECT_EQ(mis_problems[i].result(), mis_expected) << "job " << i;
    EXPECT_EQ(color_problems[i].colors(), color_expected) << "job " << i;
  }
  EXPECT_EQ(eng.jobs_completed(), 2u * kPerClient);
}

// Problem whose tasks all spin on a shared gate: keeps a job "running"
// deterministically so admission-queue states can be scripted.
class GatedProblem {
 public:
  GatedProblem(std::uint32_t n, const std::atomic<bool>& gate)
      : n_(n), gate_(&gate) {}
  [[nodiscard]] std::uint32_t num_tasks() const { return n_; }
  core::Outcome try_process(core::Task /*t*/) {
    return gate_->load(std::memory_order_acquire) ? core::Outcome::kProcessed
                                                  : core::Outcome::kNotReady;
  }

 private:
  std::uint32_t n_;
  const std::atomic<bool>* gate_;
};

// Backpressure: with max_in_flight=1 and max_pending=1, a third submission
// must BLOCK until the gated first job completes — not drop, not return.
TEST(SchedulingEngine, AdmissionQueueBlocksInsteadOfDropping) {
  std::atomic<bool> gate{false};
  GatedProblem j1(64, gate), j2(64, gate), j3(64, gate);
  const auto pri = graph::identity_priorities(64);

  SchedulingEngine eng(engine_opts(2, /*in_flight=*/1, /*max_pending=*/1));
  auto t1 = submit_default(eng, j1, pri, job_cfg(1));  // active, gated
  auto t2 = submit_default(eng, j2, pri, job_cfg(2));  // fills the queue

  std::atomic<bool> third_submitted{false};
  JobTicket t3;
  std::jthread submitter([&] {
    t3 = submit_default(eng, j3, pri, job_cfg(3));  // must block here
    third_submitted.store(true, std::memory_order_release);
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(third_submitted.load(std::memory_order_acquire))
      << "submit returned while the admission queue was full";

  gate.store(true, std::memory_order_release);
  submitter.join();
  EXPECT_TRUE(third_submitted.load());
  const auto s1 = t1.wait();
  t2.wait();
  t3.wait();
  EXPECT_EQ(s1.processed, 64u);
  EXPECT_GT(s1.failed_deletes, 0u);  // the gate forced re-insertions
  EXPECT_EQ(eng.jobs_completed(), 3u);
}

// Caller-owned schedulers ride through the same engine: a SprayList and a
// lock-serialized deterministic k-bounded scheduler.
TEST(SchedulingEngine, PluggableSchedulersStayDeterministic) {
  const Graph g = graph::gnm(1500, 9000, 43);
  const auto pri = graph::random_priorities(1500, 47);
  const auto expected = algorithms::sequential_greedy_mis(g, pri);
  SchedulingEngine eng(engine_opts(4, 2));
  {
    algorithms::AtomicMisProblem problem(g, pri);
    sched::SprayList list(4, 51);
    eng.submit_relaxed_on(problem, pri, list, job_cfg(1)).wait();
    EXPECT_EQ(problem.result(), expected);
  }
  {
    algorithms::AtomicMisProblem problem(g, pri);
    sched::LockedScheduler<sched::KBoundedScheduler> kbounded(64u);
    eng.submit_relaxed_on(problem, pri, kbounded, job_cfg(1)).wait();
    EXPECT_EQ(problem.result(), expected);
  }
}

// ConcurrentMultiQueue wrapper whose handle constructions are counted: the
// seam proving sched::make_handle runs at most once per (worker, job) now
// that handles live in per-worker scheduler sessions instead of being
// rebuilt every run_slice.
class CountingHandleQueue {
 public:
  CountingHandleQueue(std::uint32_t queues, std::uint64_t seed)
      : inner_(queues, seed) {}

  auto get_handle() {
    handles_created_.fetch_add(1, std::memory_order_relaxed);
    return inner_.get_handle();
  }
  [[nodiscard]] std::size_t size() const { return inner_.size(); }
  [[nodiscard]] std::uint64_t handles_created() const {
    return handles_created_.load(std::memory_order_relaxed);
  }

 private:
  sched::ConcurrentMultiQueue inner_;
  std::atomic<std::uint64_t> handles_created_{0};
};

// Scheduler-session lifetime: a worker's cached handle survives across all
// of its slices (handle constructions bounded by the pool width, while the
// tiny slice budget forces hundreds of slices), and a second job over the
// SAME caller-owned queue rebuilds fresh sessions after the first job's
// retirement — again at most one handle per worker.
TEST(SchedulingEngine, HandleCreatedAtMostOncePerWorkerPerJob) {
  const Graph g = graph::gnm(3000, 20000, 83);
  const auto pri = graph::random_priorities(3000, 89);
  const auto expected = algorithms::sequential_greedy_mis(g, pri);
  CountingHandleQueue queue(8, 97);
  auto opts = engine_opts(2, 1);
  opts.slice_budget = 16;  // >> slices than workers: caching must show
  SchedulingEngine eng(opts);
  {
    algorithms::AtomicMisProblem problem(g, pri);
    const auto stats =
        eng.submit_relaxed_on(problem, pri, queue, job_cfg(1)).wait();
    EXPECT_EQ(problem.result(), expected);
    // The job genuinely ran in many slices (>= iterations / budget), so a
    // per-slice make_handle would have created hundreds of handles.
    EXPECT_GE(stats.iterations, 3000u);
  }
  const std::uint64_t first = queue.handles_created();
  EXPECT_GE(first, 1u);
  EXPECT_LE(first, 2u);  // at most one per worker
  {
    algorithms::AtomicMisProblem problem(g, pri);
    eng.submit_relaxed_on(problem, pri, queue, job_cfg(2)).wait();
    EXPECT_EQ(problem.result(), expected);
  }
  const std::uint64_t second = queue.handles_created() - first;
  EXPECT_GE(second, 1u);  // retirement dropped job 1's sessions: rebuilt
  EXPECT_LE(second, 2u);
}

// Opt-in audit mode: stats must carry Definition 1 quality samples, and the
// monitored run must still decide the sequential outcome.
TEST(SchedulingEngine, MonitoredJobReportsRelaxationQuality) {
  const Graph g = graph::gnm(2000, 12000, 53);
  const auto pri = graph::random_priorities(2000, 59);
  const auto expected = algorithms::sequential_greedy_mis(g, pri);
  SchedulingEngine eng(engine_opts(4, 1));
  algorithms::AtomicMisProblem problem(g, pri);
  JobConfig cfg = job_cfg(61);
  cfg.monitor_relaxation = true;
  cfg.monitor_stride = 16;
  const auto stats = submit_default(eng, problem, pri, cfg).wait();
  EXPECT_EQ(problem.result(), expected);
  EXPECT_GT(stats.rank_samples, 0u);
  EXPECT_EQ(stats.rank_samples, stats.iterations);  // every pop sampled
  EXPECT_GT(stats.inversion_samples, 0u);
  EXPECT_GE(stats.max_rank_error, static_cast<std::uint64_t>(
                                      stats.mean_rank_error));
  // Unmonitored runs must not report quality fields.
  algorithms::AtomicMisProblem plain(g, pri);
  const auto plain_stats = submit_default(eng, plain, pri, job_cfg(61)).wait();
  EXPECT_EQ(plain_stats.rank_samples, 0u);
}

TEST(SchedulingEngine, EmptyJobCompletesImmediately) {
  SchedulingEngine eng(engine_opts(2, 1));
  const auto pri = graph::identity_priorities(0);
  std::atomic<bool> gate{true};
  GatedProblem empty(0, gate);
  const auto stats = submit_default(eng, empty, pri, job_cfg(1)).wait();
  EXPECT_EQ(stats.processed, 0u);
  EXPECT_EQ(stats.iterations, 0u);
}

// Synthetic tenant for the QoS legs: consumes its whole granted budget
// every slice (uniform per-iteration cost) until the shared stop flag
// flips, counting consumed iterations and the budget range it was granted.
class SpinJob final : public Job {
 public:
  SpinJob(std::uint32_t weight, const std::atomic<bool>* stop)
      : weight_(weight), stop_(stop) {}

  void activate(const EngineContext&) override {}

  SliceResult run_slice(unsigned, std::uint32_t budget) override {
    std::uint32_t prev = min_budget_.load(std::memory_order_relaxed);
    while (budget < prev &&
           !min_budget_.compare_exchange_weak(prev, budget,
                                              std::memory_order_relaxed)) {
    }
    prev = max_budget_.load(std::memory_order_relaxed);
    while (budget > prev &&
           !max_budget_.compare_exchange_weak(prev, budget,
                                              std::memory_order_relaxed)) {
    }
    if (stop_->load(std::memory_order_relaxed)) return {};
    std::uint32_t done = 0;
    while (done < budget && !stop_->load(std::memory_order_relaxed)) {
      volatile std::uint64_t sink = 0;
      for (std::uint32_t i = 0; i < 64; ++i) sink += i;
      ++done;
    }
    iterations_.fetch_add(done, std::memory_order_relaxed);
    return {done, done > 0};
  }

  [[nodiscard]] std::uint32_t weight() const noexcept override {
    return weight_;
  }
  [[nodiscard]] bool finished() const noexcept override {
    return stop_->load(std::memory_order_acquire);
  }
  core::ExecutionStats collect() override { return {}; }

  [[nodiscard]] std::uint64_t iterations() const noexcept {
    return iterations_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint32_t min_budget() const noexcept {
    return min_budget_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint32_t max_budget() const noexcept {
    return max_budget_.load(std::memory_order_relaxed);
  }

 private:
  const std::uint32_t weight_;
  const std::atomic<bool>* stop_;
  std::atomic<std::uint64_t> iterations_{0};
  std::atomic<std::uint32_t> min_budget_{
      std::numeric_limits<std::uint32_t>::max()};
  std::atomic<std::uint32_t> max_budget_{0};
};

// The QoS acceptance bar: a weight-2 tenant co-scheduled with a weight-1
// tenant on a saturated two-worker pool must capture at least a 1.5x share
// of the processed work (the governor targets 2x; 1.5 leaves scheduler
// noise room).
TEST(SchedulingEngine, WeightedTenantsShareThePoolByWeight) {
  std::atomic<bool> stop{false};
  auto heavy = std::make_shared<SpinJob>(2, &stop);
  auto light = std::make_shared<SpinJob>(1, &stop);
  auto opts = engine_opts(2, /*in_flight=*/2);
  opts.slice_budget = 256;
  SchedulingEngine eng(opts);
  auto t1 = eng.submit(heavy);
  auto t2 = eng.submit(light);
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  stop.store(true, std::memory_order_release);
  t1.wait();
  t2.wait();

  const std::uint64_t h = heavy->iterations();
  const std::uint64_t l = light->iterations();
  ASSERT_GT(l, 0u);
  const double ratio = static_cast<double>(h) / static_cast<double>(l);
  EXPECT_GE(ratio, 1.5) << "heavy=" << h << " light=" << l;
  // Sanity in the other direction: weighted sharing, not starvation — the
  // light tenant must still see a nontrivial share.
  EXPECT_LT(ratio, 8.0) << "heavy=" << h << " light=" << l;
}

// Solo-tenant bypass: a job that owns the pool gets the full configured
// slice budget on every visit — weighted sharing must cost nothing when
// there is nobody to share with.
TEST(SchedulingEngine, SoloJobAlwaysGetsFullSliceBudget) {
  std::atomic<bool> stop{false};
  auto job = std::make_shared<SpinJob>(3, &stop);
  auto opts = engine_opts(2, /*in_flight=*/2);
  opts.slice_budget = 256;
  SchedulingEngine eng(opts);
  auto ticket = eng.submit(job);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  stop.store(true, std::memory_order_release);
  ticket.wait();
  EXPECT_GT(job->iterations(), 0u);
  EXPECT_EQ(job->min_budget(), 256u);
  EXPECT_EQ(job->max_budget(), 256u);
}

TEST(SchedulingEngine, DestructorDrainsOutstandingJobs) {
  const Graph g = graph::gnm(1000, 6000, 67);
  const auto pri = graph::random_priorities(1000, 71);
  const auto expected = algorithms::sequential_greedy_mis(g, pri);
  std::vector<algorithms::AtomicMisProblem> problems;
  for (int i = 0; i < 4; ++i) problems.emplace_back(g, pri);
  {
    SchedulingEngine eng(engine_opts(4, 2));
    for (auto& p : problems) submit_default(eng, p, pri, job_cfg(5));
    // No wait(): the destructor must finish all four jobs.
  }
  for (auto& p : problems) EXPECT_EQ(p.result(), expected);
}

// The shipped default claims in batches: a default-JobConfig job is
// adaptive, so the registry sees more labels than claims, and the result
// is still the sequential MIS. SSSP's standalone executor ships the same
// default.
TEST(SchedulingEngine, DefaultConfigClaimsInBatches) {
  EXPECT_TRUE(JobConfig{}.pop_batch_auto);
  EXPECT_EQ(JobConfig{}.pop_batch, JobConfig::kDefaultAutoPopBatch);
  EXPECT_TRUE(algorithms::SsspOptions{}.pop_batch_auto);
  EXPECT_EQ(algorithms::SsspOptions{}.pop_batch,
            JobConfig::kDefaultAutoPopBatch);
  const Graph g = graph::gnm(50000, 250000, 101);
  const auto pri = graph::random_priorities(50000, 103);
  obs::MetricsRegistry registry;
  auto opts = engine_opts(4, 1);
  opts.metrics = &registry;
  SchedulingEngine eng(opts);
  algorithms::AtomicMisProblem problem(g, pri);
  submit_default(eng, problem, pri).wait();
  EXPECT_EQ(problem.result(), algorithms::sequential_greedy_mis(g, pri));
  std::uint64_t pops = 0, claims = 0;
  for (const auto& w : registry.snapshot().workers) {
    pops += w.pops;
    claims += w.claims;
  }
  EXPECT_GT(pops, claims);
}

// Job-size claim cap: a 4k-task adaptive job on 2 workers never claims
// more than n / (2 * kAutoCapTasksPerClaim) labels per touch.
TEST(SchedulingEngine, SmallAdaptiveJobCapsClaimsByJobSize) {
  constexpr std::uint32_t kN = 4000;
  const Graph g = graph::gnm(kN, 24000, 107);
  const auto pri = graph::random_priorities(kN, 109);
  obs::MetricsRegistry registry;
  auto opts = engine_opts(2, 1);
  opts.metrics = &registry;
  SchedulingEngine eng(opts);
  algorithms::AtomicMisProblem problem(g, pri);
  submit_default(eng, problem, pri).wait();
  EXPECT_EQ(problem.result(), algorithms::sequential_greedy_mis(g, pri));
  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_GT(snap.claim_size.max(), 1u);  // the job did claim in batches
  EXPECT_LE(snap.claim_size.max(), kN / (2 * JobConfig::kAutoCapTasksPerClaim));
}

// A job built outside the engine and handed to plain try_submit still gets
// the engine's context at activation: it reports into the engine's
// registry and its sessions follow the engine's (virtual:2) placement.
TEST(SchedulingEngine, PrebuiltJobGetsEngineTelemetryAndPlacement) {
  const Graph g = graph::gnm(20000, 100000, 131);
  const auto pri = graph::random_priorities(20000, 137);
  obs::MetricsRegistry registry;
  auto opts = engine_opts(2, 1);
  opts.metrics = &registry;
  opts.topology = *util::TopologySpec::parse("virtual:2");
  SchedulingEngine eng(opts);
  algorithms::AtomicMisProblem problem(g, pri);
  auto job = make_backend_job(sched::default_backend(), problem, pri,
                              eng.width(), job_cfg(9));
  auto ticket = eng.try_submit(std::move(job));
  ASSERT_TRUE(ticket.has_value());
  const auto stats = ticket->wait();
  EXPECT_EQ(problem.result(), algorithms::sequential_greedy_mis(g, pri));
  std::uint64_t processed = 0, placed_claims = 0;
  for (const auto& w : registry.snapshot().workers) {
    processed += w.processed;
    placed_claims += w.numa_local_claims + w.numa_steal_claims;
  }
  EXPECT_GT(stats.processed, 0u);
  EXPECT_EQ(processed, stats.processed);
  EXPECT_GT(placed_claims, 0u);
}

/// AtomicMisProblem plus the optional prefetch hook, counting its calls.
class CountingPrefetchMis {
 public:
  CountingPrefetchMis(const Graph& g, const graph::Priorities& pri)
      : inner_(g, pri) {}
  [[nodiscard]] std::uint32_t num_tasks() const noexcept {
    return inner_.num_tasks();
  }
  core::Outcome try_process(core::Task t) { return inner_.try_process(t); }
  void prefetch(core::Task t) const noexcept {
    calls_.fetch_add(1, std::memory_order_relaxed);
    if (t >= inner_.num_tasks())
      out_of_range_.fetch_add(1, std::memory_order_relaxed);
  }
  [[nodiscard]] std::vector<std::uint8_t> result() const {
    return inner_.result();
  }
  [[nodiscard]] std::uint64_t calls() const { return calls_.load(); }
  [[nodiscard]] std::uint64_t out_of_range() const {
    return out_of_range_.load();
  }

 private:
  algorithms::AtomicMisProblem inner_;
  mutable std::atomic<std::uint64_t> calls_{0};
  mutable std::atomic<std::uint64_t> out_of_range_{0};
};

// The engine calls the hook, only for claimed labels' tasks, at most once
// per popped label, and the hook leaves the decided outcome unchanged.
TEST(SchedulingEngine, PrefetchHookRunsOncePerPoppedLabelAtMost) {
  const Graph g = graph::gnm(20000, 100000, 113);
  const auto pri = graph::random_priorities(20000, 127);
  SchedulingEngine eng(engine_opts(4, 1));
  CountingPrefetchMis hooked(g, pri);
  const auto stats = submit_default(eng, hooked, pri, job_cfg(3)).wait();
  algorithms::AtomicMisProblem plain(g, pri);
  submit_default(eng, plain, pri, job_cfg(3)).wait();
  EXPECT_GT(hooked.calls(), 0u);
  EXPECT_EQ(hooked.out_of_range(), 0u);
  EXPECT_LE(hooked.calls(), stats.iterations);
  EXPECT_EQ(hooked.result(), plain.result());
  EXPECT_EQ(plain.result(), algorithms::sequential_greedy_mis(g, pri));
}

// Task 0 stays kNotReady until a deadline, like a blocker held by a
// descheduled worker; every other task processes at once.
class StalledBlockerProblem {
 public:
  StalledBlockerProblem(std::uint32_t n, std::chrono::milliseconds stall)
      : n_(n), until_(std::chrono::steady_clock::now() + stall) {}
  [[nodiscard]] std::uint32_t num_tasks() const { return n_; }
  core::Outcome try_process(core::Task t) {
    if (t == 0 && std::chrono::steady_clock::now() < until_)
      return core::Outcome::kNotReady;
    return core::Outcome::kProcessed;
  }

 private:
  std::uint32_t n_;
  std::chrono::steady_clock::time_point until_;
};

// Workers back off from a label they keep finding blocked. Through a
// 30 ms stall, re-popping the lone stuck label without a pause costs
// tens of thousands of failed deletes; with the backoff ladder (spins,
// then 100 us sleeps) each of the 2 workers fails it a few hundred times.
TEST(SchedulingEngine, RepeatBlockedLabelBacksOff) {
  constexpr std::uint32_t kN = 256;
  const auto pri = graph::identity_priorities(kN);
  SchedulingEngine eng(engine_opts(2, 1));
  StalledBlockerProblem problem(kN, std::chrono::milliseconds(30));
  const auto stats = submit_default(eng, problem, pri, job_cfg(7)).wait();
  EXPECT_EQ(stats.processed, kN);
  EXPECT_GT(stats.failed_deletes, 0u);
  EXPECT_LT(stats.failed_deletes, 2000u);
}

}  // namespace
}  // namespace relax::engine
