// Statistical sanity checks of Theorems 1 and 2: these do not prove the
// bounds, but a regression that made the relaxation overhead scale with the
// input size would fail them. Margins are generous to avoid flakiness.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

#include "algorithms/coloring.h"
#include "algorithms/mis.h"
#include "core/sequential_executor.h"
#include "engine/engine.h"
#include "graph/generators.h"
#include "sched/sim_multiqueue.h"
#include "sched/topk_uniform.h"

namespace relax {
namespace {

using graph::Graph;

std::uint64_t mis_extra_iterations(const Graph& g, std::uint32_t k,
                                   std::uint64_t seed) {
  const auto pri = graph::random_priorities(g.num_vertices(), seed);
  algorithms::MisProblem problem(g, pri);
  sched::SimMultiQueue sched(k, seed + 1);
  return core::run_sequential(problem, pri, sched).failed_deletes;
}

TEST(Theorem2, MisOverheadIndependentOfGraphSize) {
  // n doubles 4x at fixed density and k; extra iterations must not grow
  // proportionally (they should stay roughly flat ~ poly(k)).
  constexpr std::uint32_t kK = 8;
  double small_avg = 0, large_avg = 0;
  constexpr int kRuns = 3;
  for (int r = 0; r < kRuns; ++r) {
    small_avg += static_cast<double>(
        mis_extra_iterations(graph::gnm(2000, 10000, r), kK, r + 10));
    large_avg += static_cast<double>(
        mis_extra_iterations(graph::gnm(32000, 160000, r), kK, r + 20));
  }
  small_avg /= kRuns;
  large_avg /= kRuns;
  // 16x more vertices; Theorem 2 says overhead is size-independent. Allow
  // a factor-4 drift for noise, far below proportional growth.
  EXPECT_LT(large_avg, std::max(small_avg * 4.0, 200.0))
      << "small=" << small_avg << " large=" << large_avg;
}

// The same property on the path users run: the 4-worker engine at the
// default JobConfig (adaptive claims, job-size claim cap). Concurrency and
// batched claims change the constant, not the size-independence. Every
// run counts: the mean is bounded like the sequential leg's, and the worst
// large run is bounded too, so one run whose count blows up (a worker
// stalled while holding claimed labels) cannot hide inside the mean.
TEST(Theorem2, EngineDefaultMisOverheadIndependentOfGraphSize) {
  engine::EngineOptions eo;
  eo.num_threads = 4;
  eo.pin_threads = false;
  engine::SchedulingEngine eng(eo);
  struct Failed {
    double mean = 0;
    std::uint64_t worst = 0;
  };
  const auto failed = [&eng](std::uint32_t n, std::uint64_t base) {
    constexpr int kRuns = 3;
    Failed f;
    for (int r = 0; r < kRuns; ++r) {
      const std::uint64_t seed = base + static_cast<std::uint64_t>(r);
      const Graph g = graph::gnm(n, 5ull * n, seed);
      const auto pri = graph::random_priorities(n, seed + 1);
      algorithms::AtomicMisProblem problem(g, pri);
      engine::JobConfig cfg;
      cfg.seed = seed + 2;
      const auto stats =
          eng.submit_relaxed_backend(problem, pri, sched::default_backend(),
                                     cfg)
              .wait();
      EXPECT_EQ(problem.result(), algorithms::sequential_greedy_mis(g, pri))
          << "n=" << n << " seed=" << seed;
      std::printf("engine default MIS: n=%u m=%u seed=%llu failed=%llu\n", n,
                  5 * n, static_cast<unsigned long long>(seed),
                  static_cast<unsigned long long>(stats.failed_deletes));
      f.mean += static_cast<double>(stats.failed_deletes) / kRuns;
      f.worst = std::max(f.worst, stats.failed_deletes);
    }
    return f;
  };
  const Failed small = failed(1u << 15, 900);
  const Failed large = failed(1u << 19, 910);
  // 16x more vertices; allow the same factor-4 drift as the sequential leg.
  const double bound = std::max(small.mean * 4.0, 200.0);
  EXPECT_LT(large.mean, bound)
      << "small=" << small.mean << " large=" << large.mean;
  EXPECT_LT(static_cast<double>(large.worst), 2.0 * bound)
      << "small=" << small.mean << " worst large=" << large.worst;
}

TEST(Theorem2, MisOverheadIndependentOfDensity) {
  constexpr std::uint32_t kK = 8;
  double sparse = 0, dense = 0;
  constexpr int kRuns = 3;
  for (int r = 0; r < kRuns; ++r) {
    sparse += static_cast<double>(
        mis_extra_iterations(graph::gnm(5000, 10000, r), kK, r + 30));
    dense += static_cast<double>(
        mis_extra_iterations(graph::gnm(5000, 200000, r), kK, r + 40));
  }
  sparse /= kRuns;
  dense /= kRuns;
  EXPECT_LT(dense, std::max(sparse * 4.0, 200.0))
      << "sparse=" << sparse << " dense=" << dense;
}

TEST(Theorem2, OverheadGrowsWithK) {
  const Graph g = graph::gnm(10000, 30000, 5);
  double k4 = 0, k64 = 0;
  for (int r = 0; r < 3; ++r) {
    k4 += static_cast<double>(mis_extra_iterations(g, 4, r + 50));
    k64 += static_cast<double>(mis_extra_iterations(g, 64, r + 60));
  }
  EXPECT_LT(k4, k64);
}

TEST(Theorem1, CliqueColoringCostsAboutNK) {
  // The tightness example: greedy coloring on K_n with a k-relaxed queue
  // needs Theta(nk) iterations. Check both directions loosely.
  constexpr std::uint32_t kN = 200;
  for (const std::uint32_t k : {4u, 16u}) {
    const Graph g = graph::clique(kN);
    const auto pri = graph::random_priorities(kN, k);
    algorithms::ColoringProblem problem(g, pri);
    // Canonical top-k queue gives the cleanest Theta(nk) behaviour.
    sched::TopKUniformScheduler sched(kN, k, k + 1);
    const auto stats = core::run_sequential(problem, pri, sched);
    // Lower bound: at least ~ n*(k-1)/k * (k-1)/2 ... use a weak floor.
    EXPECT_GT(stats.failed_deletes, static_cast<std::uint64_t>(kN) * k / 8)
        << "k=" << k;
    // Upper: a few nk.
    EXPECT_LT(stats.failed_deletes, static_cast<std::uint64_t>(kN) * k * 8)
        << "k=" << k;
  }
}

TEST(Theorem1, SparseColoringOverheadSmall) {
  // m = O(n): Theorem 1 predicts poly(k) overhead, independent of n.
  constexpr std::uint32_t kK = 8;
  double small = 0, large = 0;
  for (int r = 0; r < 3; ++r) {
    {
      const Graph g = graph::gnm(4000, 8000, r);
      const auto pri = graph::random_priorities(4000, r + 70);
      algorithms::ColoringProblem p(g, pri);
      sched::SimMultiQueue s(kK, r + 71);
      small += static_cast<double>(
          core::run_sequential(p, pri, s).failed_deletes);
    }
    {
      const Graph g = graph::gnm(32000, 64000, r);
      const auto pri = graph::random_priorities(32000, r + 80);
      algorithms::ColoringProblem p(g, pri);
      sched::SimMultiQueue s(kK, r + 81);
      large += static_cast<double>(
          core::run_sequential(p, pri, s).failed_deletes);
    }
  }
  EXPECT_LT(large / 3, std::max(small / 3 * 4.0, 300.0));
}

}  // namespace
}  // namespace relax
