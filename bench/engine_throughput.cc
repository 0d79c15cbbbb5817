// Engine experiment — sustained multi-job throughput of the persistent
// SchedulingEngine: a stream of mixed framework jobs (relaxed MIS, greedy
// coloring, maximal matching, plus the exact-baseline MIS) submitted from
// concurrent feeder threads onto one long-lived pinned worker pool,
// sweeping pool width and the number of jobs multiplexed in flight.
//
// This is the service-shaped counterpart of fig2_concurrent_mis: instead of
// one problem per freshly spawned thread set, the pool stays hot and jobs
// share it, so the figure of merit is jobs/sec (and per-job latency), not
// single-run wall time. SSSP is deliberately absent from the mix: it is not
// in the paper's deterministic framework class (§2.2 — its priority order
// must follow distances, see src/algorithms/sssp.h), so it cannot ride the
// generic Problem adapter.
//
// Usage: engine_throughput [--jobs=120] [--threads=1,2,4] [--inflight=1,4,8]
//                          [--feeders=2] [--scale=1.0] [--seed=1]
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "algorithms/coloring.h"
#include "algorithms/matching.h"
#include "algorithms/mis.h"
#include "engine/engine.h"
#include "graph/generators.h"
#include "graph/permutation.h"
#include "util/cli.h"
#include "util/timer.h"

namespace {

using relax::graph::Graph;
using relax::graph::Priorities;

struct RequestMix {
  Graph mis_graph;
  Priorities mis_pri;
  Graph color_graph;
  Priorities color_pri;
  Graph match_graph;
  std::unique_ptr<relax::algorithms::EdgeIncidence> incidence;
  Priorities match_pri;
};

// Per-job problem storage: problems must outlive their tickets, so each
// feeder owns the problems for the jobs it submits.
struct ProblemArena {
  std::vector<std::unique_ptr<relax::algorithms::AtomicMisProblem>> mis;
  std::vector<std::unique_ptr<relax::algorithms::AtomicColoringProblem>> color;
  std::vector<std::unique_ptr<relax::algorithms::AtomicMatchingProblem>> match;
};

relax::engine::JobTicket submit_one(relax::engine::SchedulingEngine& eng,
                                    const RequestMix& mix, ProblemArena& arena,
                                    int kind, std::uint64_t seed) {
  using relax::algorithms::AtomicMisProblem;
  relax::engine::JobConfig cfg;
  cfg.seed = seed;
  const relax::sched::BackendInfo& backend = relax::sched::default_backend();
  switch (kind) {
    case 0: {
      arena.mis.push_back(
          std::make_unique<AtomicMisProblem>(mix.mis_graph, mix.mis_pri));
      return eng.submit_relaxed_backend(*arena.mis.back(), mix.mis_pri,
                                        backend, cfg);
    }
    case 1: {
      arena.color.push_back(
          std::make_unique<relax::algorithms::AtomicColoringProblem>(
              mix.color_graph, mix.color_pri));
      return eng.submit_relaxed_backend(*arena.color.back(), mix.color_pri,
                                        backend, cfg);
    }
    case 2: {
      arena.match.push_back(
          std::make_unique<relax::algorithms::AtomicMatchingProblem>(
              *mix.incidence, mix.match_pri));
      return eng.submit_relaxed_backend(*arena.match.back(), mix.match_pri,
                                        backend, cfg);
    }
    default: {  // exact-baseline MIS
      arena.mis.push_back(
          std::make_unique<AtomicMisProblem>(mix.mis_graph, mix.mis_pri));
      using ExactMis = relax::engine::ExactJob<AtomicMisProblem>;
      return eng.submit(
          std::make_shared<ExactMis>(*arena.mis.back(), mix.mis_pri, cfg));
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const relax::util::CommandLine cli(argc, argv);
  const int jobs = static_cast<int>(cli.get_int("jobs", 120));
  const int feeders = static_cast<int>(cli.get_int("feeders", 2));
  const double scale = cli.get_double("scale", 1.0);
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const auto thread_list = cli.get_int_list("threads", {1, 2, 4});
  const auto inflight_list = cli.get_int_list("inflight", {1, 4, 8});

  const auto n = [&](double base) {
    return static_cast<std::uint32_t>(base * scale);
  };
  const auto m = [&](double base) {
    return static_cast<std::uint64_t>(base * scale);
  };

  RequestMix mix;
  mix.mis_graph = relax::graph::gnm(n(2000), m(12000), seed);
  mix.mis_pri = relax::graph::random_priorities(n(2000), seed + 1);
  mix.color_graph = relax::graph::gnm(n(1500), m(9000), seed + 2);
  mix.color_pri = relax::graph::random_priorities(n(1500), seed + 3);
  mix.match_graph = relax::graph::gnm(n(1000), m(5000), seed + 4);
  mix.incidence =
      std::make_unique<relax::algorithms::EdgeIncidence>(mix.match_graph);
  mix.match_pri =
      relax::graph::random_priorities(mix.incidence->num_edges(), seed + 5);

  std::printf(
      "# engine_throughput: %d mixed jobs (MIS/coloring/matching/exact-MIS) "
      "per config, %d feeder threads\n",
      jobs, feeders);
  std::printf("%8s %9s %10s %12s %14s %14s\n", "threads", "inflight",
              "seconds", "jobs/sec", "iterations", "wasted");

  for (const auto threads : thread_list) {
    for (const auto inflight : inflight_list) {
      relax::engine::EngineOptions opts;
      opts.num_threads = static_cast<unsigned>(threads);
      opts.max_in_flight = static_cast<unsigned>(inflight);
      relax::engine::SchedulingEngine eng(opts);

      std::vector<ProblemArena> arenas(static_cast<std::size_t>(feeders));
      std::uint64_t iterations = 0;
      std::uint64_t wasted = 0;
      relax::util::Timer timer;
      {
        std::vector<std::jthread> feed;
        std::mutex agg_mu;
        for (int f = 0; f < feeders; ++f) {
          feed.emplace_back([&, f] {
            auto& arena = arenas[static_cast<std::size_t>(f)];
            std::vector<relax::engine::JobTicket> tickets;
            for (int j = f; j < jobs; j += feeders) {
              tickets.push_back(submit_one(eng, mix, arena, j % 4,
                                           seed + static_cast<unsigned>(j)));
            }
            std::uint64_t it = 0, wa = 0;
            for (auto& t : tickets) {
              const auto stats = t.wait();
              it += stats.iterations;
              wa += stats.failed_deletes;
            }
            std::lock_guard<std::mutex> guard(agg_mu);
            iterations += it;
            wasted += wa;
          });
        }
      }
      const double seconds = timer.seconds();
      std::printf("%8lld %9lld %10.3f %12.1f %14llu %14llu\n",
                  static_cast<long long>(threads),
                  static_cast<long long>(inflight), seconds,
                  static_cast<double>(jobs) / seconds,
                  static_cast<unsigned long long>(iterations),
                  static_cast<unsigned long long>(wasted));
    }
  }
  return 0;
}
