// relaxsched — command-line front-end to the relaxed-scheduling framework.
//
// The paper's future work calls for using the framework "in the context of
// more general graph processing packages"; this tool is the package-style
// entry point: pick a graph (generated or loaded), an algorithm, a
// scheduler, thread and relaxation parameters, and get the output summary
// plus the paper's work accounting (iterations / failed deletes / dead
// skips) and a correctness check against the sequential baseline.
//
// Examples:
//   relaxsched --algo=mis --graph=gnm --n=1000000 --m=10000000 --threads=8
//   relaxsched --algo=coloring --graph=file --path=web.el --mode=seq-relaxed
//       --sched=multiqueue --k=16
//   relaxsched --algo=sssp --graph=rmat --n=1048576 --m=8000000
//   relaxsched --algo=matching --graph=ba --n=200000 --threads=24 --verify=1
//
// Modes:
//   parallel     (default) concurrent relaxed MultiQueue executor
//   exact        concurrent exact executor (FAA dispenser + backoff-wait)
//   seq          sequential baseline only
//   seq-relaxed  sequential framework with a simulated relaxed scheduler
//                (--sched=multiqueue|spray|topk|kbounded, --k=<relaxation>)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "algorithms/coloring.h"
#include "algorithms/knuth_shuffle.h"
#include "algorithms/list_contraction.h"
#include "algorithms/matching.h"
#include "algorithms/mis.h"
#include "algorithms/sssp.h"
#include "core/parallel_executor.h"
#include "core/sequential_executor.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "sched/backend_registry.h"
#include "sched/exact_heap.h"
#include "sched/kbounded.h"
#include "sched/sim_multiqueue.h"
#include "sched/sim_spraylist.h"
#include "obs/metrics.h"
#include "obs/trace_ring.h"
#include "sched/topk_uniform.h"
#include "util/cli.h"
#include "util/thread_pin.h"
#include "util/timer.h"
#include "util/topology.h"

namespace {

using relax::core::ExecutionStats;
using relax::graph::Graph;

[[noreturn]] void usage_and_exit(const char* error) {
  if (error != nullptr) std::fprintf(stderr, "error: %s\n\n", error);
  std::fprintf(stderr, R"(relaxsched — relaxed-scheduler graph algorithms

  --algo=mis|coloring|matching|listcontract|shuffle|sssp   (required)
  --graph=gnm|gnp|rmat|ba|grid|clique|star|file            [gnm]
  --n=<vertices> --m=<edges> --p=<prob> --path=<edge list file>
  --mode=parallel|exact|seq|seq-relaxed                    [parallel]
  --threads=<t>            worker threads (parallel modes)  [hw]
  --backend=<name>         concurrent scheduler backend for --mode=parallel
                           (any registry name; see list below)
                                                           [multiqueue-c2]
  --queue-factor=<c>       MultiQueue sub-queues per thread [4]
  --pop-batch=<k>|auto[:max]  labels claimed per scheduler touch (parallel
                           mode, including --algo=sssp; k>1 amortizes
                           lock/sample cost at an O(k*q) rank-error
                           envelope; auto adapts per worker between 1 near
                           drain and the max — 64 unless given — from
                           claim feedback + global occupancy; 0 and
                           non-numeric values are rejected)    [auto]
  --numa=off|auto|virtual:<K>  topology-aware placement (parallel modes,
                           including --algo=sssp): auto discovers sockets
                           from sysfs (flat fallback in containers that
                           hide them), virtual:K splits the workers into K
                           synthetic domains for deterministic testing.
                           Workers pin socket-by-socket and scalable
                           backends prefer same-domain sub-queues with a
                           bounded cross-domain steal                 [off]
  --sched=multiqueue|spray|topk|kbounded   (seq-relaxed)    [multiqueue]
  --k=<relaxation>         relaxation factor (seq-relaxed,
                           and kbounded-family backends)    [8]
  --seed=<s>               permutation + scheduler seed     [1]
  --weight=<w>             QoS tenant weight for the submitted job
                           (engine/qos.h). A one-shot run owns the pool,
                           so it always gets the full slice budget; the
                           flag matters when comparing against server-side
                           multi-tenant runs with the same config  [1]
  --verify=0|1             check against sequential output  [1]
  --metrics=<path|->       dump engine telemetry after the run: per-worker
                           counters + slice/claim/park histograms with
                           p50/p95/p99. Prometheus text exposition, or JSON
                           when the path ends in .json; '-' writes to
                           stdout. Engine modes only (parallel / exact /
                           shuffle / listcontract).
  --trace=<path>           write a Chrome trace-event JSON file (open in
                           chrome://tracing or ui.perfetto.dev): one lane
                           per worker with slice/park spans and
                           claim/regime instants. Engine modes only.

backends (--backend, concurrent modes; sssp always uses its own
64-bit-key MultiQueue):
)");
  for (const auto& info : relax::sched::backend_registry()) {
    std::fprintf(stderr, "  %-20s %s\n",
                 std::string(info.name).c_str(),
                 std::string(info.description).c_str());
  }
  std::exit(error != nullptr ? 2 : 0);
}

Graph make_graph(const relax::util::CommandLine& cli) {
  const std::string kind = cli.get_string("graph", "gnm");
  const auto n = static_cast<std::uint32_t>(cli.get_int("n", 100000));
  const auto m = static_cast<std::uint64_t>(cli.get_int("m", 1000000));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  if (kind == "gnm") return relax::graph::gnm(n, m, seed);
  if (kind == "gnp")
    return relax::graph::gnp(n, cli.get_double("p", 0.001), seed);
  if (kind == "rmat") {
    std::uint32_t pow2 = 1;
    while (pow2 < n) pow2 <<= 1;
    return relax::graph::rmat(pow2, m, 0.57, 0.19, 0.19, seed);
  }
  if (kind == "ba") return relax::graph::barabasi_albert(n, 5, seed);
  if (kind == "grid") {
    std::uint32_t side = 1;
    while (side * side < n) ++side;
    return relax::graph::grid(side, side);
  }
  if (kind == "clique") return relax::graph::clique(n);
  if (kind == "star") return relax::graph::star(n);
  if (kind == "file") {
    const std::string path = cli.get_string("path", "");
    if (path.empty()) usage_and_exit("--graph=file requires --path");
    return relax::graph::read_edge_list(path);
  }
  usage_and_exit("unknown --graph kind");
}

/// Resolves the --backend flag, exiting with the valid list on a bad name.
const relax::sched::BackendInfo& backend_from_cli(
    const relax::util::CommandLine& cli) {
  const std::string name =
      cli.get_string("backend", std::string(relax::sched::default_backend().name));
  const auto* info = relax::sched::find_backend(name);
  if (info == nullptr) {
    std::fprintf(stderr, "error: unknown --backend '%s'\nvalid backends: %s\n",
                 name.c_str(), relax::sched::backend_names().c_str());
    std::exit(2);
  }
  return *info;
}

/// Engine telemetry sinks for --metrics / --trace. File-scope because the
/// one-shot run_parallel_* wrappers destroy their engine before returning —
/// the sinks must outlive it so the dump after the run still sees the data.
struct Telemetry {
  std::string metrics_path;  // empty = off; '-' = stdout; *.json = JSON form
  std::string trace_path;    // empty = off
  relax::obs::MetricsRegistry registry;
  relax::obs::TraceRing ring;
};
Telemetry g_telemetry;

void init_telemetry(const relax::util::CommandLine& cli) {
  g_telemetry.metrics_path = cli.get_string("metrics", "");
  g_telemetry.trace_path = cli.get_string("trace", "");
}

/// seq / seq-relaxed / sssp bypass the engine, so the sinks stay empty.
void warn_telemetry_unsupported(const char* mode) {
  if (g_telemetry.metrics_path.empty() && g_telemetry.trace_path.empty())
    return;
  std::fprintf(stderr,
               "warning: --metrics/--trace record engine telemetry; mode "
               "'%s' does not run through the engine, nothing to dump\n",
               mode);
}

void write_text(const std::string& path, const std::string& text) {
  if (path == "-") {
    std::fwrite(text.data(), 1, text.size(), stdout);
    return;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write '%s'\n", path.c_str());
    return;
  }
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
}

/// Runs after the engine run completes (ticket waited, engine destroyed):
/// the registry/ring are quiescent, so exporting here is race-free.
void dump_telemetry() {
  if (!g_telemetry.metrics_path.empty()) {
    const std::string& p = g_telemetry.metrics_path;
    const bool json =
        p.size() >= 5 && p.compare(p.size() - 5, 5, ".json") == 0;
    write_text(p, json ? g_telemetry.registry.to_json()
                       : g_telemetry.registry.to_prometheus());
  }
  if (!g_telemetry.trace_path.empty()) {
    if (g_telemetry.trace_path == "-") {
      write_text("-", g_telemetry.ring.to_chrome_json());
    } else if (!g_telemetry.ring.write_chrome_json(g_telemetry.trace_path)) {
      std::fprintf(stderr, "warning: cannot write trace '%s'\n",
                   g_telemetry.trace_path.c_str());
    }
  }
}

relax::core::ParallelOptions parallel_opts(
    const relax::util::CommandLine& cli) {
  relax::core::ParallelOptions opts;
  if (!g_telemetry.metrics_path.empty())
    opts.metrics = &g_telemetry.registry;
  if (!g_telemetry.trace_path.empty()) opts.trace = &g_telemetry.ring;
  opts.num_threads = static_cast<unsigned>(cli.get_int("threads", 0));
  opts.queue_factor = static_cast<unsigned>(cli.get_int("queue-factor", 4));
  const std::string pop_batch_value = cli.get_string("pop-batch", "auto");
  const auto pb = relax::engine::parse_pop_batch_flag(pop_batch_value);
  if (!pb.valid) {
    std::fprintf(stderr,
                 "error: invalid --pop-batch '%s': expected a positive "
                 "integer, 'auto', or 'auto:<max>'\n\n",
                 pop_batch_value.c_str());
    std::exit(2);
  }
  opts.pop_batch = pb.batch;
  opts.pop_batch_auto = pb.adaptive;
  if (cli.has("k"))
    opts.relaxation_k = static_cast<std::uint32_t>(cli.get_int("k", 0));
  opts.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const std::int64_t weight = cli.get_int("weight", 1);
  if (weight < 1 ||
      weight >
          static_cast<std::int64_t>(relax::engine::JobConfig::kMaxWeight)) {
    std::fprintf(stderr, "error: --weight must be in [1, %u]\n\n",
                 relax::engine::JobConfig::kMaxWeight);
    std::exit(2);
  }
  opts.weight = static_cast<std::uint32_t>(weight);
  const std::string numa_value = cli.get_string("numa", "off");
  const auto spec = relax::util::TopologySpec::parse(numa_value);
  if (!spec) {
    std::fprintf(stderr,
                 "error: invalid --numa '%s': expected 'off', 'auto', or "
                 "'virtual:<K>' with K >= 1\n\n",
                 numa_value.c_str());
    std::exit(2);
  }
  opts.topology = *spec;
  return opts;
}

/// seq / seq-relaxed run one thread with no placement to speak of.
void warn_numa_unsupported(const relax::util::CommandLine& cli,
                           const char* mode) {
  if (!cli.has("numa") || cli.get_string("numa", "off") == "off") return;
  std::fprintf(stderr,
               "warning: --numa places pool workers; mode '%s' is "
               "single-threaded, flag ignored\n",
               mode);
}

void print_stats(const char* what, const ExecutionStats& stats) {
  std::printf(
      "%s: %.4f s | iterations=%llu processed=%llu failed_deletes=%llu "
      "dead_skips=%llu empty_polls=%llu\n",
      what, stats.seconds,
      static_cast<unsigned long long>(stats.iterations),
      static_cast<unsigned long long>(stats.processed),
      static_cast<unsigned long long>(stats.failed_deletes),
      static_cast<unsigned long long>(stats.dead_skips),
      static_cast<unsigned long long>(stats.empty_polls));
  if (stats.slices > 0) {
    std::printf("  slices=%llu latency p50=%.1fus p95=%.1fus p99=%.1fus\n",
                static_cast<unsigned long long>(stats.slices),
                stats.slice_percentile_us(50), stats.slice_percentile_us(95),
                stats.slice_percentile_us(99));
  }
}

/// Runs `problem` through the sequential framework with the chosen
/// simulated relaxed scheduler.
template <typename Problem>
ExecutionStats run_seq_relaxed(Problem& problem,
                               const relax::graph::Priorities& pri,
                               const relax::util::CommandLine& cli) {
  const std::string sched = cli.get_string("sched", "multiqueue");
  const auto k = static_cast<std::uint32_t>(cli.get_int("k", 8));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1)) + 99;
  if (sched == "multiqueue") {
    relax::sched::SimMultiQueue s(k, seed);
    return relax::core::run_sequential(problem, pri, s);
  }
  if (sched == "spray") {
    auto s = relax::sched::make_sim_spraylist(problem.num_tasks(), k, seed);
    return relax::core::run_sequential(problem, pri, s);
  }
  if (sched == "topk") {
    relax::sched::TopKUniformScheduler s(problem.num_tasks(), k, seed);
    return relax::core::run_sequential(problem, pri, s);
  }
  if (sched == "kbounded") {
    relax::sched::KBoundedScheduler s(k);
    return relax::core::run_sequential(problem, pri, s);
  }
  usage_and_exit("unknown --sched");
}

/// Dispatches one graph problem family through the chosen mode. Baseline
/// and Problem factories keep the mode plumbing in one place.
template <typename MakeSeq, typename MakeProblem, typename MakeAtomic,
          typename Extract, typename ExtractAtomic>
int run_graph_problem(const relax::util::CommandLine& cli,
                      const relax::graph::Priorities& pri, MakeSeq make_seq,
                      MakeProblem make_problem, MakeAtomic make_atomic,
                      Extract extract, ExtractAtomic extract_atomic) {
  const std::string mode = cli.get_string("mode", "parallel");
  const bool verify = cli.get_bool("verify", true);
  if (mode == "seq") {
    warn_telemetry_unsupported("seq");
    warn_numa_unsupported(cli, "seq");
    relax::util::Timer timer;
    const auto result = make_seq();
    std::printf("sequential: %.4f s\n", timer.seconds());
    (void)result;
    return 0;
  }
  if (mode == "seq-relaxed") {
    warn_telemetry_unsupported("seq-relaxed");
    warn_numa_unsupported(cli, "seq-relaxed");
    auto problem = make_problem();
    const auto stats = run_seq_relaxed(problem, pri, cli);
    print_stats("seq-relaxed", stats);
    if (verify && extract(problem) != make_seq()) {
      std::fprintf(stderr, "VERIFY FAILED: output differs from baseline\n");
      return 1;
    }
    if (verify) std::printf("verify: OK (deterministic output)\n");
    return 0;
  }
  const relax::core::ParallelOptions opts = parallel_opts(cli);
  auto problem = make_atomic();
  ExecutionStats stats;
  std::string what = mode;
  if (mode == "parallel") {
    const auto& backend = backend_from_cli(cli);
    stats = relax::core::run_parallel_relaxed_backend(
        problem, pri, backend.name, opts);
    what += std::string("[") + std::string(backend.name) + "]";
  } else if (mode == "exact") {
    stats = relax::core::run_parallel_exact(problem, pri, opts);
  } else {
    usage_and_exit("unknown --mode");
  }
  print_stats(what.c_str(), stats);
  dump_telemetry();
  if (verify && extract_atomic(problem) != make_seq()) {
    std::fprintf(stderr, "VERIFY FAILED: output differs from baseline\n");
    return 1;
  }
  if (verify) std::printf("verify: OK (deterministic output)\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const relax::util::CommandLine cli(argc, argv);
  if (cli.has("help")) usage_and_exit(nullptr);
  if (cli.has("backend")) backend_from_cli(cli);  // reject bad names early
  init_telemetry(cli);
  const std::string algo = cli.get_string("algo", "");
  if (algo.empty()) usage_and_exit("--algo is required");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));

  if (algo == "shuffle") {
    const auto n = static_cast<std::uint32_t>(cli.get_int("n", 100000));
    const auto targets = relax::algorithms::shuffle_targets(n, seed);
    const auto pri = relax::graph::random_priorities(n, seed + 7);
    const relax::algorithms::PositionIndex index(targets, pri);
    relax::algorithms::AtomicKnuthShuffleProblem problem(targets, index);
    relax::core::ParallelOptions opts = parallel_opts(cli);
    opts.seed = seed;
    const auto stats = relax::core::run_parallel_relaxed_backend(
        problem, pri, backend_from_cli(cli).name, opts);
    print_stats("shuffle", stats);
    dump_telemetry();
    if (cli.get_bool("verify", true)) {
      if (problem.array() !=
          relax::algorithms::sequential_knuth_shuffle(targets, pri)) {
        std::fprintf(stderr, "VERIFY FAILED\n");
        return 1;
      }
      std::printf("verify: OK (deterministic output)\n");
    }
    return 0;
  }
  if (algo == "listcontract") {
    const auto n = static_cast<std::uint32_t>(cli.get_int("n", 100000));
    std::vector<std::uint32_t> arrangement(n);
    std::iota(arrangement.begin(), arrangement.end(), 0u);
    const auto pri = relax::graph::random_priorities(n, seed + 7);
    relax::algorithms::AtomicListContractionProblem problem(arrangement,
                                                            pri);
    relax::core::ParallelOptions opts = parallel_opts(cli);
    opts.seed = seed;
    const auto stats = relax::core::run_parallel_relaxed_backend(
        problem, pri, backend_from_cli(cli).name, opts);
    print_stats("listcontract", stats);
    dump_telemetry();
    if (cli.get_bool("verify", true)) {
      if (problem.trace() !=
          relax::algorithms::sequential_list_contraction(arrangement, pri)) {
        std::fprintf(stderr, "VERIFY FAILED\n");
        return 1;
      }
      std::printf("verify: OK (deterministic output)\n");
    }
    return 0;
  }

  Graph g;
  try {
    g = make_graph(cli);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::printf("graph: n=%u m=%llu\n", g.num_vertices(),
              static_cast<unsigned long long>(g.num_edges()));

  if (algo == "sssp") {
    warn_telemetry_unsupported("sssp (standalone executor)");
    const auto weights =
        relax::algorithms::synthetic_edge_weights(g, seed + 3);
    relax::algorithms::SsspStats stats;
    // One parsing path for --pop-batch (parallel_opts); auto is honored
    // end to end — SSSP's standalone executor runs the same occupancy-
    // aware BatchController as the engine jobs.
    const relax::core::ParallelOptions popts = parallel_opts(cli);
    relax::algorithms::SsspOptions sssp_opts;
    sssp_opts.num_threads = popts.num_threads;
    sssp_opts.queue_factor = popts.queue_factor;
    sssp_opts.seed = seed;
    sssp_opts.pop_batch = popts.pop_batch;
    sssp_opts.pop_batch_auto = popts.pop_batch_auto;
    sssp_opts.topology = popts.topology;
    std::vector<std::uint32_t> dist;
    try {
      dist = relax::algorithms::parallel_relaxed_sssp(g, weights, 0,
                                                      sssp_opts, &stats);
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
    std::printf(
        "sssp: %.4f s | pops=%llu stale=%llu relaxations=%llu batches=%llu "
        "claims=[%llu..%llu]%s\n",
        stats.seconds, static_cast<unsigned long long>(stats.pops),
        static_cast<unsigned long long>(stats.stale_pops),
        static_cast<unsigned long long>(stats.relaxations),
        static_cast<unsigned long long>(stats.batches),
        static_cast<unsigned long long>(stats.min_claim),
        static_cast<unsigned long long>(stats.max_claim),
        sssp_opts.pop_batch_auto ? " (adaptive)" : "");
    if (cli.get_bool("verify", true)) {
      if (dist != relax::algorithms::dijkstra(g, weights, 0)) {
        std::fprintf(stderr, "VERIFY FAILED vs Dijkstra\n");
        return 1;
      }
      std::printf("verify: OK (exact distances)\n");
    }
    return 0;
  }

  const auto pri = relax::graph::random_priorities(g.num_vertices(),
                                                   seed + 7);
  if (algo == "mis") {
    return run_graph_problem(
        cli, pri,
        [&] { return relax::algorithms::sequential_greedy_mis(g, pri); },
        [&] { return relax::algorithms::MisProblem(g, pri); },
        [&] { return relax::algorithms::AtomicMisProblem(g, pri); },
        [](const auto& p) { return p.result(); },
        [](const auto& p) { return p.result(); });
  }
  if (algo == "coloring") {
    return run_graph_problem(
        cli, pri,
        [&] {
          return relax::algorithms::sequential_greedy_coloring(g, pri);
        },
        [&] { return relax::algorithms::ColoringProblem(g, pri); },
        [&] { return relax::algorithms::AtomicColoringProblem(g, pri); },
        [](const auto& p) { return p.colors(); },
        [](const auto& p) { return p.colors(); });
  }
  if (algo == "matching") {
    const relax::algorithms::EdgeIncidence inc(g);
    const auto epri =
        relax::graph::random_priorities(inc.num_edges(), seed + 11);
    return run_graph_problem(
        cli, epri,
        [&] {
          return relax::algorithms::sequential_greedy_matching(inc, epri);
        },
        [&] { return relax::algorithms::MatchingProblem(inc, epri); },
        [&] { return relax::algorithms::AtomicMatchingProblem(inc, epri); },
        [](const auto& p) { return p.result(); },
        [](const auto& p) { return p.result(); });
  }
  usage_and_exit("unknown --algo");
}
