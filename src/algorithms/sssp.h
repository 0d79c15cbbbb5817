// Single-Source Shortest Paths via a relaxed scheduler.
//
// Dijkstra's algorithm is the paper's canonical *motivating* example for
// relaxed scheduling (§1): popping vertices out of order never breaks
// correctness because tentative distances converge monotonically to the
// true distances; the price is wasted work on stale pops. SSSP is NOT in
// the paper's deterministic framework class (the priority order must follow
// distances, so pi cannot be a uniformly random permutation — §2.2), which
// is why it lives here as a standalone algorithm and example rather than a
// Problem adapter.
//
// Edge weights are synthesized deterministically from (edge, seed) since
// graph::Graph is unweighted.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "util/topology.h"

namespace relax::algorithms {

inline constexpr std::uint32_t kUnreachable = ~0u;

/// Per-arc weights aligned with the CSR arc array; symmetric (both
/// directions of an undirected edge carry the same weight in [1, max_w]).
std::vector<std::uint32_t> synthetic_edge_weights(const graph::Graph& g,
                                                  std::uint64_t seed,
                                                  std::uint32_t max_w = 100);

/// Reference Dijkstra over an exact 4-ary heap (sched::DaryHeap). Returns
/// distances. Throws std::invalid_argument when source >= g.num_vertices()
/// or weights.size() != g.num_arcs().
std::vector<std::uint32_t> dijkstra(const graph::Graph& g,
                                    const std::vector<std::uint32_t>& weights,
                                    graph::Vertex source);

struct SsspStats {
  std::uint64_t pops = 0;
  std::uint64_t stale_pops = 0;  // wasted work due to relaxation/concurrency
  std::uint64_t relaxations = 0;
  std::uint64_t batches = 0;  // scheduler acquisition round trips
  // Smallest / largest claim size *requested* across all acquisition round
  // trips (0 when no batch was ever claimed). A fixed pop_batch reports
  // min == max == pop_batch; adaptive mode (SsspOptions::pop_batch_auto)
  // reports the controller's real range — min 1 (every worker starts
  // there) up to whatever the ramp reached, which is how `relaxsched
  // --pop-batch=auto` proves the claim size actually adapted instead of
  // silently degrading to a fixed cap.
  std::uint64_t min_claim = 0;
  std::uint64_t max_claim = 0;
  double seconds = 0.0;
};

/// Knobs for parallel_relaxed_sssp, mirroring the relevant slice of
/// core::ParallelOptions (SSSP lives outside the framework's Problem layer,
/// so it keeps its own struct instead of dragging the engine headers in).
struct SsspOptions {
  unsigned num_threads = 0;      // 0 = hardware concurrency
  unsigned queue_factor = 4;     // MultiQueue sub-queues per thread
  std::uint64_t seed = 1;        // scheduler + weight randomness
  std::uint32_t pop_batch = 64;  // keys claimed per scheduler touch (the
                                 // cap in adaptive mode); the default is
                                 // engine::JobConfig::kDefaultAutoPopBatch
  /// Adaptive claim sizing, on by default: pop_batch becomes the cap and
  /// each worker's sched::BatchController floats the claim between 1 (near
  /// drain) and the cap (sustained load), consulting the queue's striped
  /// size() occasionally — the same occupancy-aware controller the
  /// engine's framework executors run (engine/job.h).
  bool pop_batch_auto = true;
  /// Topology placement (--numa): off = flat, auto = sysfs sockets (flat
  /// fallback), virtual:K = synthetic domains. Threads pin in socket-fill
  /// order and the MultiQueue is striped per domain, exactly like the
  /// engine executors (util/topology.h, sched/stripe_map.h).
  util::TopologySpec topology;
};

/// Multi-threaded label-correcting SSSP over a relaxed concurrent
/// MultiQueue ((distance, vertex) packed into 64-bit keys). Produces exact
/// distances (monotone convergence); stats report the relaxation overhead.
///
/// pop_batch > 1 batches BOTH scheduler sides, exactly like the framework
/// executors (engine/job.h): up to pop_batch keys are claimed per
/// approx_get_min_batch round trip, and the successful relaxations they
/// generate are re-inserted as one bulk_insert run. Label correction is
/// insensitive to the extra relaxation (distances converge monotonically
/// for any pop order); the price is more stale pops, which stats make
/// visible next to the throughput gain.
///
/// Termination is counted once per claimed batch: each worker settles its
/// batch with one update of a shared pending count, so stats satisfy
/// pops == relaxations + 1 (every inserted key is popped exactly once).
/// Throws std::invalid_argument on the same inputs as dijkstra().
std::vector<std::uint32_t> parallel_relaxed_sssp(
    const graph::Graph& g, const std::vector<std::uint32_t>& weights,
    graph::Vertex source, const SsspOptions& options,
    SsspStats* stats = nullptr);

/// Positional-argument form (fixed batch only), kept for existing callers.
inline std::vector<std::uint32_t> parallel_relaxed_sssp(
    const graph::Graph& g, const std::vector<std::uint32_t>& weights,
    graph::Vertex source, unsigned num_threads, unsigned queue_factor,
    std::uint64_t seed, unsigned pop_batch = 1, SsspStats* stats = nullptr) {
  SsspOptions options;
  options.num_threads = num_threads;
  options.queue_factor = queue_factor;
  options.seed = seed;
  options.pop_batch = pop_batch;
  options.pop_batch_auto = false;
  return parallel_relaxed_sssp(g, weights, source, options, stats);
}

}  // namespace relax::algorithms
