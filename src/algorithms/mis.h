// Greedy Maximal Independent Set (paper §2.4, Algorithm 4).
//
// The greedy MIS under permutation pi ("lexicographically first MIS",
// MIS_pi) adds vertex v iff no neighbor with a smaller label was added
// before it. Every execution path in this library — sequential exact,
// sequential relaxed (any scheduler, any k), parallel relaxed, parallel
// exact — produces exactly MIS_pi; that determinism is the paper's central
// framework property and is enforced by tests.
//
// Pieces:
//   sequential_greedy_mis      optimized O(n + m) baseline (the paper's
//                              "optimized sequential code" in Figure 2)
//   MisProblem                 Algorithm 4 adapter for the sequential
//                              framework (dead-vertex retirement)
//   AtomicMisProblem           linearizable adapter for the parallel
//                              executors (LIVE -> IN_MIS / DEAD state
//                              machine; see DESIGN.md)
//   verify_mis                 independence + maximality checker
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "core/problem.h"
#include "graph/graph.h"
#include "graph/permutation.h"

namespace relax::algorithms {

/// Reference O(n + m) greedy MIS: processes vertices in label order with
/// dead-vertex propagation (each MIS member kills its neighbors once, so
/// dead vertices are skipped in O(1)). Returns in_mis flags by vertex.
std::vector<std::uint8_t> sequential_greedy_mis(const graph::Graph& g,
                                                const graph::Priorities& pri);

/// The paper's §1 formulation, without dead propagation: every vertex
/// scans its full adjacency for an already-added higher-priority neighbor
/// (Theta(m) total edge visits). Same output as sequential_greedy_mis;
/// kept as the second baseline because the Figure 2 speedups depend
/// heavily on which sequential variant one measures against.
std::vector<std::uint8_t> sequential_greedy_mis_scan(
    const graph::Graph& g, const graph::Priorities& pri);

/// True iff in_mis is an independent set of g and maximal.
bool verify_mis(const graph::Graph& g, std::span<const std::uint8_t> in_mis);

/// Sequential Algorithm 4 adapter.
class MisProblem {
 public:
  MisProblem(const graph::Graph& g, const graph::Priorities& pri);

  [[nodiscard]] std::uint32_t num_tasks() const noexcept {
    return g_->num_vertices();
  }

  core::Outcome try_process(core::Task v);

  /// in_mis flags after the run completes.
  [[nodiscard]] std::vector<std::uint8_t> result() const;

  /// Total neighbor visits across all try_process calls — the paper's §5
  /// future-work cost metric ("the number of edge accesses"), measured so
  /// benches can compare it with the vertex-query metric the theorems use.
  [[nodiscard]] std::uint64_t edge_accesses() const noexcept {
    return edge_accesses_;
  }

 private:
  enum class State : std::uint8_t { kLive, kInMis, kDead };

  std::uint64_t edge_accesses_ = 0;

  const graph::Graph* g_;
  const graph::Priorities* pri_;
  std::vector<State> state_;
};

/// Thread-safe Algorithm 4 adapter for core::run_parallel_{relaxed,exact}.
///
/// State machine per vertex (8-bit atomic):
///   LIVE -> IN_MIS   by the thread that popped v with all smaller-labelled
///                    neighbors decided (it then CASes LIVE neighbors DEAD);
///   LIVE -> DEAD     by exactly one CAS winner — either a neighbor that
///                    just entered the MIS, or v's own popper observing an
///                    IN_MIS smaller-labelled neighbor.
/// A vertex with a LIVE smaller-labelled neighbor is kNotReady. Because a
/// vertex is only decided when all its smaller-labelled neighbors are
/// decided, the fixed point equals the sequential MIS_pi for any schedule.
class AtomicMisProblem {
 public:
  AtomicMisProblem(const graph::Graph& g, const graph::Priorities& pri);

  [[nodiscard]] std::uint32_t num_tasks() const noexcept {
    return g_->num_vertices();
  }

  core::Outcome try_process(core::Task v);

  /// Optional engine hook (core/problem.h): pulls in the lines try_process
  /// reads first — v's state, v's label and the head of v's adjacency.
  [[gnu::always_inline]] void prefetch(core::Task v) const noexcept {
    __builtin_prefetch(&state_[v]);
    __builtin_prefetch(&pri_->labels[v]);
    __builtin_prefetch(g_->neighbors(v).data());
  }

  [[nodiscard]] std::vector<std::uint8_t> result() const;

 private:
  static constexpr std::uint8_t kLive = 0;
  static constexpr std::uint8_t kInMis = 1;
  static constexpr std::uint8_t kDead = 2;

  const graph::Graph* g_;
  const graph::Priorities* pri_;
  std::vector<std::atomic<std::uint8_t>> state_;
};

}  // namespace relax::algorithms
