// Immutable undirected graph in compressed-sparse-row (CSR) form.
//
// This is the substrate for every experiment in the paper: the dependency
// graphs consumed by the relaxed scheduling framework are either the input
// graph itself (MIS, coloring), its line graph (matching), or an implicit
// structure exposed through the same interface (list contraction, shuffle).
//
// Representation choices:
//   * vertices are dense uint32 ids (the paper's graphs fit comfortably);
//   * edge offsets are uint64 (dense graphs exceed 2^32 directed edges);
//   * adjacency lists are sorted ascending and deduplicated, self-loops are
//     dropped at construction — greedy MIS/coloring/matching semantics
//     assume a simple graph.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace relax::graph {

using Vertex = std::uint32_t;
using EdgeId = std::uint64_t;
using Edge = std::pair<Vertex, Vertex>;

class Graph {
 public:
  Graph() = default;

  /// Builds a CSR graph from an undirected edge list. Each {u,v} pair is
  /// inserted in both directions; duplicates and self-loops are removed.
  ///
  /// The build runs on up to `threads` workers (0 = hardware), one per 16k
  /// edges at most, in blocks of 4096 consecutive vertices. Each worker
  /// counts its edge chunk's arcs per block, then scatters them into its
  /// own slots of each block's run; each block's run is then counting-
  /// sorted by source, every list sorted and deduplicated, and the runs
  /// compacted in place. Workers share no counters, so no arc costs an
  /// atomic operation, and the result does not depend on the thread count.
  ///
  /// Throws std::invalid_argument, naming the first such edge, if an
  /// endpoint is >= n. Peak memory beyond the input and the result is 2
  /// bytes per arc plus one worker-private sort buffer per worker, each as
  /// large as the biggest block run it sorts.
  static Graph from_edges(Vertex n, std::span<const Edge> edges,
                          unsigned threads = 0);

  [[nodiscard]] Vertex num_vertices() const noexcept { return n_; }

  /// Number of undirected edges (after dedup).
  [[nodiscard]] EdgeId num_edges() const noexcept { return adj_.size() / 2; }

  /// Number of directed arcs (= 2 * num_edges()).
  [[nodiscard]] EdgeId num_arcs() const noexcept { return adj_.size(); }

  [[nodiscard]] std::span<const Vertex> neighbors(Vertex v) const noexcept {
    return {adj_.data() + offsets_[v],
            adj_.data() + offsets_[v + 1]};
  }

  [[nodiscard]] std::uint32_t degree(Vertex v) const noexcept {
    return static_cast<std::uint32_t>(offsets_[v + 1] - offsets_[v]);
  }

  [[nodiscard]] std::uint32_t max_degree() const noexcept;

  /// True if {u,v} is an edge (binary search; O(log deg(u))).
  [[nodiscard]] bool has_edge(Vertex u, Vertex v) const noexcept;

  /// All undirected edges as (min,max) pairs, ordered by (u,v).
  /// Materializes a new vector; intended for tests and line-graph builds.
  [[nodiscard]] std::vector<Edge> edge_list() const;

  /// Offset of v's adjacency block; `arc` ids in [offsets(v), offsets(v+1))
  /// index into the directed arc array. Used by the matching adapter to map
  /// arcs back to edge tasks.
  [[nodiscard]] EdgeId arc_offset(Vertex v) const noexcept {
    return offsets_[v];
  }
  [[nodiscard]] Vertex arc_target(EdgeId arc) const noexcept {
    return adj_[arc];
  }

 private:
  Vertex n_ = 0;
  std::vector<EdgeId> offsets_;  // size n_+1
  std::vector<Vertex> adj_;      // size = num_arcs
};

/// Builds the line graph L(G): one vertex per undirected edge of G, with an
/// edge between two L(G)-vertices iff the corresponding G-edges share an
/// endpoint. Greedy matching on G == greedy MIS on L(G) (paper §2.4).
/// `edge_index` receives the G edge corresponding to each L(G) vertex.
Graph line_graph(const Graph& g, std::vector<Edge>* edge_index = nullptr);

}  // namespace relax::graph
