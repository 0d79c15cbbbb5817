#include "graph/graph.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/parallel_for.h"

namespace relax::graph {

namespace {

// The builder works on blocks of 2^kBlockBits consecutive vertices: a
// block's arcs are gathered into one contiguous run, small enough that
// sorting it by source happens in L2, and a vertex's offset inside its block
// fits in 16 bits.
constexpr unsigned kBlockBits = 12;
constexpr Vertex kBlockMask = (Vertex{1} << kBlockBits) - 1;
// Edges a worker must have before a second one is worth spawning.
constexpr std::uint64_t kMinEdgesPerWorker = 1 << 14;

}  // namespace

Graph Graph::from_edges(Vertex n, std::span<const Edge> edges,
                        unsigned threads) {
  const std::uint64_t blocks =
      (static_cast<std::uint64_t>(n) + kBlockMask) >> kBlockBits;
  auto block_width = [n](std::uint64_t b) {
    return std::min<Vertex>(n - static_cast<Vertex>(b << kBlockBits),
                            kBlockMask + 1);
  };
  // Each worker owns one row of per-block counters, so a worker must bring
  // at least as many edges as there are blocks.
  const unsigned workers =
      util::worker_count(edges.size(), threads,
                         std::max<std::uint64_t>(kMinEdgesPerWorker, blocks));

  // Pass 1 (count): worker t counts the arcs of its edge chunk per source
  // block into counts[t][b], skipping self-loops and noting the first edge
  // with an endpoint out of range.
  std::vector<std::vector<EdgeId>> counts(workers,
                                          std::vector<EdgeId>(blocks, 0));
  std::vector<std::uint64_t> first_bad(workers, edges.size());
  util::parallel_chunks_indexed(
      0, edges.size(), workers,
      [&](unsigned t, std::uint64_t lo, std::uint64_t hi) {
        EdgeId* row = counts[t].data();
        for (std::uint64_t i = lo; i < hi; ++i) {
          const auto [u, v] = edges[i];
          if (u >= n || v >= n) {
            first_bad[t] = i;
            return;
          }
          if (u == v) continue;
          ++row[u >> kBlockBits];
          ++row[v >> kBlockBits];
        }
      });
  const std::uint64_t bad =
      *std::min_element(first_bad.begin(), first_bad.end());
  if (bad < edges.size())
    throw std::invalid_argument(
        "Graph::from_edges: edge " + std::to_string(bad) + " (" +
        std::to_string(edges[bad].first) + ", " +
        std::to_string(edges[bad].second) + ") has an endpoint >= n = " +
        std::to_string(n));

  // Runs are laid out block-major, and inside a block in worker order:
  // counts[t][b] becomes worker t's first slot in block b's run, which
  // spans [run[b], run[b + 1]).
  std::vector<EdgeId> run(blocks + 1, 0);
  for (std::uint64_t b = 0; b < blocks; ++b) {
    EdgeId at = run[b];
    for (unsigned t = 0; t < workers; ++t)
      at += std::exchange(counts[t][b], at);
    run[b + 1] = at;
  }
  const EdgeId arcs = run[blocks];

  // Pass 2 (scatter): each worker rereads the same edge chunk and appends
  // every arc to its own slots of the source's block run: the target, and
  // the source's offset inside its block. A worker keeps two cache lines
  // open per block, so its stores stay in cache.
  auto local = std::make_unique_for_overwrite<std::uint16_t[]>(arcs);
  std::vector<Vertex> adj(arcs);
  util::parallel_chunks_indexed(
      0, edges.size(), workers,
      [&](unsigned t, std::uint64_t lo, std::uint64_t hi) {
        EdgeId* cursor = counts[t].data();
        for (std::uint64_t i = lo; i < hi; ++i) {
          const auto [u, v] = edges[i];
          if (u == v) continue;
          const EdgeId a = cursor[u >> kBlockBits]++;
          local[a] = static_cast<std::uint16_t>(u & kBlockMask);
          adj[a] = v;
          const EdgeId b = cursor[v >> kBlockBits]++;
          local[b] = static_cast<std::uint16_t>(v & kBlockMask);
          adj[b] = u;
        }
      });

  // Pass 3 (per block): counting-sort the block's run by source into a
  // worker-private buffer, then sort and deduplicate each vertex's list and
  // write it back to the front of the run. offsets_[v + 1] receives the
  // end of v's list relative to the run's start, so the block's last entry
  // is the number of arcs the run kept. Workers take contiguous block
  // ranges holding equal arc shares.
  Graph g;
  g.n_ = n;
  g.offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
  const unsigned block_workers = util::worker_count(blocks, workers);
  auto first_block = [&](unsigned w) -> std::uint64_t {
    if (w == block_workers) return blocks;
    const EdgeId share = arcs / block_workers * w +
                         arcs % block_workers * w / block_workers;
    return static_cast<std::uint64_t>(
        std::lower_bound(run.begin(), run.begin() + blocks, share) -
        run.begin());
  };
  util::parallel_chunks_indexed(
      0, block_workers, block_workers,
      [&](unsigned w, std::uint64_t, std::uint64_t) {
        std::vector<EdgeId> start(std::size_t{1} << kBlockBits);
        std::vector<Vertex> sorted;
        for (std::uint64_t b = first_block(w); b < first_block(w + 1); ++b) {
          const EdgeId lo = run[b], hi = run[b + 1];
          const Vertex v0 = static_cast<Vertex>(b << kBlockBits);
          const Vertex width = block_width(b);
          std::fill_n(start.begin(), width, 0);
          for (EdgeId a = lo; a < hi; ++a) ++start[local[a]];
          EdgeId at = 0;
          for (Vertex x = 0; x < width; ++x) at += std::exchange(start[x], at);
          if (sorted.size() < hi - lo) sorted.resize(hi - lo);
          for (EdgeId a = lo; a < hi; ++a) sorted[start[local[a]]++] = adj[a];
          // start[x] now marks the end of local vertex x's list.
          Vertex* out = adj.data() + lo;
          EdgeId first = 0;
          for (Vertex x = 0; x < width; ++x) {
            Vertex* list = sorted.data() + first;
            Vertex* list_end = sorted.data() + start[x];
            std::sort(list, list_end);
            out = std::unique_copy(list, list_end, out);
            g.offsets_[v0 + x + 1] =
                static_cast<EdgeId>(out - (adj.data() + lo));
            first = start[x];
          }
        }
      });
  local.reset();

  // Pass 4 (compact): slide each block's kept arcs down to their final
  // place and rebase its offsets. Runs that lost no arcs to duplicates
  // stay where they are.
  EdgeId base = 0;
  for (std::uint64_t b = 0; b < blocks; ++b) {
    const Vertex v0 = static_cast<Vertex>(b << kBlockBits);
    const Vertex width = block_width(b);
    const EdgeId kept = g.offsets_[v0 + width];
    if (base != run[b])
      std::memmove(adj.data() + base, adj.data() + run[b],
                   kept * sizeof(Vertex));
    for (Vertex x = 1; x <= width; ++x) g.offsets_[v0 + x] += base;
    base += kept;
  }
  adj.resize(base);
  // Keep the slack only while it is small: shrinking copies the array.
  if (adj.capacity() - base > base / 8) adj.shrink_to_fit();
  g.adj_ = std::move(adj);
  return g;
}

std::uint32_t Graph::max_degree() const noexcept {
  std::uint32_t d = 0;
  for (Vertex v = 0; v < n_; ++v) d = std::max(d, degree(v));
  return d;
}

bool Graph::has_edge(Vertex u, Vertex v) const noexcept {
  if (u >= n_) return false;
  const auto nb = neighbors(u);
  return std::binary_search(nb.begin(), nb.end(), v);
}

std::vector<Edge> Graph::edge_list() const {
  std::vector<Edge> edges;
  edges.reserve(num_edges());
  for (Vertex u = 0; u < n_; ++u)
    for (Vertex v : neighbors(u))
      if (u < v) edges.emplace_back(u, v);
  return edges;
}

Graph line_graph(const Graph& g, std::vector<Edge>* edge_index) {
  const std::vector<Edge> edges = g.edge_list();
  const auto m = static_cast<Vertex>(edges.size());

  // Map each G-edge to its line-graph vertex id; bucket edges by endpoint.
  std::vector<std::vector<Vertex>> incident(g.num_vertices());
  for (Vertex e = 0; e < m; ++e) {
    incident[edges[e].first].push_back(e);
    incident[edges[e].second].push_back(e);
  }

  std::vector<Edge> lg_edges;
  for (const auto& bucket : incident) {
    for (std::size_t i = 0; i < bucket.size(); ++i)
      for (std::size_t j = i + 1; j < bucket.size(); ++j)
        lg_edges.emplace_back(bucket[i], bucket[j]);
  }
  if (edge_index != nullptr) *edge_index = edges;
  return Graph::from_edges(m, lg_edges);
}

}  // namespace relax::graph
