#include "graph/graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/rng.h"

namespace relax::graph {
namespace {

TEST(Graph, EmptyGraph) {
  const Graph g = Graph::from_edges(0, {});
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(Graph, VerticesWithoutEdges) {
  const Graph g = Graph::from_edges(5, {});
  EXPECT_EQ(g.num_vertices(), 5u);
  EXPECT_EQ(g.num_edges(), 0u);
  for (Vertex v = 0; v < 5; ++v) EXPECT_EQ(g.degree(v), 0u);
}

TEST(Graph, TriangleBasics) {
  const std::vector<Edge> edges{{0, 1}, {1, 2}, {2, 0}};
  const Graph g = Graph::from_edges(3, edges);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.num_arcs(), 6u);
  for (Vertex v = 0; v < 3; ++v) EXPECT_EQ(g.degree(v), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_TRUE(g.has_edge(2, 0));
}

TEST(Graph, DuplicateEdgesRemoved) {
  const std::vector<Edge> edges{{0, 1}, {1, 0}, {0, 1}, {0, 1}};
  const Graph g = Graph::from_edges(2, edges);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(1), 1u);
}

TEST(Graph, SelfLoopsDropped) {
  const std::vector<Edge> edges{{0, 0}, {1, 1}, {0, 1}};
  const Graph g = Graph::from_edges(2, edges);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_FALSE(g.has_edge(0, 0));
}

TEST(Graph, NeighborsSortedAscending) {
  const std::vector<Edge> edges{{2, 0}, {2, 3}, {2, 1}, {2, 4}};
  const Graph g = Graph::from_edges(5, edges);
  const auto nb = g.neighbors(2);
  EXPECT_TRUE(std::is_sorted(nb.begin(), nb.end()));
  EXPECT_EQ(nb.size(), 4u);
}

TEST(Graph, EdgeListRoundTrip) {
  const std::vector<Edge> edges{{0, 1}, {1, 2}, {3, 4}, {0, 4}};
  const Graph g = Graph::from_edges(5, edges);
  auto listed = g.edge_list();
  EXPECT_EQ(listed.size(), 4u);
  for (const auto& [u, v] : listed) {
    EXPECT_LT(u, v);  // canonical orientation
    EXPECT_TRUE(g.has_edge(u, v));
  }
  const Graph g2 = Graph::from_edges(5, listed);
  EXPECT_EQ(g2.num_edges(), g.num_edges());
  for (Vertex v = 0; v < 5; ++v) EXPECT_EQ(g2.degree(v), g.degree(v));
}

TEST(Graph, HasEdgeNegativeCases) {
  const Graph g = Graph::from_edges(4, std::vector<Edge>{{0, 1}, {2, 3}});
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_FALSE(g.has_edge(1, 3));
  EXPECT_FALSE(g.has_edge(0, 3));
}

TEST(Graph, MaxDegree) {
  const Graph g =
      Graph::from_edges(5, std::vector<Edge>{{0, 1}, {0, 2}, {0, 3}, {1, 2}});
  EXPECT_EQ(g.max_degree(), 3u);
}

TEST(Graph, ArcTargetsMatchNeighbors) {
  const Graph g =
      Graph::from_edges(4, std::vector<Edge>{{0, 1}, {0, 2}, {1, 3}});
  for (Vertex v = 0; v < 4; ++v) {
    const auto nb = g.neighbors(v);
    for (std::size_t j = 0; j < nb.size(); ++j)
      EXPECT_EQ(g.arc_target(g.arc_offset(v) + j), nb[j]);
  }
}

TEST(Graph, ParallelConstructionMatchesSequential) {
  std::vector<Edge> edges;
  for (Vertex u = 0; u < 500; ++u)
    for (Vertex v = u + 1; v < u + 20 && v < 500; ++v)
      edges.emplace_back(u, v);
  const Graph seq = Graph::from_edges(500, edges, 1);
  const Graph par = Graph::from_edges(500, edges, 8);
  ASSERT_EQ(seq.num_edges(), par.num_edges());
  for (Vertex v = 0; v < 500; ++v) {
    const auto a = seq.neighbors(v);
    const auto b = par.neighbors(v);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
  }
}

// from_edges against a reference built the obvious way: both directions of
// every non-loop edge, sorted and deduplicated. Checks every offset and
// every arc, so the two agree byte for byte.
std::vector<Edge> reference_arcs(std::span<const Edge> edges) {
  std::vector<Edge> arcs;
  for (const auto& [u, v] : edges) {
    if (u == v) continue;
    arcs.emplace_back(u, v);
    arcs.emplace_back(v, u);
  }
  std::sort(arcs.begin(), arcs.end());
  arcs.erase(std::unique(arcs.begin(), arcs.end()), arcs.end());
  return arcs;
}

::testing::AssertionResult matches_reference(const Graph& g, Vertex n,
                                             const std::vector<Edge>& arcs) {
  if (g.num_vertices() != n || g.num_arcs() != arcs.size())
    return ::testing::AssertionFailure()
           << "n=" << g.num_vertices() << " arcs=" << g.num_arcs()
           << ", reference n=" << n << " arcs=" << arcs.size();
  std::size_t i = 0;
  for (Vertex v = 0; v < n; ++v) {
    if (g.arc_offset(v) != i)
      return ::testing::AssertionFailure()
             << "offset of " << v << " is " << g.arc_offset(v)
             << ", reference " << i;
    for (const Vertex u : g.neighbors(v)) {
      if (arcs[i] != Edge{v, u})
        return ::testing::AssertionFailure()
               << "arc " << i << " is (" << v << ", " << u
               << "), reference (" << arcs[i].first << ", "
               << arcs[i].second << ")";
      ++i;
    }
  }
  return ::testing::AssertionSuccess();
}

// Enough edges that the builder splits them over 8 workers.
constexpr std::size_t kManyEdges = 140'000;
constexpr Vertex kBlock = 4096;  // the builder's block width

void expect_matches_reference(const char* shape, Vertex n,
                              std::span<const Edge> edges) {
  const std::vector<Edge> arcs = reference_arcs(edges);
  for (const unsigned threads : {1u, 2u, 3u, 4u, 8u})
    EXPECT_TRUE(
        matches_reference(Graph::from_edges(n, edges, threads), n, arcs))
        << shape << " n=" << n << " edges=" << edges.size()
        << " threads=" << threads;
}

/// m random edges over [0, n), with self-loops and, when `span` is small,
/// many repeats: endpoints are drawn from [0, span) and spread over n.
std::vector<Edge> random_multigraph(Vertex n, std::size_t m,
                                    std::uint64_t seed, Vertex span) {
  util::Rng rng(seed);
  const Vertex stride = std::max<Vertex>(n / span, 1);
  std::vector<Edge> edges(m);
  for (auto& e : edges) {
    const auto u = static_cast<Vertex>(util::bounded(rng, span)) * stride;
    const auto v = static_cast<Vertex>(util::bounded(rng, span)) * stride;
    e = {std::min(u, n - 1), std::min(v, n - 1)};
  }
  return edges;
}

TEST(FromEdges, MatchesReferenceOnDegenerateInputs) {
  expect_matches_reference("no edges", 0, {});
  expect_matches_reference("no edges", 3 * kBlock + 1, {});
  const std::vector<Edge> loop{{0, 0}, {0, 0}};
  expect_matches_reference("n=1 self-loops", 1, loop);
  std::vector<Edge> loops;
  for (std::size_t i = 0; i < kManyEdges; ++i) {
    const auto v = static_cast<Vertex>(i % (3 * kBlock + 5));
    loops.emplace_back(v, v);
  }
  expect_matches_reference("only self-loops", 3 * kBlock + 5, loops);
  std::vector<Edge> dups;
  for (std::size_t i = 0; i < kManyEdges; ++i)
    dups.push_back(i % 2 == 0 ? Edge{5, 2 * kBlock + 7}
                              : Edge{2 * kBlock + 7, 5});
  expect_matches_reference("only duplicates", 3 * kBlock, dups);
}

TEST(FromEdges, MatchesReferenceOnStarWithHubBeyondOneBlock) {
  // The hub sits mid-block and owns more arcs than a block has vertices,
  // so its block's run dwarfs every other.
  const Vertex n = kManyEdges + 1;
  const Vertex hub = 5 * kBlock + kBlock / 2;
  std::vector<Edge> edges;
  for (Vertex v = 0; v < n; ++v)
    if (v != hub) edges.emplace_back(v % 2 == 0 ? hub : v, v % 2 == 0 ? v : hub);
  util::Rng rng(7);
  util::shuffle(std::span<Edge>(edges), rng);
  expect_matches_reference("star", n, edges);
}

TEST(FromEdges, MatchesReferenceAtBlockBoundaries) {
  for (const Vertex n : {2 * kBlock - 1, 2 * kBlock, 2 * kBlock + 1}) {
    const std::uint64_t seed = 1000 + n;
    std::printf("block boundary: n=%u seed=%llu\n", n,
                static_cast<unsigned long long>(seed));
    std::vector<Edge> edges = random_multigraph(n, kManyEdges, seed, n);
    edges.emplace_back(n - 1, 0);
    edges.emplace_back(n - 2, n - 1);
    expect_matches_reference("block boundary", n, edges);
  }
}

TEST(FromEdges, MatchesReferenceOnRandomMultigraphs) {
  struct Case {
    Vertex n;
    Vertex span;  // distinct endpoints drawn; small = many repeats
  };
  for (const Case c : {Case{1000, 1000}, Case{20000, 20000},
                       Case{70001, 70001}, Case{70001, 600}}) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      std::printf("random multigraph: n=%u span=%u seed=%llu\n", c.n,
                  c.span, static_cast<unsigned long long>(seed));
      const std::vector<Edge> edges =
          random_multigraph(c.n, kManyEdges, seed, c.span);
      expect_matches_reference("random multigraph", c.n, edges);
    }
  }
}

TEST(FromEdges, RejectsOutOfRangeEndpoints) {
  const std::vector<Edge> at_n{{0, 1}, {2, 3}};
  EXPECT_THROW(Graph::from_edges(3, at_n), std::invalid_argument);
  const std::vector<Edge> far{{900'000'000, 2}};
  EXPECT_THROW(Graph::from_edges(3, far), std::invalid_argument);
  EXPECT_THROW(Graph::from_edges(0, far), std::invalid_argument);
  // The message names the first bad edge, whatever the thread count.
  std::vector<Edge> many = random_multigraph(5000, kManyEdges, 3, 5000);
  many[100'000] = {17, 5000};
  many[120'000] = {5001, 3};
  for (const unsigned threads : {1u, 2u, 3u, 4u, 8u}) {
    try {
      (void)Graph::from_edges(5000, many, threads);
      ADD_FAILURE() << "no throw at threads=" << threads;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("edge 100000 (17, 5000)"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(LineGraph, PathBecomesPath) {
  // Path 0-1-2-3 has edges e0={0,1}, e1={1,2}, e2={2,3}; L(G) is the path
  // e0-e1-e2.
  const Graph g =
      Graph::from_edges(4, std::vector<Edge>{{0, 1}, {1, 2}, {2, 3}});
  std::vector<Edge> index;
  const Graph lg = line_graph(g, &index);
  EXPECT_EQ(lg.num_vertices(), 3u);
  EXPECT_EQ(lg.num_edges(), 2u);
  ASSERT_EQ(index.size(), 3u);
}

TEST(LineGraph, TriangleBecomesTriangle) {
  const Graph g =
      Graph::from_edges(3, std::vector<Edge>{{0, 1}, {1, 2}, {0, 2}});
  const Graph lg = line_graph(g);
  EXPECT_EQ(lg.num_vertices(), 3u);
  EXPECT_EQ(lg.num_edges(), 3u);
}

TEST(LineGraph, StarBecomesClique) {
  // K_{1,4}: all 4 edges share the hub, so L(G) = K_4.
  const Graph g = Graph::from_edges(
      5, std::vector<Edge>{{0, 1}, {0, 2}, {0, 3}, {0, 4}});
  const Graph lg = line_graph(g);
  EXPECT_EQ(lg.num_vertices(), 4u);
  EXPECT_EQ(lg.num_edges(), 6u);
}

TEST(LineGraph, AdjacencyMeansSharedEndpoint) {
  const Graph g = Graph::from_edges(
      6, std::vector<Edge>{{0, 1}, {1, 2}, {3, 4}, {4, 5}, {2, 3}});
  std::vector<Edge> index;
  const Graph lg = line_graph(g, &index);
  for (Vertex e = 0; e < lg.num_vertices(); ++e) {
    for (const Vertex f : lg.neighbors(e)) {
      const auto [a, b] = index[e];
      const auto [c, d] = index[f];
      EXPECT_TRUE(a == c || a == d || b == c || b == d);
    }
  }
}

}  // namespace
}  // namespace relax::graph
