#include "graph/generators.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <queue>

namespace relax::graph {
namespace {

// Same vertex count and, vertex by vertex, the same adjacency list.
::testing::AssertionResult same_graph(const Graph& a, const Graph& b) {
  if (a.num_vertices() != b.num_vertices() || a.num_arcs() != b.num_arcs())
    return ::testing::AssertionFailure()
           << "n " << a.num_vertices() << " vs " << b.num_vertices()
           << ", arcs " << a.num_arcs() << " vs " << b.num_arcs();
  for (Vertex v = 0; v < a.num_vertices(); ++v) {
    const auto na = a.neighbors(v);
    const auto nb = b.neighbors(v);
    if (!std::equal(na.begin(), na.end(), nb.begin(), nb.end()))
      return ::testing::AssertionFailure() << "neighbors of " << v << " differ";
  }
  return ::testing::AssertionSuccess();
}

// A 64-bit digest of the whole CSR: n, arc count, then every vertex's
// degree followed by its neighbours.
std::uint64_t fingerprint(const Graph& g) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t x) {
    h ^= x;
    h *= 0x100000001b3ULL;
    h ^= h >> 29;
  };
  mix(g.num_vertices());
  mix(g.num_arcs());
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    mix(g.degree(v));
    for (const Vertex u : g.neighbors(v)) mix(u);
  }
  return h;
}

TEST(Gnm, ApproximateEdgeCount) {
  const Graph g = gnm(10000, 50000, 1);
  // Duplicate collisions are rare at this density: expect >= 99%.
  EXPECT_GE(g.num_edges(), 49000u);
  EXPECT_LE(g.num_edges(), 50000u);
  EXPECT_EQ(g.num_vertices(), 10000u);
}

TEST(Gnm, SeedDeterminism) {
  const Graph a = gnm(1000, 5000, 42);
  const Graph b = gnm(1000, 5000, 42);
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (Vertex v = 0; v < 1000; ++v) EXPECT_EQ(a.degree(v), b.degree(v));
}

TEST(Gnm, DifferentSeedsDiffer) {
  const Graph a = gnm(1000, 5000, 1);
  const Graph b = gnm(1000, 5000, 2);
  int diff = 0;
  for (Vertex v = 0; v < 1000; ++v)
    if (a.degree(v) != b.degree(v)) ++diff;
  EXPECT_GT(diff, 100);
}

TEST(Gnm, ThreadCountInvariant) {
  const Graph a = gnm(2000, 20000, 9, 1);
  const Graph b = gnm(2000, 20000, 9, 8);
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (Vertex v = 0; v < 2000; ++v) EXPECT_EQ(a.degree(v), b.degree(v));
  EXPECT_TRUE(same_graph(a, b));
  // Large enough that edge generation and the build both use every thread.
  const Graph c = gnm(50000, 400000, 9, 1);
  for (const unsigned threads : {2u, 3u, 8u})
    EXPECT_TRUE(same_graph(c, gnm(50000, 400000, 9, threads)))
        << "threads=" << threads;
}

// The benchmark's graphs, as built at seed 11: mis_batch G(2M,10M),
// sssp_batch G(300k,1.5M), and the wire workloads' small and large resident
// graphs (spec seeds 0 and 7919 offset by the run seed). The digests were
// taken before the CSR builder was rewritten without atomics; a change here
// means the benchmark no longer measures the same workloads.
TEST(Gnm, BenchmarkGraphsUnchanged) {
  constexpr std::uint64_t kSeed = 11;
  EXPECT_EQ(fingerprint(gnm(2'000'000, 10'000'000, kSeed)),
            0x6084ba0fa7e39d5cULL);
  EXPECT_EQ(fingerprint(gnm(300'000, 1'500'000, kSeed)),
            0xeb5a16807cfde9d8ULL);
  EXPECT_EQ(fingerprint(gnm(4000, 24000, kSeed)), 0x6b0b5449396359dcULL);
  EXPECT_EQ(fingerprint(gnm(50000, 250000, kSeed + 7919)),
            0x593315c2489b6151ULL);
}

TEST(GnmExact, ExactEdgeCount) {
  const Graph g = gnm_exact(100, 1000, 3);
  EXPECT_EQ(g.num_edges(), 1000u);
}

TEST(GnmExact, DenseFallback) {
  const Graph g = gnm_exact(50, 1200, 5);  // max is 1225: dense path
  EXPECT_EQ(g.num_edges(), 1200u);
}

TEST(GnmExact, FullCliqueRequest) {
  const Graph g = gnm_exact(20, 190, 7);
  EXPECT_EQ(g.num_edges(), 190u);
}

TEST(GnmExact, ThrowsWhenImpossible) {
  EXPECT_THROW(gnm_exact(10, 100, 1), std::invalid_argument);
}

TEST(Gnp, ExpectedDensity) {
  const double p = 0.01;
  const Graph g = gnp(2000, p, 17);
  const double expected = p * 2000.0 * 1999.0 / 2.0;
  EXPECT_GT(g.num_edges(), expected * 0.9);
  EXPECT_LT(g.num_edges(), expected * 1.1);
}

TEST(Gnp, ZeroAndOneProbability) {
  EXPECT_EQ(gnp(100, 0.0, 1).num_edges(), 0u);
  EXPECT_EQ(gnp(50, 1.0, 1).num_edges(), 50u * 49 / 2);
}

TEST(Gnp, ThreadCountInvariant) {
  const Graph a = gnp(3000, 0.01, 23, 1);
  const Graph b = gnp(3000, 0.01, 23, 16);
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (Vertex v = 0; v < 3000; ++v) EXPECT_EQ(a.degree(v), b.degree(v));
  EXPECT_TRUE(same_graph(a, b));
}

TEST(Rmat, SizeAndSkew) {
  const Graph g = rmat(1 << 12, 40000, 0.57, 0.19, 0.19, 31);
  EXPECT_EQ(g.num_vertices(), 1u << 12);
  EXPECT_GT(g.num_edges(), 30000u);  // some dedup expected
  // Power-law-ish: the max degree far exceeds the average degree.
  const double avg = 2.0 * static_cast<double>(g.num_edges()) / (1 << 12);
  EXPECT_GT(g.max_degree(), avg * 5);
}

TEST(Rmat, RejectsNonPowerOfTwo) {
  EXPECT_THROW(rmat(1000, 100, 0.25, 0.25, 0.25, 1), std::invalid_argument);
}

TEST(BarabasiAlbert, SizeAndConnectivity) {
  const Graph g = barabasi_albert(2000, 3, 37);
  EXPECT_EQ(g.num_vertices(), 2000u);
  // BFS from 0 must reach everything (preferential attachment connects).
  std::vector<char> seen(2000, 0);
  std::queue<Vertex> q;
  q.push(0);
  seen[0] = 1;
  std::size_t count = 1;
  while (!q.empty()) {
    const Vertex v = q.front();
    q.pop();
    for (const Vertex u : g.neighbors(v)) {
      if (!seen[u]) {
        seen[u] = 1;
        ++count;
        q.push(u);
      }
    }
  }
  EXPECT_EQ(count, 2000u);
}

TEST(BarabasiAlbert, HubsEmerge) {
  const Graph g = barabasi_albert(5000, 2, 41);
  const double avg = 2.0 * static_cast<double>(g.num_edges()) / 5000;
  EXPECT_GT(g.max_degree(), avg * 8);
}

TEST(Path, Structure) {
  const Graph g = path(5);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(4), 1u);
  EXPECT_EQ(g.degree(2), 2u);
}

TEST(Cycle, Structure) {
  const Graph g = cycle(6);
  EXPECT_EQ(g.num_edges(), 6u);
  for (Vertex v = 0; v < 6; ++v) EXPECT_EQ(g.degree(v), 2u);
  EXPECT_TRUE(g.has_edge(5, 0));
}

TEST(Grid, Structure) {
  const Graph g = grid(3, 4);
  EXPECT_EQ(g.num_vertices(), 12u);
  EXPECT_EQ(g.num_edges(), 3u * 3 + 2u * 4);  // rows*(cols-1) + (rows-1)*cols
  EXPECT_EQ(g.degree(0), 2u);                 // corner
  EXPECT_EQ(g.degree(5), 4u);                 // interior (1,1)
}

TEST(Clique, Structure) {
  const Graph g = clique(8);
  EXPECT_EQ(g.num_edges(), 28u);
  for (Vertex v = 0; v < 8; ++v) EXPECT_EQ(g.degree(v), 7u);
}

TEST(Star, Structure) {
  const Graph g = star(10);
  EXPECT_EQ(g.num_edges(), 9u);
  EXPECT_EQ(g.degree(0), 9u);
  for (Vertex v = 1; v < 10; ++v) EXPECT_EQ(g.degree(v), 1u);
}

TEST(CompleteBipartite, Structure) {
  const Graph g = complete_bipartite(3, 4);
  EXPECT_EQ(g.num_vertices(), 7u);
  EXPECT_EQ(g.num_edges(), 12u);
  for (Vertex v = 0; v < 3; ++v) EXPECT_EQ(g.degree(v), 4u);
  for (Vertex v = 3; v < 7; ++v) EXPECT_EQ(g.degree(v), 3u);
  EXPECT_FALSE(g.has_edge(0, 1));  // within a part
  EXPECT_TRUE(g.has_edge(0, 3));
}

}  // namespace
}  // namespace relax::graph
