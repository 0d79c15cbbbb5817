#include "graph/io.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "graph/generators.h"

namespace relax::graph {
namespace {

class IoTest : public ::testing::Test {
 protected:
  std::string temp_path(const char* name) {
    return std::string(::testing::TempDir()) + "/" + name;
  }

  static void expect_same(const Graph& a, const Graph& b) {
    ASSERT_EQ(a.num_vertices(), b.num_vertices());
    ASSERT_EQ(a.num_edges(), b.num_edges());
    for (Vertex v = 0; v < a.num_vertices(); ++v) {
      const auto na = a.neighbors(v);
      const auto nb = b.neighbors(v);
      ASSERT_EQ(na.size(), nb.size());
      EXPECT_TRUE(std::equal(na.begin(), na.end(), nb.begin()));
    }
  }
};

TEST_F(IoTest, TextRoundTrip) {
  const Graph g = gnm_exact(100, 300, 7);
  const auto path = temp_path("g.el");
  write_edge_list(g, path);
  expect_same(g, read_edge_list(path));
  std::remove(path.c_str());
}

TEST_F(IoTest, TextRoundTripEmpty) {
  const Graph g = Graph::from_edges(10, {});
  const auto path = temp_path("empty.el");
  write_edge_list(g, path);
  expect_same(g, read_edge_list(path));
  std::remove(path.c_str());
}

TEST_F(IoTest, BinaryRoundTrip) {
  const Graph g = gnm_exact(200, 1500, 11);
  const auto path = temp_path("g.bel");
  write_binary(g, path);
  expect_same(g, read_binary(path));
  std::remove(path.c_str());
}

TEST_F(IoTest, BinaryRejectsGarbage) {
  const auto path = temp_path("garbage.bel");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fputs("not a graph", f);
  std::fclose(f);
  EXPECT_THROW(read_binary(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST_F(IoTest, MissingFileThrows) {
  EXPECT_THROW(read_edge_list("/nonexistent/path/g.el"), std::runtime_error);
  EXPECT_THROW(read_binary("/nonexistent/path/g.bel"), std::runtime_error);
}

TEST_F(IoTest, TextHandWritten) {
  const auto path = temp_path("hand.el");
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fputs("3 2\n0 1\n1 2\n", f);
  std::fclose(f);
  const Graph g = read_edge_list(path);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_FALSE(g.has_edge(0, 2));
  std::remove(path.c_str());
}

// A file naming a vertex id >= n must be refused, not read past the CSR's
// arrays: one id equal to n, and one far above it.
TEST_F(IoTest, TextRejectsOutOfRangeIds) {
  for (const char* body : {"3 1\n2 3\n", "3 1\n2 900000000\n"}) {
    const auto path = temp_path("range.el");
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs(body, f);
    std::fclose(f);
    EXPECT_THROW(read_edge_list(path), std::invalid_argument) << body;
    std::remove(path.c_str());
  }
}

TEST_F(IoTest, BinaryRejectsOutOfRangeIds) {
  for (const std::uint32_t bad : {3u, 900'000'000u}) {
    const auto path = temp_path("range.bel");
    std::FILE* f = std::fopen(path.c_str(), "wb");
    const std::uint64_t magic = 0x52454c4758454c31ULL;  // "RELGXEL1"
    const std::uint32_t n = 3;
    const std::uint64_t m = 1;
    const std::uint32_t edge[2] = {2, bad};
    std::fwrite(&magic, sizeof magic, 1, f);
    std::fwrite(&n, sizeof n, 1, f);
    std::fwrite(&m, sizeof m, 1, f);
    std::fwrite(edge, sizeof edge[0], 2, f);
    std::fclose(f);
    EXPECT_THROW(read_binary(path), std::invalid_argument) << bad;
    std::remove(path.c_str());
  }
}

// A header claiming 2^31 edges over a file that holds none must fail with
// the reader's own error, before any buffer is sized from the claim.
TEST_F(IoTest, BinaryRejectsEdgeCountBeyondFileSize) {
  const auto path = temp_path("huge.bel");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  const std::uint64_t magic = 0x52454c4758454c31ULL;  // "RELGXEL1"
  const std::uint32_t n = 10;
  const std::uint64_t m = 1ull << 31;
  std::fwrite(&magic, sizeof magic, 1, f);
  std::fwrite(&n, sizeof n, 1, f);
  std::fwrite(&m, sizeof m, 1, f);
  std::fclose(f);
  try {
    (void)read_binary(path);
    ADD_FAILURE() << "read_binary accepted a truncated file";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST_F(IoTest, TextRejectsEdgeCountBeyondFileContents) {
  const auto path = temp_path("huge.el");
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fputs("10 2147483648\n0 1\n", f);
  std::fclose(f);
  try {
    (void)read_edge_list(path);
    ADD_FAILURE() << "read_edge_list accepted a short file";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("edge count mismatch"),
              std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace relax::graph
