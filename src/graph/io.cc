#include "graph/io.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <vector>

namespace relax::graph {
namespace {

constexpr std::uint64_t kBinaryMagic = 0x52454c4758454c31ULL;  // "RELGXEL1"

/// Most edges a text read reserves up front (8 MiB of Edge).
constexpr unsigned long long kMaxTextReserve = 1ull << 20;

struct FileCloser {
  void operator()(std::FILE* f) const noexcept {
    if (f != nullptr) std::fclose(f);
  }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

File open_or_throw(const std::string& path, const char* mode) {
  File f(std::fopen(path.c_str(), mode));
  if (!f) throw std::runtime_error("cannot open " + path);
  return f;
}

}  // namespace

void write_edge_list(const Graph& g, const std::string& path) {
  File f = open_or_throw(path, "w");
  std::fprintf(f.get(), "%u %llu\n", g.num_vertices(),
               static_cast<unsigned long long>(g.num_edges()));
  for (Vertex u = 0; u < g.num_vertices(); ++u)
    for (Vertex v : g.neighbors(u))
      if (u < v) std::fprintf(f.get(), "%u %u\n", u, v);
}

Graph read_edge_list(const std::string& path) {
  File f = open_or_throw(path, "r");
  unsigned n = 0;
  unsigned long long m = 0;
  if (std::fscanf(f.get(), "%u %llu", &n, &m) != 2)
    throw std::runtime_error("bad edge list header in " + path);
  // The header's count is a claim, not a size: reserve at most a bounded
  // prefix and let the vector grow as edges actually arrive.
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(
      std::min<unsigned long long>(m, kMaxTextReserve)));
  unsigned u = 0, v = 0;
  while (std::fscanf(f.get(), "%u %u", &u, &v) == 2)
    edges.emplace_back(u, v);
  if (edges.size() != m)
    throw std::runtime_error("edge count mismatch in " + path);
  return Graph::from_edges(static_cast<Vertex>(n), edges);
}

void write_binary(const Graph& g, const std::string& path) {
  File f = open_or_throw(path, "wb");
  const std::uint64_t magic = kBinaryMagic;
  const std::uint32_t n = g.num_vertices();
  const std::uint64_t m = g.num_edges();
  if (std::fwrite(&magic, sizeof magic, 1, f.get()) != 1 ||
      std::fwrite(&n, sizeof n, 1, f.get()) != 1 ||
      std::fwrite(&m, sizeof m, 1, f.get()) != 1)
    throw std::runtime_error("write failure on " + path);
  std::vector<std::uint32_t> buffer;
  buffer.reserve(1 << 16);
  auto flush = [&] {
    if (buffer.empty()) return;
    if (std::fwrite(buffer.data(), sizeof(std::uint32_t), buffer.size(),
                    f.get()) != buffer.size())
      throw std::runtime_error("write failure on " + path);
    buffer.clear();
  };
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    for (Vertex v : g.neighbors(u)) {
      if (u >= v) continue;
      buffer.push_back(u);
      buffer.push_back(v);
      if (buffer.size() >= (1 << 16)) flush();
    }
  }
  flush();
}

Graph read_binary(const std::string& path) {
  File f = open_or_throw(path, "rb");
  std::uint64_t magic = 0;
  std::uint32_t n = 0;
  std::uint64_t m = 0;
  if (std::fread(&magic, sizeof magic, 1, f.get()) != 1 ||
      magic != kBinaryMagic || std::fread(&n, sizeof n, 1, f.get()) != 1 ||
      std::fread(&m, sizeof m, 1, f.get()) != 1)
    throw std::runtime_error("bad binary graph header in " + path);
  // Check the header's edge count against the bytes actually present before
  // sizing any buffer from it: a short file claiming billions of edges is
  // truncated, not a reason to allocate gigabytes.
  const long header_end = std::ftell(f.get());
  if (header_end < 0 || std::fseek(f.get(), 0, SEEK_END) != 0)
    throw std::runtime_error("cannot seek in " + path);
  const long file_end = std::ftell(f.get());
  if (file_end < header_end ||
      std::fseek(f.get(), header_end, SEEK_SET) != 0)
    throw std::runtime_error("cannot seek in " + path);
  if (m > static_cast<std::uint64_t>(file_end - header_end) /
              (2 * sizeof(std::uint32_t)))
    throw std::runtime_error("truncated binary graph " + path);
  std::vector<Edge> edges(m);
  std::vector<std::uint32_t> raw(static_cast<std::size_t>(m) * 2);
  if (std::fread(raw.data(), sizeof(std::uint32_t), raw.size(), f.get()) !=
      raw.size())
    throw std::runtime_error("truncated binary graph " + path);
  for (std::uint64_t e = 0; e < m; ++e)
    edges[e] = {raw[2 * e], raw[2 * e + 1]};
  return Graph::from_edges(static_cast<Vertex>(n), edges);
}

}  // namespace relax::graph
