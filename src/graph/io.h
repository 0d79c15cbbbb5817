// Plain-text and binary edge-list I/O.
//
// Text format ("el"): first line `n m`, then one `u v` pair per line.
// Binary format ("bel"): magic, u32 n, u64 m, then m packed {u32 u, u32 v}.
// The binary form exists so the Figure 2 graphs can be generated once and
// reloaded across benchmark runs.
#pragma once

#include <string>

#include "graph/graph.h"

namespace relax::graph {

/// Writes the graph as a text edge list. Throws std::runtime_error on I/O
/// failure.
void write_edge_list(const Graph& g, const std::string& path);

/// Reads a text edge list written by write_edge_list (or hand-authored).
/// Throws std::runtime_error on a missing or malformed file, and
/// std::invalid_argument (from Graph::from_edges) on a vertex id >= n.
Graph read_edge_list(const std::string& path);

/// Binary variants, with the same errors.
void write_binary(const Graph& g, const std::string& path);
Graph read_binary(const std::string& path);

}  // namespace relax::graph
