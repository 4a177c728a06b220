// Plain-text and binary edge-list persistence (for the examples and for
// interchange with standard graph datasets: one "u v" pair per line,
// '#'-prefixed comment lines ignored — the SNAP convention).
#ifndef TRIENUM_GRAPH_GRAPH_IO_H_
#define TRIENUM_GRAPH_GRAPH_IO_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "graph/types.h"

namespace trienum::graph {

/// Parses a whitespace-separated edge list. Lines starting with '#' or '%'
/// are comments; blank lines are skipped.
Result<std::vector<Edge>> ReadEdgeListText(const std::string& path);

/// Writes "u v" per line.
Status WriteEdgeListText(const std::string& path, const std::vector<Edge>& edges);

/// Compact binary format: u64 count, then count packed Edge records. A file
/// whose length is not exactly 8 + count * sizeof(Edge) bytes is rejected
/// with InvalidArgument.
Result<std::vector<Edge>> ReadEdgeListBinary(const std::string& path);
Status WriteEdgeListBinary(const std::string& path, const std::vector<Edge>& edges);

/// Reads an edge list dispatching on extension: `.bin` / `.bedges` load the
/// binary format, everything else the text format.
Result<std::vector<Edge>> ReadEdgeListAuto(const std::string& path);

}  // namespace trienum::graph

#endif  // TRIENUM_GRAPH_GRAPH_IO_H_
