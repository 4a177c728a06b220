#include "graph/graph_io.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace trienum::graph {
namespace {

/// istream >> uint64_t accepts a leading '-' and wraps it modulo 2^64
/// ("-18446744073709551615" reads as 1), so a line with a '-' is re-read to
/// see whether one of its two ids starts with one, after blanks or glued to
/// the id before it ("1-2").
bool HasNegativeId(const std::string& line) {
  if (line.find('-') == std::string::npos) return false;
  std::istringstream ss(line);
  std::uint64_t first = 0;
  if ((ss >> std::ws).peek() == '-') return true;
  if (!(ss >> first)) return false;
  return (ss >> std::ws).peek() == '-';
}

}  // namespace

Result<std::vector<Edge>> ReadEdgeListText(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  std::vector<Edge> edges;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    std::istringstream ss(line);
    std::uint64_t u, v;
    if (!(ss >> u >> v)) {
      return Status::InvalidArgument("parse error at " + path + ":" +
                                     std::to_string(lineno));
    }
    if (HasNegativeId(line)) {
      return Status::InvalidArgument("negative vertex id at " + path + ":" +
                                     std::to_string(lineno));
    }
    if (u > 0xFFFFFFFFULL || v > 0xFFFFFFFFULL) {
      return Status::OutOfRange("vertex id exceeds 32 bits at " + path + ":" +
                                std::to_string(lineno));
    }
    edges.push_back(Edge{static_cast<VertexId>(u), static_cast<VertexId>(v)});
  }
  return edges;
}

Status WriteEdgeListText(const std::string& path, const std::vector<Edge>& edges) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  for (const Edge& e : edges) out << e.u << ' ' << e.v << '\n';
  if (!out) return Status::IoError("write failed on " + path);
  return Status::OK();
}

Result<std::vector<Edge>> ReadEdgeListBinary(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::IoError("cannot open " + path);
  const std::streamoff file_bytes = in.tellg();
  in.seekg(0);
  if (file_bytes < 0 || !in) return Status::IoError("cannot size " + path);
  std::uint64_t count = 0;
  const auto size = static_cast<std::uint64_t>(file_bytes);
  if (size < sizeof(count)) {
    return Status::InvalidArgument("binary edge file " + path +
                                   " is shorter than its 8-byte header");
  }
  in.read(reinterpret_cast<char*>(&count), sizeof(count));
  if (!in) return Status::IoError("cannot read header of " + path);
  // Validate the header against the file before sizing anything from it: a
  // garbage count must not become a huge allocation.
  const std::uint64_t payload = size - sizeof(count);
  if (payload % sizeof(Edge) != 0 || count != payload / sizeof(Edge)) {
    return Status::InvalidArgument(
        "binary edge file " + path + " declares " + std::to_string(count) +
        " edges but holds " + std::to_string(payload) + " payload bytes");
  }
  std::vector<Edge> edges(count);
  in.read(reinterpret_cast<char*>(edges.data()),
          static_cast<std::streamsize>(count * sizeof(Edge)));
  if (!in) return Status::IoError("truncated payload in " + path);
  return edges;
}

Status WriteEdgeListBinary(const std::string& path, const std::vector<Edge>& edges) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  std::uint64_t count = edges.size();
  out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  out.write(reinterpret_cast<const char*>(edges.data()),
            static_cast<std::streamsize>(count * sizeof(Edge)));
  if (!out) return Status::IoError("write failed on " + path);
  return Status::OK();
}

namespace {

bool IsBinaryPath(const std::string& path) {
  auto ends_with = [&](const char* suffix) {
    const std::size_t n = std::strlen(suffix);
    return path.size() >= n && path.compare(path.size() - n, n, suffix) == 0;
  };
  return ends_with(".bin") || ends_with(".bedges");
}

}  // namespace

Result<std::vector<Edge>> ReadEdgeListAuto(const std::string& path) {
  if (IsBinaryPath(path)) return ReadEdgeListBinary(path);
  return ReadEdgeListText(path);
}

}  // namespace trienum::graph
