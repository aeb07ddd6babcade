#include "harness.hpp"

#include <sstream>

namespace perfbench {

bool same_partition(const std::vector<gr::VertexId>& a,
                    const std::vector<gr::VertexId>& b, std::string* why) {
  if (a.size() != b.size()) {
    *why = "labelling size differs from the reference";
    return false;
  }
  // Labels are vertex ids, so a label -> label map fits in a dense array;
  // the partitions are equal iff the map is a bijection on the labels used.
  const std::size_t n = a.size();
  std::vector<gr::VertexId> a_to_b(n, gr::kInvalidVertex);
  std::vector<gr::VertexId> b_to_a(n, gr::kInvalidVertex);
  for (std::size_t v = 0; v < n; ++v) {
    if (a[v] >= n || b[v] >= n) {
      std::ostringstream os;
      os << "vertex " << v << " has an out-of-range label";
      *why = os.str();
      return false;
    }
    gr::VertexId& fwd = a_to_b[a[v]];
    gr::VertexId& bwd = b_to_a[b[v]];
    if (fwd == gr::kInvalidVertex) fwd = b[v];
    if (bwd == gr::kInvalidVertex) bwd = a[v];
    if (fwd != b[v] || bwd != a[v]) {
      std::ostringstream os;
      os << "vertex " << v << " (label " << a[v] << ", reference label "
         << b[v] << ") is grouped differently from the reference";
      *why = os.str();
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
