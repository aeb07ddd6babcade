#pragma once
// Graph I/O: plain edge-list text files and the binary CSR snapshot.
// Stands in for the paper's HDFS input layer (DESIGN.md section 1); the
// storage backend is orthogonal to everything the evaluation measures.
//
// The snapshot (format spec: DESIGN.md section 5) is the CsrGraph's three
// arrays written raw behind a checksummed little-endian header. Format v3
// places every array at a 64-byte-aligned file offset recorded in the
// header, which enables the zero-copy path: `load_binary_mmap()` maps the
// file (runtime::MappedFile) and returns a CsrGraph whose spans point
// straight into the page cache — load time is a few page faults, and W
// ranks on one host share one physical copy. The heap path (`load_binary`)
// still reads both v2 and v3 snapshots into owned vectors.
// `tools/graph_convert` turns edge lists into snapshots and upgrades v2
// files in place (`--upgrade`); `load_any()` sniffs the magic on a single
// open descriptor so every example and bench accepts either format through
// one entry point, picking mmap automatically for v3 snapshots.

#include <cstdint>
#include <optional>
#include <string>

#include "graph/csr.hpp"
#include "graph/graph.hpp"
#include "runtime/run_config.hpp"

namespace pregel::graph {

/// Text format: first line "num_vertices [weighted]", then one edge per
/// line: "src dst [weight]". Lines starting with '#' are comments.
void save_edge_list(const Graph& g, const std::string& path,
                    bool weighted = false);
Graph load_edge_list(const std::string& path);

/// Tolerant text loader for SNAP-style downloads: accepts the header
/// format above, or a headerless "src dst [weight]" list ('#' comments
/// allowed anywhere) whose vertex count is inferred as max id + 1. A
/// first data line with one token (or "n weighted") is read as a header;
/// a first data line with two-plus numeric tokens is read as an edge.
Graph load_edge_list_auto(const std::string& path);

/// Binary CSR snapshot (little-endian, versioned, checksummed header +
/// raw offset/dst/weight arrays at 64-byte-aligned offsets — format v3).
/// save_binary writes v3; load_binary reads v2 and v3 into heap-owned
/// arrays, verifying the magic, version, array layout and the FNV-1a
/// payload checksum, and throws std::runtime_error on any mismatch.
void save_binary(const CsrGraph& g, const std::string& path);
void save_binary(const Graph& g, const std::string& path);
CsrGraph load_binary(const std::string& path);

/// Zero-copy load of a v3 snapshot: maps the file and returns a CsrGraph
/// whose arrays are spans into the mapping (the mapping stays alive as
/// long as the graph or any copy of it). v2 snapshots are rejected with
/// an upgrade hint — their arrays are not page-aligned.
///
/// Checksum policy: the payload checksum (and the O(V+E) CSR invariant
/// scan) runs on the FIRST load of a given file per process and the
/// verdict is cached by (device, inode, size, mtime), so hot restarts of
/// the same snapshot are O(1). Corrupt files are rejected on that first
/// load.
CsrGraph load_binary_mmap(const std::string& path);

/// How load_any picks the snapshot loader: kAuto maps v3 snapshots and
/// heap-loads everything else; kOn/kOff force the choice (a forced kOn
/// still heap-loads v2 snapshots and text files — back-compat beats the
/// preference). PGCH_MMAP=1/0 selects kOn/kOff; unset is kAuto.
using MmapMode = runtime::MmapMode;

/// Load either format through one open(2): the magic is sniffed from the
/// descriptor, which is then either mapped (v3 + mmap selected), read
/// into heap arrays (snapshots), or handed to the text parser. The
/// one-argument form takes the mode from PGCH_MMAP.
CsrGraph load_any(const std::string& path);
CsrGraph load_any(const std::string& path, MmapMode mode);

/// Snapshot header introspection (graph_convert --stats): the format
/// version and where each array sits in the file (v2 offsets are the
/// implied packed layout). nullopt when the file is not a snapshot.
struct SnapshotInfo {
  std::uint32_t version = 0;
  bool weighted = false;
  std::uint32_t num_vertices = 0;
  std::uint64_t num_edges = 0;
  std::uint64_t checksum = 0;
  std::uint64_t offsets_off = 0;
  std::uint64_t dst_off = 0;
  std::uint64_t weights_off = 0;  ///< 0 when unweighted
};
std::optional<SnapshotInfo> snapshot_info(const std::string& path);

}  // namespace pregel::graph
