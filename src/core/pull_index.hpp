#pragma once
// The pull protocol's wire format and its receiver (DESIGN.md section 9):
// the encoder of a rank's one-time handshake sections, and PullIndex —
// one flat in-edge index per rank, the value column its entries address,
// the decoder of the peers' pull payloads, and the one gather kernel.
//
// Wire format. On the first pull round a rank's payload to a peer is a
// handshake section followed by a values section; on every later pull
// round it is the values section alone.
//
//   handshake  u8    kVersion, | kWeighted when weights follow
//              u32   S, the number of boundary sources
//              S  x  (u32 src lidx, u32 degree): strictly ascending
//                    sources, degree >= 1 edges into the peer each
//              E  x  u32 target lidx in the peer, E = the degree sum, in
//                    (src lidx, edge position) order
//              E  x  u32 weight, only with kWeighted
//   values     u8    kDense: then S values, one per source in handshake
//                    order — every source published this epoch
//                    kSparse: then a u32 count and that many packed
//                    (u32 row, value) wires (runtime/wire.hpp), row = the
//                    source's position in the handshake, strictly
//                    ascending
//
// The handshake's source list is the peer's boundary: once it has
// arrived, a position in it addresses a value, so a dense round carries
// values only and no wire ever repeats the sender's lidx. Weights ride
// only when some edge of the sending rank weighs other than 1.
//
// In memory:
//
//   column_  : this rank's published values (by lidx), then each peer's
//              received boundary values (by handshake row), peers in the
//              order their handshakes were read — rank order. epochs_
//              runs parallel to it.
//   offsets_ : num_local * W + 1 u32 — the entries of (destination d,
//              source rank r) occupy [offsets_[d*W + r], offsets_[d*W+r+1])
//   sources_ : one u32 column index per in-edge, in (d, r, src lidx, edge
//              position) order, padded by kPrefetchDistance zero entries
//   weights_ : parallel to sources_; EMPTY when every weight is 1
//
// The index is built once, in one stable counting pass over every rank's
// handshake section — this rank's own (rank-local edges) included: the
// bucket sizes of a section are counted while it is decoded, and build()
// places every edge straight from the section bytes. Each section lists
// its edges in (src lidx, edge position) order, and stability keeps that
// order inside every (d, r) bucket — the order rank r's push serialize
// folds its contributions in.
//
// Freshness: a source rank is FRESH when every row its entries reference
// was published this pull superstep. For this rank the referenced rows
// are checked one by one; a peer is fresh after a dense round, or a
// sparse one listing all its rows. The gather skips the per-edge epoch
// test for fresh ranks; for the others it compares each row's epoch
// stamp (set by publish() or a sparse round) with the current epoch.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "runtime/buffer.hpp"
#include "runtime/wire.hpp"

namespace pregel::core {

/// Tags of the pull payload (see the format above).
namespace pull_wire {
/// Handshake format version, and the flag that weights follow.
inline constexpr std::uint8_t kVersion = 1;
inline constexpr std::uint8_t kWeighted = 0x80;
/// Values modes: every row in order, or (row, value) wires.
inline constexpr std::uint8_t kDense = 1;
inline constexpr std::uint8_t kSparse = 2;
/// Bytes of one (src lidx, degree) handshake entry.
inline constexpr std::size_t kSourceBytes = 2 * sizeof(std::uint32_t);
}  // namespace pull_wire

/// A rank's handshake sections, one per owner rank (its own included),
/// and the sources each lists — ascending local ids with an edge into
/// that rank.
struct PullSections {
  std::vector<runtime::Buffer> bytes;
  std::vector<std::vector<std::uint32_t>> sources;
};

/// Encode the handshake sections of a rank owning `n` vertices, where
/// `out(lidx)` is lidx's out-edge span and `owner(v)` / `local(v)` place a
/// global id. Two passes over the adjacency: the first sizes every
/// section, the second writes each edge's target (and weight) at its
/// section's cursor and each source's degree behind it — no per-edge
/// record is staged beside the encoded bytes, and no branch in the edge
/// loop tests a looked-up owner.
template <typename Out, typename Owner, typename Local>
PullSections encode_pull_sections(int workers, std::uint32_t n,
                                  const Out& out, const Owner& owner,
                                  const Local& local) {
  const auto ranks = static_cast<std::size_t>(workers);
  std::vector<std::uint32_t> degree(ranks, 0);
  std::vector<std::uint32_t> num_sources(ranks, 0);
  std::vector<std::uint64_t> num_edges(ranks, 0);
  bool weighted = false;
  for (std::uint32_t lidx = 0; lidx < n; ++lidx) {
    const auto edges = out(lidx);
    if (edges.empty()) continue;
    (void)runtime::checked_u32(edges.size(), "pull handshake degree");
    for (const graph::Edge e : edges) {
      ++degree[owner(e.dst)];
      weighted |= e.weight != graph::Weight{1};
    }
    for (std::size_t r = 0; r < ranks; ++r) {
      num_sources[r] += degree[r] != 0 ? 1 : 0;
      num_edges[r] += degree[r];
      degree[r] = 0;
    }
  }

  PullSections sections;
  sections.bytes.resize(ranks);
  sections.sources.resize(ranks);
  const std::size_t edge_bytes =
      sizeof(std::uint32_t) + (weighted ? sizeof(graph::Weight) : 0);
  std::vector<std::byte*> source_at(ranks);
  std::vector<std::byte*> target_at(ranks);
  std::vector<std::byte*> weight_at(ranks);
  for (std::size_t r = 0; r < ranks; ++r) {
    runtime::Buffer& b = sections.bytes[r];
    b.write<std::uint8_t>(weighted ? pull_wire::kVersion | pull_wire::kWeighted
                                   : pull_wire::kVersion);
    b.write<std::uint32_t>(num_sources[r]);
    const std::size_t source_bytes = num_sources[r] * pull_wire::kSourceBytes;
    source_at[r] = b.extend(source_bytes + num_edges[r] * edge_bytes);
    target_at[r] = source_at[r] + source_bytes;
    weight_at[r] = target_at[r] + num_edges[r] * sizeof(std::uint32_t);
    sections.sources[r].reserve(num_sources[r]);
  }
  const auto put = [](std::byte*& at, std::uint32_t v) {
    std::memcpy(at, &v, sizeof(v));
    at += sizeof(v);
  };
  for (std::uint32_t lidx = 0; lidx < n; ++lidx) {
    const auto edges = out(lidx);
    if (edges.empty()) continue;
    for (const graph::Edge e : edges) {
      const std::size_t r = owner(e.dst);
      put(target_at[r], local(e.dst));
      if (weighted) put(weight_at[r], e.weight);
      ++degree[r];
    }
    for (std::size_t r = 0; r < ranks; ++r) {
      if (degree[r] == 0) continue;
      put(source_at[r], lidx);
      put(source_at[r], degree[r]);
      sections.sources[r].push_back(lidx);
      degree[r] = 0;
    }
  }
  return sections;
}

template <typename ValT>
class PullIndex {
 public:
  using Wire = runtime::PackedWire<ValT>;

  /// How many entries ahead of the current one the gather prefetches the
  /// value (and, where it tests them, the epoch) it will read.
  static constexpr std::uint32_t kPrefetchDistance = 16;

  /// Lay out the value column for rank `me` of a team whose rank r owns
  /// `local_counts[r]` vertices. `what` names the channel in errors.
  PullIndex(std::string what, int me, std::vector<std::uint32_t> local_counts)
      : what_(std::move(what)),
        me_(me),
        counts_(std::move(local_counts)),
        base_(counts_.size(), 0),
        rows_(counts_.size(), 0),
        handshaken_(counts_.size(), 0),
        fresh_(counts_.size(), 0),
        sections_(counts_.size()) {
    std::uint64_t total = 0;
    for (const std::uint32_t count : counts_) total += count;
    if (total > std::numeric_limits<std::uint32_t>::max()) {
      throw std::length_error("CombinedMessage '" + what_ +
                              "': more than 2^32 - 1 vertices in the team");
    }
    // Own rows start "never published"; each peer's rows are appended as
    // its handshake is read.
    column_.assign(counts_[self()], ValT{});
    epochs_.assign(counts_[self()], 0u);
  }

  // ---- this rank's published values ----------------------------------

  void publish(std::uint32_t lidx, const ValT& value) {
    column_[lidx] = value;
    epochs_[lidx] = epoch_;
  }
  [[nodiscard]] bool published(std::uint32_t lidx) const {
    return epochs_[lidx] == epoch_;
  }
  [[nodiscard]] const ValT& own_value(std::uint32_t lidx) const {
    return column_[lidx];
  }

  /// This rank's handshake section toward itself — its rank-local edges
  /// (encode_pull_sections) — held until build() decodes and places it.
  void set_own_section(runtime::Buffer section) {
    own_section_ = std::move(section);
  }

  // ---- the peers' pull payloads ----------------------------------------

  /// Decode rank `from`'s handshake section (format above). Validates
  /// every field — each count against the bytes left before anything is
  /// sized by it — counts the edges into their buckets, appends the
  /// rank's boundary rows to the value column and records the section in
  /// place (the buffer must outlive build()).
  void read_handshake(runtime::Buffer& in, int from) {
    const auto rank = static_cast<std::size_t>(from);
    if (handshaken_[rank] != 0) fail(from, "a second handshake");
    const auto tag = take<std::uint8_t>(in, from, "handshake version byte");
    if ((tag & ~pull_wire::kWeighted) != pull_wire::kVersion) {
      fail(from, "unknown handshake version/flags byte " +
                     std::to_string(tag));
    }
    const bool weighted = (tag & pull_wire::kWeighted) != 0;
    const auto num_sources =
        take<std::uint32_t>(in, from, "handshake source count");
    if (num_sources > in.remaining() / pull_wire::kSourceBytes) {
      fail(from, "handshake source count " + std::to_string(num_sources) +
                     " exceeds the " + std::to_string(in.remaining()) +
                     " bytes left");
    }
    Section section;
    section.num_sources = num_sources;
    section.sources = in.read_ptr();
    in.skip(num_sources * pull_wire::kSourceBytes);

    const std::uint32_t n_from = counts_[rank];
    const std::uint32_t n_me = counts_[self()];
    std::uint64_t num_edges = 0;
    for (std::uint32_t i = 0; i < num_sources; ++i) {
      const std::uint32_t src = load_u32(section.sources, 2 * i);
      const std::uint32_t degree = load_u32(section.sources, 2 * i + 1);
      if (src >= n_from) {
        fail(from, "handshake source " + std::to_string(src) +
                       " out of range (rank owns " + std::to_string(n_from) +
                       ")");
      }
      if (i > 0 && src <= load_u32(section.sources, 2 * i - 2)) {
        fail(from, "handshake sources not strictly ascending (" +
                       std::to_string(load_u32(section.sources, 2 * i - 2)) +
                       " then " + std::to_string(src) + ")");
      }
      if (degree == 0) {
        fail(from, "handshake source " + std::to_string(src) +
                       " has degree 0");
      }
      num_edges += degree;
    }
    const std::size_t edge_bytes =
        sizeof(std::uint32_t) + (weighted ? sizeof(graph::Weight) : 0);
    if (num_edges > in.remaining() / edge_bytes) {
      fail(from, "handshake degree sum " + std::to_string(num_edges) +
                     " exceeds the " + std::to_string(in.remaining()) +
                     " bytes left");
    }
    section.targets = in.read_ptr();
    in.skip(num_edges * sizeof(std::uint32_t));
    if (weighted) {
      section.weights = in.read_ptr();
      in.skip(num_edges * sizeof(graph::Weight));
    }

    std::vector<std::uint32_t>& sizes = bucket_sizes();
    for (std::uint64_t k = 0; k < num_edges; ++k) {
      const std::uint32_t dst = load_u32(section.targets, k);
      if (dst >= n_me) {
        fail(from, "handshake target " + std::to_string(dst) +
                       " out of range (this rank owns " +
                       std::to_string(n_me) + ")");
      }
      ++sizes[key(dst, rank)];
      if (weighted) {
        weighted_ |= load_u32(section.weights, k) != graph::Weight{1};
      }
    }

    if (rank == self()) {
      own_rows_.resize(num_sources);
      for (std::uint32_t i = 0; i < num_sources; ++i) {
        own_rows_[i] = load_u32(section.sources, 2 * i);
      }
    } else {
      base_[rank] = static_cast<std::uint32_t>(column_.size());
      column_.resize(column_.size() + num_sources, ValT{});
      epochs_.resize(epochs_.size() + num_sources, 0u);
    }
    rows_[rank] = num_sources;
    handshaken_[rank] = 1;
    sections_[rank] = section;
  }

  /// Decode peer `from`'s values section (format above) — the end of its
  /// payload: the peer's rows a dense round fills, or the rows a sparse
  /// round names, stamped with the current epoch; settles the peer's
  /// freshness. Returns whether the round was dense.
  bool read_values(runtime::Buffer& in, int from) {
    const auto rank = static_cast<std::size_t>(from);
    if (handshaken_[rank] == 0) fail(from, "pull values before a handshake");
    const auto mode = take<std::uint8_t>(in, from, "pull round mode");
    const std::uint32_t rows = rows_[rank];
    ValT* vals = column_.data() + base_[rank];
    if (mode == pull_wire::kDense) {
      if (rows > in.remaining() / sizeof(ValT)) {
        fail(from, "dense round of " + std::to_string(rows) +
                       " values exceeds the " +
                       std::to_string(in.remaining()) + " bytes left");
      }
      if (rows != 0) {
        std::memcpy(vals, in.read_ptr(), std::size_t{rows} * sizeof(ValT));
        in.skip(std::size_t{rows} * sizeof(ValT));
      }
      fresh_[rank] = 1;
    } else if (mode == pull_wire::kSparse) {
      const auto count = take<std::uint32_t>(in, from, "sparse round count");
      if (count > in.remaining() / Wire::kSize) {
        fail(from, "sparse round count " + std::to_string(count) +
                       " exceeds the " + std::to_string(in.remaining()) +
                       " bytes left");
      }
      const std::byte* p = Wire::skip(in, count);
      std::uint32_t* epochs = epochs_.data() + base_[rank];
      std::uint32_t next = 0;  // lowest row the next wire may name
      for (std::uint32_t i = 0; i < count; ++i, p += Wire::kSize) {
        const auto wire = Wire::load(p);
        if (wire.lidx >= rows || wire.lidx < next) {
          fail(from, "boundary row " + std::to_string(wire.lidx) +
                         (wire.lidx >= rows
                              ? " out of range (handshake listed " +
                                    std::to_string(rows) + ")"
                              : " not in ascending order"));
        }
        vals[wire.lidx] = wire.value;
        epochs[wire.lidx] = epoch_;
        next = wire.lidx + 1;
      }
      fresh_[rank] = count == rows ? 1 : 0;
    } else {
      fail(from, "unknown pull round mode " + std::to_string(mode));
    }
    if (!in.exhausted()) {
      fail(from, std::to_string(in.remaining()) +
                     " bytes past the end of the boundary values");
    }
    return mode == pull_wire::kDense;
  }

  [[nodiscard]] bool built() const noexcept { return built_; }

  /// Decode this rank's own section, then place every counted edge: the
  /// bucket sizes become start positions, each section is placed front
  /// to back (so every bucket keeps its section's order) with the offsets
  /// as cursors, and a shift turns the cursors (bucket ends) back into
  /// starts. Frees the own section and forgets the peers' sections.
  void build() {
    if (!own_section_.empty()) read_handshake(own_section_, me_);
    std::vector<std::uint32_t>& sizes = bucket_sizes();
    const std::size_t keys = sizes.size() - 1;
    std::uint64_t total = 0;
    for (std::size_t k = 0; k < keys; ++k) {
      const std::uint32_t size = offsets_[k];
      offsets_[k] = static_cast<std::uint32_t>(total);
      total += size;
      if (total > std::numeric_limits<std::uint32_t>::max() -
                      kPrefetchDistance) {
        throw std::length_error("CombinedMessage '" + what_ +
                                "': too many in-edges on one worker for u32 "
                                "index offsets");
      }
    }
    sources_.assign(total + kPrefetchDistance, 0);
    if (weighted_) weights_.resize(total);
    for (std::size_t r = 0; r < counts_.size(); ++r) {
      if (handshaken_[r] != 0) place(r);
      sections_[r] = Section{};
    }
    own_section_ = runtime::Buffer{};
    std::copy_backward(offsets_.begin(), offsets_.end() - 1, offsets_.end());
    offsets_[0] = 0;
    built_ = true;
  }

  /// Settle this rank's own freshness for the current epoch (after
  /// compute, before the gather).
  void settle_own_freshness() {
    fresh_[self()] =
        std::all_of(own_rows_.begin(), own_rows_.end(),
                    [&](std::uint32_t lidx) { return epochs_[lidx] == epoch_; })
            ? 1
            : 0;
  }

  /// Close the pull superstep: later publishes are the next epoch's.
  void advance_epoch() { ++epoch_; }

  [[nodiscard]] std::uint64_t num_entries() const noexcept {
    return offsets_.empty() ? 0 : offsets_.back();
  }

  /// The one gather kernel: for every destination d in [lo, hi), per
  /// source rank a sub-fold of f(value, weight) over d's entries from that
  /// rank (stale sources skipped), the sub-results folded in rank order;
  /// emit(d, result) for every d that received anything. That nesting
  /// replays push's fold exactly — push combines per sender rank first and
  /// folds the per-rank wires in peer order at delivery — so even float
  /// sums come out bitwise identical.
  template <typename F, typename Combine, typename Emit>
  void gather(std::uint32_t lo, std::uint32_t hi, const F& f,
              const Combine& combine, Emit&& emit) const {
    if (weights_.empty()) {
      gather_rows<false>(lo, hi, f, combine, emit);
    } else {
      gather_rows<true>(lo, hi, f, combine, emit);
    }
  }

 private:
  /// A decoded handshake section, viewing its bytes.
  struct Section {
    const std::byte* sources = nullptr;  ///< (src lidx, degree) u32 pairs
    const std::byte* targets = nullptr;  ///< u32 per edge
    const std::byte* weights = nullptr;  ///< u32 per edge, or null
    std::uint32_t num_sources = 0;
  };

  [[nodiscard]] static std::uint32_t load_u32(const std::byte* p,
                                              std::uint64_t i) {
    std::uint32_t v;
    std::memcpy(&v, p + i * sizeof(v), sizeof(v));
    return v;
  }

  /// Place rank r's counted section: every edge's entry gets the column
  /// index of its source — its lidx on this rank, its handshake row in
  /// the peer's column segment otherwise.
  void place(std::size_t r) {
    const Section& section = sections_[r];
    const bool own = r == self();
    std::uint64_t k = 0;
    for (std::uint32_t i = 0; i < section.num_sources; ++i) {
      const std::uint32_t src = load_u32(section.sources, 2 * i);
      const std::uint32_t degree = load_u32(section.sources, 2 * i + 1);
      const std::uint32_t col = own ? src : base_[r] + i;
      for (const std::uint64_t end = k + degree; k < end; ++k) {
        const std::uint32_t pos =
            offsets_[key(load_u32(section.targets, k), r)]++;
        sources_[pos] = col;
        if (weighted_) {
          weights_[pos] = section.weights != nullptr
                              ? load_u32(section.weights, k)
                              : graph::Weight{1};
        }
      }
    }
  }

  /// Read a T of peer data, failing with the channel and peer named when
  /// the payload ends first.
  template <typename T>
  T take(runtime::Buffer& in, int from, const char* field) const {
    if (in.remaining() < sizeof(T)) fail(from, std::string(field) + " missing");
    return in.read<T>();
  }

  [[nodiscard]] std::size_t self() const noexcept {
    return static_cast<std::size_t>(me_);
  }
  [[nodiscard]] std::size_t key(std::uint32_t d, std::size_t r) const noexcept {
    return std::size_t{d} * counts_.size() + r;
  }

  /// The offsets array, holding bucket sizes until build() — sized on
  /// first use, so it is not resident while the handshake is serialized.
  std::vector<std::uint32_t>& bucket_sizes() {
    if (offsets_.empty()) offsets_.assign(key(counts_[self()], 0) + 1, 0);
    return offsets_;
  }

  [[noreturn]] void fail(int from, const std::string& why) const {
    throw runtime::ProtocolError("CombinedMessage '" + what_ +
                                 "': pull payload from rank " +
                                 std::to_string(from) + ": " + why);
  }

  template <bool kWeighted, typename F, typename Combine, typename Emit>
  void gather_rows(std::uint32_t lo, std::uint32_t hi, const F& f,
                   const Combine& combine, Emit& emit) const {
    const std::size_t workers = counts_.size();
    for (std::uint32_t d = lo; d < hi; ++d) {
      const std::uint32_t* off = offsets_.data() + key(d, 0);
      ValT acc{};
      bool any = false;
      for (std::size_t r = 0; r < workers; ++r) {
        ValT sub{};
        const bool got =
            fresh_[r] != 0
                ? fold<false, kWeighted>(off[r], off[r + 1], f, combine, sub)
                : fold<true, kWeighted>(off[r], off[r + 1], f, combine, sub);
        if (!got) continue;
        acc = any ? combine(acc, sub) : sub;
        any = true;
      }
      if (any) emit(d, acc);
    }
  }

  /// Sub-fold of entries [begin, end) into `sub`; false when none counted.
  /// kCheckEpoch tests each source's epoch (a rank that is not fresh);
  /// without it every entry counts.
  template <bool kCheckEpoch, bool kWeighted, typename F, typename Combine>
  bool fold(std::uint32_t begin, std::uint32_t end, const F& f,
            const Combine& combine, ValT& sub) const {
    const std::uint32_t* src = sources_.data();
    const ValT* vals = column_.data();
    const std::uint32_t* epochs = epochs_.data();
    bool got = false;
    for (std::uint32_t i = begin; i < end; ++i) {
      const std::uint32_t ahead = src[i + kPrefetchDistance];
      __builtin_prefetch(vals + ahead);
      if constexpr (kCheckEpoch) {
        __builtin_prefetch(epochs + ahead);
        if (epochs[src[i]] != epoch_) continue;
      }
      graph::Weight w{1};
      if constexpr (kWeighted) w = weights_[i];
      const ValT contrib = f(vals[src[i]], w);
      sub = got ? combine(sub, contrib) : contrib;
      got = true;
    }
    return got;
  }

  std::string what_;
  int me_;
  std::vector<std::uint32_t> counts_;  ///< local vertex count per rank
  /// Publish epoch: one per pull superstep, bumped after its gather.
  /// Stamps distinguish "published THIS pull superstep" from stale values
  /// (0 = never) without any per-superstep clearing.
  std::uint32_t epoch_ = 1;
  std::vector<ValT> column_;
  std::vector<std::uint32_t> epochs_;
  std::vector<std::uint32_t> base_;    ///< column offset of each rank
  std::vector<std::uint32_t> rows_;    ///< boundary rows per rank's handshake
  std::vector<std::uint8_t> handshaken_;  ///< per rank: handshake read
  std::vector<std::uint32_t> own_rows_;  ///< own rows with local edges, asc
  std::vector<std::uint8_t> fresh_;      ///< per rank, this epoch
  // Build inputs: this rank's own section and, per rank, its decoded
  // section (the peers' in the inbox).
  runtime::Buffer own_section_;
  std::vector<Section> sections_;
  bool weighted_ = false;  ///< some counted edge weighs other than 1
  bool built_ = false;
  // The index.
  std::vector<std::uint32_t> offsets_;
  std::vector<std::uint32_t> sources_;
  std::vector<graph::Weight> weights_;
};

}  // namespace pregel::core
