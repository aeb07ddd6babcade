#pragma once
// PullIndex: the receiver side of CombinedMessage's pull protocol
// (DESIGN.md section 9) — one flat in-edge index per rank, the value
// column its entries address, the decoder of the peers' pull payloads,
// and the one gather kernel.
//
// Layout:
//
//   column_  : every rank's vertex values in one array — this rank's
//              published values first, then each peer's received boundary
//              values in rank order (a peer's segment is indexed by the
//              peer's local ids). epochs_ runs parallel to it.
//   offsets_ : num_local * W + 1 u32 — the entries of (destination d,
//              source rank r) occupy [offsets_[d*W + r], offsets_[d*W+r+1])
//   sources_ : one u32 column index per in-edge, in (d, r, src lidx, edge
//              position) order, padded by kPrefetchDistance zero entries
//   weights_ : parallel to sources_; EMPTY when every weight is 1
//
// The index is built once, in one stable counting pass over this rank's
// own rank-local edges and the peers' handshake edges: the bucket sizes
// of a peer's edges are counted while its handshake is decoded, the own
// list's in build(), which then places every edge — the peers' straight
// from the inbox bytes. Each list arrives in (src lidx, edge position) order, and
// stability keeps that order inside every (d, r) bucket — the order rank
// r's push serialize folds its contributions in.
//
// Freshness: an epoch stamp per column slot says whether the value was
// published this pull superstep. A source rank is FRESH when every row its
// entries reference was published this epoch — checked row by row for
// this rank, and for a peer by comparing the number of boundary values it
// sent with the number of distinct rows its handshake referenced (the
// decoder admits only strictly ascending, referenced rows, so equal
// counts mean the same set). The gather skips the per-edge epoch test for
// fresh ranks.

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

namespace pregel::core {

/// One out-edge of a rank whose target the receiving rank owns, in the
/// receiver's coordinates — the unit of the one-time structure handshake
/// and of the index build.
struct PullEdge {
  std::uint32_t src_lidx;  ///< sender-rank local index of the source
  std::uint32_t dst_lidx;  ///< receiver-rank local index of the target
  graph::Weight weight;
};

/// One (local index, value) pair on the wire.
template <typename ValT>
struct LidxWire {
  std::uint32_t lidx;
  ValT value;
};

template <typename ValT>
class PullIndex {
 public:
  using Wire = LidxWire<ValT>;

  /// How many entries ahead of the current one the gather prefetches the
  /// value (and, where it tests them, the epoch) it will read.
  static constexpr std::uint32_t kPrefetchDistance = 16;

  /// Lay out the value column for rank `me` of a team whose rank r owns
  /// `local_counts[r]` vertices. `what` names the channel in errors.
  PullIndex(std::string what, int me, std::vector<std::uint32_t> local_counts)
      : what_(std::move(what)),
        me_(me),
        counts_(std::move(local_counts)),
        base_(counts_.size()),
        ref_rows_(counts_.size(), 0),
        fresh_(counts_.size(), 0),
        spans_(counts_.size(), {nullptr, 0}) {
    const auto own = static_cast<std::size_t>(counts_[self()]);
    std::uint64_t total = own;
    for (std::size_t r = 0; r < counts_.size(); ++r) {
      if (r == self()) continue;
      base_[r] = static_cast<std::uint32_t>(total);
      total += counts_[r];
    }
    if (total > std::numeric_limits<std::uint32_t>::max()) {
      throw std::length_error("CombinedMessage '" + what_ +
                              "': more than 2^32 - 1 vertices in the team");
    }
    column_.assign(total, ValT{});
    // Own rows start "never published"; peer rows stay unreferenced until
    // a handshake edge names them.
    epochs_.assign(total, kUnreferenced);
    std::fill_n(epochs_.begin(), own, 0u);
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

  /// This rank's rank-local out-edges, in (src lidx, edge position)
  /// order, held until build().
  void set_own_edges(std::vector<PullEdge> edges) {
    own_edges_ = std::move(edges);
    for (const PullEdge& e : own_edges_) {
      weighted_ |= e.weight != graph::Weight{1};
      if (own_rows_.empty() || own_rows_.back() != e.src_lidx) {
        own_rows_.push_back(e.src_lidx);
      }
    }
  }

  // ---- the peers' pull payloads ----------------------------------------

  /// Decode peer `from`'s handshake section: a u64 edge count, then that
  /// many PullEdges in (src lidx, edge position) order. Validates every
  /// field, counts the edges into their buckets, marks the referenced rows
  /// of the peer's column segment and records the edges in place (the
  /// buffer must outlive build()).
  void read_handshake(runtime::Buffer& in, int from) {
    const auto peer = static_cast<std::size_t>(from);
    const std::uint32_t n_from = counts_[peer];
    const std::uint32_t n_me = counts_[self()];
    std::vector<std::uint32_t>& sizes = bucket_sizes();
    const auto count = in.read<std::uint64_t>();
    if (count > in.remaining() / sizeof(PullEdge)) {
      fail(from, "handshake edge count " + std::to_string(count) +
                     " exceeds the " + std::to_string(in.remaining()) +
                     " bytes left");
    }
    const std::byte* p = in.read_ptr();
    in.skip(static_cast<std::size_t>(count) * sizeof(PullEdge));
    std::uint32_t* epochs = epochs_.data() + base_[peer];
    std::uint32_t prev = 0;
    std::uint32_t refs = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
      PullEdge e;
      std::memcpy(&e, p + i * sizeof(PullEdge), sizeof(PullEdge));
      if (e.src_lidx >= n_from) {
        fail(from, "handshake source " + std::to_string(e.src_lidx) +
                       " out of range (peer owns " + std::to_string(n_from) +
                       ")");
      }
      if (e.src_lidx < prev) {
        fail(from, "handshake sources descend (" + std::to_string(prev) +
                       " then " + std::to_string(e.src_lidx) + ")");
      }
      if (e.dst_lidx >= n_me) {
        fail(from, "handshake target " + std::to_string(e.dst_lidx) +
                       " out of range (this rank owns " +
                       std::to_string(n_me) + ")");
      }
      if (epochs[e.src_lidx] == kUnreferenced) {
        epochs[e.src_lidx] = 0;
        ++refs;
      }
      prev = e.src_lidx;
      ++sizes[key(e.dst_lidx, peer)];
      weighted_ |= e.weight != graph::Weight{1};
    }
    ref_rows_[peer] = refs;
    spans_[peer] = {p, count};
  }

  /// Decode peer `from`'s boundary values section: a u32 count, then that
  /// many (lidx, value) wires in strictly ascending lidx order, each a row
  /// the peer's handshake referenced. Stamps them with the current epoch
  /// and settles the peer's freshness.
  void read_values(runtime::Buffer& in, int from) {
    const auto peer = static_cast<std::size_t>(from);
    const std::uint32_t n_from = counts_[peer];
    const auto count = in.read<std::uint32_t>();
    if (count > in.remaining() / sizeof(Wire)) {
      fail(from, "boundary value count " + std::to_string(count) +
                     " exceeds the " + std::to_string(in.remaining()) +
                     " bytes left");
    }
    ValT* vals = column_.data() + base_[peer];
    std::uint32_t* epochs = epochs_.data() + base_[peer];
    std::uint32_t next = 0;  // lowest lidx the next wire may carry
    for (std::uint32_t i = 0; i < count; ++i) {
      const auto wire = in.read<Wire>();
      if (wire.lidx >= n_from || wire.lidx < next) {
        fail(from, "boundary vertex " + std::to_string(wire.lidx) +
                       (wire.lidx >= n_from ? " out of range (peer owns " +
                                                  std::to_string(n_from) + ")"
                                            : " not in ascending order"));
      }
      if (epochs[wire.lidx] == kUnreferenced) {
        fail(from, "boundary vertex " + std::to_string(wire.lidx) +
                       " has no edge into this rank");
      }
      vals[wire.lidx] = wire.value;
      epochs[wire.lidx] = epoch_;
      next = wire.lidx + 1;
    }
    fresh_[peer] = count == ref_rows_[peer] ? 1 : 0;
  }

  [[nodiscard]] bool built() const noexcept { return built_; }

  /// Place every counted edge: the bucket sizes become start positions,
  /// each list is placed front to back (so every bucket keeps its list's
  /// order) with the offsets as cursors, and a shift turns the cursors
  /// (bucket ends) back into starts. Frees the own-edge list and forgets
  /// the handshake spans.
  void build() {
    std::vector<std::uint32_t>& sizes = bucket_sizes();
    for (const PullEdge& e : own_edges_) ++sizes[key(e.dst_lidx, self())];
    const std::size_t keys = offsets_.size() - 1;
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
    const auto place = [&](const PullEdge& e, std::size_t r) {
      const std::uint32_t pos = offsets_[key(e.dst_lidx, r)]++;
      sources_[pos] = base_[r] + e.src_lidx;
      if (weighted_) weights_[pos] = e.weight;
    };
    for (const PullEdge& e : own_edges_) place(e, self());
    own_edges_ = {};
    for (std::size_t r = 0; r < counts_.size(); ++r) {
      const auto [p, n] = spans_[r];
      for (std::uint64_t i = 0; i < n; ++i) {
        PullEdge e;
        std::memcpy(&e, p + i * sizeof(PullEdge), sizeof(PullEdge));
        place(e, r);
      }
      spans_[r] = {nullptr, 0};
    }
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
  /// Epoch stamp of a peer row no handshake edge references.
  static constexpr std::uint32_t kUnreferenced =
      std::numeric_limits<std::uint32_t>::max();

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
  std::vector<std::uint32_t> base_;    ///< column offset of each rank
  /// Publish epoch: one per pull superstep, bumped after its gather.
  /// Stamps distinguish "published THIS pull superstep" from stale values
  /// (0 = never) without any per-superstep clearing.
  std::uint32_t epoch_ = 1;
  std::vector<ValT> column_;
  std::vector<std::uint32_t> epochs_;
  std::vector<std::uint32_t> own_rows_;  ///< own rows with local edges, asc
  std::vector<std::uint32_t> ref_rows_;  ///< distinct rows referenced, per rank
  std::vector<std::uint8_t> fresh_;      ///< per rank, this epoch
  // Build inputs: the own rank-local edges and, per peer, its handshake
  // edges in the inbox.
  std::vector<PullEdge> own_edges_;
  std::vector<std::pair<const std::byte*, std::uint64_t>> spans_;
  bool weighted_ = false;  ///< some counted edge weighs other than 1
  bool built_ = false;
  // The index.
  std::vector<std::uint32_t> offsets_;
  std::vector<std::uint32_t> sources_;
  std::vector<graph::Weight> weights_;
};

}  // namespace pregel::core
