#pragma once
// CombinedMessage: message passing with a per-channel combiner (Table I).
//
// This is the channel that removes Pregel's "one global combiner per
// program" restriction (Section II-B): each CombinedMessage instance owns
// its combiner, so a multi-phase algorithm can combine one message kind
// while another kind flows uncombined through a different channel.
//
// Combining happens on both sides: the sender merges values for the same
// destination vertex before serializing, and the receiver merges batches
// from different workers.
//
// Staging is sharded per (compute slot, destination rank) — the parallel
// communication phase of DESIGN.md section 8:
//
//  * Exact combiners (Combiner::exact — min/max/or, integer sums) combine
//    AT STAGE TIME: each slot keeps a dense partial keyed by the
//    receiver's local index, so a send is an array write, not a hash
//    lookup. The partial's value/flag arrays are dense — O(receiver
//    slice) per (chunk, destination rank) pair that sends at all, lazily
//    allocated and reused for the whole run — while per-superstep work
//    (merge + reset, via the touched lists) stays O(unique
//    destinations). A future hash-partial mode is the knob to pull if
//    chunk-count x slice-size dense arrays ever dominate on huge graphs.
//  * Inexact combiners (floating-point sums) keep per-chunk raw message
//    logs; the merge replays them message by message in chunk order, which
//    is exactly the sequential fold (chunks are contiguous and
//    ascending, whichever slot executed them), so float results stay
//    bitwise identical across thread counts and schedules. Trade-off: the
//    logs stage O(messages) per superstep rather than O(unique
//    destinations) — combining them earlier would regroup the float fold
//    and break the bitwise invariant. (Parallel compute already staged
//    O(messages) in the slot-keyed staging era; what changed is that the
//    sequential path now does too.)
//
// serialize() merges the shards per destination rank — in parallel over
// contiguous destination-rank ranges when the engine runs the comm phase
// with threads — and emits one combined (lidx, value) pair per unique
// destination in first-touch order, which is itself independent of the
// thread count. Delivery range-partitions the local vertex space; each
// slot scans the peer inboxes in peer order and applies only its own
// range, preserving the sequential per-vertex application order without
// atomics on values.
//
// Pull protocol (DESIGN.md section 9): a CombinedMessage constructed with
// an edge transform f(value, weight) additionally supports gather-mode
// supersteps. The algorithm calls publish(value) once per vertex instead
// of looping its out-edges; in push mode publish() expands to the classic
// per-edge send_message(e.dst, f(value, e.weight)) loop (byte-identical
// wire traffic), while in pull mode it just stores the value in an
// epoch-stamped column and every destination vertex gathers f(published,
// weight) from its in-neighbors during deserialize — rank-local edges
// ship ZERO wire bytes; remote in-neighbors arrive as each peer's
// boundary values — the values alone, in boundary-list order, when every
// boundary vertex published (a dense round), else packed (row, value)
// wires. The in-edge index is one flat PullIndex per rank
// (core/pull_index.hpp), built in one counting pass from the rank's own
// adjacency and the peers' edges into it, which arrive through a one-time
// CSR-style structure handshake prepended to the first pull-round payload
// (a localized TCP rank has no other way to know its remote in-edges);
// its source lists are the boundary lists. The gather replays
// the push fold order exactly — per source rank a sub-fold in (src lidx,
// edge position) order, sub-results folded in rank order — so results
// are bitwise identical to push even for float-sum combiners.
//
// Typed folds (DESIGN.md section 8): every per-item fold — stage-time
// combining, the serialize merge, delivery and the pull gather — runs
// inside with_combine_op(), so the stock combiners inline into the loop.
// The pull-capable constructor is a template on the edge transform's type
// and keeps the gather and push-expansion kernels instantiated for it, so
// a gather range or one vertex's expansion costs one indirect call and no
// edge pays one.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/channel.hpp"
#include "core/pull_index.hpp"
#include "core/types.hpp"
#include "core/worker.hpp"
#include "runtime/wire.hpp"

namespace pregel::core {

template <typename VertexT, typename ValT>
  requires runtime::TriviallySerializable<ValT>
class CombinedMessage : public Channel {
 public:
  /// How a published value turns into the contribution one out-edge
  /// carries: f(value, edge weight). PageRank passes the identity (every
  /// out-edge carries the same share), SSSP passes dist + w. Any callable
  /// of this shape works; a lambda inlines into the gather, an EdgeFn is
  /// called through std::function.
  using EdgeFn = std::function<ValT(const ValT&, graph::Weight)>;

  CombinedMessage(Worker<VertexT>* w, Combiner<ValT> combiner,
                  std::string name = "combined")
      : Channel(w, std::move(name)),
        worker_(w),
        combiner_(std::move(combiner)),
        slot_(w->num_local(), combiner_.identity),
        has_(w->num_local(), 0),
        shards_(1),
        merge_(static_cast<std::size_t>(w->num_workers())),
        recv_touched_(1),
        spans_(static_cast<std::size_t>(w->num_workers())) {
    init_shard(shards_[0]);
  }

  /// Pull-capable form: the edge transform makes the channel's messaging
  /// pattern explicit (one value per vertex, expanded per out-edge), which
  /// is what lets the engine run dense supersteps in gather mode.
  /// Algorithms using this form call publish() instead of the per-edge
  /// send_message() loop. A null function pointer or an empty EdgeFn
  /// leaves the channel push-only, like the plain form.
  template <typename F>
    requires std::is_invocable_r_v<ValT, const F&, const ValT&,
                                   graph::Weight>
  CombinedMessage(Worker<VertexT>* w, Combiner<ValT> combiner, F f,
                  std::string name = "combined")
      : CombinedMessage(w, std::move(combiner), std::move(name)) {
    if constexpr (std::is_pointer_v<F> || std::is_same_v<F, EdgeFn>) {
      if (!f) return;
    }
    edge_fn_ = detail::erase_fn(std::move(f));
    gather_ = [](CombinedMessage& self, std::uint32_t lo, std::uint32_t hi,
                 int slot) { self.gather_range<F>(lo, hi, slot); };
    expand_ = [](CombinedMessage& self, std::uint32_t lidx,
                 const ValT& value) { self.expand<F>(lidx, value); };
  }

  /// Send m to dst; values for the same destination are combined. Safe
  /// from parallel compute threads: staging is keyed by the caller's
  /// current compute chunk (run by exactly one thread). Only valid in
  /// push supersteps — during a pull
  /// superstep senders publish and receivers gather, so a stray per-edge
  /// send would silently vanish; throw instead.
  void send_message(KeyT dst, const ValT& m) {
    if (direction_ == Direction::kPull) {
      throw std::logic_error(
          "CombinedMessage::send_message called during a pull superstep — "
          "pull-capable channels must stage per-vertex values via publish()");
    }
    stage(current_shard(), dst, m, combiner_);
  }

  /// Publish the current vertex's value for this superstep (pull-capable
  /// channels only). Push superstep: expands to the per-edge
  /// send_message(e.dst, f(value, e.weight)) loop — wire bytes identical
  /// to hand-written sends. Pull superstep: stores the value in the
  /// epoch-stamped published column (one exclusive slot per vertex, so
  /// parallel compute threads need no staging) for receivers to gather.
  void publish(const ValT& value) {
    if (!pull_capable()) {
      throw std::logic_error(
          "CombinedMessage::publish requires the pull-capable constructor "
          "(the one taking an edge transform)");
    }
    const std::uint32_t lidx = w().current_local();
    if (direction_ == Direction::kPull) {
      index_->publish(lidx, value);
      return;
    }
    expand_(*this, lidx, value);
  }

  /// Values sections this rank received in pull rounds, one per peer per
  /// round: dense ones (every boundary value, in list order) and sparse
  /// ones ((row, value) wires).
  [[nodiscard]] std::uint64_t dense_sections() const noexcept {
    return dense_sections_;
  }
  [[nodiscard]] std::uint64_t sparse_sections() const noexcept {
    return sparse_sections_;
  }

  [[nodiscard]] bool pull_capable() const override {
    return gather_ != nullptr;
  }

  /// Engine announcement of this superstep's collective direction. The
  /// first pull superstep lazily builds the sender-side pull state (the
  /// value column, the per-peer boundary lists and the encoded handshake
  /// sections, the rank's own included); the index itself is built once
  /// the peers' handshakes have arrived.
  void set_direction(Direction dir) override {
    direction_ = dir;
    if (dir == Direction::kPull) ensure_pull_ready();
  }

  /// Grow the shard set to one per compute chunk. No replay happens in
  /// end_compute(): staging is already chunk-keyed, and the
  /// serialize-time merge walks the shards in chunk order (the sequential
  /// message order, whichever slot ran each chunk).
  void begin_compute(int num_chunks) override {
    if (static_cast<int>(shards_.size()) < num_chunks) {
      const std::size_t old = shards_.size();
      shards_.resize(static_cast<std::size_t>(num_chunks));
      for (std::size_t s = old; s < shards_.size(); ++s) {
        init_shard(shards_[s]);
      }
    }
  }

  /// Combined value delivered to the current vertex (combiner identity if
  /// nothing arrived; check has_message() to distinguish).
  [[nodiscard]] const ValT& get_message() const {
    return slot_[w().current_local()];
  }

  [[nodiscard]] bool has_message() const {
    return has_[w().current_local()] != 0;
  }

  void serialize() override {
    reset_receive_slots();
    if (direction_ == Direction::kPull) {
      emit_pull_ranks(0, w().num_workers());
    } else {
      emit_ranks(0, w().num_workers());
    }
  }

  /// Fan the per-destination-rank merge + emit over the comm pool: each
  /// thread owns a contiguous destination-rank range and writes into its
  /// ranks' outboxes exclusively. Identical bytes to serialize().
  void serialize_parallel() override {
    reset_receive_slots();
    if (direction_ == Direction::kPull) {
      // Boundary payloads are small (at most one value per boundary
      // vertex); the rank fan-out still applies and bytes are identical.
      std::uint64_t staged = 0;
      for (const auto& b : boundary_) staged += b.size();
      w().run_comm_partitioned(
          staged, static_cast<std::uint32_t>(w().num_workers()), nullptr,
          [this](std::uint32_t begin, std::uint32_t end, int) {
            emit_pull_ranks(static_cast<int>(begin), static_cast<int>(end));
          });
      return;
    }
    w().run_comm_partitioned(
        staged_items(), static_cast<std::uint32_t>(w().num_workers()),
        nullptr, [this](std::uint32_t begin, std::uint32_t end, int) {
          emit_ranks(static_cast<int>(begin), static_cast<int>(end));
        });
  }

  /// Ranged-serialize opt-in (pipelined rounds): destinations are fully
  /// independent here — emit_ranks/emit_pull_ranks touch only
  /// per-destination merge state and the destination's own outbox — so
  /// per-rank emits in any order are byte-identical to serialize().
  bool serialize_prepare() override {
    reset_receive_slots();
    return true;
  }

  void serialize_rank(int to) override {
    if (direction_ == Direction::kPull) {
      emit_pull_ranks(to, to + 1);
    } else {
      emit_ranks(to, to + 1);
    }
  }

  /// Sequential delivery: the range-partitioned delivery below over the
  /// whole local vertex range, as one slot.
  void deserialize() override {
    if (direction_ == Direction::kPull) {
      absorb_pull_payloads();
      gather_(*this, 0, num_local_limit(), 0);
      index_->advance_epoch();
      return;
    }
    record_spans();
    apply_spans(0, num_local_limit(), 0);
  }

  /// Range-partitioned delivery: record each peer payload's raw span,
  /// then every pool slot scans all spans in peer order applying only the
  /// wires whose destination falls in its contiguous local-vertex range.
  /// In pull mode the gather itself is the range-partitioned work — each
  /// destination vertex's fold is independent, so the fan-out is bitwise
  /// free.
  void deliver_parallel() override {
    if (direction_ == Direction::kPull) {
      absorb_pull_payloads();
      w().run_comm_partitioned(
          index_->num_entries(), num_local_limit(), &recv_touched_,
          [this](std::uint32_t lo, std::uint32_t hi, int slot) {
            gather_(*this, lo, hi, slot);
          });
      index_->advance_epoch();
      return;
    }
    w().run_comm_partitioned(
        record_spans(), num_local_limit(), &recv_touched_,
        [this](std::uint32_t lo, std::uint32_t hi, int slot) {
          apply_spans(lo, hi, slot);
        });
  }

 private:
  /// The in-memory staging record, and the packed codec of its wire form.
  using Staged = runtime::IndexedValue<ValT>;
  using Wire = runtime::PackedWire<ValT>;

  /// Pending combined values keyed by a local index: one slot's staging
  /// for one destination rank, or the serialize merge for one rank.
  struct Partial {
    std::vector<ValT> vals;
    std::vector<std::uint8_t> has;
    std::vector<std::uint32_t> touched;  ///< first-touch order
  };

  /// One compute slot's staging, sharded by destination rank.
  struct Shard {
    std::vector<Partial> partial;          ///< exact combiners
    std::vector<std::vector<Staged>> log;  ///< inexact combiners
  };

  void init_shard(Shard& s) {
    const auto workers = static_cast<std::size_t>(w().num_workers());
    s.partial.resize(workers);
    s.log.resize(workers);
  }

  [[nodiscard]] Shard& current_shard() {
    return shards_[static_cast<std::size_t>(detail::t_compute_chunk)];
  }

  /// Stage one message: exact combiners combine it into the chunk's dense
  /// per-destination partial (lazily sized to the receiving rank's
  /// slice), inexact ones log it raw.
  template <typename Combine>
  void stage(Shard& shard, KeyT dst, const ValT& m, const Combine& combine) {
    const auto to = static_cast<std::size_t>(w().owner_of(dst));
    const std::uint32_t lidx = w().local_of(dst);
    if (combiner_.exact) {
      Partial& p = shard.partial[to];
      if (p.vals.empty()) {
        const std::uint32_t n = peer_local_count(static_cast<int>(to));
        p.vals.assign(n, combiner_.identity);
        p.has.assign(n, 0);
      }
      detail::fold_slot(p.vals, p.has, p.touched, lidx, m, combine);
    } else {
      shard.log[to].push_back(Staged{lidx, m});
    }
  }

  /// Push expansion of one published value, typed on the edge transform:
  /// send_message(e.dst, f(value, e.weight)) per out-edge of lidx.
  template <typename F>
  void expand(std::uint32_t lidx, const ValT& value) {
    const F& f = edge_fn<F>();
    Shard& shard = current_shard();
    with_combine_op(combiner_, [&](const auto& combine) {
      for (const graph::Edge e : worker_->dgraph().out(w().rank(), lidx)) {
        stage(shard, e.dst, f(value, e.weight), combine);
      }
    });
  }

  template <typename F>
  [[nodiscard]] const F& edge_fn() const {
    return *static_cast<const F*>(edge_fn_.get());
  }

  [[nodiscard]] std::uint32_t peer_local_count(int rank) const {
    return worker_->dgraph().num_local(rank);
  }

  [[nodiscard]] std::uint32_t num_local_limit() const {
    return worker_->num_local();
  }

  [[nodiscard]] std::uint64_t staged_items() const {
    std::uint64_t total = 0;
    for (const Shard& s : shards_) {
      for (const Partial& p : s.partial) total += p.touched.size();
      for (const auto& log : s.log) total += log.size();
    }
    return total;
  }

  /// Drop the receive state the previous superstep's compute read.
  void reset_receive_slots() {
    for (auto& touched : recv_touched_) {
      for (const std::uint32_t lidx : touched) {
        slot_[lidx] = combiner_.identity;
        has_[lidx] = 0;
      }
      touched.clear();
    }
  }

  // ---- checkpoint/restore ------------------------------------------------
  // Cross-superstep state is exactly the receive side: the combined
  // value + presence flag per local vertex (messages delivered at the
  // end of superstep N, consumed by compute in N+1). Staging shards are
  // empty at the boundary and the pull handshake re-publishes lazily on
  // every rank after a restore (all ranks restart from the same epoch
  // with fresh channel objects), so neither is persisted.

  void save_state(runtime::Buffer& out) override {
    out.write_vector(slot_);
    out.write_vector(has_);
  }

  void restore_state(runtime::Buffer& in) override {
    slot_ = in.read_vector<ValT>();
    has_ = in.read_vector<std::uint8_t>();
    if (slot_.size() != num_local_limit() || has_.size() != slot_.size()) {
      throw runtime::ProtocolError(
          "CombinedMessage restore: checkpoint shape does not match this "
          "rank's vertex count");
    }
    for (auto& touched : recv_touched_) touched.clear();
    for (std::uint32_t lidx = 0; lidx < has_.size(); ++lidx) {
      if (has_[lidx]) recv_touched_[0].push_back(lidx);
    }
  }

  /// Write one combined wire pair per touched index of p, in first-touch
  /// order, and reset p for reuse.
  void emit_partial(Partial& p, int to) {
    runtime::Buffer& out = w().outbox(to);
    out.write<std::uint32_t>(
        runtime::checked_u32(p.touched.size(), "CombinedMessage wire count"));
    std::byte* at = Wire::append(out, p.touched.size());
    for (const std::uint32_t lidx : p.touched) {
      Wire::store(at, lidx, p.vals[lidx]);
      at += Wire::kSize;
      p.vals[lidx] = combiner_.identity;
      p.has[lidx] = 0;
    }
    p.touched.clear();
  }

  /// Merge every shard's staging for destination ranks [begin, end) and
  /// emit one combined wire pair per unique destination. Walking shards
  /// in chunk order makes both the fold sequence (raw logs: message by
  /// message) and the first-touch wire order exactly the sequential ones,
  /// so bytes and float bits are independent of the thread count and of
  /// which slot executed each chunk.
  void emit_ranks(int begin, int end) {
    with_combine_op(combiner_, [&](const auto& combine) {
      for (int to = begin; to < end; ++to) {
        const auto peer = static_cast<std::size_t>(to);
        if (combiner_.exact && shards_.size() == 1) {
          // Single-shard exact staging: the chunk partial already holds
          // the final combined values in first-touch order — emit it
          // directly.
          emit_partial(shards_[0].partial[peer], to);
          continue;
        }
        Partial& m = merge_[peer];
        if (m.vals.empty()) {
          const std::uint32_t n = peer_local_count(to);
          m.vals.assign(n, combiner_.identity);
          m.has.assign(n, 0);
        }
        for (Shard& shard : shards_) {
          Partial& p = shard.partial[peer];
          for (const std::uint32_t lidx : p.touched) {
            detail::fold_slot(m.vals, m.has, m.touched, lidx, p.vals[lidx],
                              combine);
            p.vals[lidx] = combiner_.identity;
            p.has[lidx] = 0;
          }
          p.touched.clear();
          auto& log = shard.log[peer];
          for (const Staged& wire : log) {
            detail::fold_slot(m.vals, m.has, m.touched, wire.lidx,
                              wire.value, combine);
          }
          log.clear();
        }
        emit_partial(m, to);
      }
    });
  }

  /// Record every peer payload's raw wire span (push rounds); returns the
  /// total wire count.
  std::uint64_t record_spans() {
    const int num_workers = w().num_workers();
    std::uint64_t total = 0;
    for (int from = 0; from < num_workers; ++from) {
      runtime::Buffer& in = w().inbox(from);
      const auto n = in.read<std::uint32_t>();
      spans_[static_cast<std::size_t>(from)] = {Wire::skip(in, n), n};
      total += n;
    }
    return total;
  }

  /// Apply all recorded peer spans restricted to lidx in [lo, hi) — peer
  /// order, then in-payload order, i.e. the sequential per-vertex order.
  void apply_spans(std::uint32_t lo, std::uint32_t hi, int delivery_slot) {
    auto& touched = recv_touched_[static_cast<std::size_t>(delivery_slot)];
    with_combine_op(combiner_, [&](const auto& combine) {
      for (const auto& [ptr, n] : spans_) {
        const std::byte* p = ptr;
        for (std::uint32_t i = 0; i < n; ++i, p += Wire::kSize) {
          const Staged wire = Wire::load(p);
          if (wire.lidx < lo || wire.lidx >= hi) continue;
          detail::fold_slot(slot_, has_, touched, wire.lidx, wire.value,
                            combine);
          worker_->activate_local(wire.lidx);  // atomic frontier word-OR
        }
      }
    });
  }
  // ---- pull protocol (DESIGN.md section 9) --------------------------------

  /// First pull superstep: build everything derivable from the rank's own
  /// adjacency — the value column, and in one two-pass encode
  /// (encode_pull_sections) the handshake section toward every rank with
  /// the boundary list it names. The section toward this rank holds the
  /// rank-local edges; the index decodes it like a peer's at build. Works
  /// identically on a localized TCP view: only out(rank, lidx) and the
  /// global partition id maps are touched.
  void ensure_pull_ready() {
    if (index_) return;
    const int num_workers = w().num_workers();
    const int me = w().rank();
    std::vector<std::uint32_t> counts(static_cast<std::size_t>(num_workers));
    for (int r = 0; r < num_workers; ++r) {
      counts[static_cast<std::size_t>(r)] = peer_local_count(r);
    }
    index_.emplace(name(), me, std::move(counts));
    PullSections sections = encode_pull_sections(
        num_workers, num_local_limit(),
        [&](std::uint32_t lidx) { return worker_->dgraph().out(me, lidx); },
        [&](VertexId v) { return static_cast<std::size_t>(w().owner_of(v)); },
        [&](VertexId v) { return w().local_of(v); });
    const auto self = static_cast<std::size_t>(me);
    index_->set_own_section(std::move(sections.bytes[self]));
    handshake_out_ = std::move(sections.bytes);
    boundary_ = std::move(sections.sources);
    boundary_[self] = {};
  }

  /// Emit the pull-round payload for destination ranks [begin, end): for
  /// each peer, the one-time handshake section, then the values section
  /// over its boundary list. The self payload is ZERO bytes: rank-local
  /// edges are gathered straight from the value column, nothing rides
  /// the wire.
  void emit_pull_ranks(int begin, int end) {
    const int me = w().rank();
    // The handshake rides the round that builds the index; the flag flips
    // only in absorb_pull_payloads(), after every range has emitted.
    const bool with_handshake = !index_->built();
    for (int to = begin; to < end; ++to) {
      if (to == me) continue;
      const auto peer = static_cast<std::size_t>(to);
      runtime::Buffer& out = w().outbox(to);
      if (with_handshake) {
        runtime::Buffer& section = handshake_out_[peer];
        out.reserve(out.size() + section.size() + sizeof(std::uint8_t) +
                    sizeof(std::uint32_t) +
                    boundary_[peer].size() * Wire::kSize);
        out.write_bytes(section.data(), section.size());
        section = runtime::Buffer{};  // shipped: free it
      }
      emit_pull_values(out, boundary_[peer]);
    }
  }

  /// One values section over `rows`, a peer's boundary list: dense — the
  /// mode tag, then every row's value in list order — when every row
  /// published this epoch, else sparse: the tag, a count and one packed
  /// (row position, value) wire per published row.
  void emit_pull_values(runtime::Buffer& out,
                        const std::vector<std::uint32_t>& rows) {
    const PullIndex<ValT>& index = *index_;
    const auto published = static_cast<std::size_t>(std::count_if(
        rows.begin(), rows.end(),
        [&](std::uint32_t lidx) { return index.published(lidx); }));
    if (published == rows.size()) {
      out.write<std::uint8_t>(pull_wire::kDense);
      std::byte* p = out.extend(rows.size() * sizeof(ValT));
      for (const std::uint32_t lidx : rows) {
        std::memcpy(p, &index.own_value(lidx), sizeof(ValT));
        p += sizeof(ValT);
      }
      return;
    }
    out.write<std::uint8_t>(pull_wire::kSparse);
    out.write<std::uint32_t>(
        runtime::checked_u32(published, "CombinedMessage sparse round count"));
    std::byte* p = Wire::append(out, published);
    for (std::uint32_t row = 0; row < rows.size(); ++row) {
      if (!index.published(rows[row])) continue;
      Wire::store(p, row, index.own_value(rows[row]));
      p += Wire::kSize;
    }
  }

  /// Read every peer's pull payload — the one-time handshake, then the
  /// boundary values — into the index; the first round then builds it.
  /// Every field is validated: damage throws runtime::ProtocolError
  /// naming the channel and the peer.
  void absorb_pull_payloads() {
    const bool first = !index_->built();
    const int num_workers = w().num_workers();
    const int me = w().rank();
    for (int from = 0; from < num_workers; ++from) {
      if (from == me) continue;
      runtime::Buffer& in = w().inbox(from);
      if (first) index_->read_handshake(in, from);
      ++(index_->read_values(in, from) ? dense_sections_ : sparse_sections_);
    }
    if (first) index_->build();
    index_->settle_own_freshness();
  }

  /// Gather this superstep's combined value for every destination vertex
  /// in [lo, hi) through the index's one kernel (per-rank sub-folds in
  /// push's order, folded in rank order). Destinations are independent,
  /// so the parallel fan-out changes nothing. Typed on the edge transform
  /// and, through with_combine_op, on the combiner: both inline into the
  /// edge loop.
  template <typename F>
  void gather_range(std::uint32_t lo, std::uint32_t hi, int delivery_slot) {
    const F& f = edge_fn<F>();
    auto& touched = recv_touched_[static_cast<std::size_t>(delivery_slot)];
    with_combine_op(combiner_, [&](const auto& combine) {
      index_->gather(lo, hi, f, combine,
                     [&](std::uint32_t d, const ValT& acc) {
                       slot_[d] = acc;
                       has_[d] = 1;
                       touched.push_back(d);
                       worker_->activate_local(d);  // atomic frontier word-OR
                     });
    });
  }

  Worker<VertexT>* worker_;
  Combiner<ValT> combiner_;

  // Receiver side.
  std::vector<ValT> slot_;            ///< combined value per local vertex
  std::vector<std::uint8_t> has_;
  // Sender side: per-slot shards plus the per-rank merge state serialize
  // reuses every superstep.
  std::vector<Shard> shards_;
  std::vector<Partial> merge_;
  // Delivery bookkeeping: per-delivery-slot touched lists (reset lazily
  // next serialize; order across slots is irrelevant) and the per-peer
  // payload spans of the round being delivered.
  std::vector<std::vector<std::uint32_t>> recv_touched_;
  std::vector<std::pair<const std::byte*, std::uint32_t>> spans_;

  // Pull protocol state. The pull-capable constructor sets the edge
  // transform (type-erased storage; only the kernels instantiated for
  // its type read it) and those kernels; the rest is lazily built on the
  // first pull superstep and kept for the run — direction flips back
  // and forth reuse it.
  detail::ErasedFn edge_fn_{nullptr, nullptr};
  void (*gather_)(CombinedMessage&, std::uint32_t, std::uint32_t,
                  int) = nullptr;
  void (*expand_)(CombinedMessage&, std::uint32_t, const ValT&) = nullptr;
  Direction direction_ = Direction::kPush;
  std::optional<PullIndex<ValT>> index_;  ///< set on the first pull superstep
  std::vector<std::vector<std::uint32_t>> boundary_;  ///< per peer, lidx asc
  std::vector<runtime::Buffer> handshake_out_;  ///< per peer, until sent
  std::uint64_t dense_sections_ = 0;
  std::uint64_t sparse_sections_ = 0;
};

}  // namespace pregel::core
