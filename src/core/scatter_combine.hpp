#pragma once
// ScatterCombine: optimized channel for the *static messaging pattern*
// (Section IV-C1, Fig. 5): every vertex sends one value along all of its
// registered edges every superstep, regardless of local state, and the
// receiver only needs the combined value.
//
// Two optimizations over CombinedMessage, both enabled by the pattern
// being static:
//  1. No hashing/sorting per superstep. Edges are laid out by
//     destination once (grouped by destination worker, one stable
//     counting pass, O(E + V)); each superstep a single linear scan of the
//     sender indices in that order produces the combined message per
//     unique destination.
//  2. No identifier retransmission. Because the destination sequence never
//     changes, the first communication round ships it once (a handshake);
//     afterwards senders transmit bare values and the receiver re-combines
//     them positionally. This is the "removal of redundant transmission of
//     vertices' identifiers" the paper credits for the message-size drop.
//
// Parallel communication phase (DESIGN.md section 8): the steady-state
// value scan is embarrassingly parallel over destination runs — each
// unique destination's value lands at a fixed offset of its worker's
// payload, so serialize pre-sizes every outbox segment and the comm pool
// folds disjoint run ranges (split on run boundaries by edge count)
// directly into the segments. Per-run fold order is registration order
// (the order add_edge saw the run's edges), the same left fold as the
// sequential scan, so even float values are bit-identical. Delivery
// range-partitions the receiver's vertex space and applies positionally
// (peer order, then payload order).
//
// Deliberately NOT pull-capable (DESIGN.md section 9): the channel's whole
// value is already the pull win applied to the wire — after the handshake
// it ships one bare value per unique destination, which is exactly the
// per-in-neighbor traffic a gather would read, and its edge registry is
// built dynamically by add_edge() during compute, so there is no static
// f(value, weight) expansion for a gather to replay. A program that wants
// direction switching uses the pull-capable CombinedMessage; a program
// whose pattern is static every superstep is already served best here.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/channel.hpp"
#include "core/types.hpp"
#include "core/worker.hpp"

namespace pregel::core {

template <typename VertexT, typename ValT>
  requires runtime::TriviallySerializable<ValT>
class ScatterCombine : public Channel {
 public:
  ScatterCombine(Worker<VertexT>* w, Combiner<ValT> combiner,
                 std::string name = "scatter")
      : Channel(w, std::move(name)),
        worker_(w),
        combiner_(std::move(combiner)),
        vals_(w->num_local(), combiner_.identity),
        slot_(w->num_local(), combiner_.identity),
        has_(w->num_local(), 0),
        recv_touched_(1),
        recv_order_(static_cast<std::size_t>(w->num_workers())),
        seg_(static_cast<std::size_t>(w->num_workers()), nullptr),
        spans_(static_cast<std::size_t>(w->num_workers())) {}

  /// Register an outgoing edge of the current vertex. All add_edge calls
  /// must happen before the first set_message is delivered (the pattern is
  /// static); typically in superstep 1's compute. `dst` must be a vertex
  /// id of the graph (std::out_of_range otherwise).
  void add_edge(KeyT dst) {
    if (finalized_) {
      throw std::logic_error(
          "ScatterCombine: add_edge after the edge set was finalized");
    }
    if (dst >= w().get_vnum()) {
      throw std::out_of_range("ScatterCombine '" + name() +
                              "': add_edge destination " +
                              std::to_string(dst) + " is not a vertex id (" +
                              std::to_string(w().get_vnum()) + " vertices)");
    }
    if (par_.active()) {
      par_.stage(EdgeRec{w().current_local(), dst});
      return;
    }
    edges_.push_back(EdgeRec{w().current_local(), dst});
  }

  /// Set the value the current vertex scatters along all its edges this
  /// superstep. A vertex that does not call set_message keeps its previous
  /// value (combiner identity initially). Writes only the caller's own
  /// per-vertex slot, so parallel compute threads need no staging here.
  void set_message(const ValT& m) {
    vals_[w().current_local()] = m;
    dirty_.store(true, std::memory_order_relaxed);
  }

  void begin_compute(int num_chunks) override { par_.open(num_chunks); }

  void end_compute() override {
    par_.replay([this](const EdgeRec& e) { edges_.push_back(e); });
  }

  /// Combined value from all in-edges, available the superstep after the
  /// senders scattered.
  [[nodiscard]] const ValT& get_message() const {
    return slot_[w().current_local()];
  }

  [[nodiscard]] bool has_message() const {
    return has_[w().current_local()] != 0;
  }

  void serialize() override { serialize_impl(/*parallel=*/false); }
  void serialize_parallel() override { serialize_impl(/*parallel=*/true); }

  /// Sequential delivery: the positional delivery below over the whole
  /// local vertex range, as one slot.
  void deserialize() override {
    record_spans();
    apply_spans(0, worker_->num_local(), 0);
  }

  /// Range-partitioned positional delivery: the handshake order lists are
  /// installed sequentially (first round only), then every pool slot
  /// scans each peer's bare value list and folds the positions whose
  /// destination falls in its contiguous local-vertex range.
  void deliver_parallel() override {
    w().run_comm_partitioned(
        record_spans(), worker_->num_local(), &recv_touched_,
        [this](std::uint32_t lo, std::uint32_t hi, int slot) {
          apply_spans(lo, hi, slot);
        });
  }

 private:
  static constexpr std::uint8_t kTagIdle = 0;
  static constexpr std::uint8_t kTagHandshake = 1;
  static constexpr std::uint8_t kTagValues = 2;

  struct EdgeRec {
    std::uint32_t src;  ///< local index of the sender
    KeyT dst;           ///< global id of the receiver
  };

  /// Lay the edge set out by destination — the whole point of the
  /// channel is that this happens once, not every superstep. One stable
  /// counting sort, O(E + V): count the edges per destination id, visit
  /// the destinations owner-major through each worker's member list
  /// (ascending ids in every partition, so the handshake ships
  /// (owner, dst) order), then place each edge's sender index at its
  /// run's next slot. A run (one per unique destination) keeps its edges
  /// in registration order. The registration log is released; from here
  /// on the value scan reads only src_ and run_start_.
  void finalize() {
    if (edges_.size() > std::numeric_limits<std::uint32_t>::max()) {
      throw std::length_error("ScatterCombine '" + name() +
                              "': more than 2^32 - 1 edges on one worker");
    }
    const int num_workers = w().num_workers();
    std::vector<std::uint32_t> pos(w().get_vnum(), 0);
    for (const EdgeRec& e : edges_) ++pos[e.dst];
    // One run per destination with a nonzero count; turn the counts into
    // the runs' first output positions.
    uniq_offset_.assign(static_cast<std::size_t>(num_workers) + 1, 0);
    std::uint32_t at = 0;
    for (int to = 0; to < num_workers; ++to) {
      const std::vector<VertexId>& members = w().members_of(to);
      for (std::uint32_t lidx = 0; lidx < members.size(); ++lidx) {
        std::uint32_t& p = pos[members[lidx]];
        if (p == 0) continue;
        run_start_.push_back(at);
        run_dst_.push_back(lidx);
        at += std::exchange(p, at);
      }
      uniq_offset_[static_cast<std::size_t>(to) + 1] = run_start_.size();
    }
    run_start_.push_back(at);
    // The stores land at random offsets of src_; prefetching the slot of
    // the edge kPrefetch ahead (for writing) keeps them from stalling the
    // loop, about twice as fast on a 1M-edge rank.
    constexpr std::size_t kPrefetch = 16;
    const std::size_t num_edges = edges_.size();
    src_.resize(num_edges);
    for (std::size_t i = 0; i < num_edges; ++i) {
      if (i + kPrefetch < num_edges) {
        __builtin_prefetch(&src_[pos[edges_[i + kPrefetch].dst]], 1);
      }
      src_[pos[edges_[i].dst]++] = edges_[i].src;
    }
    std::vector<EdgeRec>().swap(edges_);
    finalized_ = true;
  }

  void serialize_impl(bool parallel) {
    // Reset the receive slots the previous superstep filled.
    for (auto& touched : recv_touched_) {
      for (const std::uint32_t lidx : touched) {
        slot_[lidx] = combiner_.identity;
        has_[lidx] = 0;
      }
      touched.clear();
    }

    const int num_workers = w().num_workers();
    if (!dirty_.load(std::memory_order_relaxed)) {
      for (int to = 0; to < num_workers; ++to) {
        w().outbox(to).write<std::uint8_t>(kTagIdle);
      }
      return;
    }
    dirty_.store(false, std::memory_order_relaxed);
    if (!finalized_) finalize();

    // Headers, the one-time handshake, and payload segment reservation.
    // The payload of worker `to` is exactly its run count of values, so
    // the segment can be pre-sized and filled out of order.
    for (int to = 0; to < num_workers; ++to) {
      runtime::Buffer& out = w().outbox(to);
      const std::size_t u_begin = uniq_offset_[static_cast<std::size_t>(to)];
      const std::size_t runs =
          uniq_offset_[static_cast<std::size_t>(to) + 1] - u_begin;
      out.write<std::uint8_t>(handshake_sent_ ? kTagValues : kTagHandshake);
      out.write<std::uint32_t>(
          runtime::checked_u32(runs, "ScatterCombine run count"));
      if (!handshake_sent_) {
        // Ship the destination order once.
        out.write_bytes(run_dst_.data() + u_begin,
                        runs * sizeof(std::uint32_t));
      }
      seg_[static_cast<std::size_t>(to)] = out.extend(runs * sizeof(ValT));
    }
    if (!handshake_sent_) {
      std::vector<std::uint32_t>().swap(run_dst_);
      handshake_sent_ = true;
    }

    const std::size_t num_runs = run_start_.size() - 1;
    if (!parallel || src_.size() < kParallelCommMinItems) {
      fill_runs(0, num_runs);
      return;
    }
    runtime::ComputePool& pool = w().comm_pool();
    const int threads = w().comm_threads();
    pool.run([&](int slot) {
      if (slot >= threads) return;
      // Split the run space on edge-count targets (runs vary wildly in
      // size on skewed graphs), aligned down to run boundaries.
      const auto [e_lo, e_hi] =
          detail::item_range(src_.size(), threads, slot);
      const std::size_t r_lo = static_cast<std::size_t>(
          std::lower_bound(run_start_.begin(), run_start_.end(), e_lo) -
          run_start_.begin());
      const std::size_t r_hi = static_cast<std::size_t>(
          std::lower_bound(run_start_.begin(), run_start_.end(), e_hi) -
          run_start_.begin());
      fill_runs(std::min(r_lo, num_runs), std::min(r_hi, num_runs));
    });
  }

  /// Fold unique-destination runs [r_begin, r_end) into their workers'
  /// payload segments. Run u of worker `to` lands at position
  /// u - uniq_offset_[to]; the fold over a run is the left fold in
  /// registration order — byte-for-byte the sequential scan's value.
  void fill_runs(std::size_t r_begin, std::size_t r_end) {
    if (r_begin >= r_end) return;
    auto rank = static_cast<std::size_t>(
        std::upper_bound(uniq_offset_.begin(), uniq_offset_.end(), r_begin) -
        uniq_offset_.begin() - 1);
    with_combine_op(combiner_, [&](const auto& combine) {
      for (std::size_t u = r_begin; u < r_end; ++u) {
        while (u >= uniq_offset_[rank + 1]) ++rank;
        std::size_t i = run_start_[u];
        const std::size_t i_end = run_start_[u + 1];
        ValT acc = vals_[src_[i]];
        for (++i; i < i_end; ++i) acc = combine(acc, vals_[src_[i]]);
        std::memcpy(seg_[rank] + (u - uniq_offset_[rank]) * sizeof(ValT),
                    &acc, sizeof(ValT));
      }
    });
  }

  /// Read every peer's header, install first-round handshake orders and
  /// record the bare value spans; returns the total value count.
  std::uint64_t record_spans() {
    const int num_workers = w().num_workers();
    std::uint64_t total = 0;
    for (int from = 0; from < num_workers; ++from) {
      runtime::Buffer& in = w().inbox(from);
      const auto tag = in.read<std::uint8_t>();
      if (tag == kTagIdle) {
        spans_[static_cast<std::size_t>(from)] = {nullptr, 0};
        continue;
      }
      const auto n = in.read<std::uint32_t>();
      auto& order = recv_order_[static_cast<std::size_t>(from)];
      if (tag == kTagHandshake) {
        order.resize(n);
        for (std::uint32_t i = 0; i < n; ++i) {
          order[i] = in.read<std::uint32_t>();
        }
      }
      if (order.size() != n) {
        throw runtime::ProtocolError(
            "ScatterCombine: value count does not match the handshake "
            "order");
      }
      spans_[static_cast<std::size_t>(from)] = {in.read_ptr(), n};
      in.skip(std::size_t{n} * sizeof(ValT));
      total += n;
    }
    return total;
  }

  /// Fold the recorded spans positionally into the receive slots,
  /// restricted to lidx in [lo, hi) — peer order, then payload order.
  void apply_spans(std::uint32_t lo, std::uint32_t hi, int delivery_slot) {
    auto& touched = recv_touched_[static_cast<std::size_t>(delivery_slot)];
    const int num_workers = w().num_workers();
    with_combine_op(combiner_, [&](const auto& combine) {
      for (int from = 0; from < num_workers; ++from) {
        const auto& [ptr, n] = spans_[static_cast<std::size_t>(from)];
        const auto& order = recv_order_[static_cast<std::size_t>(from)];
        const std::byte* p = ptr;
        for (std::uint32_t i = 0; i < n; ++i, p += sizeof(ValT)) {
          const std::uint32_t lidx = order[i];
          if (lidx < lo || lidx >= hi) continue;
          ValT val;
          std::memcpy(&val, p, sizeof(ValT));
          detail::fold_slot(slot_, has_, touched, lidx, val, combine);
          worker_->activate_local(lidx);  // atomic frontier word-OR
        }
      }
    });
  }

  Worker<VertexT>* worker_;
  Combiner<ValT> combiner_;

  // Sender side.
  /// Registration log (add_edge order); released by finalize().
  std::vector<EdgeRec> edges_;
  /// Sender local index of every edge, in run order — size E.
  std::vector<std::uint32_t> src_;
  /// Index into src_ of each run's first edge (one run per unique
  /// destination, owner-major), plus a trailing E — size U + 1.
  std::vector<std::uint32_t> run_start_;
  /// Destination local index of each run, until the handshake ships it.
  std::vector<std::uint32_t> run_dst_;
  /// Global run index range per worker — size W + 1.
  std::vector<std::size_t> uniq_offset_;
  std::vector<ValT> vals_;
  std::atomic<bool> dirty_{false};
  bool finalized_ = false;

  // Parallel compute staging for the shared edge array (see
  // Channel::begin_compute); set_message() needs none.
  detail::ChunkStagedLog<EdgeRec> par_;

  // Receiver side.
  std::vector<ValT> slot_;
  std::vector<std::uint8_t> has_;
  std::vector<std::vector<std::uint32_t>> recv_touched_;  ///< per slot
  std::vector<std::vector<std::uint32_t>> recv_order_;    ///< per sender
  bool handshake_sent_ = false;

  // Round-scoped scratch of the parallel paths.
  std::vector<std::byte*> seg_;  ///< payload segment base per worker
  std::vector<std::pair<const std::byte*, std::uint32_t>> spans_;
};

}  // namespace pregel::core
