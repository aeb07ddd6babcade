#pragma once
// Aggregator: the global-communication channel (Table I). Each active
// vertex may add() a value during a superstep; every worker observes the
// combined result in the next superstep via result(). Implemented as an
// all-to-all of per-worker partials (W is small, so this matches Pregel's
// master-based aggregation in cost without needing a master).

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/channel.hpp"
#include "core/types.hpp"
#include "core/worker.hpp"

namespace pregel::core {

template <typename VertexT, typename ValT>
  requires runtime::TriviallySerializable<ValT>
class Aggregator : public Channel {
 public:
  Aggregator(Worker<VertexT>* w, Combiner<ValT> combiner,
             std::string name = "aggregator")
      : Channel(w, std::move(name)),
        combiner_(std::move(combiner)),
        partial_(combiner_.identity),
        result_(combiner_.identity) {}

  /// Contribute a value to this superstep's global aggregate.
  void add(const ValT& v) {
    if (par_.active()) {
      par_.stage(v);
      return;
    }
    partial_ = combiner_(partial_, v);
  }

  /// The aggregate of all add() calls from the previous superstep.
  [[nodiscard]] const ValT& result() const noexcept { return result_; }

  void begin_compute(int num_chunks) override { par_.open(num_chunks); }

  /// Fold per-chunk contributions in chunk order — the exact sequential
  /// fold sequence, so float aggregates stay bitwise identical.
  void end_compute() override {
    with_combine_op(combiner_, [&](const auto& combine) {
      par_.replay([&](const ValT& v) { partial_ = combine(partial_, v); });
    });
  }

  void serialize() override {
    const int num_workers = w().num_workers();
    for (int to = 0; to < num_workers; ++to) {
      w().outbox(to).write<ValT>(partial_);
    }
    partial_ = combiner_.identity;
  }

  void deserialize() override {
    const int num_workers = w().num_workers();
    with_combine_op(combiner_, [&](const auto& combine) {
      ValT acc = combiner_.identity;
      for (int from = 0; from < num_workers; ++from) {
        acc = combine(acc, w().inbox(from).read<ValT>());
      }
      result_ = acc;
    });
  }

  // Cross-superstep state is the published result; the staging partial
  // is the combiner identity at the superstep boundary (serialize()
  // resets it every round).
  void save_state(runtime::Buffer& out) override { out.write<ValT>(result_); }

  void restore_state(runtime::Buffer& in) override {
    result_ = in.read<ValT>();
    partial_ = combiner_.identity;
  }

 private:
  Combiner<ValT> combiner_;
  ValT partial_;
  ValT result_;

  // Parallel compute staging (see Channel::begin_compute).
  detail::ChunkStagedLog<ValT> par_;
};

}  // namespace pregel::core
