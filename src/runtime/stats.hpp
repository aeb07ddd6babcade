#pragma once
// RunStats: the measurement record every engine run produces. These are
// the quantities the paper's evaluation tables report: wall-clock runtime
// and message volume, plus superstep/communication-round counts that the
// analysis sections reference (e.g. SCC's 1247 supersteps).

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "runtime/buffer.hpp"

namespace pregel::runtime {

/// How RunStats::merge_from() folds one field across the ranks of a run.
enum class Merge {
  kSum,         ///< per-rank counter: the team figure is the sum
  kMax,         ///< per-rank wall time, or a count every rank agrees on
  kAgree,       ///< collective sequence: a mismatch throws, empty adopts
  kConcat,      ///< per-rank vector, concatenated in ascending rank order
  kElementSum,  ///< per-superstep counters, summed element-wise
  kElementMax,  ///< per-slot wall quantity, maxed element-wise
  kMapSum,      ///< per-key counter, summed key-wise
};

struct RunStats;

/// One row of the RunStats field table (kRunStatsFields below).
template <Merge M, class T>
struct StatsField {
  static constexpr Merge kMerge = M;
  T RunStats::*member;
  const char* json = nullptr;  ///< bench-row key; nullptr = not in rows
};

template <Merge M, class T>
constexpr StatsField<M, T> field(T RunStats::*member,
                                 const char* json = nullptr) {
  return {member, json};
}

struct RunStats {
  double seconds = 0.0;          ///< wall time of the superstep loop
  /// Wall time split of the superstep bodies: channel/message processing
  /// + vertex compute vs. serialize/exchange/deserialize + the votes the
  /// communication loop takes. Engines accumulate these per superstep.
  double compute_seconds = 0.0;
  double comm_seconds = 0.0;
  /// Breakdown of the communication phase: channel serialize (outbox
  /// staging + writes), the collective buffer exchange, and channel
  /// deserialize (delivery). comm_seconds additionally covers the
  /// quiescence/activity votes, so it is >= the sum of these three.
  double serialize_seconds = 0.0;
  double exchange_seconds = 0.0;
  double deliver_seconds = 0.0;
  /// Communication time hidden by pipelined rounds (DESIGN.md section 10):
  /// per superstep, max(0, serialize + exchange + deliver − comm wall),
  /// summed over the run. On the bulk path the three sub-phases are
  /// disjoint main-thread intervals inside the comm wall, so this is 0;
  /// in pipelined mode exchange_seconds is the wire-active span, which
  /// overlaps serialize and deliver, so this measures the hidden latency.
  double overlap_seconds = 0.0;
  int supersteps = 0;            ///< number of (global) supersteps executed
  std::uint64_t comm_rounds = 0; ///< buffer-exchange rounds (>= supersteps)
  /// Rounds that ran the pipelined (chunk-streaming) path instead of bulk
  /// exchange. The bulk/pipelined decision is collective, so every rank
  /// reports the same count (<= comm_rounds).
  std::uint64_t pipelined_rounds = 0;
  /// Bytes this rank shipped through the exchange (payload + frame
  /// headers).
  std::uint64_t message_bytes = 0;
  std::uint64_t message_batches = 0; ///< non-empty (src,dst) buffers moved

  /// Chunks this rank streamed / reassembled in pipelined rounds (0 on
  /// the bulk path).
  std::uint64_t chunks_sent = 0;
  std::uint64_t chunks_received = 0;

  /// Frame-header bytes of the framed wire protocol (channel-engine runs
  /// only; protocol overhead, not attributed to any channel). Invariant:
  /// sum(bytes_by_channel) + frame_bytes == message_bytes.
  std::uint64_t frame_bytes = 0;

  /// Payload bytes attributed to each named channel (channel-engine runs
  /// only), as accounted by the exchange's frame lengths.
  std::map<std::string, std::uint64_t> bytes_by_channel;

  /// Frontier sizes: how many vertices were active entering each
  /// superstep (index 0 = superstep 1), and their sum over the run —
  /// compute() work actually done, as opposed to supersteps * V.
  std::vector<std::uint64_t> active_per_superstep;
  std::uint64_t active_vertex_total = 0;

  /// Exchange bytes this rank shipped during each superstep (index 0 =
  /// superstep 1; a superstep with several communication rounds reports
  /// their sum).
  std::vector<std::uint64_t> bytes_per_superstep;

  /// Chunks this rank moved (sent + received) during each superstep
  /// (index 0 = superstep 1; all-zero on the bulk path).
  std::vector<std::uint64_t> chunks_per_superstep;

  /// Direction the engine chose for each superstep (channel engine only;
  /// index 0 = superstep 1): 0 = push, 1 = pull — the numeric values of
  /// core::Direction. The decision is collective, so every rank records
  /// the identical sequence.
  std::vector<std::uint8_t> direction_per_superstep;

  /// CPU seconds each ComputePool slot burned in compute phases over the
  /// run (index = slot; empty for sequential compute; CPU rather than
  /// wall time so the figure survives an oversubscribed host). Skew
  /// observability: with a pinned schedule a hub-heavy chunk shows up as
  /// one slot far above the mean; work stealing flattens it. The team
  /// figure is the slowest rank's slot: what the barrier waits on.
  std::vector<double> compute_slot_seconds;

  /// CPU seconds each *rank* burned in its compute phases, in rank order
  /// (engines record their own figure at the end of run(); both the
  /// in-process and the TCP stats folds merge in ascending rank order).
  /// The max/mean of this vector is the cross-rank load imbalance a
  /// partitioner leaves behind.
  std::vector<double> rank_compute_seconds;

  /// Max/mean imbalance of a nonnegative sample vector: 1.0 = perfectly
  /// balanced, W = one of W entries did all the work. 0.0 when the vector
  /// is empty or all-zero (no signal).
  [[nodiscard]] static double imbalance(const std::vector<double>& v);
  [[nodiscard]] double slot_imbalance() const {
    return imbalance(compute_slot_seconds);
  }
  [[nodiscard]] double rank_imbalance() const {
    return imbalance(rank_compute_seconds);
  }

  /// Record one superstep's frontier size (engines call this at superstep
  /// start, after begin_superstep()).
  void note_active(std::uint64_t n) {
    active_per_superstep.push_back(n);
    active_vertex_total += n;
  }

  /// Record one superstep's chosen direction (0 = push, 1 = pull).
  void note_direction(std::uint8_t dir) {
    direction_per_superstep.push_back(dir);
  }

  /// Fold another rank's stats of the same run into this one, field by
  /// field under each field's Merge rule (kRunStatsFields).
  void merge_from(const RunStats& other);

  /// Wire round-trip for the multi-process stats fold: every rank ships
  /// its RunStats to rank 0 over the transport's control lane, which
  /// merges and broadcasts the team-global record.
  void serialize(Buffer& out) const;
  static RunStats deserialize(Buffer& in);

  [[nodiscard]] double message_mb() const {
    return static_cast<double>(message_bytes) / (1024.0 * 1024.0);
  }

  /// One-line human-readable summary ("12.34 s  56.78 MB  31 steps").
  [[nodiscard]] std::string summary() const;

  /// Multi-line report including the per-channel byte breakdown and the
  /// compute/communication wall-time split.
  [[nodiscard]] std::string detailed() const;
};

/// Every RunStats field, once: its Merge rule and its bench-row key.
/// merge_from(), serialize(), deserialize() and the bench-row writer
/// (bench/bench_common.hpp) iterate this table, so a new field costs its
/// member plus one line here. The order is the wire format of the stats
/// fold and of checkpoints — append, never reorder.
inline constexpr std::tuple kRunStatsFields{
    field<Merge::kMax>(&RunStats::seconds, "wall_s"),
    field<Merge::kMax>(&RunStats::compute_seconds, "compute_s"),
    field<Merge::kMax>(&RunStats::comm_seconds, "comm_s"),
    field<Merge::kMax>(&RunStats::serialize_seconds, "serialize_s"),
    field<Merge::kMax>(&RunStats::exchange_seconds, "exchange_s"),
    field<Merge::kMax>(&RunStats::deliver_seconds, "deliver_s"),
    field<Merge::kMax>(&RunStats::overlap_seconds, "overlap_s"),
    field<Merge::kMax>(&RunStats::supersteps, "supersteps"),
    field<Merge::kMax>(&RunStats::comm_rounds, "comm_rounds"),
    field<Merge::kMax>(&RunStats::pipelined_rounds, "pipelined_rounds"),
    field<Merge::kSum>(&RunStats::message_bytes, "msg_bytes"),
    field<Merge::kSum>(&RunStats::message_batches),
    field<Merge::kSum>(&RunStats::chunks_sent, "chunks_sent"),
    field<Merge::kSum>(&RunStats::chunks_received, "chunks_received"),
    field<Merge::kSum>(&RunStats::frame_bytes),
    field<Merge::kMapSum>(&RunStats::bytes_by_channel),
    field<Merge::kElementSum>(&RunStats::active_per_superstep),
    field<Merge::kSum>(&RunStats::active_vertex_total),
    field<Merge::kElementSum>(&RunStats::bytes_per_superstep),
    field<Merge::kElementSum>(&RunStats::chunks_per_superstep),
    field<Merge::kAgree>(&RunStats::direction_per_superstep),
    field<Merge::kElementMax>(&RunStats::compute_slot_seconds),
    field<Merge::kConcat>(&RunStats::rank_compute_seconds),
};

}  // namespace pregel::runtime
