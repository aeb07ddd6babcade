#pragma once
// Outside-in superstep tracing.
//
// TracingTransport wraps a job's runtime::Transport and forwards every
// virtual unchanged, timestamping each collective a rank makes on the way
// through. Together with the superstep marks the probed worker records
// (harness.hpp), each rank's event stream partitions its superstep wall
// time into the engine's layers at points the engine already exposes:
//
//   compute      set_heartbeat_window(true) entry -> (false) return
//   serialize    gap ending at an exchange() entry (the mask-vote return
//                before it is where serialize starts)
//   wire         the exchange() call itself
//   deliver      gap starting at an exchange() return (pull gather runs
//                here) up to the next collective
//   control      allreduce_or / allreduce_sum / barrier / gather_to_root /
//                broadcast_from_root calls
//   checkpoint   gap from the halt vote's return to the commit barrier,
//                and from the commit barrier's return to the next
//                superstep (rank 0's marker write, retention prune)
//   other        every remaining gap, reported rather than dropped
//
// Times are integer steady_clock nanoseconds, so per rank and superstep
// the classes sum to the wall exactly.

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "runtime/transport.hpp"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class Op : std::uint8_t {
  kStep,      ///< superstep mark from the probed worker's begin_superstep()
  kHbOpen,    ///< set_heartbeat_window(true)
  kHbClose,   ///< set_heartbeat_window(false)
  kExchange,  ///< exchange()
  kOr,        ///< allreduce_or (mask votes and vote_any)
  kSum,       ///< allreduce_sum
  kBarrier,
  kGather,
  kBcast,
};

[[nodiscard]] inline bool is_control(Op op) {
  return op == Op::kOr || op == Op::kSum || op == Op::kBarrier ||
         op == Op::kGather || op == Op::kBcast;
}

struct Event {
  Op op = Op::kStep;
  std::int32_t step = 0;  ///< kStep: the superstep number
  std::int64_t t0 = 0;    ///< call entry (kStep: the mark)
  std::int64_t t1 = 0;    ///< call return (kStep: == t0)
  std::uint64_t a = 0;    ///< kStep: frontier out-edges; kExchange: bytes
  std::uint64_t b = 0;    ///< kStep: frontier size
};

/// Per-rank event streams of one traced job. Each rank's stream is
/// appended only by that rank's thread, so no locking is needed.
class Tracer {
 public:
  explicit Tracer(int world);

  void record(int rank, const Event& e) {
    events_[static_cast<std::size_t>(rank)].push_back(e);
  }
  void add_checkpoint_bytes(int rank, std::uint64_t bytes) {
    checkpoint_bytes_[static_cast<std::size_t>(rank)] += bytes;
  }

  [[nodiscard]] int world() const { return static_cast<int>(events_.size()); }
  [[nodiscard]] const std::vector<Event>& events(int rank) const {
    return events_[static_cast<std::size_t>(rank)];
  }
  [[nodiscard]] std::uint64_t checkpoint_bytes(int rank) const {
    return checkpoint_bytes_[static_cast<std::size_t>(rank)];
  }

 private:
  std::vector<std::vector<Event>> events_;
  std::vector<std::uint64_t> checkpoint_bytes_;
};

/// Forwarding decorator: every Transport virtual goes to `inner`
/// unchanged; collectives and the heartbeat window are also recorded.
/// For the in-process transport one decorator serves the whole team (the
/// rank argument selects the stream); for TCP each rank wraps its own.
class TracingTransport final : public pregel::runtime::Transport {
 public:
  using Buffer = pregel::runtime::Buffer;

  TracingTransport(pregel::runtime::Transport& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  [[nodiscard]] int world_size() const noexcept override {
    return inner_.world_size();
  }
  Buffer& outbox(int from, int to) override { return inner_.outbox(from, to); }
  Buffer& inbox(int to, int from) override { return inner_.inbox(to, from); }

  void exchange(int rank) override {
    std::uint64_t bytes = 0;
    for (int to = 0; to < inner_.world_size(); ++to) {
      bytes += inner_.outbox(rank, to).size();
    }
    const std::int64_t t0 = now_ns();
    inner_.exchange(rank);
    tracer_.record(rank, Event{Op::kExchange, 0, t0, now_ns(), bytes, 0});
  }

  void barrier(int rank) override {
    const std::int64_t t0 = now_ns();
    inner_.barrier(rank);
    mark(rank, Op::kBarrier, t0);
  }
  std::uint64_t allreduce_or(int rank, std::uint64_t local) override {
    const std::int64_t t0 = now_ns();
    const std::uint64_t r = inner_.allreduce_or(rank, local);
    mark(rank, Op::kOr, t0);
    return r;
  }
  std::uint64_t allreduce_sum(int rank, std::uint64_t local) override {
    const std::int64_t t0 = now_ns();
    const std::uint64_t r = inner_.allreduce_sum(rank, local);
    mark(rank, Op::kSum, t0);
    return r;
  }
  void set_heartbeat_window(int rank, bool open) override {
    const std::int64_t t0 = now_ns();
    inner_.set_heartbeat_window(rank, open);
    mark(rank, open ? Op::kHbOpen : Op::kHbClose, t0);
  }
  std::vector<Buffer> gather_to_root(int rank, const Buffer& local) override {
    const std::int64_t t0 = now_ns();
    std::vector<Buffer> r = inner_.gather_to_root(rank, local);
    mark(rank, Op::kGather, t0);
    return r;
  }
  void broadcast_from_root(int rank, Buffer* data) override {
    const std::int64_t t0 = now_ns();
    inner_.broadcast_from_root(rank, data);
    mark(rank, Op::kBcast, t0);
  }

  // Pipelined rounds: forwarded untraced (no workload arms them).
  [[nodiscard]] bool supports_pipeline() const noexcept override {
    return inner_.supports_pipeline();
  }
  void pipeline_begin(int rank) override { inner_.pipeline_begin(rank); }
  void pipeline_send(int rank, int peer,
                     const pregel::runtime::ChunkHeader& header,
                     const void* payload) override {
    inner_.pipeline_send(rank, peer, header, payload);
  }
  void pipeline_flush_sends(int rank) override {
    inner_.pipeline_flush_sends(rank);
  }
  bool pipeline_recv(int rank, int peer,
                     pregel::runtime::DecodedChunk* out) override {
    return inner_.pipeline_recv(rank, peer, out);
  }
  void pipeline_end(int rank) override { inner_.pipeline_end(rank); }

 private:
  void mark(int rank, Op op, std::int64_t t0) {
    tracer_.record(rank, Event{op, 0, t0, now_ns(), 0, 0});
  }

  pregel::runtime::Transport& inner_;
  Tracer& tracer_;
};

// ---- classification ---------------------------------------------------------

enum Layer : int {
  kCompute,
  kSerialize,
  kWire,
  kDeliver,
  kControl,
  kCheckpoint,
  kOther,
  kNumLayers
};
inline constexpr std::array<const char*, kNumLayers> kLayerNames = {
    "compute", "serialize", "wire", "deliver", "control", "checkpoint",
    "other"};

/// One classified interval of a rank's timeline (chrome-trace export).
struct Segment {
  Layer layer;
  std::int64_t t0;
  std::int64_t t1;
};

struct StepBreakdown {
  int step = 0;
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::array<std::int64_t, kNumLayers> ns{};  ///< sums to end - start
  std::uint64_t frontier_edges = 0;
  std::uint64_t frontier_size = 0;
  std::uint64_t control_calls = 0;
};

struct RankBreakdown {
  std::vector<StepBreakdown> steps;
  std::vector<Segment> segments;
  std::vector<std::int64_t> exchange_entry;  ///< per round, in call order
  std::vector<std::uint64_t> exchange_bytes;
  std::vector<std::int64_t> control_ns;      ///< every in-superstep call
};

/// Partition one rank's event stream into per-superstep layer times.
/// Throws std::runtime_error if the stream does not have the shape the
/// engine's superstep loop produces.
RankBreakdown classify(const std::vector<Event>& events);

/// Chrome trace-event JSON (one process per rank; layer spans nested in
/// superstep spans; counters for exchange bytes and frontier size), as
/// Perfetto and chrome://tracing open it.
void write_chrome_trace(const std::string& path, const std::string& title,
                        const std::vector<RankBreakdown>& ranks);

}  // namespace perfbench
