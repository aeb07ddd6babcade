// The wire formats, pinned byte for byte through a real run. On a small
// 2-rank graph the message bytes of push and pull PageRank must equal what
// the format arithmetic predicts from the graph alone:
//
//   push round, per (sender, receiver) : u32 count + 12 B per destination
//                                        (packed u32 lidx + double, no
//                                        padding)
//   pull handshake, per peer           : u8 version + u32 source count
//                                        + 8 B per boundary source
//                                        + 4 B per cross edge
//                                        (+ 4 B more when weighted)
//   pull values, per peer              : u8 mode + 8 B per boundary
//                                        source (dense), or u8 mode +
//                                        u32 count + 12 B per published
//                                        source (sparse)
//   frame header                       : 8 B per peer payload per round
//
// (DESIGN.md sections 1, 7 and 9.) A padded struct, a redundant index or
// an extra header field shows up here as a byte count that is off.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <set>
#include <vector>

#include "algorithms/pagerank.hpp"
#include "algorithms/runner.hpp"
#include "core/combined_message.hpp"
#include "core/worker.hpp"
#include "graph/generators.hpp"
#include "runtime/frame.hpp"

namespace {

using namespace pregel;
using core::DirectionMode;
using runtime::RunStats;

constexpr int kWorkers = 2;
constexpr int kSteps = 4;  ///< publishing supersteps; one more halts

/// Whether vertex `id` publishes in superstep `step`: everyone with
/// out-edges does, except the odd ids in superstep 2 — a sparse round.
bool publishes(graph::VertexId id, int step) {
  return step <= kSteps && (step != 2 || id % 2 == 0);
}

/// A PageRank-shaped program over one pull-capable channel, so the
/// channel's payload is the whole traffic.
class FormatRank : public core::Worker<algo::PRVertex> {
 public:
  void compute(algo::PRVertex& v) override {
    v.value().rank = step_num() == 1 ? 1.0 : 0.5 + 0.5 * msg_.get_message();
    if (step_num() > kSteps) {
      v.vote_to_halt();
      return;
    }
    const auto edges = v.edges();
    if (!edges.empty() && publishes(v.id(), step_num())) {
      msg_.publish(v.value().rank / static_cast<double>(edges.size()));
    }
  }

 private:
  core::CombinedMessage<algo::PRVertex, double> msg_{
      this, core::make_combiner(core::c_sum, 0.0),
      [](const double& share, graph::Weight w) {
        return share * static_cast<double>(w);
      },
      "fmt"};
};

graph::DistributedGraph test_graph(graph::Weight weight) {
  graph::RmatOptions opts;
  opts.num_vertices = 1u << 7;
  opts.num_edges = 1u << 10;
  opts.seed = 3;
  const graph::Graph g = graph::rmat(opts);
  graph::Graph h(g.num_vertices());
  for (graph::VertexId u = 0; u < g.num_vertices(); ++u) {
    for (const graph::Edge& e : g.out(u)) h.add_edge(u, e.dst, weight);
  }
  return graph::DistributedGraph(
      h, graph::hash_partition(h.num_vertices(), kWorkers));
}

/// The figures a run's bytes are predicted from.
struct Expected {
  std::uint64_t push_payload = 0;
  std::uint64_t pull_payload = 0;
  std::uint64_t frames = 0;
};

Expected predict(const graph::DistributedGraph& dg, bool weighted) {
  constexpr std::uint64_t kWire = sizeof(std::uint32_t) + sizeof(double);
  Expected x;
  for (int step = 1; step <= kSteps + 1; ++step) {
    x.frames += std::uint64_t{kWorkers} * (kWorkers - 1) *
                sizeof(runtime::ChannelFrame);
    for (int r = 0; r < kWorkers; ++r) {
      for (int t = 0; t < kWorkers; ++t) {
        std::set<graph::VertexId> push_dsts;  // distinct destinations
        std::uint64_t sources = 0;            // boundary sources of r -> t
        std::uint64_t published = 0;          // ... published this step
        std::uint64_t edges = 0;              // cross edges r -> t
        for (const graph::VertexId u : dg.ids(r)) {
          bool into_t = false;
          for (const graph::Edge e : dg.out(r, dg.local_index(u))) {
            if (dg.owner(e.dst) != t) continue;
            into_t = true;
            ++edges;
            if (publishes(u, step)) push_dsts.insert(e.dst);
          }
          if (!into_t) continue;
          ++sources;
          if (publishes(u, step)) ++published;
        }
        x.push_payload += sizeof(std::uint32_t) + kWire * push_dsts.size();
        if (t == r) continue;  // pull ships nothing to itself
        if (step == 1) {
          x.pull_payload += sizeof(std::uint8_t) + sizeof(std::uint32_t) +
                            2 * sizeof(std::uint32_t) * sources +
                            (weighted ? 8 : 4) * edges;
        }
        x.pull_payload +=
            published == sources
                ? sizeof(std::uint8_t) + sizeof(double) * sources
                : sizeof(std::uint8_t) + sizeof(std::uint32_t) +
                      kWire * published;
      }
    }
  }
  return x;
}

RunStats run(const graph::DistributedGraph& dg, DirectionMode mode,
             std::vector<std::uint64_t>& bits) {
  return algo::run_collect<FormatRank>(
      dg, bits,
      [](const algo::PRVertex& v) {
        return std::bit_cast<std::uint64_t>(v.value().rank);
      },
      [mode](FormatRank& w) {
        w.set_direction_mode(mode);
        w.set_compute_threads(1);
        w.set_comm_threads(1);
      });
}

void expect_bytes(const RunStats& s, std::uint64_t payload,
                  std::uint64_t frames, const char* label) {
  EXPECT_EQ(s.supersteps, kSteps + 1) << label;
  EXPECT_EQ(s.comm_rounds, static_cast<std::uint64_t>(kSteps + 1)) << label;
  EXPECT_EQ(s.bytes_by_channel.at("fmt"), payload) << label;
  EXPECT_EQ(s.frame_bytes, frames) << label;
  EXPECT_EQ(s.message_bytes, payload + frames) << label;
}

TEST(WireFormat, PushAndPullBytesMatchTheFormatArithmetic) {
  for (const graph::Weight weight : {graph::Weight{1}, graph::Weight{2}}) {
    const auto dg = test_graph(weight);
    const Expected want = predict(dg, weight != 1);
    ASSERT_GT(want.push_payload, 0u);
    std::vector<std::uint64_t> push_bits, pull_bits;
    const RunStats push = run(dg, DirectionMode::kPush, push_bits);
    const RunStats pull = run(dg, DirectionMode::kPull, pull_bits);
    EXPECT_EQ(pull_bits, push_bits) << "weight " << weight;
    expect_bytes(push, want.push_payload, want.frames,
                 weight == 1 ? "push" : "push, weighted");
    expect_bytes(pull, want.pull_payload, want.frames,
                 weight == 1 ? "pull" : "pull, weighted");
  }
}

}  // namespace
