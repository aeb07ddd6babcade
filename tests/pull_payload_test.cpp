// Damage tests for the pull payload decoder (DESIGN.md section 9). A pull
// round's payload is peer data: a u64 handshake edge count, that many
// {src lidx, dst lidx, weight} edges (first pull round only), a u32
// boundary value count and that many {lidx, value} wires. Every field is
// damaged in turn on a real 2-rank run — both ranks' inboxes the same way,
// so both ranks fail in the same phase — and the channel must throw
// ProtocolError naming itself and the peer: never allocate a count it has
// not checked, write out of bounds, or build a corrupt index in silence.
// A seeded sweep then mutates a captured payload and feeds it to the
// decoder directly: it must either accept the bytes or raise
// ProtocolError, and must never crash (run it under ASan).

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <iterator>
#include <mutex>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "algorithms/pagerank.hpp"
#include "core/combined_message.hpp"
#include "core/pull_index.hpp"
#include "core/worker.hpp"
#include "graph/generators.hpp"
#include "runtime/exchange.hpp"
#include "runtime/frame.hpp"
#include "runtime/team.hpp"
#include "runtime/transport.hpp"

namespace {

using namespace pregel;
using core::PullEdge;
using runtime::Buffer;
using runtime::ProtocolError;

using Wire = core::LidxWire<double>;

/// In-process transport that hands each rank's peer inboxes to a hook
/// right after every exchange (each rank only touches its own inboxes,
/// after the barrier, so the hook needs no locking).
class HookTransport final : public runtime::Transport {
 public:
  using Hook = std::function<void(int rank, int round, int from, Buffer& in)>;

  HookTransport(int workers, Hook hook)
      : inner_(workers), hook_(std::move(hook)),
        rounds_(static_cast<std::size_t>(workers), 0) {}

  [[nodiscard]] int world_size() const noexcept override {
    return inner_.world_size();
  }
  Buffer& outbox(int from, int to) override { return inner_.outbox(from, to); }
  Buffer& inbox(int to, int from) override { return inner_.inbox(to, from); }
  void exchange(int rank) override {
    inner_.exchange(rank);
    const int round = rounds_[static_cast<std::size_t>(rank)]++;
    for (int from = 0; from < world_size(); ++from) {
      if (from != rank) hook_(rank, round, from, inner_.inbox(rank, from));
    }
  }
  void barrier(int rank) override { inner_.barrier(rank); }
  std::uint64_t allreduce_or(int rank, std::uint64_t local) override {
    return inner_.allreduce_or(rank, local);
  }
  std::uint64_t allreduce_sum(int rank, std::uint64_t local) override {
    return inner_.allreduce_sum(rank, local);
  }
  std::vector<Buffer> gather_to_root(int rank, const Buffer& local) override {
    return inner_.gather_to_root(rank, local);
  }
  void broadcast_from_root(int rank, Buffer* data) override {
    inner_.broadcast_from_root(rank, data);
  }

 private:
  runtime::InProcessTransport inner_;
  Hook hook_;
  std::vector<int> rounds_;
};

/// Forced-pull PageRank over one pull-capable channel, so a peer inbox
/// holds exactly one frame: the "pr" channel's pull payload.
class PullRank : public core::Worker<algo::PRVertex> {
 public:
  void compute(algo::PRVertex& v) override {
    const double n = static_cast<double>(get_vnum());
    v.value().rank =
        step_num() == 1 ? 1.0 / n : 0.15 / n + 0.85 * msg_.get_message();
    if (step_num() > 3) {
      v.vote_to_halt();
      return;
    }
    const auto edges = v.edges();
    if (!edges.empty()) {
      msg_.publish(v.value().rank / static_cast<double>(edges.size()));
    }
  }

 private:
  core::CombinedMessage<algo::PRVertex, double> msg_{
      this, core::make_combiner(core::c_sum, 0.0),
      [](const double& share, graph::Weight w) {
        return share * static_cast<double>(w);
      },
      "pr"};
};

/// Weighted R-MAT on 2 ranks (hash partition), with global vertices 0 and
/// 1 — local index 0 on each rank — stripped of out-edges, so each rank
/// owns a row no handshake edge references.
graph::DistributedGraph test_graph() {
  graph::RmatOptions opts;
  opts.num_vertices = 1u << 9;
  opts.num_edges = 1u << 12;
  opts.weighted = true;
  opts.seed = 5;
  const graph::Graph full = graph::rmat(opts);
  graph::Graph g(full.num_vertices());
  for (graph::VertexId u = 2; u < full.num_vertices(); ++u) {
    for (const graph::Edge& e : full.out(u)) g.add_edge(u, e.dst, e.weight);
  }
  return graph::DistributedGraph(g, graph::hash_partition(g.num_vertices(), 2));
}

void run_team(const graph::DistributedGraph& dg, HookTransport::Hook hook) {
  HookTransport transport(dg.num_workers(), std::move(hook));
  runtime::Exchange exchange(transport);
  const runtime::RunConfig config;
  runtime::WorkerTeam::run(dg.num_workers(), [&](int rank) {
    core::detail::run_rank<PullRank>(
        dg, exchange, transport, rank,
        [](PullRank& w) { w.set_direction_mode(core::DirectionMode::kPull); },
        nullptr, config);
  });
}

/// Where the fields of one first-round pull payload sit, relative to the
/// start of the peer inbox (past the frame header).
struct Layout {
  std::size_t edge_count_at = sizeof(runtime::ChannelFrame);
  std::uint64_t edges = 0;
  std::size_t value_count_at = 0;
  std::uint32_t values = 0;
  std::size_t end = 0;

  [[nodiscard]] std::size_t edge_at(std::uint64_t i) const {
    return edge_count_at + sizeof(std::uint64_t) + i * sizeof(PullEdge);
  }
  [[nodiscard]] std::size_t wire_at(std::uint32_t i) const {
    return value_count_at + sizeof(std::uint32_t) + i * sizeof(Wire);
  }
};

/// The inbox bytes are the test's to damage: take them writable.
std::byte* bytes_of(Buffer& in) { return const_cast<std::byte*>(in.read_ptr()); }

template <typename T>
T load(const std::byte* p, std::size_t at) {
  T v;
  std::memcpy(&v, p + at, sizeof(T));
  return v;
}
template <typename T>
void store(std::byte* p, std::size_t at, const T& v) {
  std::memcpy(p + at, &v, sizeof(T));
}

Layout parse(const std::byte* p) {
  Layout l;
  l.edges = load<std::uint64_t>(p, l.edge_count_at);
  l.value_count_at = l.edge_at(l.edges);
  l.values = load<std::uint32_t>(p, l.value_count_at);
  l.end = l.wire_at(l.values);
  return l;
}

/// One damage: rewrite a field of a parsed first-round payload, given the
/// receiving rank's and the sending rank's local vertex counts.
using Damage = std::function<void(std::byte* p, const Layout& l,
                                  std::uint32_t n_me, std::uint32_t n_from)>;

/// Run the team with `damage` applied to every peer inbox of the first
/// (handshake) round; returns the what() of the ProtocolError the run
/// raised, or "" if none was raised.
std::string run_damaged(const Damage& damage) {
  const auto dg = test_graph();
  try {
    run_team(dg, [&](int rank, int round, int from, Buffer& in) {
      if (round != 0) return;
      std::byte* p = bytes_of(in);
      damage(p, parse(p), dg.num_local(rank), dg.num_local(from));
    });
  } catch (const ProtocolError& e) {
    return e.what();
  }
  return "";
}

void expect_rejected(const Damage& damage, const std::string& field) {
  const std::string what = run_damaged(damage);
  ASSERT_FALSE(what.empty()) << field << ": damage was accepted";
  EXPECT_NE(what.find("'pr'"), std::string::npos) << field << ": " << what;
  EXPECT_NE(what.find("from rank"), std::string::npos) << field << ": " << what;
}

// ------------------------------------------------------ field by field --

TEST(PullPayload, UndamagedRunsClean) {
  std::vector<Layout> seen;
  std::mutex mu;
  EXPECT_EQ(run_damaged([&](std::byte* p, const Layout& l, std::uint32_t,
                            std::uint32_t) {
              const std::lock_guard<std::mutex> lock(mu);
              seen.push_back(l);
              (void)p;
            }),
            "");
  ASSERT_EQ(seen.size(), 2u);
  for (const Layout& l : seen) {
    EXPECT_GT(l.edges, 1u);   // a real handshake...
    EXPECT_GT(l.values, 1u);  // ...and real boundary values
  }
}

TEST(PullPayload, HugeEdgeCountRejectedBeforeAllocation) {
  expect_rejected(
      [](std::byte* p, const Layout& l, std::uint32_t, std::uint32_t) {
        store<std::uint64_t>(p, l.edge_count_at, std::uint64_t{1} << 61);
      },
      "edge_count 2^61");
}

TEST(PullPayload, EdgeCountPastTheBytesLeftRejected) {
  expect_rejected(
      [](std::byte* p, const Layout& l, std::uint32_t, std::uint32_t) {
        const std::size_t left = l.end - l.edge_at(0);
        store<std::uint64_t>(p, l.edge_count_at, left / sizeof(PullEdge) + 1);
      },
      "edge_count past the payload");
}

TEST(PullPayload, SourceOutOfRangeRejected) {
  expect_rejected(
      [](std::byte* p, const Layout& l, std::uint32_t, std::uint32_t n_from) {
        auto e = load<PullEdge>(p, l.edge_at(l.edges - 1));
        e.src_lidx = n_from;
        store(p, l.edge_at(l.edges - 1), e);
      },
      "src_lidx == peer's local count");
}

TEST(PullPayload, DescendingSourceRejected) {
  expect_rejected(
      [](std::byte* p, const Layout& l, std::uint32_t, std::uint32_t) {
        // The last edge's source is the peer's highest boundary vertex;
        // 0 (a vertex with no edges) after it descends.
        auto e = load<PullEdge>(p, l.edge_at(l.edges - 1));
        e.src_lidx = 0;
        store(p, l.edge_at(l.edges - 1), e);
      },
      "src_lidx descending");
}

TEST(PullPayload, TargetOutOfRangeRejected) {
  expect_rejected(
      [](std::byte* p, const Layout& l, std::uint32_t n_me, std::uint32_t) {
        auto e = load<PullEdge>(p, l.edge_at(0));
        e.dst_lidx = n_me;
        store(p, l.edge_at(0), e);
      },
      "dst_lidx == this rank's local count");
}

TEST(PullPayload, HugeValueCountRejected) {
  expect_rejected(
      [](std::byte* p, const Layout& l, std::uint32_t, std::uint32_t) {
        store<std::uint32_t>(p, l.value_count_at, 0xFFFFFFFFu);
      },
      "boundary count 2^32-1");
}

TEST(PullPayload, BoundaryVertexOutOfRangeRejected) {
  expect_rejected(
      [](std::byte* p, const Layout& l, std::uint32_t, std::uint32_t n_from) {
        store<std::uint32_t>(p, l.wire_at(l.values - 1), n_from);
      },
      "boundary lidx == peer's local count");
}

TEST(PullPayload, RepeatedBoundaryVertexRejected) {
  expect_rejected(
      [](std::byte* p, const Layout& l, std::uint32_t, std::uint32_t) {
        store<std::uint32_t>(p, l.wire_at(1), load<std::uint32_t>(p, l.wire_at(0)));
      },
      "boundary lidx repeated");
}

TEST(PullPayload, UnreferencedBoundaryVertexRejected) {
  expect_rejected(
      [](std::byte* p, const Layout& l, std::uint32_t, std::uint32_t) {
        // Local index 0 has no out-edges on either rank (test_graph), so no
        // handshake edge references it.
        store<std::uint32_t>(p, l.wire_at(0), 0u);
      },
      "boundary lidx without an edge into the rank");
}

// ------------------------------------------------------ mutation sweep --

struct Captured {
  std::vector<std::byte> payload;  ///< rank 0's inbox from rank 1
  std::uint32_t n0 = 0;
  std::uint32_t n1 = 0;
};

Captured capture() {
  const auto dg = test_graph();
  Captured cap;
  cap.n0 = dg.num_local(0);
  cap.n1 = dg.num_local(1);
  run_team(dg, [&](int rank, int round, int /*from*/, Buffer& in) {
    if (rank != 0 || round != 0) return;
    const std::byte* p = in.read_ptr() + sizeof(runtime::ChannelFrame);
    cap.payload.assign(p, in.read_ptr() + in.remaining());
  });
  return cap;
}

/// Decode `payload` as rank 0's view of rank 1's first pull round, build
/// the index and gather every destination (touching every entry).
void decode(const Captured& cap, const std::vector<std::byte>& payload) {
  Buffer in;
  in.write_bytes(payload.data(), payload.size());
  core::PullIndex<double> index("pr", 0, {cap.n0, cap.n1});
  index.read_handshake(in, 1);
  index.read_values(in, 1);
  index.build();
  index.settle_own_freshness();
  double sum = 0.0;
  index.gather(
      0, cap.n0, [](const double& v, graph::Weight w) { return v * w; },
      [](const double& a, const double& b) { return a + b; },
      [&](std::uint32_t, const double& v) { sum += v; });
  (void)sum;
}

TEST(PullPayload, MutationSweepNeverCrashes) {
  const Captured cap = capture();
  ASSERT_GT(cap.payload.size(), sizeof(std::uint64_t) + sizeof(std::uint32_t));
  ASSERT_NO_THROW(decode(cap, cap.payload));

  std::mt19937 rng(20261019);
  int rejected = 0;
  constexpr int kMutations = 2000;
  for (int i = 0; i < kMutations; ++i) {
    std::vector<std::byte> m = cap.payload;
    const std::size_t words = m.size() / sizeof(std::uint32_t);
    switch (rng() % 4) {
      case 0: {  // flip one bit anywhere
        const std::size_t bit = rng() % (m.size() * 8);
        m[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
        break;
      }
      case 1: {  // overwrite one aligned u32 with a random value
        const std::uint32_t v = rng();
        std::memcpy(m.data() + (rng() % words) * 4, &v, sizeof(v));
        break;
      }
      case 2: {  // overwrite one aligned u32 with a boundary value
        const std::uint32_t edge[] = {0u, cap.n0, cap.n1, cap.n1 - 1u,
                                      0xFFFFFFFFu, 0x80000000u};
        const std::uint32_t v = edge[rng() % std::size(edge)];
        std::memcpy(m.data() + (rng() % words) * 4, &v, sizeof(v));
        break;
      }
      default:  // truncate
        m.resize(rng() % m.size());
        break;
    }
    try {
      decode(cap, m);
    } catch (const ProtocolError&) {
      ++rejected;
    }
  }
  // Most mutations land in a field the decoder checks.
  EXPECT_GT(rejected, kMutations / 4);
}

}  // namespace
