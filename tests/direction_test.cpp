// Tests for direction-optimizing compute (DESIGN.md section 9): the pull
// protocol of combiner channels must be invisible in every observable
// result — vertex values (bitwise, floats included), superstep counts and
// frontier traces — across {push, pull, adaptive} x thread counts x both
// transports, while shipping ZERO channel payload bytes for rank-local
// edges on pull supersteps. The adaptive heuristic must switch
// push -> pull -> push on a frontier that crosses the density thresholds,
// identically on every rank.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "algorithms/pagerank.hpp"
#include "algorithms/runner.hpp"
#include "algorithms/sssp.hpp"
#include "core/pregel_channel.hpp"
#include "graph/generators.hpp"
#include "runtime/tcp_transport.hpp"
#include "runtime/team.hpp"
#include "tcp_mesh.hpp"

namespace {

using namespace pregel;
using namespace pregel::core;
using pregel::runtime::RunStats;
using pregel::runtime::TcpEndpoint;
using pregel::runtime::TcpTransport;
using pregel::runtime::WorkerTeam;

/// One engine configuration of the direction parity matrix.
struct Mode {
  DirectionMode direction;
  int compute;
  int comm;
  bool delivery;
};

constexpr Mode kModes[] = {
    {DirectionMode::kPush, 1, 1, false},  // the seed path (baseline)
    {DirectionMode::kPush, 3, 3, true},
    {DirectionMode::kPull, 1, 1, false},
    {DirectionMode::kPull, 3, 1, false},
    {DirectionMode::kPull, 1, 3, true},
    {DirectionMode::kAdaptive, 1, 1, false},
    {DirectionMode::kAdaptive, 3, 3, true},
};

std::string mode_name(const Mode& m) {
  const char* dir = m.direction == DirectionMode::kPush     ? "push"
                    : m.direction == DirectionMode::kPull   ? "pull"
                                                            : "adaptive";
  return std::string(dir) + " compute=" + std::to_string(m.compute) +
         " comm=" + std::to_string(m.comm) +
         " delivery=" + (m.delivery ? "on" : "off");
}

/// Pin every knob so the matrix is deterministic regardless of the PGCH_*
/// variables the CI legs set.
template <typename WorkerT>
std::function<void(WorkerT&)> pin(const Mode& m,
                                  std::function<void(WorkerT&)> extra = {}) {
  return [m, extra](WorkerT& w) {
    w.set_direction_mode(m.direction);
    w.set_compute_threads(m.compute);
    w.set_comm_threads(m.comm);
    w.set_parallel_delivery(m.delivery);
    if (extra) extra(w);
  };
}

/// Directions move different bytes by design, so — unlike the parallel-comm
/// parity matrix — only the collective observables must match: results,
/// superstep/round counts, frontier traces.
void expect_identical_run_shape(const RunStats& got, const RunStats& want,
                                const std::string& label) {
  EXPECT_EQ(got.supersteps, want.supersteps) << label;
  EXPECT_EQ(got.comm_rounds, want.comm_rounds) << label;
  EXPECT_EQ(got.active_per_superstep, want.active_per_superstep) << label;
}

/// Run WorkerT across the direction matrix and require bitwise-identical
/// results against the push sequential baseline.
template <typename WorkerT, typename OutT, typename Extract>
void run_matrix(const graph::DistributedGraph& dg, Extract extract,
                std::function<void(WorkerT&)> extra = {}) {
  std::vector<OutT> baseline;
  const RunStats want = algo::run_collect<WorkerT>(
      dg, baseline, extract, pin<WorkerT>(kModes[0], extra));
  for (std::size_t i = 1; i < std::size(kModes); ++i) {
    std::vector<OutT> got;
    const RunStats stats = algo::run_collect<WorkerT>(
        dg, got, extract, pin<WorkerT>(kModes[i], extra));
    EXPECT_EQ(got, baseline) << mode_name(kModes[i]);
    expect_identical_run_shape(stats, want, mode_name(kModes[i]));
  }
}

graph::DistributedGraph rmat_dg(int workers, bool symmetric = false) {
  graph::RmatOptions opts;
  opts.num_vertices = 1u << 12;
  opts.num_edges = 1u << 15;
  opts.seed = 42;
  graph::Graph g = graph::rmat(opts);
  if (symmetric) g = g.symmetrized();
  return graph::DistributedGraph(
      g, graph::hash_partition(g.num_vertices(), workers));
}

std::uint64_t bits(double d) { return std::bit_cast<std::uint64_t>(d); }

// --------------------------------------------------------- parity matrix --

TEST(Direction, PageRankFloatSumParityMatrix) {
  // Double-sum combiner: the gather must replay push's nested per-rank
  // fold order or the float bits drift.
  const auto dg = rmat_dg(4);
  run_matrix<algo::PageRankCombined, std::uint64_t>(
      dg, [](const algo::PRVertex& v) { return bits(v.value().rank); },
      [](algo::PageRankCombined& w) { w.iterations = 6; });
}

TEST(Direction, SsspExactMinParityMatrix) {
  // Weighted min combiner: exercises f(dist, w) = dist + w through the
  // handshake-shipped edge weights, and a frontier that actually moves.
  const auto dg = graph::DistributedGraph(
      graph::grid_road(48, 48, 600, 7), graph::hash_partition(48 * 48, 4));
  run_matrix<algo::Sssp, std::uint64_t>(
      dg, [](const algo::SsspVertex& v) { return v.value().dist; },
      [](algo::Sssp& w) { w.source = 0; });
}

// ------------------------------------------------------- byte accounting --

TEST(Direction, PullShipsZeroChannelPayloadOnSingleRank) {
  // One rank: every edge is rank-local, so pull supersteps must put ZERO
  // payload bytes on the "pr" channel lane — the gather reads published
  // values directly. Push ships a wire pair per unique destination.
  const auto dg = rmat_dg(1);
  const auto extract = [](const algo::PRVertex& v) {
    return bits(v.value().rank);
  };
  const auto tune = [](algo::PageRankCombined& w) { w.iterations = 6; };

  std::vector<std::uint64_t> push_bits;
  const RunStats push = algo::run_collect<algo::PageRankCombined>(
      dg, push_bits, extract,
      pin<algo::PageRankCombined>({DirectionMode::kPush, 1, 1, false}, tune));
  std::vector<std::uint64_t> pull_bits;
  const RunStats pull = algo::run_collect<algo::PageRankCombined>(
      dg, pull_bits, extract,
      pin<algo::PageRankCombined>({DirectionMode::kPull, 1, 1, false}, tune));

  EXPECT_EQ(pull_bits, push_bits);
  EXPECT_GT(push.bytes_by_channel.at("pr"), 0u);
  EXPECT_EQ(pull.bytes_by_channel.at("pr"), 0u);
  for (const std::uint8_t d : pull.direction_per_superstep) {
    EXPECT_EQ(d, 1u);  // forced pull every superstep
  }
}

TEST(Direction, PullCutsChannelBytesAcrossRanks) {
  // Two ranks, dense all-superstep frontier (PageRank): pull drops the
  // rank-local wire pairs entirely and replaces per-superstep remote
  // wires with boundary published values; the one-time structure
  // handshake must amortize within the run.
  const auto dg = rmat_dg(2);
  const auto tune = [](algo::PageRankCombined& w) { w.iterations = 10; };
  std::vector<std::uint64_t> push_bits, pull_bits;
  const auto extract = [](const algo::PRVertex& v) {
    return bits(v.value().rank);
  };
  const RunStats push = algo::run_collect<algo::PageRankCombined>(
      dg, push_bits, extract,
      pin<algo::PageRankCombined>({DirectionMode::kPush, 1, 1, false}, tune));
  const RunStats pull = algo::run_collect<algo::PageRankCombined>(
      dg, pull_bits, extract,
      pin<algo::PageRankCombined>({DirectionMode::kPull, 1, 1, false}, tune));

  EXPECT_EQ(pull_bits, push_bits);
  EXPECT_LT(pull.bytes_by_channel.at("pr"), push.bytes_by_channel.at("pr"));

  // Adaptive on an always-dense frontier is pull from superstep 1.
  std::vector<std::uint64_t> adaptive_bits;
  const RunStats adaptive = algo::run_collect<algo::PageRankCombined>(
      dg, adaptive_bits, extract,
      pin<algo::PageRankCombined>({DirectionMode::kAdaptive, 1, 1, false},
                                  tune));
  EXPECT_EQ(adaptive_bits, push_bits);
  EXPECT_EQ(adaptive.bytes_by_channel.at("pr"),
            pull.bytes_by_channel.at("pr"));
  ASSERT_FALSE(adaptive.direction_per_superstep.empty());
  for (const std::uint8_t d : adaptive.direction_per_superstep) {
    EXPECT_EQ(d, 1u);
  }
}

// -------------------------------------------------- adaptive switching --

/// Layered DAG tuned to cross the density thresholds both ways under
/// SSSP: superstep 1 is all-active (dense -> pull), the source's tiny
/// fan-out makes superstep 2 sparse (push), layer 2 holds ~98% of the
/// vertices (pull again), and the last layer is tiny (push).
graph::DistributedGraph layered_dg(int workers) {
  constexpr graph::VertexId kL2 = 700;
  constexpr graph::VertexId kV = 6 + kL2 + 10;  // s + L1(5) + L2 + L3(10)
  graph::Graph g(kV);
  for (graph::VertexId t = 1; t <= 5; ++t) g.add_edge(0, t);
  graph::VertexId next = 6;
  for (graph::VertexId u = 1; u <= 5; ++u) {
    for (graph::VertexId k = 0; k < kL2 / 5; ++k) g.add_edge(u, next++);
  }
  for (graph::VertexId u = 6; u < 6 + kL2; ++u) {
    g.add_edge(u, 6 + kL2 + (u % 10));
  }
  return graph::DistributedGraph(g, graph::hash_partition(kV, workers));
}

TEST(Direction, AdaptiveSwitchesPushPullPush) {
  const auto dg = layered_dg(2);
  const auto extract = [](const algo::SsspVertex& v) {
    return v.value().dist;
  };
  std::vector<std::uint64_t> want;
  algo::run_collect<algo::Sssp>(
      dg, want, extract,
      pin<algo::Sssp>({DirectionMode::kPush, 1, 1, false},
                      [](algo::Sssp& w) { w.source = 0; }));

  std::vector<std::uint64_t> got;
  const RunStats stats = algo::run_collect<algo::Sssp>(
      dg, got, extract,
      pin<algo::Sssp>({DirectionMode::kAdaptive, 1, 1, false},
                      [](algo::Sssp& w) { w.source = 0; }));

  EXPECT_EQ(got, want);
  // pull (all V active), push (frontier 5), pull (frontier 700),
  // push (frontier 10) — the push -> pull -> push switch in the middle.
  EXPECT_EQ(stats.direction_per_superstep,
            (std::vector<std::uint8_t>{1, 0, 1, 0}));
}

TEST(Direction, AdaptiveHysteresisTable) {
  constexpr std::uint64_t kV = 1000;
  // Entering pull needs the frontier at V/4; prior direction irrelevant
  // above that.
  EXPECT_EQ(adaptive_direction(Direction::kPush, 250, kV), Direction::kPull);
  EXPECT_EQ(adaptive_direction(Direction::kPush, 249, kV), Direction::kPush);
  // Leaving pull needs it BELOW V/8 — the hysteresis band keeps a
  // frontier oscillating around V/4 from flapping.
  EXPECT_EQ(adaptive_direction(Direction::kPull, 249, kV), Direction::kPull);
  EXPECT_EQ(adaptive_direction(Direction::kPull, 125, kV), Direction::kPull);
  EXPECT_EQ(adaptive_direction(Direction::kPull, 124, kV), Direction::kPush);
  // Boundary degenerate cases.
  EXPECT_EQ(adaptive_direction(Direction::kPush, 0, kV), Direction::kPush);
  EXPECT_EQ(adaptive_direction(Direction::kPull, 0, kV), Direction::kPush);
  EXPECT_EQ(adaptive_direction(Direction::kPush, kV, kV), Direction::kPull);
}

TEST(Direction, ModeFromEnvParsesAndRejects) {
  const auto mode = [](const char* value) {
    return runtime::RunConfig::from_vars({{"PGCH_DIRECTION", value}})
        .direction;
  };
  EXPECT_EQ(runtime::RunConfig::from_vars({}).direction, DirectionMode::kPush);
  EXPECT_EQ(mode("push"), DirectionMode::kPush);
  EXPECT_EQ(mode("pull"), DirectionMode::kPull);
  EXPECT_EQ(mode("adaptive"), DirectionMode::kAdaptive);
  EXPECT_THROW(mode("sideways"), std::invalid_argument);
}

// -------------------------------------------------------- TCP transport --

using pregel::testing::make_mesh;  // tests/tcp_mesh.hpp (EADDRINUSE retry)

template <typename WorkerT, typename OutT, typename Extract>
RunStats run_tcp(const graph::DistributedGraph& dg, int world,
                 std::vector<OutT>& out, Extract extract,
                 const std::function<void(WorkerT&)>& configure) {
  out.assign(dg.num_vertices(), OutT{});
  auto mesh = make_mesh(world);
  std::vector<RunStats> merged(static_cast<std::size_t>(world));
  WorkerTeam::run(world, [&](int rank) {
    merged[static_cast<std::size_t>(rank)] =
        core::launch_distributed<WorkerT>(
            dg, *mesh[static_cast<std::size_t>(rank)], rank, configure,
            [&](WorkerT& w, int /*r*/) {
              w.for_each_vertex(
                  [&](const auto& v) { out[v.id()] = extract(v); });
            });
  });
  return merged[0];
}

TEST(Direction, TcpParityAcrossDirections) {
  // The handshake is what makes pull work over TCP at all: a localized
  // rank has no knowledge of its remote in-edges until peers ship theirs.
  const auto dg = rmat_dg(2);
  const auto extract = [](const algo::PRVertex& v) {
    return bits(v.value().rank);
  };
  const auto tune = [](algo::PageRankCombined& w) { w.iterations = 6; };

  std::vector<std::uint64_t> expect;
  const RunStats inproc = algo::run_collect<algo::PageRankCombined>(
      dg, expect, extract,
      pin<algo::PageRankCombined>({DirectionMode::kPush, 1, 1, false}, tune));

  for (const Mode m : {Mode{DirectionMode::kPull, 1, 1, false},
                       Mode{DirectionMode::kPull, 3, 3, true},
                       Mode{DirectionMode::kAdaptive, 1, 1, false},
                       Mode{DirectionMode::kAdaptive, 3, 3, true}}) {
    std::vector<std::uint64_t> got;
    const RunStats tcp = run_tcp<algo::PageRankCombined>(
        dg, 2, got, extract, pin<algo::PageRankCombined>(m, tune));
    EXPECT_EQ(got, expect) << mode_name(m);
    expect_identical_run_shape(tcp, inproc, mode_name(m));
  }
}

TEST(Direction, TcpAdaptiveSwitchMatchesInProcess) {
  const auto dg = layered_dg(2);
  const auto extract = [](const algo::SsspVertex& v) {
    return v.value().dist;
  };
  const auto tune = [](algo::Sssp& w) { w.source = 0; };

  std::vector<std::uint64_t> expect;
  const RunStats inproc = algo::run_collect<algo::Sssp>(
      dg, expect, extract,
      pin<algo::Sssp>({DirectionMode::kAdaptive, 1, 1, false}, tune));

  std::vector<std::uint64_t> got;
  const RunStats tcp = run_tcp<algo::Sssp>(
      dg, 2, got, extract,
      pin<algo::Sssp>({DirectionMode::kAdaptive, 1, 1, false}, tune));

  EXPECT_EQ(got, expect);
  EXPECT_EQ(tcp.direction_per_superstep, inproc.direction_per_superstep);
  EXPECT_EQ(tcp.direction_per_superstep,
            (std::vector<std::uint8_t>{1, 0, 1, 0}));
}

// -------------------------------------------- typed edge transforms --

/// How a TypedFoldWorker builds its pull-capable channel: the gather and
/// push expansion are instantiated for the edge transform's type, and the
/// fold for the combiner's op, so every construction path must give the
/// same bits.
enum class TypedFold {
  kCapturingLambda,  ///< lambda with captured state, stock c_sum
  kEdgeFnVariable,   ///< a std::function (EdgeFn) variable, stock c_sum
  kCustomCombiner,   ///< plain lambda, non-stock float-sum combiner
};

struct FoldValue {
  double x = 0.0;
};
using FoldVertex = Vertex<FoldValue>;

/// PageRank-shaped float-sum program over weighted edges: every vertex
/// publishes x / degree and receives the sum of f(share, weight).
template <TypedFold Kind>
class TypedFoldWorker : public Worker<FoldVertex> {
 public:
  using Msg = CombinedMessage<FoldVertex, double>;

  void compute(FoldVertex& v) override {
    if (step_num() == 1) {
      v.value().x = 1.0 / static_cast<double>(v.id() + 3);
    } else {
      v.value().x = 0.25 + 0.5 * msg_.get_message();
    }
    if (step_num() > 6) {
      v.vote_to_halt();
      return;
    }
    const auto deg = v.edges().size();
    if (deg != 0) msg_.publish(v.value().x / static_cast<double>(deg));
  }

 private:
  static Msg make_channel(Worker<FoldVertex>* self) {
    if constexpr (Kind == TypedFold::kCapturingLambda) {
      const double scale = 0.75;
      const double per_weight = 1e-3;
      return Msg(
          self, make_combiner(c_sum, 0.0),
          [scale, per_weight](const double& share, graph::Weight w) {
            return share * scale + per_weight * static_cast<double>(w);
          },
          "fold");
    } else if constexpr (Kind == TypedFold::kEdgeFnVariable) {
      const Msg::EdgeFn f = [](const double& share, graph::Weight w) {
        return share * 0.75 + 1e-3 * static_cast<double>(w);
      };
      return Msg(self, make_combiner(c_sum, 0.0), f, "fold");
    } else {
      return Msg(
          self,
          make_combiner([](const double& a, const double& b) { return a + b; },
                        0.0),
          [](const double& share, graph::Weight w) {
            return share * 0.75 + 1e-3 * static_cast<double>(w);
          },
          "fold");
    }
  }

  Msg msg_ = make_channel(this);
};

graph::DistributedGraph weighted_rmat_dg(int workers) {
  graph::RmatOptions opts;
  opts.num_vertices = 1u << 12;
  opts.num_edges = 1u << 15;
  opts.seed = 11;
  opts.weighted = true;
  const graph::Graph g = graph::rmat(opts);
  return graph::DistributedGraph(
      g, graph::hash_partition(g.num_vertices(), workers));
}

/// Push at 1 thread is the reference; pull at 1 and 3 threads with
/// parallel delivery must match it bit for bit, in process (4 ranks, so a
/// regrouped rank fold would show in the float sums) and on a 2-rank TCP
/// team (against the 2-rank in-process push run).
template <TypedFold Kind>
void expect_typed_fold_parity() {
  using W = TypedFoldWorker<Kind>;
  const auto extract = [](const FoldVertex& v) { return bits(v.value().x); };
  const Mode modes[] = {{DirectionMode::kPush, 3, 3, true},
                        {DirectionMode::kPull, 1, 1, true},
                        {DirectionMode::kPull, 3, 3, true}};
  const auto dg4 = weighted_rmat_dg(4);
  const auto dg2 = weighted_rmat_dg(2);
  const Mode push{DirectionMode::kPush, 1, 1, false};
  std::vector<std::uint64_t> want4, want2;
  algo::run_collect<W>(dg4, want4, extract, pin<W>(push));
  algo::run_collect<W>(dg2, want2, extract, pin<W>(push));
  ASSERT_FALSE(want4.empty());
  for (const Mode& m : modes) {
    std::vector<std::uint64_t> got;
    algo::run_collect<W>(dg4, got, extract, pin<W>(m));
    EXPECT_EQ(got, want4) << "in-process " << mode_name(m);
    std::vector<std::uint64_t> tcp;
    run_tcp<W>(dg2, 2, tcp, extract, pin<W>(m));
    EXPECT_EQ(tcp, want2) << "tcp " << mode_name(m);
  }
}

TEST(Direction, TypedFoldCapturingLambdaPushPullBitwise) {
  expect_typed_fold_parity<TypedFold::kCapturingLambda>();
}

TEST(Direction, TypedFoldEdgeFnVariablePushPullBitwise) {
  expect_typed_fold_parity<TypedFold::kEdgeFnVariable>();
}

TEST(Direction, TypedFoldCustomCombinerPushPullBitwise) {
  expect_typed_fold_parity<TypedFold::kCustomCombiner>();
}

// ------------------------------------------------------ mixed freshness --

/// Float-sum program in which rank 0's vertices publish every superstep
/// and every other rank's publish only when (id + superstep) % 3 == 0, so
/// each forced-pull superstep gathers from one fully fresh source rank and
/// from ranks whose values are partly last superstep's (or never set).
/// Pull values sections the MixedFreshWorkers of a run received, summed
/// over its ranks as each worker is destroyed: dense (every boundary value)
/// and sparse ((row, value) wires).
std::atomic<std::uint64_t> g_dense_sections{0};
std::atomic<std::uint64_t> g_sparse_sections{0};

/// The gather may skip the per-edge epoch test only for a fully fresh
/// rank; folding a stale value in would change the float bits, and after
/// the last publish it would reactivate vertices forever — the step guard
/// turns that into an exception instead of a hang. Rank 0 publishes every
/// vertex (its peers receive dense rounds), the others a third (sparse).
class MixedFreshWorker : public Worker<FoldVertex> {
 public:
  ~MixedFreshWorker() override {
    g_dense_sections += msg_.dense_sections();
    g_sparse_sections += msg_.sparse_sections();
  }

  void compute(FoldVertex& v) override {
    if (step_num() > 20) {
      throw std::runtime_error(
          "MixedFreshWorker: vertices still receiving after the last publish");
    }
    if (step_num() == 1) {
      v.value().x = 1.0 / static_cast<double>(v.id() + 3);
    } else {
      v.value().x = 0.25 + 0.5 * msg_.get_message();
    }
    if (step_num() > 6) {
      v.vote_to_halt();
      return;
    }
    const auto deg = v.edges().size();
    const bool fresh = rank() == 0 || (v.id() + step_num()) % 3 == 0;
    if (deg != 0 && fresh) {
      msg_.publish(v.value().x / static_cast<double>(deg));
    }
  }

 private:
  CombinedMessage<FoldVertex, double> msg_{
      this, make_combiner(c_sum, 0.0),
      [](const double& share, graph::Weight w) {
        return share * 0.75 + 1e-3 * static_cast<double>(w);
      },
      "mixed"};
};

TEST(Direction, MixedFreshnessPullMatchesPushBitwise) {
  using W = MixedFreshWorker;
  const auto extract = [](const FoldVertex& v) { return bits(v.value().x); };
  const Mode push{DirectionMode::kPush, 1, 1, false};
  const Mode pulls[] = {{DirectionMode::kPull, 1, 3, true},
                        {DirectionMode::kPull, 3, 3, true}};
  const auto dg4 = weighted_rmat_dg(4);
  const auto dg2 = weighted_rmat_dg(2);
  std::vector<std::uint64_t> want4, want2;
  algo::run_collect<W>(dg4, want4, extract, pin<W>(push));
  algo::run_collect<W>(dg2, want2, extract, pin<W>(push));
  ASSERT_FALSE(want4.empty());
  for (const Mode& m : pulls) {
    std::vector<std::uint64_t> got;
    g_dense_sections = 0;
    g_sparse_sections = 0;
    const RunStats stats = algo::run_collect<W>(dg4, got, extract, pin<W>(m));
    EXPECT_EQ(got, want4) << "in-process " << mode_name(m);
    // Both values encodings ran: dense from rank 0, sparse from the rest.
    EXPECT_GT(g_dense_sections.load(), 0u) << mode_name(m);
    EXPECT_GT(g_sparse_sections.load(), 0u) << mode_name(m);
    for (const std::uint8_t d : stats.direction_per_superstep) {
      EXPECT_EQ(d, 1u);  // every superstep gathered
    }
    std::vector<std::uint64_t> tcp;
    run_tcp<W>(dg2, 2, tcp, extract, pin<W>(m));
    EXPECT_EQ(tcp, want2) << "tcp " << mode_name(m);
  }
}

// ------------------------------------------------------------ guard rails --

struct GuardValue {
  std::uint64_t x = 0;
};
using GuardVertex = Vertex<GuardValue>;

/// Calls the per-edge API during a forced-pull run: must throw rather
/// than silently dropping the messages.
class SendDuringPullWorker : public Worker<GuardVertex> {
 public:
  void compute(GuardVertex& v) override {
    for (const auto& e : v.edges()) msg_.send_message(e.dst, 1);
    v.vote_to_halt();
  }

 private:
  CombinedMessage<GuardVertex, std::uint64_t> msg_{
      this, make_combiner(c_sum, std::uint64_t{0}),
      [](const std::uint64_t& x, graph::Weight) { return x; }, "guard"};
};

/// Calls publish() on a channel constructed without an edge transform.
class PublishWithoutEdgeFnWorker : public Worker<GuardVertex> {
 public:
  void compute(GuardVertex& v) override {
    msg_.publish(1);
    v.vote_to_halt();
  }

 private:
  CombinedMessage<GuardVertex, std::uint64_t> msg_{
      this, make_combiner(c_sum, std::uint64_t{0}), "guard"};
};

TEST(Direction, SendMessageDuringPullThrows) {
  // Single rank so the throwing worker cannot strand peers at a barrier.
  const auto dg = rmat_dg(1);
  EXPECT_THROW(
      algo::run_only<SendDuringPullWorker>(
          dg,
          [](SendDuringPullWorker& w) {
            w.set_direction_mode(DirectionMode::kPull);
          }),
      std::logic_error);
}

TEST(Direction, PublishRequiresPullCapableConstructor) {
  const auto dg = rmat_dg(1);
  EXPECT_THROW(algo::run_only<PublishWithoutEdgeFnWorker>(dg),
               std::logic_error);
}

// --------------------------------------------------------- stats plumbing --

TEST(Direction, MergeFromAdoptsAndAssertsDirectionAgreement) {
  RunStats a, b;
  b.direction_per_superstep = {1, 0, 1};
  a.merge_from(b);  // empty adopts
  EXPECT_EQ(a.direction_per_superstep, b.direction_per_superstep);
  a.merge_from(b);  // equal sequences pass
  EXPECT_EQ(a.direction_per_superstep, b.direction_per_superstep);
  RunStats c;
  c.direction_per_superstep = {1, 1, 1};
  EXPECT_THROW(a.merge_from(c), std::logic_error);
}

TEST(Direction, DetailedPrintsRunLengthDirections) {
  RunStats s;
  s.direction_per_superstep = {0, 0, 1, 1, 1, 0};
  s.active_per_superstep = {10, 12, 900, 800, 700, 5};
  s.active_vertex_total = 2427;
  const std::string d = s.detailed();
  EXPECT_NE(d.find("pushx2(active 10..12)"), std::string::npos) << d;
  EXPECT_NE(d.find("pullx3(active 700..900)"), std::string::npos) << d;
  EXPECT_NE(d.find("pushx1(active 5)"), std::string::npos) << d;
}

}  // namespace
