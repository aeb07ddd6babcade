// Robustness and property tests: API misuse must fail loudly, degenerate
// graphs must run, and integer algorithms must produce identical results
// regardless of the worker count (determinism across parallel schedules).

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "algorithms/pointer_jumping.hpp"
#include "algorithms/pp_simple.hpp"
#include "algorithms/runner.hpp"
#include "algorithms/sssp.hpp"
#include "algorithms/sv.hpp"
#include "algorithms/wcc.hpp"
#include "blogel/block_worker.hpp"
#include "core/pregel_channel.hpp"
#include "graph/distributed.hpp"
#include "graph/generators.hpp"

namespace {

using namespace pregel;
using namespace pregel::core;
using graph::DistributedGraph;
using graph::Graph;
using graph::VertexId;

// ------------------------------------------------------------ misuse ------

struct NopValue {};
using NopVertex = Vertex<NopValue>;

class NopWorker : public Worker<NopVertex> {
 public:
  void compute(NopVertex& v) override { v.vote_to_halt(); }
};

class NopPPWorker : public plus::PPWorker<NopVertex, int> {
 public:
  void compute(NopVertex& v, std::span<const int>) override {
    v.vote_to_halt();
  }
};

class NopBlockWorker : public blogel::BlockWorker<NopVertex, int> {
 public:
  void b_compute(Block&) override {}
};

TEST(Misuse, EveryEngineRejectsConstructionOutsideLaunch) {
  EXPECT_THROW(NopWorker{}, std::logic_error);
  EXPECT_THROW(NopPPWorker{}, std::logic_error);
  EXPECT_THROW(NopBlockWorker{}, std::logic_error);
}

/// Worker that calls get_respond() without ever requesting.
class BadRespondWorker : public Worker<NopVertex> {
 public:
  void compute(NopVertex& v) override {
    if (step_num() == 2) {
      EXPECT_THROW((void)rr_.get_respond(), std::logic_error);
      EXPECT_THROW((void)rr_.get_respond(0), std::logic_error);
      EXPECT_FALSE(rr_.has_respond(0));
    }
    if (step_num() >= 2) v.vote_to_halt();
  }

 private:
  RequestRespond<NopVertex, std::uint32_t> rr_{
      this, [](const NopVertex&) { return 0u; }, "rr"};
};

TEST(Misuse, GetRespondWithoutRequestThrows) {
  const Graph g = graph::chain(16);
  const DistributedGraph dg(g, graph::hash_partition(g.num_vertices(), 2));
  core::launch<BadRespondWorker>(dg);
}

/// Worker that tries to add an edge after the scatter pattern froze.
class LateAddEdgeWorker : public Worker<NopVertex> {
 public:
  void compute(NopVertex& v) override {
    if (step_num() == 1) {
      sc_.add_edge((v.id() + 1) % static_cast<VertexId>(get_vnum()));
      sc_.set_message(1);
    } else if (step_num() == 2) {
      EXPECT_THROW(sc_.add_edge(0), std::logic_error);
      v.vote_to_halt();
    } else {
      v.vote_to_halt();
    }
  }

 private:
  ScatterCombine<NopVertex, std::uint64_t> sc_{
      this, make_combiner(c_sum, std::uint64_t{0}), "sc"};
};

TEST(Misuse, ScatterAddEdgeAfterFinalizeThrows) {
  const Graph g = graph::chain(16);
  const DistributedGraph dg(g, graph::hash_partition(g.num_vertices(), 2));
  core::launch<LateAddEdgeWorker>(dg);
}

/// Worker that registers an edge to an id past the last vertex.
class OutOfRangeEdgeWorker : public Worker<NopVertex> {
 public:
  void compute(NopVertex& v) override {
    const auto n = static_cast<VertexId>(get_vnum());
    if (step_num() == 1) {
      try {
        sc_.add_edge(n + v.id());
        ADD_FAILURE() << "add_edge accepted id " << n + v.id();
      } catch (const std::out_of_range& e) {
        EXPECT_NE(std::string(e.what()).find("'sc'"), std::string::npos)
            << e.what();
      }
      sc_.add_edge(n - 1 - v.id());  // ids up to n - 1 still register
      sc_.set_message(1);
    } else {
      EXPECT_EQ(sc_.get_message(), 1u);
      v.vote_to_halt();
    }
  }

 private:
  ScatterCombine<NopVertex, std::uint64_t> sc_{
      this, make_combiner(c_sum, std::uint64_t{0}), "sc"};
};

TEST(Misuse, ScatterAddEdgeOutOfRangeThrows) {
  const Graph g = graph::chain(16);
  const DistributedGraph dg(g, graph::hash_partition(g.num_vertices(), 2));
  core::launch<OutOfRangeEdgeWorker>(dg);
}

TEST(Misuse, PPWorkerValidatesAggregatorSlots) {
  const Graph g = graph::chain(8);
  const DistributedGraph dg(g, graph::hash_partition(g.num_vertices(), 1));
  class W : public plus::PPWorker<NopVertex, int> {
   public:
    void compute(NopVertex& v, std::span<const int>) override {
      EXPECT_THROW(agg_add(-1, 1), std::out_of_range);
      EXPECT_THROW(agg_add(plus::kNumAggSlots, 1), std::out_of_range);
      v.vote_to_halt();
    }
  };
  core::launch<W>(dg);
}

// ------------------------------------------------- degenerate graphs ------

TEST(Degenerate, EmptyGraphTerminates) {
  const Graph g(0);
  const DistributedGraph dg(g, graph::hash_partition(0, 3));
  std::vector<VertexId> labels;
  const auto stats = algo::run_collect<algo::WccBasic>(
      dg, labels, [](const algo::WccVertex& v) { return v.value().label; });
  EXPECT_TRUE(labels.empty());
  EXPECT_EQ(stats.supersteps, 1);
}

TEST(Degenerate, SingleVertexGraph) {
  const Graph g(1);
  const DistributedGraph dg(g, graph::hash_partition(1, 4));
  std::vector<VertexId> labels;
  algo::run_collect<algo::WccBasic>(
      dg, labels, [](const algo::WccVertex& v) { return v.value().label; });
  ASSERT_EQ(labels.size(), 1u);
  EXPECT_EQ(labels[0], 0u);
}

TEST(Degenerate, EdgelessGraphAllSingletons) {
  const Graph g(100);
  const DistributedGraph dg(g, graph::hash_partition(100, 4));
  std::vector<VertexId> labels;
  algo::run_collect<algo::WccBasic>(
      dg, labels, [](const algo::WccVertex& v) { return v.value().label; });
  for (VertexId v = 0; v < 100; ++v) EXPECT_EQ(labels[v], v);
}

TEST(Degenerate, MoreWorkersThanVertices) {
  const Graph g = graph::chain(3);
  const DistributedGraph dg(g, graph::hash_partition(3, 8));
  std::vector<VertexId> roots;
  algo::run_collect<algo::PointerJumpingBasic>(
      dg, roots, [](const algo::PJVertex& v) { return v.value().parent; });
  for (const auto r : roots) EXPECT_EQ(r, 0u);
}

// ---------------------------------------------- schedule determinism ------

/// Integer algorithms must be bit-identical across worker counts: the
/// combiners are associative-commutative over integers, so no parallel
/// schedule may change the result.
class DeterminismSuite : public ::testing::TestWithParam<int> {};

TEST_P(DeterminismSuite, SsspIdenticalAcrossWorkerCounts) {
  const Graph g = graph::grid_road(20, 20, 30, 3);
  std::vector<std::uint64_t> base, got;
  algo::run_collect<algo::Sssp>(
      DistributedGraph(g, graph::hash_partition(g.num_vertices(), 1)), base,
      [](const algo::SsspVertex& v) { return v.value().dist; });
  const DistributedGraph dg(
      g, graph::hash_partition(g.num_vertices(), GetParam()));
  algo::run_collect<algo::Sssp>(
      dg, got, [](const algo::SsspVertex& v) { return v.value().dist; });
  EXPECT_EQ(base, got);
}

TEST_P(DeterminismSuite, SvIdenticalAcrossWorkerCounts) {
  const Graph g = graph::random_undirected(1500, 2.5, 17);
  std::vector<VertexId> base, got;
  algo::run_collect<algo::SvBoth>(
      DistributedGraph(g, graph::hash_partition(g.num_vertices(), 1)), base,
      [](const algo::SvVertex& v) { return v.value().d; });
  const DistributedGraph dg(
      g, graph::hash_partition(g.num_vertices(), GetParam()));
  algo::run_collect<algo::SvBoth>(
      dg, got, [](const algo::SvVertex& v) { return v.value().d; });
  EXPECT_EQ(base, got);
}

TEST_P(DeterminismSuite, RepeatRunsAreIdentical) {
  const Graph g = graph::random_tree(2000, 5);
  const DistributedGraph dg(
      g, graph::hash_partition(g.num_vertices(), GetParam()));
  std::vector<VertexId> a, b;
  algo::run_collect<algo::PointerJumpingReqResp>(
      dg, a, [](const algo::PJVertex& v) { return v.value().parent; });
  algo::run_collect<algo::PointerJumpingReqResp>(
      dg, b, [](const algo::PJVertex& v) { return v.value().parent; });
  EXPECT_EQ(a, b);
}

INSTANTIATE_TEST_SUITE_P(Workers, DeterminismSuite,
                         ::testing::Values(2, 3, 4, 7),
                         ::testing::PrintToStringParamName());

// ----------------------------------------------------- stats invariants ---

TEST(StatsInvariants, RoundsNeverBelowSupersteps) {
  const Graph g = graph::random_tree(500, 9);
  const DistributedGraph dg(g, graph::hash_partition(g.num_vertices(), 4));
  std::vector<VertexId> sink;
  const auto stats = algo::run_collect<algo::PointerJumpingReqResp>(
      dg, sink, [](const algo::PJVertex& v) { return v.value().parent; });
  EXPECT_GE(stats.comm_rounds,
            static_cast<std::uint64_t>(stats.supersteps));
  EXPECT_GT(stats.message_bytes, 0u);
  EXPECT_FALSE(stats.summary().empty());
  EXPECT_FALSE(stats.detailed().empty());
}

// ---------------------------------------------------- superstep bound -----

/// Never halts: every vertex messages its out-neighbours every superstep.
class RestlessWorker : public Worker<NopVertex> {
 public:
  void compute(NopVertex& v) override {
    for (const auto& e : v.edges()) ping_.send_message(e.dst, 1);
  }

 private:
  CombinedMessage<NopVertex, std::uint32_t> ping_{
      this, make_combiner(c_sum, std::uint32_t{0}), "ping"};
};

/// Run WorkerT on 2 in-process ranks with the given superstep bound.
template <typename WorkerT>
runtime::RunStats run_bounded(int bound) {
  graph::RmatOptions opts;
  opts.num_vertices = 1u << 8;
  opts.num_edges = 1u << 11;
  const DistributedGraph dg(graph::rmat(opts),
                            graph::hash_partition(1u << 8, 2));
  runtime::RunConfig run = runtime::RunConfig::from_env();
  run.transport = runtime::TransportKind::kInProcess;
  run.max_supersteps = bound;
  return launch<WorkerT>(dg, LaunchConfig::from(run), nullptr, nullptr, run);
}

TEST(SuperstepBound, RunThatNeverHaltsFailsAtTheBound) {
  const auto t0 = std::chrono::steady_clock::now();
  try {
    run_bounded<RestlessWorker>(40);
    ADD_FAILURE() << "a run that never halts returned";
  } catch (const SuperstepLimitError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rank "), std::string::npos) << what;
    EXPECT_NE(what.find("after superstep 40 (PGCH_MAX_SUPERSTEPS=40)"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("active vertices"), std::string::npos) << what;
    EXPECT_NE(what.find("'ping'"), std::string::npos) << what;
  }
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(10));
}

TEST(SuperstepBound, RunThatHaltsWithinTheBoundSucceeds) {
  // NopWorker halts in superstep 1: a bound of 1 is enough, and 0 means
  // none.
  EXPECT_EQ(run_bounded<NopWorker>(1).supersteps, 1);
  EXPECT_EQ(run_bounded<NopWorker>(0).supersteps, 1);
}

}  // namespace
