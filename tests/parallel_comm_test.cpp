// Tests for the parallel communication phase (DESIGN.md section 8):
// sharded channel serialize, stage-time combining and range-partitioned
// parallel delivery must be invisible in every observable — vertex
// results (bitwise, floats included), per-channel payload bytes,
// superstep and communication-round counts — across compute/comm thread
// counts, the delivery toggle, and both transports.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "algorithms/blogel_wcc.hpp"
#include "algorithms/pagerank.hpp"
#include "algorithms/pp_simple.hpp"
#include "algorithms/runner.hpp"
#include "algorithms/sssp.hpp"
#include "algorithms/wcc.hpp"
#include "core/pregel_channel.hpp"
#include "graph/generators.hpp"
#include "runtime/barrier.hpp"
#include "runtime/exchange.hpp"
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

/// One communication-phase configuration of the parity matrix.
struct Mode {
  int compute;
  int comm;
  bool delivery;
};

constexpr Mode kModes[] = {
    {1, 1, false},  // the exact sequential path (baseline)
    {3, 1, false},  // parallel compute, sequential comm
    {1, 3, false},  // sequential compute, sharded parallel serialize
    {3, 3, true},   // everything parallel + range-partitioned delivery
    {4, 2, true},   // mismatched pool sizes exercise the slot guards
};

std::string mode_name(const Mode& m) {
  return "compute=" + std::to_string(m.compute) +
         " comm=" + std::to_string(m.comm) +
         " delivery=" + (m.delivery ? std::string("on") : std::string("off"));
}

/// Pin every knob so the matrix is deterministic regardless of the
/// PGCH_* variables the CI legs set.
template <typename WorkerT>
std::function<void(WorkerT&)> pin(const Mode& m,
                                  std::function<void(WorkerT&)> extra = {}) {
  return [m, extra](WorkerT& w) {
    if constexpr (requires(WorkerT& x) { x.set_compute_threads(1); }) {
      w.set_compute_threads(m.compute);
    }
    w.set_comm_threads(m.comm);
    w.set_parallel_delivery(m.delivery);
    if (extra) extra(w);
  };
}

void expect_identical_traffic(const RunStats& got, const RunStats& want,
                              const std::string& label) {
  EXPECT_EQ(got.supersteps, want.supersteps) << label;
  EXPECT_EQ(got.comm_rounds, want.comm_rounds) << label;
  EXPECT_EQ(got.message_bytes, want.message_bytes) << label;
  EXPECT_EQ(got.frame_bytes, want.frame_bytes) << label;
  EXPECT_EQ(got.bytes_by_channel, want.bytes_by_channel) << label;
  EXPECT_EQ(got.bytes_per_superstep, want.bytes_per_superstep) << label;
  EXPECT_EQ(got.active_per_superstep, want.active_per_superstep) << label;
}

/// Run WorkerT across the whole mode matrix and require byte-identical
/// results and traffic. OutT must compare exactly (use bit patterns for
/// floats).
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
    expect_identical_traffic(stats, want, mode_name(kModes[i]));
  }
}

// Message-heavy inputs: comfortably above kParallelCommMinItems per rank
// per round, so the pool paths actually fork (tiny inputs would only
// exercise the sequential fallback inside the new staging).
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

graph::DistributedGraph ring_dg(graph::VertexId n, int workers) {
  graph::Graph g(n);
  for (graph::VertexId v = 0; v < n; ++v) g.add_edge(v, (v + 1) % n);
  return graph::DistributedGraph(g, graph::hash_partition(n, workers));
}

std::uint64_t bits(double d) { return std::bit_cast<std::uint64_t>(d); }

// ------------------------------------------ channel engine, per channel --

TEST(ParallelComm, CombinedMessageInexactBitwise) {
  // PageRank: double-sum CombinedMessage (raw-log staging; the merge must
  // replay the sequential fold exactly) + an Aggregator.
  const auto dg = rmat_dg(4);
  run_matrix<algo::PageRankCombined, std::uint64_t>(
      dg, [](const algo::PRVertex& v) { return bits(v.value().rank); },
      [](algo::PageRankCombined& w) { w.iterations = 6; });
}

TEST(ParallelComm, CombinedMessageExactStageTimeCombining) {
  // WCC: min-label CombinedMessage — the stage-time-combining path.
  const auto dg = rmat_dg(4, /*symmetric=*/true);
  run_matrix<algo::WccBasic, graph::VertexId>(
      dg, [](const algo::WccVertex& v) { return v.value().label; });
}

TEST(ParallelComm, CombinedMessageExactMinSssp) {
  const auto dg = graph::DistributedGraph(
      graph::grid_road(48, 48, 600, 7),
      graph::hash_partition(48 * 48, 4));
  run_matrix<algo::Sssp, std::uint64_t>(
      dg, [](const algo::SsspVertex& v) { return v.value().dist; },
      [](algo::Sssp& w) { w.source = 0; });
}

TEST(ParallelComm, ScatterCombineSegmentedSerialize) {
  const auto dg = rmat_dg(4);
  run_matrix<algo::PageRankScatter, std::uint64_t>(
      dg, [](const algo::PRVertex& v) { return bits(v.value().rank); },
      [](algo::PageRankScatter& w) { w.iterations = 6; });
}

/// ScatterCombine's fold-order contract: a run folds its edges in
/// registration order (the order add_edge saw them), and the receiver
/// folds the peers' values in peer order. A non-commutative combiner
/// makes any other order visible.
struct FoldValue {
  std::uint64_t got = 0;
};
using FoldVertex = Vertex<FoldValue>;

std::uint64_t fold_step(const std::uint64_t& acc, const std::uint64_t& v) {
  return acc * 1000003u + v;
}
std::uint64_t fold_message(graph::VertexId u) {
  return std::uint64_t{u} * 2654435761u + 1;
}

class FoldOrderWorker : public Worker<FoldVertex> {
 public:
  void compute(FoldVertex& v) override {
    if (step_num() == 1) {
      for (const auto& e : v.edges()) msg_.add_edge(e.dst);
      msg_.set_message(fold_message(v.id()));
    } else {
      if (msg_.has_message()) v.value().got = msg_.get_message();
      v.vote_to_halt();
    }
  }

 private:
  ScatterCombine<FoldVertex, std::uint64_t> msg_{
      this,
      make_combiner([](const std::uint64_t& a,
                       const std::uint64_t& b) { return fold_step(a, b); },
                    std::uint64_t{0}),
      "fold"};
};

TEST(ParallelComm, ScatterCombineFoldsRunsInRegistrationOrder) {
  // A star (8191 leaves -> vertex 0: a run of ~2048 edges per sender
  // rank, far past the 16-element ties a comparison sort reorders) plus
  // random edges, so every rank also stages > kParallelCommMinItems edges
  // and receives > kParallelCommMinItems values.
  constexpr graph::VertexId kN = 8192;
  graph::Graph g = graph::star(kN);
  std::mt19937 rng(7);
  std::uniform_int_distribution<graph::VertexId> pick(0, kN - 1);
  for (int i = 0; i < 40000; ++i) g.add_edge(pick(rng), pick(rng));
  const graph::DistributedGraph dg(g, graph::hash_partition(kN, 4));

  // The left fold in registration order, per sender rank (vertex order,
  // then edge order), then over sender ranks in rank order.
  std::vector<std::uint64_t> want(kN, 0);
  std::vector<std::uint8_t> have(kN, 0);
  for (int r = 0; r < dg.num_workers(); ++r) {
    std::vector<std::uint64_t> run(kN, 0);
    std::vector<std::uint8_t> touched(kN, 0);
    for (std::uint32_t lidx = 0; lidx < dg.num_local(r); ++lidx) {
      const std::uint64_t m = fold_message(dg.global_id(r, lidx));
      for (const auto& e : dg.out(r, lidx)) {
        run[e.dst] = touched[e.dst] ? fold_step(run[e.dst], m) : m;
        touched[e.dst] = 1;
      }
    }
    for (graph::VertexId d = 0; d < kN; ++d) {
      if (!touched[d]) continue;
      want[d] = have[d] ? fold_step(want[d], run[d]) : run[d];
      have[d] = 1;
    }
  }

  for (const Mode m : {Mode{1, 1, false}, Mode{3, 1, false}, Mode{1, 3, true},
                       Mode{3, 3, true}}) {
    std::vector<std::uint64_t> got;
    algo::run_collect<FoldOrderWorker>(
        dg, got, [](const FoldVertex& v) { return v.value().got; },
        pin<FoldOrderWorker>(m));
    EXPECT_EQ(got, want) << mode_name(m);
  }
}

TEST(ParallelComm, MirrorScatterSegmentedSerialize) {
  const auto dg = rmat_dg(4);
  run_matrix<algo::PageRankMirror, std::uint64_t>(
      dg, [](const algo::PRVertex& v) { return bits(v.value().rank); },
      [](algo::PageRankMirror& w) { w.iterations = 6; });
}

TEST(ParallelComm, PropagationSequentialDeliveryFallback) {
  // Propagation overrides serialize_parallel only; delivery must fall
  // back (its BFS queue order feeds the next round's bytes).
  const auto dg = rmat_dg(4, /*symmetric=*/true);
  run_matrix<algo::WccPropagation, graph::VertexId>(
      dg, [](const algo::WccVertex& v) { return v.value().label; });
}

TEST(ParallelComm, PropagationWeightedParallelWriteOut) {
  const auto dg = graph::DistributedGraph(
      graph::grid_road(48, 48, 600, 7),
      graph::hash_partition(48 * 48, 4));
  run_matrix<algo::SsspPropagation, std::uint64_t>(
      dg, [](const algo::SsspVertex& v) { return v.value().dist; },
      [](algo::SsspPropagation& w) { w.source = 0; });
}

/// DirectMessage: superstep 1 sends one id per out-edge, superstep 2 sums
/// the arrivals.
struct SumValue {
  std::uint64_t sum = 0;
};
using SumVertex = Vertex<SumValue>;

class DirectSumWorker : public Worker<SumVertex> {
 public:
  void compute(SumVertex& v) override {
    if (step_num() == 1) {
      for (const auto& e : v.edges()) msg_.send_message(e.dst, v.id());
    } else {
      for (const auto m : msg_.get_iterator()) v.value().sum += m;
    }
    v.vote_to_halt();
  }

 private:
  DirectMessage<SumVertex, std::uint64_t> msg_{this, "sum"};
};

TEST(ParallelComm, DirectMessageShardedStaging) {
  const auto dg = rmat_dg(4);
  run_matrix<DirectSumWorker, std::uint64_t>(
      dg, [](const SumVertex& v) { return v.value().sum; });
}

/// RequestRespond: every vertex requests a peer's secret; the parallel
/// path produces the replies over the pool.
struct FetchValue {
  std::uint64_t secret = 0;
  std::uint64_t fetched = 0;
};
using FetchVertex = Vertex<FetchValue>;

class ParFetchWorker : public Worker<FetchVertex> {
 public:
  graph::VertexId n = 0;

  void compute(FetchVertex& v) override {
    if (step_num() == 1) {
      v.value().secret = 5000 + v.id();
      rr_.add_request((v.id() + 7) % n);
    } else {
      v.value().fetched = rr_.get_respond();
    }
    v.vote_to_halt();
  }

 private:
  RequestRespond<FetchVertex, std::uint64_t> rr_{
      this, [](const FetchVertex& u) { return u.value().secret; }, "fetch"};
};

TEST(ParallelComm, RequestRespondParallelReplies) {
  constexpr graph::VertexId kN = 20'000;  // > threshold requests per rank
  const auto dg = ring_dg(kN, 2);
  run_matrix<ParFetchWorker, std::uint64_t>(
      dg, [](const FetchVertex& v) { return v.value().fetched; },
      [](ParFetchWorker& w) { w.n = kN; });
  // Spot-check correctness, not just parity.
  std::vector<std::uint64_t> fetched;
  algo::run_collect<ParFetchWorker>(
      dg, fetched, [](const FetchVertex& v) { return v.value().fetched; },
      pin<ParFetchWorker>(Mode{3, 3, true},
                          [](ParFetchWorker& w) { w.n = kN; }));
  for (graph::VertexId v = 0; v < kN; ++v) {
    ASSERT_EQ(fetched[v], 5000u + (v + 7) % kN);
  }
}

// ------------------------------------------------------ baseline engines --

TEST(ParallelComm, PPWorkerRangePartitionedDelivery) {
  const auto dg = rmat_dg(4);
  run_matrix<algo::PPPageRank, std::uint64_t>(
      dg, [](const algo::PRVertex& v) { return bits(v.value().rank); },
      [](algo::PPPageRank& w) { w.iterations = 6; });
}

TEST(ParallelComm, BlockWorkerRangePartitionedDelivery) {
  const auto dg = rmat_dg(4, /*symmetric=*/true);
  run_matrix<algo::BlogelWcc, graph::VertexId>(
      dg, [](const algo::WccVertex& v) { return v.value().label; });
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

TEST(ParallelComm, TcpParityPageRankParallelEverything) {
  const auto dg = rmat_dg(2);
  const auto extract = [](const algo::PRVertex& v) {
    return bits(v.value().rank);
  };
  const auto tune = [](algo::PageRankCombined& w) { w.iterations = 6; };

  std::vector<std::uint64_t> expect;
  const RunStats inproc = algo::run_collect<algo::PageRankCombined>(
      dg, expect, extract,
      pin<algo::PageRankCombined>(Mode{3, 3, true}, tune));

  std::vector<std::uint64_t> got;
  const RunStats tcp = run_tcp<algo::PageRankCombined>(
      dg, 2, got, extract,
      pin<algo::PageRankCombined>(Mode{3, 3, true}, tune));

  EXPECT_EQ(got, expect);
  expect_identical_traffic(tcp, inproc, "tcp vs inprocess");

  // And the parallel TCP run must match a fully sequential TCP run.
  std::vector<std::uint64_t> seq;
  const RunStats tcp_seq = run_tcp<algo::PageRankCombined>(
      dg, 2, seq, extract,
      pin<algo::PageRankCombined>(Mode{1, 1, false}, tune));
  EXPECT_EQ(seq, got);
  expect_identical_traffic(tcp_seq, tcp, "tcp seq vs tcp parallel");
}

TEST(ParallelComm, TcpParityWccExactCombiner) {
  const auto dg = rmat_dg(2, /*symmetric=*/true);
  const auto extract = [](const algo::WccVertex& v) {
    return v.value().label;
  };

  std::vector<graph::VertexId> expect;
  const RunStats inproc = algo::run_collect<algo::WccBasic>(
      dg, expect, extract, pin<algo::WccBasic>(Mode{1, 1, false}));

  std::vector<graph::VertexId> got;
  const RunStats tcp = run_tcp<algo::WccBasic>(
      dg, 2, got, extract, pin<algo::WccBasic>(Mode{3, 3, true}));

  EXPECT_EQ(got, expect);
  expect_identical_traffic(tcp, inproc, "tcp parallel vs inprocess seq");
}

// ------------------------------------------------------------ unit bits --

TEST(ParallelComm, MakeCombinerDetectsExactFolds) {
  // exact: which folds regroup bit-exactly; op: the stock function's tag.
  const auto min = make_combiner(c_min, graph::kInvalidVertex);
  EXPECT_TRUE(min.exact);
  EXPECT_EQ(min.op, CombineOp::kMin);
  const auto max = make_combiner(c_max, std::uint64_t{0});
  EXPECT_TRUE(max.exact);
  EXPECT_EQ(max.op, CombineOp::kMax);
  const auto any = make_combiner(c_or, false);
  EXPECT_TRUE(any.exact);
  EXPECT_EQ(any.op, CombineOp::kOr);
  const auto isum = make_combiner(c_sum, std::int64_t{0});
  EXPECT_TRUE(isum.exact);
  EXPECT_EQ(isum.op, CombineOp::kSum);
  const auto fsum = make_combiner(c_sum, 0.0);
  EXPECT_FALSE(fsum.exact);  // float regroup != exact
  EXPECT_EQ(fsum.op, CombineOp::kSum);
  const auto custom = make_combiner(
      [](const int& a, const int& b) { return a ^ b; }, 0);
  EXPECT_FALSE(custom.exact);  // custom functions default to inexact
  EXPECT_EQ(custom.op, CombineOp::kCustom);
  const auto forced = make_combiner(
      [](const int& a, const int& b) { return a ^ b; }, 0, /*exact=*/true);
  EXPECT_TRUE(forced.exact);
  EXPECT_EQ(forced.op, CombineOp::kCustom);
  // An explicit exact flag keeps the tag of the stock function it wraps.
  const auto forced_sum = make_combiner(c_sum, 0.0, /*exact=*/true);
  EXPECT_TRUE(forced_sum.exact);
  EXPECT_EQ(forced_sum.op, CombineOp::kSum);
}

/// Left fold through with_combine_op, i.e. the typed path every channel
/// loop takes.
template <typename T>
T typed_fold(const Combiner<T>& c, const std::vector<T>& xs) {
  return with_combine_op(c, [&](const auto& combine) {
    T acc = c.identity;
    for (const T& x : xs) acc = combine(acc, x);
    return acc;
  });
}

/// The same fold through the type-erased std::function.
template <typename T>
T erased_fold(const Combiner<T>& c, const std::vector<T>& xs) {
  T acc = c.identity;
  for (const T& x : xs) acc = c.fn(acc, x);
  return acc;
}

TEST(ParallelComm, WithCombineOpFoldsLikeTheStdFunction) {
  const std::vector<double> ds{0.1, 1e16, -1e16, 0.2, 3.0 / 7.0, -0.3};
  const auto sum = make_combiner(c_sum, 0.0);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(typed_fold(sum, ds)),
            std::bit_cast<std::uint64_t>(erased_fold(sum, ds)));
  const auto max = make_combiner(c_max, -1.0);
  EXPECT_EQ(typed_fold(max, ds), erased_fold(max, ds));
  // Narrow integers: c_sum promotes to int, both paths convert back.
  const std::vector<std::uint8_t> bytes{200, 100, 7};
  const auto u8sum = make_combiner(c_sum, std::uint8_t{0});
  EXPECT_EQ(typed_fold(u8sum, bytes), erased_fold(u8sum, bytes));
  const std::vector<std::uint64_t> ids{9, 4, 12, 4};
  const auto min = make_combiner(c_min, ~std::uint64_t{0});
  EXPECT_EQ(typed_fold(min, ids), 4u);
  const std::vector<bool> flags{false, true, false};
  EXPECT_TRUE(typed_fold(make_combiner(c_or, false), flags));
  const auto custom = make_combiner(
      [](const int& a, const int& b) { return a * 2 + b; }, 1);
  const std::vector<int> ints{3, 5, 8};
  EXPECT_EQ(typed_fold(custom, ints), erased_fold(custom, ints));
}

TEST(ParallelComm, WithCombineOpFallsBackForTypesWithoutStockOps) {
  // No +, < or || on this type: the stock branches compile away and
  // even a (hand-built) stock tag folds through fn.
  struct Pair {
    int lo = 0;
    int hi = 0;
  };
  Combiner<Pair> c = make_combiner(
      [](const Pair& a, const Pair& b) {
        return Pair{std::min(a.lo, b.lo), std::max(a.hi, b.hi)};
      },
      Pair{1000, -1000});
  EXPECT_EQ(c.op, CombineOp::kCustom);
  const std::vector<Pair> xs{{3, 4}, {-1, 2}, {5, 9}};
  Pair got = typed_fold(c, xs);
  EXPECT_EQ(got.lo, -1);
  EXPECT_EQ(got.hi, 9);
  c.op = CombineOp::kSum;
  got = typed_fold(c, xs);
  EXPECT_EQ(got.lo, -1);
  EXPECT_EQ(got.hi, 9);
}

TEST(ParallelComm, ItemRangePartitionsExactly) {
  for (const std::uint64_t n : {0ull, 1ull, 7ull, 4096ull, 65537ull}) {
    for (const int slots : {1, 2, 3, 8}) {
      std::uint64_t covered = 0;
      std::uint64_t prev_end = 0;
      for (int slot = 0; slot < slots; ++slot) {
        const auto [lo, hi] = core::detail::item_range(n, slots, slot);
        EXPECT_EQ(lo, prev_end);  // contiguous and ascending
        EXPECT_LE(hi, n);
        covered += hi - lo;
        prev_end = hi;
      }
      EXPECT_EQ(covered, n);
      EXPECT_EQ(prev_end, n);
    }
  }
}

TEST(ParallelComm, ExchangeReservesFromPreviousRoundHint) {
  // Round 1 ships a 16 KiB payload; round 2's begin_frames must
  // pre-reserve the (fresh) outbox to at least that size before the
  // channel writes a byte.
  runtime::Barrier barrier(1);
  runtime::BufferExchange ex(1, barrier);
  constexpr std::size_t kPayload = 16 * 1024;
  std::vector<std::byte> blob(kPayload);

  ex.begin_frames(0, 0);
  ex.outbox(0, 0).write_bytes(blob.data(), blob.size());
  ex.end_frames(0, 0);
  ex.exchange(0);
  ex.open_frames(0, 0, "c0");
  ex.inbox(0, 0).skip(kPayload);
  ex.close_frames(0, 0, "c0");

  // The new outbox is the double-buffered matrix's other buffer, never
  // written before — without the hint its capacity would be ~0.
  ex.begin_frames(0, 0);
  EXPECT_GE(ex.outbox(0, 0).capacity(), kPayload);
  ex.end_frames(0, 0);
}

TEST(ParallelComm, MergeFromMaxesPhaseBreakdown) {
  RunStats a, b;
  a.serialize_seconds = 0.5;
  a.exchange_seconds = 0.1;
  a.deliver_seconds = 0.2;
  b.serialize_seconds = 0.3;
  b.exchange_seconds = 0.4;
  b.deliver_seconds = 0.1;
  a.merge_from(b);
  EXPECT_EQ(a.serialize_seconds, 0.5);
  EXPECT_EQ(a.exchange_seconds, 0.4);
  EXPECT_EQ(a.deliver_seconds, 0.2);
}

}  // namespace
