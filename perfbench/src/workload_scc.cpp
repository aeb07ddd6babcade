// scc-wiki-tcp: Min-Label SCC (SccBasic) on the Wikipedia-SCC stand-in,
// 3 TcpTransport ranks on loopback inside one process, hash partition,
// a checkpoint every 100 supersteps. About 790 near-empty supersteps, so
// the per-superstep fixed cost, the control-lane collectives folded
// through rank 0 over real sockets, and the two-phase checkpoint commit
// carry the job — the paper's one reported loss. Three ranks is the
// smallest team where the fold topology matters.

#include <random>
#include <sstream>

#include "algorithms/scc.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "harness.hpp"
#include "ref/reference.hpp"

namespace perfbench {
namespace {

using pregel::algo::SccBasic;

constexpr int kCheckpointEvery = 100;

class SccWorkload final : public Workload {
 public:
  [[nodiscard]] std::string name() const override { return "scc-wiki-tcp"; }
  [[nodiscard]] int ranks() const override { return 3; }
  [[nodiscard]] bool tcp() const override { return true; }
  [[nodiscard]] std::string partition() const override { return "hash"; }

  /// The plain R-MAT graph's SCCs all have tiny diameter; the real
  /// Wikipedia's long internal paths are restored by appending disjoint
  /// directed cycles (length 192), each entered one-way from the core, so
  /// label waves must walk every cycle.
  std::string prepare(std::uint64_t seed, int scale_shift,
                      const std::string& snapshot) override {
    constexpr std::uint32_t kCycleLen = 192;
    const gr::VertexId core_n = scaled(1u << 16, scale_shift);
    const gr::VertexId cycle_n = scaled(1u << 15, scale_shift);
    gr::Graph g = gr::rmat({.num_vertices = core_n,
                            .num_edges = std::uint64_t{core_n} * 6,
                            .seed = derive_seed(seed, 108)});
    std::mt19937_64 rng(derive_seed(seed, 109));
    std::uniform_int_distribution<gr::VertexId> core_pick(0, core_n - 1);
    for (gr::VertexId i = 0; i < cycle_n; ++i) g.add_vertex();
    for (gr::VertexId start = 0; start + kCycleLen <= cycle_n;
         start += kCycleLen) {
      for (std::uint32_t i = 0; i < kCycleLen; ++i) {
        g.add_edge(core_n + start + i, core_n + start + (i + 1) % kCycleLen);
      }
      g.add_edge(core_pick(rng), core_n + start);
    }
    gr::save_binary(pregel::algo::make_bidirected(g), snapshot);
    ref_ = pregel::ref::strongly_connected_components(g);
    std::ostringstream os;
    os << "rmat core V=" << core_n << " + " << cycle_n / kCycleLen
       << " cycles of " << kCycleLen << ", V=" << g.num_vertices()
       << " E=" << g.num_edges() << " (bidirected x2)";
    return os.str();
  }

  JobOutcome run(Setup& setup, Tracer* tracer,
                 const std::string& scratch) override {
    using W = Probed<SccBasic>;
    rt::CheckpointConfig ckpt;
    ckpt.every = kCheckpointEvery;
    ckpt.dir = scratch + "/checkpoints";
    const std::function<void(W&)> configure = [&ckpt](W& w) {
      w.set_direction_mode(core::DirectionMode::kPush);
      w.set_compute_threads(1);
      w.set_comm_threads(1);
      w.set_steal(false);
      w.set_parallel_delivery(false);
      w.set_pipeline(false);
      w.set_checkpoint(ckpt);
    };
    std::vector<gr::VertexId> out;
    JobOutcome job = run_team<W>(
        setup, tracer, "SccBasic", partition(), configure,
        [](const auto& v) { return v.value().scc; }, out);
    job.verified = same_partition(out, ref_, &job.error);
    return job;
  }

 private:
  std::vector<gr::VertexId> ref_;
};

}  // namespace

std::unique_ptr<Workload> make_scc_wiki_tcp() {
  return std::make_unique<SccWorkload>();
}

}  // namespace perfbench
