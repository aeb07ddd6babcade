// sv-twitter-composed: S-V program 5 (SvBoth — request-respond for
// D[D[u]] composed with scatter-combine for the neighbour minimum) on the
// 4x Twitter stand-in, 4 in-process ranks, hash partition. The paper's
// headline composition, and the only workload with request/response reads
// beside value writes. Serialize carries most of the job; nothing pulls.

#include <sstream>

#include "algorithms/sv.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "harness.hpp"
#include "ref/reference.hpp"

namespace perfbench {
namespace {

using pregel::algo::SvBoth;

class SvWorkload final : public Workload {
 public:
  [[nodiscard]] std::string name() const override {
    return "sv-twitter-composed";
  }
  [[nodiscard]] int ranks() const override { return 4; }
  [[nodiscard]] bool tcp() const override { return false; }
  [[nodiscard]] std::string partition() const override { return "hash"; }

  std::string prepare(std::uint64_t seed, int scale_shift,
                      const std::string& snapshot) override {
    const gr::VertexId n = scaled(1u << 18, scale_shift);
    const gr::Graph g =
        gr::rmat_undirected({.num_vertices = n,
                             .num_edges = std::uint64_t{n} * 24,
                             .seed = derive_seed(seed, 104)});
    gr::save_binary(g, snapshot);
    ref_ = pregel::ref::connected_components(g);
    std::ostringstream os;
    os << "undirected rmat V=" << g.num_vertices() << " E=" << g.num_edges();
    return os.str();
  }

  JobOutcome run(Setup& setup, Tracer* tracer,
                 const std::string& /*scratch*/) override {
    using W = Probed<SvBoth>;
    const std::function<void(W&)> configure = [](W& w) {
      w.set_direction_mode(core::DirectionMode::kPush);
      w.set_compute_threads(1);
      w.set_comm_threads(1);
      w.set_steal(false);
      w.set_parallel_delivery(false);
      w.set_pipeline(false);
      w.set_checkpoint(rt::CheckpointConfig{});
    };
    std::vector<gr::VertexId> out;
    JobOutcome job = run_team<W>(
        setup, tracer, "SvBoth", partition(), configure,
        [](const auto& v) { return v.value().d; }, out);
    job.verified = same_partition(out, ref_, &job.error);
    return job;
  }

 private:
  std::vector<gr::VertexId> ref_;
};

}  // namespace

std::unique_ptr<Workload> make_sv_twitter_composed() {
  return std::make_unique<SvWorkload>();
}

}  // namespace perfbench
