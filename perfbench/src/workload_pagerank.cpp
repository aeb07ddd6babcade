// The two PageRank workloads (the paper's Fig. 1 program, PageRankCombined):
//
//   pr-webuk-pull  WebUK R-MAT stand-in, 4 in-process ranks, hash
//                  partition, adaptive direction. The frontier is dense
//                  every superstep, so every superstep pulls: the pull
//                  gather (deliver) carries the job.
//   pr-rmat-push   unpermuted skewed R-MAT, 2 in-process ranks x 2 compute
//                  threads, degree partition, work stealing, forced push:
//                  stage-time combining, the stealing schedule and the
//                  degree partitioner carry the job; nothing pulls.

#include <cmath>
#include <sstream>

#include "algorithms/pagerank.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "harness.hpp"
#include "ref/reference.hpp"

namespace perfbench {
namespace {

using pregel::algo::PageRankCombined;

constexpr int kIterations = 30;
/// Per-vertex relative tolerance against ref::pagerank: the engine folds
/// rank shares in a different order than the sequential oracle.
constexpr double kRelTolerance = 1e-9;

struct PageRankShape {
  const char* name;
  int ranks;
  const char* partition;
  core::DirectionMode direction;
  int threads;  ///< compute (and communication) threads per rank
  bool steal;
  std::uint32_t vertices;
  std::uint32_t edges_per_vertex;
  bool permute_ids;
  std::uint64_t salt;
};

class PageRankWorkload final : public Workload {
 public:
  explicit PageRankWorkload(const PageRankShape& shape) : shape_(shape) {}

  [[nodiscard]] std::string name() const override { return shape_.name; }
  [[nodiscard]] int ranks() const override { return shape_.ranks; }
  [[nodiscard]] bool tcp() const override { return false; }
  [[nodiscard]] std::string partition() const override {
    return shape_.partition;
  }

  std::string prepare(std::uint64_t seed, int scale_shift,
                      const std::string& snapshot) override {
    const std::uint32_t n = scaled(shape_.vertices, scale_shift);
    const gr::Graph g = gr::rmat({.num_vertices = n,
                                  .num_edges = std::uint64_t{n} *
                                               shape_.edges_per_vertex,
                                  .seed = derive_seed(seed, shape_.salt),
                                  .permute_ids = shape_.permute_ids});
    gr::save_binary(g, snapshot);
    ref_ = pregel::ref::pagerank(g, kIterations);
    std::ostringstream os;
    os << "rmat V=" << g.num_vertices() << " E=" << g.num_edges()
       << (shape_.permute_ids ? "" : " unpermuted");
    return os.str();
  }

  JobOutcome run(Setup& setup, Tracer* tracer,
                 const std::string& /*scratch*/) override {
    using W = Probed<PageRankCombined>;
    const std::function<void(W&)> configure = [this](W& w) {
      w.iterations = kIterations;
      w.set_direction_mode(shape_.direction);
      w.set_compute_threads(shape_.threads);
      w.set_comm_threads(shape_.threads);
      w.set_steal(shape_.steal);
      w.set_parallel_delivery(false);
      w.set_pipeline(false);
      w.set_checkpoint(rt::CheckpointConfig{});
    };
    std::vector<double> out;
    JobOutcome job = run_team<W>(
        setup, tracer, "PageRankCombined", shape_.partition, configure,
        [](const auto& v) { return v.value().rank; }, out);
    job.verified = check(out, &job.error);
    return job;
  }

 private:
  bool check(const std::vector<double>& got, std::string* why) const {
    if (got.size() != ref_.size()) {
      *why = "pagerank: result size differs from the reference";
      return false;
    }
    for (std::size_t v = 0; v < got.size(); ++v) {
      if (!(std::fabs(got[v] - ref_[v]) <= kRelTolerance * ref_[v])) {
        std::ostringstream os;
        os << "pagerank: vertex " << v << " got " << got[v] << ", reference "
           << ref_[v];
        *why = os.str();
        return false;
      }
    }
    return true;
  }

  PageRankShape shape_;
  std::vector<double> ref_;
};

}  // namespace

std::unique_ptr<Workload> make_pr_webuk_pull() {
  return std::make_unique<PageRankWorkload>(PageRankShape{
      .name = "pr-webuk-pull",
      .ranks = 4,
      .partition = "hash",
      .direction = core::DirectionMode::kAdaptive,
      .threads = 1,
      .steal = false,
      .vertices = 1u << 18,
      .edges_per_vertex = 16,
      .permute_ids = true,
      .salt = 102,
  });
}

std::unique_ptr<Workload> make_pr_rmat_push() {
  return std::make_unique<PageRankWorkload>(PageRankShape{
      .name = "pr-rmat-push",
      .ranks = 2,
      .partition = "degree",
      .direction = core::DirectionMode::kPush,
      .threads = 2,
      .steal = true,
      .vertices = 1u << 17,
      .edges_per_vertex = 16,
      .permute_ids = false,
      .salt = 110,
  });
}

}  // namespace perfbench
