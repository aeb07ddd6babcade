#pragma once
// Benchmark harness: the workload interface, the probed worker that marks
// supersteps for the trace, and the team runner every workload's job goes
// through (untraced through the engine's own launch entry points; traced
// with a TracingTransport between the team and its transport).

#include <time.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/pregel_channel.hpp"
#include "graph/distributed.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/stats.hpp"
#include "runtime/tcp_transport.hpp"
#include "runtime/team.hpp"
#include "trace.hpp"

namespace perfbench {

namespace rt = pregel::runtime;
namespace gr = pregel::graph;
namespace core = pregel::core;

/// The configuration a job actually ran, read back from rank 0's worker
/// and its transport after the run (never from the environment).
struct JobConfig {
  std::string program;
  std::string transport;
  int ranks = 0;
  int compute_threads = 0;
  int comm_threads = 0;
  bool steal = false;
  bool parallel_delivery = false;
  bool pipeline = false;
  bool supports_pipeline = false;
  std::string direction;
  std::string partition;
  int checkpoint_every = 0;
  /// The simulated link rate both transports start from (0 = off).
  double sim_link_bytes_per_s = 0.0;
};

/// One set-up graph: loaded snapshot, partition, distributed views and,
/// for TCP workloads, the connected mesh.
struct Setup {
  std::shared_ptr<const gr::DistributedGraph> dg;
  std::vector<std::unique_ptr<rt::TcpTransport>> mesh;
  double load_s = 0.0;
  double partition_s = 0.0;
  double connect_s = 0.0;
  double total_s = 0.0;
  double cpu_s = 0.0;  ///< process CPU seconds the whole set-up took
};

struct JobOutcome {
  rt::RunStats stats;
  double wall_s = 0.0;  ///< seconds, launch -> every rank returned
  double cpu_s = 0.0;  ///< process CPU seconds over the same span
  std::uint64_t result_hash = 0;
  bool verified = false;
  std::string error;  ///< why verification failed
  JobConfig config;
};

/// One benchmark workload: a generated input, the job, and its check.
class Workload {
 public:
  virtual ~Workload() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual int ranks() const = 0;
  [[nodiscard]] virtual bool tcp() const = 0;
  /// "hash" or "degree".
  [[nodiscard]] virtual std::string partition() const = 0;
  /// Generate the input from `seed` at `scale_shift` (0 = the stand-in's
  /// default size, -k = 2^k times smaller), write it to `snapshot` in
  /// format v3 and compute the src/ref answer. Returns a description of
  /// the generated input.
  virtual std::string prepare(std::uint64_t seed, int scale_shift,
                              const std::string& snapshot) = 0;
  /// Run the job on `setup` and check its result against the reference.
  /// `tracer` == nullptr is the untraced run. `scratch` is a directory
  /// the job may write (checkpoints).
  virtual JobOutcome run(Setup& setup, Tracer* tracer,
                         const std::string& scratch) = 0;
};

std::unique_ptr<Workload> make_pr_webuk_pull();
std::unique_ptr<Workload> make_pr_rmat_push();
std::unique_ptr<Workload> make_scc_wiki_tcp();
std::unique_ptr<Workload> make_sv_twitter_composed();

/// CPU seconds of every thread of this process, so far. The kernel's
/// paravirtual steal accounting leaves out the time the hypervisor ran
/// other guests on this VM's CPUs, which wall time cannot.
inline double process_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

// ---- input helpers ----------------------------------------------------------

/// splitmix64: decorrelated generator seeds from one benchmark seed.
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

inline std::uint32_t scaled(std::uint32_t base, int shift) {
  return shift >= 0 ? base << shift : base >> (-shift);
}

/// FNV-1a over a result array's bytes (bitwise-equality of results).
template <typename T>
std::uint64_t hash_values(const std::vector<T>& values) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto* p = reinterpret_cast<const unsigned char*>(values.data());
  for (std::size_t i = 0; i < values.size() * sizeof(T); ++i) {
    h = (h ^ p[i]) * 1099511628211ULL;
  }
  return h;
}

/// True when two labellings induce the same partition of the vertices.
bool same_partition(const std::vector<gr::VertexId>& a,
                    const std::vector<gr::VertexId>& b, std::string* why);

// ---- the probed worker ------------------------------------------------------

/// WorkerT with a begin_superstep() override that, in traced runs, marks
/// the superstep boundary and counts the out-edges its frontier touches.
template <class Base>
class Probed final : public Base {
 public:
  Tracer* tracer = nullptr;

  void begin_superstep() override {
    if (tracer != nullptr) mark();
    Base::begin_superstep();
  }

  [[nodiscard]] rt::Transport& transport() { return *this->env_.transport; }

 private:
  void mark() {
    const std::int64_t t = now_ns();
    const int rank = this->rank();
    const rt::ActiveSet& frontier = this->frontier();
    const auto out_degree = [&](std::uint32_t lidx) {
      return static_cast<std::uint64_t>(this->dgraph().out(rank, lidx).size());
    };
    std::uint64_t edges = 0;
    if (frontier.count() == this->num_local()) {
      if (all_edges_ == kUnset) {
        all_edges_ = 0;
        for (std::uint32_t l = 0; l < this->num_local(); ++l) {
          all_edges_ += out_degree(l);
        }
      }
      edges = all_edges_;
    } else {
      frontier.for_each_set([&](std::uint32_t l) { edges += out_degree(l); });
    }
    // The checkpoint committed at the previous boundary is on disk now
    // (retention prunes it only at the next commit).
    const rt::CheckpointConfig& ckpt = this->checkpoint_config();
    const int prev = this->step_num() - 1;
    if (ckpt.enabled() && prev > 0 && prev % ckpt.every == 0) {
      std::error_code ec;
      const auto size = std::filesystem::file_size(
          rt::checkpoint_path(ckpt.dir, rank, prev), ec);
      if (!ec) tracer->add_checkpoint_bytes(rank, size);
    }
    tracer->record(rank, Event{Op::kStep, this->step_num(), t, t, edges,
                               frontier.count()});
  }

  static constexpr std::uint64_t kUnset =
      std::numeric_limits<std::uint64_t>::max();
  std::uint64_t all_edges_ = kUnset;
};

inline const char* direction_name(core::DirectionMode m) {
  switch (m) {
    case core::DirectionMode::kPush:
      return "push";
    case core::DirectionMode::kPull:
      return "pull";
    case core::DirectionMode::kAdaptive:
      return "adaptive";
  }
  return "?";
}

/// Run one job of WorkerT over `setup` and collect `extract(v)` for every
/// vertex into `out` (indexed by global id). Untraced in-process jobs go
/// through core::launch(); traced ones replay its in-process path with
/// the decorator in front of the transport. TCP jobs run one thread per
/// rank over the set-up mesh through core::launch_distributed().
template <class WorkerT, class OutT, class Extract>
JobOutcome run_team(Setup& setup, Tracer* tracer, const std::string& program,
                    const std::string& partition,
                    const std::function<void(WorkerT&)>& configure,
                    Extract extract, std::vector<OutT>& out) {
  const gr::DistributedGraph& dg = *setup.dg;
  const int world = dg.num_workers();
  out.assign(dg.num_vertices(), OutT{});
  JobOutcome job;

  const std::function<void(WorkerT&)> conf = [&](WorkerT& w) {
    w.tracer = tracer;
    configure(w);
  };
  const std::function<void(WorkerT&, int)> collect = [&](WorkerT& w,
                                                         int rank) {
    w.for_each_vertex([&](const auto& v) { out[v.id()] = extract(v); });
    if (rank != 0) return;
    JobConfig& c = job.config;
    c.program = program;
    c.transport = setup.mesh.empty() ? "inprocess" : "tcp";
    c.ranks = w.num_workers();
    c.compute_threads = w.compute_threads();
    c.comm_threads = w.comm_threads();
    c.steal = w.steal();
    c.parallel_delivery = w.parallel_delivery();
    c.pipeline = w.pipeline();
    c.supports_pipeline = w.transport().supports_pipeline();
    c.direction = direction_name(w.direction_mode());
    c.partition = partition;
    c.checkpoint_every = w.checkpoint_config().every;
    c.sim_link_bytes_per_s = rt::simulated_bandwidth_bytes_per_sec();
  };

  const double cpu0 = process_cpu_s();
  const auto t0 = std::chrono::steady_clock::now();
  if (!setup.mesh.empty()) {
    std::vector<std::unique_ptr<TracingTransport>> wrapped;
    if (tracer != nullptr) {
      for (auto& t : setup.mesh) {
        wrapped.push_back(std::make_unique<TracingTransport>(*t, *tracer));
      }
    }
    std::vector<rt::RunStats> per_rank(static_cast<std::size_t>(world));
    rt::WorkerTeam::run(world, [&](int rank) {
      const auto r = static_cast<std::size_t>(rank);
      rt::Transport& t = tracer != nullptr
                             ? static_cast<rt::Transport&>(*wrapped[r])
                             : static_cast<rt::Transport&>(*setup.mesh[r]);
      per_rank[r] =
          core::launch_distributed<WorkerT>(dg, t, rank, conf, collect);
    });
    job.stats = per_rank[0];  // the team-global fold, identical on all ranks
  } else if (tracer == nullptr) {
    job.stats = core::launch<WorkerT>(dg, core::LaunchConfig{}, conf, collect);
  } else {
    rt::InProcessTransport inner(world);
    TracingTransport traced(inner, *tracer);
    rt::Exchange exchange(traced);
    std::vector<rt::RunStats> per_rank(static_cast<std::size_t>(world));
    rt::WorkerTeam::run(world, [&](int rank) {
      per_rank[static_cast<std::size_t>(rank)] =
          core::detail::run_rank<WorkerT>(dg, exchange, traced, rank, conf,
                                          collect);
    });
    job.stats = per_rank[0];
    for (std::size_t r = 1; r < per_rank.size(); ++r) {
      job.stats.merge_from(per_rank[r]);
    }
  }
  job.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  job.cpu_s = process_cpu_s() - cpu0;
  job.result_hash = hash_values(out);
  return job;
}

}  // namespace perfbench
