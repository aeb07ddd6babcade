// pgch_perfbench: one benchmark run of one workload.
//
//   pgch_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--workdir <dir>]
//   pgch_perfbench --selftest [--workdir <dir>]
//
// A run generates the workload's input from the seed, writes it once as a
// format-v3 snapshot and computes the src/ref answer, then runs a closed
// loop (one job at a time, no overlap) for --seconds: every iteration sets
// the job up (snapshot load, partition, DistributedGraph build, TCP mesh
// connect) and runs it, and every job's result is checked against the
// reference. A warm-up iteration runs first and is checked but not timed.
//
// A job's time (job_cpu_s) and a set-up's (setup_s) are the CPU seconds
// the process spent on it, summed over its threads. On a shared VM the
// wall time of a BSP job swells several-fold whenever the hypervisor takes
// any rank's CPU, and the kernel leaves that steal out of CPU time. The
// record keeps every job's wall time, and the host's steal and iowait
// during it, beside its CPU time; the traced run reports the median wall
// time as job.wall_s.
//
// --trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
// and traced jobs and reports the per-layer metrics of the traced ones
// (trace.overhead_frac compares the two), prints the last traced job's
// layer breakdown and writes it as a Chrome trace. The last stdout line
// is the run's JSON record; metric units come from BENCHMARK.json.

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "graph/io.hpp"
#include "graph/partition.hpp"
#include "harness.hpp"

extern char** environ;

namespace perfbench {
namespace {

namespace fs = std::filesystem;

constexpr double kMiB = 1024.0 * 1024.0;
constexpr int kMinTimedJobs = 3;

// ---- small utilities ----------------------------------------------------------

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// The engine reads ~30 PGCH_* knobs from the environment; a benchmark
/// run must measure the configuration its workload sets, so drop them all
/// before anything reads one.
void scrub_engine_environment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "PGCH_", 5) == 0) {
      const char* eq = std::strchr(*e, '=');
      names.emplace_back(*e, eq != nullptr ? eq - *e : std::strlen(*e));
    }
  }
  for (const std::string& n : names) ::unsetenv(n.c_str());
}

/// Resident-set high-water mark of this process in MiB (VmHWM).
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// What the process and the host did during one job, to tell a job whose
/// wall time grew because it waited for the hypervisor (steal) or the
/// disk (iowait: checkpoint fsyncs) from one that worked harder, and
/// kernel work (system CPU, context switches) from the engine's own.
struct HostCounters {
  double user_s = 0.0;    ///< this process's user-mode CPU
  double switches = 0.0;  ///< this process's context switches
  double steal_s = 0.0;   ///< host steal, summed over CPUs
  double iowait_s = 0.0;  ///< host iowait, summed over CPUs

  static HostCounters now() {
    HostCounters c;
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    c.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
               static_cast<double>(ru.ru_utime.tv_usec) / 1e6;
    c.switches = static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
    std::ifstream stat("/proc/stat");
    std::string cpu;
    double v[8] = {};
    stat >> cpu;
    for (double& x : v) stat >> x;
    const double tick = static_cast<double>(::sysconf(_SC_CLK_TCK));
    c.iowait_s = v[4] / tick;
    c.steal_s = v[7] / tick;
    return c;
  }
  HostCounters operator-(const HostCounters& o) const {
    return {user_s - o.user_s, switches - o.switches, steal_s - o.steal_s,
            iowait_s - o.iowait_s};
  }
};

/// Restart the resident high-water mark at the current resident size.
bool reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "pr-webuk-pull") return make_pr_webuk_pull();
  if (name == "pr-rmat-push") return make_pr_rmat_push();
  if (name == "scc-wiki-tcp") return make_scc_wiki_tcp();
  if (name == "sv-twitter-composed") return make_sv_twitter_composed();
  throw std::invalid_argument("unknown workload '" + name + "'");
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "pr-webuk-pull", "pr-rmat-push", "scc-wiki-tcp", "sv-twitter-composed"};
  return names;
}

// ---- set-up -----------------------------------------------------------------------

bool is_port_collision(const std::exception& e) {
  const std::string_view what(e.what());
  return what.find("Address already in use") != std::string_view::npos ||
         what.find("EADDRINUSE") != std::string_view::npos;
}

/// `world` TcpTransports on ephemeral loopback ports, mesh-connected from
/// one thread per rank; retried on transient port collisions.
std::vector<std::unique_ptr<rt::TcpTransport>> connect_loopback_mesh(
    int world) {
  constexpr int kAttempts = 5;
  for (int attempt = 1;; ++attempt) {
    try {
      std::vector<std::unique_ptr<rt::TcpTransport>> mesh;
      std::vector<rt::TcpEndpoint> peers;
      for (int rank = 0; rank < world; ++rank) {
        mesh.push_back(std::make_unique<rt::TcpTransport>(
            rank, world, rt::TcpEndpoint{"127.0.0.1", 0}));
        peers.push_back(rt::TcpEndpoint{"127.0.0.1", mesh.back()->listen_port()});
      }
      rt::WorkerTeam::run(world, [&](int rank) {
        mesh[static_cast<std::size_t>(rank)]->connect_mesh(peers, 20.0);
      });
      return mesh;
    } catch (const rt::TransportError& e) {
      if (attempt >= kAttempts || !is_port_collision(e)) throw;
      std::this_thread::sleep_for(std::chrono::milliseconds(25 << attempt));
    }
  }
}

/// Set up one job the way a freshly started team does. Bumping the
/// snapshot's mtime first makes the loader treat it as a file it has not
/// verified yet (its verify-once cache is keyed by file identity and
/// mtime), so every set-up pays the checksum a new process pays; the page
/// cache stays warm, as on a host that already holds the snapshot.
Setup set_up(const Workload& wl, const std::string& snapshot) {
  fs::last_write_time(snapshot, fs::file_time_type::clock::now());
  Setup s;
  const double cpu0 = process_cpu_s();
  const auto t0 = std::chrono::steady_clock::now();
  auto g = std::make_shared<const gr::CsrGraph>(
      gr::load_any(snapshot, gr::MmapMode::kAuto));
  s.load_s = seconds_since(t0);
  const auto t1 = std::chrono::steady_clock::now();
  gr::Partition p = wl.partition() == "degree"
                        ? gr::degree_partition(*g, wl.ranks())
                        : gr::hash_partition(g->num_vertices(), wl.ranks());
  s.dg = std::make_shared<const gr::DistributedGraph>(g, std::move(p));
  s.partition_s = seconds_since(t1);
  if (wl.tcp()) {
    const auto t2 = std::chrono::steady_clock::now();
    s.mesh = connect_loopback_mesh(wl.ranks());
    s.connect_s = seconds_since(t2);
  }
  s.total_s = seconds_since(t0);
  s.cpu_s = process_cpu_s() - cpu0;
  return s;
}

// ---- per-layer metrics ----------------------------------------------------------

struct LayerReport {
  std::map<std::string, double> metrics;
  std::vector<RankBreakdown> ranks;
  /// Mean over ranks of each layer's seconds; they sum to mean_wall.
  std::array<double, kNumLayers> mean_layer{};
  double mean_wall = 0.0;
};

/// Fold one traced job's per-rank breakdowns into the per-layer metrics.
/// Layer times are the mean over ranks of each rank's total (per rank the
/// layers and superstep.other_s sum to its superstep wall), except
/// core.compute_s, which is the critical-path (slowest) rank's.
LayerReport layer_metrics(const Tracer& tracer, const JobOutcome& job,
                          std::uint64_t num_edges) {
  LayerReport rep;
  const int world = tracer.world();
  const rt::RunStats& st = job.stats;
  for (int r = 0; r < world; ++r) rep.ranks.push_back(classify(tracer.events(r)));

  std::vector<std::array<double, kNumLayers>> total(
      static_cast<std::size_t>(world));
  std::vector<double> pull_deliver(static_cast<std::size_t>(world), 0.0);
  std::uint64_t frontier_edges = 0;
  std::size_t pull_steps = 0;
  for (int r = 0; r < world; ++r) {
    auto& t = total[static_cast<std::size_t>(r)];
    t.fill(0.0);
    for (const StepBreakdown& s : rep.ranks[static_cast<std::size_t>(r)].steps) {
      for (int l = 0; l < kNumLayers; ++l) {
        t[static_cast<std::size_t>(l)] += static_cast<double>(s.ns[l]) / 1e9;
      }
      frontier_edges += s.frontier_edges;
      const std::size_t idx = static_cast<std::size_t>(s.step - 1);
      if (idx < st.direction_per_superstep.size() &&
          st.direction_per_superstep[idx] == 1) {
        pull_deliver[static_cast<std::size_t>(r)] +=
            static_cast<double>(s.ns[kDeliver]) / 1e9;
        if (r == 0) ++pull_steps;
      }
    }
  }
  const auto mean_of = [&](Layer l) {
    double sum = 0.0;
    for (const auto& t : total) sum += t[static_cast<std::size_t>(l)];
    return sum / world;
  };
  const auto sum_of = [&](Layer l) { return mean_of(l) * world; };

  auto& m = rep.metrics;
  double compute_max = 0.0;
  for (const auto& t : total) compute_max = std::max(compute_max, t[kCompute]);
  const double compute_mean = mean_of(kCompute);
  m["core.compute_s"] = compute_max;
  m["core.compute_imbalance"] = compute_mean > 0 ? compute_max / compute_mean : 0;
  m["core.compute_edges_per_s"] =
      compute_max > 0 ? static_cast<double>(frontier_edges) / compute_max : 0;

  std::uint64_t payload = 0;
  for (const auto& [name, bytes] : st.bytes_by_channel) payload += bytes;
  m["core.serialize_s"] = mean_of(kSerialize);
  m["core.serialize_mb_per_s"] =
      sum_of(kSerialize) > 0 ? payload / kMiB / sum_of(kSerialize) : 0;
  m["core.deliver_s"] = mean_of(kDeliver);
  const double pull_deliver_sum =
      std::accumulate(pull_deliver.begin(), pull_deliver.end(), 0.0);
  m["core.gather_edges_per_s"] =
      pull_deliver_sum > 0
          ? static_cast<double>(num_edges) * pull_steps / pull_deliver_sum
          : 0;

  m["runtime.wire_s"] = mean_of(kWire);
  m["runtime.wire_mb_per_s"] =
      mean_of(kWire) > 0 ? st.message_bytes / kMiB / mean_of(kWire) : 0;
  // Per round: how long each rank sat in exchange() before the last rank
  // entered it.
  const std::size_t rounds = rep.ranks[0].exchange_entry.size();
  double wait = 0.0;
  for (const RankBreakdown& b : rep.ranks) {
    if (b.exchange_entry.size() != rounds) {
      throw std::runtime_error("trace: ranks disagree on the round count");
    }
  }
  for (std::size_t k = 0; k < rounds; ++k) {
    std::int64_t last = 0;
    for (const RankBreakdown& b : rep.ranks) {
      last = std::max(last, b.exchange_entry[k]);
    }
    for (const RankBreakdown& b : rep.ranks) {
      wait += static_cast<double>(last - b.exchange_entry[k]) / 1e9;
    }
  }
  m["runtime.wire_wait_s"] = wait / world;

  std::uint64_t calls = 0;
  for (const StepBreakdown& s : rep.ranks[0].steps) calls += s.control_calls;
  m["runtime.control_calls_per_superstep"] =
      st.supersteps > 0 ? static_cast<double>(calls) / st.supersteps : 0;
  std::vector<double> call_us;
  for (const RankBreakdown& b : rep.ranks) {
    for (const std::int64_t ns : b.control_ns) call_us.push_back(ns / 1e3);
  }
  m["runtime.control_us"] = median(call_us);
  m["runtime.control_s"] = mean_of(kControl);

  std::uint64_t ckpt_bytes = 0;
  for (int r = 0; r < world; ++r) ckpt_bytes += tracer.checkpoint_bytes(r);
  m["runtime.checkpoint_s"] = mean_of(kCheckpoint);
  m["runtime.checkpoint_mb"] = ckpt_bytes / kMiB;

  m["core.comm_rounds"] = static_cast<double>(st.comm_rounds);
  m["core.active_vertices"] = static_cast<double>(st.active_vertex_total);
  // One metric per channel the program registers; run.py reports the
  // declared channels a program lacks as 0.
  for (const auto& [name, bytes] : st.bytes_by_channel) {
    m["core.channel_bytes." + name] = static_cast<double>(bytes);
  }
  m["superstep.other_s"] = mean_of(kOther);
  for (int l = 0; l < kNumLayers; ++l) {
    rep.mean_layer[static_cast<std::size_t>(l)] = mean_of(static_cast<Layer>(l));
    rep.mean_wall += rep.mean_layer[static_cast<std::size_t>(l)];
  }
  return rep;
}

/// Self-consistency of a traced job: every rank saw every superstep and
/// round, and per rank and superstep the layers sum to the wall exactly.
std::string check_trace(const LayerReport& rep, const rt::RunStats& st) {
  for (std::size_t r = 0; r < rep.ranks.size(); ++r) {
    const RankBreakdown& b = rep.ranks[r];
    const std::string who = "rank " + std::to_string(r) + ": ";
    if (static_cast<int>(b.steps.size()) != st.supersteps) {
      return who + std::to_string(b.steps.size()) + " superstep marks, " +
             std::to_string(st.supersteps) + " supersteps";
    }
    if (b.exchange_entry.size() != st.comm_rounds) {
      return who + std::to_string(b.exchange_entry.size()) +
             " exchanges, " + std::to_string(st.comm_rounds) + " rounds";
    }
    double wall = 0.0;
    for (const StepBreakdown& s : b.steps) {
      const std::int64_t sum =
          std::accumulate(s.ns.begin(), s.ns.end(), std::int64_t{0});
      if (sum != s.end - s.start) {
        return who + "superstep " + std::to_string(s.step) +
               ": layers sum to " + std::to_string(sum) + " ns, wall is " +
               std::to_string(s.end - s.start) + " ns";
      }
      wall += static_cast<double>(s.end - s.start) / 1e9;
    }
    if (wall > st.seconds + 1e-3) {
      return who + "traced superstep wall exceeds the engine's loop time";
    }
  }
  return {};
}

// ---- the run ------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".bench_build/work";
  bool selftest = false;
};

std::string config_json(const JobConfig& c) {
  std::ostringstream os;
  os << "{\"program\": " << json_string(c.program)
     << ", \"transport\": " << json_string(c.transport)
     << ", \"ranks\": " << c.ranks
     << ", \"compute_threads\": " << c.compute_threads
     << ", \"comm_threads\": " << c.comm_threads
     << ", \"steal\": " << (c.steal ? "true" : "false")
     << ", \"parallel_delivery\": " << (c.parallel_delivery ? "true" : "false")
     << ", \"pipeline\": " << (c.pipeline ? "true" : "false")
     << ", \"transport_supports_pipeline\": "
     << (c.supports_pipeline ? "true" : "false")
     << ", \"direction\": " << json_string(c.direction)
     << ", \"partition\": " << json_string(c.partition)
     << ", \"checkpoint_every\": " << c.checkpoint_every
     << ", \"sim_link_bytes_per_s\": " << json_number(c.sim_link_bytes_per_s)
     << "}";
  return os.str();
}

/// Identity of a job's output: what must repeat exactly across the jobs
/// of one run.
struct Fingerprint {
  std::uint64_t msg_bytes = 0;
  int supersteps = 0;
  std::uint64_t result_hash = 0;
  std::map<std::string, std::uint64_t> channel_bytes;

  static Fingerprint of(const JobOutcome& j) {
    return {j.stats.message_bytes, j.stats.supersteps, j.result_hash,
            j.stats.bytes_by_channel};
  }
  [[nodiscard]] std::string diff(const Fingerprint& o) const {
    if (msg_bytes != o.msg_bytes) return "msg_bytes changed between jobs";
    if (supersteps != o.supersteps) return "supersteps changed between jobs";
    if (result_hash != o.result_hash) return "result changed between jobs";
    if (channel_bytes != o.channel_bytes) {
      return "per-channel bytes changed between jobs";
    }
    return {};
  }
};

class Run {
 public:
  Run(const Options& opt, Workload& wl) : opt_(opt), wl_(wl) {
    scratch_ = opt.workdir + "/" + wl.name() + "-" + std::to_string(::getpid());
    fs::remove_all(scratch_);
    fs::create_directories(scratch_);
    snapshot_ = scratch_ + "/input.v3.bin";
  }
  ~Run() {
    std::error_code ec;
    fs::remove_all(scratch_, ec);
  }
  Run(const Run&) = delete;
  Run& operator=(const Run&) = delete;

  int execute() {
    const auto t_prep = std::chrono::steady_clock::now();
    input_ = wl_.prepare(opt_.seed, 0, snapshot_);
    prepare_s_ = seconds_since(t_prep);
    snapshot_bytes_ = fs::file_size(snapshot_);

    // Warm-up iteration: checked, fingerprinted, not timed. It also
    // leaves the snapshot in the page cache, so every timed iteration
    // starts from the same state.
    {
      Setup s = set_up(wl_, snapshot_);
      num_edges_ = s.dg->num_edges();
      JobOutcome job = attempt(s, nullptr);
      if (ok_) reference_ = Fingerprint::of(job);
    }
    const auto t_loop = std::chrono::steady_clock::now();
    for (int i = 0;
         ok_ && (i < kMinTimedJobs * (opt_.trace ? 2 : 1) ||
                 seconds_since(t_loop) < opt_.seconds);
         ++i) {
      const bool traced = opt_.trace && i % 2 == 1;
      // Every job starts from a trimmed heap, as a newly started team
      // would, so its resident peak does not depend on earlier jobs.
      ::malloc_trim(0);
      rss_reset_ = reset_peak_rss();
      Setup s = set_up(wl_, snapshot_);
      std::unique_ptr<Tracer> tracer;
      if (traced) tracer = std::make_unique<Tracer>(wl_.ranks());
      JobOutcome job = attempt(s, tracer.get());
      if (!ok_) break;
      if (traced) {
        traced_cpu_s_.push_back(job.cpu_s);
        collect_layers(*tracer, job, s);
      } else {
        job_cpu_s_.push_back(job.cpu_s);
        wall_s_.push_back(job.wall_s);
        setup_s_.push_back(s.cpu_s);
        setup_wall_s_.push_back(s.total_s);
        peak_rss_mb_.push_back(peak_rss_mb());
        job_counters_.push_back(counters_);
      }
    }
    emit();
    return 0;
  }

 private:
  /// One checked job. A job that throws, fails the reference check or
  /// changes the fingerprint counts as failed and ends the run.
  JobOutcome attempt(Setup& s, Tracer* tracer) {
    ++attempted_;
    JobOutcome job;
    try {
      const std::string job_scratch = scratch_ + "/job";
      fs::remove_all(job_scratch);
      fs::create_directories(job_scratch);
      const HostCounters before = HostCounters::now();
      job = wl_.run(s, tracer, job_scratch);
      counters_ = HostCounters::now() - before;
      if (!job.verified) {
        fail("job " + std::to_string(attempted_) + ": " + job.error);
      } else if (reference_) {
        const std::string d = reference_->diff(Fingerprint::of(job));
        if (!d.empty()) fail("job " + std::to_string(attempted_) + ": " + d);
      }
      config_ = job.config;
      if (job.config.sim_link_bytes_per_s != 0.0) {
        fail("the simulated link is on");
      }
    } catch (const std::exception& e) {
      fail("job " + std::to_string(attempted_) + " threw: " + e.what());
    }
    return job;
  }

  void fail(const std::string& why) {
    ++failed_;
    ok_ = false;
    errors_.push_back(why);
    std::cerr << "perfbench: " << wl_.name() << ": " << why << "\n";
  }

  void collect_layers(const Tracer& tracer, const JobOutcome& job,
                      const Setup& s) {
    LayerReport rep;
    try {
      rep = layer_metrics(tracer, job, num_edges_);
    } catch (const std::exception& e) {
      fail(std::string("trace: ") + e.what());
      return;
    }
    const std::string bad = check_trace(rep, job.stats);
    if (!bad.empty()) {
      fail("trace: " + bad);
      return;
    }
    rep.metrics["graph.load_s"] = s.load_s;
    rep.metrics["graph.load_mb_per_s"] =
        s.load_s > 0 ? snapshot_bytes_ / kMiB / s.load_s : 0;
    rep.metrics["graph.partition_s"] = s.partition_s;
    rep.metrics["runtime.connect_s"] = s.connect_s;
    for (const auto& [name, value] : rep.metrics) layers_[name].push_back(value);
    last_traced_ = std::move(rep);
  }

  void emit() {
    std::map<std::string, double> metrics;
    if (!opt_.trace) {
      metrics["job_cpu_s"] = median(job_cpu_s_);
      metrics["setup_s"] = median(setup_s_);
      metrics["msg_bytes"] = reference_ ? reference_->msg_bytes : 0;
      metrics["supersteps"] = reference_ ? reference_->supersteps : 0;
      metrics["peak_rss_mb"] = median(peak_rss_mb_);
      metrics["verified_frac"] =
          static_cast<double>(attempted_ - failed_) / attempted_;
    } else if (ok_) {
      for (const auto& [name, values] : layers_) metrics[name] = median(values);
      metrics["job.wall_s"] = median(wall_s_);
      metrics["trace.overhead_frac"] =
          median(traced_cpu_s_) / median(job_cpu_s_) - 1.0;
      trace_file_ = write_trace();
      print_breakdown();
    }

    std::ostringstream os;
    os << "{\"workload\": " << json_string(wl_.name())
       << ", \"seed\": " << opt_.seed
       << ", \"trace\": " << (opt_.trace ? 1 : 0)
       << ", \"input\": " << json_string(input_)
       << ", \"snapshot_bytes\": " << snapshot_bytes_
       << ", \"prepare_s\": " << json_number(prepare_s_)
       << ", \"correct\": " << (ok_ ? "true" : "false")
       << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
       << ", \"errors\": [";
    for (std::size_t i = 0; i < errors_.size(); ++i) {
      os << (i ? ", " : "") << json_string(errors_[i]);
    }
    os << "], \"config\": " << config_json(config_)
       << ", \"peak_rss_reset\": " << (rss_reset_ ? "true" : "false")
       << ", \"samples\": {";
    const std::pair<const char*, const std::vector<double>*> series[] = {
        {"job_cpu_s", &job_cpu_s_},       {"wall_s", &wall_s_},
        {"setup_s", &setup_s_},           {"setup_wall_s", &setup_wall_s_},
        {"peak_rss_mb", &peak_rss_mb_},   {"traced_cpu_s", &traced_cpu_s_}};
    for (const auto& [key, values] : series) {
      os << json_string(key) << ": [";
      for (std::size_t i = 0; i < values->size(); ++i) {
        os << (i ? ", " : "") << json_number((*values)[i]);
      }
      os << "], ";
    }
    os << "\"job_host\": [";
    for (std::size_t i = 0; i < job_counters_.size(); ++i) {
      const HostCounters& c = job_counters_[i];
      os << (i ? ", " : "") << "{\"user_s\": " << json_number(c.user_s)
         << ", \"switches\": " << json_number(c.switches)
         << ", \"steal_s\": " << json_number(c.steal_s)
         << ", \"iowait_s\": " << json_number(c.iowait_s) << "}";
    }
    os << "]}, \"trace_file\": " << json_string(trace_file_)
       << ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, value] : metrics) {
      os << (first ? "" : ", ") << json_string(name) << ": "
         << json_number(value);
      first = false;
    }
    os << "}}";
    std::cout << os.str() << std::endl;
  }

  std::string write_trace() const {
    if (last_traced_.ranks.empty()) return {};
    const std::string dir = opt_.workdir + "/../traces";
    fs::create_directories(dir);
    const std::string path = fs::weakly_canonical(
        dir + "/" + wl_.name() + "-seed" + std::to_string(opt_.seed) +
        ".trace.json").string();
    write_chrome_trace(path, wl_.name() + " seed " + std::to_string(opt_.seed),
                       last_traced_.ranks);
    return path;
  }

  void print_breakdown() const {
    std::printf("last traced job, mean over ranks (s):");
    for (int l = 0; l < kNumLayers; ++l) {
      std::printf(" %s%s %.4g", l == 0 ? "" : "+ ",
                  kLayerNames[static_cast<std::size_t>(l)],
                  last_traced_.mean_layer[static_cast<std::size_t>(l)]);
    }
    std::printf(" = superstep wall %.4g\n", last_traced_.mean_wall);
  }

  const Options& opt_;
  Workload& wl_;
  std::string scratch_;
  std::string snapshot_;
  std::string input_;
  double prepare_s_ = 0.0;
  std::uint64_t snapshot_bytes_ = 0;
  std::uint64_t num_edges_ = 0;
  std::optional<Fingerprint> reference_;
  JobConfig config_;
  bool ok_ = true;
  bool rss_reset_ = false;
  int attempted_ = 0;
  int failed_ = 0;
  std::vector<std::string> errors_;
  std::vector<double> job_cpu_s_;    ///< per timed job
  std::vector<double> wall_s_;       ///< per timed job
  std::vector<double> setup_s_;      ///< per timed set-up, CPU seconds
  std::vector<double> setup_wall_s_;  ///< per timed set-up
  std::vector<double> traced_cpu_s_;
  std::vector<double> peak_rss_mb_;  ///< per timed job
  HostCounters counters_;             ///< of the last attempted job
  std::vector<HostCounters> job_counters_;  ///< per timed job
  std::map<std::string, std::vector<double>> layers_;
  LayerReport last_traced_;
  std::string trace_file_;
};

// ---- self-test -----------------------------------------------------------------

/// Inner transport for the forwarding check: records which virtual was
/// reached and serves one buffer per call.
class ProbeTransport final : public rt::Transport {
 public:
  std::vector<std::string> hits;

  [[nodiscard]] int world_size() const noexcept override {
    const_cast<ProbeTransport*>(this)->hits.emplace_back("world_size");
    return 1;
  }
  rt::Buffer& outbox(int, int) override { return hit("outbox"); }
  rt::Buffer& inbox(int, int) override { return hit("inbox"); }
  void exchange(int) override { hit("exchange"); }
  void barrier(int) override { hit("barrier"); }
  std::uint64_t allreduce_or(int, std::uint64_t v) override {
    hit("allreduce_or");
    return v;
  }
  std::uint64_t allreduce_sum(int, std::uint64_t v) override {
    hit("allreduce_sum");
    return v;
  }
  void set_heartbeat_window(int, bool) override { hit("set_heartbeat_window"); }
  std::vector<rt::Buffer> gather_to_root(int, const rt::Buffer&) override {
    hit("gather_to_root");
    return {};
  }
  void broadcast_from_root(int, rt::Buffer*) override {
    hit("broadcast_from_root");
  }
  [[nodiscard]] bool supports_pipeline() const noexcept override {
    const_cast<ProbeTransport*>(this)->hits.emplace_back("supports_pipeline");
    return true;
  }
  void pipeline_begin(int) override { hit("pipeline_begin"); }
  void pipeline_send(int, int, const rt::ChunkHeader&, const void*) override {
    hit("pipeline_send");
  }
  void pipeline_flush_sends(int) override { hit("pipeline_flush_sends"); }
  bool pipeline_recv(int, int, rt::DecodedChunk*) override {
    hit("pipeline_recv");
    return true;
  }
  void pipeline_end(int) override { hit("pipeline_end"); }

 private:
  rt::Buffer& hit(const char* name) {
    hits.emplace_back(name);
    return buffer_;
  }
  rt::Buffer buffer_;
};

std::string check_forwarding() {
  ProbeTransport probe;
  Tracer tracer(1);
  TracingTransport t(probe, tracer);
  const std::vector<std::string> expected = {
      "world_size",        "outbox",         "inbox",
      "allreduce_or",      "allreduce_sum",  "barrier",
      "set_heartbeat_window", "gather_to_root", "broadcast_from_root",
      "supports_pipeline", "pipeline_begin", "pipeline_send",
      "pipeline_flush_sends", "pipeline_recv", "pipeline_end"};
  if (t.world_size() != 1) return "world_size not forwarded";
  (void)t.outbox(0, 0);
  (void)t.inbox(0, 0);
  if (t.allreduce_or(0, 5) != 5) return "allreduce_or result not forwarded";
  if (t.allreduce_sum(0, 7) != 7) return "allreduce_sum result not forwarded";
  t.barrier(0);
  t.set_heartbeat_window(0, true);
  (void)t.gather_to_root(0, rt::Buffer{});
  rt::Buffer b;
  t.broadcast_from_root(0, &b);
  if (!t.supports_pipeline()) return "supports_pipeline not forwarded";
  t.pipeline_begin(0);
  t.pipeline_send(0, 0, rt::ChunkHeader{}, nullptr);
  t.pipeline_flush_sends(0);
  rt::DecodedChunk chunk;
  if (!t.pipeline_recv(0, 0, &chunk)) return "pipeline_recv not forwarded";
  t.pipeline_end(0);
  for (const std::string& name : expected) {
    if (std::find(probe.hits.begin(), probe.hits.end(), name) ==
        probe.hits.end()) {
      return name + " was not forwarded";
    }
  }
  // exchange() forwards after reading the outbox sizes.
  probe.hits.clear();
  t.exchange(0);
  if (std::find(probe.hits.begin(), probe.hits.end(), "exchange") ==
      probe.hits.end()) {
    return "exchange was not forwarded";
  }
  return {};
}

/// Tiny-scale check of every workload: the untraced and traced jobs both
/// verify against src/ref, their results and counts are bitwise-equal,
/// and the traced breakdown partitions every rank's superstep wall.
int selftest(const Options& opt) {
  constexpr int kShift = -5;
  int failures = 0;
  const auto report = [&](const std::string& what, const std::string& err) {
    std::printf("%s %s%s%s\n", err.empty() ? "PASS" : "FAIL", what.c_str(),
                err.empty() ? "" : ": ", err.c_str());
    if (!err.empty()) ++failures;
  };
  report("decorator forwards every Transport virtual", check_forwarding());
  for (const std::string& name : workload_names()) {
    std::string err;
    try {
      const auto wl = make_workload(name);
      const std::string dir =
          opt.workdir + "/selftest-" + std::to_string(::getpid());
      fs::create_directories(dir + "/job");
      const std::string snapshot = dir + "/input.v3.bin";
      wl->prepare(7, kShift, snapshot);
      Setup plain_setup = set_up(*wl, snapshot);
      const JobOutcome plain = wl->run(plain_setup, nullptr, dir + "/job");
      Setup traced_setup = set_up(*wl, snapshot);
      Tracer tracer(wl->ranks());
      const JobOutcome traced = wl->run(traced_setup, &tracer, dir + "/job");
      if (!plain.verified) {
        err = "untraced job: " + plain.error;
      } else if (!traced.verified) {
        err = "traced job: " + traced.error;
      } else if (const std::string d = Fingerprint::of(plain).diff(
                     Fingerprint::of(traced));
                 !d.empty()) {
        err = "traced vs untraced: " + d;
      } else {
        const LayerReport rep =
            layer_metrics(tracer, traced, traced_setup.dg->num_edges());
        err = check_trace(rep, traced.stats);
      }
      fs::remove_all(dir);
    } catch (const std::exception& e) {
      err = std::string("threw: ") + e.what();
    }
    report(name + " verifies; traced == untraced; layers sum to the wall",
           err);
  }
  std::printf("%s\n", failures == 0 ? "selftest passed" : "selftest FAILED");
  return failures == 0 ? 0 : 1;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = std::stoull(value());
    } else if (a == "--seconds") {
      o.seconds = std::stod(value());
    } else if (a == "--trace") {
      o.trace = std::stoi(value()) != 0;
    } else if (a == "--workdir") {
      o.workdir = value();
    } else if (a == "--selftest") {
      o.selftest = true;
    } else {
      throw std::invalid_argument("unknown argument " + a);
    }
  }
  if (!o.selftest && o.workload.empty()) {
    throw std::invalid_argument("--workload is required");
  }
  return o;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    scrub_engine_environment();
    const Options opt = parse(argc, argv);
    if (opt.selftest) return selftest(opt);
    const auto wl = make_workload(opt.workload);
    Run run(opt, *wl);
    return run.execute();
  } catch (const std::exception& e) {
    std::cerr << "pgch_perfbench: " << e.what() << "\n";
    return 2;
  }
}
