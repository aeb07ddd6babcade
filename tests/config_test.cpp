// RunConfig: the one parser of every PGCH_* knob (runtime/run_config.hpp).
// Unknown names and malformed values must fail loudly with the variable
// named — in the parser, in the env-form launch() and in pgch_launch —
// every boolean takes one grammar, documented clamps survive, and a
// config printed with to_env_line() parses back to itself.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "algorithms/pagerank.hpp"
#include "core/launch_config.hpp"
#include "core/worker.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"
#include "runtime/run_config.hpp"

extern char** environ;

namespace {

using namespace pregel;
using runtime::RunConfig;
using Vars = std::map<std::string, std::string>;

/// The message from_vars() throws for `vars`, or "" when it parses.
std::string error_of(const Vars& vars) {
  try {
    (void)RunConfig::from_vars(vars);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return {};
}

/// Swaps the process's PGCH_* environment for `vars` and restores the
/// original on scope exit (the CI legs run this binary with knobs set).
class ScopedPgchEnv {
 public:
  explicit ScopedPgchEnv(const Vars& vars) {
    for (char** e = environ; *e != nullptr; ++e) {
      const std::string entry(*e);
      if (entry.rfind("PGCH_", 0) != 0) continue;
      const std::size_t eq = entry.find('=');
      saved_.emplace_back(entry.substr(0, eq), entry.substr(eq + 1));
    }
    for (const auto& [name, value] : saved_) ::unsetenv(name.c_str());
    for (const auto& [name, value] : vars) {
      ::setenv(name.c_str(), value.c_str(), 1);
      set_.push_back(name);
    }
  }
  ~ScopedPgchEnv() {
    for (const std::string& name : set_) ::unsetenv(name.c_str());
    for (const auto& [name, value] : saved_) {
      ::setenv(name.c_str(), value.c_str(), 1);
    }
  }
  ScopedPgchEnv(const ScopedPgchEnv&) = delete;
  ScopedPgchEnv& operator=(const ScopedPgchEnv&) = delete;

 private:
  std::vector<std::pair<std::string, std::string>> saved_;
  std::vector<std::string> set_;
};

graph::DistributedGraph small_graph() {
  const graph::CsrGraph g =
      graph::rmat({.num_vertices = 1u << 9, .num_edges = 1u << 12, .seed = 7})
          .finalize();
  return graph::DistributedGraph(g, graph::hash_partition(g.num_vertices(), 2));
}

TEST(RunConfig, RejectsUnknownNamesButAcceptsHarnessFamilies) {
  const std::string err = error_of({{"PGCH_DIRECTON", "pull"}});
  EXPECT_NE(err.find("PGCH_DIRECTON"), std::string::npos) << err;
  EXPECT_NE(error_of({{"PGCH_MMAP_VERIFY", "0"}}), "");  // retired knob
  EXPECT_EQ(error_of({{"PGCH_BENCH_WORKERS", "4"},
                      {"PGCH_DATASET_WIKIPEDIA", "/data/wiki.bin"},
                      {"PGCH_TEST_OUT", "x"},
                      {"PATH", "/usr/bin"}}),
            "");
}

TEST(RunConfig, RejectsMalformedValuesNamingTheVariable) {
  for (const auto& [name, value] :
       std::vector<std::pair<std::string, std::string>>{
           {"PGCH_CHECKPOINT_EVERY", "abc"},
           {"PGCH_COMPUTE_THREADS", "3x"},
           {"PGCH_COMPUTE_THREADS", "0"},
           {"PGCH_PORT_BASE", "70000"},
           {"PGCH_IO_TIMEOUT_MS", "-1"},
           {"PGCH_STEAL", "yes"},
           {"PGCH_PARALLEL_DELIVERY", "2"},
           {"PGCH_PIPELINE", "TRUE"},
           {"PGCH_MMAP", "yes"},
           {"PGCH_TRANSPORT", "udp"},
           {"PGCH_RESUME", "latest"},
           {"PGCH_FAULT", "rank=x,superstep=2,kind=exit"},
           {"PGCH_CHUNK_BYTES", "1k"},
       }) {
    const std::string err = error_of({{name, value}});
    EXPECT_EQ(err.rfind(name + ": ", 0), 0u)
        << name << "=" << value << " -> '" << err << "'";
  }
}

TEST(RunConfig, EveryBooleanTakesOneGrammar) {
  for (const auto& [name, field] :
       std::vector<std::pair<std::string, bool RunConfig::*>>{
           {"PGCH_STEAL", &RunConfig::steal},
           {"PGCH_PARALLEL_DELIVERY", &RunConfig::parallel_delivery},
           {"PGCH_PIPELINE", &RunConfig::pipeline}}) {
    for (const char* on : {"1", "true", "on"}) {
      EXPECT_TRUE(RunConfig::from_vars({{name, on}}).*field)
          << name << "=" << on;
    }
    for (const char* off : {"0", "false", "off"}) {
      EXPECT_FALSE(RunConfig::from_vars({{name, off}}).*field)
          << name << "=" << off;
    }
  }
  EXPECT_EQ(RunConfig::from_vars({{"PGCH_MMAP", "on"}}).mmap,
            runtime::MmapMode::kOn);
  EXPECT_EQ(RunConfig::from_vars({{"PGCH_MMAP", "false"}}).mmap,
            runtime::MmapMode::kOff);
}

TEST(RunConfig, EmptyValueMeansUnset) {
  const auto c = RunConfig::from_vars({{"PGCH_DIRECTION", ""},
                                       {"PGCH_CHECKPOINT_DIR", ""},
                                       {"PGCH_RESUME", ""}});
  EXPECT_EQ(c.direction, runtime::DirectionMode::kPush);
  EXPECT_EQ(c.checkpoint_dir, "pgch_checkpoints");
  EXPECT_FALSE(c.resume.has_value());
}

TEST(RunConfig, ChunkBytesStillClamps) {
  const auto chunk = [](const char* v) {
    return RunConfig::from_vars({{"PGCH_CHUNK_BYTES", v}}).chunk_bytes;
  };
  EXPECT_EQ(RunConfig::from_vars({}).chunk_bytes, 256 << 10);
  EXPECT_EQ(chunk("4096"), 4096);
  EXPECT_EQ(chunk("1"), 64);
  EXPECT_EQ(chunk("-5"), 64);
  EXPECT_EQ(chunk("100000000"), 8 << 20);
  EXPECT_EQ(chunk("99999999999999999999999"), 8 << 20);
}

TEST(RunConfig, MaxSuperstepsDefaultsToUnbounded) {
  EXPECT_EQ(RunConfig::from_vars({}).max_supersteps, 0);
  EXPECT_EQ(
      RunConfig::from_vars({{"PGCH_MAX_SUPERSTEPS", "500"}}).max_supersteps,
      500);
  EXPECT_THROW(RunConfig::from_vars({{"PGCH_MAX_SUPERSTEPS", "-1"}}),
               std::invalid_argument);
}

TEST(RunConfig, CommThreadsFollowComputeThreadsUnlessSet) {
  const auto c = RunConfig::from_vars({{"PGCH_COMPUTE_THREADS", "3"}});
  EXPECT_EQ(c.comm_threads, std::thread::hardware_concurrency() == 1 ? 1 : 3);
  EXPECT_EQ(RunConfig::from_vars({{"PGCH_COMPUTE_THREADS", "3"},
                                  {"PGCH_COMM_THREADS", "1"}})
                .comm_threads,
            1);
}

TEST(RunConfig, ParsesCheckpointKnobsAndProjectsLaunchConfig) {
  const auto c = RunConfig::from_vars({{"PGCH_CHECKPOINT_EVERY", "2"},
                                       {"PGCH_CHECKPOINT_DIR", "ck"},
                                       {"PGCH_RESUME", "auto"},
                                       {"PGCH_TRANSPORT", "tcp"},
                                       {"PGCH_RANK", "1"},
                                       {"PGCH_WORLD", "3"},
                                       {"PGCH_HOSTS", "a,,b:7"},
                                       {"PGCH_CONNECT_TIMEOUT_MS", "1500"}});
  EXPECT_EQ(c.checkpoint_every, 2);
  EXPECT_EQ(c.checkpoint_dir, "ck");
  EXPECT_EQ(c.resume, -1);  // "auto"
  EXPECT_EQ(RunConfig::from_vars({{"PGCH_RESUME", "5"}}).resume, 5);
  const core::LaunchConfig lc = core::LaunchConfig::from(c);
  EXPECT_EQ(lc.transport, runtime::TransportKind::kTcp);
  EXPECT_EQ(lc.rank, 1);
  EXPECT_EQ(lc.world_size, 3);
  EXPECT_EQ(lc.hosts, (std::vector<std::string>{"a", "", "b:7"}));
  EXPECT_EQ(c.connect_timeout_ms, 1500);
}

TEST(RunConfig, EnvLineRoundTripsThroughFromEnv) {
  const RunConfig original = RunConfig::from_vars({
      {"PGCH_COMPUTE_THREADS", "4"},
      {"PGCH_COMM_THREADS", "2"},
      {"PGCH_STEAL", "on"},
      {"PGCH_DIRECTION", "adaptive"},
      {"PGCH_PIPELINE", "true"},
      {"PGCH_CHUNK_BYTES", "1024"},
      {"PGCH_SIM_NET_MBPS", "0.5"},
      {"PGCH_PARTITION", "degree"},
      {"PGCH_MMAP", "0"},
      {"PGCH_CHECKPOINT_EVERY", "3"},
      {"PGCH_CHECKPOINT_DIR", "/tmp/ck dir"},
      {"PGCH_RESUME", "auto"},
      {"PGCH_FAULT", "kind=hang,superstep=4,rank=1"},
      {"PGCH_TRANSPORT", "tcp"},
      {"PGCH_HOSTS", "h0,h1:29600"},
  });
  const std::string line = original.to_env_line();
  EXPECT_EQ(RunConfig::from_vars({}).to_env_line(),
            "PGCH_COMM_THREADS=" +
                std::to_string(RunConfig::from_vars({}).comm_threads));

  // Split the line the way a POSIX shell would (words, '...' quoting).
  Vars vars;
  std::string word;
  bool quoted = false;
  for (std::size_t i = 0; i <= line.size(); ++i) {
    const char c = i < line.size() ? line[i] : ' ';
    if (c == '\'') {
      quoted = !quoted;
    } else if (c == ' ' && !quoted) {
      if (!word.empty()) {
        const std::size_t eq = word.find('=');
        vars[word.substr(0, eq)] = word.substr(eq + 1);
      }
      word.clear();
    } else {
      word += c;
    }
  }
  const ScopedPgchEnv env(vars);
  EXPECT_EQ(RunConfig::from_env().to_vars(), original.to_vars()) << line;
}

TEST(RunConfig, StealTrueEnablesStealing) {
  // The boolean grammar reaches the engine: PGCH_STEAL=true used to parse
  // through atoi() and silently leave stealing off.
  const ScopedPgchEnv env(
      Vars{{"PGCH_STEAL", "true"}, {"PGCH_COMPUTE_THREADS", "2"}});
  const graph::DistributedGraph dg = small_graph();
  bool steal = false;
  int threads = 0;
  core::launch<algo::PageRankCombined>(
      dg, [](algo::PageRankCombined& w) { w.iterations = 2; },
      [&](algo::PageRankCombined& w, int rank) {
        if (rank != 0) return;
        steal = w.steal();
        threads = w.compute_threads();
      });
  EXPECT_TRUE(steal);
  EXPECT_EQ(threads, 2);
}

TEST(RunConfig, UnknownNameFailsTheEnvFormLaunch) {
  const ScopedPgchEnv env(Vars{{"PGCH_DIRECTON", "pull"}});
  const graph::DistributedGraph dg = small_graph();
  try {
    core::launch<algo::PageRankCombined>(dg);
    ADD_FAILURE() << "launch() accepted PGCH_DIRECTON";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::strstr(e.what(), "PGCH_DIRECTON"), nullptr) << e.what();
  }
}

#ifdef PGCH_LAUNCH_BIN
TEST(RunConfig, UnknownNameFailsPgchLaunch) {
  const std::string log =
      "config_test_launch_" + std::to_string(::getpid()) + ".log";
  const std::string cmd = std::string("env PGCH_DIRECTON=pull ") +
                          PGCH_LAUNCH_BIN +
                          " -n 2 --print-only -- true 2> " + log;
  const int rc = std::system(cmd.c_str());
  std::ifstream in(log);
  const std::string err((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  std::remove(log.c_str());
  ASSERT_TRUE(WIFEXITED(rc));
  EXPECT_EQ(WEXITSTATUS(rc), 2);
  EXPECT_NE(err.find("PGCH_DIRECTON"), std::string::npos) << err;
}
#endif

}  // namespace
