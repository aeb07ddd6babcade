#pragma once
// RunConfig: every PGCH_* knob of the engine, read from the environment
// in one place and validated (DESIGN.md section 13).
//
// PGCH_RUN_CONFIG_KNOBS below declares each variable once; the struct's
// fields, from_vars() and to_vars() are expanded from it. An unknown
// PGCH_* name, an unparsable value and an out-of-range value all throw
// std::invalid_argument naming the variable. launch(),
// launch_distributed() and detail::run_rank() parse the config once per
// call and hand it down through detail::Env; nothing else reads the
// environment.

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>

#include "runtime/chunk.hpp"

namespace pregel::runtime {

/// Which transport backs a run. kInProcess: one process, workers are
/// threads, buffer exchange is a matrix swap. kTcp: one process per rank,
/// buffers cross real sockets.
enum class TransportKind { kInProcess, kTcp };

/// How the engine picks each superstep's push/pull direction: forced
/// push, forced pull, or the frontier-density heuristic of
/// core/direction.hpp.
enum class DirectionMode : std::uint8_t { kPush = 0, kPull = 1, kAdaptive = 2 };

/// Which partitioner env-driven entry points build (graph/partition.hpp).
enum class PartitionKind { kRange, kDegree, kHash };

/// How graph::load_any picks the snapshot loader: kAuto maps v3 snapshots
/// and heap-loads everything else; kOn/kOff force the choice (a forced kOn
/// still heap-loads v2 snapshots and text files).
enum class MmapMode { kAuto, kOff, kOn };

/// Deterministic fault injection (PGCH_FAULT, DESIGN.md section 12):
/// "rank=<r>,superstep=<s>,kind=exit|hang|corrupt" makes EngineBase fire
/// at the START of superstep <s> on rank <r> only, after the previous
/// superstep's checkpoint. exit: _Exit(kExitCode) without unwinding (peers
/// see the socket close). hang: stop making progress without dying (peers'
/// PGCH_IO_TIMEOUT_MS deadline finds it). corrupt: flip a byte of this
/// rank's newest checkpoint, then _Exit (recovery must fall back to the
/// previous committed epoch).
struct FaultSpec {
  enum class Kind { kNone, kExit, kHang, kCorrupt };

  /// Exit status of an injected exit/corrupt fault — recognizably ours,
  /// so pgch_launch tests can assert the propagated code.
  static constexpr int kExitCode = 43;

  int rank = -1;
  int superstep = -1;
  Kind kind = Kind::kNone;

  [[nodiscard]] bool enabled() const noexcept { return kind != Kind::kNone; }
  [[nodiscard]] bool matches(int r, int step) const noexcept {
    return enabled() && r == rank && step == superstep;
  }

  /// Parse "rank=<r>,superstep=<s>,kind=<k>" (keys in any order). Throws
  /// std::invalid_argument on anything malformed — a spec that silently
  /// parsed to "no fault" would make a failure test vacuously pass.
  static FaultSpec parse(const std::string& text);
};

// X(name, field, type, default, range, doc). `range` is in(lo, hi) for a
// number that must lie in [lo, hi], clamped(lo, hi) for one that is
// clamped into it, and {} for everything else (run_config.cpp).
#define PGCH_RUN_CONFIG_KNOBS(X)                                              \
  /* compute and communication (DESIGN.md sections 3 and 8-11) */             \
  X("PGCH_COMPUTE_THREADS", compute_threads, int, 1, in(1, 1024),             \
    "compute threads per rank (1 = sequential)")                              \
  X("PGCH_COMM_THREADS", comm_threads, int, 0, in(1, 1024),                   \
    "comm-phase threads; unset (0) resolves to compute threads")              \
  X("PGCH_PARALLEL_DELIVERY", parallel_delivery, bool, false, {},             \
    "range-partitioned parallel delivery")                                    \
  X("PGCH_STEAL", steal, bool, false, {},                                     \
    "work stealing between compute slots")                                    \
  X("PGCH_DIRECTION", direction, DirectionMode, DirectionMode::kPush, {},     \
    "push, pull or adaptive")                                                 \
  X("PGCH_PIPELINE", pipeline, bool, false, {},                               \
    "chunk-streaming communication rounds on TCP")                            \
  X("PGCH_CHUNK_BYTES", chunk_bytes, int, kDefaultChunkBytes,                 \
    clamped(64, kMaxChunkPayload), "chunk size of pipelined rounds")          \
  X("PGCH_MIRROR_DEGREE", mirror_degree, int, 0, in(0, kMaxInt),              \
    "MirrorScatter threshold (0 = mirror all)")                               \
  X("PGCH_SIM_NET_MBPS", sim_net_mbps, double, 0.0, in(0, 1e9),               \
    "simulated link MB/s (0 = off)")                                          \
  X("PGCH_MAX_SUPERSTEPS", max_supersteps, int, 0, in(0, kMaxInt),          \
    "fail a run still active after this superstep (0 = no bound)")           \
  /* graph loading */                                                         \
  X("PGCH_PARTITION", partition, std::optional<PartitionKind>, std::nullopt,  \
    {}, "range, degree or hash")                                              \
  X("PGCH_MMAP", mmap, MmapMode, MmapMode::kAuto, {},                         \
    "force (on) or refuse (off) mmap loads")                                  \
  /* fault tolerance (DESIGN.md section 12) */                                \
  X("PGCH_CHECKPOINT_EVERY", checkpoint_every, int, 0, in(0, kMaxInt),        \
    "checkpoint every K supersteps (0 = off)")                                \
  X("PGCH_CHECKPOINT_DIR", checkpoint_dir, std::string, "pgch_checkpoints",   \
    {}, "checkpoint directory")                                               \
  X("PGCH_RESUME", resume, std::optional<int>, std::nullopt, in(0, kMaxInt),  \
    "auto (held as -1) or an epoch")                                          \
  X("PGCH_FAULT", fault, FaultSpec, {}, {},                                   \
    "rank=<r>,superstep=<s>,kind=<k>")                                        \
  X("PGCH_IO_TIMEOUT_MS", io_timeout_ms, int, 0, in(0, kMaxInt),              \
    "TCP silence deadline (0 = none)")                                        \
  X("PGCH_HEARTBEAT_MS", heartbeat_ms, int, 0, in(0, kMaxInt),                \
    "TCP heartbeat period (0 = off)")                                         \
  X("PGCH_CONNECT_RETRIES", connect_retries, int, 0, in(0, kMaxInt),          \
    "connects per peer (0 = to deadline)")                                    \
  /* launch (core/launch_config.hpp, docs/transport.md) */                    \
  X("PGCH_TRANSPORT", transport, TransportKind, TransportKind::kInProcess,    \
    {}, "inprocess or tcp")                                                   \
  X("PGCH_RANK", rank, int, 0, in(0, kMaxInt), "this process's rank")         \
  X("PGCH_WORLD", world, int, 0, in(0, kMaxInt),                              \
    "team size (0 = the partition's)")                                        \
  X("PGCH_PORT_BASE", port_base, int, 29500, in(1, 65535),                    \
    "rank r listens on base + r")                                             \
  X("PGCH_HOSTS", hosts, std::string, "", {}, "per-rank host[:port] list")    \
  X("PGCH_CONNECT_TIMEOUT_MS", connect_timeout_ms, int, 30000,                \
    in(1, kMaxInt), "mesh connect deadline")                                  \
  X("PGCH_RECOVERY_ATTEMPTS", recovery_attempts, int, 0, in(0, kMaxInt),      \
    "rejoins after a peer failure")

/// Harness-owned families (bench harness, tests): from_vars() accepts them
/// and the engine never reads them.
inline constexpr const char* kHarnessPrefixes[] = {"PGCH_BENCH_",
                                                   "PGCH_DATASET_",
                                                   "PGCH_TEST_"};

struct RunConfig {
  static constexpr int kMaxInt = std::numeric_limits<int>::max();

#define PGCH_RUN_CONFIG_FIELD(name, field, type, def, range, doc) \
  type field = def;
  PGCH_RUN_CONFIG_KNOBS(PGCH_RUN_CONFIG_FIELD)
#undef PGCH_RUN_CONFIG_FIELD

  /// Parse and validate every PGCH_* variable of the process environment.
  static RunConfig from_env();

  /// The same parse over an explicit name -> value map (names outside the
  /// PGCH_ namespace are ignored).
  static RunConfig from_vars(const std::map<std::string, std::string>& vars);

  /// Every knob's value in the text form from_vars() parses ("" for an
  /// unset one: PGCH_PARTITION, PGCH_RESUME, PGCH_FAULT, PGCH_MMAP=auto).
  [[nodiscard]] std::map<std::string, std::string> to_vars() const;

  /// Every knob that differs from its default as one shell-ready line of
  /// NAME=value assignments; from_env() over it rebuilds this config.
  [[nodiscard]] std::string to_env_line() const;

  /// PGCH_SIM_NET_MBPS in bytes/second (0 = no simulated link).
  [[nodiscard]] double sim_net_bytes_per_sec() const noexcept {
    return sim_net_mbps * 1024.0 * 1024.0;
  }
};

}  // namespace pregel::runtime
