#pragma once
// LaunchConfig: how launch() maps the worker team onto hardware
// (DESIGN.md section 7).
//
// Default (kInProcess): one process, one thread per rank, buffer exchange
// is the matrix swap — the original simulator substrate. kTcp: THIS
// process is exactly one rank of a multi-process team; peers are separate
// processes (same host or not) reached over persistent sockets.
//
// The environment form — PGCH_TRANSPORT, PGCH_RANK, PGCH_WORLD,
// PGCH_PORT_BASE and PGCH_HOSTS (docs/transport.md) — is what
// tools/pgch_launch sets for each process it spawns, so any existing
// example or bench becomes distributed without a code change.
// runtime::RunConfig parses them with every other PGCH_* knob;
// LaunchConfig is the team-layout projection of that parse (the connect
// deadline and the recovery attempts stay in the RunConfig).

#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "runtime/run_config.hpp"
#include "runtime/tcp_transport.hpp"

namespace pregel::core {

/// PGCH_FAULT's deterministic fault injection (runtime/run_config.hpp).
using FaultSpec = runtime::FaultSpec;

struct LaunchConfig {
  runtime::TransportKind transport = runtime::TransportKind::kInProcess;
  int rank = 0;        ///< this process's rank (kTcp only)
  int world_size = 0;  ///< 0 = take the partition's worker count
  int port_base = 29500;
  /// Per-rank "host[:port]" endpoints; empty or short = loopback defaults.
  std::vector<std::string> hosts;

  /// The launch fields of a parsed RunConfig.
  static LaunchConfig from(const runtime::RunConfig& run) {
    std::vector<std::string> hosts;
    std::istringstream list(run.hosts);
    for (std::string entry; std::getline(list, entry, ',');) {
      hosts.push_back(entry);
    }
    return {run.transport, run.rank, run.world, run.port_base, hosts};
  }

  /// The PGCH_* environment form above (one RunConfig parse).
  static LaunchConfig from_env() {
    return from(runtime::RunConfig::from_env());
  }

  /// Rank `r`'s listen endpoint under this config: the hosts entry when
  /// present, else loopback at port_base + r. Entry forms: "host",
  /// "host:port", and for IPv6 literals "addr" or "[addr]:port" (a bare
  /// literal with multiple colons is taken as all-host; brackets are
  /// required to attach a port to one).
  [[nodiscard]] runtime::TcpEndpoint endpoint_of(int r) const {
    const int default_port = port_base + r;
    if (default_port <= 0 || default_port > 65535) {
      throw std::invalid_argument(
          "PGCH_PORT_BASE: rank " + std::to_string(r) +
          "'s port " + std::to_string(default_port) +
          " is outside 1..65535");
    }
    runtime::TcpEndpoint ep;
    ep.port = static_cast<std::uint16_t>(default_port);
    if (static_cast<std::size_t>(r) >= hosts.size() ||
        hosts[static_cast<std::size_t>(r)].empty()) {
      return ep;
    }
    const std::string& entry = hosts[static_cast<std::size_t>(r)];
    if (entry.front() == '[') {
      const std::size_t close = entry.find(']');
      if (close == std::string::npos) {
        throw std::invalid_argument("PGCH_HOSTS: unterminated '[' in \"" +
                                    entry + "\"");
      }
      ep.host = entry.substr(1, close - 1);
      if (close + 1 < entry.size()) {
        if (entry[close + 1] != ':') {
          throw std::invalid_argument(
              "PGCH_HOSTS: expected ':' after ']' in \"" + entry + "\"");
        }
        ep.port =
            static_cast<std::uint16_t>(std::atoi(entry.c_str() + close + 2));
      }
      return ep;
    }
    const std::size_t colon = entry.find(':');
    if (colon == std::string::npos || entry.find(':', colon + 1) !=
                                          std::string::npos) {
      ep.host = entry;  // no port, or an unbracketed IPv6 literal
    } else {
      ep.host = entry.substr(0, colon);
      ep.port =
          static_cast<std::uint16_t>(std::atoi(entry.c_str() + colon + 1));
    }
    return ep;
  }
};

}  // namespace pregel::core
