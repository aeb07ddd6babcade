#pragma once
// Shared TCP mesh setup for the test suite: W TcpTransports bound to
// ephemeral loopback ports and mesh-connected from W threads (each thread
// stands in for one process; they share nothing but the sockets).
//
// Ephemeral-port setup can flake: between reading a transport's
// listen_port() and the peers connecting, the port lives in the kernel's
// ephemeral range, and a parallel test binary (or TIME_WAIT recycling)
// can race it — surfacing as EADDRINUSE / "Address already in use" from
// bind or connect. TcpTransport itself now retries the listener bind with
// the same doubling backoff (the policy was promoted out of this helper),
// which covers the bind side; this wrapper remains as the outer guard for
// the cross-transport race where a *connect* lands on a recycled port, by
// retrying the whole mesh build a bounded number of times.

#include <chrono>
#include <memory>
#include <string_view>
#include <thread>
#include <vector>

#include "runtime/tcp_transport.hpp"
#include "runtime/team.hpp"
#include "runtime/transport.hpp"

namespace pregel::testing {

/// True when a transport failure is the transient port-collision kind
/// worth retrying (anything else should fail the test loudly).
inline bool is_transient_port_collision(const std::exception& e) {
  const std::string_view what(e.what());
  return what.find("Address already in use") != std::string_view::npos ||
         what.find("EADDRINUSE") != std::string_view::npos;
}

/// W transports on ephemeral loopback ports, mesh-connected; retries the
/// whole build on transient port collisions (bounded, doubling backoff).
/// `config` carries the transports' PGCH_* knobs (simulated link, ...).
inline std::vector<std::unique_ptr<runtime::TcpTransport>> make_mesh(
    int world, const runtime::RunConfig& config = {}) {
  constexpr int kAttempts = 5;
  for (int attempt = 1;; ++attempt) {
    try {
      std::vector<std::unique_ptr<runtime::TcpTransport>> transports;
      std::vector<runtime::TcpEndpoint> peers(
          static_cast<std::size_t>(world));
      for (int rank = 0; rank < world; ++rank) {
        transports.push_back(std::make_unique<runtime::TcpTransport>(
            rank, world, runtime::TcpEndpoint{"127.0.0.1", 0}, config));
        peers[static_cast<std::size_t>(rank)] =
            runtime::TcpEndpoint{"127.0.0.1",
                                 transports.back()->listen_port()};
      }
      runtime::WorkerTeam::run(world, [&](int rank) {
        transports[static_cast<std::size_t>(rank)]->connect_mesh(peers,
                                                                 20.0);
      });
      return transports;
    } catch (const runtime::TransportError& e) {
      if (attempt >= kAttempts || !is_transient_port_collision(e)) throw;
      std::this_thread::sleep_for(std::chrono::milliseconds(25 << attempt));
    }
  }
}

}  // namespace pregel::testing
