#pragma once
// TcpTransport: the multi-process transport backend (DESIGN.md section 7).
//
// One process per rank. Every pair of ranks holds one persistent TCP
// connection (full mesh, established once at startup); each exchange
// round ships a rank's whole outbox to each peer as one length-prefixed
// bulk send, and the control lane — barrier, quiescence vote, channel
// activity mask, stats gather — rides the same sockets as tagged control
// messages folded through rank 0.
//
// Deadlock-freedom of the data exchange: each rank walks its peers in
// increasing rank order and, within a pair, the lower rank sends first
// while the higher rank receives first. Every rank's local pair order is
// consistent with the global lexicographic order on (min, max) pairs, so
// the waits-for relation is acyclic, and within a pair one side is always
// draining while the other sends.
//
// The rank-local loop (from == to) never touches a socket: the self
// outbox and inbox swap in place, byte-for-byte the in-process
// double-buffer flip.
//
// Like the binary snapshot format, the wire encoding is little-endian by
// definition (raw struct bytes); mixed-endian clusters are not supported.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "runtime/transport.hpp"

namespace pregel::runtime {

struct TcpPeerPipe;  // per-peer pipelined-round machinery (tcp_transport.cpp)

/// Where a rank listens: host (name or dotted quad) plus TCP port.
struct TcpEndpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = let the kernel pick (tests)
};

class TcpTransport final : public Transport {
 public:
  /// Phase 1: bind and listen on `listen.port` (0 picks an ephemeral port
  /// — read it back with listen_port() and distribute it out of band).
  /// No peer connections are made yet. `config` supplies the timeouts,
  /// heartbeats, connect retries and simulated link (default: all off).
  TcpTransport(int rank, int world_size, const TcpEndpoint& listen,
               const RunConfig& config = {});
  ~TcpTransport() override;

  /// Phase 2 (collective): establish the full mesh. `peers[r]` is rank
  /// r's listen endpoint; entry `rank` is ignored (it is this process).
  /// Ranks may start at different times — connects retry until
  /// `timeout_s` elapses.
  void connect_mesh(const std::vector<TcpEndpoint>& peers,
                    double timeout_s = 30.0);

  [[nodiscard]] std::uint16_t listen_port() const noexcept {
    return listen_port_;
  }

  [[nodiscard]] int world_size() const noexcept override { return world_; }
  [[nodiscard]] int rank() const noexcept { return rank_; }

  Buffer& outbox(int from, int to) override;
  Buffer& inbox(int to, int from) override;
  void exchange(int rank) override;
  void barrier(int rank) override;
  std::uint64_t allreduce_or(int rank, std::uint64_t local) override;
  std::uint64_t allreduce_sum(int rank, std::uint64_t local) override;
  std::vector<Buffer> gather_to_root(int rank, const Buffer& local) override;
  void broadcast_from_root(int rank, Buffer* data) override;

  // ---- pipelined rounds (DESIGN.md section 10) --------------------------
  // Per peer: a sender thread draining a bounded queue of encoded chunks
  // into the socket, and a receiver thread running the ChunkDecoder over
  // exact-size reads, parking both between rounds so the same sockets can
  // carry bulk and control traffic. Threads are spawned lazily on the
  // first pipeline_begin().

  [[nodiscard]] bool supports_pipeline() const noexcept override;

  // ---- failure detection (docs/fault_tolerance.md) ----------------------
  // PGCH_IO_TIMEOUT_MS bounds the silence gap on every receive: if a peer
  // sends no byte for that long, the blocked receive throws TransportError
  // instead of waiting forever (0 = wait forever, the default). To keep a
  // healthy-but-computing peer from tripping it, the engine opens a
  // heartbeat window around its compute phase (PGCH_HEARTBEAT_MS > 0): a
  // lazy thread writes empty kMsgHeartbeat messages to every peer, which
  // the receive path skips — their only effect is resetting the peer's
  // silence deadline. Closing the window blocks until no heartbeat is in
  // flight, so the main thread never shares a socket with a half-written
  // beat. The engine never opens the window in pipelined rounds (raw chunk
  // streams tolerate no interleaved bytes).
  void set_heartbeat_window(int rank, bool open) override;

  void pipeline_begin(int rank) override;
  void pipeline_send(int rank, int peer, const ChunkHeader& header,
                     const void* payload) override;
  void pipeline_flush_sends(int rank) override;
  bool pipeline_recv(int rank, int peer, DecodedChunk* out) override;
  void pipeline_end(int rank) override;

 private:
  enum class Op { kOr, kSum };

  void check_local(int rank, const char* what) const;
  void require_mesh() const;

  // Raw socket I/O (full-length, EINTR-safe; throws TransportError).
  void send_all(int fd, const void* data, std::size_t n, int peer);
  void recv_all(int fd, void* data, std::size_t n, int peer);

  // Tagged wire messages: {u8 type, u64 byte_len} then byte_len bytes.
  void send_msg(int peer, std::uint8_t type, const void* data,
                std::uint64_t len);
  /// Receive one message from `peer`, demand `type`, append the payload to
  /// `*into` (cleared first) and return its length.
  std::uint64_t recv_msg(int peer, std::uint8_t type, Buffer* into);

  void send_control(int peer, std::uint64_t value);
  std::uint64_t recv_control(int peer);
  std::uint64_t allreduce(int rank, std::uint64_t local, Op op);

  void ensure_pipes();
  void stop_pipes() noexcept;
  TcpPeerPipe& pipe(int peer);

  void heartbeat_main();
  void stop_heartbeat() noexcept;

  /// Sender-thread hook: delay until `bytes` more wire bytes fit the
  /// simulated link (no-op at bandwidth 0). Shared deadline across all of
  /// this rank's sender threads — concurrent peers split one link.
  void pace_wire(std::size_t bytes);

  const int rank_;
  const int world_;
  int listen_fd_ = -1;
  std::uint16_t listen_port_ = 0;
  std::vector<int> fds_;  ///< per peer rank; own rank stays -1
  std::vector<Buffer> out_;
  std::vector<Buffer> in_;
  bool connected_ = false;
  std::vector<std::unique_ptr<TcpPeerPipe>> pipes_;  ///< per peer; lazy

  // Failure-detection knobs (RunConfig, see the ctor).
  int io_timeout_ms_ = 0;    ///< PGCH_IO_TIMEOUT_MS; 0 = wait forever
  int heartbeat_ms_ = 0;     ///< PGCH_HEARTBEAT_MS; 0 = no heartbeats
  int connect_retries_ = 0;  ///< PGCH_CONNECT_RETRIES; 0 = deadline only

  // Heartbeat thread (lazy; see set_heartbeat_window).
  std::thread hb_thread_;
  std::mutex hb_mu_;
  std::condition_variable hb_cv_;
  bool hb_open_ = false;
  bool hb_stop_ = false;

  // Simulated link for pipelined sends (PGCH_SIM_NET_MBPS in bytes/second;
  // 0 = wire speed): sender threads pace each chunk through one shared
  // budget (one NIC per rank); bulk exchange() stays at wire speed.
  double sim_bandwidth_ = 0.0;
  std::mutex pace_mu_;
  std::chrono::steady_clock::time_point pace_next_{};

  friend struct TcpPeerPipe;
};

}  // namespace pregel::runtime
