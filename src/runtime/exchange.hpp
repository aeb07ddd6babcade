#pragma once
// Exchange: the framed-wire-protocol layer of the communication substrate
// (DESIGN.md sections 1 and 7).
//
// Workers write into their outboxes during channel serialize(), then the
// team collectively calls exchange(): the Transport underneath delivers
// every outbox to its peer inbox (in-process: the matrix swap of the
// paper's Fig. 2; TCP: length-prefixed bulk sends over sockets). After
// exchange() returns, channel deserialize() reads the inboxes.
//
// The Exchange itself never moves bytes. It owns the framed protocol
// state — per-rank frame lanes, frame open/patch/validate, per-channel
// byte accounting — and the per-rank traffic counters, and delegates
// buffer storage, delivery and the control lane to the Transport.
//
// Framed wire protocol (DESIGN.md section 1): each channel's payload in
// each outbox is wrapped in a ChannelFrame{channel_id, byte_len} header.
// The engine brackets a channel's serialize() between begin_frames() /
// end_frames() — which write and patch the headers and account the payload
// bytes to the channel — and its deserialize() between open_frames() /
// close_frames() — which validate the header and enforce that the channel
// consumes exactly its own payload. Misaligned reads therefore throw
// FrameMismatchError instead of silently corrupting later channels.
//
// Rank-local traffic (from == to) never leaves the process, so its frames
// ship no headers: the writer logs (channel_id, byte_len) in its own lane
// and the reader validates against that log — same loud failure, zero
// protocol overhead on the loopback path.
//
// Direction-optimized supersteps (DESIGN.md section 9) need nothing new
// from this layer: a pull-capable channel's boundary values ride its
// ordinary frame lane like any payload, and the rank's own edges produce
// a zero-byte self payload — a valid frame, costing no wire bytes, which
// is exactly how pull's "local edges are free" shows up in the
// per-channel byte accounting.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "runtime/barrier.hpp"
#include "runtime/buffer.hpp"
#include "runtime/chunk.hpp"
#include "runtime/frame.hpp"
#include "runtime/transport.hpp"

namespace pregel::runtime {

class Exchange {
 public:
  /// Frame layer over an externally owned transport (launch() and the
  /// multi-process path). `chunk_bytes` is the pipelined-round chunk size
  /// (PGCH_CHUNK_BYTES; see set_chunk_bytes()).
  explicit Exchange(Transport& transport,
                    std::size_t chunk_bytes = kDefaultChunkBytes)
      : transport_(&transport) {
    set_chunk_bytes(chunk_bytes);
    init_lanes();
  }

  /// Compatibility form: builds and owns an InProcessTransport over the
  /// given barrier — the original BufferExchange constructor shape.
  Exchange(int num_workers, Barrier& barrier)
      : owned_transport_(
            std::make_unique<InProcessTransport>(num_workers, barrier)),
        transport_(owned_transport_.get()) {
    init_lanes();
  }

  Exchange(const Exchange&) = delete;
  Exchange& operator=(const Exchange&) = delete;

  [[nodiscard]] int num_workers() const noexcept {
    return transport_->world_size();
  }

  [[nodiscard]] Transport& transport() noexcept { return *transport_; }

  /// Buffer that worker `from` fills with data destined for worker `to`.
  Buffer& outbox(int from, int to) { return transport_->outbox(from, to); }

  /// Buffer holding the data worker `from` sent to worker `to` in the most
  /// recent exchange.
  Buffer& inbox(int to, int from) { return transport_->inbox(to, from); }

  // ---- framed wire protocol (write side) --------------------------------
  // Only the owning rank may call its own frame functions; the per-rank
  // lane state makes them safe to call concurrently across ranks.

  /// Open channel `channel_id`'s frame in every outbox of `from`. The
  /// channel's serialize() then appends its payloads; end_frames() patches
  /// the lengths in. The self outbox gets no header — its frame is logged
  /// lane-locally instead (rank-local bytes never cross the wire).
  ///
  /// Capacity hint: each outbox is pre-reserved to fit the payload this
  /// channel shipped to the same peer in the previous round (recorded by
  /// end_frames), so steady-state supersteps append without realloc churn.
  void begin_frames(int from, int channel_id) {
    Lane& lane = lanes_[static_cast<std::size_t>(from)];
    if (lane.open_write_channel >= 0) {
      throw FrameMismatchError(
          "Exchange: begin_frames while another channel's frame is open");
    }
    check_channel_id(channel_id);
    const int workers = num_workers();
    for (int to = 0; to < workers; ++to) {
      Buffer& out = outbox(from, to);
      // For the self outbox this records where the payload begins; for
      // peers, where the header sits (the payload begins after it).
      lane.write_header_at[static_cast<std::size_t>(to)] = out.size();
      if (to != from) {
        if (!lane.pipe_header_at.empty()) {
          lane.pipe_header_at[static_cast<std::size_t>(to)] = out.size();
        }
        out.write(ChannelFrame{static_cast<std::uint32_t>(channel_id), 0});
      }
      const std::size_t hint =
          lane.payload_hint[hint_index(channel_id, to, workers)];
      if (hint != 0) out.reserve(out.size() + hint);
    }
    lane.open_write_channel = channel_id;
  }

  /// Close the open frame: patch byte_len into every peer header, log the
  /// self frame, account the payload bytes to the channel, and return them
  /// (the engine attributes them to the channel's name in RunStats).
  std::uint64_t end_frames(int from, int channel_id) {
    Lane& lane = lanes_[static_cast<std::size_t>(from)];
    if (lane.open_write_channel != channel_id) {
      throw FrameMismatchError(
          "Exchange: end_frames does not match the open frame");
    }
    std::uint64_t payload_total = 0;
    const int workers = num_workers();
    for (int to = 0; to < workers; ++to) {
      Buffer& out = outbox(from, to);
      const std::size_t header_at =
          lane.write_header_at[static_cast<std::size_t>(to)];
      std::size_t payload;
      if (to == from) {
        payload = out.size() - header_at;
        lane.self_frames.push_back(
            ChannelFrame{static_cast<std::uint32_t>(channel_id),
                         checked_u32(payload, "Exchange frame payload")});
      } else {
        payload = out.size() - header_at - sizeof(ChannelFrame);
        out.patch_u32(header_at + sizeof(std::uint32_t),
                      checked_u32(payload, "Exchange frame payload"));
      }
      payload_total += payload;
      // Remember the payload size as next round's pre-reserve hint.
      lane.payload_hint[hint_index(channel_id, to, workers)] = payload;
    }
    lane.channel_payload_bytes[static_cast<std::size_t>(channel_id)] +=
        payload_total;
    // Only the W-1 peer headers are protocol overhead; the self frame
    // ships none.
    lane.frame_overhead_bytes +=
        static_cast<std::uint64_t>(workers - 1) * sizeof(ChannelFrame);
    lane.open_write_channel = -1;
    return payload_total;
  }

  // ---- framed wire protocol (read side) ---------------------------------

  /// Validate and consume channel `channel_id`'s frame header in every
  /// inbox of `to` (the self inbox validates against the lane's frame log
  /// instead of a wire header), and bound each inbox's reader to the frame
  /// payload. Throws FrameMismatchError if a different channel's frame (or
  /// a truncated stream) is at the cursor — the loud failure that replaces
  /// the old silent misalignment.
  void open_frames(int to, int channel_id, const std::string& channel_name) {
    Lane& lane = lanes_[static_cast<std::size_t>(to)];
    const int workers = num_workers();
    for (int from = 0; from < workers; ++from) {
      Buffer& in = inbox(to, from);
      ChannelFrame frame{};
      if (from == to) {
        if (lane.self_read == lane.self_frames.size()) {
          throw exhausted_error(channel_id, channel_name);
        }
        frame = lane.self_frames[lane.self_read++];
      } else {
        try {
          frame = in.read<ChannelFrame>();
        } catch (const ProtocolError&) {
          throw exhausted_error(channel_id, channel_name);
        }
      }
      if (frame.channel_id != static_cast<std::uint32_t>(channel_id)) {
        throw FrameMismatchError(
            "frame protocol: channel '" + channel_name + "' (id " +
            std::to_string(channel_id) + ") found a frame of channel id " +
            std::to_string(frame.channel_id) +
            " at the read cursor — serialize/deserialize schedules diverged");
      }
      const std::size_t frame_end = in.read_pos() + frame.byte_len;
      lane.read_frame_end[static_cast<std::size_t>(from)] = frame_end;
      in.set_read_limit(frame_end);
    }
  }

  /// Verify the channel consumed exactly its payload in every inbox and
  /// lift the read limits. Throws FrameMismatchError on under-read (the
  /// over-read case already threw inside deserialize via the read limit).
  void close_frames(int to, int channel_id, const std::string& channel_name) {
    Lane& lane = lanes_[static_cast<std::size_t>(to)];
    const int workers = num_workers();
    for (int from = 0; from < workers; ++from) {
      Buffer& in = inbox(to, from);
      const std::size_t expected =
          lane.read_frame_end[static_cast<std::size_t>(from)];
      if (in.read_pos() != expected) {
        throw FrameMismatchError(
            "frame protocol: channel '" + channel_name + "' (id " +
            std::to_string(channel_id) + ") consumed " +
            std::to_string(in.read_pos()) + " bytes of a frame ending at " +
            std::to_string(expected) +
            " — deserialize() must read exactly what the peer's serialize() "
            "wrote");
      }
      in.clear_read_limit();
    }
    // Frame log fully drained: recycle it (keeps capacity).
    if (lane.self_read == lane.self_frames.size()) {
      lane.self_frames.clear();
      lane.self_read = 0;
    }
  }

  /// Collective: all workers must call. Accounts this rank's outgoing
  /// traffic, then lets the transport deliver every outbox.
  void exchange(int rank) {
    account_round(rank);
    transport_->exchange(rank);
  }

  // ---- pipelined rounds (DESIGN.md section 10) --------------------------
  // The streaming alternative to exchange(): the engine serializes
  // channels one at a time and calls pipeline_flush() after each, which
  // chops the newly written slice of every peer outbox into chunks
  // (runtime/chunk.hpp) and hands them to the transport's per-peer sender
  // threads. pipeline_wait_region() then reassembles one channel's region
  // per peer into the inboxes as chunks land, so delivery of early
  // channels overlaps both the serialize of later ones (sender side) and
  // their wire transfer (receiver side). The reassembled inbox bytes are
  // byte-identical to a bulk round's, so the frame protocol
  // (open/close_frames) and every channel's deserialize run unchanged.

  /// True when the transport can run pipelined rounds. A lifetime
  /// constant, identical on every rank.
  [[nodiscard]] bool pipeline_capable() const noexcept {
    return transport_->supports_pipeline();
  }

  /// Streaming chunk size, clamped to [64, kMaxChunkPayload]. Must be
  /// identical on every rank and set between rounds.
  void set_chunk_bytes(std::size_t n) {
    chunk_bytes_ = std::clamp(n, std::size_t{64}, kMaxChunkPayload);
  }
  [[nodiscard]] std::size_t chunk_bytes() const noexcept {
    return chunk_bytes_;
  }

  /// Collective: open a pipelined round (arms the transport's per-peer
  /// senders/receivers and recycles the peer inboxes for incremental
  /// reassembly).
  void pipeline_begin(int rank) {
    Lane& lane = lanes_[static_cast<std::size_t>(rank)];
    transport_->pipeline_begin(rank);
    const int workers = num_workers();
    lane.pipe_flushed.assign(static_cast<std::size_t>(workers), 0);
    lane.pipe_seq.assign(static_cast<std::size_t>(workers), 0);
    lane.pipe_header_at.assign(static_cast<std::size_t>(workers), kNoHeader);
    for (int from = 0; from < workers; ++from) {
      if (from != rank) inbox(rank, from).clear();
    }
    lane.pipe_started = false;
  }

  /// Mid-serialize streaming: ship any *complete* chunks of channel
  /// `channel_id`'s payload written so far (callable after each
  /// destination's emit, while the frame is still open). Only whole
  /// chunk_bytes_ chunks go out — the remainder waits for more bytes or
  /// the closing pipeline_flush() — so chunk boundaries are the same as a
  /// one-shot flush (plus, when a region's size is an exact chunk
  /// multiple, a trailing zero-len channel-end chunk).
  void pipeline_stream(int rank, int channel_id) {
    stream_chunks(rank, channel_id, /*close_region=*/false,
                  /*last_channel=*/false);
  }

  /// Close channel `channel_id`'s region: stream everything not yet
  /// shipped and stamp the channel-end (and, for the round's last
  /// channel, round-last) flag on each peer's final chunk.
  void pipeline_flush(int rank, int channel_id, bool last_channel) {
    stream_chunks(rank, channel_id, /*close_region=*/true, last_channel);
  }

  /// After the last flush: account the round exactly like exchange()
  /// (outbox sizes are final), run the rank-local loop (self outbox and
  /// inbox swap in place, as on the bulk TCP path), and recycle the peer
  /// outboxes — every chunk holds its own copy, so the buffers are free.
  void pipeline_finish_sends(int rank) {
    account_round(rank);
    Buffer& self_out = outbox(rank, rank);
    Buffer& self_in = inbox(rank, rank);
    self_out.swap(self_in);
    self_out.clear();
    self_in.rewind();
    const int workers = num_workers();
    for (int to = 0; to < workers; ++to) {
      if (to != rank) outbox(rank, to).clear();
    }
  }

  /// Block until channel `channel_id`'s region has fully landed from
  /// every peer (ascending peer order, matching the bulk inbox layout) and
  /// append the payloads to the inboxes. Chunks carry pure payload — the
  /// sender cannot ship the ChannelFrame header, whose byte_len is patched
  /// only after the whole channel serialized — so the bulk-identical
  /// header is reconstructed here: written as a placeholder up front and
  /// patched when the region closes. Throws FrameMismatchError if a
  /// peer's stream carries a different channel here (schedules diverged)
  /// or ends early.
  void pipeline_wait_region(int rank, int channel_id) {
    Lane& lane = lanes_[static_cast<std::size_t>(rank)];
    const int workers = num_workers();
    DecodedChunk c;
    for (int from = 0; from < workers; ++from) {
      if (from == rank) continue;
      Buffer& in = inbox(rank, from);
      const std::size_t header_at = in.size();
      in.write(ChannelFrame{static_cast<std::uint32_t>(channel_id), 0});
      std::uint64_t region_len = 0;
      while (true) {
        if (!transport_->pipeline_recv(rank, from, &c)) {
          throw FrameMismatchError(
              "pipelined round: stream from rank " + std::to_string(from) +
              " ended before channel " + std::to_string(channel_id) +
              "'s region completed");
        }
        ++lane.chunks_received;
        if (static_cast<int>(c.header.channel) != channel_id) {
          throw FrameMismatchError(
              "pipelined round: expected a chunk of channel " +
              std::to_string(channel_id) + " from rank " +
              std::to_string(from) + " but received channel " +
              std::to_string(c.header.channel) +
              " — serialize/deliver schedules diverged");
        }
        if (!c.payload.empty()) {
          in.write_bytes(c.payload.data(), c.payload.size());
          region_len += c.payload.size();
        }
        if ((c.header.flags & kChunkChannelEnd) != 0) break;
      }
      in.patch_u32(header_at + sizeof(std::uint32_t),
                   static_cast<std::uint32_t>(region_len));
    }
    lane.pipe_last_recv = Clock::now();
  }

  /// Close the round: wait for the sender threads to drain (the socket
  /// must be clean before control-lane traffic resumes), park the
  /// transport machinery, and account the round's wire-active span — from
  /// the first flush to the later of the last region landing or the sends
  /// draining. That span overlaps the main thread's serialize and deliver
  /// intervals, which is exactly the overlap RunStats reports.
  void pipeline_end(int rank) {
    Lane& lane = lanes_[static_cast<std::size_t>(rank)];
    const auto drain0 = Clock::now();
    transport_->pipeline_flush_sends(rank);
    transport_->pipeline_end(rank);
    if (lane.pipe_started) {
      const double drain_wait =
          std::chrono::duration<double>(Clock::now() - drain0).count();
      lane.wire_seconds +=
          std::chrono::duration<double>(lane.pipe_last_recv -
                                        lane.pipe_wire_start)
              .count() +
          drain_wait;
      lane.pipe_started = false;
    }
  }

  // ---- statistics (read between rounds; not thread-safe mid-exchange) ---

  /// Bytes rank `rank` handed to the transport (payload + frame headers),
  /// accumulated by exchange().
  [[nodiscard]] std::uint64_t sent_bytes(int rank) const {
    return lanes_[static_cast<std::size_t>(rank)].sent_bytes;
  }

  /// Non-empty (src, dst) buffers rank `rank` shipped.
  [[nodiscard]] std::uint64_t sent_batches(int rank) const {
    return lanes_[static_cast<std::size_t>(rank)].sent_batches;
  }

  /// Team-wide totals: the sum over every rank's lane. On a remote
  /// transport only the local rank's lane is populated, so these report
  /// this process's share; RunStats::merge_from sums the shares.
  [[nodiscard]] std::uint64_t total_bytes() const noexcept {
    std::uint64_t sum = 0;
    for (const Lane& lane : lanes_) sum += lane.sent_bytes;
    return sum;
  }
  [[nodiscard]] std::uint64_t total_batches() const noexcept {
    std::uint64_t sum = 0;
    for (const Lane& lane : lanes_) sum += lane.sent_batches;
    return sum;
  }
  [[nodiscard]] std::uint64_t rounds() const noexcept {
    std::uint64_t most = 0;
    for (const Lane& lane : lanes_) most = std::max(most, lane.rounds);
    return most;
  }

  /// Payload bytes rank `from` shipped on channel `channel_id` (frame
  /// headers excluded), accumulated by end_frames().
  [[nodiscard]] std::uint64_t channel_bytes(int from, int channel_id) const {
    check_channel_id(channel_id);
    return lanes_[static_cast<std::size_t>(from)]
        .channel_payload_bytes[static_cast<std::size_t>(channel_id)];
  }

  /// Frame-header bytes rank `from` shipped (protocol overhead of the
  /// framed wire format; rank-local frames ship no headers and count
  /// nothing here).
  [[nodiscard]] std::uint64_t frame_overhead_bytes(int from) const {
    return lanes_[static_cast<std::size_t>(from)].frame_overhead_bytes;
  }

  /// Chunks rank `rank` streamed / reassembled in pipelined rounds
  /// (cumulative; 0 on the bulk path).
  [[nodiscard]] std::uint64_t chunks_sent(int rank) const {
    return lanes_[static_cast<std::size_t>(rank)].chunks_sent;
  }
  [[nodiscard]] std::uint64_t chunks_received(int rank) const {
    return lanes_[static_cast<std::size_t>(rank)].chunks_received;
  }

  /// Cumulative wire-active span of rank `rank`'s pipelined rounds (first
  /// flush to last landing/drain per round). Unlike the bulk path's
  /// exchange interval this overlaps serialize/deliver time — the engine
  /// reports it as exchange_seconds in pipelined mode.
  [[nodiscard]] double wire_seconds(int rank) const {
    return lanes_[static_cast<std::size_t>(rank)].wire_seconds;
  }

  void reset_stats() noexcept {
    for (auto& lane : lanes_) {
      std::fill(lane.channel_payload_bytes.begin(),
                lane.channel_payload_bytes.end(), 0);
      lane.frame_overhead_bytes = 0;
      lane.sent_bytes = 0;
      lane.sent_batches = 0;
      lane.rounds = 0;
      lane.chunks_sent = 0;
      lane.chunks_received = 0;
      lane.wire_seconds = 0.0;
    }
  }

 private:
  using Clock = std::chrono::steady_clock;

  /// Per-rank frame bookkeeping. Each rank only ever touches its own lane,
  /// so the frame API needs no locking; padded to avoid false sharing.
  struct alignas(64) Lane {
    std::vector<std::size_t> write_header_at;  ///< per peer, open frame
    std::vector<std::size_t> read_frame_end;   ///< per peer, open frame
    std::vector<std::uint64_t> channel_payload_bytes;  ///< cumulative
    /// Previous-round payload size per (channel, peer): begin_frames
    /// pre-reserves the outbox with it (steady-state supersteps ship
    /// similar volumes, so this eliminates realloc churn mid-serialize).
    std::vector<std::size_t> payload_hint;
    /// Rank-local frame log: headers the self outbox would have carried.
    /// end_frames() appends, open_frames() validates and consumes.
    std::vector<ChannelFrame> self_frames;
    std::size_t self_read = 0;
    std::uint64_t frame_overhead_bytes = 0;
    std::uint64_t sent_bytes = 0;
    std::uint64_t sent_batches = 0;
    std::uint64_t rounds = 0;
    int open_write_channel = -1;
    // Pipelined-round state (DESIGN.md section 10).
    std::vector<std::size_t> pipe_flushed;  ///< per peer: bytes chopped
    std::vector<std::uint32_t> pipe_seq;    ///< per peer: open-region seq
    /// Per peer: outbox offset of the open channel's ChannelFrame header.
    /// The header is patched only at end_frames(), so the chunker skips
    /// it and the receiver reconstructs it (kNoHeader = nothing to skip —
    /// raw regions written without the frame bracket).
    std::vector<std::size_t> pipe_header_at;
    std::uint64_t chunks_sent = 0;
    std::uint64_t chunks_received = 0;
    double wire_seconds = 0.0;
    bool pipe_started = false;  ///< this round's first flush happened
    Clock::time_point pipe_wire_start{};
    Clock::time_point pipe_last_recv{};
  };

  /// Sentinel of Lane::pipe_header_at: no frame header to skip.
  static constexpr std::size_t kNoHeader = static_cast<std::size_t>(-1);

  /// Shared core of pipeline_stream() / pipeline_flush(): chop the bytes
  /// every peer outbox gained since the previous call into chunks and
  /// hand them to the transport's sender threads. Non-closing calls ship
  /// whole chunks only; the closing call ships the remainder with the
  /// region-end flag. The open frame's ChannelFrame header (unpatched
  /// until end_frames) is skipped — the receiver reconstructs it.
  void stream_chunks(int rank, int channel_id, bool close_region,
                     bool last_channel) {
    Lane& lane = lanes_[static_cast<std::size_t>(rank)];
    const int workers = num_workers();
    for (int to = 0; to < workers; ++to) {
      if (to == rank) continue;
      const auto peer = static_cast<std::size_t>(to);
      Buffer& out = outbox(rank, to);
      std::size_t off = lane.pipe_flushed[peer];
      if (off == lane.pipe_header_at[peer]) off += sizeof(ChannelFrame);
      std::size_t avail = out.size() - off;
      if (!close_region) {
        avail -= avail % chunk_bytes_;  // whole chunks only mid-region
        if (avail == 0) continue;
      }
      if (!lane.pipe_started) {
        lane.pipe_started = true;
        lane.pipe_wire_start = Clock::now();
        lane.pipe_last_recv = lane.pipe_wire_start;
      }
      for_each_chunk_partial(channel_id, out.data() + off, avail,
                             chunk_bytes_, lane.pipe_seq[peer], close_region,
                             last_channel,
                             [&](const ChunkHeader& h, const std::byte* p) {
                               transport_->pipeline_send(rank, to, h, p);
                               lane.pipe_seq[peer] = h.seq + 1;
                               ++lane.chunks_sent;
                             });
      lane.pipe_flushed[peer] = off + avail;
      if (close_region) lane.pipe_seq[peer] = 0;
    }
  }

  /// The per-round traffic accounting shared by exchange() and
  /// pipeline_finish_sends(): both run when the outbox sizes are final,
  /// and both count the self outbox (rank-local traffic is traffic).
  void account_round(int rank) {
    Lane& lane = lanes_[static_cast<std::size_t>(rank)];
    const int workers = num_workers();
    for (int to = 0; to < workers; ++to) {
      const Buffer& out = outbox(rank, to);
      lane.sent_bytes += out.size();
      if (!out.empty()) ++lane.sent_batches;
    }
    ++lane.rounds;
  }

  void init_lanes() {
    const auto workers = static_cast<std::size_t>(num_workers());
    lanes_.resize(workers);
    for (auto& lane : lanes_) {
      lane.write_header_at.assign(workers, 0);
      lane.read_frame_end.assign(workers, 0);
      lane.channel_payload_bytes.assign(kMaxChannels, 0);
      lane.payload_hint.assign(kMaxChannels * workers, 0);
      lane.pipe_header_at.assign(workers, kNoHeader);
    }
  }

  [[nodiscard]] static std::size_t hint_index(int channel_id, int to,
                                              int workers) {
    return static_cast<std::size_t>(channel_id) *
               static_cast<std::size_t>(workers) +
           static_cast<std::size_t>(to);
  }

  static void check_channel_id(int channel_id) {
    if (channel_id < 0 || channel_id >= kMaxChannels) {
      throw FrameMismatchError("Exchange: channel id out of range");
    }
  }

  static FrameMismatchError exhausted_error(int channel_id,
                                            const std::string& channel_name) {
    return FrameMismatchError(
        "frame protocol: inbox exhausted where channel '" + channel_name +
        "' (id " + std::to_string(channel_id) +
        ") expected a frame header — an earlier channel over- or under-read "
        "its frame, or the peer's stream was truncated");
  }

  std::unique_ptr<InProcessTransport> owned_transport_;
  Transport* transport_;
  std::vector<Lane> lanes_;
  std::size_t chunk_bytes_ = kDefaultChunkBytes;
};

/// Historical name: the exchange used to own the W x W buffer matrix
/// itself. The matrix now lives in InProcessTransport; the protocol and
/// accounting layer kept the old name as an alias.
using BufferExchange = Exchange;

}  // namespace pregel::runtime
