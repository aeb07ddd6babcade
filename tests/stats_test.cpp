// RunStats wire format, pinned byte for byte. Checkpoints embed these
// bytes (Worker::checkpoint_save) and the TCP stats fold ships them
// between ranks, so the layout is a file and wire format: a change to the
// field table (kRunStatsFields) that reorders, retypes or drops a field
// must fail here, not in a restore.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <string>

#include "runtime/buffer.hpp"
#include "runtime/stats.hpp"

namespace {

using pregel::runtime::Buffer;
using pregel::runtime::RunStats;

/// Every field set to a distinct non-default value.
RunStats populated() {
  RunStats s;
  s.seconds = 1.5;
  s.compute_seconds = 0.75;
  s.comm_seconds = 0.5;
  s.serialize_seconds = 0.125;
  s.exchange_seconds = 0.25;
  s.deliver_seconds = 0.0625;
  s.overlap_seconds = 0.03125;
  s.supersteps = 7;
  s.comm_rounds = 9;
  s.pipelined_rounds = 3;
  s.message_bytes = 123456789;
  s.message_batches = 42;
  s.chunks_sent = 11;
  s.chunks_received = 12;
  s.frame_bytes = 640;
  s.bytes_by_channel = {{"agg", 24}, {"dist", 1000}};
  s.active_per_superstep = {10, 8, 3};
  s.active_vertex_total = 21;
  s.bytes_per_superstep = {400, 300};
  s.chunks_per_superstep = {5, 6};
  s.direction_per_superstep = {0, 1, 1};
  s.compute_slot_seconds = {0.5, 0.25};
  s.rank_compute_seconds = {1.0, 2.0};
  return s;
}

std::string hex(Buffer& b) {
  std::string out;
  char byte[3];
  while (!b.exhausted()) {
    std::snprintf(byte, sizeof byte, "%02x", b.read<unsigned char>());
    out += byte;
  }
  return out;
}

// clang-format off
constexpr const char* kGolden =
    "000000000000f83f000000000000e83f000000000000e03f000000000000c03f"
    "000000000000d03f000000000000b03f000000000000a03f0700000009000000"
    "00000000030000000000000015cd5b07000000002a000000000000000b000000"
    "000000000c000000000000008002000000000000020000000300000061676718"
    "000000000000000400000064697374e803000000000000030000000a00000000"
    "0000000800000000000000030000000000000015000000000000000200000090"
    "010000000000002c010000000000000200000005000000000000000600000000"
    "0000000300000000010102000000000000000000e03f000000000000d03f0200"
    "0000000000000000f03f0000000000000040";
// clang-format on

TEST(RunStatsWire, SerializeMatchesGoldenBytes) {
  Buffer b;
  populated().serialize(b);
  EXPECT_EQ(hex(b), kGolden);
}

TEST(RunStatsWire, DeserializeReadsExactlyTheGoldenBytes) {
  Buffer b;
  populated().serialize(b);
  Buffer again;
  RunStats::deserialize(b).serialize(again);
  EXPECT_TRUE(b.exhausted());
  EXPECT_EQ(hex(again), kGolden);
}

}  // namespace
