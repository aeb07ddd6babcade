// Damage tests for the pull payload decoder (DESIGN.md section 9). A pull
// round's payload is peer data. The first round carries a handshake — a
// version/flags byte, a u32 source count, (src lidx, degree) per source,
// a u32 target per edge and, when flagged, a u32 weight per edge — and
// every round a values section: a mode byte, then either every boundary
// value in handshake order (dense) or a u32 count and packed (row, value)
// wires (sparse). Every field is damaged in turn on a real 2-rank run —
// both ranks' inboxes the same way, so both ranks fail in the same phase —
// and the channel must throw ProtocolError naming itself and the peer:
// never allocate a count it has not checked, write out of bounds, or
// build a corrupt index in silence. Seeded sweeps then mutate captured
// payloads — a first round, a steady dense round and a sparse round — and
// feed them to the decoder directly: each must either accept the bytes or
// raise ProtocolError, and must never crash (run it under ASan).

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <iterator>
#include <mutex>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "algorithms/pagerank.hpp"
#include "core/combined_message.hpp"
#include "core/pull_index.hpp"
#include "core/worker.hpp"
#include "graph/generators.hpp"
#include "runtime/exchange.hpp"
#include "runtime/frame.hpp"
#include "runtime/team.hpp"
#include "runtime/transport.hpp"

namespace {

using namespace pregel;
using runtime::Buffer;
using runtime::ProtocolError;
namespace pw = core::pull_wire;

constexpr std::size_t kFrame = sizeof(runtime::ChannelFrame);
constexpr std::size_t kWire = runtime::PackedWire<double>::kSize;

/// In-process transport that hands each rank's peer inboxes to a hook
/// right after every exchange (each rank only touches its own inboxes,
/// after the barrier, so the hook needs no locking).
class HookTransport final : public runtime::Transport {
 public:
  using Hook = std::function<void(int rank, int round, int from, Buffer& in)>;

  HookTransport(int workers, Hook hook)
      : inner_(workers), hook_(std::move(hook)),
        rounds_(static_cast<std::size_t>(workers), 0) {}

  [[nodiscard]] int world_size() const noexcept override {
    return inner_.world_size();
  }
  Buffer& outbox(int from, int to) override { return inner_.outbox(from, to); }
  Buffer& inbox(int to, int from) override { return inner_.inbox(to, from); }
  void exchange(int rank) override {
    inner_.exchange(rank);
    const int round = rounds_[static_cast<std::size_t>(rank)]++;
    for (int from = 0; from < world_size(); ++from) {
      if (from != rank) hook_(rank, round, from, inner_.inbox(rank, from));
    }
  }
  void barrier(int rank) override { inner_.barrier(rank); }
  std::uint64_t allreduce_or(int rank, std::uint64_t local) override {
    return inner_.allreduce_or(rank, local);
  }
  std::uint64_t allreduce_sum(int rank, std::uint64_t local) override {
    return inner_.allreduce_sum(rank, local);
  }
  std::vector<Buffer> gather_to_root(int rank, const Buffer& local) override {
    return inner_.gather_to_root(rank, local);
  }
  void broadcast_from_root(int rank, Buffer* data) override {
    inner_.broadcast_from_root(rank, data);
  }

 private:
  runtime::InProcessTransport inner_;
  Hook hook_;
  std::vector<int> rounds_;
};

/// The exchange rounds of a PullRank run (one per superstep).
constexpr int kHandshakeRound = 0;  ///< superstep 1: handshake + dense
constexpr int kSparseRound = 1;     ///< superstep 2: every third id silent
constexpr int kDenseRound = 2;      ///< superstep 3: steady dense round

/// Forced-pull PageRank over one pull-capable channel, so a peer inbox
/// holds exactly one frame: the "pr" channel's pull payload.
class PullRank : public core::Worker<algo::PRVertex> {
 public:
  void compute(algo::PRVertex& v) override {
    const double n = static_cast<double>(get_vnum());
    v.value().rank =
        step_num() == 1 ? 1.0 / n : 0.15 / n + 0.85 * msg_.get_message();
    if (step_num() > 3) {
      v.vote_to_halt();
      return;
    }
    if (step_num() == 2 && v.id() % 3 == 0) return;
    const auto edges = v.edges();
    if (!edges.empty()) {
      msg_.publish(v.value().rank / static_cast<double>(edges.size()));
    }
  }

 private:
  core::CombinedMessage<algo::PRVertex, double> msg_{
      this, core::make_combiner(core::c_sum, 0.0),
      [](const double& share, graph::Weight w) {
        return share * static_cast<double>(w);
      },
      "pr"};
};

/// Weighted R-MAT on 2 ranks (hash partition), so handshakes carry the
/// weight array.
graph::DistributedGraph test_graph() {
  graph::RmatOptions opts;
  opts.num_vertices = 1u << 9;
  opts.num_edges = 1u << 12;
  opts.weighted = true;
  opts.seed = 5;
  const graph::Graph g = graph::rmat(opts);
  return graph::DistributedGraph(g, graph::hash_partition(g.num_vertices(), 2));
}

void run_team(const graph::DistributedGraph& dg, HookTransport::Hook hook) {
  HookTransport transport(dg.num_workers(), std::move(hook));
  runtime::Exchange exchange(transport);
  const runtime::RunConfig config;
  runtime::WorkerTeam::run(dg.num_workers(), [&](int rank) {
    core::detail::run_rank<PullRank>(
        dg, exchange, transport, rank,
        [](PullRank& w) { w.set_direction_mode(core::DirectionMode::kPull); },
        nullptr, config);
  });
}

template <typename T>
T load(const std::byte* p, std::size_t at) {
  T v;
  std::memcpy(&v, p + at, sizeof(T));
  return v;
}
template <typename T>
void store(std::byte* p, std::size_t at, const T& v) {
  std::memcpy(p + at, &v, sizeof(T));
}

/// Where the fields of one pull payload sit, relative to the start of the
/// peer inbox (the frame header comes first).
struct Layout {
  bool handshake = false;
  std::uint32_t sources = 0;  ///< handshake source count (= boundary rows)
  std::uint64_t edges = 0;    ///< handshake degree sum
  bool weighted = false;
  std::size_t mode_at = kFrame;
  std::uint8_t mode = 0;
  std::uint32_t count = 0;  ///< values the section carries
  std::size_t end = 0;

  static constexpr std::size_t tag_at = kFrame;
  static constexpr std::size_t source_count_at = tag_at + 1;
  [[nodiscard]] static std::size_t source_at(std::uint32_t i) {
    return source_count_at + sizeof(std::uint32_t) + i * pw::kSourceBytes;
  }
  [[nodiscard]] static std::size_t degree_at(std::uint32_t i) {
    return source_at(i) + sizeof(std::uint32_t);
  }
  [[nodiscard]] std::size_t target_at(std::uint64_t k) const {
    return source_at(sources) + k * sizeof(std::uint32_t);
  }
  [[nodiscard]] std::size_t count_at() const { return mode_at + 1; }
  [[nodiscard]] std::size_t value_at(std::uint32_t i) const {
    return mode_at + 1 + i * sizeof(double);
  }
  [[nodiscard]] std::size_t wire_at(std::uint32_t i) const {
    return count_at() + sizeof(std::uint32_t) + i * kWire;
  }
};

/// Parse a payload; a round without a handshake needs the peer's boundary
/// row count from its first round.
Layout parse(const std::byte* p, bool handshake, std::uint32_t rows) {
  Layout l;
  l.handshake = handshake;
  if (handshake) {
    l.weighted = (load<std::uint8_t>(p, Layout::tag_at) & pw::kWeighted) != 0;
    l.sources = load<std::uint32_t>(p, Layout::source_count_at);
    for (std::uint32_t i = 0; i < l.sources; ++i) {
      l.edges += load<std::uint32_t>(p, Layout::degree_at(i));
    }
    l.mode_at = l.target_at(l.edges * (l.weighted ? 2 : 1));
  } else {
    l.sources = rows;
  }
  l.mode = load<std::uint8_t>(p, l.mode_at);
  if (l.mode == pw::kDense) {
    l.count = l.sources;
    l.end = l.value_at(l.count);
  } else {
    l.count = load<std::uint32_t>(p, l.count_at());
    l.end = l.wire_at(l.count);
  }
  return l;
}

/// The inbox bytes are the test's to damage: take them writable.
std::byte* bytes_of(Buffer& in) {
  return const_cast<std::byte*>(in.read_ptr());
}

/// Move the end of the inbox's frame by `delta` bytes — appending zero
/// bytes when it grows — so the channel reads a shorter or longer payload.
void resize_frame(Buffer& in, std::int64_t delta) {
  if (delta > 0) in.extend(static_cast<std::size_t>(delta));
  std::byte* p = bytes_of(in);
  const auto len = load<std::uint32_t>(p, sizeof(std::uint32_t));
  store<std::uint32_t>(p, sizeof(std::uint32_t),
                       static_cast<std::uint32_t>(len + delta));
}

/// One damage to a parsed payload in a rank's inbox, given the receiving
/// rank's and the sending rank's local vertex counts.
using Damage = std::function<void(Buffer& in, const Layout& l,
                                  std::uint32_t n_me, std::uint32_t n_from)>;

/// Run the team with `damage` applied to every peer inbox of exchange
/// round `round`; returns the what() of the ProtocolError the run raised,
/// or "" if none was raised.
std::string run_damaged(int round, const Damage& damage) {
  const auto dg = test_graph();
  std::vector<std::uint32_t> rows(2, 0);  // per receiving rank
  try {
    run_team(dg, [&](int rank, int r, int from, Buffer& in) {
      auto& my_rows = rows[static_cast<std::size_t>(rank)];
      const Layout l = parse(bytes_of(in), r == kHandshakeRound, my_rows);
      if (r == kHandshakeRound) my_rows = l.sources;
      if (r == round) damage(in, l, dg.num_local(rank), dg.num_local(from));
    });
  } catch (const ProtocolError& e) {
    return e.what();
  }
  return "";
}

void expect_rejected(int round, const Damage& damage,
                     const std::string& field) {
  const std::string what = run_damaged(round, damage);
  ASSERT_FALSE(what.empty()) << field << ": damage was accepted";
  EXPECT_NE(what.find("'pr'"), std::string::npos) << field << ": " << what;
  EXPECT_NE(what.find("from rank"), std::string::npos) << field << ": " << what;
}

/// A damage that rewrites one field of the payload bytes.
Damage poke(std::function<void(std::byte* p, const Layout& l,
                               std::uint32_t n_me, std::uint32_t n_from)>
                edit) {
  return [edit = std::move(edit)](Buffer& in, const Layout& l,
                                  std::uint32_t n_me, std::uint32_t n_from) {
    edit(bytes_of(in), l, n_me, n_from);
  };
}

// ------------------------------------------------------ field by field --

TEST(PullPayload, UndamagedRunsClean) {
  std::vector<std::pair<int, Layout>> seen;
  std::mutex mu;
  for (const int round : {kHandshakeRound, kSparseRound, kDenseRound}) {
    EXPECT_EQ(run_damaged(round,
                          [&](Buffer& in, const Layout& l, std::uint32_t,
                              std::uint32_t) {
                            const std::lock_guard<std::mutex> lock(mu);
                            seen.emplace_back(round, l);
                            // The layout accounts for the whole frame.
                            EXPECT_EQ(l.end, kFrame + load<std::uint32_t>(
                                                          bytes_of(in), 4));
                          }),
              "");
  }
  ASSERT_EQ(seen.size(), 6u);
  for (const auto& [round, l] : seen) {
    EXPECT_GT(l.sources, 1u);
    if (round == kHandshakeRound) {
      EXPECT_TRUE(l.handshake);
      EXPECT_TRUE(l.weighted);        // a real weighted handshake...
      EXPECT_GT(l.edges, l.sources);  // ...of several edges per source
    }
    if (round == kSparseRound) {
      EXPECT_EQ(l.mode, pw::kSparse);
      EXPECT_GT(l.count, 1u);  // some boundary vertices published...
      EXPECT_LT(l.count, l.sources);  // ...and some did not
    } else {
      EXPECT_EQ(l.mode, pw::kDense);  // every boundary vertex published
      EXPECT_EQ(l.count, l.sources);
    }
  }
}

TEST(PullPayload, UnknownHandshakeVersionRejected) {
  expect_rejected(kHandshakeRound,
                  poke([](std::byte* p, const Layout&, std::uint32_t,
                          std::uint32_t) {
                    store<std::uint8_t>(p, Layout::tag_at, pw::kVersion + 1);
                  }),
                  "handshake version 2");
}

TEST(PullPayload, UnknownHandshakeFlagRejected) {
  expect_rejected(kHandshakeRound,
                  poke([](std::byte* p, const Layout&, std::uint32_t,
                          std::uint32_t) {
                    store<std::uint8_t>(p, Layout::tag_at,
                                        pw::kVersion | pw::kWeighted | 0x40);
                  }),
                  "handshake flag 0x40");
}

TEST(PullPayload, HugeSourceCountRejectedBeforeAllocation) {
  expect_rejected(kHandshakeRound,
                  poke([](std::byte* p, const Layout&, std::uint32_t,
                          std::uint32_t) {
                    store<std::uint32_t>(p, Layout::source_count_at,
                                         0xFFFFFFFFu);
                  }),
                  "source count 2^32-1");
}

TEST(PullPayload, SourceCountPastTheBytesLeftRejected) {
  expect_rejected(
      kHandshakeRound,
      poke([](std::byte* p, const Layout& l, std::uint32_t, std::uint32_t) {
        const std::size_t left = l.end - Layout::source_at(0);
        store<std::uint32_t>(
            p, Layout::source_count_at,
            static_cast<std::uint32_t>(left / pw::kSourceBytes + 1));
      }),
      "source count past the payload");
}

TEST(PullPayload, SourceOutOfRangeRejected) {
  expect_rejected(
      kHandshakeRound,
      poke([](std::byte* p, const Layout& l, std::uint32_t,
              std::uint32_t n_from) {
        store<std::uint32_t>(p, Layout::source_at(l.sources - 1), n_from);
      }),
      "src lidx == peer's local count");
}

TEST(PullPayload, DescendingSourceRejected) {
  expect_rejected(
      kHandshakeRound,
      poke([](std::byte* p, const Layout& l, std::uint32_t, std::uint32_t) {
        // The last source is the peer's highest boundary vertex; the
        // first one's lidx after it descends.
        store<std::uint32_t>(p, Layout::source_at(l.sources - 1),
                             load<std::uint32_t>(p, Layout::source_at(0)));
      }),
      "src lidx descending");
}

TEST(PullPayload, RepeatedSourceRejected) {
  expect_rejected(
      kHandshakeRound,
      poke([](std::byte* p, const Layout&, std::uint32_t, std::uint32_t) {
        store<std::uint32_t>(p, Layout::source_at(1),
                             load<std::uint32_t>(p, Layout::source_at(0)));
      }),
      "src lidx repeated");
}

TEST(PullPayload, ZeroDegreeRejected) {
  expect_rejected(
      kHandshakeRound,
      poke([](std::byte* p, const Layout&, std::uint32_t, std::uint32_t) {
        store<std::uint32_t>(p, Layout::degree_at(0), 0u);
      }),
      "degree 0");
}

TEST(PullPayload, DegreeSumPastTheBytesLeftRejected) {
  expect_rejected(
      kHandshakeRound,
      poke([](std::byte* p, const Layout& l, std::uint32_t, std::uint32_t) {
        const auto left = static_cast<std::uint32_t>(l.end - l.target_at(0));
        store<std::uint32_t>(p, Layout::degree_at(l.sources - 1), left);
      }),
      "degree sum past the payload");
}

TEST(PullPayload, TargetOutOfRangeRejected) {
  expect_rejected(
      kHandshakeRound,
      poke([](std::byte* p, const Layout& l, std::uint32_t n_me,
              std::uint32_t) {
        store<std::uint32_t>(p, l.target_at(0), n_me);
      }),
      "dst lidx == this rank's local count");
}

TEST(PullPayload, UnknownModeRejected) {
  for (const int round : {kHandshakeRound, kSparseRound, kDenseRound}) {
    expect_rejected(
        round,
        poke([](std::byte* p, const Layout& l, std::uint32_t, std::uint32_t) {
          store<std::uint8_t>(p, l.mode_at, 7);
        }),
        "mode 7 in round " + std::to_string(round));
  }
}

TEST(PullPayload, DenseRoundTooShortRejected) {
  for (const int round : {kHandshakeRound, kDenseRound}) {
    expect_rejected(
        round,
        [](Buffer& in, const Layout&, std::uint32_t, std::uint32_t) {
          resize_frame(in, -1);
        },
        "dense round one byte short in round " + std::to_string(round));
  }
}

TEST(PullPayload, DenseRoundTooLongRejected) {
  for (const int round : {kHandshakeRound, kDenseRound}) {
    expect_rejected(
        round,
        [](Buffer& in, const Layout&, std::uint32_t, std::uint32_t) {
          resize_frame(in, sizeof(double));
        },
        "dense round one value long in round " + std::to_string(round));
  }
}

TEST(PullPayload, DenseModeOnASparseRoundRejected) {
  // A sparse round's bytes read as dense values do not fill the frame
  // exactly.
  expect_rejected(
      kSparseRound,
      poke([](std::byte* p, const Layout& l, std::uint32_t, std::uint32_t) {
        store<std::uint8_t>(p, l.mode_at, pw::kDense);
      }),
      "sparse round relabelled dense");
}

TEST(PullPayload, HugeValueCountRejected) {
  expect_rejected(
      kSparseRound,
      poke([](std::byte* p, const Layout& l, std::uint32_t, std::uint32_t) {
        store<std::uint32_t>(p, l.count_at(), 0xFFFFFFFFu);
      }),
      "sparse count 2^32-1");
}

TEST(PullPayload, BoundaryRowOutOfRangeRejected) {
  expect_rejected(
      kSparseRound,
      poke([](std::byte* p, const Layout& l, std::uint32_t, std::uint32_t) {
        store<std::uint32_t>(p, l.wire_at(l.count - 1), l.sources);
      }),
      "sparse row == the handshake's source count");
}

TEST(PullPayload, RepeatedBoundaryRowRejected) {
  expect_rejected(
      kSparseRound,
      poke([](std::byte* p, const Layout& l, std::uint32_t, std::uint32_t) {
        store<std::uint32_t>(p, l.wire_at(1),
                             load<std::uint32_t>(p, l.wire_at(0)));
      }),
      "sparse row repeated");
}

// ------------------------------------------------ decoder-level cases --

/// rank 0's inbox from rank 1 in the three captured rounds (payload bytes
/// past the frame header) and both ranks' local vertex counts.
struct Captured {
  std::vector<std::byte> first;   ///< handshake + dense values
  std::vector<std::byte> sparse;  ///< sparse values
  std::vector<std::byte> dense;   ///< steady dense values
  std::uint32_t n0 = 0;
  std::uint32_t n1 = 0;
};

Captured capture() {
  const auto dg = test_graph();
  Captured cap;
  cap.n0 = dg.num_local(0);
  cap.n1 = dg.num_local(1);
  run_team(dg, [&](int rank, int round, int /*from*/, Buffer& in) {
    if (rank != 0) return;
    std::vector<std::byte>* into = round == kHandshakeRound ? &cap.first
                                   : round == kSparseRound  ? &cap.sparse
                                   : round == kDenseRound   ? &cap.dense
                                                            : nullptr;
    if (into == nullptr) return;
    const std::byte* p = in.read_ptr() + kFrame;
    into->assign(p, in.read_ptr() + in.remaining());
  });
  return cap;
}

Buffer buffer_of(const std::vector<std::byte>& bytes) {
  Buffer in;
  in.write_bytes(bytes.data(), bytes.size());
  return in;
}

/// Gather every destination (touching every entry of the index).
void gather_all(const core::PullIndex<double>& index, std::uint32_t n) {
  double sum = 0.0;
  index.gather(
      0, n, [](const double& v, graph::Weight w) { return v * w; },
      [](const double& a, const double& b) { return a + b; },
      [&](std::uint32_t, const double& v) { sum += v; });
  (void)sum;
}

/// Decode `first` as rank 0's view of rank 1's first pull round, build the
/// index and gather; then, if given, decode `next` as the following
/// round's values and gather again.
void decode(const Captured& cap, const std::vector<std::byte>& first,
            const std::vector<std::byte>* next = nullptr) {
  Buffer in = buffer_of(first);
  core::PullIndex<double> index("pr", 0, {cap.n0, cap.n1});
  index.read_handshake(in, 1);
  index.read_values(in, 1);
  index.build();
  index.settle_own_freshness();
  gather_all(index, cap.n0);
  if (next == nullptr) return;
  index.advance_epoch();
  Buffer values = buffer_of(*next);
  index.read_values(values, 1);
  index.settle_own_freshness();
  gather_all(index, cap.n0);
}

TEST(PullPayload, ValuesWithoutAHandshakeRejected) {
  const Captured cap = capture();
  core::PullIndex<double> index("pr", 0, {cap.n0, cap.n1});
  for (const auto* bytes : {&cap.dense, &cap.sparse}) {
    Buffer in = buffer_of(*bytes);
    try {
      index.read_values(in, 1);
      ADD_FAILURE() << "values before a handshake were accepted";
    } catch (const ProtocolError& e) {
      EXPECT_NE(std::string(e.what()).find("before a handshake"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(PullPayload, SecondHandshakeRejected) {
  const Captured cap = capture();
  core::PullIndex<double> index("pr", 0, {cap.n0, cap.n1});
  Buffer in = buffer_of(cap.first);
  index.read_handshake(in, 1);
  in.rewind();
  EXPECT_THROW(index.read_handshake(in, 1), ProtocolError);
}

// ------------------------------------------------------ mutation sweep --

/// Apply one seeded mutation to `m`: flip a bit, overwrite a u32 at any
/// offset with a random or a boundary value, truncate, or append bytes.
void mutate(std::vector<std::byte>& m, std::mt19937& rng,
            const Captured& cap) {
  const auto put_u32 = [&](std::uint32_t v) {
    if (m.size() < sizeof(v)) return;
    std::memcpy(m.data() + rng() % (m.size() - sizeof(v) + 1), &v, sizeof(v));
  };
  switch (rng() % 5) {
    case 0: {
      const std::size_t bit = rng() % (m.size() * 8);
      m[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
      break;
    }
    case 1:
      put_u32(static_cast<std::uint32_t>(rng()));
      break;
    case 2: {
      const std::uint32_t edge[] = {0u,          1u,          cap.n0,
                                    cap.n1,      cap.n1 - 1u, 0xFFFFFFFFu,
                                    0x80000000u};
      put_u32(edge[rng() % std::size(edge)]);
      break;
    }
    case 3:
      m.resize(rng() % m.size());
      break;
    default:
      m.resize(m.size() + 1 + rng() % 16, std::byte{0x5a});
      break;
  }
}

/// Mutate `target` of `cap` kMutations times; each mutant must be
/// accepted or rejected with ProtocolError. Returns the rejections.
int sweep(const Captured& cap, std::vector<std::byte> Captured::*target,
          std::uint32_t seed) {
  constexpr int kMutations = 2000;
  std::mt19937 rng(seed);
  int rejected = 0;
  for (int i = 0; i < kMutations; ++i) {
    std::vector<std::byte> m = cap.*target;
    mutate(m, rng, cap);
    try {
      if (target == &Captured::first) {
        decode(cap, m);
      } else {
        decode(cap, cap.first, &m);
      }
    } catch (const ProtocolError&) {
      ++rejected;
    }
  }
  return rejected;
}

TEST(PullPayload, MutationSweepNeverCrashes) {
  const Captured cap = capture();
  ASSERT_GT(cap.first.size(), 2 * pw::kSourceBytes);
  ASSERT_FALSE(cap.sparse.empty());
  ASSERT_FALSE(cap.dense.empty());
  ASSERT_NO_THROW(decode(cap, cap.first, &cap.sparse));
  ASSERT_NO_THROW(decode(cap, cap.first, &cap.dense));

  // Most first-round mutations land in a field the decoder checks; a
  // values round rejects at least every resize (its values themselves are
  // free-form).
  EXPECT_GT(sweep(cap, &Captured::first, 20261019), 2000 / 4);
  EXPECT_GT(sweep(cap, &Captured::dense, 20261020), 2000 / 3);
  EXPECT_GT(sweep(cap, &Captured::sparse, 20261021), 2000 / 3);
}

}  // namespace
