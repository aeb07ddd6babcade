#include "runtime/stats.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <type_traits>

namespace pregel::runtime {

namespace {

template <class F>
void for_each_field(F&& fn) {
  std::apply([&](const auto&... f) { (fn(f), ...); }, kRunStatsFields);
}

/// A rule its field's type does not support fails to compile here.
template <Merge M, class T>
void merge_field(T& into, const T& from) {
  if constexpr (M == Merge::kSum || M == Merge::kMax) {
    static_assert(std::is_arithmetic_v<T>);
    into = M == Merge::kSum ? into + from : std::max(into, from);
  } else if constexpr (M == Merge::kMapSum) {
    for (const auto& [key, value] : from) into[key] += value;
  } else if constexpr (M == Merge::kConcat) {
    into.insert(into.end(), from.begin(), from.end());
  } else if constexpr (M == Merge::kAgree) {
    // A divergence means a collective decision broke (e.g. PGCH_DIRECTION
    // set differently across TCP rank processes) — fail loudly rather than
    // report a record that describes no actual run.
    if (into.empty()) {
      into = from;
    } else if (!from.empty() && into != from) {
      throw std::logic_error(
          "RunStats::merge_from: ranks disagree on a collective "
          "per-superstep sequence (the push/pull direction must be "
          "collective)");
    }
  } else {
    // Element-wise; ranks agree on the superstep count, but tolerate a
    // short tail anyway.
    if (from.size() > into.size()) into.resize(from.size());
    for (std::size_t i = 0; i < from.size(); ++i) {
      into[i] = M == Merge::kElementSum ? into[i] + from[i]
                                        : std::max(into[i], from[i]);
    }
  }
}

template <class T>
void write_field(Buffer& out, const T& v) {
  if constexpr (requires { typename T::mapped_type; }) {
    out.write<std::uint32_t>(checked_u32(v.size(), "RunStats map size"));
    for (const auto& [key, value] : v) {
      out.write_string(key);
      out.write(value);
    }
  } else if constexpr (requires { typename T::value_type; }) {
    out.write_vector(v);
  } else {
    out.write(v);
  }
}

template <class T>
void read_field(Buffer& in, T& v) {
  if constexpr (requires { typename T::mapped_type; }) {
    const auto n = in.read<std::uint32_t>();
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::string key = in.read_string();
      v[key] = in.read<typename T::mapped_type>();
    }
  } else if constexpr (requires { typename T::value_type; }) {
    v = in.read_vector<typename T::value_type>();
  } else {
    v = in.read<T>();
  }
}

}  // namespace

double RunStats::imbalance(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0, peak = 0.0;
  for (const double x : v) {
    sum += x;
    peak = std::max(peak, x);
  }
  if (sum <= 0.0) return 0.0;
  return peak / (sum / static_cast<double>(v.size()));
}

void RunStats::merge_from(const RunStats& other) {
  for_each_field([&](const auto& f) {
    merge_field<std::remove_cvref_t<decltype(f)>::kMerge>(this->*f.member,
                                                           other.*f.member);
  });
}

void RunStats::serialize(Buffer& out) const {
  for_each_field([&](const auto& f) { write_field(out, this->*f.member); });
}

RunStats RunStats::deserialize(Buffer& in) {
  RunStats s;
  for_each_field([&](const auto& f) { read_field(in, s.*f.member); });
  return s;
}

std::string RunStats::summary() const {
  std::ostringstream os;
  os << std::fixed << std::setprecision(3) << seconds << " s  "
     << std::setprecision(2) << message_mb() << " MB  " << supersteps
     << " steps  " << comm_rounds << " rounds";
  return os.str();
}

std::string RunStats::detailed() const {
  std::ostringstream os;
  os << summary() << "\n";
  if (compute_seconds != 0.0 || comm_seconds != 0.0) {
    os << "  compute " << std::fixed << std::setprecision(3)
       << compute_seconds << " s / communicate " << comm_seconds << " s";
    if (serialize_seconds != 0.0 || exchange_seconds != 0.0 ||
        deliver_seconds != 0.0) {
      os << " (serialize " << serialize_seconds << " s, exchange "
         << exchange_seconds << " s, deliver " << deliver_seconds << " s)";
    }
    os << "\n";
  }
  if (!rank_compute_seconds.empty() || !compute_slot_seconds.empty()) {
    os << "  imbalance (max/mean compute CPU):";
    if (!rank_compute_seconds.empty()) {
      os << " ranks " << std::fixed << std::setprecision(2)
         << rank_imbalance() << "x over " << rank_compute_seconds.size();
    }
    if (!compute_slot_seconds.empty()) {
      os << (rank_compute_seconds.empty() ? "" : ",") << " slots "
         << std::fixed << std::setprecision(2) << slot_imbalance()
         << "x over " << compute_slot_seconds.size();
    }
    os << "\n";
  }
  if (pipelined_rounds != 0) {
    os << "  pipelined: " << pipelined_rounds << "/" << comm_rounds
       << " rounds, " << chunks_sent << " chunks sent / " << chunks_received
       << " received, overlap " << std::fixed << std::setprecision(3)
       << overlap_seconds << " s\n";
  }
  for (const auto& [name, bytes] : bytes_by_channel) {
    os << "  channel " << name << ": " << std::fixed << std::setprecision(2)
       << static_cast<double>(bytes) / (1024.0 * 1024.0) << " MB\n";
  }
  if (frame_bytes != 0) {
    os << "  frame overhead: " << std::fixed << std::setprecision(2)
       << static_cast<double>(frame_bytes) / (1024.0 * 1024.0) << " MB\n";
  }
  if (active_vertex_total != 0 && !active_per_superstep.empty()) {
    os << "  active vertices: " << active_vertex_total << " total, "
       << active_vertex_total / active_per_superstep.size()
       << " avg/superstep\n";
  }
  if (!direction_per_superstep.empty()) {
    // Run-length encoded alongside the frontier sizes: each segment shows
    // the direction, how many consecutive supersteps ran it, and the
    // frontier-size range those supersteps saw.
    os << "  direction/superstep:";
    std::size_t i = 0;
    while (i < direction_per_superstep.size()) {
      std::size_t j = i;
      while (j < direction_per_superstep.size() &&
             direction_per_superstep[j] == direction_per_superstep[i]) {
        ++j;
      }
      os << " " << (direction_per_superstep[i] != 0 ? "pull" : "push") << "x"
         << (j - i);
      if (i < active_per_superstep.size()) {
        std::uint64_t lo = active_per_superstep[i], hi = lo;
        for (std::size_t k = i; k < j && k < active_per_superstep.size();
             ++k) {
          lo = std::min(lo, active_per_superstep[k]);
          hi = std::max(hi, active_per_superstep[k]);
        }
        os << "(active " << lo;
        if (hi != lo) os << ".." << hi;
        os << ")";
      }
      i = j;
    }
    os << "\n";
  }
  if (!bytes_per_superstep.empty()) {
    std::uint64_t total = 0, peak = 0;
    for (const std::uint64_t b : bytes_per_superstep) {
      total += b;
      peak = std::max(peak, b);
    }
    os << "  exchange bytes/superstep: "
       << total / bytes_per_superstep.size() << " avg, " << peak
       << " peak\n";
  }
  return os.str();
}

}  // namespace pregel::runtime
