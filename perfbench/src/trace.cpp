#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <stdexcept>

namespace perfbench {

Tracer::Tracer(int world)
    : events_(static_cast<std::size_t>(world)),
      checkpoint_bytes_(static_cast<std::size_t>(world), 0) {
  // Reserve up front so a traced superstep never pays a reallocation.
  for (auto& v : events_) v.reserve(std::size_t{1} << 15);
}

namespace {

Layer call_layer(Op op) {
  switch (op) {
    case Op::kHbOpen:
    case Op::kHbClose:
      return kCompute;
    case Op::kExchange:
      return kWire;
    default:
      return is_control(op) ? kControl : kOther;
  }
}

/// Layer of the gap between a call returning `prev` and the next one
/// entering `next` (kStep stands for a superstep boundary).
Layer gap_layer(Op prev, Op next) {
  if (next == Op::kHbClose) return kCompute;
  if (next == Op::kExchange) return kSerialize;
  if (prev == Op::kExchange) return kDeliver;
  // Inside a superstep the only barrier is the checkpoint commit: the halt
  // vote's return -> barrier is the durable write, barrier return -> next
  // superstep is the marker write and retention prune.
  if (prev == Op::kOr && next == Op::kBarrier) return kCheckpoint;
  if (prev == Op::kBarrier) return kCheckpoint;
  return kOther;
}

}  // namespace

RankBreakdown classify(const std::vector<Event>& events) {
  RankBreakdown out;
  std::vector<std::size_t> marks;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].op == Op::kStep) marks.push_back(i);
  }
  if (marks.empty()) throw std::runtime_error("trace: no superstep marks");
  // The last superstep ends when its halt vote (the final allreduce_or)
  // returns; later calls are the post-loop stats fold.
  std::size_t halt_vote = events.size();
  for (std::size_t i = marks.back() + 1; i < events.size(); ++i) {
    if (events[i].op == Op::kOr) halt_vote = i;
  }
  if (halt_vote == events.size()) {
    throw std::runtime_error("trace: last superstep has no halt vote");
  }

  for (std::size_t k = 0; k < marks.size(); ++k) {
    const bool last = k + 1 == marks.size();
    const std::size_t first = marks[k] + 1;
    const std::size_t stop = last ? halt_vote + 1 : marks[k + 1];
    StepBreakdown sb;
    sb.step = events[marks[k]].step;
    sb.start = events[marks[k]].t0;
    sb.end = last ? events[halt_vote].t1 : events[marks[k + 1]].t0;
    sb.frontier_edges = events[marks[k]].a;
    sb.frontier_size = events[marks[k]].b;

    const auto add = [&](Layer layer, std::int64_t a, std::int64_t b) {
      if (b < a) throw std::runtime_error("trace: events out of order");
      sb.ns[static_cast<std::size_t>(layer)] += b - a;
      if (b == a) return;
      // Adjacent intervals of one layer (the compute window's calls and
      // the gap between them) become one trace span.
      if (!out.segments.empty() && out.segments.back().layer == layer &&
          out.segments.back().t1 == a) {
        out.segments.back().t1 = b;
      } else {
        out.segments.push_back(Segment{layer, a, b});
      }
    };
    Op prev = Op::kStep;
    std::int64_t prev_end = sb.start;
    for (std::size_t i = first; i < stop; ++i) {
      const Event& e = events[i];
      add(gap_layer(prev, e.op), prev_end, e.t0);
      add(call_layer(e.op), e.t0, e.t1);
      if (e.op == Op::kExchange) {
        out.exchange_entry.push_back(e.t0);
        out.exchange_bytes.push_back(e.a);
      }
      if (is_control(e.op)) {
        ++sb.control_calls;
        out.control_ns.push_back(e.t1 - e.t0);
      }
      prev = e.op;
      prev_end = e.t1;
    }
    add(gap_layer(prev, Op::kStep), prev_end, sb.end);
    out.steps.push_back(sb);
  }
  return out;
}

void write_chrome_trace(const std::string& path, const std::string& title,
                        const std::vector<RankBreakdown>& ranks) {
  std::int64_t origin = std::numeric_limits<std::int64_t>::max();
  for (const RankBreakdown& r : ranks) {
    if (!r.steps.empty()) origin = std::min(origin, r.steps.front().start);
  }
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write trace file " + path);
  const auto us = [origin](std::int64_t t) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(t - origin) / 1e3);
    return std::string(buf);
  };
  const auto dur = [](std::int64_t a, std::int64_t b) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(b - a) / 1e3);
    return std::string(buf);
  };
  os << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"job\":\"" << title
     << "\"},\"traceEvents\":[\n";
  bool first = true;
  const auto sep = [&]() -> std::ostream& {
    if (!first) os << ",\n";
    first = false;
    return os;
  };
  for (std::size_t rank = 0; rank < ranks.size(); ++rank) {
    const RankBreakdown& r = ranks[rank];
    sep() << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << rank
          << ",\"args\":{\"name\":\"rank " << rank << "\"}}";
    for (const StepBreakdown& s : r.steps) {
      sep() << "{\"name\":\"superstep " << s.step
            << "\",\"cat\":\"superstep\",\"ph\":\"X\",\"pid\":" << rank
            << ",\"tid\":0,\"ts\":" << us(s.start)
            << ",\"dur\":" << dur(s.start, s.end) << "}";
      sep() << "{\"name\":\"frontier\",\"ph\":\"C\",\"pid\":" << rank
            << ",\"ts\":" << us(s.start) << ",\"args\":{\"active\":"
            << s.frontier_size << ",\"out_edges\":" << s.frontier_edges
            << "}}";
    }
    for (const Segment& seg : r.segments) {
      sep() << "{\"name\":\"" << kLayerNames[static_cast<std::size_t>(seg.layer)]
            << "\",\"cat\":\"layer\",\"ph\":\"X\",\"pid\":" << rank
            << ",\"tid\":0,\"ts\":" << us(seg.t0)
            << ",\"dur\":" << dur(seg.t0, seg.t1) << "}";
    }
    for (std::size_t i = 0; i < r.exchange_entry.size(); ++i) {
      sep() << "{\"name\":\"exchange bytes\",\"ph\":\"C\",\"pid\":" << rank
            << ",\"ts\":" << us(r.exchange_entry[i]) << ",\"args\":{\"bytes\":"
            << r.exchange_bytes[i] << "}}";
    }
  }
  os << "\n]}\n";
}

}  // namespace perfbench
