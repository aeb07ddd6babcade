#include "runtime/run_config.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <span>
#include <stdexcept>
#include <string_view>
#include <system_error>
#include <thread>
#include <type_traits>

extern char** environ;

namespace pregel::runtime {

namespace {

/// The range column of PGCH_RUN_CONFIG_KNOBS; ignored by non-numeric
/// knobs.
struct Range {
  double lo = 0.0;
  double hi = 0.0;
  bool clamp = false;  ///< out-of-range numbers clamp instead of throwing
};
constexpr Range in(double lo, double hi) { return {lo, hi, false}; }
constexpr Range clamped(double lo, double hi) { return {lo, hi, true}; }

template <class T>
struct Word {
  std::string_view text;
  T value;
};

// The spellings of each non-numeric knob type; print() writes the first
// spelling of a value. PGCH_MMAP spells its on/off through kBoolWords.
constexpr Word<bool> kBoolWords[] = {{"1", true},    {"0", false},
                                     {"true", true}, {"false", false},
                                     {"on", true},   {"off", false}};
constexpr Word<DirectionMode> kDirectionWords[] = {
    {"push", DirectionMode::kPush},
    {"pull", DirectionMode::kPull},
    {"adaptive", DirectionMode::kAdaptive}};
constexpr Word<TransportKind> kTransportWords[] = {
    {"inprocess", TransportKind::kInProcess}, {"tcp", TransportKind::kTcp}};
constexpr Word<PartitionKind> kPartitionWords[] = {
    {"range", PartitionKind::kRange},
    {"degree", PartitionKind::kDegree},
    {"hash", PartitionKind::kHash}};
constexpr Word<FaultSpec::Kind> kFaultKindWords[] = {
    {"exit", FaultSpec::Kind::kExit},
    {"hang", FaultSpec::Kind::kHang},
    {"corrupt", FaultSpec::Kind::kCorrupt}};

template <class T>
constexpr std::span<const Word<T>> words() {
  if constexpr (std::is_same_v<T, bool>) return kBoolWords;
  else if constexpr (std::is_same_v<T, DirectionMode>) return kDirectionWords;
  else if constexpr (std::is_same_v<T, TransportKind>) return kTransportWords;
  else if constexpr (std::is_same_v<T, PartitionKind>) return kPartitionWords;
  else return kFaultKindWords;
}

[[noreturn]] void reject(const std::string& expected, std::string_view text) {
  throw std::invalid_argument("expected " + expected + ", got '" +
                              std::string(text) + "'");
}

template <class T>
T lookup(std::span<const Word<T>> table, std::string_view text) {
  std::string expected;
  for (const Word<T>& w : table) {
    if (w.text == text) return w.value;
    if (!expected.empty()) expected += '|';
    expected += w.text;
  }
  reject(expected, text);
}

template <class T>
std::string spelling(std::span<const Word<T>> table, T value) {
  for (const Word<T>& w : table) {
    if (w.value == value) return std::string(w.text);
  }
  return {};
}

/// The shortest text that parses back to `v`.
std::string format_number(double v) {
  char buf[32];
  return {buf, std::to_chars(buf, buf + sizeof buf, v).ptr};
}

/// Whole-string parse of an N (long long or double) inside `r`.
template <class N>
N parse_number(std::string_view text, Range r) {
  N v{};
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, v);
  const bool whole = stop == end;
  const bool overflow = ec == std::errc::result_out_of_range && whole;
  if (overflow && r.clamp) return static_cast<N>(text[0] == '-' ? r.lo : r.hi);
  if (ec != std::errc{} || !whole ||
      ((v < r.lo || v > r.hi) && !r.clamp)) {
    reject(std::string(std::is_integral_v<N> ? "an integer" : "a number") +
               " in [" + format_number(r.lo) + ", " + format_number(r.hi) +
               "]",
           text);
  }
  return static_cast<N>(std::clamp(static_cast<double>(v), r.lo, r.hi));
}

template <class T>
void parse_into(T& out, std::string_view text, Range r) {
  if constexpr (std::is_same_v<T, int>) {
    out = static_cast<int>(parse_number<long long>(text, r));
  } else if constexpr (std::is_same_v<T, double>) {
    out = parse_number<double>(text, r);
  } else if constexpr (std::is_same_v<T, std::string>) {
    out = text;
  } else if constexpr (std::is_same_v<T, FaultSpec>) {
    out = FaultSpec::parse(std::string(text));
  } else if constexpr (std::is_same_v<T, MmapMode>) {
    out = lookup(words<bool>(), text) ? MmapMode::kOn : MmapMode::kOff;
  } else if constexpr (std::is_same_v<T, std::optional<int>>) {
    out = text == "auto"
              ? -1
              : static_cast<int>(parse_number<long long>(text, r));
  } else if constexpr (std::is_same_v<T, std::optional<PartitionKind>>) {
    out = lookup(words<PartitionKind>(), text);
  } else {
    out = lookup(words<T>(), text);
  }
}

/// The text form parse_into() reads back; "" for an unset knob.
template <class T>
std::string print(const T& v) {
  if constexpr (std::is_same_v<T, int>) {
    return std::to_string(v);
  } else if constexpr (std::is_same_v<T, double>) {
    return format_number(v);
  } else if constexpr (std::is_same_v<T, std::string>) {
    return v;
  } else if constexpr (std::is_same_v<T, FaultSpec>) {
    if (!v.enabled()) return {};
    return "rank=" + std::to_string(v.rank) + ",superstep=" +
           std::to_string(v.superstep) +
           ",kind=" + spelling(words<FaultSpec::Kind>(), v.kind);
  } else if constexpr (std::is_same_v<T, MmapMode>) {
    if (v == MmapMode::kAuto) return {};
    return spelling(words<bool>(), v == MmapMode::kOn);
  } else if constexpr (std::is_same_v<T, std::optional<int>>) {
    return !v ? "" : *v < 0 ? "auto" : std::to_string(*v);
  } else if constexpr (std::is_same_v<T, std::optional<PartitionKind>>) {
    return v ? spelling(words<PartitionKind>(), *v) : "";
  } else {
    return spelling(words<T>(), v);
  }
}

/// Single-quote a value the shell would otherwise split or expand.
std::string shell_quoted(const std::string& v) {
  const bool plain = !v.empty() && std::all_of(v.begin(), v.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) != 0 ||
           std::string_view("_-.,:/=+@%").find(c) != std::string_view::npos;
  });
  if (plain) return v;
  std::string out = "'";
  for (const char c : v) {
    out += c == '\'' ? std::string("'\\''") : std::string(1, c);
  }
  return out + "'";
}

}  // namespace

FaultSpec FaultSpec::parse(const std::string& text) {
  FaultSpec spec;
  std::string_view rest(text);
  while (true) {
    const std::string_view item = rest.substr(0, rest.find(','));
    const std::size_t eq = item.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      reject("rank=<r>,superstep=<s>,kind=<k>", text);
    }
    const std::string_view key = item.substr(0, eq);
    const std::string_view value = item.substr(eq + 1);
    if (key == "rank" || key == "superstep") {
      (key == "rank" ? spec.rank : spec.superstep) =
          static_cast<int>(parse_number<long long>(
              value, in(-RunConfig::kMaxInt, RunConfig::kMaxInt)));
    } else if (key == "kind") {
      spec.kind = lookup(words<Kind>(), value);
    } else {
      reject("a key of rank, superstep or kind", key);
    }
    if (item.size() == rest.size()) break;
    rest.remove_prefix(item.size() + 1);
  }
  if (spec.kind == Kind::kNone || spec.rank < 0 || spec.superstep < 1) {
    reject("rank>=0, superstep>=1 and a kind", text);
  }
  return spec;
}

/// The one reader of the process environment: nothing else under src/
/// calls getenv.
RunConfig RunConfig::from_env() {
  std::map<std::string, std::string> vars;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string_view entry(*e);
    if (!entry.starts_with("PGCH_")) continue;
    const std::size_t eq = entry.find('=');
    vars.emplace(entry.substr(0, eq),
                 eq == std::string_view::npos ? "" : entry.substr(eq + 1));
  }
  return from_vars(vars);
}

RunConfig RunConfig::from_vars(const std::map<std::string, std::string>& vars) {
  RunConfig cfg;
  for (const auto& [name, value] : vars) {
    if (!name.starts_with("PGCH_") ||
        std::any_of(std::begin(kHarnessPrefixes), std::end(kHarnessPrefixes),
                    [&](const char* p) { return name.starts_with(p); })) {
      continue;
    }
    try {
#define PGCH_PARSE_KNOB(var, field, type, def, range, doc) \
  if (name == var) {                                       \
    if (!value.empty()) parse_into(cfg.field, value, range); \
    continue;                                              \
  }
      PGCH_RUN_CONFIG_KNOBS(PGCH_PARSE_KNOB)
#undef PGCH_PARSE_KNOB
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument(name + ": " + e.what());
    }
    throw std::invalid_argument(
        name + ": unknown PGCH_* variable (README.md lists every knob)");
  }
  // Comm fan-out on a single-core host only buys fork/join and cache
  // contention, so there the default stays sequential. hardware_concurrency()
  // == 0 means "unknown", not "one core".
  if (cfg.comm_threads == 0) {
    cfg.comm_threads =
        std::thread::hardware_concurrency() == 1 ? 1 : cfg.compute_threads;
  }
  return cfg;
}

std::map<std::string, std::string> RunConfig::to_vars() const {
  std::map<std::string, std::string> vars;
#define PGCH_PRINT_KNOB(var, field, type, def, range, doc) \
  vars.emplace(var, print(field));
  PGCH_RUN_CONFIG_KNOBS(PGCH_PRINT_KNOB)
#undef PGCH_PRINT_KNOB
  return vars;
}

std::string RunConfig::to_env_line() const {
  const std::map<std::string, std::string> defaults = RunConfig{}.to_vars();
  std::string line;
  for (const auto& [name, value] : to_vars()) {
    if (value == defaults.at(name)) continue;
    if (!line.empty()) line += ' ';
    line += name + "=" + shell_quoted(value);
  }
  return line;
}

}  // namespace pregel::runtime
