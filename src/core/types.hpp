#pragma once
// Shared value-level vocabulary of the channel engine: vertex ids and
// combiners. `make_combiner(c_sum, 0.0)` is the exact construction the
// paper's Fig. 1 uses.

#include <concepts>
#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "graph/graph.hpp"

namespace pregel::core {

using graph::VertexId;
using KeyT = VertexId;  // the paper's name for vertex identifiers in APIs

/// Which function a combiner folds with: one of the stock c_* functions
/// below, or anything else (kCustom). Per-item folds dispatch on it once
/// per loop through with_combine_op(), so the stock functions inline.
enum class CombineOp : std::uint8_t { kCustom, kSum, kMin, kMax, kOr };

/// An associative, commutative binary function with an identity element.
/// Channels use combiners to merge message values for the same receiver
/// (sender side and receiver side), aggregators use them to fold global
/// contributions.
///
/// `exact` marks combiners whose fold may be regrouped into contiguous
/// segments without changing a single bit of the result — selections
/// (min/max/or) and integer sums. Combiner channels use it to combine at
/// stage time (one partial per compute slot, merged in slot order at
/// serialize); inexact folds (floating-point sums) keep their raw message
/// logs so the merged fold replays the sequential order message by
/// message. Leave it false when unsure: the only cost is staging memory.
///
/// `op` names the stock function `fn` wraps (make_combiner sets it);
/// kCustom folds call `fn`, one indirect call per item.
template <typename T>
struct Combiner {
  std::function<T(const T&, const T&)> fn;
  T identity{};
  bool exact = false;
  CombineOp op = CombineOp::kCustom;

  /// One fold: a switch on `op`, then the inlined stock function or `fn`.
  /// Loops hoist the switch out with with_combine_op().
  T operator()(const T& a, const T& b) const;
};

// The stock combining functions the paper's examples use.
inline constexpr auto c_sum = [](const auto& a, const auto& b) {
  return a + b;
};
inline constexpr auto c_min = [](const auto& a, const auto& b) {
  return a < b ? a : b;
};
inline constexpr auto c_max = [](const auto& a, const auto& b) {
  return a < b ? b : a;
};
inline constexpr auto c_or = [](const auto& a, const auto& b) {
  return a || b;
};

namespace detail {

/// The CombineOp tag of a combining function type, by identity with the
/// stock lambdas.
template <typename Fn>
constexpr CombineOp combine_op_of() {
  using F = std::decay_t<Fn>;
  if constexpr (std::is_same_v<F, std::decay_t<decltype(c_sum)>>) {
    return CombineOp::kSum;
  } else if constexpr (std::is_same_v<F, std::decay_t<decltype(c_min)>>) {
    return CombineOp::kMin;
  } else if constexpr (std::is_same_v<F, std::decay_t<decltype(c_max)>>) {
    return CombineOp::kMax;
  } else if constexpr (std::is_same_v<F, std::decay_t<decltype(c_or)>>) {
    return CombineOp::kOr;
  } else {
    return CombineOp::kCustom;
  }
}

// Value types each stock function accepts: with_combine_op compiles a
// stock branch only for these.
template <typename T>
concept Summable = requires(const T& a, const T& b) {
  { a + b } -> std::convertible_to<T>;
};
template <typename T>
concept Ordered = requires(const T& a, const T& b) {
  { a < b } -> std::convertible_to<bool>;
};
template <typename T>
concept Disjunctive = requires(const T& a, const T& b) {
  { a || b } -> std::convertible_to<T>;
};

}  // namespace detail

template <typename T, typename Fn>
Combiner<T> make_combiner(Fn&& f, T identity, bool exact) {
  constexpr CombineOp op = detail::combine_op_of<Fn>();
  return Combiner<T>{std::forward<Fn>(f), std::move(identity), exact, op};
}

template <typename T, typename Fn>
Combiner<T> make_combiner(Fn&& f, T identity) {
  // Recognize the stock functions whose folds regroup exactly: selections
  // always (they return one of their inputs), sums only over integers
  // (IEEE float addition is not associative). Custom functions default to
  // inexact; pass `exact` explicitly when theirs regroups.
  constexpr CombineOp op = detail::combine_op_of<Fn>();
  constexpr bool exact =
      op == CombineOp::kMin || op == CombineOp::kMax ||
      op == CombineOp::kOr || (op == CombineOp::kSum && std::is_integral_v<T>);
  return make_combiner(std::forward<Fn>(f), std::move(identity), exact);
}

/// Run `body(combine)` with `combine` the combiner's fold as a callable
/// T(const T&, const T&): the stock function itself for stock ops — a
/// stateless lambda the compiler inlines into the body's loop — and the
/// type-erased `fn` for kCustom. Switch once per loop, not per item:
///
///   with_combine_op(c, [&](const auto& combine) {
///     for (...) acc = combine(acc, v);
///   });
///
/// Each stock branch is compiled only for value types the stock function
/// accepts (MSF's CandEdge has neither `+` nor `<`); a type without one
/// folds through `fn` whatever its tag. Results are those of `fn`: the
/// stock lambdas convert back to T exactly as the std::function's return
/// does.
template <typename T, typename Body>
decltype(auto) with_combine_op(const Combiner<T>& c, Body&& body) {
  switch (c.op) {
    case CombineOp::kSum:
      if constexpr (detail::Summable<T>) {
        return body([](const T& a, const T& b) -> T { return c_sum(a, b); });
      }
      break;
    case CombineOp::kMin:
      if constexpr (detail::Ordered<T>) {
        return body([](const T& a, const T& b) -> T { return c_min(a, b); });
      }
      break;
    case CombineOp::kMax:
      if constexpr (detail::Ordered<T>) {
        return body([](const T& a, const T& b) -> T { return c_max(a, b); });
      }
      break;
    case CombineOp::kOr:
      if constexpr (detail::Disjunctive<T>) {
        return body([](const T& a, const T& b) -> T { return c_or(a, b); });
      }
      break;
    case CombineOp::kCustom:
      break;
  }
  return body(c.fn);
}

template <typename T>
T Combiner<T>::operator()(const T& a, const T& b) const {
  return with_combine_op(
      *this, [&](const auto& combine) -> T { return combine(a, b); });
}

namespace detail {

/// A callable owned behind a type-erased pointer: channels keep their edge
/// transform this way and read it back only from code instantiated for
/// its type.
using ErasedFn = std::unique_ptr<const void, void (*)(const void*)>;

template <typename F>
ErasedFn erase_fn(F f) {
  return ErasedFn(new F(std::move(f)), [](const void* p) {
    delete static_cast<const F*>(p);
  });
}

/// The per-item step of every receive slot and dense staging partial:
/// fold v into vals[i], or take it — recording i in first-touch order —
/// when nothing is there yet.
template <typename T, typename Combine>
void fold_slot(std::vector<T>& vals, std::vector<std::uint8_t>& has,
               std::vector<std::uint32_t>& touched, std::uint32_t i,
               const T& v, const Combine& combine) {
  if (has[i]) {
    vals[i] = combine(vals[i], v);
  } else {
    vals[i] = v;
    has[i] = 1;
    touched.push_back(i);
  }
}

}  // namespace detail

}  // namespace pregel::core
