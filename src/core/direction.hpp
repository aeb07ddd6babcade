#pragma once
// Direction-optimizing compute (DESIGN.md section 9): whether a channel
// moves values by PUSHING messages along out-edges (stage -> serialize ->
// exchange -> deliver) or by PULLING them — each destination vertex
// gathers directly from its in-neighbors' published values, paying zero
// wire bytes for rank-local edges.
//
// The direction is a per-superstep, per-channel property. The engine
// decides it collectively before the compute phase (every rank sees the
// same global frontier size, so every rank picks the same direction) and
// pushes it into each pull-capable channel via Channel::set_direction().

#include <cstdint>

#include "runtime/run_config.hpp"

namespace pregel::core {

/// The direction one superstep's value movement takes on one channel.
enum class Direction : std::uint8_t { kPush = 0, kPull = 1 };

/// How the engine picks the direction each superstep (PGCH_DIRECTION):
/// forced push, forced pull, or the frontier-density heuristic below.
using DirectionMode = runtime::DirectionMode;

/// Density heuristic thresholds, expressed as denominators over the global
/// vertex count and chosen to match the ActiveSet dense/sparse compute
/// dispatch (VertexColumns::kSparseDenominator): ENTER pull when the
/// global frontier reaches V/4 (the compute phase goes dense at the same
/// point), EXIT back to push only when it falls under V/8. The gap is the
/// hysteresis — a frontier oscillating around V/4 does not flap the
/// direction (and with it the one-time pull handshake amortization).
inline constexpr std::uint64_t kPullEnterDenominator = 4;
inline constexpr std::uint64_t kPullExitDenominator = 8;

/// One step of the adaptive decision: given the previous superstep's
/// direction and the global frontier size, pick this superstep's. Pure so
/// every rank computes the identical answer from the identical collective
/// inputs (and so tests can table-check the hysteresis).
inline Direction adaptive_direction(Direction previous,
                                    std::uint64_t global_active,
                                    std::uint64_t num_vertices) {
  if (previous == Direction::kPull) {
    return global_active * kPullExitDenominator >= num_vertices
               ? Direction::kPull
               : Direction::kPush;
  }
  return global_active * kPullEnterDenominator >= num_vertices
             ? Direction::kPull
             : Direction::kPush;
}

}  // namespace pregel::core
