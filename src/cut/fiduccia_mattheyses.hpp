// Fiduccia–Mattheyses-style bisection refinement: single-node moves with
// balance control, a gain-bucket structure per side (O(1) update per gain
// change and O(1) selection of max gain with ties to the highest node
// id), one-move-per-node passes with best-balanced-prefix rollback,
// random restarts. The pass is the shared weighted refiner of
// cut/gain_buckets.hpp at unit weights.
#pragma once

#include <cstdint>
#include <vector>

#include "core/graph.hpp"
#include "core/thread_pool.hpp"
#include "cut/bisection.hpp"
#include "cut/incumbent.hpp"

namespace bfly::cut {

struct FiducciaMattheysesOptions {
  std::uint32_t restarts = 8;
  std::uint32_t max_passes = 24;  ///< per restart
  std::uint64_t seed = 0x666du;   // "fm"
  /// Worker threads for the independent restarts (0 = serial). The
  /// result is deterministic regardless of thread count: every restart
  /// derives its own seed, and ties break toward the lowest restart
  /// index.
  std::uint32_t num_threads = 0;
  /// Cooperative cancellation, checked before each restart. A cancelled
  /// run returns the best bisection among restarts that did run.
  const CancelToken* cancel = nullptr;
  /// Portfolio hook: each restart's final bisection is offered to the
  /// shared incumbent (one-way; never read back, so the result stays
  /// deterministic).
  IncumbentPublisher* incumbent = nullptr;
};

[[nodiscard]] CutResult min_bisection_fiduccia_mattheyses(
    const Graph& g, const FiducciaMattheysesOptions& opts = {});

/// Refines an existing side assignment in place (no restarts); returns the
/// refined result. Used to polish spectral/constructive cuts.
[[nodiscard]] CutResult refine_fiduccia_mattheyses(
    const Graph& g, std::vector<std::uint8_t> sides,
    std::uint32_t max_passes = 24);

}  // namespace bfly::cut
