// Multilevel bisection (METIS-style): heavy-edge-matching coarsening,
// greedy region-growing initial partitions on the coarsest graph, and
// weighted FM refinement during uncoarsening.
//
// Every level, the input included, is a weighted CSR graph: each row
// holds a node's distinct neighbors in ascending order with the summed
// weight of the edges to each (parallel input edges become one weighted
// edge). Coarse nodes carry the summed weight of the nodes they absorb.
//
// This is the practical workhorse for partitioning the larger butterfly
// instances (B1024 and up) where flat FM from random starts becomes slow
// or unreliable; on the paper's families it routinely recovers the
// folklore-optimal cuts in milliseconds.
#pragma once

#include <cstdint>

#include "core/graph.hpp"
#include "core/thread_pool.hpp"
#include "cut/bisection.hpp"
#include "cut/incumbent.hpp"

namespace bfly::cut {

struct MultilevelOptions {
  std::uint32_t coarsen_to = 24;      ///< stop coarsening at this size
  std::uint32_t initial_tries = 16;   ///< region-growing attempts
  std::uint32_t refine_passes = 12;   ///< FM passes per level
  std::uint32_t cycles = 2;           ///< independent V-cycles
  std::uint64_t seed = 0x313371u;
  /// Cooperative cancellation, checked between V-cycles. A run cancelled
  /// before its first cycle completes returns capacity SIZE_MAX with an
  /// empty side vector.
  const CancelToken* cancel = nullptr;
  /// Portfolio hook: each V-cycle's bisection is offered to the shared
  /// incumbent (one-way; never read back).
  IncumbentPublisher* incumbent = nullptr;
};

[[nodiscard]] CutResult min_bisection_multilevel(
    const Graph& g, const MultilevelOptions& opts = {});

}  // namespace bfly::cut
