// Common vocabulary for bisection solvers (paper Section 1.2).
//
// A cut (S, S̄) is stored as a 0/1 side vector; its capacity is the number
// of edges crossing it. A bisection requires both sides <= ceil(N/2). The
// U-bisection width BW(G, U) (Section 2.1) minimizes capacity over cuts
// that bisect the subset U.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/graph.hpp"
#include "core/types.hpp"

namespace bfly::cut {

/// How trustworthy a reported capacity is; benches print this tag.
enum class Exactness {
  kExact,      ///< provably optimal for the stated constraint
  kBound,      ///< a valid one-sided bound from a construction/analysis
  kHeuristic,  ///< best found by a heuristic; no optimality claim
};

[[nodiscard]] const char* to_string(Exactness e);

struct CutResult {
  std::vector<std::uint8_t> sides;  ///< 0/1 per node (may be empty for
                                    ///< purely analytic results)
  std::size_t capacity = 0;
  Exactness exactness = Exactness::kHeuristic;
  std::string method;
  /// Restart / V-cycle work units the solver actually completed (0 for
  /// single-shot and exact solvers). Portfolio telemetry reports this so
  /// cancelled runs show how far they got.
  std::uint32_t restarts_completed = 0;
  /// Search-tree nodes expanded (exact solvers; 0 for heuristics).
  /// bench_exact_kernels records this so bound-strength changes show up
  /// as visited-node deltas, not just wall time.
  std::uint64_t nodes_visited = 0;
  /// Work-stealing scheduler telemetry (parallel seed-prefix driver
  /// only; zero otherwise): shards spawned, shards executed by a thief
  /// rather than their seeded owner, and summed worker idle-scan time.
  std::uint64_t ws_spawned = 0;
  std::uint64_t ws_steals = 0;
  double ws_idle_seconds = 0.0;
};

/// True iff the side vector is a bisection of all its nodes.
[[nodiscard]] bool is_bisection(const std::vector<std::uint8_t>& sides);

/// True iff the cut bisects the subset U: |A ∩ U| and |Ā ∩ U| differ by
/// at most one (paper Section 2.1).
[[nodiscard]] bool bisects_subset(const std::vector<std::uint8_t>& sides,
                                  std::span<const NodeId> subset);

/// Validates a CutResult against its graph: side vector size, 0/1 side
/// values, capacity consistency, and (when require_bisection) the balance
/// constraint. Throws PreconditionError on mismatch (used by tests, and
/// by solvers at exit under checked builds).
void validate_cut(const Graph& g, const CutResult& r,
                  bool require_bisection = false);

}  // namespace bfly::cut
