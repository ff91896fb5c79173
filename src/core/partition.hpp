// Two-way node partition with incrementally maintained cut capacity.
//
// This is the workhorse of every bisection solver: capacity, per-node move
// gains, and side sizes are all maintained in O(deg(v)) per move, matching
// the structure Kernighan–Lin / Fiduccia–Mattheyses style algorithms need.
//
// Terminology follows the paper (Section 1.2): a cut (S, S̄) partitions the
// nodes; its capacity C(S, S̄) is the number of edges with endpoints on
// both sides; a bisection additionally requires |S|, |S̄| <= ceil(N/2).
#pragma once

#include <cstdint>
#include <vector>

#include "core/graph.hpp"
#include "core/types.hpp"

namespace bfly {

class Partition {
 public:
  /// Starts with every node on side 0.
  explicit Partition(const Graph& g);

  /// Starts from an explicit side assignment (values 0/1, size num_nodes).
  Partition(const Graph& g, const std::vector<std::uint8_t>& sides);

  [[nodiscard]] const Graph& graph() const noexcept { return *g_; }

  [[nodiscard]] int side(NodeId v) const {
    BFLY_ASSERT(v < sides_.size());
    return sides_[v];
  }

  /// Number of nodes currently on the given side.
  [[nodiscard]] std::size_t side_size(int s) const {
    return s == 0 ? size0_ : sides_.size() - size0_;
  }

  /// Current cut capacity C(S, S̄).
  [[nodiscard]] std::size_t cut_capacity() const noexcept { return cut_; }

  /// Capacity decrease if v were moved to the other side (may be negative).
  /// gain(v) = (# cross edges at v) - (# same-side edges at v).
  [[nodiscard]] std::int64_t gain(NodeId v) const;

  /// Moves v to the other side, updating capacity in O(deg(v)).
  void move(NodeId v);

  /// True iff |S| and |S̄| are both <= ceil(N/2).
  [[nodiscard]] bool is_bisection() const noexcept;

  /// Side assignment snapshot.
  [[nodiscard]] const std::vector<std::uint8_t>& sides() const noexcept {
    return sides_;
  }

  /// Recomputes capacity from scratch; used by tests to validate the
  /// incremental bookkeeping.
  [[nodiscard]] std::size_t recompute_capacity() const;

  /// Deep self-check: side values are 0/1, the cached side-0 count and
  /// cut capacity match a from-scratch recount. O(N + M). Throws
  /// PreconditionError on mismatch.
  void validate() const;

 private:
  const Graph* g_;
  std::vector<std::uint8_t> sides_;
  std::size_t size0_ = 0;
  std::size_t cut_ = 0;
};

/// Capacity of the cut induced by an arbitrary side assignment, computed
/// from scratch (no Partition object needed).
[[nodiscard]] std::size_t cut_capacity(const Graph& g,
                                       const std::vector<std::uint8_t>& sides);

}  // namespace bfly
