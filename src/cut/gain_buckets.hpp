// The one Fiduccia–Mattheyses refiner (internal header). Flat FM and
// refine_fiduccia_mattheyses run it on the unit-weight view of the input
// graph; multilevel runs it on every level of its hierarchy.
//
// GainBuckets holds the unlocked nodes of one side keyed by gain and
// answers "maximum (gain, node id)" in O(1): a bitset over the bucket
// indices finds the highest non-empty bucket, and each bucket is a
// two-level bitset over node ids (a bit per node, a summary bit per
// 64-bit word) whose highest set bit is the tie-break winner. Bucket rows
// are taken from a free list when a bucket gets its first node and
// returned when it empties, so live rows never exceed the number of
// distinct gains held at once, whatever the gain range.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/error.hpp"
#include "core/graph.hpp"
#include "core/types.hpp"

namespace bfly::cut {

class GainBuckets {
 public:
  /// Nodes 0..n-1 with gains in [-max_abs_gain, max_abs_gain].
  GainBuckets(NodeId n, std::int64_t max_abs_gain)
      : words_((static_cast<std::size_t>(n) + 63) / 64),
        stride_(words_ + (words_ + 63) / 64),
        offset_(max_abs_gain),
        row_of_(2 * static_cast<std::size_t>(max_abs_gain) + 1, kNoRow),
        nonempty_((row_of_.size() + 63) / 64, 0) {}

  void insert(NodeId v, std::int64_t gain) {
    const std::size_t b = bucket(gain);
    if (row_of_[b] == kNoRow) {
      row_of_[b] = acquire_row();
      nonempty_[b / 64] |= bit(b);
      top_word_ = std::max(top_word_, static_cast<std::ptrdiff_t>(b / 64));
    }
    const std::uint32_t r = row_of_[b];
    std::uint64_t* row = &bits_[r * stride_];
    const std::size_t w = v / 64;
    BFLY_ASSERT((row[w] & bit(v)) == 0);
    row[w] |= bit(v);
    row[words_ + w / 64] |= bit(w);
    ++count_[r];
    high_[r] = std::max(high_[r], static_cast<std::uint32_t>(w / 64));
  }

  /// Removes v, which must sit in the bucket of `gain`.
  void erase(NodeId v, std::int64_t gain) {
    const std::size_t b = bucket(gain);
    const std::uint32_t r = row_of_[b];
    BFLY_ASSERT(r != kNoRow);
    std::uint64_t* row = &bits_[r * stride_];
    const std::size_t w = v / 64;
    BFLY_ASSERT((row[w] & bit(v)) != 0);
    row[w] &= ~bit(v);
    if (row[w] == 0) row[words_ + w / 64] &= ~bit(w);
    if (--count_[r] == 0) {
      free_rows_.push_back(r);
      row_of_[b] = kNoRow;
      nonempty_[b / 64] &= ~bit(b);
    }
  }

  void update(NodeId v, std::int64_t from, std::int64_t to) {
    erase(v, from);
    insert(v, to);
  }

  /// The node of maximum (gain, id), kInvalidNode when empty. Does not
  /// remove it.
  [[nodiscard]] NodeId top() {
    while (top_word_ >= 0 &&
           nonempty_[static_cast<std::size_t>(top_word_)] == 0) {
      --top_word_;
    }
    if (top_word_ < 0) return kInvalidNode;
    const auto tw = static_cast<std::size_t>(top_word_);
    const std::uint32_t r = row_of_[tw * 64 + highest(nonempty_[tw])];
    const std::uint64_t* row = &bits_[r * stride_];
    while (row[words_ + high_[r]] == 0) --high_[r];
    const std::size_t w =
        std::size_t{high_[r]} * 64 + highest(row[words_ + high_[r]]);
    return static_cast<NodeId>(w * 64 + highest(row[w]));
  }

  /// Bucket rows in use now, and rows ever allocated (the peak of the
  /// former; each row is about n/8 bytes).
  [[nodiscard]] std::size_t rows_live() const {
    return count_.size() - free_rows_.size();
  }
  [[nodiscard]] std::size_t rows_allocated() const { return count_.size(); }

 private:
  static constexpr std::uint32_t kNoRow = UINT32_MAX;

  static std::uint64_t bit(std::size_t i) {
    return std::uint64_t{1} << (i % 64);
  }
  static std::size_t highest(std::uint64_t word) {
    return static_cast<std::size_t>(std::bit_width(word)) - 1;
  }
  [[nodiscard]] std::size_t bucket(std::int64_t gain) const {
    BFLY_ASSERT(gain >= -offset_ && gain <= offset_);
    return static_cast<std::size_t>(gain + offset_);
  }

  // A freed row is all zeros again, so it is reused as is.
  std::uint32_t acquire_row() {
    if (free_rows_.empty()) {
      bits_.resize(bits_.size() + stride_, 0);
      count_.push_back(0);
      high_.push_back(0);
      return static_cast<std::uint32_t>(count_.size() - 1);
    }
    const std::uint32_t r = free_rows_.back();
    free_rows_.pop_back();
    high_[r] = 0;
    return r;
  }

  std::size_t words_;   ///< node words per row
  std::size_t stride_;  ///< node words plus summary words
  std::int64_t offset_;
  std::vector<std::uint32_t> row_of_;   ///< bucket -> row, kNoRow if empty
  std::vector<std::uint64_t> nonempty_;  ///< a bit per non-empty bucket
  std::ptrdiff_t top_word_ = -1;  ///< no non-empty bucket lies above it
  std::vector<std::uint64_t> bits_;  ///< the rows, stride_ words each
  std::vector<std::uint32_t> count_;  ///< nodes per row
  std::vector<std::uint32_t> high_;   ///< no summary word above it is set
  std::vector<std::uint32_t> free_rows_;
};

// Weighted CSR graph: each row lists a node's distinct neighbors in
// ascending order, co-indexed with the total weight of the edges to each
// (on the input graph, the parallel-edge multiplicity).
struct WeightedGraph {
  std::vector<std::size_t> offsets{0};
  std::vector<NodeId> adj;
  std::vector<std::uint32_t> edge_weight;

  [[nodiscard]] NodeId num_nodes() const {
    return static_cast<NodeId>(offsets.size() - 1);
  }
  [[nodiscard]] std::size_t begin(NodeId v) const { return offsets[v]; }
  [[nodiscard]] std::size_t end(NodeId v) const { return offsets[v + 1]; }
};

[[nodiscard]] WeightedGraph to_weighted(const Graph& g);

/// Total weight of the edges crossing the cut.
[[nodiscard]] std::size_t weighted_cut(const WeightedGraph& g,
                                       const std::vector<std::uint8_t>& sides);

/// One FM pass: every node moves at most once, always the unlocked node
/// of maximum (gain, id) on the heavier side (side 0 on a tie; the other
/// side when that one is exhausted). Balance means both side weights are
/// within ceil(W/2) + slack. From a balanced start the best balanced
/// prefix is kept only if it cuts strictly less; from an unbalanced start
/// the best balanced prefix is kept whatever its cut. Returns whether a
/// prefix was kept; otherwise sides is unchanged. With unit weights and
/// slack 0, balanced is is_bisection.
bool weighted_fm_pass(const WeightedGraph& g,
                      const std::vector<std::uint32_t>& weight,
                      std::vector<std::uint8_t>& sides, std::uint64_t slack);

}  // namespace bfly::cut
