#include "cut/fiduccia_mattheyses.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <vector>

#include "core/error.hpp"
#include "core/partition.hpp"
#include "core/rng.hpp"
#include "core/thread_pool.hpp"

namespace bfly::cut {

namespace {

// Classic FM gain-bucket array: one doubly-linked list of nodes per gain
// value (gain is bounded by the maximum degree), intrusive links indexed
// by node, plus a high-water bucket pointer. Insert, erase, and gain
// update are O(1); extracting the best candidate walks the pointer down
// to the first nonempty bucket. Within that bucket ties break toward
// the HIGHEST node id, i.e. the candidate is the maximum (gain, node)
// pair.
class GainBuckets {
 public:
  GainBuckets(NodeId n, std::int64_t max_abs_gain)
      : offset_(max_abs_gain),
        heads_(2 * static_cast<std::size_t>(max_abs_gain) + 1, kNil),
        next_(n, kNil),
        prev_(n, kNil),
        bucket_(n, kNil) {}

  void insert(NodeId v, std::int64_t gain) {
    const std::size_t b = static_cast<std::size_t>(gain + offset_);
    BFLY_ASSERT(b < heads_.size());
    next_[v] = heads_[b];
    prev_[v] = kNil;
    if (heads_[b] != kNil) prev_[heads_[b]] = v;
    heads_[b] = v;
    bucket_[v] = static_cast<NodeId>(b);
    if (static_cast<std::ptrdiff_t>(b) > max_bucket_) {
      max_bucket_ = static_cast<std::ptrdiff_t>(b);
    }
  }

  void erase(NodeId v) {
    const NodeId b = bucket_[v];
    BFLY_ASSERT(b != kNil);
    if (prev_[v] != kNil) {
      next_[prev_[v]] = next_[v];
    } else {
      heads_[b] = next_[v];
    }
    if (next_[v] != kNil) prev_[next_[v]] = prev_[v];
    bucket_[v] = kNil;
  }

  void update(NodeId v, std::int64_t gain) {
    erase(v);
    insert(v, gain);
  }

  /// Best unlocked node (max gain, then max id), kNil when empty. Does
  /// not remove it.
  [[nodiscard]] NodeId top() {
    while (max_bucket_ >= 0 &&
           heads_[static_cast<std::size_t>(max_bucket_)] == kNil) {
      --max_bucket_;
    }
    if (max_bucket_ < 0) return kInvalidNode;
    NodeId best = kNil;
    for (NodeId v = heads_[static_cast<std::size_t>(max_bucket_)]; v != kNil;
         v = next_[v]) {
      if (best == kNil || v > best) best = v;
    }
    return best;
  }

 private:
  static constexpr NodeId kNil = kInvalidNode;
  std::int64_t offset_;
  std::vector<NodeId> heads_;
  std::vector<NodeId> next_, prev_;
  std::vector<NodeId> bucket_;  ///< bucket index a node currently sits in
  std::ptrdiff_t max_bucket_ = -1;
};

// One FM pass: every node moves exactly once, chosen greedily by gain from
// the side currently at or above half; the best balanced prefix is kept.
bool fm_pass(Partition& part) {
  const Graph& g = part.graph();
  const NodeId n = g.num_nodes();
  const std::size_t start_cap = part.cut_capacity();

  std::int64_t max_deg = 1;
  for (NodeId v = 0; v < n; ++v) {
    max_deg = std::max(max_deg, static_cast<std::int64_t>(g.degree(v)));
  }

  GainBuckets gb[2] = {GainBuckets(n, max_deg), GainBuckets(n, max_deg)};
  std::vector<std::uint8_t> locked(n, 0);
  for (NodeId v = 0; v < n; ++v) gb[part.side(v)].insert(v, part.gain(v));

  std::vector<NodeId> moves;
  moves.reserve(n);
  std::size_t best_cap = start_cap;
  std::size_t best_prefix = 0;

  for (NodeId step = 0; step < n; ++step) {
    // Move from the larger side (keeps the walk near balance); on ties
    // start from side 0 and fall back to side 1 when it is exhausted.
    int from = part.side_size(1) > part.side_size(0) ? 1 : 0;
    NodeId v = gb[from].top();
    if (v == kInvalidNode) {
      from = 1 - from;
      v = gb[from].top();
    }
    if (v == kInvalidNode) break;
    gb[from].erase(v);

    part.move(v);
    locked[v] = 1;
    moves.push_back(v);
    // Neighbors' gains changed; relink them in place.
    for (const NodeId w : g.neighbors(v)) {
      if (!locked[w]) gb[part.side(w)].update(w, part.gain(w));
    }
    if (part.is_bisection() && part.cut_capacity() < best_cap) {
      best_cap = part.cut_capacity();
      best_prefix = moves.size();
    }
  }

  for (std::size_t i = moves.size(); i > best_prefix; --i) {
    part.move(moves[i - 1]);
  }
  BFLY_ASSERT(part.cut_capacity() == best_cap);
  BFLY_ASSERT(part.is_bisection());
  // The incremental gain/capacity bookkeeping must agree with a
  // from-scratch recount after a full pass of moves and rollbacks.
  BFLY_ASSERT_MSG(part.recompute_capacity() == part.cut_capacity(),
                  "incremental capacity drifted from recount");
  return best_cap < start_cap;
}

std::vector<std::uint8_t> random_balanced_sides(NodeId n, Rng& rng) {
  std::vector<NodeId> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  shuffle(perm, rng);
  std::vector<std::uint8_t> sides(n, 0);
  for (NodeId i = n / 2; i < n; ++i) sides[perm[i]] = 1;
  return sides;
}

}  // namespace

CutResult min_bisection_fiduccia_mattheyses(
    const Graph& g, const FiducciaMattheysesOptions& opts) {
  const NodeId n = g.num_nodes();
  BFLY_CHECK(n >= 2, "bisection needs at least two nodes");
  const std::uint32_t restarts = std::max(1u, opts.restarts);

  // Each restart is independent with a derived seed, so the restarts can
  // run on any number of threads with a deterministic outcome. Restarts
  // skipped by cancellation are left at capacity SIZE_MAX and ignored.
  std::vector<CutResult> results(restarts);
  for (auto& r : results) {
    r.capacity = std::numeric_limits<std::size_t>::max();
  }
  std::atomic<std::uint32_t> completed{0};
  const auto run_restart = [&](std::size_t r) {
    if (opts.cancel != nullptr && opts.cancel->stop_requested()) return;
    SplitMix64 sm(opts.seed + 0x9e37u * (r + 1));
    Rng rng(sm.next());
    Partition part(g, random_balanced_sides(n, rng));
    for (std::uint32_t pass = 0; pass < opts.max_passes; ++pass) {
      if (!fm_pass(part)) break;
    }
    results[r].capacity = part.cut_capacity();
    results[r].sides = part.sides();
    completed.fetch_add(1, std::memory_order_relaxed);
    if (opts.incumbent != nullptr) {
      opts.incumbent->publish(part.cut_capacity(), part.sides());
    }
  };
  if (opts.num_threads > 1) {
    parallel_for(restarts, run_restart, opts.num_threads);
  } else {
    for (std::uint32_t r = 0; r < restarts; ++r) run_restart(r);
  }

  CutResult best;
  best.capacity = std::numeric_limits<std::size_t>::max();
  best.exactness = Exactness::kHeuristic;
  best.method = "fiduccia-mattheyses";
  best.restarts_completed = completed.load(std::memory_order_relaxed);
  for (auto& r : results) {
    if (is_bisection(r.sides) && r.capacity < best.capacity) {
      best.capacity = r.capacity;
      best.sides = std::move(r.sides);
    }
  }
  if (checked_build() && !best.sides.empty()) {
    validate_cut(g, best, /*require_bisection=*/true);
  }
  return best;
}

CutResult refine_fiduccia_mattheyses(const Graph& g,
                                     std::vector<std::uint8_t> sides,
                                     std::uint32_t max_passes) {
  BFLY_CHECK(is_bisection(sides), "FM refinement needs a bisection start");
  Partition part(g, sides);
  for (std::uint32_t pass = 0; pass < max_passes; ++pass) {
    if (!fm_pass(part)) break;
  }
  CutResult res;
  res.capacity = part.cut_capacity();
  res.sides = part.sides();
  res.exactness = Exactness::kHeuristic;
  res.method = "fm-refined";
  return res;
}

}  // namespace bfly::cut
