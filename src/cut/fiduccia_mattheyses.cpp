#include "cut/fiduccia_mattheyses.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <vector>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "cut/gain_buckets.hpp"

namespace bfly::cut {

namespace {

// Unit-weight FM passes (at most max_passes) until one keeps no prefix;
// returns the cut.
std::size_t refine(const WeightedGraph& wg, std::vector<std::uint8_t>& sides,
                   std::uint32_t max_passes) {
  const std::vector<std::uint32_t> unit(wg.num_nodes(), 1);
  for (std::uint32_t pass = 0; pass < max_passes; ++pass) {
    if (!weighted_fm_pass(wg, unit, sides, 0)) break;
  }
  return weighted_cut(wg, sides);
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
  const WeightedGraph wg = to_weighted(g);
  const auto run_restart = [&](std::size_t r) {
    if (opts.cancel != nullptr && opts.cancel->stop_requested()) return;
    SplitMix64 sm(opts.seed + 0x9e37u * (r + 1));
    Rng rng(sm.next());
    std::vector<std::uint8_t> sides = random_balanced_sides(n, rng);
    results[r].capacity = refine(wg, sides, opts.max_passes);
    completed.fetch_add(1, std::memory_order_relaxed);
    if (opts.incumbent != nullptr) {
      opts.incumbent->publish(results[r].capacity, sides);
    }
    results[r].sides = std::move(sides);
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
  BFLY_CHECK(sides.size() == g.num_nodes(),
             "side assignment size must equal node count");
  BFLY_CHECK(std::all_of(sides.begin(), sides.end(),
                         [](std::uint8_t s) { return s <= 1; }),
             "sides must be 0 or 1");
  BFLY_CHECK(is_bisection(sides), "FM refinement needs a bisection start");
  CutResult res;
  res.capacity = refine(to_weighted(g), sides, max_passes);
  res.sides = std::move(sides);
  res.exactness = Exactness::kHeuristic;
  res.method = "fm-refined";
  return res;
}

}  // namespace bfly::cut
