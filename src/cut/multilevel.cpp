#include "cut/multilevel.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <queue>
#include <vector>

#include "core/error.hpp"
#include "core/partition.hpp"
#include "core/rng.hpp"
#include "cut/gain_buckets.hpp"

namespace bfly::cut {

namespace {

// One level of the multilevel hierarchy: a weighted graph, integer node
// weights, and the map from the finer level's nodes onto this one.
struct Level {
  WeightedGraph graph;
  std::vector<std::uint32_t> node_weight;
  std::vector<NodeId> parent;  // finer node -> this level's node
};

// Heavy-edge matching: visit nodes in random order; match each unmatched
// node with the unmatched neighbor of maximum connecting edge weight.
Level coarsen(const WeightedGraph& g,
              const std::vector<std::uint32_t>& weight, Rng& rng) {
  const NodeId n = g.num_nodes();
  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), 0);
  shuffle(order, rng);

  std::vector<NodeId> mate(n, kInvalidNode);
  for (const NodeId v : order) {
    if (mate[v] != kInvalidNode) continue;
    NodeId best = kInvalidNode;
    std::uint32_t best_conn = 0;
    for (std::size_t i = g.begin(v); i < g.end(v); ++i) {
      const NodeId u = g.adj[i];
      if (mate[u] != kInvalidNode || u == v) continue;
      if (g.edge_weight[i] > best_conn) {
        best_conn = g.edge_weight[i];
        best = u;
      }
    }
    if (best != kInvalidNode) {
      mate[v] = best;
      mate[best] = v;
    } else {
      mate[v] = v;  // stays single
    }
  }

  Level level;
  level.parent.assign(n, kInvalidNode);
  std::vector<NodeId> first;  // coarse node -> its first fine member
  for (const NodeId v : order) {
    if (level.parent[v] != kInvalidNode) continue;
    const auto c = static_cast<NodeId>(first.size());
    level.parent[v] = c;
    level.parent[mate[v]] = c;  // mate == v for singletons
    first.push_back(v);
  }
  const auto coarse_n = static_cast<NodeId>(first.size());
  level.node_weight.assign(coarse_n, 0);
  for (NodeId v = 0; v < n; ++v) {
    level.node_weight[level.parent[v]] += weight[v];
  }

  // Coarse rows: accumulate each member's edge weights per coarse
  // neighbor, then emit the row in ascending neighbor order.
  WeightedGraph& cg = level.graph;
  cg.offsets.reserve(coarse_n + 1);
  std::vector<std::uint32_t> acc(coarse_n, 0);
  std::vector<NodeId> touched;
  for (NodeId c = 0; c < coarse_n; ++c) {
    touched.clear();
    const auto accumulate = [&](NodeId member) {
      for (std::size_t i = g.begin(member); i < g.end(member); ++i) {
        const NodeId cu = level.parent[g.adj[i]];
        if (cu == c) continue;  // internal edge of the matched pair
        if (acc[cu] == 0) touched.push_back(cu);
        acc[cu] += g.edge_weight[i];
      }
    };
    accumulate(first[c]);
    if (mate[first[c]] != first[c]) accumulate(mate[first[c]]);
    std::sort(touched.begin(), touched.end());
    for (const NodeId cu : touched) {
      cg.adj.push_back(cu);
      cg.edge_weight.push_back(acc[cu]);
      acc[cu] = 0;
    }
    cg.offsets.push_back(cg.adj.size());
  }
  return level;
}

// Greedy region growing on the coarsest graph: BFS from a random seed,
// absorbing nodes until half the total weight is reached.
std::vector<std::uint8_t> grow_initial(const WeightedGraph& g,
                                       const std::vector<std::uint32_t>& w,
                                       Rng& rng) {
  const NodeId n = g.num_nodes();
  std::uint64_t total = 0;
  for (const auto x : w) total += x;

  std::vector<std::uint8_t> sides(n, 1);
  std::vector<std::uint8_t> seen(n, 0);
  std::queue<NodeId> q;
  const NodeId seed = static_cast<NodeId>(rng.below(n));
  q.push(seed);
  seen[seed] = 1;
  std::uint64_t grown = 0;
  while (!q.empty() && grown * 2 < total) {
    const NodeId v = q.front();
    q.pop();
    sides[v] = 0;
    grown += w[v];
    for (std::size_t i = g.begin(v); i < g.end(v); ++i) {
      const NodeId u = g.adj[i];
      if (!seen[u]) {
        seen[u] = 1;
        q.push(u);
      }
    }
  }
  return sides;
}

}  // namespace

CutResult min_bisection_multilevel(const Graph& g,
                                   const MultilevelOptions& opts) {
  const NodeId n = g.num_nodes();
  BFLY_CHECK(n >= 2, "bisection needs at least two nodes");
  Rng rng(opts.seed);

  CutResult best;
  best.capacity = std::numeric_limits<std::size_t>::max();
  best.exactness = Exactness::kHeuristic;
  best.method = "multilevel";

  const WeightedGraph input = to_weighted(g);
  for (std::uint32_t cycle = 0; cycle < std::max(1u, opts.cycles); ++cycle) {
    if (opts.cancel != nullptr && opts.cancel->stop_requested()) break;
    // --- coarsen ---------------------------------------------------
    std::vector<Level> hierarchy;
    const WeightedGraph* cur = &input;
    std::vector<std::uint32_t> cur_weight(n, 1);
    while (cur->num_nodes() > opts.coarsen_to) {
      Level level = coarsen(*cur, cur_weight, rng);
      if (level.graph.num_nodes() == cur->num_nodes()) break;  // stuck
      cur_weight = level.node_weight;
      hierarchy.push_back(std::move(level));
      cur = &hierarchy.back().graph;
    }

    // --- initial partition on the coarsest graph -------------------
    const WeightedGraph& coarsest =
        hierarchy.empty() ? input : hierarchy.back().graph;
    if (hierarchy.empty()) cur_weight.assign(n, 1);
    const std::vector<std::uint32_t>& cw = cur_weight;
    // Coarse nodes cannot split, so the refiner's balance slack is the
    // heaviest node.
    const std::uint32_t max_w = *std::max_element(cw.begin(), cw.end());

    std::vector<std::uint8_t> sides;
    std::size_t sides_cut = std::numeric_limits<std::size_t>::max();
    for (std::uint32_t t = 0; t < std::max(1u, opts.initial_tries); ++t) {
      auto cand = grow_initial(coarsest, cw, rng);
      for (std::uint32_t p = 0; p < opts.refine_passes; ++p) {
        if (!weighted_fm_pass(coarsest, cw, cand, max_w)) break;
      }
      const std::size_t c = weighted_cut(coarsest, cand);
      if (c < sides_cut) {
        sides_cut = c;
        sides = std::move(cand);
      }
    }

    // --- uncoarsen + refine ----------------------------------------
    for (std::size_t lev = hierarchy.size(); lev-- > 0;) {
      const Level& level = hierarchy[lev];
      const WeightedGraph& fine =
          lev == 0 ? input : hierarchy[lev - 1].graph;
      std::vector<std::uint8_t> fine_sides(fine.num_nodes());
      for (NodeId v = 0; v < fine.num_nodes(); ++v) {
        fine_sides[v] = sides[level.parent[v]];
      }
      std::vector<std::uint32_t> fine_weight(fine.num_nodes(), 1);
      if (lev != 0) fine_weight = hierarchy[lev - 1].node_weight;
      const std::uint32_t fine_max =
          *std::max_element(fine_weight.begin(), fine_weight.end());
      const std::uint64_t slack = lev == 0 ? 0 : fine_max;
      for (std::uint32_t p = 0; p < opts.refine_passes; ++p) {
        if (!weighted_fm_pass(fine, fine_weight, fine_sides, slack)) break;
      }
      sides = std::move(fine_sides);
    }

    // At the finest level all weights are 1, so balance means a genuine
    // bisection; run a final strict pass if needed.
    if (!is_bisection(sides)) {
      std::vector<std::uint32_t> unit(n, 1);
      for (std::uint32_t p = 0; p < opts.refine_passes; ++p) {
        weighted_fm_pass(input, unit, sides, 0);
        if (is_bisection(sides)) break;
      }
    }
    if (is_bisection(sides)) {
      const std::size_t c = cut_capacity(g, sides);
      if (opts.incumbent != nullptr) opts.incumbent->publish(c, sides);
      if (c < best.capacity) {
        best.capacity = c;
        best.sides = sides;
      }
    }
    ++best.restarts_completed;
  }
  // A run cancelled before its first cycle legitimately has no cut yet;
  // an uncancelled run must always produce one.
  if (best.restarts_completed == 0 && opts.cancel != nullptr &&
      opts.cancel->stop_requested()) {
    return best;
  }
  BFLY_CHECK(!best.sides.empty(),
             "multilevel failed to produce a bisection");
  if (checked_build()) validate_cut(g, best, /*require_bisection=*/true);
  return best;
}

}  // namespace bfly::cut
