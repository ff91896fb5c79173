#include "cut/gain_buckets.hpp"

#include <algorithm>
#include <limits>

namespace bfly::cut {

WeightedGraph to_weighted(const Graph& g) {
  WeightedGraph wg;
  wg.offsets.reserve(g.num_nodes() + 1);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const std::size_t row = wg.adj.size();
    for (const NodeId u : g.neighbors(v)) {
      if (wg.adj.size() > row && wg.adj.back() == u) {
        ++wg.edge_weight.back();  // sorted row: parallel edges are adjacent
      } else {
        wg.adj.push_back(u);
        wg.edge_weight.push_back(1);
      }
    }
    wg.offsets.push_back(wg.adj.size());
  }
  return wg;
}

std::size_t weighted_cut(const WeightedGraph& g,
                         const std::vector<std::uint8_t>& sides) {
  std::size_t cut = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (std::size_t i = g.begin(v); i < g.end(v); ++i) {
      const NodeId u = g.adj[i];
      if (u > v && sides[u] != sides[v]) cut += g.edge_weight[i];
    }
  }
  return cut;
}

bool weighted_fm_pass(const WeightedGraph& g,
                      const std::vector<std::uint32_t>& weight,
                      std::vector<std::uint8_t>& sides, std::uint64_t slack) {
  const NodeId n = g.num_nodes();
  std::uint64_t total = 0, w0 = 0;
  for (NodeId v = 0; v < n; ++v) {
    total += weight[v];
    if (sides[v] == 0) w0 += weight[v];
  }
  const std::uint64_t cap = (total + 1) / 2 + slack;
  const auto balanced = [&] { return w0 <= cap && (total - w0) <= cap; };

  // gain(v) = cross - same weight at v; |gain(v)| is at most v's weighted
  // degree, and the cut is half the summed cross weight.
  std::vector<std::int64_t> gain(n);
  std::int64_t max_gain = 0, cross_sum = 0;
  for (NodeId v = 0; v < n; ++v) {
    std::int64_t cross = 0, same = 0;
    for (std::size_t i = g.begin(v); i < g.end(v); ++i) {
      (sides[g.adj[i]] == sides[v] ? same : cross) += g.edge_weight[i];
    }
    gain[v] = cross - same;
    max_gain = std::max(max_gain, cross + same);
    cross_sum += cross;
  }
  const auto start_cut = static_cast<std::size_t>(cross_sum / 2);
  std::size_t cut = start_cut;

  GainBuckets gb[2] = {GainBuckets(n, max_gain), GainBuckets(n, max_gain)};
  for (NodeId v = 0; v < n; ++v) gb[sides[v]].insert(v, gain[v]);
  std::vector<std::uint8_t> locked(n, 0);
  std::vector<NodeId> moves;
  moves.reserve(n);

  // From a balanced start only a strict improvement counts; from an
  // unbalanced start any balanced prefix is progress even if the cut grew.
  std::size_t best_cut =
      balanced() ? cut : std::numeric_limits<std::size_t>::max();
  std::size_t best_prefix = 0;
  bool found = false;

  for (NodeId step = 0; step < n; ++step) {
    int from = w0 >= total - w0 ? 0 : 1;
    NodeId v = gb[from].top();
    if (v == kInvalidNode) {
      from = 1 - from;
      v = gb[from].top();
    }
    if (v == kInvalidNode) break;
    gb[from].erase(v, gain[v]);
    cut = static_cast<std::size_t>(static_cast<std::int64_t>(cut) - gain[v]);
    if (sides[v] == 0) {
      w0 -= weight[v];
    } else {
      w0 += weight[v];
    }
    sides[v] ^= 1;
    locked[v] = 1;
    moves.push_back(v);
    // An edge to v's new side was cross and is now internal, and the
    // other way round.
    for (std::size_t i = g.begin(v); i < g.end(v); ++i) {
      const NodeId u = g.adj[i];
      if (locked[u]) continue;
      const std::int64_t d = 2 * std::int64_t{g.edge_weight[i]};
      const std::int64_t next =
          sides[u] == sides[v] ? gain[u] - d : gain[u] + d;
      gb[sides[u]].update(u, gain[u], next);
      gain[u] = next;
    }
    if (balanced() && cut < best_cut) {
      best_cut = cut;
      best_prefix = moves.size();
      found = true;
    }
  }

  // Roll back to the best balanced prefix (all moves when there is none).
  for (std::size_t i = moves.size(); i > best_prefix; --i) {
    sides[moves[i - 1]] ^= 1;
  }
  // The tracked cut value must agree with a from-scratch recount of the
  // surviving side vector.
  BFLY_ASSERT_MSG(weighted_cut(g, sides) == (found ? best_cut : start_cut),
                  "weighted FM cut tracking drifted from recount");
  return found;
}

}  // namespace bfly::cut
