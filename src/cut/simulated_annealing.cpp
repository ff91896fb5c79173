#include "cut/simulated_annealing.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "core/error.hpp"
#include "core/rng.hpp"

namespace bfly::cut {

CutResult min_bisection_simulated_annealing(
    const Graph& g, const SimulatedAnnealingOptions& opts) {
  const NodeId n = g.num_nodes();
  BFLY_CHECK(n >= 2, "bisection needs at least two nodes");
  Rng rng(opts.seed);

  const std::uint32_t steps = opts.steps_per_temperature == 0
                                  ? 8 * n
                                  : opts.steps_per_temperature;
  const double t0 = opts.initial_temperature == 0.0
                        ? static_cast<double>(g.max_degree())
                        : opts.initial_temperature;

  CutResult best;
  best.capacity = std::numeric_limits<std::size_t>::max();
  best.exactness = Exactness::kHeuristic;
  best.method = "simulated-annealing";

  std::vector<NodeId> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  // A swap changes the cut by at most deg(u) + deg(v), so the acceptance
  // probabilities exp(-delta / temp) of one temperature fit a table.
  std::vector<double> accept(2 * g.max_degree() + 1);

  for (std::uint32_t r = 0; r < std::max(1u, opts.restarts); ++r) {
    if (opts.cancel != nullptr && opts.cancel->stop_requested()) break;
    shuffle(perm, rng);
    std::vector<std::uint8_t> sides(n, 0);
    for (NodeId i = n / 2; i < n; ++i) sides[perm[i]] = 1;

    // gain[v] = (# cross edges at v) - (# same-side edges at v), kept
    // current across swaps; every swap keeps the split at n/2, so every
    // state is a bisection.
    std::vector<std::int64_t> gain(n, 0);
    std::int64_t cut = 0;
    for (NodeId v = 0; v < n; ++v) {
      for (const NodeId u : g.neighbors(v)) {
        gain[v] += sides[u] != sides[v] ? 1 : -1;
        if (u > v && sides[u] != sides[v]) ++cut;
      }
    }
    const auto move = [&](NodeId x) {
      for (const NodeId y : g.neighbors(x)) {
        gain[y] += sides[y] == sides[x] ? 2 : -2;
      }
      gain[x] = -gain[x];
      sides[x] ^= 1;
    };
    const auto offer = [&] {
      if (static_cast<std::size_t>(cut) < best.capacity) {
        best.capacity = static_cast<std::size_t>(cut);
        best.sides = sides;
        if (opts.incumbent != nullptr) {
          opts.incumbent->publish(best.capacity, best.sides);
        }
      }
    };

    // Maintain per-side node lists for O(1) random cross-pair picks; the
    // lists track positions so swaps stay O(1).
    std::vector<NodeId> side_nodes[2];
    for (const NodeId v : perm) side_nodes[sides[v]].push_back(v);

    for (double temp = t0; temp > opts.final_temperature;
         temp *= opts.cooling) {
      if (opts.cancel != nullptr && opts.cancel->stop_requested()) break;
      for (std::size_t d = 1; d < accept.size(); ++d) {
        accept[d] = std::exp(-static_cast<double>(d) / temp);
      }
      for (std::uint32_t s = 0; s < steps; ++s) {
        auto& s0 = side_nodes[0];
        auto& s1 = side_nodes[1];
        const std::size_t i0 = rng.below(s0.size());
        const std::size_t i1 = rng.below(s1.size());
        const NodeId u = s0[i0];
        const NodeId v = s1[i1];
        const std::int64_t w =
            static_cast<std::int64_t>(g.edge_multiplicity(u, v));
        const std::int64_t delta = -(gain[u] + gain[v] - 2 * w);
        BFLY_ASSERT(delta < static_cast<std::int64_t>(accept.size()));
        if (delta <= 0 ||
            rng.uniform() < accept[static_cast<std::size_t>(delta)]) {
          move(u);
          move(v);
          cut += delta;
          std::swap(s0[i0], s1[i1]);
        }
      }
      offer();
    }
    offer();
    ++best.restarts_completed;
  }
  return best;
}

}  // namespace bfly::cut
