// Random-destination routing experiment (paper Section 1.2): each node
// sends one packet to a uniformly random destination; the time any
// schedule needs is at least (expected) N/(4 BW(G)), tying routing speed
// to the bisection width.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/graph.hpp"
#include "core/types.hpp"
#include "routing/sim_engine.hpp"

namespace bfly::routing {

struct RandomRouteReport {
  EngineStats sim;
  std::size_t num_packets = 0;
  /// Messages that actually crossed the given bisection (for comparison
  /// with the N/4 expectation).
  std::size_t cross_bisection = 0;
  /// The Section 1.2 time lower bound N / (4 BW).
  double bisection_time_bound = 0.0;
};

/// Runs the experiment with a caller-supplied router (src, dst) -> path.
/// `bisection_sides`/`bw` describe a known bisection used for the bound.
[[nodiscard]] RandomRouteReport random_destination_experiment(
    const Graph& g,
    const std::function<std::vector<NodeId>(NodeId, NodeId)>& route,
    const std::vector<std::uint8_t>& bisection_sides, std::size_t bw,
    std::uint64_t seed);

}  // namespace bfly::routing
