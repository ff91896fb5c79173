#include "routing/experiments.hpp"

#include "core/error.hpp"
#include "core/rng.hpp"

namespace bfly::routing {

RandomRouteReport random_destination_experiment(
    const Graph& g,
    const std::function<std::vector<NodeId>(NodeId, NodeId)>& route,
    const std::vector<std::uint8_t>& bisection_sides, std::size_t bw,
    std::uint64_t seed) {
  BFLY_CHECK(bisection_sides.size() == g.num_nodes(),
             "bisection side vector size mismatch");
  Rng rng(seed);
  const NodeId n = g.num_nodes();

  RandomRouteReport rep;
  rep.num_packets = n;
  std::vector<std::vector<NodeId>> paths;
  paths.reserve(n);
  for (NodeId src = 0; src < n; ++src) {
    const NodeId dst = static_cast<NodeId>(rng.below(n));
    if (bisection_sides[src] != bisection_sides[dst]) ++rep.cross_bisection;
    paths.push_back(route(src, dst));
  }
  SimEngine engine(g);
  engine.load(paths);
  rep.sim = engine.run();
  rep.bisection_time_bound =
      static_cast<double>(n) / (4.0 * static_cast<double>(bw));
  return rep;
}

}  // namespace bfly::routing
