// Reference model of synchronous store-and-forward packet routing (the
// model behind the paper's Section 1.2 bandwidth discussion: each edge
// transmits one message per direction per time step). The library
// simulates with routing::SimEngine; this deliberately naive version —
// hash map of deques, one heap node per enqueue — is the differential
// oracle the engine's tests check it against.
#pragma once

#include <cstdint>
#include <vector>

#include "core/graph.hpp"
#include "core/types.hpp"

namespace bfly::routing {

struct SimResult {
  std::uint32_t makespan = 0;     ///< steps until the last delivery
  std::size_t max_queue = 0;      ///< peak queue length on any link
  std::size_t delivered = 0;      ///< packets delivered (== packets in)
  std::size_t max_link_load = 0;  ///< max packets assigned to one link
};

/// Simulates FIFO store-and-forward routing of packets along fixed paths
/// (inclusive node sequences following edges of g). Each directed edge
/// moves at most one packet per step. Zero-length paths (single node)
/// deliver at time 0.
[[nodiscard]] SimResult simulate_store_and_forward(
    const Graph& g, const std::vector<std::vector<NodeId>>& paths);

}  // namespace bfly::routing
