#include "packet_sim.hpp"

#include <algorithm>
#include <deque>
#include <unordered_map>

#include "core/error.hpp"

namespace bfly::routing {

namespace {

std::uint64_t dir_key(NodeId from, NodeId to) {
  return (static_cast<std::uint64_t>(from) << 32) | to;
}

}  // namespace

SimResult simulate_store_and_forward(
    const Graph& g, const std::vector<std::vector<NodeId>>& paths) {
  SimResult res;

  struct Pkt {
    std::uint32_t id;
    std::size_t pos;  // index of current node within its path
  };
  std::unordered_map<std::uint64_t, std::deque<Pkt>> queues;

  // Validate paths, tally static link loads, and enqueue first hops.
  std::unordered_map<std::uint64_t, std::size_t> link_load;
  for (std::uint32_t p = 0; p < paths.size(); ++p) {
    const auto& path = paths[p];
    BFLY_CHECK(!path.empty(), "packet path must be nonempty");
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      BFLY_CHECK(g.has_edge(path[i], path[i + 1]),
                 "packet path step is not an edge");
      const std::size_t load = ++link_load[dir_key(path[i], path[i + 1])];
      res.max_link_load = std::max(res.max_link_load, load);
    }
    if (path.size() == 1) {
      ++res.delivered;
    } else {
      queues[dir_key(path[0], path[1])].push_back({p, 0});
    }
  }

  std::uint32_t t = 0;
  while (!queues.empty()) {
    ++t;
    // Phase 1: each nonempty directed link sends its head packet.
    std::vector<Pkt> arrivals;
    arrivals.reserve(queues.size());
    for (auto it = queues.begin(); it != queues.end();) {
      auto& q = it->second;
      res.max_queue = std::max(res.max_queue, q.size());
      arrivals.push_back(q.front());
      q.pop_front();
      if (q.empty()) {
        it = queues.erase(it);
      } else {
        ++it;
      }
    }
    // Phase 2: arrivals advance to their next link (or finish). The
    // queue map hands us the arrivals in unordered_map iteration order,
    // which varies across libraries and runs; sorting by packet id makes
    // same-step same-link enqueues — and therefore makespan — a pure
    // function of the input paths. SimEngine reproduces exactly this
    // tie-break (phase B admits in packet-id order per target queue).
    std::sort(arrivals.begin(), arrivals.end(),
              [](const Pkt& a, const Pkt& b) { return a.id < b.id; });
    for (Pkt pkt : arrivals) {
      const auto& path = paths[pkt.id];
      ++pkt.pos;
      if (pkt.pos + 1 >= path.size()) {
        ++res.delivered;
        res.makespan = t;
      } else {
        queues[dir_key(path[pkt.pos], path[pkt.pos + 1])].push_back(pkt);
      }
    }
  }
  return res;
}

}  // namespace bfly::routing
