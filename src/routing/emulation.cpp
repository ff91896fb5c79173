#include "routing/emulation.hpp"

#include <algorithm>

#include "routing/sim_engine.hpp"

namespace bfly::routing {

EmulationReport emulate_full_exchange(const embed::EmbeddingCase& c) {
  EmulationReport rep;
  rep.metrics = embed::measure_embedding(c.guest, c.host, c.emb);
  rep.lcd_reference =
      rep.metrics.load + rep.metrics.congestion + rep.metrics.dilation;

  std::vector<std::vector<NodeId>> packets;
  packets.reserve(2 * c.guest.num_edges());
  for (EdgeId e = 0; e < c.guest.num_edges(); ++e) {
    const auto& path = c.emb.paths[e];
    packets.push_back(path);
    if (path.size() > 1) {
      auto rev = path;
      std::reverse(rev.begin(), rev.end());
      packets.push_back(std::move(rev));
    } else {
      packets.push_back(path);  // co-located endpoints: free delivery
    }
  }
  rep.messages_per_step = packets.size();
  SimEngine engine(c.host);
  engine.load(packets);
  rep.step_makespan = engine.run().makespan;
  return rep;
}

}  // namespace bfly::routing
