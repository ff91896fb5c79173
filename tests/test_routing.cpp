// Routing substrate: the packet simulator, oblivious butterfly routes,
// and Waksman's looping algorithm (Beneš rearrangeability, the
// constructive fact behind Lemma 2.5).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <set>

#include "core/rng.hpp"
#include "embed/factory.hpp"
#include "packet_sim.hpp"
#include "routing/benes_route.hpp"
#include "routing/butterfly_routing.hpp"
#include "routing/experiments.hpp"
#include "routing/rearrange_certificate.hpp"
#include "topology/benes.hpp"
#include "topology/butterfly.hpp"
#include "topology/wrapped_butterfly.hpp"

namespace bfly::routing {
namespace {

Graph path_graph(NodeId n) {
  GraphBuilder gb(n);
  for (NodeId v = 0; v + 1 < n; ++v) gb.add_edge(v, v + 1);
  return std::move(gb).build();
}

TEST(PacketSim, SinglePacketTakesPathLengthSteps) {
  const Graph g = path_graph(5);
  const auto res = simulate_store_and_forward(g, {{0, 1, 2, 3, 4}});
  EXPECT_EQ(res.makespan, 4u);
  EXPECT_EQ(res.delivered, 1u);
}

TEST(PacketSim, ContentionSerializesOnSharedLink) {
  // Two packets over the same directed edge: second waits one step.
  const Graph g = path_graph(3);
  const auto res =
      simulate_store_and_forward(g, {{0, 1, 2}, {0, 1, 2}});
  EXPECT_EQ(res.delivered, 2u);
  EXPECT_EQ(res.makespan, 3u);  // 2 steps + 1 stall
  EXPECT_EQ(res.max_link_load, 2u);
}

TEST(PacketSim, OppositeDirectionsDoNotContend) {
  const Graph g = path_graph(3);
  const auto res =
      simulate_store_and_forward(g, {{0, 1, 2}, {2, 1, 0}});
  EXPECT_EQ(res.makespan, 2u);
}

TEST(PacketSim, ZeroLengthPathsDeliverImmediately) {
  const Graph g = path_graph(2);
  const auto res = simulate_store_and_forward(g, {{0}, {1}});
  EXPECT_EQ(res.delivered, 2u);
  EXPECT_EQ(res.makespan, 0u);
}

TEST(PacketSim, RejectsInvalidPaths) {
  const Graph g = path_graph(3);
  EXPECT_THROW(static_cast<void>(simulate_store_and_forward(g, {{0, 2}})),
               PreconditionError);
}

TEST(ButterflyRouting, AllPairsValidOnB8) {
  const topo::Butterfly bf(8);
  for (NodeId s = 0; s < bf.num_nodes(); ++s) {
    for (NodeId t = 0; t < bf.num_nodes(); ++t) {
      const auto p = route_bn(bf, s, t);
      ASSERT_FALSE(p.empty());
      EXPECT_EQ(p.front(), s);
      EXPECT_EQ(p.back(), t);
      for (std::size_t i = 0; i + 1 < p.size(); ++i) {
        EXPECT_TRUE(bf.graph().has_edge(p[i], p[i + 1]));
      }
      EXPECT_LE(p.size() - 1, 3u * bf.dims());
    }
  }
}

TEST(ButterflyRouting, AllPairsValidOnW8) {
  const topo::WrappedButterfly wb(8);
  for (NodeId s = 0; s < wb.num_nodes(); ++s) {
    for (NodeId t = 0; t < wb.num_nodes(); ++t) {
      const auto p = route_wn(wb, s, t);
      ASSERT_FALSE(p.empty());
      EXPECT_EQ(p.front(), s);
      EXPECT_EQ(p.back(), t);
      for (std::size_t i = 0; i + 1 < p.size(); ++i) {
        EXPECT_TRUE(wb.graph().has_edge(p[i], p[i + 1]))
            << "s=" << s << " t=" << t << " i=" << i;
      }
    }
  }
}

void expect_valid_benes_routing(const topo::Benes& benes,
                                std::span<const std::uint32_t> perm) {
  const auto routing = route_permutation(benes, perm);
  ASSERT_EQ(routing.paths.size(), benes.n());
  // Endpoints, edge validity, one node per level, level-wise disjoint.
  for (std::uint32_t l = 0; l <= 2 * benes.dims(); ++l) {
    std::set<NodeId> seen;
    for (std::uint32_t s = 0; s < benes.n(); ++s) {
      const auto& p = routing.paths[s];
      ASSERT_EQ(p.size(), 2u * benes.dims() + 1);
      EXPECT_EQ(benes.level(p[l]), l);
      EXPECT_TRUE(seen.insert(p[l]).second)
          << "level " << l << " collision";
    }
  }
  for (std::uint32_t s = 0; s < benes.n(); ++s) {
    const auto& p = routing.paths[s];
    EXPECT_EQ(p.front(), benes.input(s));
    EXPECT_EQ(p.back(), benes.output(perm[s]));
    for (std::size_t i = 0; i + 1 < p.size(); ++i) {
      EXPECT_TRUE(benes.graph().has_edge(p[i], p[i + 1]));
    }
  }
}

TEST(BenesRouting, AllPermutationsOfFourColumns) {
  const topo::Benes benes(4);
  std::vector<std::uint32_t> perm = {0, 1, 2, 3};
  do {
    expect_valid_benes_routing(benes, perm);
  } while (std::next_permutation(perm.begin(), perm.end()));
}

TEST(BenesRouting, RandomPermutationsLarger) {
  Rng rng(77);
  for (const std::uint32_t n : {8u, 16u, 32u, 64u}) {
    const topo::Benes benes(n);
    std::vector<std::uint32_t> perm(n);
    std::iota(perm.begin(), perm.end(), 0);
    for (int trial = 0; trial < 5; ++trial) {
      shuffle(perm, rng);
      expect_valid_benes_routing(benes, perm);
    }
  }
}

TEST(BenesRouting, RejectsNonPermutations) {
  const topo::Benes benes(4);
  const std::vector<std::uint32_t> bad = {0, 0, 2, 3};
  EXPECT_THROW(route_permutation(benes, bad), PreconditionError);
}

TEST(Lemma25, BenesRoutesMapToEdgeDisjointButterflyPaths) {
  // Route a permutation through Benes_{d-1}, then push the node-disjoint
  // paths through the congestion-1 folded embedding into Bn: the images
  // must be pairwise edge-disjoint paths between even-column (I) and
  // odd-column (O) level-0 nodes — the machinery behind Lemmas 2.5/2.8.
  const topo::Butterfly bf(16);
  const topo::Benes benes(8);
  const auto fold = embed::benes_into_bn(bf);

  Rng rng(5);
  std::vector<std::uint32_t> perm(8);
  std::iota(perm.begin(), perm.end(), 0);
  shuffle(perm, rng);
  const auto routing = route_permutation(benes, perm);

  std::set<std::pair<NodeId, NodeId>> used;
  for (const auto& gpath : routing.paths) {
    // Map each guest step through the embedding's edge paths.
    std::vector<NodeId> hpath;
    hpath.push_back(fold.emb.node_map[gpath.front()]);
    for (std::size_t i = 0; i + 1 < gpath.size(); ++i) {
      // Find the guest edge id between consecutive path nodes.
      const NodeId a = gpath[i], b = gpath[i + 1];
      EdgeId guest_edge = kInvalidEdge;
      const auto nbrs = fold.guest.neighbors(a);
      const auto eids = fold.guest.incident_edges(a);
      for (std::size_t x = 0; x < nbrs.size(); ++x) {
        if (nbrs[x] == b) {
          guest_edge = eids[x];
          break;
        }
      }
      ASSERT_NE(guest_edge, kInvalidEdge);
      auto seg = fold.emb.paths[guest_edge];
      if (seg.front() != hpath.back()) {
        std::reverse(seg.begin(), seg.end());
      }
      ASSERT_EQ(seg.front(), hpath.back());
      hpath.insert(hpath.end(), seg.begin() + 1, seg.end());
    }
    // Record edges; each may be used at most once across all paths.
    for (std::size_t i = 0; i + 1 < hpath.size(); ++i) {
      auto key = std::minmax(hpath[i], hpath[i + 1]);
      EXPECT_TRUE(used.insert({key.first, key.second}).second)
          << "edge reused";
    }
    // Endpoints: I = even columns, O = odd columns, both on level 0.
    EXPECT_EQ(bf.level(hpath.front()), 0u);
    EXPECT_EQ(bf.level(hpath.back()), 0u);
    EXPECT_EQ(bf.column(hpath.front()) % 2, 0u);
    EXPECT_EQ(bf.column(hpath.back()) % 2, 1u);
  }
}

void expect_valid_two_port_routing(const topo::Benes& benes,
                                   std::span<const std::uint32_t> perm) {
  const auto routing = route_two_port_permutation(benes, perm);
  const std::uint32_t ports = 2 * benes.n();
  ASSERT_EQ(routing.paths.size(), ports);
  // Endpoints and edge validity.
  for (std::uint32_t s = 0; s < ports; ++s) {
    const auto& p = routing.paths[s];
    ASSERT_EQ(p.size(), 2u * benes.dims() + 1);
    EXPECT_EQ(p.front(), benes.input(s / 2));
    EXPECT_EQ(p.back(), benes.output(perm[s] / 2));
    for (std::size_t i = 0; i + 1 < p.size(); ++i) {
      ASSERT_TRUE(benes.graph().has_edge(p[i], p[i + 1]));
    }
  }
  // Every node hosts at most 2 paths per level; edges pairwise disjoint.
  for (std::uint32_t l = 0; l <= 2 * benes.dims(); ++l) {
    std::map<NodeId, int> host;
    for (const auto& p : routing.paths) ++host[p[l]];
    for (const auto& [node, cnt] : host) {
      EXPECT_LE(cnt, 2) << "level " << l;
    }
  }
  std::set<std::pair<NodeId, NodeId>> used;
  for (const auto& p : routing.paths) {
    for (std::size_t i = 0; i + 1 < p.size(); ++i) {
      // Directed-by-level step; undirected key suffices since paths are
      // monotone in level.
      EXPECT_TRUE(used.insert({p[i], p[i + 1]}).second)
          << "edge reused between levels " << i << " and " << i + 1;
    }
  }
}

TEST(BenesTwoPort, AllPermutationsOfFourPorts) {
  // Benes with n = 2 columns has 4 ports; all 24 bijections.
  const topo::Benes benes(2);
  std::vector<std::uint32_t> perm = {0, 1, 2, 3};
  do {
    expect_valid_two_port_routing(benes, perm);
  } while (std::next_permutation(perm.begin(), perm.end()));
}

TEST(BenesTwoPort, RandomPermutationsLarger) {
  Rng rng(123);
  for (const std::uint32_t n : {4u, 8u, 16u, 32u}) {
    const topo::Benes benes(n);
    std::vector<std::uint32_t> perm(2 * n);
    std::iota(perm.begin(), perm.end(), 0);
    for (int trial = 0; trial < 5; ++trial) {
      shuffle(perm, rng);
      expect_valid_two_port_routing(benes, perm);
    }
  }
}

TEST(Lemma25, PortPathsEdgeDisjointInButterfly) {
  const topo::Butterfly bf(16);
  Rng rng(31);
  std::vector<std::uint32_t> perm(16);
  std::iota(perm.begin(), perm.end(), 0);
  for (int trial = 0; trial < 5; ++trial) {
    shuffle(perm, rng);
    const auto paths = lemma25_paths(bf, perm);
    ASSERT_EQ(paths.size(), 16u);
    std::set<std::pair<NodeId, NodeId>> used;
    for (std::uint32_t p = 0; p < paths.size(); ++p) {
      const auto& path = paths[p];
      // Endpoints: I node (even column) to the O node of the image port.
      EXPECT_EQ(path.front(), bf.node(2 * (p / 2), 0));
      EXPECT_EQ(path.back(), bf.node(2 * (perm[p] / 2) + 1, 0));
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        ASSERT_TRUE(bf.graph().has_edge(path[i], path[i + 1]));
        const auto key = std::minmax(path[i], path[i + 1]);
        EXPECT_TRUE(used.insert({key.first, key.second}).second);
      }
    }
  }
}

TEST(Lemma28, CertificateBoundsRandomCuts) {
  // For random cuts of B8 and B16: the certificate produces exactly
  // 2|Ā∩L0| edge-disjoint straddling paths, certifying
  // C(A,Ā) >= 2|Ā∩L0| — the inequality at the heart of Lemma 2.8.
  Rng rng(99);
  for (const std::uint32_t n : {8u, 16u}) {
    const topo::Butterfly bf(n);
    for (int trial = 0; trial < 30; ++trial) {
      std::vector<std::uint8_t> sides(bf.num_nodes());
      for (auto& s : sides) s = static_cast<std::uint8_t>(rng.below(2));
      const auto cert = lemma28_certificate(bf, sides);
      EXPECT_TRUE(cert.edge_disjoint);
      EXPECT_EQ(cert.crossing_paths, 2 * cert.minority_level0);
      EXPECT_GE(cert.cut_capacity, cert.crossing_paths);
      for (const auto& p : cert.paths) {
        bool crosses = false;
        for (std::size_t i = 0; i + 1 < p.size(); ++i) {
          if (sides[p[i]] != sides[p[i + 1]]) crosses = true;
        }
        EXPECT_TRUE(crosses);
      }
    }
  }
}

TEST(Lemma28, CertificateTightOnLevelZeroBisectingCuts) {
  // A cut that bisects L0 yields 2 * (n/2) = n straddling paths,
  // certifying the full Lemma 3.1 bound C >= n.
  const topo::Butterfly bf(8);
  std::vector<std::uint8_t> sides(bf.num_nodes(), 0);
  for (std::uint32_t w = 0; w < 8; ++w) {
    for (std::uint32_t lvl = 0; lvl <= bf.dims(); ++lvl) {
      sides[bf.node(w, lvl)] = (w & 4u) ? 1 : 0;  // MSB column split
    }
  }
  const auto cert = lemma28_certificate(bf, sides);
  EXPECT_EQ(cert.minority_level0, 4u);
  EXPECT_EQ(cert.crossing_paths, 8u);
  EXPECT_TRUE(cert.edge_disjoint);
  EXPECT_EQ(cert.cut_capacity, 8u);  // the folklore cut: exactly n
}

TEST(Experiments, RandomDestinationRespectsBisectionBound) {
  const topo::Butterfly bf(16);
  const auto route = [&](NodeId s, NodeId t) { return route_bn(bf, s, t); };
  std::vector<std::uint8_t> sides(bf.num_nodes());
  for (NodeId v = 0; v < bf.num_nodes(); ++v) {
    sides[v] = (bf.column(v) & 8u) ? 1 : 0;
  }
  const auto rep = random_destination_experiment(bf.graph(), route, sides,
                                                 16, 99);
  EXPECT_EQ(rep.sim.delivered, rep.num_packets);
  EXPECT_GT(rep.sim.makespan, 0u);
  EXPECT_DOUBLE_EQ(rep.bisection_time_bound,
                   static_cast<double>(bf.num_nodes()) / 64.0);
}

}  // namespace
}  // namespace bfly::routing
