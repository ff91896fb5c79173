// Additional parameterized property sweeps across instance families:
// embedding metrics, Beneš routing, credit schemes, MOS constructions,
// Lemma 2.16 pipelines, and packet-simulator laws.
#include <gtest/gtest.h>

#include <numeric>

#include "core/rng.hpp"
#include "cut/constructive.hpp"
#include "cut/bisection.hpp"
#include "cut/mos_theory.hpp"
#include "embed/embedding.hpp"
#include "embed/factory.hpp"
#include "expansion/constructive_sets.hpp"
#include "expansion/credit_scheme.hpp"
#include "packet_sim.hpp"
#include "routing/benes_route.hpp"
#include "routing/butterfly_routing.hpp"
#include "topology/benes.hpp"
#include "topology/butterfly.hpp"
#include "topology/ccc.hpp"
#include "topology/mesh_of_stars.hpp"
#include "topology/wrapped_butterfly.hpp"

namespace bfly {
namespace {

// ------------------------------------------------ embedding metrics --

class EmbeddingSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(EmbeddingSweep, KnnIntoBnMetrics) {
  const topo::Butterfly bf(GetParam());
  const auto c = embed::knn_into_bn(bf);
  const auto m = embed::measure_embedding(c.guest, c.host, c.emb);
  EXPECT_EQ(m.load, 1u);
  EXPECT_EQ(m.congestion, GetParam() / 2);
  EXPECT_EQ(m.dilation, bf.dims());
}

TEST_P(EmbeddingSweep, BenesFoldMetrics) {
  const topo::Butterfly bf(GetParam());
  const auto c = embed::benes_into_bn(bf);
  const auto m = embed::measure_embedding(c.guest, c.host, c.emb);
  EXPECT_EQ(m.load, 1u);
  EXPECT_EQ(m.congestion, 1u);
  EXPECT_EQ(m.dilation, 3u);
}

TEST_P(EmbeddingSweep, WnIntoCccMetrics) {
  const topo::CubeConnectedCycles cc(GetParam());
  const auto c = embed::wn_into_ccc(cc);
  const auto m = embed::measure_embedding(c.guest, c.host, c.emb);
  EXPECT_EQ(m.load, 1u);
  EXPECT_EQ(m.congestion, 2u);
}

TEST_P(EmbeddingSweep, DoubledCompleteLoadOne) {
  const topo::Butterfly bf(GetParam());
  const auto c = embed::k2n_into_bn(bf);
  const auto m = embed::measure_embedding(c.guest, c.host, c.emb);
  EXPECT_EQ(m.load, 1u);
  EXPECT_EQ(c.guest.num_edges(),
            static_cast<std::size_t>(bf.num_nodes()) *
                (bf.num_nodes() - 1));
}

INSTANTIATE_TEST_SUITE_P(Sweep, EmbeddingSweep,
                         ::testing::Values(4u, 8u, 16u, 32u));

// --------------------------------------------- Lemma 2.10 parameters --

class Lemma210Sweep
    : public ::testing::TestWithParam<std::tuple<std::uint32_t,
                                                 std::uint32_t>> {};

TEST_P(Lemma210Sweep, CongestionExactlyTwoToJ) {
  const auto [i, j] = GetParam();
  const topo::Butterfly bf(16);
  if (i > bf.dims()) GTEST_SKIP();
  const auto c = embed::bk_into_bn(bf, i, j);
  const auto m = embed::measure_embedding(c.guest, c.host, c.emb);
  EXPECT_EQ(m.congestion, 1u << j);
  EXPECT_LE(m.dilation, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Lemma210Sweep,
    ::testing::Combine(::testing::Values(0u, 1u, 2u, 4u),
                       ::testing::Values(0u, 1u, 2u)));

// ----------------------------------------------------- Beneš sweeps --

class BenesSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(BenesSweep, WireAndTwoPortRoutingsAreValid) {
  const std::uint32_t n = GetParam();
  const topo::Benes benes(n);
  Rng rng(n);
  std::vector<std::uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  shuffle(perm, rng);
  const auto wire = routing::route_permutation(benes, perm);
  for (std::uint32_t l = 0; l <= 2 * benes.dims(); ++l) {
    std::set<NodeId> seen;
    for (const auto& p : wire.paths) {
      ASSERT_TRUE(seen.insert(p[l]).second);
    }
  }

  std::vector<std::uint32_t> pperm(2 * n);
  std::iota(pperm.begin(), pperm.end(), 0);
  shuffle(pperm, rng);
  const auto two = routing::route_two_port_permutation(benes, pperm);
  std::set<std::pair<NodeId, NodeId>> used;
  for (const auto& p : two.paths) {
    for (std::size_t x = 0; x + 1 < p.size(); ++x) {
      ASSERT_TRUE(used.insert({p[x], p[x + 1]}).second);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, BenesSweep,
                         ::testing::Values(2u, 4u, 8u, 16u, 64u, 128u));

// ------------------------------------------------ credit conservation --

class CreditSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(CreditSweep, AllFourSchemesConserveAndRespectCaps) {
  const std::uint32_t n = GetParam();
  const topo::WrappedButterfly wb(n);
  const topo::Butterfly bf(n);
  Rng rng(n * 3 + 1);
  for (int trial = 0; trial < 10; ++trial) {
    // Random connected-ish set of moderate size.
    const std::size_t k = 2 + rng.below(wb.num_nodes() / 3);
    std::vector<NodeId> wset, bset;
    std::vector<std::uint8_t> seen_w(wb.num_nodes(), 0),
        seen_b(bf.num_nodes(), 0);
    while (wset.size() < k) {
      const NodeId v = static_cast<NodeId>(rng.below(wb.num_nodes()));
      if (!seen_w[v]) {
        seen_w[v] = 1;
        wset.push_back(v);
      }
    }
    while (bset.size() < k) {
      const NodeId v = static_cast<NodeId>(rng.below(bf.num_nodes()));
      if (!seen_b[v]) {
        seen_b[v] = 1;
        bset.push_back(v);
      }
    }
    for (const auto& rep :
         {expansion::credit_edge_wn(wb, wset),
          expansion::credit_node_wn(wb, wset),
          expansion::credit_edge_bn(bf, bset),
          expansion::credit_node_bn(bf, bset)}) {
      ASSERT_NEAR(rep.retained_by_boundary + rep.retained_elsewhere,
                  static_cast<double>(k), 1e-9);
      ASSERT_LE(rep.implied_lower_bound,
                static_cast<double>(rep.actual_boundary) + 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CreditSweep,
                         ::testing::Values(8u, 16u, 32u));

// -------------------------------------------------------- MOS sweeps --

class MosSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(MosSweep, ConstructionMatchesClosedForm) {
  const std::uint32_t j = GetParam();
  const topo::MeshOfStars mos(j, j);
  const auto cutres = cut::mos_m2_bisection_cut(mos);
  EXPECT_EQ(cutres.capacity, cut::mos_m2_bisection_value(j).capacity);
  EXPECT_TRUE(cut::bisects_subset(cutres.sides, mos.m2_nodes()));
}

INSTANTIATE_TEST_SUITE_P(Sweep, MosSweep,
                         ::testing::Values(2u, 4u, 8u, 12u, 20u, 32u, 64u));

// ---------------------------------------------- Lemma 2.16 pipelines --

class Lemma216Sweep
    : public ::testing::TestWithParam<std::tuple<std::uint32_t,
                                                 std::uint32_t>> {};

TEST_P(Lemma216Sweep, AlwaysAGenuineBisection) {
  const auto [n, j] = GetParam();
  if (static_cast<std::uint64_t>(j) * j > n) GTEST_SKIP();
  const topo::Butterfly bf(n);
  const auto res = cut::lemma216_bisection(bf, j);
  EXPECT_TRUE(cut::is_bisection(res.cut.sides));
  EXPECT_NO_THROW(cut::validate_cut(bf.graph(), res.cut));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Lemma216Sweep,
    ::testing::Combine(::testing::Values(16u, 64u, 256u),
                       ::testing::Values(2u, 4u)));

// -------------------------------------------------- packet-sim laws --

class PacketSimLaws : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PacketSimLaws, MakespanDominatesLoadAndLength) {
  const topo::Butterfly bf(16);
  Rng rng(GetParam());
  std::vector<std::vector<NodeId>> paths;
  std::size_t longest = 0;
  for (int p = 0; p < 60; ++p) {
    const NodeId s = static_cast<NodeId>(rng.below(bf.num_nodes()));
    const NodeId t = static_cast<NodeId>(rng.below(bf.num_nodes()));
    auto path = routing::route_bn(bf, s, t);
    longest = std::max(longest, path.size() - 1);
    paths.push_back(std::move(path));
  }
  const auto res = routing::simulate_store_and_forward(bf.graph(), paths);
  EXPECT_EQ(res.delivered, paths.size());
  EXPECT_GE(res.makespan, longest);
  EXPECT_GE(res.makespan, res.max_link_load);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PacketSimLaws,
                         ::testing::Values(11u, 22u, 33u, 44u));

}  // namespace
}  // namespace bfly
