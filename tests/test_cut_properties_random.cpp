// Seeded property-based tests over random graphs and small butterflies:
// cross-solver invariants that every bisection engine must satisfy
// regardless of instance — reported capacities always match an
// independent recomputation, heuristics never beat the exact optimum,
// and one-sided kBound results sit on the correct side of it.
#include <gtest/gtest.h>

#include "core/partition.hpp"
#include "core/rng.hpp"
#include "cut/branch_bound.hpp"
#include "cut/brute_force.hpp"
#include "cut/constructive.hpp"
#include "cut/fiduccia_mattheyses.hpp"
#include "cut/mos_theory.hpp"
#include "cut/multilevel.hpp"
#include "cut/simulated_annealing.hpp"
#include "cut/spectral_bisection.hpp"
#include "topology/butterfly.hpp"

namespace bfly {
namespace {

Graph gnp(NodeId n, double p, std::uint64_t seed) {
  Rng rng(seed);
  GraphBuilder gb(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      if (rng.bernoulli(p)) gb.add_edge(u, v);
    }
  }
  // Ensure at least one edge so every solver has work to do.
  if (gb.num_edges() == 0) gb.add_edge(0, 1);
  return std::move(gb).build();
}

// All heuristic solvers, seeded from one base so each param value
// explores a different trajectory.
std::vector<cut::CutResult> run_all_heuristics(const Graph& g,
                                               std::uint64_t seed) {
  SplitMix64 sm(seed);
  (void)sm.next();  // keeps the later seeds where they were
  cut::FiducciaMattheysesOptions fm;
  fm.seed = sm.next();
  cut::SimulatedAnnealingOptions sa;
  sa.seed = sm.next();
  sa.restarts = 2;
  cut::MultilevelOptions ml;
  ml.seed = sm.next();
  cut::SpectralBisectionOptions sp;
  sp.seed = sm.next();
  return {cut::min_bisection_fiduccia_mattheyses(g, fm),
          cut::min_bisection_simulated_annealing(g, sa),
          cut::min_bisection_multilevel(g, ml),
          cut::min_bisection_spectral(g, sp)};
}

class CutProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CutProperties, GnpEverySolverCapacityMatchesRecompute) {
  const std::uint64_t seed = GetParam();
  const NodeId n = static_cast<NodeId>(8 + seed % 6);
  const double p = 0.25 + 0.05 * static_cast<double>(seed % 7);
  const Graph g = gnp(n, p, seed * 1009 + 1);
  for (const auto& r : run_all_heuristics(g, seed)) {
    EXPECT_TRUE(cut::is_bisection(r.sides)) << r.method;
    EXPECT_EQ(cut_capacity(g, r.sides), r.capacity) << r.method;
    EXPECT_EQ(r.exactness, cut::Exactness::kHeuristic) << r.method;
  }
}

TEST_P(CutProperties, GnpHeuristicsNeverBeatBruteForce) {
  const std::uint64_t seed = GetParam();
  const NodeId n = static_cast<NodeId>(8 + seed % 5);
  const Graph g = gnp(n, 0.4, seed * 733 + 5);
  const auto exact = cut::min_bisection_exhaustive(g);
  EXPECT_EQ(cut_capacity(g, exact.sides), exact.capacity);
  for (const auto& r : run_all_heuristics(g, seed * 3 + 1)) {
    EXPECT_GE(r.capacity, exact.capacity) << r.method;
  }
  // Branch-and-bound agrees with the Gray-code sweep.
  const auto bb = cut::min_bisection_branch_bound(g);
  EXPECT_EQ(bb.capacity, exact.capacity);
  EXPECT_EQ(bb.exactness, cut::Exactness::kExact);
}

TEST_P(CutProperties, ButterflyInvariantsAcrossSolvers) {
  const std::uint64_t seed = GetParam();
  for (const std::uint32_t n : {2u, 4u, 8u}) {
    const topo::Butterfly bf(n);
    const Graph& g = bf.graph();

    // Exact optimum: brute force where the state space allows, the
    // (independently validated) branch-and-bound for B8's 32 nodes.
    cut::CutResult exact;
    if (n < 8) {
      exact = cut::min_bisection_exhaustive(g);
    } else {
      cut::BranchBoundOptions opts;
      opts.initial_bound = cut::column_split_bisection(bf).capacity;
      exact = cut::min_bisection_branch_bound(g, opts);
      ASSERT_EQ(exact.exactness, cut::Exactness::kExact);
    }

    for (const auto& r : run_all_heuristics(g, seed * 17 + n)) {
      EXPECT_TRUE(cut::is_bisection(r.sides)) << "B" << n << " " << r.method;
      EXPECT_EQ(cut_capacity(g, r.sides), r.capacity)
          << "B" << n << " " << r.method;
      EXPECT_GE(r.capacity, exact.capacity) << "B" << n << " " << r.method;
    }

    // kBound upper-bound witness: the folklore column split is a valid
    // bisection whose capacity can only sit at or above the optimum.
    const auto folklore = cut::column_split_bisection(bf);
    EXPECT_EQ(folklore.exactness, cut::Exactness::kBound);
    EXPECT_TRUE(cut::is_bisection(folklore.sides));
    EXPECT_GE(folklore.capacity, exact.capacity);

    // kBound lower bound: the Lemma 2.13 chain gives
    // 2*BW(MOS_{n,n}, M2)/n^2 <= BW(Bn)/n; its value must never exceed
    // the exact optimum.
    const auto mos = cut::mos_m2_bisection_value(n);
    const double lower =
        2.0 * static_cast<double>(mos.capacity) / static_cast<double>(n);
    EXPECT_LE(lower, static_cast<double>(exact.capacity) + 1e-9) << "B" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CutProperties,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace bfly
