// Differential fuzzing: every solver against the exhaustive optimum on
// random multigraphs, plus cross-checks between independent
// implementations of the same quantity.
#include <gtest/gtest.h>

#include "core/partition.hpp"
#include "core/rng.hpp"
#include "cut/branch_bound.hpp"
#include "cut/brute_force.hpp"
#include "cut/fiduccia_mattheyses.hpp"
#include "cut/multilevel.hpp"
#include "cut/simulated_annealing.hpp"
#include "expansion/expansion.hpp"
#include "expansion/local_search.hpp"

namespace bfly {
namespace {

Graph random_multigraph(NodeId n, double p, std::uint64_t seed) {
  Rng rng(seed);
  GraphBuilder gb(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      if (rng.bernoulli(p)) gb.add_edge(u, v);
      if (rng.bernoulli(p / 4)) gb.add_edge(u, v);  // occasional parallel
    }
  }
  // Keep the graph connected-ish: chain fallback.
  for (NodeId v = 0; v + 1 < n; ++v) {
    if (!gb.num_edges()) gb.add_edge(v, v + 1);
  }
  return std::move(gb).build();
}

class SolverFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SolverFuzz, HeuristicsNeverBeatExhaustiveAndBnBMatchesIt) {
  const Graph g = random_multigraph(11, 0.35, GetParam());
  const auto exact = cut::min_bisection_exhaustive(g);
  const auto bb = cut::min_bisection_branch_bound(g);
  ASSERT_EQ(bb.capacity, exact.capacity);

  for (const auto& r : {cut::min_bisection_fiduccia_mattheyses(g),
                        cut::min_bisection_simulated_annealing(g),
                        cut::min_bisection_multilevel(g)}) {
    ASSERT_GE(r.capacity, exact.capacity) << r.method;
    ASSERT_TRUE(cut::is_bisection(r.sides)) << r.method;
    ASSERT_EQ(cut_capacity(g, r.sides), r.capacity) << r.method;
  }
}

TEST_P(SolverFuzz, ExpansionSweepMatchesSizeEnumeration) {
  const Graph g = random_multigraph(10, 0.3, GetParam() * 31 + 7);
  const auto table = expansion::exact_expansion(g);
  for (const std::size_t k : {1u, 3u, 5u, 8u}) {
    const auto single = expansion::exact_expansion_of_size(g, k);
    ASSERT_EQ(single.ee, table[k].ee) << "k=" << k;
    ASSERT_EQ(single.ne, table[k].ne) << "k=" << k;
  }
}

TEST_P(SolverFuzz, LocalSearchNeverBeatsExact) {
  const Graph g = random_multigraph(10, 0.35, GetParam() * 97 + 13);
  const auto table = expansion::exact_expansion(g);
  for (const std::size_t k : {2u, 4u, 6u}) {
    const auto ee = expansion::min_ee_set_local_search(g, k);
    ASSERT_GE(ee.objective, table[k].ee);
    const auto ne = expansion::min_ne_set_local_search(g, k);
    ASSERT_GE(ne.objective, table[k].ne);
  }
}

TEST_P(SolverFuzz, BranchBoundInsensitiveToInitialBoundTightness) {
  // Pruning-correctness differential for the upper-bound machinery: the
  // search must return the same optimum whether it starts from no bound,
  // a loose bound, or a bound already equal to the optimum (the
  // initial_bound is inclusive, so the optimal solution stays findable).
  const Graph g = random_multigraph(11, 0.35, GetParam() * 17 + 5);
  const auto exact = cut::min_bisection_exhaustive(g);

  cut::BranchBoundOptions loose;
  loose.initial_bound = g.num_edges();  // trivially valid upper bound
  const auto from_loose = cut::min_bisection_branch_bound(g, loose);
  ASSERT_EQ(from_loose.capacity, exact.capacity);
  ASSERT_EQ(from_loose.exactness, cut::Exactness::kExact);
  ASSERT_TRUE(cut::is_bisection(from_loose.sides));

  cut::BranchBoundOptions tight;
  tight.initial_bound = exact.capacity;
  const auto from_tight = cut::min_bisection_branch_bound(g, tight);
  ASSERT_EQ(from_tight.capacity, exact.capacity);
  ASSERT_EQ(from_tight.exactness, cut::Exactness::kExact);
  ASSERT_TRUE(cut::is_bisection(from_tight.sides));
  ASSERT_EQ(cut_capacity(g, from_tight.sides), from_tight.capacity);
}

TEST_P(SolverFuzz, BranchBoundLiveBoundSemantics) {
  // The portfolio's live incumbent bound is exclusive: with the cell one
  // above the optimum the search still recovers the optimal cut; with it
  // at the optimum the search proves no strictly better cut exists.
  const Graph g = random_multigraph(10, 0.4, GetParam() * 23 + 11);
  const auto exact = cut::min_bisection_exhaustive(g);

  std::atomic<std::size_t> above{exact.capacity + 1};
  cut::BranchBoundOptions opts;
  opts.live_bound = &above;
  const auto found = cut::min_bisection_branch_bound(g, opts);
  ASSERT_EQ(found.capacity, exact.capacity);
  ASSERT_EQ(found.exactness, cut::Exactness::kExact);

  std::atomic<std::size_t> at{exact.capacity};
  cut::BranchBoundOptions proof;
  proof.live_bound = &at;
  const auto proved = cut::min_bisection_branch_bound(g, proof);
  ASSERT_EQ(proved.capacity, static_cast<std::size_t>(-1));
  ASSERT_EQ(proved.exactness, cut::Exactness::kExact);
}

TEST_P(SolverFuzz, SubsetBisectionAgreesAcrossEngines) {
  const Graph g = random_multigraph(10, 0.4, GetParam() * 5 + 3);
  Rng rng(GetParam());
  // Random subset of 4 nodes.
  std::vector<NodeId> subset;
  std::vector<std::uint8_t> used(g.num_nodes(), 0);
  while (subset.size() < 4) {
    const NodeId v = static_cast<NodeId>(rng.below(g.num_nodes()));
    if (!used[v]) {
      used[v] = 1;
      subset.push_back(v);
    }
  }
  const auto ex = cut::min_cut_bisecting_exhaustive(g, subset);
  cut::BranchBoundOptions opts;
  opts.bisect_subset = subset;
  const auto bb = cut::min_bisection_branch_bound(g, opts);
  ASSERT_EQ(ex.capacity, bb.capacity);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverFuzz,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace bfly
