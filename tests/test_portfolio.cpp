// The parallel portfolio solver: validity, dominance over its individual
// solvers on the same seeds, the exactness tag, and the determinism
// contract (same master seed + thread count => same winning capacity; in
// fact capacity is reproducible across thread counts too).
#include <gtest/gtest.h>

#include "core/partition.hpp"
#include "core/rng.hpp"
#include "cut/brute_force.hpp"
#include "cut/fiduccia_mattheyses.hpp"
#include "cut/multilevel.hpp"
#include "cut/portfolio.hpp"
#include "cut/simulated_annealing.hpp"
#include "cut/spectral_bisection.hpp"
#include "topology/butterfly.hpp"
#include "topology/ccc.hpp"

namespace bfly {
namespace {

Graph random_graph(NodeId n, double p, std::uint64_t seed) {
  Rng rng(seed);
  GraphBuilder gb(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      if (rng.bernoulli(p)) gb.add_edge(u, v);
    }
  }
  for (NodeId v = 0; v + 1 < n; ++v) {
    if (gb.num_edges() == 0) gb.add_edge(v, v + 1);
  }
  return std::move(gb).build();
}

TEST(Portfolio, ResultIsValidBisection) {
  const topo::Butterfly bf(8);
  for (const unsigned threads : {1u, 4u}) {
    cut::PortfolioOptions opts;
    opts.num_threads = threads;
    const auto res = cut::min_bisection_portfolio(bf.graph(), opts);
    EXPECT_TRUE(cut::is_bisection(res.best.sides)) << threads;
    EXPECT_EQ(cut_capacity(bf.graph(), res.best.sides), res.best.capacity)
        << threads;
    EXPECT_NO_THROW(cut::validate_cut(bf.graph(), res.best));
  }
}

TEST(Portfolio, CapacityNotWorseThanAnyIndividualSolverOnSameSeeds) {
  const std::uint64_t master = 0xfeedu;
  const auto seeds = cut::derive_portfolio_seeds(master);
  for (const Graph& g :
       {topo::Butterfly(8).graph(), random_graph(14, 0.4, 7)}) {
    cut::PortfolioOptions opts;
    opts.master_seed = master;
    opts.num_threads = 4;
    const auto res = cut::min_bisection_portfolio(g, opts);

    // Replay each heuristic standalone with exactly the portfolio's
    // derived seed and default tuning.
    cut::SpectralBisectionOptions sp;
    sp.seed = seeds.spectral;
    EXPECT_LE(res.best.capacity, cut::min_bisection_spectral(g, sp).capacity);
    cut::MultilevelOptions ml;
    ml.seed = seeds.multilevel;
    EXPECT_LE(res.best.capacity,
              cut::min_bisection_multilevel(g, ml).capacity);
    cut::FiducciaMattheysesOptions fm;
    fm.seed = seeds.fm;
    EXPECT_LE(res.best.capacity,
              cut::min_bisection_fiduccia_mattheyses(g, fm).capacity);
    cut::SimulatedAnnealingOptions sa;
    sa.seed = seeds.sa;
    EXPECT_LE(res.best.capacity,
              cut::min_bisection_simulated_annealing(g, sa).capacity);
  }
}

TEST(Portfolio, ExactTagIffBranchBoundFinished) {
  const Graph g = random_graph(12, 0.35, 3);
  const auto exact = cut::min_bisection_exhaustive(g);

  cut::PortfolioOptions with_bb;
  with_bb.num_threads = 4;
  const auto res = cut::min_bisection_portfolio(g, with_bb);
  EXPECT_TRUE(res.proved_optimal);
  EXPECT_EQ(res.best.exactness, cut::Exactness::kExact);
  EXPECT_EQ(res.best.capacity, exact.capacity);

  cut::PortfolioOptions no_bb;
  no_bb.run_branch_bound = false;
  const auto heur = cut::min_bisection_portfolio(g, no_bb);
  EXPECT_FALSE(heur.proved_optimal);
  EXPECT_EQ(heur.best.exactness, cut::Exactness::kHeuristic);
  EXPECT_GE(heur.best.capacity, exact.capacity);

  cut::PortfolioOptions limited;
  limited.branch_bound_node_limit = 1;  // bb aborts immediately
  const auto lim = cut::min_bisection_portfolio(g, limited);
  EXPECT_FALSE(lim.proved_optimal);
  EXPECT_EQ(lim.best.exactness, cut::Exactness::kHeuristic);
}

TEST(Portfolio, WinningCapacityReproducibleSameSeedAndThreads) {
  const Graph g = random_graph(16, 0.35, 11);
  for (const unsigned threads : {1u, 4u}) {
    cut::PortfolioOptions opts;
    opts.master_seed = 0xabcdu;
    opts.num_threads = threads;
    opts.run_branch_bound = false;  // pure heuristic race, no node limit
    const auto a = cut::min_bisection_portfolio(g, opts);
    const auto b = cut::min_bisection_portfolio(g, opts);
    EXPECT_EQ(a.best.capacity, b.best.capacity) << "threads " << threads;
    EXPECT_EQ(a.winner, b.winner) << "threads " << threads;
  }
}

TEST(Portfolio, WinningCapacityIndependentOfThreadCount) {
  // The stronger documented contract: without a time budget the winning
  // capacity does not depend on the thread count at all.
  const topo::CubeConnectedCycles ccc(8);
  std::size_t cap1 = 0, cap4 = 0;
  for (const unsigned threads : {1u, 4u}) {
    cut::PortfolioOptions opts;
    opts.master_seed = 99;
    opts.num_threads = threads;
    const auto res = cut::min_bisection_portfolio(ccc.graph(), opts);
    (threads == 1 ? cap1 : cap4) = res.best.capacity;
  }
  EXPECT_EQ(cap1, cap4);
  EXPECT_EQ(cap1, 4u);  // BW(CCC8) = n/2 (Lemma 3.3)
}

TEST(Portfolio, TelemetryCoversEverySolver) {
  const topo::Butterfly bf(4);
  cut::PortfolioOptions opts;
  opts.num_threads = 2;
  const auto res = cut::min_bisection_portfolio(bf.graph(), opts);
  ASSERT_EQ(res.telemetry.size(), 5u);
  EXPECT_EQ(res.telemetry[0].solver, "spectral");
  EXPECT_EQ(res.telemetry[4].solver, "branch-bound");
  std::uint32_t published = 0;
  for (const auto& t : res.telemetry) {
    EXPECT_GE(t.wall_seconds, 0.0) << t.solver;
    published += t.improvements_published;
  }
  EXPECT_GE(published, 1u);  // someone must have set the incumbent
  EXPECT_FALSE(res.winner.empty());
  EXPECT_EQ(res.best.method, "portfolio/" + res.winner);
}

TEST(Portfolio, TinyTimeBudgetStillReturnsValidBisection) {
  const topo::Butterfly bf(16);
  cut::PortfolioOptions opts;
  opts.time_budget_seconds = 1e-9;  // everything cancels instantly
  opts.num_threads = 2;
  const auto res = cut::min_bisection_portfolio(bf.graph(), opts);
  EXPECT_TRUE(cut::is_bisection(res.best.sides));
  EXPECT_EQ(cut_capacity(bf.graph(), res.best.sides), res.best.capacity);
}

}  // namespace
}  // namespace bfly
