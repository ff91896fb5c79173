// Heuristic bisection solvers: validity on all families, agreement with
// the exact optimum on small instances, refinement behavior.
#include <gtest/gtest.h>

#include "core/partition.hpp"
#include "core/rng.hpp"
#include "cut/brute_force.hpp"
#include "cut/constructive.hpp"
#include "cut/fiduccia_mattheyses.hpp"
#include "cut/simulated_annealing.hpp"
#include "cut/spectral_bisection.hpp"
#include "topology/butterfly.hpp"
#include "topology/ccc.hpp"
#include "topology/hypercube.hpp"
#include "topology/wrapped_butterfly.hpp"

namespace bfly::cut {
namespace {

void expect_valid(const Graph& g, const CutResult& r) {
  ASSERT_EQ(r.sides.size(), g.num_nodes());
  EXPECT_TRUE(is_bisection(r.sides)) << r.method;
  EXPECT_EQ(cut_capacity(g, r.sides), r.capacity) << r.method;
  EXPECT_EQ(r.exactness, Exactness::kHeuristic);
}

TEST(Heuristics, AllValidOnButterfly) {
  const topo::Butterfly bf(8);
  expect_valid(bf.graph(), min_bisection_fiduccia_mattheyses(bf.graph()));
  expect_valid(bf.graph(), min_bisection_simulated_annealing(bf.graph()));
  expect_valid(bf.graph(), min_bisection_spectral(bf.graph()));
}

TEST(Heuristics, MatchExactOnSmallButterfly) {
  const topo::Butterfly bf(4);
  const auto exact = min_bisection_exhaustive(bf.graph()).capacity;
  EXPECT_EQ(min_bisection_fiduccia_mattheyses(bf.graph()).capacity, exact);
  EXPECT_EQ(min_bisection_simulated_annealing(bf.graph()).capacity, exact);
}

TEST(Heuristics, FindOptimumOnW8) {
  // BW(W8) = 8; the heuristics should find a cut of that capacity.
  const topo::WrappedButterfly wb(8);
  EXPECT_EQ(min_bisection_fiduccia_mattheyses(wb.graph()).capacity, 8u);
}

TEST(Heuristics, FindOptimumOnCCC8) {
  const topo::CubeConnectedCycles cc(8);
  EXPECT_EQ(min_bisection_fiduccia_mattheyses(cc.graph()).capacity, 4u);
}

TEST(Heuristics, HypercubeBisection) {
  // BW(Qd) = 2^(d-1): dimension cut, known optimal.
  const topo::Hypercube q4(4);
  const auto fm = min_bisection_fiduccia_mattheyses(q4.graph());
  EXPECT_EQ(fm.capacity, 8u);
}

TEST(Heuristics, FMDeterministicAcrossThreadCounts) {
  // Parallel restarts must not change the answer.
  const topo::Butterfly bf(16);
  FiducciaMattheysesOptions serial, threaded;
  serial.seed = threaded.seed = 77;
  serial.num_threads = 0;
  threaded.num_threads = 4;
  const auto a = min_bisection_fiduccia_mattheyses(bf.graph(), serial);
  const auto b = min_bisection_fiduccia_mattheyses(bf.graph(), threaded);
  EXPECT_EQ(a.capacity, b.capacity);
  EXPECT_EQ(a.sides, b.sides);
}

TEST(Heuristics, DeterministicUnderSeed) {
  const topo::Butterfly bf(8);
  FiducciaMattheysesOptions o1, o2;
  o1.seed = o2.seed = 123;
  const auto a = min_bisection_fiduccia_mattheyses(bf.graph(), o1);
  const auto b = min_bisection_fiduccia_mattheyses(bf.graph(), o2);
  EXPECT_EQ(a.capacity, b.capacity);
  EXPECT_EQ(a.sides, b.sides);
}

TEST(Refinement, NeverWorsensAConstructiveCut) {
  const topo::WrappedButterfly wb(16);
  const auto base = column_split_bisection(wb);
  const auto refined = refine_fiduccia_mattheyses(wb.graph(), base.sides);
  EXPECT_LE(refined.capacity, base.capacity);
  EXPECT_TRUE(is_bisection(refined.sides));
}

TEST(Refinement, RequiresBisectionInput) {
  const topo::Butterfly bf(4);
  std::vector<std::uint8_t> all_zero(bf.num_nodes(), 0);
  EXPECT_THROW(refine_fiduccia_mattheyses(bf.graph(), all_zero),
               PreconditionError);
}

TEST(Spectral, UnrefinedIsBalanced) {
  const topo::Butterfly bf(16);
  SpectralBisectionOptions opts;
  opts.refine = false;
  const auto r = min_bisection_spectral(bf.graph(), opts);
  EXPECT_TRUE(is_bisection(r.sides));
  EXPECT_EQ(cut_capacity(bf.graph(), r.sides), r.capacity);
}

TEST(Heuristics, LargerInstanceSanity) {
  // On B32 (192 nodes) heuristics should at least match folklore n.
  const topo::Butterfly bf(32);
  const auto fm = min_bisection_fiduccia_mattheyses(bf.graph());
  EXPECT_LE(fm.capacity, 32u);
}

}  // namespace
}  // namespace bfly::cut
