// Unit tests for the core substrate: graph construction, partitions,
// bitsets, RNG, math helpers, thread pool.
#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "core/bitset64.hpp"
#include "core/error.hpp"
#include "core/graph.hpp"
#include "core/math_util.hpp"
#include "core/partition.hpp"
#include "core/rng.hpp"
#include "core/thread_pool.hpp"

namespace bfly {
namespace {

Graph triangle() {
  GraphBuilder gb(3);
  gb.add_edge(0, 1);
  gb.add_edge(1, 2);
  gb.add_edge(0, 2);
  return std::move(gb).build();
}

TEST(Graph, BasicConstruction) {
  const Graph g = triangle();
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 0));
  EXPECT_EQ(g.max_degree(), 2u);
  EXPECT_EQ(g.degree_sum(), 6u);
}

TEST(Graph, NeighborsSorted) {
  GraphBuilder gb(5);
  gb.add_edge(3, 0);
  gb.add_edge(3, 4);
  gb.add_edge(3, 1);
  const Graph g = std::move(gb).build();
  const auto nb = g.neighbors(3);
  ASSERT_EQ(nb.size(), 3u);
  EXPECT_TRUE(std::is_sorted(nb.begin(), nb.end()));
}

TEST(Graph, ParallelEdges) {
  GraphBuilder gb(2);
  gb.add_edge(0, 1);
  gb.add_edge(1, 0);
  gb.add_edge(0, 1);
  const Graph g = std::move(gb).build();
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.edge_multiplicity(0, 1), 3u);
  EXPECT_EQ(g.degree(0), 3u);
}

TEST(Graph, RejectsSelfLoopsAndOutOfRange) {
  GraphBuilder gb(2);
  EXPECT_THROW(gb.add_edge(0, 0), PreconditionError);
  EXPECT_THROW(gb.add_edge(0, 2), PreconditionError);
}

TEST(Graph, EdgeEndpointsNormalized) {
  GraphBuilder gb(4);
  gb.add_edge(3, 1);
  const Graph g = std::move(gb).build();
  const auto [u, v] = g.edge(0);
  EXPECT_EQ(u, 1u);
  EXPECT_EQ(v, 3u);
}

TEST(Partition, CapacityTracking) {
  const Graph g = triangle();
  Partition p(g);
  EXPECT_EQ(p.cut_capacity(), 0u);
  p.move(0);
  EXPECT_EQ(p.cut_capacity(), 2u);
  EXPECT_EQ(p.cut_capacity(), p.recompute_capacity());
  p.move(1);
  EXPECT_EQ(p.cut_capacity(), 2u);
  EXPECT_EQ(p.cut_capacity(), p.recompute_capacity());
  p.move(0);
  EXPECT_EQ(p.cut_capacity(), 2u);
  EXPECT_EQ(p.side_size(1), 1u);
}

TEST(Partition, GainMatchesMoveDelta) {
  GraphBuilder gb(6);
  gb.add_edge(0, 1);
  gb.add_edge(0, 2);
  gb.add_edge(1, 2);
  gb.add_edge(2, 3);
  gb.add_edge(3, 4);
  gb.add_edge(4, 5);
  const Graph g = std::move(gb).build();
  std::vector<std::uint8_t> sides = {0, 0, 0, 1, 1, 1};
  Partition p(g, sides);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto before = static_cast<std::int64_t>(p.cut_capacity());
    const auto gain = p.gain(v);
    p.move(v);
    EXPECT_EQ(static_cast<std::int64_t>(p.cut_capacity()), before - gain);
    EXPECT_EQ(p.cut_capacity(), p.recompute_capacity());
    p.move(v);  // restore
  }
}

TEST(Partition, IsBisection) {
  const Graph g = triangle();
  Partition p(g);
  EXPECT_FALSE(p.is_bisection());
  p.move(0);
  EXPECT_TRUE(p.is_bisection());  // 1 vs 2 with N=3 (ceil = 2)
}

TEST(Bitset64, SetTestCount) {
  Bitset64 b(130);
  EXPECT_EQ(b.count(), 0u);
  b.set(0);
  b.set(64);
  b.set(129);
  EXPECT_TRUE(b.test(64));
  EXPECT_FALSE(b.test(63));
  EXPECT_EQ(b.count(), 3u);
  b.flip(64);
  EXPECT_EQ(b.count(), 2u);
  std::vector<std::size_t> seen;
  b.for_each_set([&](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<std::size_t>{0, 129}));
  b.clear();
  EXPECT_FALSE(b.any());
}

TEST(Rng, DeterministicAndInRange) {
  Rng a(42), b(42), c(43);
  EXPECT_EQ(a.next(), b.next());
  EXPECT_NE(a.next(), c.next());
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(a.below(17), 17u);
    const double u = a.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(7);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  shuffle(v, rng);
  std::set<int> s(v.begin(), v.end());
  EXPECT_EQ(s.size(), 100u);
}

TEST(MathUtil, PowersAndLogs) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(6));
  EXPECT_EQ(log2_exact(32), 5u);
  EXPECT_THROW(static_cast<void>(log2_exact(33)), PreconditionError);
  EXPECT_EQ(log2_floor(33), 5u);
  EXPECT_EQ(ceil_div(7, 3), 3u);
  EXPECT_EQ(ipow(3, 4), 81u);
  EXPECT_DOUBLE_EQ(binomial_approx(5, 2), 10.0);
}

TEST(ThreadPool, ParallelForCoversRange) {
  std::vector<std::atomic<int>> hits(257);
  parallel_for(257, [&](std::size_t i) { hits[i].fetch_add(1); }, 4);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, PropagatesExceptions) {
  EXPECT_THROW(
      parallel_for(
          8, [](std::size_t i) { if (i == 3) throw std::runtime_error("x"); },
          2),
      std::runtime_error);
}

TEST(CutCapacity, Standalone) {
  const Graph g = triangle();
  EXPECT_EQ(cut_capacity(g, {0, 1, 1}), 2u);
  EXPECT_EQ(cut_capacity(g, {0, 0, 0}), 0u);
  EXPECT_THROW(static_cast<void>(cut_capacity(g, {0, 1})),
               PreconditionError);
}

}  // namespace
}  // namespace bfly
