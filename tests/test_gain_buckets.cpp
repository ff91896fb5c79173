// The FM refiner's gain-bucket structure against a std::set oracle, and
// its memory bound: a bucket row is live only while its bucket holds a
// node, so live rows equal the number of distinct gains held.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "core/graph.hpp"
#include "core/rng.hpp"
#include "cut/bisection.hpp"
#include "cut/gain_buckets.hpp"

namespace bfly::cut {
namespace {

using Entry = std::pair<std::int64_t, NodeId>;

NodeId oracle_top(const std::set<Entry>& oracle) {
  return oracle.empty() ? kInvalidNode : oracle.rbegin()->second;
}

TEST(GainBuckets, EmptyHasNoTop) {
  GainBuckets gb(100, 4);
  EXPECT_EQ(gb.top(), kInvalidNode);
  EXPECT_EQ(gb.rows_live(), 0u);
  gb.insert(7, -4);
  gb.insert(99, 4);
  EXPECT_EQ(gb.top(), 99u);
  gb.erase(99, 4);
  EXPECT_EQ(gb.top(), 7u);
  gb.erase(7, -4);
  EXPECT_EQ(gb.top(), kInvalidNode);
  EXPECT_EQ(gb.rows_live(), 0u);
  gb.insert(5, 0);  // reuses a freed row
  EXPECT_EQ(gb.top(), 5u);
  EXPECT_EQ(gb.rows_live(), 1u);
  EXPECT_EQ(gb.rows_allocated(), 2u);
}

TEST(GainBuckets, RandomOperationsMatchSetOracle) {
  Rng rng(0x6b75u);
  for (const NodeId n : {1u, 63u, 64u, 65u, 200u, 4097u, 5000u}) {
    for (const std::int64_t max_gain : {0, 1, 5, 300}) {
      GainBuckets gb(n, max_gain);
      std::set<Entry> oracle;
      std::map<std::int64_t, int> held;  // gain -> nodes holding it
      const auto add = [&](NodeId v, std::int64_t g) {
        oracle.emplace(g, v);
        ++held[g];
      };
      const auto remove = [&](NodeId v, std::int64_t g) {
        oracle.erase({g, v});
        if (--held[g] == 0) held.erase(g);
      };
      std::vector<std::int64_t> gain(n, 0);
      std::vector<std::uint8_t> present(n, 0);
      std::size_t peak = 0;
      const auto random_gain = [&] {
        return static_cast<std::int64_t>(rng.below(2 * max_gain + 1)) -
               max_gain;
      };
      for (int op = 0; op < 20000; ++op) {
        const auto v = static_cast<NodeId>(rng.below(n));
        const std::uint64_t kind = rng.below(4);
        if (!present[v]) {
          gain[v] = random_gain();
          gb.insert(v, gain[v]);
          add(v, gain[v]);
          present[v] = 1;
        } else if (kind == 0) {
          gb.erase(v, gain[v]);
          remove(v, gain[v]);
          present[v] = 0;
        } else if (kind == 1) {
          const std::int64_t next = random_gain();
          gb.update(v, gain[v], next);
          remove(v, gain[v]);
          add(v, next);
          gain[v] = next;
        }
        ASSERT_EQ(gb.top(), oracle_top(oracle)) << "n " << n << " op " << op;
        ASSERT_EQ(gb.rows_live(), held.size());
        peak = std::max(peak, gb.rows_live());
      }
      EXPECT_EQ(gb.rows_allocated(), peak);
      // Lock every node, highest first, as an FM pass would.
      while (!oracle.empty()) {
        const NodeId v = gb.top();
        ASSERT_EQ(v, oracle_top(oracle));
        gb.erase(v, gain[v]);
        remove(v, gain[v]);
      }
      EXPECT_EQ(gb.top(), kInvalidNode);
      EXPECT_EQ(gb.rows_live(), 0u);
    }
  }
}

// Star K_{1,19999}: gains span [-19999, 19999], but only the centre's
// and the leaves' gains are ever held, so a couple of rows suffice where
// a row per possible gain would be 39,999 rows of 20,000 bits.
TEST(GainBuckets, StarHoldsAFewRowsNotOnePerPossibleGain) {
  constexpr NodeId kLeaves = 19999;
  GraphBuilder b(kLeaves + 1);
  for (NodeId v = 1; v <= kLeaves; ++v) b.add_edge(0, v);
  const Graph star = std::move(b).build();
  const WeightedGraph wg = to_weighted(star);

  // Every leaf across from the centre: the centre's gain is the maximum.
  GainBuckets gb(star.num_nodes(), kLeaves);
  gb.insert(0, kLeaves);
  for (NodeId v = 1; v <= kLeaves; ++v) gb.insert(v, 1);
  EXPECT_EQ(gb.top(), 0u);
  EXPECT_EQ(gb.rows_live(), 2u);
  // Moving the centre locks it and flips every leaf's gain.
  gb.erase(0, kLeaves);
  for (NodeId v = 1; v <= kLeaves; ++v) gb.update(v, 1, -1);
  EXPECT_EQ(gb.top(), kLeaves);
  EXPECT_EQ(gb.rows_live(), 1u);
  EXPECT_LE(gb.rows_allocated(), 3u);

  // A whole refinement of a star stays a bisection with the tracked cut.
  std::vector<std::uint8_t> sides(star.num_nodes(), 0);
  for (NodeId v = 1; v <= kLeaves; v += 2) sides[v] = 1;
  const std::vector<std::uint32_t> unit(star.num_nodes(), 1);
  while (weighted_fm_pass(wg, unit, sides, 0)) {
  }
  EXPECT_TRUE(is_bisection(sides));
  // Every bisection cuts the 10,000 leaves across from the centre.
  EXPECT_EQ(weighted_cut(wg, sides), 10000u);
}

}  // namespace
}  // namespace bfly::cut
