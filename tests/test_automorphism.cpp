// Symmetry subsystem (DESIGN.md §10): permutation arithmetic, the
// per-topology generator exports, group orders and orbit structure
// against the known automorphism groups, and the differential contract
// of the orbit-sharded expansion sweep — identical expansion tables to
// the unreduced sweep on every instance, with the orbit reduction
// actually biting on the butterfly family. Carries the `symmetry` ctest
// label (`ctest -L symmetry`).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "algo/automorphism.hpp"
#include "core/graph.hpp"
#include "core/rng.hpp"
#include "expansion/expansion.hpp"
#include "topology/butterfly.hpp"
#include "topology/ccc.hpp"
#include "topology/hypercube.hpp"
#include "topology/mesh_of_stars.hpp"
#include "topology/wrapped_butterfly.hpp"

namespace bfly {
namespace {

struct Named {
  const char* name;
  const Graph* g;
  std::vector<algo::Perm> gens;
};

// The generator-export surface under test: every topology class that
// ships automorphism_generators(), across the sizes the exact kernels
// run on. (W2/CCC2 do not exist — both families need log n >= 2.)
class Instances {
 public:
  Instances()
      : b2_(2), b4_(4), b8_(8), w4_(4), w8_(8), c4_(4), c8_(8),
        q3_(3), q4_(4), q5_(5), m22_(2, 2), m23_(2, 3), m33_(3, 3),
        m44_(4, 4) {}

  [[nodiscard]] std::vector<Named> all() const {
    return {
        {"B2", &b2_.graph(), b2_.automorphism_generators()},
        {"B4", &b4_.graph(), b4_.automorphism_generators()},
        {"B8", &b8_.graph(), b8_.automorphism_generators()},
        {"W4", &w4_.graph(), w4_.automorphism_generators()},
        {"W8", &w8_.graph(), w8_.automorphism_generators()},
        {"CCC4", &c4_.graph(), c4_.automorphism_generators()},
        {"CCC8", &c8_.graph(), c8_.automorphism_generators()},
        {"Q3", &q3_.graph(), q3_.automorphism_generators()},
        {"Q4", &q4_.graph(), q4_.automorphism_generators()},
        {"Q5", &q5_.graph(), q5_.automorphism_generators()},
        {"MOS2x2", &m22_.graph(), m22_.automorphism_generators()},
        {"MOS2x3", &m23_.graph(), m23_.automorphism_generators()},
        {"MOS3x3", &m33_.graph(), m33_.automorphism_generators()},
        {"MOS4x4", &m44_.graph(), m44_.automorphism_generators()},
    };
  }

 private:
  topo::Butterfly b2_, b4_, b8_;
  topo::WrappedButterfly w4_, w8_;
  topo::CubeConnectedCycles c4_, c8_;
  topo::Hypercube q3_, q4_, q5_;
  topo::MeshOfStars m22_, m23_, m33_, m44_;
};

TEST(Automorphism, PermArithmeticRoundTrips) {
  const algo::Perm id = algo::identity_perm(6);
  EXPECT_TRUE(algo::is_permutation(id));
  const algo::Perm p = {2, 0, 1, 5, 4, 3};
  ASSERT_TRUE(algo::is_permutation(p));
  EXPECT_EQ(algo::compose(p, algo::inverse(p)), id);
  EXPECT_EQ(algo::compose(algo::inverse(p), p), id);
  // apply_to_mask agrees with pointwise application, and the inverse
  // undoes it.
  Rng rng(99);
  for (int t = 0; t < 50; ++t) {
    const std::uint64_t m = rng.next() & 0x3f;
    std::uint64_t expect = 0;
    for (NodeId v = 0; v < 6; ++v) {
      if ((m >> v) & 1u) expect |= std::uint64_t{1} << p[v];
    }
    EXPECT_EQ(algo::apply_to_mask(p, m), expect);
    EXPECT_EQ(algo::apply_to_mask(algo::inverse(p),
                                  algo::apply_to_mask(p, m)),
              m);
  }
  EXPECT_FALSE(algo::is_permutation({0, 0, 1}));
}

TEST(Automorphism, EveryExportedGeneratorIsAnAutomorphism) {
  const Instances inst;
  for (const auto& [name, g, gens] : inst.all()) {
    ASSERT_FALSE(gens.empty()) << name;
    for (std::size_t i = 0; i < gens.size(); ++i) {
      EXPECT_TRUE(algo::is_permutation(gens[i]))
          << name << " generator " << i;
      EXPECT_EQ(gens[i].size(), g->num_nodes()) << name << " generator " << i;
      EXPECT_TRUE(algo::is_automorphism(*g, gens[i]))
          << name << " generator " << i;
    }
  }
}

TEST(Automorphism, GroupOrdersMatchTheKnownGroups) {
  const Instances inst;
  // |Aut| of the generated group. For Bn: 2^log2(n) translations x level
  // reversal x ...; for Wn/CCCn (n = 2^d columns, d >= 3): 2^d * d * 2
  // (XOR translations, rotations, reflection); Qd: 2^d * d!; MOS_j,k:
  // j! * k! (x 2 swap for j = k). The d = 2 wrapped/CCC cases are
  // degenerate (multi-edges collapse symmetries).
  const std::vector<std::pair<const char*, std::size_t>> expect = {
      {"B2", 8},      {"B4", 32},     {"B8", 128},  {"W4", 16},
      {"W8", 48},     {"CCC4", 8},    {"CCC8", 48}, {"Q3", 48},
      {"Q4", 384},    {"Q5", 3840},   {"MOS2x2", 8}, {"MOS2x3", 12},
      {"MOS3x3", 72}, {"MOS4x4", 1152},
  };
  const auto all = inst.all();
  for (const auto& [name, order] : expect) {
    bool found = false;
    for (const auto& [iname, g, gens] : all) {
      if (std::string_view(iname) != name) continue;
      found = true;
      const algo::PermutationGroup grp(g->num_nodes(), gens);
      EXPECT_EQ(grp.order(), order) << name;
    }
    EXPECT_TRUE(found) << name;
  }
}

TEST(Automorphism, OrbitStructureMatchesTransitivity) {
  const Instances inst;
  for (const auto& [name, g, gens] : inst.all()) {
    const algo::PermutationGroup grp(g->num_nodes(), gens);
    const auto orbits = grp.vertex_orbits();
    // Orbits partition the vertex set.
    std::size_t covered = 0;
    for (const auto& o : orbits) covered += o.size();
    EXPECT_EQ(covered, g->num_nodes()) << name;
    const std::string_view n(name);
    if (n == "W8" || n == "CCC8" || n.substr(0, 1) == "Q") {
      // Vertex-transitive families: one orbit.
      EXPECT_EQ(orbits.size(), 1u) << name;
    } else if (n == "B4") {
      // Level reversal fuses levels {0, 2}; level 1 is its own orbit.
      EXPECT_EQ(orbits.size(), 2u) << name;
    } else if (n == "MOS3x3" || n == "MOS4x4" || n == "MOS2x2") {
      // Square mesh-of-stars: centers vs leaves.
      EXPECT_EQ(orbits.size(), 2u) << name;
    } else if (n == "MOS2x3") {
      EXPECT_EQ(orbits.size(), 3u) << name;
    }
    // orbit(v) is consistent with the partition.
    for (const auto& o : orbits) {
      for (const NodeId v : o) {
        EXPECT_EQ(grp.orbit(v), o) << name << " vertex " << v;
      }
    }
  }
}

TEST(Automorphism, ElementEnumerationHonorsItsCap) {
  const topo::Hypercube q4(4);
  // |Aut(Q4)| = 384: a cap below that must answer nullptr (degrade to
  // symmetry-off), not a partial list — and the failed enumeration is
  // cached, so the same object keeps answering nullptr even for caps
  // that would fit (documented: no redoing a blown-up closure).
  const algo::PermutationGroup capped(q4.graph().num_nodes(),
                                      q4.automorphism_generators());
  EXPECT_EQ(capped.elements(/*max_elements=*/100), nullptr);
  EXPECT_EQ(capped.elements(/*max_elements=*/500), nullptr);
  const algo::PermutationGroup fresh(q4.graph().num_nodes(),
                                     q4.automorphism_generators());
  const auto* els = fresh.elements(/*max_elements=*/500);
  ASSERT_NE(els, nullptr);
  EXPECT_EQ(els->size(), 384u);
  // A cached full list answers per-cap: big enough sees it, smaller
  // does not.
  EXPECT_EQ(fresh.elements(/*max_elements=*/100), nullptr);
  EXPECT_NE(fresh.elements(/*max_elements=*/500), nullptr);
  EXPECT_THROW((void)fresh.order(/*max_elements=*/100), PreconditionError);
}

// --- Differential contract of the orbit-sharded expansion sweep ---

TEST(SymmetryShardedExpansion, IdenticalTablesAndWeightedCoverage) {
  const Instances inst;
  for (const char* pick : {"B4", "W4", "CCC4", "Q3", "MOS3x3"}) {
    for (const auto& [name, g, gens] : inst.all()) {
      if (std::string_view(name) != pick) continue;
      const algo::PermutationGroup grp(g->num_nodes(), gens);
      expansion::ExactExpansionOptions serial;
      serial.num_threads = 1;
      const auto ref = expansion::exact_expansion_full(*g, serial);
      expansion::ExactExpansionOptions sym;
      sym.num_threads = 1;
      sym.shard_bits = 4;
      sym.symmetry = &grp;
      const auto red = expansion::exact_expansion_full(*g, sym);
      // The weighted-coverage identity is the orbit math's self-check:
      // representatives times their orbit sizes must tile all 2^N
      // subsets exactly.
      EXPECT_EQ(red.visited_states, std::uint64_t{1} << g->num_nodes())
          << name;
      EXPECT_LE(red.scanned_states, ref.scanned_states) << name;
      ASSERT_EQ(red.table.size(), ref.table.size()) << name;
      for (std::size_t k = 1; k < ref.table.size(); ++k) {
        EXPECT_EQ(red.table[k].ee, ref.table[k].ee) << name << " k=" << k;
        EXPECT_EQ(red.table[k].ne, ref.table[k].ne) << name << " k=" << k;
        expansion::validate_expansion_entry(*g, k, red.table[k]);
      }
    }
  }
}

TEST(SymmetryShardedExpansion, OrbitReductionBitesOnTheButterfly) {
  const topo::Butterfly b4(4);
  const algo::PermutationGroup grp(b4.graph().num_nodes(),
                                   b4.automorphism_generators());
  expansion::ExactExpansionOptions sym;
  sym.num_threads = 1;
  sym.shard_bits = 4;
  sym.symmetry = &grp;
  const auto red = expansion::exact_expansion_full(b4.graph(), sym);
  // 4096 states unreduced; the top-4-bit pattern orbits leave < 2048.
  EXPECT_LT(red.scanned_states, std::uint64_t{1} << 11);
  EXPECT_EQ(red.visited_states, std::uint64_t{1} << 12);
}

}  // namespace
}  // namespace bfly
