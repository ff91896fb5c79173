// Bit-identity pins for the heuristic partitioners. Each row records the
// capacity and the FNV-1a-64 hash of the side vector that multilevel,
// flat FM, FM refinement and simulated annealing return on a fixed
// instance and solver seed. The multilevel and FM rows were recorded from
// the multigraph-level multilevel and the FM with both selection
// structures, the annealing and refinement rows from the per-step-exp
// annealer and the list-bucket FM; any internal change that alters a
// move, a tie-break or an acceptance changes a hash here, so these rows
// are the oracle that a refactor of a solver kept every witness
// identical.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/graph.hpp"
#include "cut/fiduccia_mattheyses.hpp"
#include "cut/multilevel.hpp"
#include "cut/portfolio.hpp"
#include "cut/simulated_annealing.hpp"
#include "topology/butterfly.hpp"
#include "topology/ccc.hpp"
#include "topology/hypercube.hpp"
#include "topology/random_regular.hpp"
#include "topology/wrapped_butterfly.hpp"

namespace bfly::cut {
namespace {

std::uint64_t fnv1a64(const std::vector<std::uint8_t>& sides) {
  std::uint64_t h = 1469598103934665603ull;
  for (const std::uint8_t b : sides) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

// rr(300, 3) with every third edge doubled: a multigraph input large
// enough to be coarsened, so parallel input edges reach every level.
Graph doubled_edge_multigraph() {
  const Graph base = topo::random_regular(300, 3, 5);
  GraphBuilder gb(base.num_nodes());
  std::size_t i = 0;
  for (const auto& [a, b] : base.edges()) {
    gb.add_edge(a, b);
    if (i++ % 3 == 0) gb.add_edge(a, b);
  }
  return std::move(gb).build();
}

Graph instance(const std::string& name) {
  if (name == "B64") return topo::Butterfly(64).graph();
  if (name == "B256") return topo::Butterfly(256).graph();
  if (name == "W64") return topo::WrappedButterfly(64).graph();
  if (name == "CCC64") return topo::CubeConnectedCycles(64).graph();
  if (name == "Q8") return topo::Hypercube(8).graph();
  if (name == "Q10") return topo::Hypercube(10).graph();
  if (name == "rr500-d4-s7") return topo::random_regular(500, 4, 7);
  if (name == "rr2k-d4-s1") return topo::random_regular(2000, 4, 1);
  if (name == "rr2k-d4-s2") return topo::random_regular(2000, 4, 2);
  if (name == "rr2k-d4-s3") return topo::random_regular(2000, 4, 3);
  if (name == "multi300") return doubled_edge_multigraph();
  ADD_FAILURE() << "unknown instance " << name;
  return Graph{};
}

struct Pin {
  const char* instance;
  std::uint64_t seed;
  std::size_t capacity;
  std::uint64_t hash;
};

// The two solver seeds every instance runs at: multilevel's default and
// FM's default.
constexpr std::uint64_t kMlSeed = 0x313371u;
constexpr std::uint64_t kFmSeed = 0x666du;
// Simulated annealing runs at its default options only.
constexpr std::uint64_t kSaSeed = SimulatedAnnealingOptions{}.seed;

const std::vector<Pin> kMultilevelPins = {
    {"B256", kMlSeed, 256, 0xb6ee1685c49c0b8full},
    {"B256", kFmSeed, 258, 0x5e3718ba1e0788e9ull},
    {"W64", kMlSeed, 64, 0x21bed1112ac28243ull},
    {"W64", kFmSeed, 64, 0x79fcd379387ba143ull},
    {"CCC64", kMlSeed, 32, 0x34f8f3a4d82f9a43ull},
    {"CCC64", kFmSeed, 32, 0x8203ae9a17bfe083ull},
    {"Q10", kMlSeed, 512, 0xad77b49c3ada6583ull},
    {"Q10", kFmSeed, 512, 0x848ea6fc65be8583ull},
    {"rr2k-d4-s1", kMlSeed, 574, 0x112d6c225c798f2dull},
    {"rr2k-d4-s1", kFmSeed, 568, 0x595fef44845f6cedull},
    {"rr2k-d4-s2", kMlSeed, 574, 0xa14c83d53689af43ull},
    {"rr2k-d4-s2", kFmSeed, 568, 0xebe72d1b6f48e1bfull},
    {"rr2k-d4-s3", kMlSeed, 580, 0xadefe66d436dc3c1ull},
    {"rr2k-d4-s3", kFmSeed, 582, 0x64009b36bf1769c3ull},
    {"multi300", kMlSeed, 45, 0x236783199c60eefbull},
    {"multi300", kFmSeed, 47, 0xf2937e215baa1dc1ull},
};

const std::vector<Pin> kFmPins = {
    {"B256", kMlSeed, 272, 0x1c26a88922039e4bull},
    {"B256", kFmSeed, 270, 0x907718cfc7c076ebull},
    {"W64", kMlSeed, 64, 0x4a32f7d0d18ede43ull},
    {"W64", kFmSeed, 64, 0x1f4590d685c50683ull},
    {"CCC64", kMlSeed, 68, 0x72bd129bdb0a1267ull},
    {"CCC64", kFmSeed, 58, 0x2d5b85ce69aad6cdull},
    {"Q10", kMlSeed, 512, 0x1a4e92eafca5fd83ull},
    {"Q10", kFmSeed, 512, 0xcd8de50afc8a7583ull},
    {"rr2k-d4-s1", kMlSeed, 584, 0x72150568982ec55full},
    {"rr2k-d4-s1", kFmSeed, 566, 0x703692b048675895ull},
    {"rr2k-d4-s2", kMlSeed, 580, 0xea52b087f10972f5ull},
    {"rr2k-d4-s2", kFmSeed, 584, 0x5489a6f708456f91ull},
    {"rr2k-d4-s3", kMlSeed, 582, 0x7670fe15bf711ddbull},
    {"rr2k-d4-s3", kFmSeed, 572, 0x26057af396ca59d7ull},
};

const std::vector<Pin> kSimulatedAnnealingPins = {
    {"B64", kSaSeed, 64, 0x008d8ca570077f45ull},
    {"W64", kSaSeed, 64, 0x0c84cce531633e43ull},
    {"CCC64", kSaSeed, 32, 0x88664f85bacc4843ull},
    {"Q8", kSaSeed, 128, 0xa6aebfb149a4e803ull},
    {"rr500-d4-s7", kSaSeed, 142, 0x2283e52e9ed7ae0full},
};

void check(const Pin& p, const CutResult& r) {
  EXPECT_EQ(r.capacity, p.capacity) << p.instance << " seed " << p.seed;
  EXPECT_EQ(fnv1a64(r.sides), p.hash) << p.instance << " seed " << p.seed;
}

TEST(HeuristicPins, MultilevelCapacityAndWitnessUnchanged) {
  for (const Pin& p : kMultilevelPins) {
    MultilevelOptions o;
    o.seed = p.seed;
    check(p, min_bisection_multilevel(instance(p.instance), o));
  }
}

TEST(HeuristicPins, FiducciaMattheysesCapacityAndWitnessUnchanged) {
  for (const Pin& p : kFmPins) {
    FiducciaMattheysesOptions o;
    o.seed = p.seed;
    check(p, min_bisection_fiduccia_mattheyses(instance(p.instance), o));
  }
}

TEST(HeuristicPins, SimulatedAnnealingCapacityAndWitnessUnchanged) {
  for (const Pin& p : kSimulatedAnnealingPins) {
    check(p, min_bisection_simulated_annealing(instance(p.instance)));
  }
}

// The spectral polish path: FM refinement of a fixed bisection (the
// lower half of the node ids on side 0) with the default pass limit.
TEST(HeuristicPins, FmRefinementCapacityAndWitnessUnchanged) {
  const Graph g = instance("rr2k-d4-s1");
  std::vector<std::uint8_t> sides(g.num_nodes(), 0);
  for (NodeId v = g.num_nodes() / 2; v < g.num_nodes(); ++v) sides[v] = 1;
  check({"rr2k-d4-s1", 0, 578, 0x2793c6057dd0bebfull},
        refine_fiduccia_mattheyses(g, std::move(sides)));
}

TEST(HeuristicPins, PortfolioSeedDerivationUnchanged) {
  const PortfolioSeeds s = derive_portfolio_seeds(0xfeedu);
  EXPECT_EQ(s.spectral, 0x3365e73ff6c1e17bull) << std::hex << s.spectral;
  EXPECT_EQ(s.multilevel, 0x2c77a446f151e05aull) << std::hex << s.multilevel;
  EXPECT_EQ(s.fm, 0x987496d61b68db74ull) << std::hex << s.fm;
  EXPECT_EQ(s.sa, 0xd8399aeee490e54full) << std::hex << s.sa;
}

}  // namespace
}  // namespace bfly::cut
