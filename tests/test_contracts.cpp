// Negative-path tests for the contracts layer: every public precondition
// must throw PreconditionError whose message names the violated
// expression, and the deep validate() self-checks must both accept
// healthy structures and reject corrupted ones.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/error.hpp"
#include "core/graph.hpp"
#include "core/partition.hpp"
#include "core/thread_pool.hpp"
#include "cut/bisection.hpp"
#include "cut/branch_bound.hpp"
#include "cut/fiduccia_mattheyses.hpp"
#include "embed/embedding.hpp"
#include "expansion/expansion.hpp"
#include "io/ascii_butterfly.hpp"
#include "io/dot.hpp"
#include "topology/butterfly.hpp"

namespace {

using bfly::Graph;
using bfly::GraphBuilder;
using bfly::Partition;
using bfly::PreconditionError;

/// Runs fn, requires it to throw PreconditionError, and requires the
/// what() string to contain `needle` — by convention the violated
/// expression or a phrase naming it.
template <typename Fn>
void expect_precondition(Fn&& fn, const std::string& needle) {
  try {
    fn();
    FAIL() << "expected PreconditionError mentioning: " << needle;
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "message was: " << e.what();
  }
}

Graph path4() {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 3);
  return std::move(b).build();
}

// --- GraphBuilder / Graph ------------------------------------------------

TEST(Contracts, AddEdgeRejectsSelfLoop) {
  GraphBuilder b(3);
  expect_precondition([&] { b.add_edge(1, 1); }, "u != v");
}

TEST(Contracts, AddEdgeRejectsOutOfRangeEndpoint) {
  GraphBuilder b(3);
  expect_precondition([&] { b.add_edge(0, 3); },
                      "u < num_nodes_ && v < num_nodes_");
}

TEST(Contracts, GraphDeepValidateAcceptsHealthyGraphs) {
  EXPECT_NO_THROW(path4().validate());
  EXPECT_NO_THROW(bfly::topo::Butterfly(8).graph().validate());
  EXPECT_NO_THROW(Graph().validate());
}

// --- Partition -----------------------------------------------------------

TEST(Contracts, PartitionRejectsSizeMismatch) {
  const Graph g = path4();
  expect_precondition(
      [&] { Partition p(g, std::vector<std::uint8_t>{0, 1}); },
      "sides_.size() == g.num_nodes()");
}

TEST(Contracts, PartitionRejectsNonBinarySides) {
  const Graph g = path4();
  expect_precondition(
      [&] { Partition p(g, std::vector<std::uint8_t>{0, 1, 2, 1}); },
      "sides must be 0 or 1");
}

TEST(Contracts, PartitionDeepValidateAcceptsIncrementalUpdates) {
  const Graph g = path4();
  Partition p(g, std::vector<std::uint8_t>{0, 0, 1, 1});
  p.move(1);
  p.move(2);
  EXPECT_NO_THROW(p.validate());
  EXPECT_EQ(p.cut_capacity(), p.recompute_capacity());
}

// --- validate_cut / bisects_subset --------------------------------------

TEST(Contracts, ValidateCutRejectsWrongSideCount) {
  const Graph g = path4();
  bfly::cut::CutResult r;
  r.sides = {0, 1};
  r.capacity = 1;
  expect_precondition([&] { bfly::cut::validate_cut(g, r); },
                      "r.sides.size() == g.num_nodes()");
}

TEST(Contracts, ValidateCutRejectsMiscountedCapacity) {
  const Graph g = path4();
  bfly::cut::CutResult r;
  r.sides = {0, 0, 1, 1};
  r.capacity = 2;  // the real cut is 1
  expect_precondition([&] { bfly::cut::validate_cut(g, r); },
                      "cut_capacity(g, r.sides) == r.capacity");
}

TEST(Contracts, ValidateCutRejectsNonBinarySide) {
  const Graph g = path4();
  bfly::cut::CutResult r;
  r.sides = {0, 0, 3, 1};
  r.capacity = 1;
  expect_precondition([&] { bfly::cut::validate_cut(g, r); },
                      "cut sides must be 0 or 1");
}

TEST(Contracts, ValidateCutEnforcesBalanceOnRequest) {
  const Graph g = path4();
  bfly::cut::CutResult r;
  r.sides = {0, 0, 0, 1};
  r.capacity = 1;
  EXPECT_NO_THROW(bfly::cut::validate_cut(g, r));  // lopsided cut is a cut
  expect_precondition(
      [&] { bfly::cut::validate_cut(g, r, /*require_bisection=*/true); },
      "is_bisection");
}

TEST(Contracts, BisectsSubsetRejectsOutOfRangeNode) {
  const std::vector<std::uint8_t> sides{0, 1, 0, 1};
  const std::vector<bfly::NodeId> subset{1, 9};
  expect_precondition(
      [&] {
        (void)bfly::cut::bisects_subset(sides, subset);
      },
      "subset node out of range");
}

// --- solvers -------------------------------------------------------------

TEST(Contracts, SolversRejectSingletonGraphs) {
  GraphBuilder b(1);
  const Graph g = std::move(b).build();
  expect_precondition(
      [&] { (void)bfly::cut::min_bisection_branch_bound(g); },
      "at least two nodes");
  expect_precondition(
      [&] { (void)bfly::cut::min_bisection_fiduccia_mattheyses(g); },
      "at least two nodes");
}

TEST(Contracts, FmRefinementRequiresBisectionStart) {
  const Graph g = path4();
  bfly::cut::CutResult seed;
  seed.sides = {0, 0, 0, 1};
  seed.capacity = 1;
  expect_precondition(
      [&] {
        (void)bfly::cut::refine_fiduccia_mattheyses(g, seed.sides);
      },
      "bisection start");
}

// --- embedding -----------------------------------------------------------

TEST(Contracts, MeasureEmbeddingRejectsWrongNodeMapSize) {
  const Graph guest = path4();
  const Graph host = path4();
  bfly::embed::Embedding e;
  e.node_map = {0, 1};  // guest has 4 nodes
  expect_precondition(
      [&] { (void)bfly::embed::measure_embedding(guest, host, e); },
      "e.node_map.size() == guest.num_nodes()");
}

TEST(Contracts, MeasureEmbeddingRejectsBrokenPath) {
  const Graph guest = path4();
  const Graph host = path4();
  bfly::embed::Embedding e;
  e.node_map = {0, 1, 2, 3};
  // Identity paths, except edge (0,1) detours through node 2: the
  // endpoints still match the guest edge, but hop 0--2 is not a host
  // edge.
  for (const auto& [u, v] : guest.edges()) {
    if (u == 0 && v == 1) {
      e.paths.push_back({0, 2, 1});
    } else {
      e.paths.push_back({u, v});
    }
  }
  expect_precondition(
      [&] { (void)bfly::embed::measure_embedding(guest, host, e); },
      "has_edge");
}

TEST(Contracts, ValidateEmbeddingRejectsStaleMetrics) {
  const Graph guest = path4();
  const Graph host = path4();
  bfly::embed::Embedding e;
  e.node_map = {0, 1, 2, 3};
  e.paths = {{0, 1}, {1, 2}, {2, 3}};
  bfly::embed::EmbeddingMetrics m =
      bfly::embed::measure_embedding(guest, host, e);
  EXPECT_NO_THROW(bfly::embed::validate_embedding(guest, host, e, m));
  m.dilation += 1;
  expect_precondition(
      [&] { bfly::embed::validate_embedding(guest, host, e, m); },
      "dilation");
}

// --- expansion -----------------------------------------------------------

TEST(Contracts, ValidateExpansionEntryRejectsWrongWitness) {
  const Graph g = path4();
  bfly::expansion::ExpansionEntry entry =
      bfly::expansion::exact_expansion_of_size(g, 2);
  EXPECT_NO_THROW(bfly::expansion::validate_expansion_entry(g, 2, entry));
  bfly::expansion::ExpansionEntry broken = entry;
  broken.ee_witness = {0, 0};
  expect_precondition(
      [&] { bfly::expansion::validate_expansion_entry(g, 2, broken); },
      "witness node repeated");
  broken = entry;
  broken.ee += 1;
  expect_precondition(
      [&] { bfly::expansion::validate_expansion_entry(g, 2, broken); },
      "edge_boundary");
}

TEST(Contracts, ExpansionRejectsOutOfRangeSetSize) {
  const Graph g = path4();
  expect_precondition(
      [&] { (void)bfly::expansion::exact_expansion_of_size(g, 9); },
      "k >= 1 && k <= g.num_nodes()");
}

// --- io parsers ----------------------------------------------------------

TEST(Contracts, ReadDotRejectsMalformedInput) {
  expect_precondition(
      [&] { (void)bfly::io::read_dot_string("graph G { a -- a; }"); },
      "self loops are not supported");
  expect_precondition(
      [&] { (void)bfly::io::read_dot_string("graph G { a -- b; } x"); },
      "trailing input");
  expect_precondition(
      [&] { (void)bfly::io::read_dot_string("graph G { a -- b "); },
      "expected ';'");
}

TEST(Contracts, ReadDotRoundTripsAButterfly) {
  const Graph g = bfly::topo::Butterfly(4).graph();
  std::ostringstream os;
  bfly::io::write_dot(os, g);
  const bfly::io::ParsedDot parsed = bfly::io::read_dot_string(os.str());
  EXPECT_EQ(parsed.graph.num_nodes(), g.num_nodes());
  EXPECT_EQ(parsed.graph.num_edges(), g.num_edges());
  EXPECT_NO_THROW(parsed.graph.validate());
}

TEST(Contracts, ReadDotHonorsResourceCaps) {
  bfly::io::DotReadOptions opts;
  opts.max_nodes = 2;
  expect_precondition(
      [&] {
        (void)bfly::io::read_dot_string("graph G { a -- b; b -- c; }",
                                        opts);
      },
      "node count exceeds the configured cap");
}

TEST(Contracts, AsciiButterflyRoundTripAndRejection) {
  const bfly::topo::Butterfly bf(8);
  const std::string text = bfly::io::render_butterfly_ascii(bf);
  const bfly::io::AsciiButterflyInfo info =
      bfly::io::parse_butterfly_ascii(text);
  EXPECT_EQ(info.n, 8u);
  EXPECT_EQ(info.dims, 3u);
  expect_precondition(
      [&] { (void)bfly::io::parse_butterfly_ascii("not a drawing"); },
      "expected 'column' header");
  // Flip one cross marker: the drawing becomes internally inconsistent.
  std::string bad = text;
  const std::size_t pos = bad.find('\\');
  ASSERT_NE(pos, std::string::npos);
  bad[pos] = '|';
  expect_precondition(
      [&] { (void)bfly::io::parse_butterfly_ascii(bad); },
      "cross marker does not match");
}

// --- cancellation --------------------------------------------------------

TEST(Contracts, CancelTokenRequestStopIsIdempotent) {
  bfly::CancelToken token;
  EXPECT_FALSE(token.stop_requested());
  token.request_stop();
  EXPECT_TRUE(token.stop_requested());
  token.request_stop();  // second fire must be a no-op, never un-fire
  token.request_stop();
  EXPECT_TRUE(token.stop_requested());
}

// --- checked_build is a real constant ------------------------------------

TEST(Contracts, CheckedBuildMatchesNdebug) {
#ifdef NDEBUG
  EXPECT_FALSE(bfly::checked_build());
#else
  EXPECT_TRUE(bfly::checked_build());
#endif
}

}  // namespace
