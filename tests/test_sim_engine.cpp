// The phase-driven SoA simulation engine (DESIGN.md §15): differential
// equivalence against the reference store-and-forward model, packet
// conservation, bound domination (C14 and the per-instance cut bound),
// virtual-channel capacity and deadlock behavior, and thread-count
// determinism (the tsan stress for the parallel stepper).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/error.hpp"
#include "cut/constructive.hpp"
#include "packet_sim.hpp"
#include "routing/butterfly_routing.hpp"
#include "routing/sim_engine.hpp"
#include "routing/traffic.hpp"
#include "topology/butterfly.hpp"
#include "topology/wrapped_butterfly.hpp"

namespace bfly::routing {
namespace {

Graph path_graph(NodeId n) {
  GraphBuilder gb(n);
  for (NodeId v = 0; v + 1 < n; ++v) gb.add_edge(v, v + 1);
  return std::move(gb).build();
}

Graph triangle_graph() {
  GraphBuilder gb(3);
  gb.add_edge(0, 1);
  gb.add_edge(1, 2);
  gb.add_edge(0, 2);
  return std::move(gb).build();
}

EngineStats run_engine(const Graph& g,
                       const std::vector<std::vector<NodeId>>& paths,
                       SimOptions opts = {}) {
  SimEngine eng(g, opts);
  eng.load(paths);
  return eng.run();
}

// ---- differential equivalence with the reference model --------------

void expect_matches_reference(const Graph& g,
                              const std::vector<std::vector<NodeId>>& paths,
                              unsigned threads) {
  const SimResult ref = simulate_store_and_forward(g, paths);
  SimOptions opts;
  opts.num_threads = threads;
  const EngineStats st = run_engine(g, paths, opts);
  EXPECT_EQ(st.makespan, ref.makespan);
  EXPECT_EQ(st.max_queue, ref.max_queue);
  EXPECT_EQ(st.delivered, ref.delivered);
  EXPECT_EQ(st.max_link_load, ref.max_link_load);
  EXPECT_EQ(st.num_packets, paths.size());
}

TEST(SimEngineDifferential, MatchesReferenceOnSmallButterflies) {
  for (const std::uint32_t n : {4u, 8u}) {
    const topo::Butterfly bf(n);
    for (const char* pat : {"uniform:ppn=3:seed=11", "bitrev:ppn=2",
                            "hotspot:ppn=2:seed=5:hot=70"}) {
      const auto traffic = make_traffic(bf, parse_traffic_spec(pat));
      for (const unsigned threads : {1u, 3u}) {
        SCOPED_TRACE(std::string("B") + std::to_string(n) + " " + pat +
                     " t=" + std::to_string(threads));
        expect_matches_reference(bf.graph(), traffic.paths, threads);
      }
    }
  }
}

TEST(SimEngineDifferential, MatchesReferenceOnW8) {
  const topo::WrappedButterfly wb(8);
  for (const char* pat :
       {"uniform:ppn=4:seed=3", "transpose:ppn=3", "uniform:ppn=1:seed=9"}) {
    const auto traffic = make_traffic(wb, parse_traffic_spec(pat));
    for (const unsigned threads : {1u, 2u}) {
      SCOPED_TRACE(std::string("W8 ") + pat + " t=" +
                   std::to_string(threads));
      expect_matches_reference(wb.graph(), traffic.paths, threads);
    }
  }
}

TEST(SimEngineDifferential, MatchesReferenceOnHandScenarios) {
  const Graph g = path_graph(5);
  expect_matches_reference(g, {{0, 1, 2, 3, 4}}, 1);
  expect_matches_reference(g, {{0, 1, 2}, {0, 1, 2}}, 1);
  expect_matches_reference(g, {{0, 1, 2}, {2, 1, 0}}, 2);
  expect_matches_reference(g, {{0}, {1}}, 1);
  expect_matches_reference(g, {}, 1);
}

// Slots hold global hop indices, and admission sorts by them: that is
// packet-id order only because each packet owns one contiguous range of
// indices. These scenarios make the order decide the makespan, with
// routes of unequal length, zero-hop packets shifting every later range,
// and the contenders at different positions of their routes.
// The graph is the line 2-3-4-5 with two branches merging at node 2:
// 6-1-2 and 0-2. `deep` ({6,1,2,3,4,5}) reaches node 2 after two hops; `shallow`
// ({0,2,3}) after one, having waited a step behind `blocker` ({0,2}).
// Both join link 2->3's queue in step 2, the lower packet id first.
TEST(SimEngineDifferential, HopIndexAdmissionFollowsPacketIds) {
  GraphBuilder gb(7);
  for (const auto& [u, v] : std::vector<std::pair<NodeId, NodeId>>{
           {0, 2}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {1, 6}}) {
    gb.add_edge(u, v);
  }
  const Graph g = std::move(gb).build();
  const std::vector<NodeId> deep = {6, 1, 2, 3, 4, 5};
  const std::vector<NodeId> shallow = {0, 2, 3};
  const std::vector<NodeId> blocker = {0, 2};
  struct Case {
    std::vector<std::vector<NodeId>> paths;
    std::uint32_t makespan;
  };
  const std::vector<Case> cases = {
      // shallow (id 1) crosses 2->3 in step 3, deep in steps 4..6.
      {{blocker, shallow, {4}, deep}, 6},
      // deep (id 0) crosses in step 3 and delivers at 5; shallow at 4.
      {{deep, {3}, blocker, shallow}, 5},
      // Same contest with zero-hop packets around every route.
      {{{5}, blocker, {0}, {2}, shallow, {6}, deep, {1}}, 6},
      {{{2}, deep, {2}, {2}, blocker, shallow, {3}}, 5},
  };
  for (std::size_t c = 0; c < cases.size(); ++c) {
    for (const unsigned threads : {1u, 3u}) {
      SCOPED_TRACE("case " + std::to_string(c) + " t=" +
                   std::to_string(threads));
      expect_matches_reference(g, cases[c].paths, threads);
      SimOptions opts;
      opts.num_threads = threads;
      EXPECT_EQ(run_engine(g, cases[c].paths, opts).makespan,
                cases[c].makespan);
    }
  }
}

// ---- conservation and bound domination ------------------------------

TEST(SimEngine, ConservationAndBoundsOnEverySeededConfig) {
  const topo::Butterfly bf(16);
  const auto cutres = cut::column_split_bisection(bf);
  for (const char* pat :
       {"uniform:ppn=2:seed=1", "uniform:ppn=2:seed=2", "bitrev:ppn=2",
        "transpose:ppn=2", "hotspot:ppn=2:seed=4:hot=30",
        "cutsat:ppn=2:seed=7"}) {
    const auto traffic =
        make_traffic(bf, parse_traffic_spec(pat), &cutres.sides);
    for (const unsigned threads : {1u, 4u}) {
      SCOPED_TRACE(std::string(pat) + " t=" + std::to_string(threads));
      SimOptions opts;
      opts.num_threads = threads;
      const EngineStats st = run_engine(bf.graph(), traffic.paths, opts);
      // Conservation: every injected packet is delivered, every compiled
      // hop is traversed.
      EXPECT_EQ(st.delivered, traffic.paths.size());
      EXPECT_EQ(st.num_packets, traffic.paths.size());
      // Makespan dominates the longest route, the directional cut bound,
      // and the static congestion bound; a violation would be a
      // simulator bug, not bad luck.
      const auto bound =
          traffic_bound(traffic, cutres.capacity, st.max_link_load);
      EXPECT_GE(st.makespan, traffic.max_hops);
      EXPECT_GE(static_cast<double>(st.makespan), bound.lower_bound);
      EXPECT_GE(bound.lower_bound, bound.cut_bound);
      EXPECT_GE(bound.lower_bound,
                static_cast<double>(bound.congestion_bound));
    }
  }
}

TEST(SimEngine, C14InequalityHoldsOnUniformTraffic) {
  // The paper's C14: makespan >= num_packets / (4 BW). With packets-per-
  // node >= 4 the measured congestion comfortably dominates it on every
  // seed (deterministic Rng, so this is a fixed regression point).
  for (const std::uint32_t n : {8u, 16u}) {
    const topo::Butterfly bf(n);
    const auto cutres = cut::column_split_bisection(bf);
    for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
      TrafficSpec spec;
      spec.pattern = TrafficPattern::kUniform;
      spec.packets_per_node = 4;
      spec.seed = seed;
      const auto traffic = make_traffic(bf, spec, &cutres.sides);
      const auto bound = traffic_bound(traffic, cutres.capacity);
      const EngineStats st = run_engine(bf.graph(), traffic.paths);
      SCOPED_TRACE("B" + std::to_string(n) + " seed " +
                   std::to_string(seed));
      EXPECT_GE(static_cast<double>(st.makespan), bound.c14_bound);
    }
  }
}

TEST(SimEngine, CutSaturatingTrafficCrossesEveryPacket) {
  const topo::Butterfly bf(8);
  const auto cutres = cut::column_split_bisection(bf);
  const auto traffic = make_traffic(
      bf, parse_traffic_spec("cutsat:ppn=2:seed=1"), &cutres.sides);
  EXPECT_EQ(traffic.cross_ab + traffic.cross_ba, traffic.paths.size());
  const auto bound = traffic_bound(traffic, cutres.capacity);
  // Pinning sources/destinations on opposite sides tightens the bound to
  // roughly 2x the C14 figure (all packets cross, split two ways).
  EXPECT_GE(bound.cut_bound, 1.5 * bound.c14_bound);
}

// ---- virtual channels, capacity, deadlock ---------------------------

TEST(SimEngine, CapacityThrottlesThePipeline) {
  const Graph g = path_graph(5);
  const std::vector<std::vector<NodeId>> paths = {
      {0, 1, 2, 3, 4}, {0, 1, 2, 3, 4}, {0, 1, 2, 3, 4}};
  // Unbounded: a clean pipeline, one packet behind the other.
  EXPECT_EQ(run_engine(g, paths).makespan, 6u);
  // Capacity 1 with the one-step slot release: each packet must wait for
  // the next queue to drain fully, opening one bubble per stage.
  SimOptions opts;
  opts.vc_capacity = 1;
  const EngineStats st = run_engine(g, paths, opts);
  EXPECT_EQ(st.makespan, 8u);
  EXPECT_EQ(st.delivered, 3u);
  // A capacity at least the static load behaves exactly like unbounded.
  opts.vc_capacity = 3;
  EXPECT_EQ(run_engine(g, paths, opts).makespan, 6u);
}

TEST(SimEngine, DetectsCyclicCapacityDeadlock) {
  // Three packets chasing each other around a triangle with capacity 1:
  // no head can ever advance. The engine must detect the stall and
  // throw instead of spinning.
  const Graph g = triangle_graph();
  const std::vector<std::vector<NodeId>> paths = {
      {0, 1, 2}, {1, 2, 0}, {2, 0, 1}};
  SimOptions opts;
  opts.vc_capacity = 1;
  EXPECT_THROW(static_cast<void>(run_engine(g, paths, opts)),
               PreconditionError);
}

TEST(SimEngine, StageWeightedVcsBreakTheDeadlock) {
  // Saturating traffic on B8 under capacity 1: with a single virtual
  // channel the engine may or may not stall depending on the seed, but
  // with stage-weighted channels (one per monotone level segment of
  // route_bn) the queue dependency graph is acyclic and every
  // configuration drains.
  const topo::Butterfly bf(8);
  const auto cutres = cut::column_split_bisection(bf);
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    TrafficSpec spec;
    spec.pattern = TrafficPattern::kCutSaturating;
    spec.packets_per_node = 4;
    spec.seed = seed;
    const auto traffic = make_traffic(bf, spec, &cutres.sides);
    SimOptions opts;
    opts.vcs_per_link = 3;
    opts.vc_capacity = 1;
    opts.max_steps = 1u << 20;
    SimEngine eng(bf.graph(), opts);
    eng.load(traffic.paths, stage_weighted_vcs(bf, traffic.paths, 3));
    const EngineStats st = eng.run();
    EXPECT_EQ(st.delivered, traffic.paths.size());
    EXPECT_GE(st.makespan, traffic.max_hops);
  }
}

TEST(SimEngine, StageWeightedVcsAreMonotoneAndInRange) {
  const topo::Butterfly bf(16);
  const auto traffic = make_traffic(bf, parse_traffic_spec("uniform:ppn=2"));
  for (const std::uint32_t vcs : {1u, 2u, 3u}) {
    const auto hop_vcs = stage_weighted_vcs(bf, traffic.paths, vcs);
    ASSERT_EQ(hop_vcs.size(), traffic.paths.size());
    for (std::size_t p = 0; p < hop_vcs.size(); ++p) {
      ASSERT_EQ(hop_vcs[p].size(), traffic.paths[p].size() - 1);
      std::uint32_t prev = 0;
      for (const std::uint32_t vc : hop_vcs[p]) {
        EXPECT_LT(vc, vcs);
        EXPECT_GE(vc, prev);  // packets only ever move up in class
        prev = vc;
      }
      // route_bn has at most three monotone segments.
      if (!hop_vcs[p].empty()) {
        EXPECT_LE(hop_vcs[p].back(), 2u);
      }
    }
  }
}

TEST(SimEngine, BoundedStageWeightedVcsPinnedOnB64) {
  // The bounded multi-VC configuration is outside the reference model,
  // so its figures are pinned: the E25 vc3cap4 row of the committed
  // bench baseline.
  const topo::Butterfly bf(64);
  const auto traffic =
      make_traffic(bf, parse_traffic_spec("uniform:ppn=16:seed=42"));
  const auto hop_vcs = stage_weighted_vcs(bf, traffic.paths, 3);
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    SimOptions opts;
    opts.num_threads = threads;
    opts.vcs_per_link = 3;
    opts.vc_capacity = 4;
    SimEngine eng(bf.graph(), opts);
    eng.load(traffic.paths, hop_vcs);
    const EngineStats st = eng.run();
    EXPECT_EQ(st.makespan, 173u);
    EXPECT_EQ(st.max_queue, 16u);
    EXPECT_EQ(st.delivered, traffic.paths.size());
  }
}

// ---- determinism across thread counts (tsan stress) -----------------

TEST(SimEngineStress, ParallelStepperMatchesSerialOnB64) {
  // The two-phase stepper writes disjoint state per queue/node between
  // barriers, so any thread count must produce identical stats. Under
  // tsan this is also the data-race check for the barrier protocol.
  const topo::Butterfly bf(64);
  const auto traffic = make_traffic(
      bf, parse_traffic_spec(sanitized_build() ? "uniform:ppn=1:seed=42"
                                               : "uniform:ppn=4:seed=42"));
  const EngineStats serial = run_engine(bf.graph(), traffic.paths);
  for (const unsigned threads : {2u, 4u, 8u}) {
    SimOptions opts;
    opts.num_threads = threads;
    const EngineStats par = run_engine(bf.graph(), traffic.paths, opts);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(par.makespan, serial.makespan);
    EXPECT_EQ(par.max_queue, serial.max_queue);
    EXPECT_EQ(par.delivered, serial.delivered);
    EXPECT_EQ(par.total_hops, serial.total_hops);
  }
}

TEST(SimEngineStress, ParallelWithCapacityAndVcsMatchesSerial) {
  const topo::Butterfly bf(32);
  const auto cutres = cut::column_split_bisection(bf);
  const auto traffic = make_traffic(
      bf, parse_traffic_spec("cutsat:ppn=2:seed=8"), &cutres.sides);
  const auto hop_vcs = stage_weighted_vcs(bf, traffic.paths, 3);
  EngineStats serial;
  {
    SimOptions opts;
    opts.vcs_per_link = 3;
    opts.vc_capacity = 2;
    SimEngine eng(bf.graph(), opts);
    eng.load(traffic.paths, hop_vcs);
    serial = eng.run();
  }
  EXPECT_EQ(serial.delivered, traffic.paths.size());
  for (const unsigned threads : {2u, 4u}) {
    SimOptions opts;
    opts.num_threads = threads;
    opts.vcs_per_link = 3;
    opts.vc_capacity = 2;
    SimEngine eng(bf.graph(), opts);
    eng.load(traffic.paths, hop_vcs);
    const EngineStats par = eng.run();
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(par.makespan, serial.makespan);
    EXPECT_EQ(par.max_queue, serial.max_queue);
    EXPECT_EQ(par.delivered, serial.delivered);
  }
}

// ---- API contracts --------------------------------------------------

TEST(SimEngine, RejectsBadInput) {
  const Graph g = path_graph(3);
  SimEngine eng(g);
  EXPECT_THROW(eng.load({{0, 2}}), PreconditionError);   // not an edge
  EXPECT_THROW(eng.load({{}}), PreconditionError);       // empty path
  EXPECT_THROW(static_cast<void>(SimEngine(g).run()),    // no load
               PreconditionError);
  EXPECT_THROW(eng.load({{0, 1}}, {}), PreconditionError);  // vc shape
  EXPECT_THROW(eng.load({{0, 1}}, {{5}}), PreconditionError);  // vc range
  // A load that throws part-way discards the previous one too: running
  // half-compiled routes would read stale hop entries.
  eng.load({{0, 1}});
  EXPECT_THROW(eng.load({{0, 1}, {0, 2}}), PreconditionError);
  EXPECT_THROW(static_cast<void>(eng.run()), PreconditionError);
  SimOptions opts;
  opts.vcs_per_link = 0;
  EXPECT_THROW(static_cast<void>(SimEngine(g, opts)), PreconditionError);
}

TEST(SimEngine, MaxStepsAborts) {
  const Graph g = path_graph(5);
  SimOptions opts;
  opts.max_steps = 2;
  EXPECT_THROW(static_cast<void>(run_engine(g, {{0, 1, 2, 3, 4}}, opts)),
               PreconditionError);
}

TEST(SimEngine, RunConsumesTheLoadAndEngineIsReusable) {
  const Graph g = path_graph(4);
  SimEngine eng(g);
  eng.load({{0, 1, 2, 3}});
  EXPECT_EQ(eng.run().makespan, 3u);
  EXPECT_THROW(static_cast<void>(eng.run()), PreconditionError);
  eng.load({{3, 2, 1, 0}, {0, 1}});
  const EngineStats st = eng.run();
  EXPECT_EQ(st.delivered, 2u);
  EXPECT_EQ(st.makespan, 3u);
}

TEST(SimEngine, ZeroHopPathsDeliverAtTimeZero) {
  const Graph g = path_graph(3);
  const EngineStats st = run_engine(g, {{0}, {2}});
  EXPECT_EQ(st.delivered, 2u);
  EXPECT_EQ(st.makespan, 0u);
  EXPECT_EQ(st.total_hops, 0u);
}

// ---- traffic spec parsing -------------------------------------------

TEST(TrafficSpec, RoundTripsThroughCanonicalText) {
  for (const char* text :
       {"uniform:ppn=16:seed=7", "bitrev:ppn=1:seed=1",
        "transpose:ppn=4:seed=2", "hotspot:ppn=2:seed=9:hot=25",
        "cutsat:ppn=32:seed=4"}) {
    const TrafficSpec spec = parse_traffic_spec(text);
    EXPECT_EQ(to_string(spec), text);
    const TrafficSpec again = parse_traffic_spec(to_string(spec));
    EXPECT_EQ(to_string(again), text);
  }
  // Defaults are filled in and canonicalized.
  EXPECT_EQ(to_string(parse_traffic_spec("uniform")), "uniform:ppn=1:seed=1");
}

TEST(TrafficSpec, RejectsMalformedText) {
  for (const char* text :
       {"", "warp", "uniform:", "uniform:ppn", "uniform:ppn=",
        "uniform:ppn=0", "uniform:ppn=4097", "uniform:ppn=1:ppn=2",
        "uniform:hot=3", "hotspot:hot=101", "uniform:ppn=1x",
        "uniform:zzz=1", "uniform:seed=abc"}) {
    SCOPED_TRACE(text);
    EXPECT_THROW(static_cast<void>(parse_traffic_spec(text)), TrafficError);
  }
}

TEST(Traffic, GeneratorsProduceValidRoutes) {
  const topo::Butterfly bf(8);
  const auto cutres = cut::column_split_bisection(bf);
  for (const char* pat : {"uniform:ppn=2:seed=6", "bitrev:ppn=2",
                          "transpose:ppn=2", "hotspot:ppn=2:seed=2",
                          "cutsat:ppn=2:seed=3"}) {
    const auto traffic =
        make_traffic(bf, parse_traffic_spec(pat), &cutres.sides);
    ASSERT_FALSE(traffic.paths.empty());
    std::size_t longest = 0;
    for (const auto& path : traffic.paths) {
      ASSERT_FALSE(path.empty());
      longest = std::max(longest, path.size() - 1);
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        ASSERT_TRUE(bf.graph().has_edge(path[i], path[i + 1]));
      }
    }
    EXPECT_EQ(traffic.max_hops, longest);
  }
  // cutsat without a witness is a contract violation, not data.
  EXPECT_THROW(
      static_cast<void>(make_traffic(bf, parse_traffic_spec("cutsat"))),
      PreconditionError);
}

}  // namespace
}  // namespace bfly::routing
