// routing: store-and-forward simulation runs.
//
// Each pass generates the traffic, loads it and runs it on the
// simulation engine for six runs: B1024 uniform (ppn 16) at nproc threads
// and again serially, then, serially as the engine defaults to, B256
// bit-reversal, B64 cut-saturating traffic on an FM witness, B64 hotspot,
// and B64 uniform with three stage-weighted virtual channels of capacity
// 4 (the bounded, arbitrating configuration). Traffic seeds come from the
// workload seed.
#include <optional>

#include "common.hpp"
#include "cut/constructive.hpp"
#include "cut/fiduccia_mattheyses.hpp"
#include "routing/sim_engine.hpp"
#include "routing/traffic.hpp"
#include "topology/butterfly.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using namespace bfly;

struct Run {
  std::string name;
  const topo::Butterfly* bf = nullptr;
  const cut::CutResult* cut = nullptr;  ///< witness the traffic crosses
  std::string spec;
  unsigned threads = 1;
  std::uint32_t vcs = 1;
  std::uint32_t capacity = 0;
  bool reuse_traffic = false;  ///< rerun the previous run's traffic set
};

class RoutingWorkload final : public Workload {
 public:
  using Workload::Workload;

  void setup(std::uint64_t seed) override {
    const auto traffic_seed = [&](std::uint64_t stream) {
      return std::to_string(derive_seed(seed, stream) % 1000000007ull);
    };
    {
      const trace::Span span("topology.build");
      const auto t0 = Clock::now();
      b1024_.emplace(1024);
      b256_.emplace(256);
      b64_.emplace(64);
      topology_build_s_ = seconds_since(t0);
    }
    cut1024_ = cut::column_split_bisection(*b1024_);
    cut256_ = cut::column_split_bisection(*b256_);
    cut64_ = cut::column_split_bisection(*b64_);
    // A fixed FM witness: its capacity is the cutsat traffic's BW, so a
    // seeded witness would move capacity_ratio between seeds.
    cut::FiducciaMattheysesOptions fm;
    fm.seed = 1;
    fm.restarts = 2;
    fm64_ = cut::min_bisection_fiduccia_mattheyses(b64_->graph(), fm);
    ratio_ = static_cast<double>(fm64_.capacity) /
             static_cast<double>(cut64_.capacity);

    const topo::Butterfly* b1024 = &*b1024_;
    const topo::Butterfly* b64 = &*b64_;
    runs_ = {
        {"B1024 uniform", b1024, &cut1024_,
         "uniform:ppn=16:seed=" + traffic_seed(4), cfg_.threads},
        {"B1024 uniform serial", b1024, &cut1024_, "", 1, 1, 0, true},
        {"B256 bitrev", &*b256_, &cut256_, "bitrev:ppn=8"},
        {"B64 cutsat", b64, &fm64_, "cutsat:ppn=16:seed=" + traffic_seed(5)},
        {"B64 hotspot", b64, &cut64_,
         "hotspot:ppn=8:seed=" + traffic_seed(6) + ":hot=30"},
        {"B64 vc3cap4", b64, &cut64_,
         "uniform:ppn=16:seed=" + traffic_seed(7), 1, 3, 4},
    };
    makespans_.clear();
  }

  std::uint64_t pass() override {
    double traffic_s = 0.0, load_s = 0.0, run_s = 0.0;
    double serial_run_s = 0.0, parallel_run_s = 0.0;
    double hops = 0.0, makespan = 0.0, steps = 0.0;
    routing::TrafficSet traffic;
    std::uint32_t parallel_makespan = 0;
    std::vector<std::uint32_t> makespans;
    for (const Run& run : runs_) {
      const std::uint64_t op = trace::next_op();
      const topo::Butterfly& bf = *run.bf;
      if (!run.reuse_traffic) {
        const trace::Span span("routing.traffic", op);
        traffic = timed(traffic_s, [&] {
          return routing::make_traffic(
              bf, routing::parse_traffic_spec(run.spec), &run.cut->sides);
        });
      }
      routing::SimOptions so;
      so.num_threads = run.threads;
      so.vcs_per_link = run.vcs;
      so.vc_capacity = run.capacity;
      std::optional<routing::SimEngine> engine;
      {
        const trace::Span span("routing.sim.load", op);
        timed(load_s, [&] {
          engine.emplace(bf.graph(), so);
          if (run.vcs > 1) {
            engine->load(traffic.paths, routing::stage_weighted_vcs(
                                            bf, traffic.paths, run.vcs));
          } else {
            engine->load(traffic.paths);
          }
        });
      }
      routing::EngineStats st;
      double this_run_s = 0.0;
      {
        const trace::Span span("routing.sim.run", op);
        st = timed(this_run_s, [&] { return engine->run(); });
      }
      run_s += this_run_s;
      hops += static_cast<double>(st.total_hops);
      makespan += st.makespan;
      steps += static_cast<double>(st.steps);
      makespans.push_back(st.makespan);

      const auto bound = routing::traffic_bound(traffic, run.cut->capacity,
                                                st.max_link_load);
      bool ok = checks_.expect(st.delivered == st.num_packets &&
                                   st.num_packets == traffic.paths.size(),
                               run.name + ": not every packet delivered");
      ok &= checks_.expect(
          static_cast<double>(st.makespan) >= bound.lower_bound,
          run.name + ": makespan " + std::to_string(st.makespan) +
              " below the certified lower bound");
      if (run.reuse_traffic) {
        serial_run_s = this_run_s;
        ok &= checks_.expect(st.makespan == parallel_makespan,
                             run.name + ": makespan differs across thread "
                                        "counts");
      } else if (run.name == "B1024 uniform") {
        parallel_run_s = this_run_s;
        parallel_makespan = st.makespan;
      }
      checks_.record(ok);
    }
    // The traffic is a pure function of the seed, so every pass must
    // reproduce the first pass's makespans.
    if (makespans_.empty()) makespans_ = makespans;
    checks_.record(checks_.expect(makespans == makespans_,
                                  "routing: makespans changed between passes"));

    samples_.add("routing.traffic.s", traffic_s);
    samples_.add("routing.sim.load_s", load_s);
    samples_.add("routing.sim.run_s", run_s);
    samples_.add("routing.sim.phops_per_s", hops / run_s);
    samples_.add("routing.sim.speedup", serial_run_s / parallel_run_s);
    samples_.add("routing.sim.makespan", makespan);
    samples_.add("routing.sim.steps", steps);
    return runs_.size();
  }

  [[nodiscard]] double capacity_ratio() const override { return ratio_; }

 private:
  std::optional<topo::Butterfly> b1024_, b256_, b64_;
  cut::CutResult cut1024_, cut256_, cut64_, fm64_;
  std::vector<Run> runs_;
  std::vector<std::uint32_t> makespans_;
  double ratio_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_routing(const RunConfig& cfg, Checks& checks) {
  return std::make_unique<RoutingWorkload>(cfg, checks);
}

}  // namespace perfbench
