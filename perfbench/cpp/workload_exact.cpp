// exact: time to proof.
//
// Each pass proves the minimum bisection of B8, CCC16, W16 and one
// seeded random 3-regular graph with the branch-and-bound solver, once
// serially (the plain baseline) and once at nproc threads, and tabulates
// EE/NE of W8 with the exact expansion sweep at nproc threads. Solver
// options stay at their defaults apart from the thread count; symmetry
// pruning is off, as on every user path.
#include <cstdio>
#include <optional>

#include "common.hpp"
#include "cut/branch_bound.hpp"
#include "expansion/expansion.hpp"
#include "topology/butterfly.hpp"
#include "topology/ccc.hpp"
#include "topology/random_regular.hpp"
#include "topology/wrapped_butterfly.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using namespace bfly;

// Random instance. Proof times of random 3-regular graphs spread about
// tenfold across seeds, so the instance is kept small (a few to a few tens
// of milliseconds serially) to keep solve_s steady across seeds.
constexpr NodeId kRandomNodes = 40;
constexpr std::uint32_t kRandomDegree = 3;

struct Instance {
  std::string name;
  Graph graph;
  std::size_t reference = 0;  ///< paper value; 0 = the first proof's value
};

class ExactWorkload final : public Workload {
 public:
  using Workload::Workload;

  void setup(std::uint64_t seed) override {
    instances_.clear();
    {
      const trace::Span span("topology.build");
      const auto t0 = Clock::now();
      instances_.push_back({"B8", topo::Butterfly(8).graph(), 8});
      instances_.push_back({"CCC16", topo::CubeConnectedCycles(16).graph(), 8});
      instances_.push_back({"W16", topo::WrappedButterfly(16).graph(), 16});
      instances_.push_back(
          {"rand" + std::to_string(kRandomNodes),
           topo::random_regular(kRandomNodes, kRandomDegree,
                                derive_seed(seed, 1)),
           0});
      w8_ = topo::WrappedButterfly(8).graph();
      topology_build_s_ = seconds_since(t0);
    }
    random_reference_.reset();
  }

  std::uint64_t pass() override {
    double bb_serial_s = 0.0, bb_parallel_s = 0.0;
    double nodes = 0.0, spawned = 0.0, steals = 0.0, idle_s = 0.0;
    found_ = 0;
    reference_ = 0;
    std::uint64_t ops = 0;
    for (Instance& inst : instances_) {
      std::size_t serial_capacity = 0;
      for (const unsigned threads : {1u, cfg_.threads}) {
        cut::BranchBoundOptions opts;
        opts.num_threads = threads;
        cut::CutResult r;
        {
          const trace::Span span("cut.branch_bound", trace::next_op());
          r = timed(threads == 1 ? bb_serial_s : bb_parallel_s, [&] {
            return cut::min_bisection_branch_bound(inst.graph, opts);
          });
        }
        ++ops;
        nodes += static_cast<double>(r.nodes_visited);
        spawned += static_cast<double>(r.ws_spawned);
        steals += static_cast<double>(r.ws_steals);
        idle_s += r.ws_idle_seconds;
        check_proof(inst, threads, r, serial_capacity);
        if (threads == 1) serial_capacity = r.capacity;
      }
    }

    expansion::ExactExpansionOptions eo;
    eo.num_threads = cfg_.threads;
    double sweep_s = 0.0;
    expansion::ExactExpansionResult er;
    {
      const trace::Span span("expansion.sweep", trace::next_op());
      er = timed(sweep_s,
                 [&] { return expansion::exact_expansion_full(w8_, eo); });
    }
    ++ops;
    check_sweep(er);
    spawned += static_cast<double>(er.ws_spawned);
    steals += static_cast<double>(er.ws_steals);
    idle_s += er.ws_idle_seconds;

    const double bb_s = bb_serial_s + bb_parallel_s;
    samples_.add("cut.branch_bound.s", bb_s);
    samples_.add("cut.branch_bound.nodes", nodes);
    samples_.add("cut.branch_bound.nodes_per_s", nodes / bb_s);
    samples_.add("cut.branch_bound.speedup", bb_serial_s / bb_parallel_s);
    samples_.add("core.sharding.spawned", spawned);
    samples_.add("core.sharding.steals", steals);
    samples_.add("core.sharding.idle_s", idle_s);
    samples_.add("expansion.sweep.s", sweep_s);
    samples_.add("expansion.sweep.states_per_s",
                 static_cast<double>(er.scanned_states) / sweep_s);
    return ops;
  }

  [[nodiscard]] double capacity_ratio() const override {
    return static_cast<double>(found_) / static_cast<double>(reference_);
  }

 private:
  void check_proof(const Instance& inst, unsigned threads,
                   const cut::CutResult& r, std::size_t serial_capacity) {
    const trace::Span span("check");
    const std::string what = inst.name + " t=" + std::to_string(threads);
    std::size_t reference = inst.reference;
    if (reference == 0) {
      if (!random_reference_) random_reference_ = r.capacity;
      reference = *random_reference_;
    }
    bool ok = checks_.expect(r.exactness == cut::Exactness::kExact,
                             what + ": proof did not complete");
    ok &= checks_.expect(r.capacity == reference,
                         what + ": capacity " + std::to_string(r.capacity) +
                             ", expected " + std::to_string(reference));
    if (threads != 1) {
      ok &= checks_.expect(r.capacity == serial_capacity,
                           what + ": parallel capacity differs from serial");
    }
    ok &= checks_.expect(r.sides.size() == inst.graph.num_nodes() &&
                             cut::is_bisection(r.sides),
                         what + ": witness is not a balanced bisection");
    ok &= checks_.expect(
        expansion::edge_boundary(inst.graph, side_zero(r.sides)) == r.capacity,
        what + ": witness recount differs from the capacity");
    checks_.record(ok);
    found_ += r.capacity;
    reference_ += reference;
  }

  void check_sweep(const expansion::ExactExpansionResult& er) {
    const trace::Span span("check");
    const std::size_t n = w8_.num_nodes();
    bool ok = checks_.expect(er.exactness == cut::Exactness::kExact &&
                                 er.visited_states == (1ull << n),
                             "W8 sweep did not cover every subset");
    // EE(W8, N/2) is the bisection width, n = 8 (paper, Section 3).
    ok &= checks_.expect(er.table.size() > n / 2 && er.table[n / 2].ee == 8,
                         "W8 sweep: EE(W8, 12) != 8");
    try {
      for (std::size_t k = 1; k < er.table.size(); ++k) {
        expansion::validate_expansion_entry(w8_, k, er.table[k]);
      }
    } catch (const std::exception& e) {
      ok = checks_.expect(false, std::string("W8 sweep: ") + e.what());
    }
    checks_.record(ok);
  }

  std::vector<Instance> instances_;
  Graph w8_;
  std::optional<std::size_t> random_reference_;
  std::size_t found_ = 0;
  std::size_t reference_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_exact(const RunConfig& cfg, Checks& checks) {
  return std::make_unique<ExactWorkload>(cfg, checks);
}

}  // namespace perfbench
