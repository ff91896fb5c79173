#include "cut/portfolio.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <limits>
#include <ostream>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "core/sync.hpp"
#include "core/thread_pool.hpp"
#include "cut/incumbent.hpp"
#include "io/table.hpp"
#include "robust/fault_injection.hpp"

namespace bfly::cut {

namespace {

constexpr std::size_t kNoCapacity = std::numeric_limits<std::size_t>::max();

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

PortfolioSeeds derive_portfolio_seeds(std::uint64_t master_seed) {
  // Fixed derivation order — part of the determinism contract; tests
  // replay individual solvers with these seeds.
  SplitMix64 sm(master_seed);
  PortfolioSeeds s;
  s.spectral = sm.next();
  s.multilevel = sm.next();
  s.fm = sm.next();
  // The fourth draw seeded the removed Kernighan–Lin solver; it is still
  // consumed so that sa's seed, and every SA result, stays unchanged.
  (void)sm.next();
  s.sa = sm.next();
  return s;
}

PortfolioResult min_bisection_portfolio(const Graph& g,
                                        const PortfolioOptions& opts) {
  BFLY_CHECK(g.num_nodes() >= 2, "bisection needs at least two nodes");
  // Allocation-failure fault point: the portfolio's task table, shared
  // incumbent, and publisher pool are modeled as failing here.
  BFLY_FAULT_POINT(kAlloc);
  const auto t_start = std::chrono::steady_clock::now();
  const PortfolioSeeds seeds = derive_portfolio_seeds(opts.master_seed);

  SharedIncumbent incumbent;
  CancelToken token;
  token.set_deadline_after(opts.time_budget_seconds);

  // Heuristics first: under bounded (or serial) concurrency they publish
  // incumbents before the exact engine starts, which is exactly the
  // bound it wants for pruning.
  struct Task {
    std::string name;
    std::uint32_t planned_units;  // restarts/cycles; 1 for single-shot
    std::function<CutResult(IncumbentPublisher&)> run;
  };
  std::vector<Task> tasks;

  {
    SpectralBisectionOptions o = opts.spectral;
    o.seed = seeds.spectral;
    o.cancel = &token;
    tasks.push_back({"spectral", 1, [&g, o](IncumbentPublisher& pub) {
                       auto r = min_bisection_spectral(g, o);
                       r.restarts_completed = 1;
                       pub.publish(r.capacity, r.sides);
                       return r;
                     }});
  }
  {
    MultilevelOptions o = opts.multilevel;
    o.seed = seeds.multilevel;
    o.cancel = &token;
    tasks.push_back({"multilevel", std::max(1u, o.cycles),
                     [&g, o](IncumbentPublisher& pub) {
                       MultilevelOptions local = o;
                       local.incumbent = &pub;
                       return min_bisection_multilevel(g, local);
                     }});
  }
  {
    FiducciaMattheysesOptions o = opts.fm;
    o.seed = seeds.fm;
    o.cancel = &token;
    o.num_threads = 1;  // the portfolio owns the parallelism
    tasks.push_back({"fm", std::max(1u, o.restarts),
                     [&g, o](IncumbentPublisher& pub) {
                       FiducciaMattheysesOptions local = o;
                       local.incumbent = &pub;
                       return min_bisection_fiduccia_mattheyses(g, local);
                     }});
  }
  {
    SimulatedAnnealingOptions o = opts.sa;
    o.seed = seeds.sa;
    o.cancel = &token;
    tasks.push_back({"sa", std::max(1u, o.restarts),
                     [&g, o](IncumbentPublisher& pub) {
                       SimulatedAnnealingOptions local = o;
                       local.incumbent = &pub;
                       return min_bisection_simulated_annealing(g, local);
                     }});
  }
  // Written by the bb task on its own thread, read after wait(); the
  // cell's lock makes that explicit rather than leaning on the join
  // barrier alone (the analysis cannot see through joins).
  sync::GuardedCell<bool> bb_completed;
  if (opts.run_branch_bound) {
    tasks.push_back(
        {"branch-bound", 1,
         [&g, &opts, &incumbent, &token, &bb_completed](
             IncumbentPublisher& pub) {
           BranchBoundOptions o;
           o.node_limit = opts.branch_bound_node_limit;
           o.live_bound = &incumbent.capacity_cell();
           o.cancel = &token;
           auto r = min_bisection_branch_bound(g, o);
           if (!r.sides.empty()) pub.publish(r.capacity, r.sides);
           if (r.exactness == Exactness::kExact) {
             bb_completed.store(true);
             // Optimality is proven: no further heuristic work can
             // change the winning capacity.
             token.request_stop();
           }
           return r;
         }});
  }

  const std::size_t num_tasks = tasks.size();
  std::vector<CutResult> results(num_tasks);
  // deque: IncumbentPublisher holds an atomic and cannot relocate.
  std::deque<IncumbentPublisher> publishers;
  for (std::size_t i = 0; i < num_tasks; ++i) {
    publishers.emplace_back(&incumbent);
  }
  std::vector<double> wall(num_tasks, 0.0);

  TaskGroup group(opts.num_threads);
  for (std::size_t i = 0; i < num_tasks; ++i) {
    // Each task writes only its own slot of results[]/wall[] (disjoint
    // indices, published to this thread by the wait() join), so the
    // vectors need no lock of their own.
    group.add([&, i] {
      const auto t0 = std::chrono::steady_clock::now();
      results[i] = tasks[i].run(publishers[i]);
      wall[i] = seconds_since(t0);
    });
  }
  group.wait();
  const bool proved_optimal = bb_completed.load();
  // request_stop is idempotent and must be visible once the tasks have
  // been joined: a bb-completed run always leaves the token fired.
  BFLY_ASSERT_MSG(!proved_optimal || token.stop_requested(),
                  "cancel token lost the branch-and-bound stop request");

  PortfolioResult out;
  out.proved_optimal = proved_optimal;
  out.telemetry.reserve(num_tasks);
  for (std::size_t i = 0; i < num_tasks; ++i) {
    SolverTelemetry t;
    t.solver = tasks[i].name;
    t.capacity = results[i].sides.empty() ? kNoCapacity
                                          : results[i].capacity;
    t.exactness = results[i].exactness;
    t.restarts_completed = results[i].restarts_completed;
    t.improvements_published = publishers[i].improvements();
    t.wall_seconds = wall[i];
    if (tasks[i].name == "branch-bound") {
      t.cancelled = results[i].exactness != Exactness::kExact;
    } else {
      t.cancelled = results[i].restarts_completed < tasks[i].planned_units;
    }
    out.telemetry.push_back(std::move(t));
  }

  // Winner: minimum capacity over solvers that produced a cut, ties
  // broken by fixed task order (so the choice is deterministic).
  std::size_t win = num_tasks;
  for (std::size_t i = 0; i < num_tasks; ++i) {
    if (results[i].sides.empty()) continue;
    if (win == num_tasks || results[i].capacity < results[win].capacity) {
      win = i;
    }
  }
  if (win == num_tasks) {
    // Every task was cancelled before producing a cut (pathologically
    // small time budget). Fall back to the deterministic single-shot
    // spectral solver, ignoring the deadline.
    SpectralBisectionOptions o = opts.spectral;
    o.seed = seeds.spectral;
    out.best = min_bisection_spectral(g, o);
    out.winner = "spectral-fallback";
  } else {
    out.best = std::move(results[win]);
    out.winner = tasks[win].name;
  }
  out.best.exactness =
      proved_optimal ? Exactness::kExact : Exactness::kHeuristic;
  out.best.method = "portfolio/" + out.winner;
  out.wall_seconds = seconds_since(t_start);
  if (checked_build()) {
    // The winner must be a genuine bisection whose stored capacity
    // recounts, and no losing solver may have beaten it.
    validate_cut(g, out.best, /*require_bisection=*/true);
    for (const auto& t : out.telemetry) {
      BFLY_ASSERT_MSG(t.capacity == kNoCapacity ||
                          out.best.capacity <= t.capacity,
                      "portfolio winner lost to a reported capacity");
    }
  }
  return out;
}

void print_portfolio_telemetry(const PortfolioResult& result,
                               std::ostream& os) {
  io::Table t({"solver", "capacity", "tag", "restarts", "published",
               "wall_ms", "cancelled"});
  for (const auto& s : result.telemetry) {
    t.add(s.solver,
          s.capacity == kNoCapacity ? std::string("-")
                                    : std::to_string(s.capacity),
          to_string(s.exactness), std::to_string(s.restarts_completed),
          std::to_string(s.improvements_published),
          io::fmt(s.wall_seconds * 1e3, 2), s.cancelled ? "yes" : "no");
  }
  t.print(os);
  os << "winner: " << result.winner << " (capacity "
     << result.best.capacity << ", "
     << (result.proved_optimal ? "proved optimal" : "heuristic") << ", "
     << io::fmt(result.wall_seconds * 1e3, 2) << " ms total)\n";
}

}  // namespace bfly::cut
