// Parallel portfolio bisection solver.
//
// Races the library's heuristic engines (spectral+FM, multilevel, FM,
// SA) and optionally the exact branch-and-bound engine on the same graph,
// with bounded concurrency. The solvers cooperate through two channels:
//
//   * a SharedIncumbent — every heuristic publishes each improvement it
//     finds; branch-and-bound reads the capacity cell as a live pruning
//     bound, so a good heuristic cut shrinks the exact search tree even
//     when both run concurrently (and, under serial execution, the
//     heuristics finish first and hand branch-and-bound a tight bound);
//   * a CancelToken — once branch-and-bound proves optimality it cancels
//     the still-running heuristics (their work can no longer change the
//     winning capacity), and an optional wall-clock budget arms the same
//     token as a deadline.
//
// Determinism contract: with no time budget, the same graph + master seed
// + thread count (indeed, ANY thread count) reproduce the identical
// winning capacity. Each solver's per-task seed is derived from the
// master seed in a fixed order, publishing is one-way (no heuristic ever
// reads the incumbent), and branch-and-bound's live bound only prunes —
// its completed searches prove the same optimum no matter when bounds
// arrived. Cancellation fires only after optimality is proven, so it
// cannot change the winner's capacity either. The winning *cut* may
// differ across thread counts only when several solvers tie on capacity
// and a cancelled heuristic stopped before producing its tying cut; the
// reported capacity is unaffected. With a time budget, determinism of
// the capacity is guaranteed only on runs where branch-and-bound
// completes inside the budget.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/graph.hpp"
#include "cut/bisection.hpp"
#include "cut/branch_bound.hpp"
#include "cut/fiduccia_mattheyses.hpp"
#include "cut/multilevel.hpp"
#include "cut/simulated_annealing.hpp"
#include "cut/spectral_bisection.hpp"

namespace bfly::cut {

/// The per-task seeds a portfolio run derives from its master seed, in a
/// fixed order independent of thread count or scheduling. Exposed so
/// tests can replay an individual solver with exactly the seed the
/// portfolio used.
struct PortfolioSeeds {
  std::uint64_t spectral = 0;
  std::uint64_t multilevel = 0;
  std::uint64_t fm = 0;
  std::uint64_t sa = 0;
};

[[nodiscard]] PortfolioSeeds derive_portfolio_seeds(
    std::uint64_t master_seed);

struct PortfolioOptions {
  std::uint64_t master_seed = 0xb15ec7ull;  // "bisect"
  /// Concurrency across solver tasks (0 = default_thread_count(), 1 =
  /// serial in fixed order). The winning capacity does not depend on it.
  unsigned num_threads = 0;
  /// Race the exact engine too. When it finishes, the portfolio result
  /// is tagged kExact and the remaining heuristics are cancelled.
  bool run_branch_bound = true;
  /// Safety valve for instances beyond exact reach: abort the exact
  /// search after this many nodes (0 = unlimited), degrading it to a
  /// heuristic participant.
  std::uint64_t branch_bound_node_limit = 0;
  /// Wall-clock budget in seconds (0 = none). Arms the shared token's
  /// deadline: heuristics stop at the next restart boundary, the exact
  /// engine within a few thousand search nodes. See the determinism note
  /// in the header comment.
  double time_budget_seconds = 0.0;
  /// Per-solver tuning. The seed fields (and fm.num_threads, which is
  /// forced to 1 — the portfolio already owns the parallelism) are
  /// overridden; cancel/incumbent hooks are installed by the portfolio.
  FiducciaMattheysesOptions fm;
  SimulatedAnnealingOptions sa;
  MultilevelOptions multilevel;
  SpectralBisectionOptions spectral;
};

/// What one solver task did during a portfolio run.
struct SolverTelemetry {
  std::string solver;
  /// Best capacity this solver found (SIZE_MAX if it produced nothing,
  /// e.g. cancelled before its first work unit, or branch-and-bound
  /// proving the incumbent optimal without beating it).
  std::size_t capacity = static_cast<std::size_t>(-1);
  Exactness exactness = Exactness::kHeuristic;
  std::uint32_t restarts_completed = 0;
  std::uint32_t improvements_published = 0;
  double wall_seconds = 0.0;
  bool cancelled = false;  ///< stopped before its planned work finished
};

struct PortfolioResult {
  /// The winning bisection; method is "portfolio/<solver>". Tagged
  /// kExact iff branch-and-bound completed its search.
  CutResult best;
  std::string winner;
  bool proved_optimal = false;  ///< branch-and-bound finished
  std::vector<SolverTelemetry> telemetry;  ///< fixed solver order
  double wall_seconds = 0.0;
};

[[nodiscard]] PortfolioResult min_bisection_portfolio(
    const Graph& g, const PortfolioOptions& opts = {});

/// Renders the per-solver telemetry as an io::Table.
void print_portfolio_telemetry(const PortfolioResult& result,
                               std::ostream& os);

}  // namespace bfly::cut
