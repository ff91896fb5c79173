// Resilient solve supervisor: deadline, watchdog, retry, degrade.
//
// Research-scale sweeps die in dumb ways — a worker wedges, an
// allocation fails at 3 a.m., the queue kills the job — and the
// difference between a lost night and a finished table is whether the
// driver survives them. The Supervisor wraps the exact bisection and
// expansion engines with exactly that machinery:
//
//   * a wall-clock deadline for the WHOLE solve, armed on the shared
//     CancelToken so every engine in the ladder honors it;
//   * a heartbeat watchdog — solvers publish their pooled node count
//     into a progress cell at their flush cadence; a watchdog thread
//     that sees the cell freeze for stall_timeout_ms cancels the
//     attempt, and the retry (resuming from the last checkpointed
//     state) effectively replaces the stalled workers;
//   * bounded retry with exponential backoff around transient failures
//     (std::bad_alloc, injected faults, simulated crashes) — never
//     around PreconditionError, which is a bug, not weather;
//   * a graceful-degradation ladder: exact bitset search → node-
//     budgeted exact → multilevel → FM, so the caller ALWAYS gets the
//     best-known CutResult with honest provenance instead of an
//     exception;
//   * checkpoint/resume through robust/checkpoint: the exact step
//     keeps its latest search state (taken after every seed-prefix
//     subtree) in memory, where a crash- or stall-retry in the same
//     process resumes from it, and writes it to disk on a 50 ms
//     cadence, where a fresh process after SIGTERM or SIGKILL resumes
//     it — each to the identical optimum and bound.
//
// Every report says what actually happened: which ladder step produced
// the answer, how many retries and faults it took, whether a stall was
// detected, whether the solve resumed from disk.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "core/graph.hpp"
#include "cut/portfolio.hpp"
#include "expansion/expansion.hpp"

namespace bfly::robust {

/// Outcome class of a supervised solve.
enum class SolveStatus {
  kExactOptimal,        ///< the exact engine completed its proof
  kDegradedHeuristic,   ///< a valid cut/table, but no optimality claim
  kFailed,              ///< every ladder step failed; no result at all
};

[[nodiscard]] const char* to_string(SolveStatus s);

/// Retry backoff schedule: delay_ms(attempt) is a pure function of the
/// policy, so the service layer and tests can pin an exact, replayable
/// schedule (and a jittered production schedule is still deterministic
/// given its seed).
struct BackoffPolicy {
  double initial_ms = 5.0;    ///< delay before retry attempt 0
  double multiplier = 2.0;    ///< exponential growth per attempt
  double cap_ms = 2000.0;     ///< schedule ceiling (0 = uncapped)
  /// Fraction of the base delay added as deterministic jitter in
  /// [0, jitter_fraction * base), keyed by (jitter_seed, attempt) so
  /// identical policies always sleep identically. 0 = no jitter.
  double jitter_fraction = 0.0;
  std::uint64_t jitter_seed = 0;

  /// The full delay for retry `attempt` (0-based), jitter included.
  [[nodiscard]] double delay_ms(unsigned attempt) const;
};

struct SupervisorOptions {
  /// Wall-clock budget for the whole solve, every retry and ladder step
  /// included (0 = unlimited). On expiry the supervisor stops starting
  /// work and returns the best result it already holds.
  double deadline_seconds = 0.0;
  /// Transient-failure retries per ladder step.
  unsigned max_retries = 3;
  /// Backoff schedule between retries, truncated at sleep time so it
  /// never runs past the deadline.
  BackoffPolicy backoff;
  /// Watchdog poll period, and how long the progress cell may freeze
  /// before the attempt is declared stalled and cancelled
  /// (stall_timeout_ms 0 = watchdog off).
  double heartbeat_interval_ms = 25.0;
  double stall_timeout_ms = 0.0;
  /// Snapshot file for the exact step (empty = checkpointing off). An
  /// existing valid snapshot for the same graph is resumed. The file is
  /// written no sooner than 50 ms after the solve began and 50 ms after
  /// its previous write, so a short solve never touches the disk; a
  /// completed solve removes the file.
  std::filesystem::path checkpoint_path;
  /// Worker threads for the underlying engines (1 = serial and fully
  /// deterministic, 0 = default_thread_count()).
  unsigned num_threads = 1;
  /// Node budget for the "budgeted exact" ladder step.
  std::uint64_t budgeted_exact_nodes = 1ull << 22;
  /// Seed for the heuristic ladder steps.
  std::uint64_t master_seed = 0xb15ec7ull;
};

/// What a supervised bisection solve did, and how much it survived.
struct SolveReport {
  /// Best-known cut; method is "supervisor/<underlying method>". Check
  /// status (or best.exactness) before quoting it as a width.
  cut::CutResult best;
  SolveStatus status = SolveStatus::kFailed;
  /// Ladder steps actually attempted, in order ("exact",
  /// "exact-budgeted", "multilevel", "fm").
  std::vector<std::string> degradation_path;
  /// Index into the ladder of the step that produced `best`
  /// (0 = the full exact engine; larger = further degraded).
  unsigned degradation_step = 0;
  unsigned retries = 0;          ///< transient-failure retries consumed
  unsigned faults_survived = 0;  ///< exceptions absorbed and recovered
  unsigned stalls_detected = 0;  ///< watchdog cancellations
  bool resumed = false;          ///< restored state from a checkpoint
  bool deadline_expired = false;
  double wall_seconds = 0.0;
};

/// Same survival telemetry for a supervised expansion tabulation.
struct ExpansionReport {
  expansion::ExactExpansionResult result;
  SolveStatus status = SolveStatus::kFailed;
  std::vector<std::string> degradation_path;
  unsigned degradation_step = 0;
  unsigned retries = 0;
  unsigned faults_survived = 0;
  unsigned stalls_detected = 0;
  bool deadline_expired = false;
  double wall_seconds = 0.0;
};

class Supervisor {
 public:
  explicit Supervisor(SupervisorOptions opts = {});

  /// Minimum bisection through the degradation ladder. Always returns;
  /// throws only PreconditionError (caller bug) — never a transient.
  [[nodiscard]] SolveReport solve_bisection(const Graph& g) const;

  /// The full portfolio under deadline + retry (the portfolio already
  /// owns its own racing/cancellation; the supervisor adds survival).
  [[nodiscard]] SolveReport solve_portfolio(
      const Graph& g, cut::PortfolioOptions popts = {}) const;

  /// Expansion tabulation through its own ladder: full exact sweep →
  /// state-budgeted sweep → per-size enumeration for small k.
  [[nodiscard]] ExpansionReport solve_expansion(
      const Graph& g, expansion::ExactExpansionOptions eopts = {}) const;

  [[nodiscard]] const SupervisorOptions& options() const noexcept {
    return opts_;
  }

 private:
  SupervisorOptions opts_;
};

}  // namespace bfly::robust
