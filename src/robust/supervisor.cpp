#include "robust/supervisor.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <new>
#include <system_error>
#include <thread>
#include <utility>

#include "core/error.hpp"
#include "core/sync.hpp"
#include "robust/checkpoint.hpp"
#include "robust/fault_injection.hpp"

namespace bfly::robust {

namespace {

using Clock = std::chrono::steady_clock;

/// Checkpoint cadence of the exact step: a snapshot reaches the disk
/// only once this much time has passed since the solve began and since
/// the previous write. A solve shorter than this never touches the
/// disk; a kill, or a deadline, loses at most this much completed work
/// to the next process.
constexpr auto kCheckpointInterval = std::chrono::milliseconds(50);

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Heartbeat watchdog for one solve attempt: the engine publishes its
// pooled node count into `progress` at its flush cadence; if the cell
// freezes for stall_ms the watchdog cancels the attempt's token. The
// supervisor's retry (resuming from the last checkpoint) then replaces
// whatever was stalled.
//
// Control protocol: quit_ and fired_ live under mu_ (GUARDED_BY), and
// the poll loop sleeps in a CondVar timed wait instead of sleep_for —
// so stop() wakes the thread immediately rather than waiting out the
// rest of a poll period. The progress cell itself stays a relaxed
// atomic: it is the engines' hot-path heartbeat, not watchdog state.
class Watchdog {
 public:
  Watchdog(CancelToken& token, const std::atomic<std::uint64_t>& progress,
           double poll_ms, double stall_ms)
      : token_(token),
        progress_(progress),
        poll_ms_(std::max(1.0, poll_ms)),
        stall_ms_(stall_ms) {}

  ~Watchdog() { stop(); }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  void start() {
    if (stall_ms_ <= 0.0) return;
    thread_ = std::thread([this] { run(); });
  }

  // Idempotent (the dtor calls it again after an explicit stop()).
  void stop() {
    {
      const sync::MutexLock lock(mu_);
      quit_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  [[nodiscard]] bool fired() const {
    const sync::MutexLock lock(mu_);
    return fired_;
  }

 private:
  void run() {
    std::uint64_t last = progress_.load(std::memory_order_relaxed);
    Clock::time_point last_change = Clock::now();
    const auto poll = std::chrono::duration<double, std::milli>(poll_ms_);
    sync::MutexLock lock(mu_);
    while (!quit_) {
      cv_.wait_for(lock, poll);  // early wake only ever means stop()
      if (quit_) return;
      const std::uint64_t cur = progress_.load(std::memory_order_relaxed);
      if (cur != last) {
        last = cur;
        last_change = Clock::now();
        continue;
      }
      if (token_.stop_requested()) return;  // deadline got there first
      const double frozen_ms =
          seconds_between(last_change, Clock::now()) * 1e3;
      if (frozen_ms >= stall_ms_) {
        // Delayed-cancellation fault point: a firing kCancelDelay rule
        // sleeps here, modeling the stop signal arriving late. The
        // engines must still wind down correctly.
        BFLY_FAULT_POINT(kCancelDelay);
        token_.request_stop();
        fired_ = true;
        return;
      }
    }
  }

  CancelToken& token_;
  const std::atomic<std::uint64_t>& progress_;
  double poll_ms_;
  double stall_ms_;
  mutable sync::Mutex mu_;
  sync::CondVar cv_;
  bool quit_ BFLY_GUARDED_BY(mu_) = false;
  bool fired_ BFLY_GUARDED_BY(mu_) = false;
  std::thread thread_;
};

/// The transient failures the supervisor absorbs and retries. Anything
/// else — PreconditionError above all — is a caller bug and propagates.
bool is_transient(const std::exception_ptr& ep) {
  try {
    std::rethrow_exception(ep);
  } catch (const fault::FaultInjectedError&) {
    return true;
  } catch (const std::bad_alloc&) {
    return true;
  } catch (...) {
    return false;
  }
}

/// Shared deadline/backoff bookkeeping for one supervised solve.
struct DeadlineClock {
  Clock::time_point t0 = Clock::now();
  bool armed = false;
  Clock::time_point deadline{};

  explicit DeadlineClock(double deadline_seconds) {
    if (deadline_seconds > 0.0) {
      armed = true;
      deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(deadline_seconds));
    }
  }

  [[nodiscard]] bool expired() const {
    return armed && Clock::now() >= deadline;
  }

  [[nodiscard]] double elapsed() const {
    return seconds_between(t0, Clock::now());
  }

  [[nodiscard]] double remaining_seconds() const {
    if (!armed) return 0.0;
    return std::max(0.0, seconds_between(Clock::now(), deadline));
  }

  void arm_token(CancelToken& token) const {
    if (armed) token.set_deadline(deadline);
  }

  /// Policy backoff before retry `attempt`, truncated so it never
  /// sleeps past the deadline.
  void backoff(const SupervisorOptions& opts, unsigned attempt) const {
    double ms = opts.backoff.delay_ms(attempt);
    if (armed) ms = std::min(ms, remaining_seconds() * 1e3);
    if (ms > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(ms));
    }
  }
};

}  // namespace

double BackoffPolicy::delay_ms(unsigned attempt) const {
  double ms = initial_ms * std::pow(multiplier, static_cast<double>(attempt));
  if (cap_ms > 0.0) ms = std::min(ms, cap_ms);
  if (jitter_fraction > 0.0) {
    // SplitMix64 keyed by (seed, attempt): the jitter is part of the
    // schedule, not noise — replaying a policy replays its sleeps.
    SplitMix64 sm(jitter_seed ^ (0x9e3779b97f4a7c15ull * (attempt + 1)));
    const double unit =
        static_cast<double>(sm.next() >> 11) * 0x1.0p-53;  // [0, 1)
    ms += ms * jitter_fraction * unit;
  }
  return std::max(0.0, ms);
}

const char* to_string(SolveStatus s) {
  switch (s) {
    case SolveStatus::kExactOptimal: return "exact-optimal";
    case SolveStatus::kDegradedHeuristic: return "degraded-heuristic";
    case SolveStatus::kFailed: return "failed";
  }
  return "?";
}

Supervisor::Supervisor(SupervisorOptions opts) : opts_(std::move(opts)) {}

SolveReport Supervisor::solve_bisection(const Graph& g) const {
  const DeadlineClock clock(opts_.deadline_seconds);
  SolveReport rep;

  // Checkpointing rides on the bitset kernel's seed-prefix driver, so
  // it is only available when that kernel is (simple graphs).
  const bool checkpointing =
      !opts_.checkpoint_path.empty() && !g.has_parallel_edges();
  const std::uint64_t fp = checkpointing ? graph_fingerprint(g) : 0;
  // What the next exact attempt resumes from: a snapshot an earlier
  // process left on disk, then whatever the last attempt reached.
  cut::BranchBoundSearchState resume_state;
  bool have_resume = false;
  if (checkpointing && snapshot_exists(opts_.checkpoint_path)) {
    try {
      resume_state = load_snapshot(opts_.checkpoint_path, fp).state;
      have_resume = true;
    } catch (const SnapshotError&) {
      // Stale, foreign, or corrupt snapshot: solve from scratch rather
      // than resume into garbage. The next checkpoint overwrites it.
    }
  }
  // The checkpoint sink's own copy of the latest state (never the state
  // the running engine resumed from), and when it last reached the disk.
  // Calls into the sink are serialized and end before the engine
  // returns or throws, so the attempt loop reads these race-free.
  cut::BranchBoundSearchState latest;
  bool have_latest = false;
  Clock::time_point last_write = clock.t0;

  // Accepts a candidate result; keeps the best-known cut with honest
  // provenance. Returns true when the candidate became the best.
  auto offer = [&](cut::CutResult&& r, unsigned step) {
    if (r.sides.empty()) return false;
    const bool better =
        rep.best.sides.empty() || r.capacity < rep.best.capacity ||
        (r.capacity == rep.best.capacity &&
         r.exactness == cut::Exactness::kExact &&
         rep.best.exactness != cut::Exactness::kExact);
    if (!better) return false;
    r.method = "supervisor/" + r.method;
    rep.best = std::move(r);
    rep.degradation_step = step;
    return true;
  };

  const cut::PortfolioSeeds seeds =
      cut::derive_portfolio_seeds(opts_.master_seed);
  const char* const kSteps[] = {"exact", "exact-budgeted", "multilevel",
                                "fm"};
  bool done = false;
  for (unsigned step = 0; step < 4 && !done && !clock.expired(); ++step) {
    rep.degradation_path.emplace_back(kSteps[step]);
    const bool exact_step = step < 2;
    for (unsigned attempt = 0; attempt <= opts_.max_retries; ++attempt) {
      if (clock.expired()) break;
      if (attempt > 0) {
        ++rep.retries;
        clock.backoff(opts_, attempt - 1);
        if (clock.expired()) break;
      }
      CancelToken token;
      clock.arm_token(token);
      std::atomic<std::uint64_t> progress{0};
      // Only the exact engines feed the progress cell; arming the
      // watchdog on a heuristic step would read silence as a stall.
      Watchdog dog(token, progress,
                   opts_.heartbeat_interval_ms,
                   exact_step ? opts_.stall_timeout_ms : 0.0);
      dog.start();
      try {
        cut::CutResult r;
        switch (step) {
          case 0:
          case 1: {
            cut::BranchBoundOptions bo;
            bo.num_threads = opts_.num_threads;
            bo.cancel = &token;
            bo.progress = &progress;
            if (step == 1) bo.node_limit = opts_.budgeted_exact_nodes;
            if (step == 0 && checkpointing) {
              // A crash- or stall-retry resumes from the state the
              // previous attempt last reached, held in memory.
              if (have_latest) {
                resume_state = latest;
                have_resume = true;
              }
              if (have_resume) {
                bo.resume = &resume_state;
                rep.resumed = true;
              }
              bo.on_checkpoint = [&](const cut::BranchBoundSearchState& st) {
                latest = st;
                have_latest = true;
                const Clock::time_point now = Clock::now();
                if (now - last_write < kCheckpointInterval) return;
                last_write = now;
                try {
                  save_snapshot(opts_.checkpoint_path, {fp, latest});
                } catch (const SnapshotError&) {
                  // Checkpointing is best-effort; a full disk must not
                  // kill an otherwise healthy solve.
                }
              };
            }
            r = cut::min_bisection_branch_bound(g, bo);
            break;
          }
          case 2: {
            cut::MultilevelOptions mo;
            mo.seed = seeds.multilevel;
            mo.cancel = &token;
            r = cut::min_bisection_multilevel(g, mo);
            break;
          }
          default: {
            cut::FiducciaMattheysesOptions fo;
            fo.seed = seeds.fm;
            fo.cancel = &token;
            r = cut::min_bisection_fiduccia_mattheyses(g, fo);
            break;
          }
        }
        dog.stop();
        const bool stalled = dog.fired();
        if (stalled) ++rep.stalls_detected;
        const bool exact_proof = r.exactness == cut::Exactness::kExact;
        offer(std::move(r), step);
        if (exact_step && exact_proof) {
          if (checkpointing) {
            std::error_code ec;
            std::filesystem::remove(opts_.checkpoint_path, ec);
          }
          done = true;
          break;
        }
        if (!exact_step && !rep.best.sides.empty()) {
          done = true;
          break;
        }
        // The attempt came back degraded. A watchdog stall is worth a
        // retry (the checkpoint preserves its work); a deadline or node
        // budget is not — fall through the ladder instead.
        if (!stalled) break;
      } catch (...) {
        dog.stop();
        if (dog.fired()) ++rep.stalls_detected;
        if (!is_transient(std::current_exception())) throw;
        ++rep.faults_survived;
        // Retry; the attempt loop's backoff and deadline checks apply.
      }
    }
  }

  rep.deadline_expired = clock.expired();
  if (!rep.best.sides.empty()) {
    rep.status = rep.best.exactness == cut::Exactness::kExact
                     ? SolveStatus::kExactOptimal
                     : SolveStatus::kDegradedHeuristic;
  }
  rep.wall_seconds = clock.elapsed();
  return rep;
}

SolveReport Supervisor::solve_portfolio(const Graph& g,
                                        cut::PortfolioOptions popts) const {
  const DeadlineClock clock(opts_.deadline_seconds);
  SolveReport rep;
  rep.degradation_path.emplace_back("portfolio");
  for (unsigned attempt = 0; attempt <= opts_.max_retries; ++attempt) {
    if (clock.expired()) break;
    if (attempt > 0) {
      ++rep.retries;
      clock.backoff(opts_, attempt - 1);
      if (clock.expired()) break;
    }
    try {
      if (clock.armed) {
        // Floor at 1 ms: the portfolio reads a budget of exactly 0 as
        // "no budget", which is the opposite of an expired deadline.
        popts.time_budget_seconds =
            std::max(clock.remaining_seconds(), 1e-3);
      }
      cut::PortfolioResult pr = cut::min_bisection_portfolio(g, popts);
      if (!pr.best.sides.empty()) {
        pr.best.method = "supervisor/" + pr.best.method;
        rep.best = std::move(pr.best);
        rep.status = pr.proved_optimal ? SolveStatus::kExactOptimal
                                       : SolveStatus::kDegradedHeuristic;
      }
      break;
    } catch (...) {
      if (!is_transient(std::current_exception())) throw;
      ++rep.faults_survived;
    }
  }
  rep.deadline_expired = clock.expired();
  rep.wall_seconds = clock.elapsed();
  return rep;
}

ExpansionReport Supervisor::solve_expansion(
    const Graph& g, expansion::ExactExpansionOptions eopts) const {
  const DeadlineClock clock(opts_.deadline_seconds);
  ExpansionReport rep;

  auto table_filled = [](const expansion::ExactExpansionResult& r) {
    for (std::size_t k = 1; k < r.table.size(); ++k) {
      if (r.table[k].ee != static_cast<std::size_t>(-1)) return true;
    }
    return false;
  };
  auto offer = [&](expansion::ExactExpansionResult&& r, unsigned step) {
    if (!table_filled(r) && rep.status != SolveStatus::kFailed) return;
    if (rep.status == SolveStatus::kExactOptimal) return;
    const bool had_result = table_filled(rep.result);
    if (had_result && !table_filled(r)) return;
    rep.result = std::move(r);
    rep.degradation_step = step;
    rep.status = rep.result.exactness == cut::Exactness::kExact
                     ? SolveStatus::kExactOptimal
                     : (table_filled(rep.result) ? SolveStatus::kDegradedHeuristic
                                                 : SolveStatus::kFailed);
  };

  const char* const kSteps[] = {"exact-sweep", "budgeted-sweep",
                                "size-limited"};
  bool done = false;
  for (unsigned step = 0; step < 3 && !done && !clock.expired(); ++step) {
    rep.degradation_path.emplace_back(kSteps[step]);
    for (unsigned attempt = 0; attempt <= opts_.max_retries; ++attempt) {
      if (clock.expired()) break;
      if (attempt > 0) {
        ++rep.retries;
        clock.backoff(opts_, attempt - 1);
        if (clock.expired()) break;
      }
      CancelToken token;
      clock.arm_token(token);
      std::atomic<std::uint64_t> progress{0};
      Watchdog dog(token, progress, opts_.heartbeat_interval_ms,
                   step < 2 ? opts_.stall_timeout_ms : 0.0);
      dog.start();
      try {
        expansion::ExactExpansionResult r;
        if (step < 2) {
          expansion::ExactExpansionOptions eo = eopts;
          eo.cancel = &token;
          eo.progress = &progress;
          if (step == 1) {
            eo.state_budget =
                eo.state_budget == 0
                    ? opts_.budgeted_exact_nodes
                    : std::min(eo.state_budget, opts_.budgeted_exact_nodes);
          }
          r = expansion::exact_expansion_full(g, eo);
        } else {
          // Last rung: per-size enumeration for the small set sizes,
          // which stays feasible when 2^N sweeps are not. Each entry is
          // exact; the TABLE is incomplete, hence kHeuristic.
          const std::size_t n = g.num_nodes();
          std::size_t kmax = eopts.max_k == 0 ? n : eopts.max_k;
          kmax = std::min<std::size_t>(kmax, 4);
          r.table.assign(kmax + 1, {});
          for (std::size_t k = 1; k <= kmax; ++k) {
            r.table[k].ee = static_cast<std::size_t>(-1);
            r.table[k].ne = static_cast<std::size_t>(-1);
          }
          r.exactness = cut::Exactness::kHeuristic;
          expansion::SizeKExpansionOptions so;
          so.cancel = &token;
          for (std::size_t k = 1; k <= kmax && !token.stop_requested();
               ++k) {
            auto kr = expansion::exact_expansion_of_size_full(g, k, so);
            r.visited_states += kr.visited_subsets;
            if (kr.entry.ee != static_cast<std::size_t>(-1)) {
              r.table[k] = std::move(kr.entry);
            }
          }
        }
        dog.stop();
        const bool stalled = dog.fired();
        if (stalled) ++rep.stalls_detected;
        const bool exact = r.exactness == cut::Exactness::kExact;
        offer(std::move(r), step);
        if (exact || (step == 2 && rep.status != SolveStatus::kFailed)) {
          done = true;
          break;
        }
        if (step == 1 && rep.status == SolveStatus::kDegradedHeuristic) {
          done = true;  // the budgeted rung exists to produce exactly this
          break;
        }
        if (!stalled) break;
      } catch (...) {
        dog.stop();
        if (dog.fired()) ++rep.stalls_detected;
        if (!is_transient(std::current_exception())) throw;
        ++rep.faults_survived;
      }
    }
  }

  rep.deadline_expired = clock.expired();
  rep.wall_seconds = clock.elapsed();
  return rep;
}

}  // namespace bfly::robust
