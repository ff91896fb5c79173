#include "service/executor.hpp"

#include <algorithm>
#include <chrono>
#include <future>
#include <utility>

#include "robust/fault_injection.hpp"
#include "robust/wire.hpp"

namespace bfly::service {

namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Queue key: canonical instance key folded with the policy, so an
/// exact request never coalesces onto a heuristic computation (their
/// answers carry different claims).
[[nodiscard]] std::uint64_t pending_key(std::uint64_t key, Policy policy) {
  return robust::wire::fnv1a_u64(key, static_cast<std::uint64_t>(policy));
}

[[nodiscard]] std::string key_hex(std::uint64_t key) {
  static const char* kHex = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 0; i < 16; ++i) {
    out[i] = kHex[(key >> (60 - 4 * i)) & 0xf];
  }
  return out;
}

[[nodiscard]] Response make_error(Status status, std::string detail) {
  Response r;
  r.status = status;
  r.detail = std::move(detail);
  return r;
}

}  // namespace

Service::Service(ServiceOptions opts)
    : opts_(std::move(opts)),
      cache_(opts_.lru_capacity, opts_.cache_dir) {
  if (opts_.autostart) start();
}

Service::~Service() { shutdown(); }

void Service::start() {
  unsigned spawn = 0;
  {
    sync::MutexLock lock(mu_);
    if (started_ || stopping_) return;
    started_ = true;
    spawn = std::max(1u, opts_.workers);
  }
  workers_.reserve(spawn);
  for (unsigned i = 0; i < spawn; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void Service::shutdown() {
  {
    sync::MutexLock lock(mu_);
    stopping_ = true;
    work_cv_.notify_all();
  }
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
  // Everything still queued is shed honestly instead of silently lost.
  std::vector<Party> orphans;
  {
    sync::MutexLock lock(mu_);
    for (auto& [pkey, pending] : pending_) {
      for (Party& p : pending.parties) orphans.push_back(std::move(p));
    }
    pending_.clear();
    queue_.clear();
  }
  for (Party& p : orphans) {
    respond(p, make_error(Status::kShed, "service shutting down"));
  }
}

void Service::respond(Party& party, Response r) const {
  r.id = party.req.id;
  if (r.key == 0) r.key = party.key;
  r.wall_ms = ms_since(party.t0);
  switch (r.status) {
    case Status::kOk: counters_.ok.fetch_add(1); break;
    case Status::kShed: counters_.shed.fetch_add(1); break;
    case Status::kDeadline: counters_.deadline.fetch_add(1); break;
    case Status::kBadRequest: counters_.bad_request.fetch_add(1); break;
    case Status::kFailed: counters_.failed.fetch_add(1); break;
  }
  party.done(std::move(r));
}

void Service::query_async(Request req, std::function<void(Response)> done) {
  counters_.received.fetch_add(1);
  Party party;
  party.t0 = Clock::now();
  party.req = std::move(req);
  party.done = std::move(done);
  const Request& r = party.req;

  if (!valid_instance(r.family, r.n)) {
    respond(party, make_error(Status::kBadRequest,
                              std::string(to_string(r.family)) +
                                  std::to_string(r.n) +
                                  " is outside the service domain"));
    return;
  }
  if (r.kind == QueryKind::kBoundary) {
    const std::uint64_t nodes = instance_nodes(r.family, r.n);
    if (nodes > 64) {
      respond(party,
              make_error(Status::kBadRequest,
                         "boundary queries need a <= 64-node instance"));
      return;
    }
    if (nodes < 64 && (r.subset_mask >> nodes) != 0) {
      respond(party, make_error(Status::kBadRequest,
                                "mask holds bits past the last node"));
      return;
    }
  }
  const std::uint64_t canon_mask =
      r.kind == QueryKind::kBoundary
          ? canonical_mask(r.family, r.n, r.subset_mask)
          : 0;
  party.key = canonical_key(r, canon_mask);
  const bool want_exact = r.policy == Policy::kExact;

  // Fast path, inline on the submitting thread: hits (and cheap
  // boundary computes below) never touch the solver queue.
  if (std::optional<ServiceCache::Hit> hit =
          cache_.lookup(party.key, want_exact, r.kind)) {
    (hit->source == Source::kMemory ? counters_.hits_memory
                                    : counters_.hits_disk)
        .fetch_add(1);
    Response resp;
    resp.status = Status::kOk;
    resp.value = hit->entry.value;
    resp.exact = hit->entry.exact;
    resp.source = hit->source;
    respond(party, std::move(resp));
    return;
  }

  if (r.kind == QueryKind::kBoundary) {
    CacheEntry entry;
    entry.key = party.key;
    entry.kind = r.kind;
    entry.family = r.family;
    entry.n = r.n;
    entry.mask = canon_mask;
    entry.value = subset_edge_boundary(r.family, r.n, r.subset_mask);
    entry.exact = true;  // a boundary count is a count, not a bound
    cache_.insert(entry);  // memory only: not persisted(kBoundary)
    counters_.computed.fetch_add(1);
    Response resp;
    resp.status = Status::kOk;
    resp.value = entry.value;
    resp.exact = true;
    resp.source = Source::kComputed;
    respond(party, std::move(resp));
    return;
  }

  // Bisection miss: admission control.
  const double deadline_s = r.deadline_seconds > 0.0
                                ? r.deadline_seconds
                                : opts_.default_deadline_seconds;
  if (deadline_s > 0.0) {
    party.has_deadline = true;
    party.deadline_tp =
        party.t0 + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(deadline_s));
  }
  const std::uint64_t pkey = pending_key(party.key, r.policy);
  enum class Verdict { kQueued, kCoalesced, kQueueFull, kEnqueueFault };
  Verdict verdict;
  {
    sync::MutexLock lock(mu_);
    const auto it = pending_.find(pkey);
    if (it != pending_.end()) {
      party.coalesced = true;
      counters_.coalesced.fetch_add(1);
      it->second.parties.push_back(std::move(party));
      verdict = Verdict::kCoalesced;
    } else if (queue_.size() >= opts_.queue_capacity) {
      verdict = Verdict::kQueueFull;
    } else {
      try {
        BFLY_FAULT_POINT(kEnqueue);
        queue_.push_back(pkey);
        pending_[pkey].parties.push_back(std::move(party));
        work_cv_.notify_one();
        verdict = Verdict::kQueued;
      } catch (const fault::FaultInjectedError&) {
        verdict = Verdict::kEnqueueFault;
      }
    }
  }
  switch (verdict) {
    case Verdict::kQueued:
    case Verdict::kCoalesced:
      return;  // a worker responds later
    case Verdict::kQueueFull:
      respond(party, make_error(Status::kShed, "admission queue full"));
      return;
    case Verdict::kEnqueueFault:
      respond(party, make_error(Status::kShed, "injected enqueue fault"));
      return;
  }
}

Response Service::query(const Request& req) {
  std::promise<Response> promise;
  std::future<Response> future = promise.get_future();
  query_async(req, [&promise](Response r) { promise.set_value(std::move(r)); });
  return future.get();
}

void Service::worker_loop() {
  for (;;) {
    std::vector<Party> parties;
    std::uint64_t pkey_out = 0;
    {
      sync::MutexLock lock(mu_);
      while (queue_.empty() && !stopping_) work_cv_.wait(lock);
      if (stopping_) return;  // shutdown() sheds what remains
      const std::uint64_t pkey = queue_.front();
      queue_.pop_front();
      const auto it = pending_.find(pkey);
      if (it == pending_.end()) continue;
      // Take the parties but leave the entry: an identical request
      // arriving mid-solve joins it instead of recomputing. The entry
      // is erased by detach_pending() when the computation resolves.
      parties = std::move(it->second.parties);
      it->second.parties.clear();
      it->second.running = true;
      pkey_out = pkey;
    }
    run_computation(pkey_out, std::move(parties));
  }
}

std::vector<Service::Party> Service::detach_pending(std::uint64_t pkey) {
  std::vector<Party> late;
  sync::MutexLock lock(mu_);
  const auto it = pending_.find(pkey);
  if (it != pending_.end()) {
    late = std::move(it->second.parties);
    pending_.erase(it);
  }
  return late;
}

void Service::run_computation(std::uint64_t pkey, std::vector<Party> parties) {
  // Drop the parties whose deadline passed while queued — honestly,
  // before spending any solver time on them.
  const Clock::time_point now = Clock::now();
  std::vector<Party> live;
  live.reserve(parties.size());
  for (Party& p : parties) {
    if (p.has_deadline && now >= p.deadline_tp) {
      respond(p, make_error(Status::kDeadline,
                            "deadline passed while queued"));
    } else {
      live.push_back(std::move(p));
    }
  }
  if (live.empty()) {
    // Every original party expired, but identical requests may have
    // coalesced onto this slot since the pop; compute for the fresh
    // ones (they just arrived, so their deadlines haven't lapsed).
    live = detach_pending(pkey);
    if (live.empty()) return;
  }

  const std::uint64_t key = live.front().key;
  const bool want_exact = live.front().req.policy == Policy::kExact;

  // The cache may have filled while this job queued (an identical
  // computation admitted earlier finished in the meantime).
  if (std::optional<ServiceCache::Hit> hit = cache_.lookup(key, want_exact)) {
    for (Party& late : detach_pending(pkey)) live.push_back(std::move(late));
    for (Party& p : live) {
      (hit->source == Source::kMemory ? counters_.hits_memory
                                      : counters_.hits_disk)
          .fetch_add(1);
      Response resp;
      resp.status = Status::kOk;
      resp.value = hit->entry.value;
      resp.exact = hit->entry.exact;
      resp.source = hit->source;
      respond(p, std::move(resp));
    }
    return;
  }

  try {
    BFLY_FAULT_POINT(kDispatch);
  } catch (const fault::FaultInjectedError& e) {
    for (Party& late : detach_pending(pkey)) live.push_back(std::move(late));
    for (Party& p : live) {
      respond(p, make_error(Status::kFailed, e.what()));
    }
    return;
  }

  // One computation serves every coalesced party; its deadline is the
  // most generous remaining one (a party whose own deadline lapses
  // mid-solve still gets the shared result, just late).
  double remaining = 0.0;
  bool unlimited = false;
  for (const Party& p : live) {
    if (!p.has_deadline) {
      unlimited = true;
    } else {
      remaining = std::max(
          remaining,
          std::chrono::duration<double>(p.deadline_tp - now).count());
    }
  }
  if (unlimited) remaining = 0.0;

  Response solved = solve_bisection_for(live.front(), remaining);
  counters_.computed.fetch_add(1);
  if (solved.status == Status::kOk) {
    CacheEntry entry;
    entry.key = key;
    entry.kind = live.front().req.kind;
    entry.family = live.front().req.family;
    entry.n = live.front().req.n;
    entry.value = solved.value;
    entry.exact = solved.exact;
    if (cache_.insert(entry) == ServiceCache::InsertOutcome::kPersistFailed) {
      counters_.persist_failures.fetch_add(1);
    }
  }
  // Detach AFTER the cache insert: a request arriving past this point
  // misses the pending entry but finds the fresh cache entry instead.
  for (Party& late : detach_pending(pkey)) live.push_back(std::move(late));
  for (Party& p : live) {
    Response resp = solved;
    resp.source = solved.status == Status::kOk
                      ? (p.coalesced ? Source::kCoalesced : Source::kComputed)
                      : Source::kNone;
    respond(p, std::move(resp));
  }
}

Response Service::solve_bisection_for(const Party& party,
                                      double remaining_seconds) const {
  const Request& r = party.req;
  const Graph g = build_graph(r.family, r.n);

  robust::SupervisorOptions so;
  so.deadline_seconds = remaining_seconds;
  so.backoff = opts_.backoff;
  so.num_threads = opts_.solver_threads;
  so.budgeted_exact_nodes =
      r.node_budget != 0 ? r.node_budget : opts_.default_node_budget;
  if (r.policy == Policy::kExact && cache_.persistent()) {
    // A SIGKILL mid-exact-solve leaves this snapshot behind; the
    // restarted daemon's retry resumes it instead of starting over.
    so.checkpoint_path = cache_.dir() / (key_hex(party.key) + ".snap");
  }
  const robust::Supervisor supervisor(so);

  robust::SolveReport report;
  if (r.policy == Policy::kExact) {
    report = supervisor.solve_bisection(g);
  } else {
    cut::PortfolioOptions po;
    po.run_branch_bound = r.policy == Policy::kPortfolio;
    po.num_threads = opts_.solver_threads;
    report = supervisor.solve_portfolio(g, po);
  }

  Response resp;
  resp.key = party.key;
  if (report.status == robust::SolveStatus::kFailed) {
    resp.status = Status::kFailed;
    resp.detail = "every ladder step failed";
    return resp;
  }
  resp.status = Status::kOk;
  resp.value = report.best.capacity;
  resp.exact = report.best.exactness == cut::Exactness::kExact;
  if (report.deadline_expired) resp.detail = "deadline-degraded";
  return resp;
}

ServiceStats Service::stats() const {
  ServiceStats s;
  s.received = counters_.received.load();
  s.ok = counters_.ok.load();
  s.shed = counters_.shed.load();
  s.deadline_expired = counters_.deadline.load();
  s.bad_request = counters_.bad_request.load();
  s.failed = counters_.failed.load();
  s.hits_memory = counters_.hits_memory.load();
  s.hits_disk = counters_.hits_disk.load();
  s.computed = counters_.computed.load();
  s.coalesced = counters_.coalesced.load();
  s.persist_failures = counters_.persist_failures.load();
  s.quarantined = cache_.quarantined();
  s.recovered_entries = cache_.recovered_entries();
  s.tmp_removed = cache_.tmp_removed();
  return s;
}

}  // namespace bfly::service
