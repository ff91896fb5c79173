// service: daemon traffic in a closed loop.
//
// One in-process Service (2 workers, serial solver calls, a fresh cache
// directory) serves 2 client threads; each client takes the next line of
// the stream only after its previous response, and sends it through the
// same path the daemon takes: parse_request -> Service::query ->
// format_response. One pass is one epoch of a seeded stream on a fresh
// directory, so misses recur every pass. The stream mixes repeated keys
// (hits), BOUNDARY queries on fresh masks (computed inline and persisted)
// and BW misses: exact on B8/W8/CCC8/Q16, heuristic on B16/CCC16. Most of
// an epoch is inline hits, so neither the slowest solver miss (B16, tens
// of milliseconds) nor the file system sets its length (see
// perfbench/README.md, "Measured spread"). The kinds of request follow a
// fixed pattern and the seed picks their content: in a closed loop the
// epoch's length depends on where the slowest miss lands, so a seeded
// order moved solve_s with the seed. Portfolio-policy W16 stays out: one
// cold query takes most of a second and would set the run.
#include <unistd.h>

#include <array>
#include <atomic>
#include <cstdio>
#include <optional>
#include <random>
#include <thread>

#include "common.hpp"
#include "cut/branch_bound.hpp"
#include "cut/portfolio.hpp"
#include "expansion/expansion.hpp"
#include "robust/supervisor.hpp"
#include "service/executor.hpp"
#include "service/request.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using namespace bfly;
using service::Family;
using service::Policy;

constexpr unsigned kClients = 2;
constexpr std::size_t kEpochStreams = 32;  // distinct epoch streams, cycled
// An epoch is kRounds rounds over the BW instances; each BW request is
// followed by one BOUNDARY request on a fresh mask and kRepeatsPerBw
// repeats of masks already asked in the epoch.
constexpr std::size_t kRounds = 16;
constexpr std::size_t kRepeatsPerBw = 24;
constexpr int kExtraReps = 5;              // traced solver-separation reps

struct BwInstance {
  const char* name;
  const char* token;
  Family family;
  std::uint32_t n;
  Policy policy;
  std::uint64_t known_width;  ///< BW from the paper / the exact closure
  Graph graph;
  std::uint64_t reference = 0;  ///< what the bare solver returns
};

struct BoundaryFamily {
  const char* token;
  Family family;
  std::uint32_t n;
  Graph graph;
};

struct Line {
  std::string text;
  std::uint64_t expected = 0;  ///< BOUNDARY value (BW: the instance's)
  int bw_instance = -1;        ///< index into bw_, or -1 for BOUNDARY
};

struct ClientLog {
  std::vector<double> hit_us, miss_ms, parse_us, format_us;
  std::vector<std::pair<int, std::uint64_t>> bw_values;  ///< (instance, value)
};

service::ServiceOptions service_options(const std::filesystem::path& dir) {
  service::ServiceOptions o;
  o.workers = 2;
  o.solver_threads = 1;
  o.cache_dir = dir;
  return o;
}

// The supervisor configuration the service uses for one miss.
robust::SupervisorOptions supervisor_options(
    const service::ServiceOptions& so, const std::filesystem::path& ckpt) {
  robust::SupervisorOptions o;
  o.deadline_seconds = so.default_deadline_seconds;
  o.backoff = so.backoff;
  o.num_threads = so.solver_threads;
  o.budgeted_exact_nodes = so.default_node_budget;
  o.checkpoint_path = ckpt;
  return o;
}

std::uint64_t bare_solve(const BwInstance& inst) {
  if (inst.policy == Policy::kExact) {
    return cut::min_bisection_branch_bound(inst.graph).capacity;
  }
  cut::PortfolioOptions po;
  po.run_branch_bound = false;
  po.num_threads = 1;
  return cut::min_bisection_portfolio(inst.graph, po).best.capacity;
}

class ServiceWorkload final : public Workload {
 public:
  using Workload::Workload;
  ServiceWorkload(const ServiceWorkload&) = delete;
  ServiceWorkload& operator=(const ServiceWorkload&) = delete;
  // Epoch directories are removed when the run ends, outside the timed
  // passes: deleting hundreds of files per pass makes the file system's
  // journal and block discards stall the next pass's writes.
  ~ServiceWorkload() override {
    std::error_code ec;
    for (const std::filesystem::path& dir : dirs_) {
      std::filesystem::remove_all(dir, ec);
    }
  }

  void setup(std::uint64_t seed) override {
    {
      const trace::Span span("topology.build");
      const auto t0 = Clock::now();
      bw_ = {
          {"B8", "b", Family::kButterfly, 8, Policy::kExact, 8, {}},
          {"W8", "w", Family::kWrapped, 8, Policy::kExact, 8, {}},
          {"CCC8", "ccc", Family::kCcc, 8, Policy::kExact, 4, {}},
          {"Q16", "q", Family::kHypercube, 16, Policy::kExact, 8, {}},
          {"B16", "b", Family::kButterfly, 16, Policy::kHeuristic, 16, {}},
          {"CCC16", "ccc", Family::kCcc, 16, Policy::kHeuristic, 8, {}},
      };
      for (BwInstance& inst : bw_) {
        inst.graph = service::build_graph(inst.family, inst.n);
      }
      // Fresh masks go to instances whose orbits are small next to 2^N,
      // so a fresh mask is almost never a symmetric repeat.
      boundary_ = {
          {"b", Family::kButterfly, 8, bw_[0].graph},
          {"w", Family::kWrapped, 8, bw_[1].graph},
          {"ccc", Family::kCcc, 8, bw_[2].graph},
      };
      topology_build_s_ = seconds_since(t0);
    }

    epochs_.assign(kEpochStreams, {});
    for (std::size_t e = 0; e < kEpochStreams; ++e) {
      std::mt19937_64 rng(derive_seed(seed, 100 + e));
      std::vector<Line>& lines = epochs_[e];
      std::vector<Line> fresh;
      for (std::size_t r = 0; r < kRounds * bw_.size(); ++r) {
        const std::size_t i = r % bw_.size();
        const BwInstance& inst = bw_[i];
        std::string text = std::string("BW ") + inst.token + " " +
                           std::to_string(inst.n);
        if (inst.policy == Policy::kHeuristic) text += " policy=heuristic";
        lines.push_back({text, 0, static_cast<int>(i)});
        fresh.push_back(fresh_boundary(rng));
        lines.push_back(fresh.back());
        for (std::size_t k = 0; k < kRepeatsPerBw; ++k) {
          lines.push_back(fresh[rng() % fresh.size()]);
        }
      }
      for (std::size_t i = 0; i < lines.size(); ++i) {
        lines[i].text += " id=e" + std::to_string(e) + "r" + std::to_string(i);
      }
    }
    epoch_ = 0;
  }

  void prepare() override {
    for (BwInstance& inst : bw_) inst.reference = bare_solve(inst);
  }

  std::uint64_t pass() override {
    const std::vector<Line>& lines = epochs_[epoch_ % epochs_.size()];
    const std::filesystem::path dir =
        cfg_.workdir / ("service-cache-" + std::to_string(::getpid()) + "-" +
                        std::to_string(epoch_));
    ++epoch_;
    std::filesystem::remove_all(dir);

    std::vector<ClientLog> logs(kClients);
    double start_s = 0.0;
    service::ServiceStats stats;
    {
      std::optional<service::Service> svc;
      {
        const trace::Span span("service.start", trace::next_op());
        timed(start_s, [&] { svc.emplace(service_options(dir)); });
      }
      // Clients share the stream, so a client stuck on a slow miss does
      // not leave its share of the stream waiting behind it.
      std::atomic<std::size_t> next{0};
      std::vector<std::thread> clients;
      for (unsigned c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
          for (std::size_t i = next++; i < lines.size(); i = next++) {
            serve(*svc, lines[i], logs[c]);
          }
        });
      }
      for (std::thread& t : clients) t.join();
      {
        const trace::Span span("service.shutdown", trace::next_op());
        svc->shutdown();
      }
      stats = svc->stats();
    }
    dirs_.push_back(dir);

    ClientLog all;
    for (const ClientLog& log : logs) {
      for (auto [dst, src] :
           {std::pair{&all.hit_us, &log.hit_us}, {&all.miss_ms, &log.miss_ms},
            {&all.parse_us, &log.parse_us},
            {&all.format_us, &log.format_us}}) {
        dst->insert(dst->end(), src->begin(), src->end());
      }
    }
    // Only the traced run reports latency percentiles; an untraced run
    // keeping half a million samples moved peak_rss_mb by 7% between runs.
    if (cfg_.trace) {
      samples_.add_all("hit_us", all.hit_us);
      samples_.add_all("miss_ms", all.miss_ms);
    }
    samples_.add("service.parse_us", median(all.parse_us));
    samples_.add("service.format_us", median(all.format_us));
    samples_.add("service.start_s", start_s);
    const auto hits = static_cast<double>(stats.hits_memory + stats.hits_disk);
    samples_.add("service.hit_ratio",
                 hits / static_cast<double>(stats.received));
    samples_.add("service.computed", static_cast<double>(stats.computed));
    samples_.add("service.coalesced", static_cast<double>(stats.coalesced));
    samples_.add("service.hits_memory", static_cast<double>(stats.hits_memory));
    samples_.add("service.hits_disk", static_cast<double>(stats.hits_disk));
    samples_.add("service.shed", static_cast<double>(stats.shed));
    samples_.add("service.persist_failures",
                 static_cast<double>(stats.persist_failures));
    checks_.record(checks_.expect(
        stats.received == lines.size() && stats.ok == lines.size() &&
            stats.quarantined == 0,
        "service: counters disagree with the stream (" +
            std::to_string(stats.ok) + " ok of " +
            std::to_string(lines.size()) + ")"));

    std::vector<std::uint64_t> value(bw_.size(), 0);
    for (const ClientLog& log : logs) {
      for (const auto& [i, v] : log.bw_values) value[i] = v;
    }
    std::uint64_t served = 0, known = 0;
    for (std::size_t i = 0; i < bw_.size(); ++i) {
      served += value[i];
      known += bw_[i].known_width;
    }
    ratio_ = static_cast<double>(served) / static_cast<double>(known);
    return lines.size();
  }

  [[nodiscard]] double capacity_ratio() const override { return ratio_; }

  void traced_extras() override {
    // The canonical key every request computes inside the service, timed
    // on its own over one epoch's stream.
    std::vector<double> key_us;
    for (const Line& line : epochs_.front()) {
      const service::Request req = service::parse_request(line.text);
      const trace::Span span("service.canonical_key", trace::next_op());
      const auto t0 = Clock::now();
      const std::uint64_t key = service::canonical_key(req);
      key_us.push_back(seconds_since(t0) * 1e6);
      checks_.record(
          checks_.expect(key != 0, line.text + ": no canonical key"));
    }
    samples_.add("service.canonical_key_us", median(key_us));

    // Separates service, supervisor and solver time for each miss
    // instance: the supervisor with the service's checkpoint path, the
    // supervisor memory-only, and the bare solver.
    const std::filesystem::path dir =
        cfg_.workdir / ("service-extras-" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const service::ServiceOptions so = service_options(dir);
    double ckpt_total = 0.0, memory_total = 0.0, bare_total = 0.0;
    std::printf("# %-6s %14s %14s %14s   (median of %d cold solves)\n",
                "miss", "supervisor_ms", "memory_ms", "bare_ms", kExtraReps);
    for (const BwInstance& inst : bw_) {
      std::vector<double> ckpt, memory, bare;
      for (int rep = 0; rep < kExtraReps; ++rep) {
        const auto ckpt_path =
            inst.policy == Policy::kExact ? dir / "miss.snap"
                                          : std::filesystem::path{};
        for (auto [times, path] : {std::pair{&ckpt, ckpt_path},
                                   {&memory, std::filesystem::path{}}}) {
          const robust::Supervisor sup(supervisor_options(so, path));
          const auto t0 = Clock::now();
          robust::SolveReport rep_result;
          {
            const trace::Span span("robust.supervisor", trace::next_op());
            if (inst.policy == Policy::kExact) {
              rep_result = sup.solve_bisection(inst.graph);
            } else {
              cut::PortfolioOptions po;
              po.run_branch_bound = false;
              po.num_threads = so.solver_threads;
              rep_result = sup.solve_portfolio(inst.graph, po);
            }
          }
          times->push_back(seconds_since(t0));
          checks_.record(checks_.expect(
              rep_result.best.capacity == inst.reference,
              std::string(inst.name) + ": supervised value differs"));
        }
        const auto t0 = Clock::now();
        std::uint64_t value = 0;
        {
          const trace::Span span("cut.bare_solver", trace::next_op());
          value = bare_solve(inst);
        }
        bare.push_back(seconds_since(t0));
        checks_.record(checks_.expect(
            value == inst.reference,
            std::string(inst.name) + ": bare solver is not deterministic"));
      }
      std::printf("# %-6s %14.3f %14.3f %14.3f\n", inst.name,
                  median(ckpt) * 1e3, median(memory) * 1e3, median(bare) * 1e3);
      ckpt_total += median(ckpt);
      memory_total += median(memory);
      bare_total += median(bare);
    }
    std::filesystem::remove_all(dir);
    extras_ = {ckpt_total, memory_total, bare_total};
  }

  [[nodiscard]] LayerValues per_layer() const override {
    LayerValues r = Workload::per_layer();
    const std::vector<double> hit = samples_.values("hit_us");
    const std::vector<double> miss = samples_.values("miss_ms");
    const double hit_q = tail_quantile_level(hit.size());
    const double miss_q = tail_quantile_level(miss.size());
    r["service.hit_p50_us"] = quantile(hit, 0.5);
    r["service.hit_p99_us"] = quantile(hit, hit_q);
    r["service.hit_samples"] = static_cast<double>(hit.size());
    r["service.miss_p50_ms"] = quantile(miss, 0.5);
    r["service.miss_p99_ms"] = quantile(miss, miss_q);
    r["service.miss_samples"] = static_cast<double>(miss.size());
    std::printf("# hit tail is p%.2f of %zu samples; miss tail is p%.2f of "
                "%zu samples\n",
                hit_q * 100.0, hit.size(), miss_q * 100.0, miss.size());
    r.erase("hit_us");
    r.erase("miss_ms");
    r["robust.supervisor.s"] = extras_[0];
    r["robust.supervisor.memory_only_s"] = extras_[1];
    r["cut.bare_solver.s"] = extras_[2];
    return r;
  }

 private:
  // A BOUNDARY request on a random nonempty proper subset of one of the
  // boundary families, with its edge boundary.
  Line fresh_boundary(std::mt19937_64& rng) const {
    const BoundaryFamily& f = boundary_[rng() % boundary_.size()];
    const NodeId nodes = f.graph.num_nodes();
    std::uint64_t mask = 0;
    while (mask == 0 || mask == (1ull << nodes) - 1) {
      mask = rng() & ((1ull << nodes) - 1);
    }
    std::vector<NodeId> set;
    for (NodeId v = 0; v < nodes; ++v) {
      if (((mask >> v) & 1u) != 0) set.push_back(v);
    }
    char hex[32];
    std::snprintf(hex, sizeof hex, "%llx",
                  static_cast<unsigned long long>(mask));
    return {std::string("BOUNDARY ") + f.token + " " + std::to_string(f.n) +
                " " + hex,
            expansion::edge_boundary(f.graph, set), -1};
  }

  void serve(service::Service& svc, const Line& line, ClientLog& log) {
    const trace::Span request_span("service.request", trace::next_op());
    bool ok = true;
    try {
      const auto t0 = Clock::now();
      service::Request req;
      {
        const trace::Span span("service.parse");
        req = service::parse_request(line.text);
      }
      const double parse_s = seconds_since(t0);
      service::Response resp;
      {
        const trace::Span span("service.query");
        resp = svc.query(req);
      }
      const auto t1 = Clock::now();
      std::string out;
      {
        const trace::Span span("service.format");
        out = service::format_response(resp);
      }
      const double format_s = seconds_since(t1);
      const double latency_s = seconds_since(t0);
      log.parse_us.push_back(parse_s * 1e6);
      log.format_us.push_back(format_s * 1e6);
      const bool hit = resp.source == service::Source::kMemory ||
                       resp.source == service::Source::kDisk;
      (hit ? log.hit_us : log.miss_ms)
          .push_back(hit ? latency_s * 1e6 : latency_s * 1e3);
      if (line.bw_instance >= 0) {
        log.bw_values.emplace_back(line.bw_instance, resp.value);
      }
      ok &= checks_.expect(
          resp.status == service::Status::kOk && out.rfind("OK ", 0) == 0,
          line.text + ": " + out);
      const std::uint64_t expected =
          line.bw_instance >= 0
              ? bw_[static_cast<std::size_t>(line.bw_instance)].reference
              : line.expected;
      ok &= checks_.expect(resp.value == expected,
                           line.text + ": value " + std::to_string(resp.value) +
                               ", bare solver " + std::to_string(expected));
    } catch (const std::exception& e) {
      ok = checks_.expect(false, line.text + ": " + e.what());
    }
    checks_.record(ok);
  }

  std::vector<BwInstance> bw_;
  std::vector<BoundaryFamily> boundary_;
  std::vector<std::vector<Line>> epochs_;
  std::vector<std::filesystem::path> dirs_;  ///< epoch directories to remove
  std::size_t epoch_ = 0;
  double ratio_ = 0.0;
  std::array<double, 3> extras_{};
};

}  // namespace

std::unique_ptr<Workload> make_service(const RunConfig& cfg, Checks& checks) {
  return std::make_unique<ServiceWorkload>(cfg, checks);
}

}  // namespace perfbench
