// E25 — the phase-driven routing simulator under the bisection bound
// (DESIGN.md §15, EXPERIMENTS.md E25).
//
// Rows run the SoA engine over the E25 traffic scenarios (uniform,
// bit-reversal, hotspot, cut-saturating, virtual-channel configs) on
// B64..B1024 and report throughput (packets·hops per second of run()
// wall time) plus the slowdown makespan / (P / (4·BW)) against the
// repo's own constructive BW values, with the witness-cut crossings and
// the certified per-instance lower bound alongside.
//
// Emits BENCH_routing_sim.json (--out=<path>), recording the CPUs the
// run could use, with rows
//   {instance, traffic, threads, packets, total_hops, seconds,
//    phops_per_s, min_phops_per_s, makespan, max_queue, max_link_load,
//    bw, c14_bound, cut_bound, lower_bound, slowdown}
// keyed by (instance, traffic, threads). Makespan is a pure function of
// the row's spec — the engine is deterministic for ANY thread count —
// so compare_bench.py gates it like a visited-node count (any drift
// fails). Correctness gates run in every build:
//
//   * makespan >= the certified lower bound (directional cut bound,
//     longest route, static congestion) — a violation is an engine bug;
//   * makespan >= C14's P/(4·BW) on every row;
//   * the cut-saturating row lands within 2x of its certified bound.
//
// Performance gates run only in non-checked, non-sanitized builds
// ("gated": true in the JSON): the serial B1024 uniform rows must
// sustain >= 1M packets·hops/s (floor carried per-row, re-checked by
// compare_bench.py), and when the process may run on >= 4 CPUs (its
// affinity mask, not the machine's core count) the 4-thread stepper
// must beat serial by >= 1.5x on the B1024 row.
// Exits nonzero on any gate failure — CI runs `--smoke` behind the
// compare_bench.py baseline gate.
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/error.hpp"
#include "cut/constructive.hpp"
#include "cut/fiduccia_mattheyses.hpp"
#include "routing/sim_engine.hpp"
#include "routing/traffic.hpp"
#include "topology/butterfly.hpp"

namespace {

using namespace bfly;

constexpr double kSerialPhopsFloor = 1.0e6;  // B1024 serial acceptance
constexpr double kSpeedupFloor = 1.5;        // 4-thread over serial
constexpr double kCutsatSlack = 2.0;         // vs the certified bound

struct Row {
  std::string instance;
  std::string traffic;
  unsigned threads = 1;
  std::size_t packets = 0;
  std::uint64_t total_hops = 0;
  double seconds = 0.0;
  double phops_per_s = 0.0;
  double min_phops_per_s = 0.0;
  std::uint32_t makespan = 0;
  std::size_t max_queue = 0;
  std::size_t max_link_load = 0;
  std::size_t bw = 0;
  double c14_bound = 0.0;
  double cut_bound = 0.0;
  double lower_bound = 0.0;
  double slowdown = 0.0;
};

std::vector<Row> g_rows;
int g_failures = 0;

// Perf gates only where the binary is actually optimized and
// uninstrumented; the correctness gates stay on everywhere.
bool perf_gated() { return !checked_build() && !sanitized_build(); }

// "B" + std::to_string(n) via append — GCC 12's -Wrestrict misfires on
// the insert-based operator+(const char*, string&&) under -O2.
std::string tag(const char* prefix, std::uint32_t n) {
  std::string s(prefix);
  s += std::to_string(n);
  return s;
}

// The CPUs this process may run on, as nproc counts them. A container
// or taskset pin can grant fewer than hardware_concurrency() reports, and
// the 4-thread row only means something when the 4 threads get 4 CPUs.
unsigned available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct CaseConfig {
  unsigned threads = 1;
  std::uint32_t vcs = 1;
  std::uint32_t capacity = 0;
  double min_phops = 0.0;  // 0 = no throughput floor on this row
  int reps = 1;            // best-of-N run() wall time
};

// Runs one row: generate traffic, load, time run(), check the
// correctness gates, record the row. Returns the row for follow-up
// gates (speedup pairs, cutsat slack).
const Row& run_case(const topo::Butterfly& bf, const std::string& instance,
                    const std::string& spec_text,
                    const std::vector<std::uint8_t>& witness_sides,
                    std::size_t bw, const CaseConfig& cfg) {
  const auto spec = routing::parse_traffic_spec(spec_text);
  const auto traffic = routing::make_traffic(bf, spec, &witness_sides);

  routing::SimOptions opts;
  opts.num_threads = cfg.threads;
  opts.vcs_per_link = cfg.vcs;
  opts.vc_capacity = cfg.capacity;
  routing::SimEngine eng(bf.graph(), opts);

  routing::EngineStats st;
  double best = 0.0;
  for (int rep = 0; rep < cfg.reps; ++rep) {
    if (cfg.vcs > 1) {
      eng.load(traffic.paths,
               routing::stage_weighted_vcs(bf, traffic.paths, cfg.vcs));
    } else {
      eng.load(traffic.paths);
    }
    const auto t0 = std::chrono::steady_clock::now();
    st = eng.run();
    const double secs = seconds_since(t0);
    if (rep == 0 || secs < best) best = secs;
  }
  const auto bound = routing::traffic_bound(traffic, bw, st.max_link_load);

  Row r;
  r.instance = instance;
  r.traffic = spec_text;
  r.threads = cfg.threads;
  r.packets = st.num_packets;
  r.total_hops = st.total_hops;
  r.seconds = best;
  r.phops_per_s =
      best > 0.0 ? static_cast<double>(st.total_hops) / best : 0.0;
  r.min_phops_per_s = cfg.min_phops;
  r.makespan = st.makespan;
  r.max_queue = st.max_queue;
  r.max_link_load = st.max_link_load;
  r.bw = bw;
  r.c14_bound = bound.c14_bound;
  r.cut_bound = bound.cut_bound;
  r.lower_bound = bound.lower_bound;
  r.slowdown = bound.c14_bound > 0.0 ? r.makespan / bound.c14_bound : 0.0;

  // Correctness gates (every build type).
  if (st.delivered != st.num_packets) {
    std::fprintf(stderr, "GATE %s/%s: delivered %zu of %zu packets\n",
                 instance.c_str(), spec_text.c_str(), st.delivered,
                 st.num_packets);
    ++g_failures;
  }
  if (static_cast<double>(r.makespan) < bound.lower_bound) {
    std::fprintf(stderr,
                 "GATE %s/%s: makespan %u below the certified lower bound "
                 "%.2f — engine bug\n",
                 instance.c_str(), spec_text.c_str(), r.makespan,
                 bound.lower_bound);
    ++g_failures;
  }
  if (static_cast<double>(r.makespan) < bound.c14_bound) {
    std::fprintf(stderr, "GATE %s/%s: makespan %u below C14's P/(4 BW) = %.2f\n",
                 instance.c_str(), spec_text.c_str(), r.makespan,
                 bound.c14_bound);
    ++g_failures;
  }
  // Throughput floor (optimized builds only).
  if (perf_gated() && cfg.min_phops > 0.0 && r.phops_per_s < cfg.min_phops) {
    std::fprintf(stderr,
                 "GATE %s/%s t=%u: %.2fM packets·hops/s below the %.2fM "
                 "floor\n",
                 instance.c_str(), spec_text.c_str(), cfg.threads,
                 r.phops_per_s / 1e6, cfg.min_phops / 1e6);
    ++g_failures;
  }

  std::printf(
      "%-12s %-24s t=%u  %8.4fs  %7.2fM ph/s  makespan=%-5u bound=%-7.1f "
      "slowdown=%.2fx\n",
      instance.c_str(), spec_text.c_str(), cfg.threads, r.seconds,
      r.phops_per_s / 1e6, r.makespan, r.lower_bound, r.slowdown);
  g_rows.push_back(r);
  return g_rows.back();
}

void write_json(const std::string& path, bool smoke, unsigned cpus) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    ++g_failures;
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"routing_sim\",\n");
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f, "  \"gated\": %s,\n", perf_gated() ? "true" : "false");
  std::fprintf(f, "  \"cpus\": %u,\n", cpus);
  std::fprintf(f, "  \"failures\": %d,\n", g_failures);
  std::fprintf(f, "  \"rows\": [\n");
  for (std::size_t i = 0; i < g_rows.size(); ++i) {
    const Row& r = g_rows[i];
    std::fprintf(
        f,
        "    {\"instance\": \"%s\", \"traffic\": \"%s\", \"threads\": %u, "
        "\"packets\": %zu, \"total_hops\": %llu, \"seconds\": %.6f, "
        "\"phops_per_s\": %.1f, \"min_phops_per_s\": %.1f, "
        "\"makespan\": %u, \"max_queue\": %zu, \"max_link_load\": %zu, "
        "\"bw\": %zu, \"c14_bound\": %.3f, \"cut_bound\": %.3f, "
        "\"lower_bound\": %.3f, \"slowdown\": %.3f}%s\n",
        r.instance.c_str(), r.traffic.c_str(), r.threads, r.packets,
        static_cast<unsigned long long>(r.total_hops), r.seconds,
        r.phops_per_s, r.min_phops_per_s, r.makespan, r.max_queue,
        r.max_link_load, r.bw, r.c14_bound, r.cut_bound, r.lower_bound,
        r.slowdown, i + 1 < g_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s (%zu rows)\n", path.c_str(), g_rows.size());
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out = "BENCH_routing_sim.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out = argv[i] + 6;
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out=<path>]\n", argv[0]);
      return 2;
    }
  }
  // Instrumented / unoptimized runs keep the deterministic rows (their
  // makespans are build-type independent) but shrink the heavy B1024
  // work: a 10x-slower build re-running the biggest rows only burns CI
  // minutes without touching new code paths.
  const bool lean = !perf_gated();
  const unsigned cpus = available_cpus();
  std::printf("routing-sim bench (%s mode, perf gates %s)\n",
              smoke ? "smoke" : "full", perf_gated() ? "on" : "off");

  // --- slowdown-vs-BW ladder: uniform traffic, constructive cuts ---
  for (const std::uint32_t n :
       {64u, 128u, 256u, 512u, 1024u}) {
    if (lean && (n == 512u || n == 1024u)) continue;
    if (smoke && n == 512u) continue;
    const topo::Butterfly bf(n);
    const auto cutres = cut::column_split_bisection(bf);
    CaseConfig cfg;
    run_case(bf, tag("B", n), "uniform:ppn=16:seed=42",
             cutres.sides, cutres.capacity, cfg);
  }

  // --- B1024 throughput rows (the acceptance floor) ---
  {
    const topo::Butterfly bf(1024);
    const auto cutres = cut::column_split_bisection(bf);
    {
      CaseConfig cfg;
      cfg.min_phops = kSerialPhopsFloor;
      cfg.reps = 2;
      // ppn=4 keeps this row under tsan/Debug budgets too.
      run_case(bf, "B1024", "uniform:ppn=4:seed=42", cutres.sides,
               cutres.capacity, cfg);
    }
    if (!lean) {
      CaseConfig serial_cfg;
      serial_cfg.min_phops = kSerialPhopsFloor;
      serial_cfg.reps = 3;
      const Row serial = run_case(bf, "B1024", "uniform:ppn=16:seed=42",
                                  cutres.sides, cutres.capacity, serial_cfg);
      if (cpus >= 4) {
        CaseConfig par_cfg;
        par_cfg.threads = 4;
        par_cfg.reps = 3;
        const Row par = run_case(bf, "B1024", "uniform:ppn=16:seed=42",
                                 cutres.sides, cutres.capacity, par_cfg);
        if (par.makespan != serial.makespan ||
            par.max_queue != serial.max_queue) {
          std::fprintf(stderr,
                       "GATE B1024 t=4: parallel stats differ from serial "
                       "(makespan %u vs %u) — determinism bug\n",
                       par.makespan, serial.makespan);
          ++g_failures;
        }
        const double speedup =
            par.seconds > 0.0 ? serial.seconds / par.seconds : 0.0;
        std::printf("B1024 4-thread speedup: %.2fx (floor %.2fx)\n", speedup,
                    kSpeedupFloor);
        if (perf_gated() && speedup < kSpeedupFloor) {
          std::fprintf(stderr,
                       "GATE B1024 t=4: speedup %.2fx below the %.2fx "
                       "floor\n",
                       speedup, kSpeedupFloor);
          ++g_failures;
        }
      } else {
        std::printf("B1024 4-thread speedup: skipped (%u CPUs)\n", cpus);
      }
    }
  }

  // --- adversarial cut-saturating traffic on B64 ---
  {
    const topo::Butterfly bf(64);
    const auto cutres = cut::column_split_bisection(bf);
    CaseConfig cfg;
    const Row& r = run_case(bf, "B64", "cutsat:ppn=32:seed=7", cutres.sides,
                            cutres.capacity, cfg);
    // The acceptance gate: within 2x of the certified bound. (Against
    // the directional cut bound alone the oblivious routes sit at ~2.3x
    // — every A->B packet from a column funnels through one cut edge,
    // so congestion, not raw cut bandwidth, is the binding certificate;
    // both figures ship in the row.)
    if (static_cast<double>(r.makespan) > kCutsatSlack * r.lower_bound) {
      std::fprintf(stderr,
                   "GATE B64 cutsat: makespan %u exceeds %.1fx the certified "
                   "bound %.2f\n",
                   r.makespan, kCutsatSlack, r.lower_bound);
      ++g_failures;
    }
    // A witness straight from a solver instead of the constructive cut:
    // same plumbing, FM's bisection shape decides the crossings.
    cut::FiducciaMattheysesOptions fm;
    fm.seed = 1;
    fm.restarts = 2;
    const auto fmcut = cut::min_bisection_fiduccia_mattheyses(bf.graph(), fm);
    run_case(bf, "B64+fmcut", "cutsat:ppn=16:seed=7", fmcut.sides,
             fmcut.capacity, cfg);
  }

  // --- permutation, hotspot, and virtual-channel scenarios ---
  {
    const topo::Butterfly bf(256);
    const auto cutres = cut::column_split_bisection(bf);
    CaseConfig cfg;
    run_case(bf, "B256", "bitrev:ppn=8", cutres.sides, cutres.capacity, cfg);
  }
  {
    const topo::Butterfly bf(64);
    const auto cutres = cut::column_split_bisection(bf);
    CaseConfig cfg;
    run_case(bf, "B64", "hotspot:ppn=8:seed=11:hot=30", cutres.sides,
             cutres.capacity, cfg);
    // Bounded virtual channels: three stage-weighted channels with
    // per-queue capacity 4 — deadlock-free by construction, and the
    // backpressure cost is visible next to the unbounded row above.
    CaseConfig vc_cfg;
    vc_cfg.vcs = 3;
    vc_cfg.capacity = 4;
    run_case(bf, "B64+vc3cap4", "uniform:ppn=16:seed=42", cutres.sides,
             cutres.capacity, vc_cfg);
  }

  write_json(out, smoke, cpus);
  if (g_failures != 0) {
    std::fprintf(stderr, "%d routing-sim gate failures\n", g_failures);
    return 1;
  }
  return 0;
}
