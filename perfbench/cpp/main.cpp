// perfbench: the repository's end-to-end benchmark program.
//
//   perfbench --workload <exact|partition|routing|service> --seed <n>
//             --seconds <s> --trace <0|1> [--workdir <dir>]
//             [--trace-out <file>] [--git-sha <sha>]
//
// Builds the workload's inputs from the seed, runs one untimed warm-up
// pass, then runs rounds until --seconds have elapsed: each round re-times
// set-up on a fixed list of seeds and runs one checked pass. The last
// stdout line is one JSON object: {"correct", "attempted", "failed",
// "metrics"}, the metrics as {name: value}; perfbench/run.py gives them
// their units from BENCHMARK.json. With --trace 0 the metrics are the
// end-to-end ones; with --trace 1 they are the per-layer ones the workload
// reaches, passes alternate between traced and untraced so the tracing
// overhead is measured, and the spans are written as Chrome trace-event
// JSON. Any failed check makes the exit code nonzero. See
// perfbench/README.md.
#include <sched.h>
#include <sys/resource.h>

#include <charconv>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "common.hpp"
#include "core/error.hpp"
#include "core/simd.hpp"
#include "trace.hpp"

namespace {

using namespace perfbench;

// Other tenants of the host only ever slow a pass, in phases lasting
// seconds, so a low quantile of the pass times moves far less from run to
// run than their median (perfbench/README.md, "Measured spread").
constexpr double kPassQuantile = 0.1;

// Before each pass, set-up is re-timed on a second instance until it has
// taken kSetupShare of the time the passes took so far, at most
// kSetupMaxPerRound times. Spread over the whole run, its samples meet the
// same host phases as the passes. The re-timed set-ups take their seeds
// from one fixed list, the same in every run: a rejection-sampled random
// graph costs several times more on some seeds than on others, and the
// median over a run's few dozen seeds of its own moved by a third between
// runs. The passes still run on the workload seed's inputs.
constexpr double kSetupShare = 0.05;
constexpr std::size_t kSetupMaxPerRound = 100;
constexpr std::uint64_t kSetupSeeds = 0x5e7u;

std::unique_ptr<Workload> make_workload(const RunConfig& cfg, Checks& checks) {
  if (cfg.workload == "exact") return make_exact(cfg, checks);
  if (cfg.workload == "partition") return make_partition(cfg, checks);
  if (cfg.workload == "routing") return make_routing(cfg, checks);
  if (cfg.workload == "service") return make_service(cfg, checks);
  return nullptr;
}

// The CPUs this process may run on, as nproc counts them.
unsigned available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string json_number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

void print_result(const Checks& checks, const LayerValues& metrics) {
  std::string out = "{\"correct\": ";
  out += checks.failed() == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(checks.attempted());
  out += ", \"failed\": " + std::to_string(checks.failed());
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": " + json_number(value);
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void print_layer_table() {
  std::printf("# per-layer self time (traced passes, set-up and extras)\n");
  std::printf("# %-34s %10s %12s %12s\n", "span", "count", "self_s",
              "total_s");
  for (const trace::LayerTotal& t : trace::totals()) {
    std::printf("# %-34s %10llu %12.6f %12.6f\n", t.name.c_str(),
                static_cast<unsigned long long>(t.count), t.self_s,
                t.total_s);
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <exact|partition|routing|service> "
               "--seed <n> --seconds <s> --trace <0|1> [--workdir <dir>] "
               "[--trace-out <file>] [--git-sha <sha>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  cfg.workdir = ".";
  std::filesystem::path trace_out;
  std::string git_sha = "unknown";
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      const std::string val = argv[i + 1];
      if (key == "--workload") {
        cfg.workload = val;
      } else if (key == "--seed") {
        cfg.seed = std::stoull(val);
      } else if (key == "--seconds") {
        cfg.seconds = std::stod(val);
      } else if (key == "--trace") {
        cfg.trace = val == "1";
      } else if (key == "--workdir") {
        cfg.workdir = val;
      } else if (key == "--trace-out") {
        trace_out = val;
      } else if (key == "--git-sha") {
        git_sha = val;
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (argc % 2 == 0 || cfg.seconds <= 0.0) return usage();

  // Wall-clock numbers from an instrumented build would mislead.
  if (bfly::checked_build() || bfly::sanitized_build()) {
    std::fprintf(stderr,
                 "perfbench: refusing to report wall-clock numbers from a "
                 "checked or sanitized build\n");
    return 3;
  }

  cfg.threads = available_cpus();
  Checks checks;
  std::unique_ptr<Workload> wl = make_workload(cfg, checks);
  std::unique_ptr<Workload> setup_probe = make_workload(cfg, checks);
  if (!wl) return usage();

  std::printf(
      "# host: nproc=%u cpu=\"%s\" simd=%s/%s build=%s compiler=\"%s\" "
      "git=%s\n",
      cfg.threads, cpu_model().c_str(),
      bfly::simd::to_string(bfly::simd::detected_level()),
      bfly::simd::to_string(bfly::simd::active_level()),
      PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, git_sha.c_str());
  std::printf("# run: workload=%s seed=%llu seconds=%g trace=%d\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0);

  LayerValues metrics;
  try {
    trace::set_enabled(cfg.trace);
    std::vector<double> setups, topology_builds;
    double setup_total = 0.0;
    const auto timed_setup = [&](Workload& w, std::uint64_t seed) {
      const trace::Span span("setup", trace::next_op());
      const auto t0 = Clock::now();
      w.setup(seed);
      setups.push_back(seconds_since(t0));
      setup_total += setups.back();
      topology_builds.push_back(w.topology_build_s());
    };
    timed_setup(*wl, cfg.seed);
    wl->prepare();
    double pass_total = 0.0;
    {
      const trace::Span span("warmup", trace::next_op());
      const auto t0 = Clock::now();
      wl->pass();
      pass_total = seconds_since(t0);
    }
    wl->samples().clear();

    // Timed rounds. Another round starts only while its pass is expected
    // to end within half a pass of --seconds, so long passes do not overrun
    // the run. A traced run alternates traced and untraced passes; the
    // ratio of their medians is the tracing overhead.
    std::vector<double> walls, rates, traced_walls, plain_walls;
    std::uint64_t ops = 0;
    std::uint64_t setup_stream = 0;
    const auto start = Clock::now();
    for (std::size_t i = 0;
         walls.empty() ||
         seconds_since(start) + median(walls) / 2 < cfg.seconds;
         ++i) {
      trace::set_enabled(cfg.trace);
      for (std::size_t k = 0;
           k < kSetupMaxPerRound && setup_total < kSetupShare * pass_total;
           ++k) {
        timed_setup(*setup_probe, derive_seed(kSetupSeeds, setup_stream++));
      }
      const bool traced = cfg.trace && i % 2 == 0;
      trace::set_enabled(traced);
      const auto t0 = Clock::now();
      std::uint64_t pass_ops = 0;
      {
        const trace::Span span("pass", trace::next_op());
        pass_ops = wl->pass();
      }
      const double wall = seconds_since(t0);
      ops += pass_ops;
      pass_total += wall;
      walls.push_back(wall);
      rates.push_back(static_cast<double>(pass_ops) / wall);
      (traced ? traced_walls : plain_walls).push_back(wall);
    }
    trace::set_enabled(cfg.trace);

    std::printf("# setups=%zu passes=%zu ops=%llu pass_median_s=%.6f "
                "pass_p%.0f_s=%.6f fail_ratio=%.6f\n",
                setups.size(), walls.size(),
                static_cast<unsigned long long>(ops), median(walls),
                kPassQuantile * 100.0, quantile(walls, kPassQuantile),
                checks.attempted() == 0
                    ? 0.0
                    : static_cast<double>(checks.failed()) /
                          static_cast<double>(checks.attempted()));
    if (!cfg.trace) {
      metrics["setup_s"] = median(setups);
      metrics["solve_s"] = quantile(walls, kPassQuantile);
      metrics["qps"] = quantile(rates, 1.0 - kPassQuantile);
      metrics["capacity_ratio"] = wl->capacity_ratio();
      metrics["peak_rss_mb"] = peak_rss_mb();
    } else {
      wl->traced_extras();
      metrics = wl->per_layer();
      metrics["topology.build_s"] = median(topology_builds);
      const double overhead =
          plain_walls.empty()
              ? 0.0
              : median(traced_walls) / median(plain_walls) - 1.0;
      metrics["trace.overhead"] = overhead;
      print_layer_table();
      std::printf(
          "# tracing overhead: median traced pass %.6f s vs untraced %.6f s "
          "(%+.2f%%, %zu/%zu passes); %llu spans, %llu not kept\n",
          median(traced_walls), median(plain_walls), overhead * 100.0,
          traced_walls.size(), plain_walls.size(),
          static_cast<unsigned long long>(trace::spans_closed()),
          static_cast<unsigned long long>(trace::events_dropped()));
      if (!trace_out.empty()) {
        if (trace::write_chrome_json(trace_out)) {
          std::printf("# trace written to %s\n", trace_out.c_str());
        } else {
          std::fprintf(stderr, "perfbench: cannot write %s\n",
                       trace_out.c_str());
          return 4;
        }
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 4;
  }

  print_result(checks, metrics);
  return checks.failed() == 0 ? 0 : 1;
}
