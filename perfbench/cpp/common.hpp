// Shared vocabulary of the benchmark program: run configuration, answer
// checks, per-pass samples, metric reports and the workload interface.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/graph.hpp"
#include "core/types.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Runs f and adds its wall time in seconds to `acc`.
template <class F>
decltype(auto) timed(double& acc, F&& f) {
  const auto t0 = Clock::now();
  struct Add {
    double& acc;
    Clock::time_point t0;
    ~Add() { acc += seconds_since(t0); }
  } add{acc, t0};
  return f();
}

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  unsigned threads = 1;          ///< nproc: the most threads any call uses
  std::filesystem::path workdir;  ///< scratch space inside the checkout
};

/// Counts checked operations and failed ones; thread-safe. An operation
/// fails when any of its expectations fails; each failure is printed.
class Checks {
 public:
  /// Prints `what` when !ok and returns ok, so one operation can chain
  /// several expectations: `ok &= checks.expect(...)`.
  bool expect(bool ok, const std::string& what);
  void record(bool op_ok);
  [[nodiscard]] std::uint64_t attempted() const;
  [[nodiscard]] std::uint64_t failed() const;

 private:
  mutable std::mutex mu_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Per-layer metric values by name.
using LayerValues = std::map<std::string, double>;

/// Per-pass samples of named quantities; reported as their median.
class Samples {
 public:
  void add(const std::string& name, double value) {
    values_[name].push_back(value);
  }
  void add_all(const std::string& name, const std::vector<double>& values) {
    auto& v = values_[name];
    v.insert(v.end(), values.begin(), values.end());
  }
  void clear() { values_.clear(); }
  [[nodiscard]] std::vector<double> values(const std::string& name) const;
  /// The median of every sampled quantity, by name.
  [[nodiscard]] LayerValues medians() const;

 private:
  std::map<std::string, std::vector<double>> values_;
};

[[nodiscard]] double median(std::vector<double> v);
/// The q-quantile (0..1) by linear interpolation between order statistics.
[[nodiscard]] double quantile(std::vector<double> v, double q);
/// The highest percentile (at most p99) that has at least ten samples
/// beyond it: 0.99 for n >= 1000, 1 - 10/n below that.
[[nodiscard]] double tail_quantile_level(std::size_t n);

/// Node ids on side 0 of a side vector (a witness set for certification
/// and boundary recounts).
[[nodiscard]] std::vector<bfly::NodeId> side_zero(
    const std::vector<std::uint8_t>& sides);

/// splitmix64 step: derives independent sub-seeds from the workload seed.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t stream);

/// One workload: set-up builds every input from a seed, and each pass runs
/// the workload once, checks every answer, and records its per-layer
/// samples. The passes run on the inputs of the workload seed; set-up is
/// also timed on derived seeds, in a second instance, between the passes.
class Workload {
 public:
  explicit Workload(const RunConfig& cfg, Checks& checks)
      : cfg_(cfg), checks_(checks) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  virtual void setup(std::uint64_t seed) = 0;
  /// Untimed work on the inputs the passes use, once before the warm-up:
  /// the reference answers the checks compare against.
  virtual void prepare() {}
  /// Runs one pass; returns the number of user-level operations it did
  /// (solver calls, simulation runs, service requests).
  virtual std::uint64_t pass() = 0;
  /// Sum of found capacities over sum of fixed references, for the
  /// bisections this workload computes (its answer quality).
  [[nodiscard]] virtual double capacity_ratio() const = 0;
  /// Work done once after the timed passes of a traced run.
  virtual void traced_extras() {}
  /// This workload's per-layer metrics: by default the median of every
  /// per-pass sample, named as the metric it feeds.
  [[nodiscard]] virtual LayerValues per_layer() const {
    return samples_.medians();
  }

  /// Wall time of topology construction in the latest set-up.
  [[nodiscard]] double topology_build_s() const { return topology_build_s_; }
  Samples& samples() { return samples_; }

 protected:
  const RunConfig& cfg_;
  Checks& checks_;
  Samples samples_;
  double topology_build_s_ = 0.0;
};

std::unique_ptr<Workload> make_exact(const RunConfig&, Checks&);
std::unique_ptr<Workload> make_partition(const RunConfig&, Checks&);
std::unique_ptr<Workload> make_routing(const RunConfig&, Checks&);
std::unique_ptr<Workload> make_service(const RunConfig&, Checks&);

}  // namespace perfbench
