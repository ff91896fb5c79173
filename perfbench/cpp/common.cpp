#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

bool Checks::expect(bool ok, const std::string& what) {
  if (!ok) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  return ok;
}

void Checks::record(bool op_ok) {
  const std::lock_guard<std::mutex> lock(mu_);
  ++attempted_;
  if (!op_ok) ++failed_;
}

std::uint64_t Checks::attempted() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return attempted_;
}

std::uint64_t Checks::failed() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return failed_;
}

LayerValues Samples::medians() const {
  LayerValues out;
  for (const auto& [name, v] : values_) out[name] = perfbench::median(v);
  return out;
}

std::vector<double> Samples::values(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? std::vector<double>{} : it->second;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double tail_quantile_level(std::size_t n) {
  if (n >= 1000) return 0.99;
  if (n <= 20) return 0.5;
  return 1.0 - 10.0 / static_cast<double>(n);
}

std::vector<bfly::NodeId> side_zero(const std::vector<std::uint8_t>& sides) {
  std::vector<bfly::NodeId> set;
  for (std::size_t v = 0; v < sides.size(); ++v) {
    if (sides[v] == 0) set.push_back(static_cast<bfly::NodeId>(v));
  }
  return set;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace perfbench
