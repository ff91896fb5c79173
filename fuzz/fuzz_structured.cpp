// Structured fuzzer: decodes the input bytes into a (topology, solver,
// seed) triple, runs the chosen bisection solver with a tiny budget, and
// checks the library's cross-solver contracts:
//
//   * every solver's result passes validate_cut with the bisection
//     constraint enforced;
//   * branch-and-bound (seeded with the heuristic's capacity as an
//     initial bound) proves an exact optimum that is never beaten by any
//     heuristic — if a heuristic ever reports a capacity below the
//     proven optimum, one of the two solvers miscounted a cut.
//
// The instances are small enough (4–32 nodes) that the exact solver is
// cheap, so each fuzz input exercises the full decode → solve → verify
// pipeline in well under a millisecond.
#include <cstdint>
#include <cstdlib>
#include <map>
#include <utility>

#include "core/error.hpp"
#include "core/graph.hpp"
#include "core/simd.hpp"
#include "cut/bisection.hpp"
#include "cut/branch_bound.hpp"
#include "cut/fiduccia_mattheyses.hpp"
#include "cut/multilevel.hpp"
#include "cut/simulated_annealing.hpp"
#include "topology/butterfly.hpp"
#include "topology/ccc.hpp"
#include "topology/hypercube.hpp"
#include "topology/wrapped_butterfly.hpp"

namespace {

using bfly::Graph;
using bfly::cut::CutResult;

/// Builds the decoded topology. All variants have an even node count, so
/// a perfect bisection always exists.
Graph build_topology(std::uint8_t family, std::uint8_t size_sel) {
  switch (family % 4u) {
    case 0:  // B_2, B_4, B_8: 4, 12, 32 nodes
      return bfly::topo::Butterfly(2u << (size_sel % 3u)).graph();
    case 1:  // wrapped B_4, B_8: 8, 24 nodes
      return bfly::topo::WrappedButterfly(4u << (size_sel % 2u)).graph();
    case 2:  // CCC_2, CCC_3: 8, 24 nodes
      return bfly::topo::CubeConnectedCycles(4u << (size_sel % 2u)).graph();
    default:  // Q_1..Q_4: 2..16 nodes
      return bfly::topo::Hypercube(1u + (size_sel % 4u)).graph();
  }
}

CutResult run_solver(const Graph& g, std::uint8_t which, std::uint64_t seed) {
  switch (which % 3u) {
    case 0: {
      bfly::cut::FiducciaMattheysesOptions o;
      o.restarts = 2;
      o.max_passes = 4;
      o.seed = seed;
      return bfly::cut::min_bisection_fiduccia_mattheyses(g, o);
    }
    case 1: {
      bfly::cut::SimulatedAnnealingOptions o;
      o.restarts = 1;
      o.steps_per_temperature = 16;
      o.cooling = 0.7;
      o.seed = seed;
      return bfly::cut::min_bisection_simulated_annealing(g, o);
    }
    default: {
      bfly::cut::MultilevelOptions o;
      o.coarsen_to = 8;
      o.initial_tries = 4;
      o.refine_passes = 4;
      o.cycles = 1;
      o.seed = seed;
      return bfly::cut::min_bisection_multilevel(g, o);
    }
  }
}

/// Exact bisection widths, memoized per decoded instance: the topology is
/// a pure function of (family, size_sel), so the branch-and-bound price
/// is paid once per shape across the whole fuzz run.
std::size_t exact_capacity(std::uint8_t family, std::uint8_t size_sel,
                           const Graph& g, std::size_t heuristic_cap) {
  static std::map<std::pair<unsigned, unsigned>, std::size_t> cache;
  const std::pair<unsigned, unsigned> key{family % 4u,
                                          static_cast<unsigned>(size_sel)};
  const auto it = cache.find(key);
  if (it != cache.end()) return it->second;
  bfly::cut::BranchBoundOptions o;
  o.initial_bound = heuristic_cap + 1;  // exclusive bound; keeps it cheap
  const CutResult exact = bfly::cut::min_bisection_branch_bound(g, o);
  if (exact.exactness != bfly::cut::Exactness::kExact) std::abort();
  bfly::cut::validate_cut(g, exact, /*require_bisection=*/true);
  cache.emplace(key, exact.capacity);
  return exact.capacity;
}

/// SIMD kernel differential on fuzz-shaped inputs: the AVX2 level, when
/// this machine supports it, must agree with the scalar reference bit
/// for bit on the branching scan and the bound histogram — the two
/// kernels, each with internal tier gates (packed vs wide keys,
/// field-accumulator vs movemask vs sparse-delegation) that byte-driven
/// sizes and densities are good at straddling.
void check_simd_differential(std::uint64_t seed, std::uint8_t shape) {
  const std::size_t nbits = 1u + (static_cast<std::size_t>(shape) * 7u) % 300u;
  // One value bound per histogram tier: field accumulator (<= 4),
  // movemask (5..16), scalar fallback / wide select keys (> 1023).
  const std::uint32_t kBounds[] = {4u, 13u, 1500u};
  const std::uint32_t max_value = kBounds[shape % 3u];
  const std::size_t words = (nbits + 63) / 64;
  std::vector<std::uint64_t> mask(words, 0);
  std::vector<std::uint32_t> a0(nbits), a1(nbits), deg(nbits);
  std::uint64_t x = seed | 1u;  // splitmix64 stream from the fuzz seed
  const auto next = [&x] {
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  };
  for (std::size_t i = 0; i < nbits; ++i) {
    if ((next() & 3u) != 0) mask[i / 64] |= std::uint64_t{1} << (i % 64);
    a0[i] = static_cast<std::uint32_t>(next() % (max_value + 1));
    a1[i] = static_cast<std::uint32_t>(next() % (max_value + 1));
    deg[i] = static_cast<std::uint32_t>(next() % (max_value + 1));
  }
  using bfly::simd::DispatchLevel;
  const auto& ref = bfly::simd::kernels_for(DispatchLevel::kScalar);
  const std::size_t want_sel =
      ref.select_max_key(mask.data(), nbits, a0.data(), a1.data(), deg.data(),
                         max_value);
  std::vector<std::uint32_t> wp(2, 0), wb0(max_value + 1, 0),
      wb1(max_value + 1, 0);
  ref.diff_histogram(mask.data(), nbits, a0.data(), a1.data(), max_value,
                     wp.data(), wb0.data(), wb1.data());
  if (bfly::simd::detected_level() < DispatchLevel::kAvx2) return;
  const auto& kt = bfly::simd::kernels_for(DispatchLevel::kAvx2);
  if (kt.select_max_key(mask.data(), nbits, a0.data(), a1.data(), deg.data(),
                        max_value) != want_sel) {
    std::abort();
  }
  std::vector<std::uint32_t> gp(2, 0), gb0(max_value + 1, 0),
      gb1(max_value + 1, 0);
  kt.diff_histogram(mask.data(), nbits, a0.data(), a1.data(), max_value,
                    gp.data(), gb0.data(), gb1.data());
  if (gp != wp || gb0 != wb0 || gb1 != wb1) std::abort();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size < 3) return 0;
  const std::uint8_t family = data[0];
  const std::uint8_t size_sel = data[1];
  const std::uint8_t which = data[2];
  std::uint64_t seed = 0;
  for (std::size_t i = 3; i < size && i < 11; ++i) {
    seed = (seed << 8) | data[i];
  }

  const Graph g = build_topology(family, size_sel);
  const CutResult heuristic = run_solver(g, which, seed);

  // Contract 1: whatever the heuristic returns is a genuine bisection
  // whose reported capacity matches a recount.
  bfly::cut::validate_cut(g, heuristic, /*require_bisection=*/true);

  // Contract 2: no heuristic beats the proven optimum. The exact solver
  // is seeded with the heuristic's capacity, so if the heuristic's count
  // were optimistic (too low), branch-and-bound would fail to reproduce
  // it and the cached optimum would exceed it — caught right here.
  const std::size_t opt = exact_capacity(family, size_sel, g,
                                         heuristic.capacity);
  if (heuristic.capacity < opt) std::abort();

  // Contract 3: the dispatched SIMD kernels are level-invariant on this
  // input's derived masks and counters.
  check_simd_differential(seed, static_cast<std::uint8_t>(family ^ size_sel ^
                                                          which));
  return 0;
}
