// Shared self-check for the per-topology automorphism generator
// factories: under checked builds every exported generator is verified
// against the graph's edge multiset before it leaves the factory, so a
// wrong symmetry formula fails loudly at construction instead of
// silently corrupting the orbit-sharded expansion sweep or the service's
// canonical cache keys.
#pragma once

#include <vector>

#include "algo/automorphism.hpp"
#include "core/error.hpp"
#include "core/graph.hpp"

namespace bfly::topo {

inline std::vector<algo::Perm> verified_generators(
    const Graph& g, std::vector<algo::Perm> gens) {
  if (checked_build()) {
    for (const algo::Perm& gen : gens) {
      BFLY_CHECK(algo::is_automorphism(g, gen),
                 "exported generator is not an automorphism");
    }
  }
  return gens;
}

}  // namespace bfly::topo
