#include "algo/automorphism.hpp"

#include <algorithm>
#include <bit>
#include <set>
#include <utility>

#include "core/error.hpp"

namespace bfly::algo {

Perm identity_perm(NodeId n) {
  Perm p(n);
  for (NodeId v = 0; v < n; ++v) p[v] = v;
  return p;
}

bool is_permutation(const Perm& p) {
  std::vector<std::uint8_t> hit(p.size(), 0);
  for (const NodeId v : p) {
    if (v >= p.size() || hit[v]) return false;
    hit[v] = 1;
  }
  return true;
}

Perm compose(const Perm& a, const Perm& b) {
  BFLY_CHECK(a.size() == b.size(), "composing permutations of mixed degree");
  const NodeId n = static_cast<NodeId>(a.size());
  Perm c(n);
  for (NodeId v = 0; v < n; ++v) c[v] = a[b[v]];
  return c;
}

Perm inverse(const Perm& p) {
  const NodeId n = static_cast<NodeId>(p.size());
  Perm q(n);
  for (NodeId v = 0; v < n; ++v) q[p[v]] = v;
  return q;
}

bool is_automorphism(const Graph& g, const Perm& p) {
  if (p.size() != g.num_nodes() || !is_permutation(p)) return false;
  // Compare edge MULTISETS, so parallel edges (W4, CCC4, ...) are
  // checked with multiplicity instead of collapsing.
  using E = std::pair<NodeId, NodeId>;
  std::vector<E> original, mapped;
  original.reserve(g.num_edges());
  mapped.reserve(g.num_edges());
  for (const auto& [u, v] : g.edges()) {
    original.emplace_back(std::min(u, v), std::max(u, v));
    const NodeId pu = p[u], pv = p[v];
    mapped.emplace_back(std::min(pu, pv), std::max(pu, pv));
  }
  std::sort(original.begin(), original.end());
  std::sort(mapped.begin(), mapped.end());
  return original == mapped;
}

std::uint64_t apply_to_mask(const Perm& p, std::uint64_t mask) {
  BFLY_ASSERT(p.size() <= 64);
  std::uint64_t out = 0;
  while (mask != 0) {
    const unsigned v = static_cast<unsigned>(std::countr_zero(mask));
    mask &= mask - 1;
    out |= std::uint64_t{1} << p[v];
  }
  return out;
}

PermutationGroup::PermutationGroup(NodeId n, std::vector<Perm> generators)
    : n_(n), gens_(std::move(generators)) {
  for (const Perm& gen : gens_) {
    BFLY_CHECK(gen.size() == n_, "generator degree mismatch");
    BFLY_CHECK(is_permutation(gen), "generator is not a permutation");
  }
}

std::vector<NodeId> PermutationGroup::orbit(NodeId v) const {
  BFLY_CHECK(v < n_, "orbit point out of range");
  std::vector<std::uint8_t> seen(n_, 0);
  std::vector<NodeId> frontier{v}, out{v};
  seen[v] = 1;
  while (!frontier.empty()) {
    const NodeId u = frontier.back();
    frontier.pop_back();
    for (const Perm& gen : gens_) {
      const NodeId w = gen[u];
      if (!seen[w]) {
        seen[w] = 1;
        out.push_back(w);
        frontier.push_back(w);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::vector<NodeId>> PermutationGroup::vertex_orbits() const {
  std::vector<std::uint8_t> done(n_, 0);
  std::vector<std::vector<NodeId>> orbits;
  for (NodeId v = 0; v < n_; ++v) {
    if (done[v]) continue;
    auto orb = orbit(v);
    for (const NodeId u : orb) done[u] = 1;
    orbits.push_back(std::move(orb));
  }
  return orbits;
}

const std::vector<Perm>* PermutationGroup::elements(
    std::size_t max_elements) const {
  if (!elements_.empty()) {
    return elements_.size() <= max_elements ? &elements_ : nullptr;
  }
  if (too_large_) return nullptr;
  // Breadth-first closure: seed with the identity, multiply by every
  // generator until no new element appears (or the cap blows).
  std::set<Perm> seen;
  std::vector<Perm> frontier{identity_perm(n_)};
  seen.insert(frontier.front());
  while (!frontier.empty()) {
    const Perm cur = std::move(frontier.back());
    frontier.pop_back();
    for (const Perm& gen : gens_) {
      Perm next = compose(gen, cur);
      if (seen.size() >= max_elements && !seen.contains(next)) {
        too_large_ = true;
        return nullptr;
      }
      if (seen.insert(next).second) frontier.push_back(std::move(next));
    }
  }
  elements_.assign(seen.begin(), seen.end());
  return &elements_;
}

std::size_t PermutationGroup::order(std::size_t max_elements) const {
  const std::vector<Perm>* elems = elements(max_elements);
  BFLY_CHECK(elems != nullptr, "group order exceeds the enumeration cap");
  return elems->size();
}

}  // namespace bfly::algo
