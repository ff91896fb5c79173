// Permutation groups acting on graph vertices (the symmetry subsystem,
// DESIGN.md §10).
//
// Every butterfly-family network has a large, explicitly known
// automorphism group — column rotations/XORs of Wn and CCCn, the
// (c0, flips) translations and level reversal of Bn, bit permutations
// of Qd, row/column permutations of MOS — and two consumers exploit it:
// the sharded expansion sweep enumerates only orbit representatives of
// its shard prefixes, and the query service folds symmetric BOUNDARY
// masks into one canonical cache key. This module is the
// group-theory substrate: permutation arithmetic, automorphism
// verification, Schreier-style orbit computation on vertices, and
// bounded enumeration of the full element closure, from which every
// consumer canonicalizes (<= 64-node) subsets as the least image.
//
// A permutation is stored one-line: p[v] is the image of v. Topology
// classes export generator sets (automorphism_generators()); the
// PermutationGroup never needs the graph itself, only its degree.
#pragma once

#include <cstdint>
#include <vector>

#include "core/graph.hpp"
#include "core/types.hpp"

namespace bfly::algo {

/// One-line permutation: p[v] = image of v.
using Perm = std::vector<NodeId>;

/// The identity on n points.
[[nodiscard]] Perm identity_perm(NodeId n);

/// True iff p is a bijection of [0, p.size()).
[[nodiscard]] bool is_permutation(const Perm& p);

/// (a then b)? No: returns a∘b, i.e. (a∘b)[v] = a[b[v]] — apply b first.
[[nodiscard]] Perm compose(const Perm& a, const Perm& b);

[[nodiscard]] Perm inverse(const Perm& p);

/// True iff p maps the edge multiset of g onto itself. Multigraph-safe:
/// parallel edges are compared with multiplicity, so the check is exact
/// for every graph this library builds (W4/CCC4 included).
[[nodiscard]] bool is_automorphism(const Graph& g, const Perm& p);

/// Applies p to a <= 64-node subset mask: bit v of mask becomes bit
/// p[v] of the result.
[[nodiscard]] std::uint64_t apply_to_mask(const Perm& p, std::uint64_t mask);

/// A finitely generated permutation group on [0, degree). Orbit queries
/// walk the generator closure (Schreier-style breadth-first chase, no
/// element enumeration needed); canonicalization consumers ask for the
/// full element list, which is enumerated once, capped, and cached.
class PermutationGroup {
 public:
  /// Elements beyond this cap mean the group is too large for
  /// element-list canonicalization; orbit queries still work.
  static constexpr std::size_t kDefaultMaxElements = 4096;

  PermutationGroup() = default;

  /// Every generator must be a permutation of [0, n). Checked builds
  /// validate; an empty generator list yields the trivial group.
  PermutationGroup(NodeId n, std::vector<Perm> generators);

  [[nodiscard]] NodeId degree() const noexcept { return n_; }
  [[nodiscard]] const std::vector<Perm>& generators() const noexcept {
    return gens_;
  }

  /// Orbit of vertex v under the group (sorted ascending).
  [[nodiscard]] std::vector<NodeId> orbit(NodeId v) const;

  /// Partition of [0, degree) into orbits, each sorted, ordered by
  /// smallest member.
  [[nodiscard]] std::vector<std::vector<NodeId>> vertex_orbits() const;

  /// The full element list (identity included), enumerated by closure
  /// over the generators and cached. Returns nullptr — without caching
  /// a partial list — when the group has more than max_elements
  /// elements, so callers can degrade to symmetry-off instead of
  /// enumerating a huge group.
  [[nodiscard]] const std::vector<Perm>* elements(
      std::size_t max_elements = kDefaultMaxElements) const;

  /// |G|. Throws PreconditionError when the group exceeds max_elements.
  [[nodiscard]] std::size_t order(
      std::size_t max_elements = kDefaultMaxElements) const;

 private:
  NodeId n_ = 0;
  std::vector<Perm> gens_;
  // Lazily built element closure; empty until the first elements()
  // call that fits the cap. too_large_ remembers a failed enumeration
  // so repeated calls do not redo the blown-up closure.
  mutable std::vector<Perm> elements_;
  mutable bool too_large_ = false;
};

}  // namespace bfly::algo
