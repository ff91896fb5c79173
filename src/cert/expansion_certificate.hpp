// Flow-based certification of expansion claims (ROADMAP item 5).
//
// The exhaustive sweeps of src/expansion/ prove EE/NE exactly but stop
// near 26 nodes; beyond that the repo emits heuristic witnesses (FM,
// multilevel, spectral) whose values are unchecked. This header turns
// every such witness into a checkable claim via max-flow = min-cut:
//
//   * certify_edge_boundary: for a witness set S, the maximum flow from
//     a super-source wired to S into a super-sink wired to V \ S (edge
//     capacities = multiplicities, terminal arcs unbounded) admits
//     exactly one finite cut — the partition (S, V \ S) itself — so the
//     flow value EQUALS |∂S|. Agreement with the claimed value is an
//     independent, certified recount; disagreement rejects a corrupted
//     witness.
//   * certify_node_boundary: with S and B = V \ (S ∪ N(S)) made
//     uncuttable in the Hong–Kung node-split network, the max flow is
//     the Menger minimum S–B vertex separator. N(S) is such a
//     separator, so flow <= |N(S)| always, and flow == |N(S)| certifies
//     N(S) as a MINIMUM separator (the `tight` flag).
//   * expansion_class_bounds: certified lower bounds for a whole size
//     class at once — every nonempty proper S has |∂S| >= lambda(G) by
//     definition of edge connectivity, and every S with
//     S ∪ N(S) != V has |N(S)| >= kappa(G) (N(S) separates S from the
//     rest), else |N(S)| = n - |S|; hence NE(G, k) >= min(kappa, n - k).
//
// All certificates run on the reusable FlowNetwork (CSR Dinic), so
// they scale to B1024-sized instances.
#pragma once

#include <cstdint>
#include <span>

#include "core/graph.hpp"
#include "core/types.hpp"

namespace bfly::cert {

/// Certificate for a claimed edge-boundary value |∂S|.
struct EdgeBoundaryCertificate {
  std::int64_t claimed = 0;  ///< the value under certification
  std::int64_t flow = 0;     ///< max flow S -> V \ S; equals |∂S| exactly
  bool certified = false;    ///< flow == claimed
};

/// Certifies the claim |∂set| == claimed. `set` must be a nonempty
/// proper subset of the nodes (duplicates collapse).
[[nodiscard]] EdgeBoundaryCertificate certify_edge_boundary(
    const Graph& g, std::span<const NodeId> set, std::int64_t claimed);

/// Certificate for a claimed node-boundary value |N(S)|.
struct NodeBoundaryCertificate {
  std::int64_t claimed = 0;    ///< the value under certification
  std::int64_t recounted = 0;  ///< |N(S)| by direct recount
  std::int64_t flow = 0;       ///< Menger minimum S–B vertex separator
  bool certified = false;      ///< recounted == claimed (and flow <= it)
  /// flow == |N(S)|: the witness boundary is a MINIMUM S–B separator.
  /// Witnesses from exact sweeps are usually tight; a heuristic witness
  /// that is not tight is provably improvable. Degenerate case
  /// S ∪ N(S) = V (no B side): flow is set to the recount and the
  /// bound |N(S)| = n - |S| is attained, reported tight.
  bool tight = false;
};

/// Certifies the claim |N(set)| == claimed; see NodeBoundaryCertificate.
[[nodiscard]] NodeBoundaryCertificate certify_node_boundary(
    const Graph& g, std::span<const NodeId> set, std::int64_t claimed);

/// Certified class-wide expansion lower bounds: kappa = vertex
/// connectivity, lambda = edge connectivity (both exact, via Even's
/// flow algorithm / pivot flows on reused networks).
struct ExpansionClassBound {
  std::int64_t kappa = 0;
  std::int64_t lambda = 0;
};

[[nodiscard]] ExpansionClassBound expansion_class_bounds(const Graph& g);

/// NE(G, k) >= min(kappa, n - k) for every 1 <= k < n.
[[nodiscard]] std::int64_t node_expansion_class_bound(
    const ExpansionClassBound& bound, NodeId n, std::size_t k);

/// EE(G, k) >= lambda for every 1 <= k < n.
[[nodiscard]] std::int64_t edge_expansion_class_bound(
    const ExpansionClassBound& bound);

}  // namespace bfly::cert
