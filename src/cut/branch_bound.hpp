// Exact minimum bisection by branch and bound.
//
// Nodes are assigned in BFS order (so the cut materializes early); the
// bound is current capacity plus, for every unassigned node, the smaller
// of its assigned-neighbor counts on each side — a valid additive lower
// bound because those edges are attributed to their unique unassigned
// endpoint. Supports the plain bisection constraint and the paper's
// U-bisection constraint (Section 2.1).
//
// Two kernels implement the same search:
//
//   * the byte-array scalar kernel — the original reference walker,
//     retained for differential testing and as the fallback for
//     multigraphs (parallel edges collapse in a packed adjacency);
//   * the word-level bitset kernel — side masks and the unassigned set
//     are Bitset64 words over the graph's cached packed adjacency, the
//     per-neighbor updates run over adj[v] & unassigned in one fused
//     word sweep, and an assignment-count lower bound on the unassigned
//     remainder (how many nodes MUST land on their worse side once a
//     side fills up) prunes on top of the classic sum-of-min bound.
//     When both sides' remaining room forces the rest of the graph onto
//     one side, the subtree is closed in O(remaining) instead of
//     descending further.
//
// The bitset kernel can also run in parallel: every feasible assignment
// of the first seed_depth BFS-order nodes becomes a subproblem seed,
// dispatched over the work-stealing shard scheduler (core/sharding.hpp,
// one deque per worker); workers share one incumbent (the
// portfolio's SharedIncumbent machinery), so any improvement found by
// one worker immediately tightens every other worker's pruning bound.
// The proven optimal capacity is identical for any thread count; only
// the witness cut may differ between capacity ties (same contract as
// the portfolio, DESIGN.md §5). Practical to ~64 nodes on the
// butterfly-family instances.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/graph.hpp"
#include "core/thread_pool.hpp"
#include "cut/bisection.hpp"

namespace bfly::cut {

/// A consistent snapshot of the seed-prefix driver's search state, the
/// unit of checkpoint/resume (robust/checkpoint.{hpp,cpp} serializes it
/// to disk). The search tree is partitioned into the subtrees under
/// every feasible assignment of the first seed_depth BFS-order nodes;
/// prefix_done records which subtrees have been fully searched, and the
/// incumbent plus the pooled node count carry everything else a resumed
/// run needs to prove the identical optimum with the identical bound.
struct BranchBoundSearchState {
  /// BFS-prefix depth the seed prefixes were enumerated at. A resumed
  /// run re-enumerates at exactly this depth, so prefix indices match.
  unsigned seed_depth = 0;
  /// One flag per seed prefix, in enumeration order: 1 = subtree fully
  /// searched (never set for subtrees cut short by cancellation).
  std::vector<std::uint8_t> prefix_done;
  /// Best bisection found so far (SIZE_MAX / empty when none yet).
  std::size_t incumbent_capacity = static_cast<std::size_t>(-1);
  std::vector<std::uint8_t> incumbent_sides;
  /// Pooled search-tree nodes spent so far; restored so node budgets
  /// and nodes_visited telemetry span interruptions.
  std::uint64_t nodes_spent = 0;
};

/// Which branch-and-bound search kernel to run.
enum class BranchBoundKernel {
  kAuto,    ///< bitset when the graph is simple, scalar otherwise
  kScalar,  ///< byte-array reference kernel (always applicable)
  kBitset,  ///< word-level kernel; rejects graphs with parallel edges
};

struct BranchBoundOptions {
  /// Optional incumbent capacity (exclusive upper bound on the search);
  /// supply a heuristic solution's capacity to speed things up. The solver
  /// still proves optimality.
  std::size_t initial_bound = static_cast<std::size_t>(-1);
  /// Abort after this many search-tree nodes (0 = unlimited). When hit,
  /// the result's exactness degrades to kHeuristic. Under the parallel
  /// kernel the limit applies to the workers' pooled node count and is
  /// enforced at the cancellation-poll cadence, so the abort lands
  /// within a few thousand nodes of the limit rather than exactly on it.
  std::uint64_t node_limit = 0;
  /// If nonempty, minimize over cuts bisecting this subset instead of over
  /// balanced bisections.
  std::span<const NodeId> bisect_subset;
  /// Live incumbent capacity from a concurrently running portfolio: a
  /// bisection of this capacity already exists elsewhere, so the search
  /// prunes everything >= it and only reports strictly better solutions.
  /// When the search completes without finding one, the result's capacity
  /// stays SIZE_MAX with exactness kExact — a proof that the published
  /// incumbent is optimal. The pointed-to value may shrink while the
  /// search runs (each read must be a valid capacity of some bisection).
  const std::atomic<std::size_t>* live_bound = nullptr;
  /// Cooperative cancellation, polled every few thousand search nodes.
  /// When it fires mid-search the result degrades to kHeuristic, exactly
  /// like an exhausted node_limit.
  const CancelToken* cancel = nullptr;
  /// Kernel selection; kAuto picks the bitset kernel whenever the packed
  /// adjacency is faithful (no parallel edges).
  BranchBoundKernel kernel = BranchBoundKernel::kAuto;
  /// Worker threads for the bitset kernel (1 = serial, 0 =
  /// default_thread_count()). The scalar reference kernel always runs
  /// serially. Serial runs are fully deterministic including the witness;
  /// parallel runs prove the same capacity but may return a different
  /// optimal cut between ties.
  unsigned num_threads = 1;
  /// BFS-prefix depth used to enumerate parallel subproblem seeds
  /// (0 = auto: grow until there are several seeds per worker). Ignored
  /// by serial runs unless checkpointing forces the prefix driver.
  unsigned seed_depth = 0;
  /// Live progress cell for an external watchdog: the kernels store the
  /// pooled visited-node count here at their flush cadence, so a reader
  /// that sees the value stop moving has found a stalled search.
  std::atomic<std::uint64_t>* progress = nullptr;
  /// Resume a previous run from its checkpointed search state: restores
  /// the shared incumbent, skips completed seed prefixes, and continues
  /// the pooled node count. The graph, subset constraint, and kernel
  /// must match the run that produced the state (the serialized form in
  /// robust/checkpoint carries a graph fingerprint to enforce this).
  /// Bitset kernel only.
  const BranchBoundSearchState* resume = nullptr;
  /// Shard the seed-prefix work list for multi-process search: of the
  /// enumerated prefixes, this run searches only those with
  /// index % shard_count == shard_index (1 = unsharded, the default).
  /// A sharded run is partial BY CONSTRUCTION, so its result reports
  /// kHeuristic even when every shard subtree closed; the proof is
  /// reassembled out of process by merging the shards' checkpoints
  /// (robust::merge_snapshots) and resuming the merged state unsharded
  /// — with every prefix done, that resume returns kExact immediately.
  /// Forces the prefix driver; composes with resume. Bitset kernel only.
  std::size_t shard_count = 1;
  std::size_t shard_index = 0;
  /// Checkpoint sink: called with a consistent snapshot after every
  /// seed-prefix subtree completes (calls are serialized; under the
  /// parallel driver they arrive on worker threads). Setting this — or
  /// resume — forces the seed-prefix driver even for serial runs, so a
  /// serial checkpointed run and its resumed continuation replay the
  /// identical publish sequence. Bitset kernel only.
  std::function<void(const BranchBoundSearchState&)> on_checkpoint;
};

[[nodiscard]] CutResult min_bisection_branch_bound(
    const Graph& g, const BranchBoundOptions& opts = {});

}  // namespace bfly::cut
