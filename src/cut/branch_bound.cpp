#include "cut/branch_bound.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <limits>
#include <utility>
#include <vector>

#include "core/bitset64.hpp"
#include "core/error.hpp"
#include "core/sharding.hpp"
#include "core/simd.hpp"
#include "core/sync.hpp"
#include "cut/incumbent.hpp"
#include "robust/fault_injection.hpp"

namespace bfly::cut {

namespace {

constexpr std::uint8_t kUnassigned = 2;
constexpr std::size_t kNoCapacity = std::numeric_limits<std::size_t>::max();

// BFS assignment order (per component) so the frontier — and hence the
// cut — grows early, tightening the bound. Both kernels share it, and
// the parallel driver enumerates its seed prefixes over the same order,
// so a worker's subtree is exactly the serial subtree under its prefix.
std::vector<NodeId> bfs_assignment_order(const Graph& g) {
  const NodeId n = g.num_nodes();
  std::vector<std::uint8_t> seen(n, 0);
  std::vector<NodeId> order;
  order.reserve(n);
  for (NodeId root = 0; root < n; ++root) {
    if (seen[root]) continue;
    seen[root] = 1;
    std::size_t head = order.size();
    order.push_back(root);
    while (head < order.size()) {
      const NodeId u = order[head++];
      for (const NodeId w : g.neighbors(u)) {
        if (!seen[w]) {
          seen[w] = 1;
          order.push_back(w);
        }
      }
    }
  }
  return order;
}

// Subset-bisection bookkeeping shared by both kernels.
struct SubsetState {
  std::vector<std::uint8_t> in_subset;
  bool subset_mode = false;
  std::size_t u_total = 0;
  std::size_t u_floor = 0, u_ceil = 0;
  std::size_t u1 = 0;          // subset nodes currently on side 1
  std::size_t u_assigned = 0;  // subset nodes assigned so far

  SubsetState(const Graph& g, const BranchBoundOptions& opts)
      : in_subset(g.num_nodes(), 0) {
    if (opts.bisect_subset.empty()) return;
    subset_mode = true;
    for (const NodeId v : opts.bisect_subset) {
      BFLY_CHECK(v < g.num_nodes(), "subset node out of range");
      in_subset[v] = 1;
    }
    u_total = opts.bisect_subset.size();
    u_floor = u_total / 2;
    u_ceil = (u_total + 1) / 2;
  }

  [[nodiscard]] bool feasible() const {
    if (!subset_mode) return true;
    const std::size_t remaining = u_total - u_assigned;
    // Final u1 must land in [u_floor, u_ceil].
    return u1 <= u_ceil && u1 + remaining >= u_floor;
  }
};

// ---------------------------------------------------------------------------
// Scalar reference kernel: the original byte-array walker. Retained
// verbatim as the differential-testing baseline and the multigraph path
// (it counts parallel edges with multiplicity through the CSR rows).
// ---------------------------------------------------------------------------

struct ScalarSearcher {
  const Graph& g;
  const BranchBoundOptions& opts;

  NodeId n;
  std::vector<NodeId> order;         // assignment order (BFS)
  std::vector<std::uint8_t> state;   // 0, 1, or kUnassigned
  std::vector<std::uint32_t> a[2];   // assigned-neighbor counts per side
  SubsetState sub;

  std::size_t cap_side;  // max nodes per side (bisection mode)
  std::size_t cnt[2] = {0, 0};
  std::size_t cur_cut = 0;
  std::size_t sum_min = 0;  // sum over unassigned v of min(a0, a1)

  std::size_t best_cap = kNoCapacity;
  std::vector<std::uint8_t> best_sides;
  bool have_best = false;

  std::uint64_t visited = 0;
  bool aborted = false;

  explicit ScalarSearcher(const Graph& graph, const BranchBoundOptions& o)
      : g(graph),
        opts(o),
        n(graph.num_nodes()),
        order(bfs_assignment_order(graph)),
        sub(graph, o) {
    state.assign(n, kUnassigned);
    a[0].assign(n, 0);
    a[1].assign(n, 0);
    cap_side = (static_cast<std::size_t>(n) + 1) / 2;
  }

  [[nodiscard]] std::size_t prune_threshold() const {
    std::size_t t;
    if (have_best) {
      t = best_cap;
    } else {
      t = opts.initial_bound == kNoCapacity ? kNoCapacity
                                            : opts.initial_bound + 1;
    }
    if (opts.live_bound != nullptr) {
      // A bisection of this capacity already exists elsewhere; only
      // strictly better solutions are worth visiting.
      t = std::min(t, opts.live_bound->load(std::memory_order_relaxed));
    }
    return t;
  }

  [[nodiscard]] bool side_feasible(int s) const {
    if (!sub.subset_mode) return cnt[s] < cap_side;
    return true;  // subset mode has no overall balance constraint
  }

  void assign(NodeId v, int s) {
    state[v] = static_cast<std::uint8_t>(s);
    ++cnt[s];
    cur_cut += a[1 - s][v];
    sum_min -= std::min(a[0][v], a[1][v]);
    if (sub.in_subset[v]) {
      ++sub.u_assigned;
      if (s == 1) ++sub.u1;
    }
    for (const NodeId w : g.neighbors(v)) {
      if (state[w] == kUnassigned) {
        const std::uint32_t old_min = std::min(a[0][w], a[1][w]);
        ++a[s][w];
        sum_min += std::min(a[0][w], a[1][w]) - old_min;  // grows or stays
      }
    }
  }

  void unassign(NodeId v, int s) {
    for (const NodeId w : g.neighbors(v)) {
      if (state[w] == kUnassigned) {
        const std::uint32_t old_min = std::min(a[0][w], a[1][w]);
        --a[s][w];
        sum_min -= old_min - std::min(a[0][w], a[1][w]);  // shrinks or stays
      }
    }
    if (sub.in_subset[v]) {
      --sub.u_assigned;
      if (s == 1) --sub.u1;
    }
    sum_min += std::min(a[0][v], a[1][v]);
    cur_cut -= a[1 - s][v];
    --cnt[s];
    state[v] = kUnassigned;
  }

  void dfs(NodeId depth) {
    if (aborted) return;
    ++visited;
    if (opts.node_limit != 0 && visited > opts.node_limit) {
      aborted = true;
      return;
    }
    // Poll cancellation at an amortized cadence: the flag is a relaxed
    // atomic (and possibly a clock read), so checking every node would
    // dominate the cheap bound arithmetic.
    if ((visited & 0xfffu) == 0) {
      if (opts.progress != nullptr) {
        opts.progress->store(visited, std::memory_order_relaxed);
      }
      if (opts.cancel != nullptr && opts.cancel->stop_requested()) {
        aborted = true;
        return;
      }
    }
    if (cur_cut + sum_min >= prune_threshold()) return;
    if (depth == n) {
      // Constraints were enforced along the path.
      BFLY_ASSERT_MSG(!have_best || cur_cut < best_cap,
                      "incumbent capacity must decrease monotonically");
      BFLY_ASSERT_MSG(sub.subset_mode ||
                          (cnt[0] <= cap_side && cnt[1] <= cap_side),
                      "leaf assignment violates the balance constraint");
      BFLY_ASSERT_MSG(!sub.subset_mode ||
                          (sub.u1 >= sub.u_floor && sub.u1 <= sub.u_ceil),
                      "leaf assignment violates the subset constraint");
      best_cap = cur_cut;
      best_sides = state;
      have_best = true;
      return;
    }
    const NodeId v = order[depth];
    // Try the side with more assigned neighbors first (smaller immediate
    // cut growth). Fix order[0] to side 0 (complement symmetry).
    int first = a[0][v] >= a[1][v] ? 0 : 1;
    const int sides_to_try = depth == 0 ? 1 : 2;
    if (depth == 0) first = 0;
    for (int t = 0; t < sides_to_try; ++t) {
      const int s = t == 0 ? first : 1 - first;
      if (!side_feasible(s)) continue;
      assign(v, s);
      if (sub.feasible()) dfs(depth + 1);
      unassign(v, s);
      if (aborted) return;
    }
  }
};

// ---------------------------------------------------------------------------
// Bitset kernel: word-level side masks over the graph's packed
// adjacency, a fused adj[v] & unassigned sweep in assign/unassign, an
// assignment-count lower bound on the unassigned remainder, and direct
// closure of forced subtrees. One instance per worker; workers share
// the incumbent and the pooled node budget through SearchShared.
// ---------------------------------------------------------------------------

// State shared by every worker of one (possibly parallel) search.
struct SearchShared {
  SharedIncumbent incumbent;
  std::atomic<std::uint64_t> pooled_visited{0};
  std::atomic<bool> aborted{false};
};

struct BitsetSearcher {
  const Graph& g;
  const BranchBoundOptions& opts;
  const std::vector<NodeId>& order;
  SearchShared& shared;

  NodeId n;
  const std::vector<Bitset64>& adj;  // packed rows, cached on the graph
  std::vector<std::uint8_t> state;   // 0, 1, or kUnassigned
  std::vector<std::uint32_t> a[2];   // assigned-neighbor counts per side
  std::vector<std::uint32_t> deg_;   // degrees, contiguous for the
                                     // vectorized branching scan
  std::uint32_t max_deg_ = 0;        // bounds every a0/a1/deg entry
  Bitset64 mask[2];                  // nodes on each side
  Bitset64 unassigned;               // complement of mask[0] | mask[1]
  SubsetState sub;

  std::size_t cap_side;
  std::size_t cnt[2] = {0, 0};
  std::size_t cur_cut = 0;
  std::size_t sum_min = 0;  // sum over unassigned v of min(a0, a1)

  // Scratch for the assignment-count bound: nodes bucketed by how much
  // their worse side costs over their better one (1..max_degree).
  std::vector<std::uint32_t> diff_bucket[2];

  std::uint64_t visited = 0;        // local count, flushed to the pool
  std::uint64_t last_flushed = 0;   // portion already in pooled_visited
  std::uint64_t pool_at_flush = 0;  // pooled total seen at the last flush
  bool aborted = false;

  BitsetSearcher(const Graph& graph, const BranchBoundOptions& o,
                 const std::vector<NodeId>& ord, SearchShared& sh)
      : g(graph),
        opts(o),
        order(ord),
        shared(sh),
        n(graph.num_nodes()),
        adj(graph.adjacency_bitsets()),
        sub(graph, o) {
    state.assign(n, kUnassigned);
    a[0].assign(n, 0);
    a[1].assign(n, 0);
    deg_.resize(n);
    for (NodeId v = 0; v < n; ++v) {
      deg_[v] = static_cast<std::uint32_t>(g.degree(v));
    }
    max_deg_ = static_cast<std::uint32_t>(g.max_degree());
    mask[0] = Bitset64(n);
    mask[1] = Bitset64(n);
    unassigned = Bitset64(n);
    unassigned.set_all();
    cap_side = (static_cast<std::size_t>(n) + 1) / 2;
    diff_bucket[0].assign(g.max_degree() + 1, 0);
    diff_bucket[1].assign(g.max_degree() + 1, 0);
  }

  [[nodiscard]] std::size_t prune_threshold() const {
    // The shared incumbent is every worker's "best so far": local finds
    // are published immediately, so reading the cell back subsumes the
    // serial kernel's have_best/best_cap bookkeeping.
    std::size_t t = shared.incumbent.capacity();  // kUnset == SIZE_MAX
    if (opts.initial_bound != kNoCapacity) {
      t = std::min(t, opts.initial_bound + 1);
    }
    if (opts.live_bound != nullptr) {
      t = std::min(t, opts.live_bound->load(std::memory_order_relaxed));
    }
    return t;
  }

  [[nodiscard]] bool side_feasible(int s) const {
    if (!sub.subset_mode) return cnt[s] < cap_side;
    return true;
  }

  void assign(NodeId v, int s) {
    BFLY_ASSERT_MSG(a[1 - s][v] == adj[v].and_count(mask[1 - s]),
                    "scalar neighbor counts drifted from the side masks");
    state[v] = static_cast<std::uint8_t>(s);
    ++cnt[s];
    cur_cut += a[1 - s][v];
    sum_min -= std::min(a[0][v], a[1][v]);
    if (sub.in_subset[v]) {
      ++sub.u_assigned;
      if (s == 1) ++sub.u1;
    }
    mask[s].set(v);
    unassigned.reset(v);
    // Fused word sweep over the still-unassigned neighbors of v: one AND
    // per word replaces the per-neighbor state[w] == kUnassigned branch.
    const auto avw = adj[v].words();
    const auto uw = unassigned.words();
    for (std::size_t wi = 0; wi < avw.size(); ++wi) {
      std::uint64_t m = avw[wi] & uw[wi];
      while (m != 0) {
        const NodeId w = static_cast<NodeId>(
            wi * 64 + static_cast<std::size_t>(std::countr_zero(m)));
        m &= m - 1;
        const std::uint32_t old_min = std::min(a[0][w], a[1][w]);
        ++a[s][w];
        sum_min += std::min(a[0][w], a[1][w]) - old_min;  // grows or stays
      }
    }
  }

  void unassign(NodeId v, int s) {
    const auto avw = adj[v].words();
    const auto uw = unassigned.words();
    for (std::size_t wi = 0; wi < avw.size(); ++wi) {
      std::uint64_t m = avw[wi] & uw[wi];
      while (m != 0) {
        const NodeId w = static_cast<NodeId>(
            wi * 64 + static_cast<std::size_t>(std::countr_zero(m)));
        m &= m - 1;
        const std::uint32_t old_min = std::min(a[0][w], a[1][w]);
        --a[s][w];
        sum_min -= old_min - std::min(a[0][w], a[1][w]);  // shrinks or stays
      }
    }
    unassigned.set(v);
    mask[s].reset(v);
    if (sub.in_subset[v]) {
      --sub.u_assigned;
      if (s == 1) --sub.u1;
    }
    sum_min += std::min(a[0][v], a[1][v]);
    cur_cut -= a[1 - s][v];
    --cnt[s];
    state[v] = kUnassigned;
  }

  // Batched prefix seeding for the sharded drivers: set the masks and
  // per-node state wholesale, then rebuild every derived quantity with
  // one and_count pass over all rows (a[s][w] = |adj[w] ∩ mask[s]| for
  // ALL w at once) instead of prefix-many incremental
  // assign() sweeps. Prefix nodes end up carrying their FULL side
  // counts where sequential seeding leaves the partial counts frozen at
  // assignment time — safe, because an assigned node's counts are only
  // read again on unassignment (assign()'s drift assert checks the node
  // being newly assigned, whose counts are live either way) and prefix
  // nodes are never unassigned: the DFS unwinds only below the prefix.
  // Everything the search reads (unassigned counts, cur_cut, sum_min,
  // masks) is identical to sequential seeding, so subtree node counts
  // are unchanged.
  void seed_prefix(const std::vector<std::uint8_t>& prefix) {
    for (std::size_t i = 0; i < prefix.size(); ++i) {
      const NodeId v = order[i];
      const int s = prefix[i];
      state[v] = static_cast<std::uint8_t>(s);
      ++cnt[s];
      if (sub.in_subset[v]) {
        ++sub.u_assigned;
        if (s == 1) ++sub.u1;
      }
      mask[s].set(v);
      unassigned.reset(v);
    }
    for (int s = 0; s < 2; ++s) {
      for (NodeId w = 0; w < n; ++w) {
        a[s][w] = static_cast<std::uint32_t>(adj[w].and_count(mask[s]));
      }
    }
    // cut = cross edges within the assigned set, each counted once from
    // its side-1 endpoint; sum_min re-derived over the unassigned rest.
    cur_cut = 0;
    mask[1].for_each_set([&](std::size_t v) { cur_cut += a[0][v]; });
    sum_min = 0;
    unassigned.for_each_set([&](std::size_t v) {
      sum_min += std::min(a[0][v], a[1][v]);
    });
  }

  // Pool the local node count and poll every stop source. Called at an
  // amortized cadence from dfs and once at the end of a worker's run.
  void flush_and_poll() {
    // Simulated crash-at-node-N: models the process dying mid-search,
    // leaving whatever the checkpoint sink last wrote as the only
    // surviving state. No-op outside fault-injection builds.
    BFLY_FAULT_POINT(kCrash);
    shared.pooled_visited.fetch_add(visited - last_flushed,
                                    std::memory_order_relaxed);
    last_flushed = visited;
    pool_at_flush = shared.pooled_visited.load(std::memory_order_relaxed);
    if (opts.progress != nullptr) {
      opts.progress->store(pool_at_flush, std::memory_order_relaxed);
    }
    if (shared.aborted.load(std::memory_order_relaxed)) {
      aborted = true;
      return;
    }
    if (opts.cancel != nullptr && opts.cancel->stop_requested()) {
      abort_search();
    }
  }

  // Pooled node count as of the last flush plus everything visited here
  // since: exact when running serially, accurate to one flush interval
  // per peer worker when parallel.
  [[nodiscard]] std::uint64_t budget_estimate() const {
    return pool_at_flush + (visited - last_flushed);
  }

  void abort_search() {
    aborted = true;
    shared.aborted.store(true, std::memory_order_relaxed);
  }

  void record_solution(std::size_t capacity,
                       const std::vector<std::uint8_t>& sides) {
    // publish() only accepts strict improvements under its mutex, so
    // racing workers cannot regress the incumbent.
    shared.incumbent.publish(capacity, sides);
  }

  // Assignment-count ("fractional degree") bound on the unassigned
  // remainder: the balance constraint forces between xlo and xhi of the
  // remaining nodes onto side 0. sum_min already charges every
  // unassigned node its cheaper side; any node pushed off its preferred
  // side additionally pays |a0 - a1|. Bucketing those differences by
  // value (bounded by max_degree) makes "sum of the smallest k
  // differences" a walk over at most max_degree counters.
  [[nodiscard]] std::size_t remainder_penalty(std::size_t r,
                                              std::size_t room0,
                                              std::size_t room1) {
    const std::size_t xhi = std::min(r, room0);
    const std::size_t xlo = r > room1 ? r - room1 : 0;
    std::fill(diff_bucket[0].begin(), diff_bucket[0].end(), 0u);
    std::fill(diff_bucket[1].begin(), diff_bucket[1].end(), 0u);
    // Dispatched scan: nodes strictly preferring side 0 / 1 (placing a
    // node on side 0 costs a1, its cheaper side), differences bucketed.
    std::uint32_t p01[2] = {0, 0};
    simd::kernels().diff_histogram(unassigned.words().data(), n, a[0].data(),
                                   a[1].data(), max_deg_, p01,
                                   diff_bucket[0].data(),
                                   diff_bucket[1].data());
    const std::size_t p0 = p01[0], p1 = p01[1];
    const std::size_t ties = r - p0 - p1;
    std::size_t forced = 0;
    const std::vector<std::uint32_t>* bucket = nullptr;
    if (xhi < p0) {  // too many want side 0: some pay to move to side 1
      forced = p0 - xhi;
      bucket = &diff_bucket[0];
    } else if (xlo > p0 + ties) {  // side 0 must absorb side-1 preferrers
      forced = xlo - p0 - ties;
      bucket = &diff_bucket[1];
    }
    if (forced == 0) return 0;
    std::size_t penalty = 0;
    for (std::size_t d = 1; d < bucket->size() && forced > 0; ++d) {
      const std::size_t take = std::min<std::size_t>((*bucket)[d], forced);
      penalty += take * d;
      forced -= take;
    }
    BFLY_ASSERT_MSG(forced == 0,
                    "assignment-count bound ran out of bucketed nodes");
    return penalty;
  }

  // Both sides' remaining room forces every unassigned node onto side s:
  // the completion cost is exact, so close the subtree in O(remaining).
  void forced_completion(int s, std::size_t thr) {
    std::size_t total = cur_cut;
    unassigned.for_each_set([&](std::size_t w) {
      // Edges between two unassigned nodes stay internal to side s; only
      // edges to the other, already-assigned side cross.
      total += a[1 - s][w];
    });
    if (total >= thr) return;
    std::vector<std::uint8_t> sides = state;
    unassigned.for_each_set(
        [&](std::size_t w) { sides[w] = static_cast<std::uint8_t>(s); });
    record_solution(total, sides);
  }

  // Dynamic branching order: descend on the most constrained unassigned
  // node — largest side-count difference (its bad branch is the
  // likeliest to prune), then most assigned neighbors, then highest
  // degree, then lowest id (determinism). This re-ranks after every
  // assignment, making it an O(unassigned) sweep per expanded node —
  // the hottest scan of the bitset kernel — so it runs through the
  // dispatched select_max_key, whose vector paths reproduce the scalar
  // first-max-in-index-order argmax bit for bit (node counts are
  // therefore dispatch-invariant).
  [[nodiscard]] NodeId select_next() const {
    const std::size_t best = simd::kernels().select_max_key(
        unassigned.words().data(), n, a[0].data(), a[1].data(), deg_.data(),
        max_deg_);
    BFLY_ASSERT_MSG(best != static_cast<std::size_t>(-1),
                    "select_next called with no unassigned node");
    return static_cast<NodeId>(best);
  }

  void dfs(NodeId num_assigned) {
    if (aborted) return;
    ++visited;
    if (opts.node_limit != 0 && budget_estimate() > opts.node_limit) {
      abort_search();
      return;
    }
    if ((visited & 0xfffu) == 0) {
      flush_and_poll();
      if (aborted) return;
    }
    const std::size_t thr = prune_threshold();
    if (cur_cut + sum_min >= thr) return;
    if (num_assigned == n) {
      BFLY_ASSERT_MSG(sub.subset_mode ||
                          (cnt[0] <= cap_side && cnt[1] <= cap_side),
                      "leaf assignment violates the balance constraint");
      BFLY_ASSERT_MSG(!sub.subset_mode ||
                          (sub.u1 >= sub.u_floor && sub.u1 <= sub.u_ceil),
                      "leaf assignment violates the subset constraint");
      record_solution(cur_cut, state);
      return;
    }
    if (!sub.subset_mode) {
      const std::size_t r = n - num_assigned;
      const std::size_t room0 = cap_side - cnt[0];
      const std::size_t room1 = cap_side - cnt[1];
      if (room0 == 0 || room1 == 0) {
        // One side is full: the rest of the assignment is forced.
        forced_completion(room0 == 0 ? 1 : 0, thr);
        return;
      }
      if ((room0 < r || room1 < r) &&
          cur_cut + sum_min + remainder_penalty(r, room0, room1) >= thr) {
        return;
      }
    }
    const NodeId v = select_next();
    int first = a[0][v] >= a[1][v] ? 0 : 1;
    // The very first assigned node can be pinned to side 0 (complement
    // symmetry) no matter which node the dynamic order picked.
    const int sides_to_try = num_assigned == 0 ? 1 : 2;
    if (num_assigned == 0) first = 0;
    for (int t = 0; t < sides_to_try; ++t) {
      const int s = t == 0 ? first : 1 - first;
      if (!side_feasible(s)) continue;
      assign(v, s);
      if (sub.feasible()) dfs(num_assigned + 1);
      unassign(v, s);
      if (aborted) return;
    }
  }
};

// Enumerates every feasible assignment of order[0..depth) as a side
// vector, mirroring the dfs constraints (order[0] pinned to side 0, per-
// side caps, partial subset feasibility) so the seeds exactly partition
// the serial search tree at that depth. Grows the depth until there are
// target_seeds seeds or max_depth is reached.
std::vector<std::vector<std::uint8_t>> enumerate_seed_prefixes(
    const Graph& g, const BranchBoundOptions& opts,
    const std::vector<NodeId>& order, std::size_t target_seeds,
    unsigned max_depth) {
  const NodeId n = g.num_nodes();
  const std::size_t cap_side = (static_cast<std::size_t>(n) + 1) / 2;
  SubsetState sub(g, opts);

  std::vector<std::vector<std::uint8_t>> cur;
  cur.emplace_back();  // the empty prefix
  for (unsigned depth = 0; depth < max_depth && cur.size() < target_seeds;
       ++depth) {
    const NodeId v = order[depth];
    std::vector<std::vector<std::uint8_t>> next;
    next.reserve(cur.size() * 2);
    for (const auto& p : cur) {
      std::size_t cnt[2] = {0, 0};
      std::size_t u1 = 0, u_assigned = 0;
      for (unsigned i = 0; i < depth; ++i) {
        ++cnt[p[i]];
        if (sub.in_subset[order[i]]) {
          ++u_assigned;
          if (p[i] == 1) ++u1;
        }
      }
      for (int s = 0; s < 2; ++s) {
        if (depth == 0 && s == 1) continue;  // complement symmetry
        if (!sub.subset_mode && cnt[s] >= cap_side) continue;
        if (sub.subset_mode && sub.in_subset[v]) {
          const std::size_t new_u1 = u1 + (s == 1 ? 1 : 0);
          const std::size_t rem = sub.u_total - (u_assigned + 1);
          if (new_u1 > sub.u_ceil || new_u1 + rem < sub.u_floor) continue;
        }
        auto q = p;
        q.push_back(static_cast<std::uint8_t>(s));
        next.push_back(std::move(q));
      }
    }
    cur.swap(next);
  }
  return cur;
}

// Prefix-completion bookkeeping for checkpointed runs. One capability
// serializes both the done[] flags and the checkpoint sink behind them:
// a snapshot must pair each done bit with an incumbent at least as good
// as the one that subtree proved, which holds exactly because the flag
// flip and the state capture happen under the same lock, after the
// subtree's publishes.
struct PrefixLedger {
  sync::Mutex mu;
  std::vector<std::uint8_t> done BFLY_GUARDED_BY(mu);
};

struct BitsetRunOutcome {
  std::size_t capacity = kNoCapacity;
  std::vector<std::uint8_t> sides;
  bool aborted = false;
  std::uint64_t visited = 0;
  StealStats ws;
};

BitsetRunOutcome run_bitset_search(const Graph& g,
                                   const BranchBoundOptions& opts,
                                   unsigned threads) {
  const std::vector<NodeId> order = bfs_assignment_order(g);
  SearchShared shared;
  BitsetRunOutcome out;
  // Checkpointing (either direction) forces the seed-prefix driver even
  // for serial runs: the prefix subtree is the unit of resume, so the
  // interrupted run and its continuation partition the tree identically.
  // Sharded runs (shard_count > 1) also force the prefix driver: the
  // shard filter partitions the prefix list, and each shard's emitted
  // checkpoint is what the out-of-process merger combines.
  const bool checkpointing = opts.on_checkpoint != nullptr ||
                             opts.resume != nullptr || opts.shard_count > 1;

  if (opts.resume != nullptr) {
    // Restore the interrupted run's incumbent and node count before any
    // worker starts, so the resumed search prunes (and reports) exactly
    // as if it had never stopped.
    const BranchBoundSearchState& rs = *opts.resume;
    shared.pooled_visited.store(rs.nodes_spent, std::memory_order_relaxed);
    if (rs.incumbent_capacity != kNoCapacity) {
      BFLY_CHECK(rs.incumbent_sides.size() == g.num_nodes(),
                 "resume incumbent does not match the graph");
      shared.incumbent.publish(rs.incumbent_capacity, rs.incumbent_sides);
    }
  }

  if (!checkpointing && (threads <= 1 || g.num_nodes() < 16)) {
    // Tiny instances gain nothing from seeding overhead; a serial run is
    // also the fully deterministic reference (witness included).
    BitsetSearcher s(g, opts, order, shared);
    s.dfs(0);
    s.flush_and_poll();
    BFLY_ASSERT_MSG(s.aborted || (s.cnt[0] == 0 && s.cnt[1] == 0 &&
                                  s.cur_cut == 0 && s.sum_min == 0 &&
                                  s.sub.u_assigned == 0 &&
                                  s.unassigned.count() == s.n),
                    "search bookkeeping did not unwind cleanly");
  } else {
    unsigned max_depth;
    std::size_t target;
    if (opts.resume != nullptr) {
      // Re-enumerate at exactly the depth of the interrupted run so the
      // completion flags line up index-for-index.
      max_depth = std::min<unsigned>(opts.resume->seed_depth, g.num_nodes());
      target = std::size_t{1} << 30;
    } else if (opts.seed_depth != 0) {
      max_depth = std::min<unsigned>(opts.seed_depth, g.num_nodes());
      target = std::size_t{1} << 30;  // honor exact depth
    } else {
      max_depth = std::min<unsigned>(12u, g.num_nodes());
      // Checkpointed runs want enough prefixes for a useful resume grain
      // even when serial; plain parallel runs just want to feed workers.
      target = checkpointing
                   ? std::max<std::size_t>(
                         32, static_cast<std::size_t>(threads) * 8)
                   : static_cast<std::size_t>(threads) * 8;
    }
    const auto prefixes =
        enumerate_seed_prefixes(g, opts, order, target, max_depth);
    const unsigned depth_used =
        prefixes.empty() ? 0 : static_cast<unsigned>(prefixes[0].size());

    if (!checkpointing) {
      WorkStealingScheduler::Options wopts;
      wopts.num_workers = threads;
      out.ws = WorkStealingScheduler::run(
          prefixes.size(),
          [&g, &opts, &order, &shared, &prefixes](std::size_t pi, unsigned) {
            BitsetSearcher s(g, opts, order, shared);
            s.seed_prefix(prefixes[pi]);
            // The prefix was enumerated under the same feasibility rules
            // dfs enforces, so descending from its depth is sound.
            if (s.sub.feasible()) {
              s.dfs(static_cast<NodeId>(prefixes[pi].size()));
            }
            s.flush_and_poll();
          },
          wopts);
    } else {
      PrefixLedger ledger;
      {
        const sync::MutexLock lock(ledger.mu);
        ledger.done.assign(prefixes.size(), 0);
        if (opts.resume != nullptr) {
          BFLY_CHECK(opts.resume->prefix_done.size() == prefixes.size(),
                     "resume state does not match the prefix enumeration "
                     "(different graph, subset, or seed depth?)");
          ledger.done = opts.resume->prefix_done;
        }
      }
      auto run_prefix = [&](std::size_t pi) {
        if (shared.aborted.load(std::memory_order_relaxed)) return;
        // Crash point between subtrees: everything before the last
        // checkpoint survives, the in-flight subtree re-runs on resume.
        BFLY_FAULT_POINT(kCrash);
        BitsetSearcher s(g, opts, order, shared);
        s.seed_prefix(prefixes[pi]);
        if (s.sub.feasible()) s.dfs(static_cast<NodeId>(prefixes[pi].size()));
        s.flush_and_poll();
        if (s.aborted || shared.aborted.load(std::memory_order_relaxed)) {
          return;  // cut short — the subtree is NOT complete
        }
        const sync::MutexLock lock(ledger.mu);
        ledger.done[pi] = 1;
        if (opts.on_checkpoint) {
          BranchBoundSearchState st;
          st.seed_depth = depth_used;
          st.prefix_done = ledger.done;
          st.incumbent_capacity = shared.incumbent.capacity();
          if (st.incumbent_capacity != SharedIncumbent::kUnset) {
            st.incumbent_sides = shared.incumbent.sides();
          }
          // Serial runs record exactly the completed subtrees' nodes;
          // parallel runs may include partial counts flushed by peers
          // (telemetry only — never affects the proved capacity).
          st.nodes_spent =
              shared.pooled_visited.load(std::memory_order_relaxed);
          opts.on_checkpoint(st);
        }
      };
      // Work list snapshot before any worker starts: a prefix pending
      // here can only be completed by its own run_prefix call. The shard
      // filter (shard_index picks every shard_count-th prefix) composes
      // with the resume flags, so a sharded resume re-runs exactly its
      // own unfinished subtrees.
      std::vector<std::size_t> todo;
      {
        const sync::MutexLock lock(ledger.mu);
        for (std::size_t pi = 0; pi < prefixes.size(); ++pi) {
          if (ledger.done[pi]) continue;
          if (opts.shard_count > 1 &&
              pi % opts.shard_count != opts.shard_index) {
            continue;
          }
          todo.push_back(pi);
        }
      }
      // With one worker the scheduler drains inline in index order, so a
      // thrown SimulatedCrash (or real bad_alloc) abandons the remaining
      // prefixes immediately, like a dying process — byte-identical to
      // the old serial loop, which checkpoint replay relies on.
      WorkStealingScheduler::Options wopts;
      wopts.num_workers = threads;
      out.ws = WorkStealingScheduler::run(
          todo.size(),
          [&run_prefix, &todo](std::size_t i, unsigned) {
            run_prefix(todo[i]);
          },
          wopts);
    }
  }

  out.capacity = shared.incumbent.capacity();
  if (out.capacity != SharedIncumbent::kUnset) {
    out.sides = shared.incumbent.sides();
  }
  out.aborted = shared.aborted.load(std::memory_order_relaxed);
  out.visited = shared.pooled_visited.load(std::memory_order_relaxed);
  return out;
}

}  // namespace

CutResult min_bisection_branch_bound(const Graph& g,
                                     const BranchBoundOptions& opts) {
  BFLY_CHECK(g.num_nodes() >= 2, "bisection needs at least two nodes");
  // Allocation-failure fault point: the solver's up-front working-set
  // allocations (order, bitsets, seeds) are modeled as failing here.
  BFLY_FAULT_POINT(kAlloc);
  const bool packed_faithful = !g.has_parallel_edges();
  BranchBoundKernel kernel = opts.kernel;
  if (kernel == BranchBoundKernel::kAuto) {
    kernel = packed_faithful ? BranchBoundKernel::kBitset
                             : BranchBoundKernel::kScalar;
  } else if (kernel == BranchBoundKernel::kBitset) {
    BFLY_CHECK(packed_faithful,
               "bitset branch-and-bound kernel requires a simple graph "
               "(parallel edges collapse in the packed adjacency)");
  }

  CutResult res;
  if (kernel == BranchBoundKernel::kScalar) {
    ScalarSearcher s(g, opts);
    s.dfs(0);
    // A completed search must have unwound its incremental bookkeeping
    // back to the empty assignment; anything else means assign/unassign
    // drifted.
    BFLY_ASSERT_MSG(s.aborted || (s.cnt[0] == 0 && s.cnt[1] == 0 &&
                                  s.cur_cut == 0 && s.sum_min == 0 &&
                                  s.sub.u_assigned == 0),
                    "search bookkeeping did not unwind cleanly");
    res.method = opts.bisect_subset.empty() ? "branch-and-bound"
                                            : "branch-and-bound-subset";
    res.nodes_visited = s.visited;
    if (s.have_best) {
      res.capacity = s.best_cap;
      res.sides = std::move(s.best_sides);
    } else {
      res.capacity = kNoCapacity;
    }
    res.exactness = s.aborted ? Exactness::kHeuristic : Exactness::kExact;
  } else {
    BFLY_CHECK(opts.shard_count >= 1 && opts.shard_index < opts.shard_count,
               "shard_index must be < shard_count (and shard_count >= 1)");
    const unsigned threads =
        opts.num_threads == 0 ? default_thread_count() : opts.num_threads;
    BitsetRunOutcome out = run_bitset_search(g, opts, threads);
    res.method = opts.bisect_subset.empty() ? "branch-and-bound-bitset"
                                            : "branch-and-bound-bitset-subset";
    res.nodes_visited = out.visited;
    res.ws_spawned = out.ws.spawned;
    res.ws_steals = out.ws.steals;
    res.ws_idle_seconds = out.ws.idle_seconds;
    res.capacity = out.capacity;
    res.sides = std::move(out.sides);
    // A sharded run searched only its slice of the prefix list: even a
    // clean finish is a partial proof, so it never claims exactness —
    // the merged, unsharded resume makes that claim for the ensemble.
    res.exactness = out.aborted || opts.shard_count > 1
                        ? Exactness::kHeuristic
                        : Exactness::kExact;
  }

  if (!res.sides.empty() && checked_build()) {
    validate_cut(g, res, /*require_bisection=*/opts.bisect_subset.empty());
    BFLY_ASSERT(opts.bisect_subset.empty() ||
                bisects_subset(res.sides, opts.bisect_subset));
  }
  return res;
}

}  // namespace bfly::cut
