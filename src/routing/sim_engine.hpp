// Phase-driven store-and-forward simulation engine (DESIGN.md §15).
//
// The paper's Section 1.2 routing motivation (claim C14) says delivering
// N random-destination packets needs at least N/(4·BW) steps. Turning
// that from a gesture into a measured experiment axis requires a
// simulator fast enough to reach B1024+ — which the reference model
// (tests/packet_sim.cpp: unordered_map of deques, one heap node per
// enqueue) is not. This engine is the library's only packet simulator.
// It keeps the reference's synchronous store-and-forward semantics
// exactly (single virtual channel, unbounded queues: bit-identical
// makespan/max_queue, asserted by test_sim_engine) while storing
// everything structure-of-arrays:
//
//   * a dense directed-link table built once from the Graph — link
//     2e/2e+1 are the two directions of undirected edge e, so the hot
//     path never hashes an endpoint pair;
//   * per-(link, virtual-channel) queues living in ONE flat slot array.
//     A packet occupies a given queue at most once, so each queue's
//     slot region is sized by its static load and head/tail advance
//     monotonically — no ring arithmetic, no per-packet allocation;
//   * hop-indexed slots: every hop of every packet has a global index
//     h (packet-major, so ordering by h is ordering by packet id), and
//     a queue slot holds the h of the packet waiting there. One array,
//     next_q_[h], names the queue of the packet's next hop (or a
//     deliver sentinel), so a move reads one packet-indexed entry and
//     writes h + 1 into the target queue — no per-packet cursor. It is
//     compiled in parallel over packet ranges with the
//     WorkStealingScheduler.
//
// Each step is two synchronous phases separated by barriers (three with
// multiple virtual channels):
//
//   phase A (drain, over queue ranges): complete last step's departures
//     (pop sent heads), record occupancy, propose every head packet,
//     prefetching head slots ahead and each proposal's next_q_ entry;
//   phase A2 (arbitrate, over link ranges, vcs_per_link > 1 only):
//     virtual channels are separate BUFFERS sharing one physical link —
//     a directed link transmits at most ONE packet per step regardless
//     of vcs_per_link, exactly the unit-bandwidth assumption behind
//     every bound the repo certifies (C14's N/(4·BW), the directional
//     cut bound, the per-link congestion bound). The arbiter picks the
//     lowest-numbered VC whose head can actually move (terminates at the
//     link head, or its target queue has free space under the occupancy
//     published by phase A) — a blocked head never wastes the link's
//     step, which is what makes single-step stall detection sound;
//   phase B (advance, over node ranges): per node, gather the proposals
//     of its in-queues, deliver the ones that terminate here, and admit
//     the rest to their next queue in packet-id order, bounded by the
//     virtual-channel capacity. Rejected heads simply stay put.
//
// Every phase writes disjoint state per queue/link/node, so the result
// is identical for any thread count — the parallel stepper is a pure
// speedup, asserted by the tsan stress suite. Bounded-capacity configs
// are deadlock-free when routes carry monotone stage-weighted virtual
// channels (routing::stage_weighted_vcs): the queue dependency graph is
// acyclic, so some movable head always exists, the arbiter proposes it,
// and per-target admission accepts at least the smallest packet id — at
// least one packet moves every step until the load drains. A genuinely
// stalled configuration is detected (no packet moved in a step) and
// reported as an error instead of spinning forever.
#pragma once

#include <cstdint>
#include <vector>

#include "core/graph.hpp"
#include "core/types.hpp"

namespace bfly::routing {

struct SimOptions {
  /// Worker threads for stepping and route compilation. 1 = serial
  /// (the throughput-bench configuration), 0 = default_thread_count().
  unsigned num_threads = 1;
  /// Virtual channels per directed link: separate FIFO buffers sharing
  /// the link's unit bandwidth (one departure per link per step).
  std::uint32_t vcs_per_link = 1;
  /// Per-queue capacity; 0 = unbounded (the reference-model semantics).
  /// Initial injection bypasses the capacity (packets start in their
  /// first queue like the reference model); only in-network admission
  /// is bounded.
  std::uint32_t vc_capacity = 0;
  /// Abort with PreconditionError after this many steps (0 = no limit).
  /// Belt-and-braces for hostile configs; a true deadlock is detected
  /// without it.
  std::uint64_t max_steps = 0;
};

struct EngineStats {
  std::uint32_t makespan = 0;   ///< step of the last delivery
  std::uint64_t steps = 0;      ///< synchronous steps executed
  std::size_t delivered = 0;    ///< == num_packets on success
  std::size_t num_packets = 0;
  std::uint64_t total_hops = 0;  ///< sum of route lengths (moves made)
  std::size_t max_queue = 0;     ///< peak queue occupancy at a step start
  std::size_t max_link_load = 0;  ///< static: most-used directed link
};

class SimEngine {
 public:
  /// Builds the dense link table for g. The graph must outlive the
  /// engine. Throws PreconditionError on an unusable options combination.
  explicit SimEngine(const Graph& g, SimOptions opts = {});

  /// Loads one packet per path (inclusive node sequences along edges of
  /// g; single-node paths deliver at time 0). Every hop rides virtual
  /// channel 0. Resets any previous load.
  void load(const std::vector<std::vector<NodeId>>& paths);

  /// As above with an explicit virtual channel per hop (each value in
  /// [0, vcs_per_link)); hop_vcs[p] must have paths[p].size() - 1
  /// entries. Stage-weighted assignments make bounded capacities
  /// deadlock-free (see routing::stage_weighted_vcs).
  void load(const std::vector<std::vector<NodeId>>& paths,
            const std::vector<std::vector<std::uint32_t>>& hop_vcs);

  /// Runs the loaded packet set to completion and returns the stats.
  /// Consumes the load (call load() again for another run). Throws
  /// PreconditionError when the configuration stalls (bounded-capacity
  /// deadlock) or exceeds max_steps.
  [[nodiscard]] EngineStats run();

  /// Directed links (2 * num_edges) and queues (links * vcs_per_link).
  [[nodiscard]] std::size_t num_links() const noexcept {
    return link_to_.size();
  }
  [[nodiscard]] std::size_t num_queues() const noexcept {
    return link_to_.size() * opts_.vcs_per_link;
  }

 private:
  struct WorkerCtx;

  void load_impl(const std::vector<std::vector<NodeId>>& paths,
                 const std::vector<std::vector<std::uint32_t>>* hop_vcs);
  void phase_a(std::size_t q_begin, std::size_t q_end, WorkerCtx& ctx);
  void phase_arb(std::size_t l_begin, std::size_t l_end);
  void phase_b(NodeId n_begin, NodeId n_end, WorkerCtx& ctx);

  const Graph* g_;
  SimOptions opts_;

  // Dense link table (built once): link 2e+d, d=0 first->second.
  std::vector<NodeId> link_to_;            // destination node per link
  std::vector<std::uint32_t> in_q_offsets_;  // per-node in-queue CSR
  std::vector<std::uint32_t> in_q_ids_;

  // Packet state: per global hop index, the queue of the next hop
  // (kDeliver on a packet's last hop).
  std::vector<std::uint32_t> next_q_;

  // Queues: one flat slot array, per-queue regions sized by static load.
  std::vector<std::uint32_t> q_base_;  // num_queues + 1
  std::vector<std::uint32_t> head_;    // relative to q_base_
  std::vector<std::uint32_t> tail_;
  std::vector<std::uint32_t> slots_;     // total_hops hop indices
  std::vector<std::uint32_t> proposal_;  // per queue, kNoPacket if empty
  std::vector<std::uint8_t> sent_;       // head departed this step

  std::size_t num_packets_ = 0;
  std::size_t delivered_preloaded_ = 0;  // zero-length paths
  std::uint64_t total_hops_ = 0;
  std::size_t max_link_load_ = 0;
  bool loaded_ = false;
};

}  // namespace bfly::routing
