#include "routing/sim_engine.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>

#include "core/error.hpp"
#include "core/sharding.hpp"
#include "core/thread_pool.hpp"

namespace bfly::routing {

namespace {

// Sentinels reserved at the top of the 32-bit id space. Queue ids and
// hop indices stay strictly below kFirstSentinel (checked at
// construction and load), so neither can be mistaken for one.
constexpr std::uint32_t kNoPacket = 0xFFFFFFFFu;  // proposal_: queue empty
constexpr std::uint32_t kDeliver = 0xFFFFFFFEu;   // next_q_: last hop
constexpr std::uint32_t kFirstSentinel = kDeliver;

// Queues ahead of the drain cursor whose head slot phase A prefetches.
constexpr std::size_t kHeadPrefetch = 16;

inline void prefetch(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p);
#else
  static_cast<void>(p);
#endif
}

// Sense-reversing spin barrier for the synchronous phases. Stepping
// needs two barriers per step (three with multi-VC arbitration), so a
// per-step WorkStealingScheduler run
// (thread spawn + join each phase) would cost more than the phases
// themselves; the persistent worker pool spins here instead. The last
// arriver runs the leader functor (the per-step reduction) before
// releasing the others, which gives the classic barrier + serial-section
// shape with exactly one atomic RMW per worker per phase. Bounded spin,
// then yield: correct on oversubscribed machines (the 1-core tsan leg),
// fast on real ones.
class PhaseBarrier {
 public:
  explicit PhaseBarrier(unsigned parties) : parties_(parties) {}

  template <typename Leader>
  void arrive_and_wait(bool& my_sense, Leader&& leader) {
    my_sense = !my_sense;
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
      arrived_.store(0, std::memory_order_relaxed);
      leader();
      sense_.store(my_sense, std::memory_order_release);
      return;
    }
    int spins = 0;
    while (sense_.load(std::memory_order_acquire) != my_sense) {
      if (++spins > 1024) std::this_thread::yield();
    }
  }

 private:
  const unsigned parties_;
  std::atomic<unsigned> arrived_{0};
  std::atomic<bool> sense_{false};
};

// [begin, end) of the w-th of `parts` contiguous ranges over n items.
std::pair<std::size_t, std::size_t> split_range(std::size_t n, unsigned parts,
                                                unsigned w) {
  const std::size_t base = n / parts;
  const std::size_t rem = n % parts;
  const std::size_t begin = w * base + std::min<std::size_t>(w, rem);
  return {begin, begin + base + (w < rem ? 1 : 0)};
}

unsigned resolve_threads(unsigned requested) {
  return requested == 0 ? default_thread_count() : requested;
}

}  // namespace

// Per-worker step state, padded so the hot counters of neighboring
// workers never share a cache line.
struct alignas(64) SimEngine::WorkerCtx {
  std::uint64_t delivered = 0;  // this step
  std::uint64_t moved = 0;      // this step (every departed head)
  std::size_t max_queue = 0;    // running max over the whole run

  // Phase-B scratch: (target queue, hop index, source queue) candidates
  // of one node. Reused across steps; butterfly degrees keep it tiny.
  struct Cand {
    std::uint32_t tq;
    std::uint32_t hop;
    std::uint32_t iq;
  };
  std::vector<Cand> cands;
};

SimEngine::SimEngine(const Graph& g, SimOptions opts)
    : g_(&g), opts_(opts) {
  BFLY_CHECK(opts_.vcs_per_link >= 1 && opts_.vcs_per_link <= 64,
             "vcs_per_link must be in [1, 64]");
  const std::size_t num_links = 2 * g.num_edges();
  BFLY_CHECK(num_links * opts_.vcs_per_link < kFirstSentinel,
             "queue table too large for 32-bit ids");

  link_to_.resize(num_links);
  std::vector<std::uint32_t> in_degree(g.num_nodes() + 1, 0);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.edge(e);
    link_to_[2 * e] = v;      // u -> v
    link_to_[2 * e + 1] = u;  // v -> u
    ++in_degree[v];
    ++in_degree[u];
  }

  // Per-node in-queue CSR: the queues whose link terminates at the node,
  // ordered by (link, vc) — the deterministic gather order of phase B.
  const std::uint32_t vcs = opts_.vcs_per_link;
  in_q_offsets_.assign(g.num_nodes() + 1, 0);
  for (NodeId a = 0; a < g.num_nodes(); ++a) {
    in_q_offsets_[a + 1] = in_q_offsets_[a] + in_degree[a] * vcs;
  }
  in_q_ids_.resize(in_q_offsets_[g.num_nodes()]);
  std::vector<std::uint32_t> fill(g.num_nodes(), 0);
  for (std::size_t l = 0; l < num_links; ++l) {
    const NodeId a = link_to_[l];
    for (std::uint32_t v = 0; v < vcs; ++v) {
      in_q_ids_[in_q_offsets_[a] + fill[a]++] =
          static_cast<std::uint32_t>(l) * vcs + v;
    }
  }
}

void SimEngine::load(const std::vector<std::vector<NodeId>>& paths) {
  load_impl(paths, nullptr);
}

void SimEngine::load(const std::vector<std::vector<NodeId>>& paths,
                     const std::vector<std::vector<std::uint32_t>>& hop_vcs) {
  BFLY_CHECK(hop_vcs.size() == paths.size(),
             "hop_vcs must cover every path");
  load_impl(paths, &hop_vcs);
}

void SimEngine::load_impl(
    const std::vector<std::vector<NodeId>>& paths,
    const std::vector<std::vector<std::uint32_t>>* hop_vcs) {
  const Graph& g = *g_;
  loaded_ = false;  // a load that throws leaves nothing to run
  num_packets_ = paths.size();
  delivered_preloaded_ = 0;

  // Global hop offsets (prefix over hop counts) — serial, trivial. Hop
  // indices live in the slots, so the total must stay below the
  // sentinels.
  std::vector<std::uint32_t> route_off(num_packets_ + 1, 0);
  std::uint64_t hops = 0;
  for (std::size_t p = 0; p < num_packets_; ++p) {
    BFLY_CHECK(!paths[p].empty(), "packet path must be nonempty");
    if (hop_vcs != nullptr) {
      BFLY_CHECK((*hop_vcs)[p].size() + 1 == paths[p].size(),
                 "hop_vcs entry must have one vc per hop");
    }
    hops += paths[p].size() - 1;
    BFLY_CHECK(hops < kFirstSentinel, "too many hops for 32-bit ids");
    route_off[p + 1] = static_cast<std::uint32_t>(hops);
  }
  total_hops_ = hops;
  next_q_.resize(total_hops_);
  std::vector<std::uint32_t> first_q(num_packets_);  // kDeliver: no hops

  // Compile node paths into queue ids, in parallel over packet ranges
  // (disjoint output slices). Hop h of a packet stores the queue of hop
  // h + 1 (kDeliver on the last hop), so stepping reads one entry per
  // move; the first hop's queue only seeds injection. The per-hop edge
  // lookup is a binary search in the sorted adjacency row — off the
  // stepping hot path, once per hop ever.
  const std::uint32_t vcs = opts_.vcs_per_link;
  const unsigned workers = resolve_threads(opts_.num_threads);
  const std::size_t shards =
      workers <= 1 ? 1
                   : std::min<std::size_t>(std::max<std::size_t>(
                                               num_packets_ / 1024, workers),
                                           4 * workers);
  WorkStealingScheduler::Options ws_opts;
  ws_opts.num_workers = workers;
  WorkStealingScheduler::run(
      shards,
      [&](std::size_t shard, unsigned) {
        const auto [pb, pe] = split_range(num_packets_,
                                          static_cast<unsigned>(shards),
                                          static_cast<unsigned>(shard));
        for (std::size_t p = pb; p < pe; ++p) {
          const auto& path = paths[p];
          // Hop i's queue goes to prev, then prev moves to the entry of
          // hop i itself, which holds the queue of hop i + 1.
          std::uint32_t* prev = &first_q[p];
          std::uint32_t* out = next_q_.data() + route_off[p];
          for (std::size_t i = 0; i + 1 < path.size(); ++i) {
            const NodeId from = path[i];
            const NodeId to = path[i + 1];
            BFLY_CHECK(from < g.num_nodes() && to < g.num_nodes(),
                       "packet path node out of range");
            const auto nbrs = g.neighbors(from);
            const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), to);
            BFLY_CHECK(it != nbrs.end() && *it == to,
                       "packet path step is not an edge");
            const EdgeId eid =
                g.incident_edges(from)[static_cast<std::size_t>(
                    it - nbrs.begin())];
            const std::uint32_t dir = g.edge(eid).first == from ? 0 : 1;
            std::uint32_t vc = 0;
            if (hop_vcs != nullptr) {
              vc = (*hop_vcs)[p][i];
              BFLY_CHECK(vc < vcs, "hop vc out of range");
            }
            *prev = (2 * eid + dir) * vcs + vc;
            prev = out++;
          }
          *prev = kDeliver;
        }
      },
      ws_opts);

  // Static per-queue loads size the slot regions; per-link sums give
  // max_link_load (the congestion figure the benches report). Every hop
  // is either a packet's first or the successor of another hop.
  const std::size_t num_queues = link_to_.size() * vcs;
  // kDeliver entries land in one spare counter past the end (branch-free).
  q_base_.assign(num_queues + 2, 0);
  const auto spare = static_cast<std::uint32_t>(num_queues);
  for (const std::uint32_t q : first_q) ++q_base_[std::min(q, spare) + 1];
  for (const std::uint32_t q : next_q_) ++q_base_[std::min(q, spare) + 1];
  q_base_.pop_back();
  max_link_load_ = 0;
  for (std::size_t l = 0; l < link_to_.size(); ++l) {
    std::size_t load = 0;
    for (std::uint32_t v = 0; v < vcs; ++v) load += q_base_[l * vcs + v + 1];
    max_link_load_ = std::max(max_link_load_, load);
  }
  for (std::size_t q = 0; q < num_queues; ++q) q_base_[q + 1] += q_base_[q];

  head_.assign(num_queues, 0);
  tail_.assign(num_queues, 0);
  slots_.resize(total_hops_);
  proposal_.assign(num_queues, kNoPacket);
  sent_.assign(num_queues, 0);

  // Inject first hops in packet-id order: each queue's initial slots are
  // ascending hop indices — equivalently ascending packet ids, matching
  // the reference model's enqueue order.
  for (std::size_t p = 0; p < num_packets_; ++p) {
    const std::uint32_t q = first_q[p];
    if (q == kDeliver) {
      ++delivered_preloaded_;
      continue;
    }
    slots_[q_base_[q] + tail_[q]++] = route_off[p];
  }
  loaded_ = true;
}

void SimEngine::phase_a(std::size_t q_begin, std::size_t q_end,
                        WorkerCtx& ctx) {
  const bool multi_vc = opts_.vcs_per_link > 1;
  for (std::size_t q = q_begin; q < q_end; ++q) {
    // Queues are visited in order but their head slots are scattered
    // over the slot array: start the miss for a queue further on now.
    // (A drained last queue points one past the end: formed, never read.)
    if (const std::size_t a = q + kHeadPrefetch; a < q_end) {
      prefetch(slots_.data() + q_base_[a] + head_[a] + sent_[a]);
    }
    if (sent_[q] != 0) {  // complete last step's departure
      ++head_[q];
      sent_[q] = 0;
    }
    const std::uint32_t occ = tail_[q] - head_[q];
    if (occ == 0) {
      if (!multi_vc) proposal_[q] = kNoPacket;
      continue;
    }
    ctx.max_queue = std::max<std::size_t>(ctx.max_queue, occ);
    const std::uint32_t h = slots_[q_base_[q] + head_[q]];
    // The arbiter or phase B reads the head's next hop next.
    prefetch(&next_q_[h]);
    if (!multi_vc) proposal_[q] = h;  // else phase_arb owns the proposals
  }
}

// Link arbitration (vcs_per_link > 1): one proposal per directed link —
// the lowest-numbered VC whose head can move under the occupancies
// published by phase A. head_/tail_ are stable here (heads popped in
// phase A, tails grow in phase B), so cross-queue occupancy reads are
// race-free; proposal_ writes are disjoint per link.
void SimEngine::phase_arb(std::size_t l_begin, std::size_t l_end) {
  const std::uint32_t vcs = opts_.vcs_per_link;
  const std::uint32_t cap = opts_.vc_capacity;
  for (std::size_t l = l_begin; l < l_end; ++l) {
    bool chosen = false;
    for (std::uint32_t v = 0; v < vcs; ++v) {
      const std::uint32_t q = static_cast<std::uint32_t>(l * vcs + v);
      proposal_[q] = kNoPacket;
      if (chosen || head_[q] == tail_[q]) continue;
      const std::uint32_t h = slots_[q_base_[q] + head_[q]];
      const std::uint32_t nq = next_q_[h];
      if (nq == kDeliver || cap == 0 || tail_[nq] - head_[nq] < cap) {
        chosen = true;
        proposal_[q] = h;
      }
    }
  }
}

void SimEngine::phase_b(NodeId n_begin, NodeId n_end, WorkerCtx& ctx) {
  const std::uint32_t cap = opts_.vc_capacity;
  auto& cands = ctx.cands;
  for (NodeId a = n_begin; a < n_end; ++a) {
    cands.clear();
    for (std::uint32_t k = in_q_offsets_[a]; k < in_q_offsets_[a + 1]; ++k) {
      const std::uint32_t iq = in_q_ids_[k];
      const std::uint32_t h = proposal_[iq];
      if (h == kNoPacket) continue;
      const std::uint32_t nq = next_q_[h];
      if (nq == kDeliver) {
        // Terminates here: deliveries are always admitted.
        ++ctx.delivered;
        ++ctx.moved;
        sent_[iq] = 1;
        continue;
      }
      cands.push_back({nq, h, iq});
    }
    if (cands.empty()) continue;
    // Admission in hop-index order per target queue. Hop indices of
    // different packets ascend with packet id (each packet owns one
    // contiguous range), so this is packet-id order: deterministic for
    // any worker count, and the exact tie-break of the reference model.
    std::sort(cands.begin(), cands.end(),
              [](const WorkerCtx::Cand& x, const WorkerCtx::Cand& y) {
                return x.tq != y.tq ? x.tq < y.tq : x.hop < y.hop;
              });
    for (std::size_t i = 0; i < cands.size();) {
      const std::uint32_t tq = cands[i].tq;
      std::uint32_t free = 0;  // bounded queues only
      if (cap != 0) {
        const std::uint32_t occ = tail_[tq] - head_[tq];
        free = occ >= cap ? 0 : cap - occ;
      }
      for (; i < cands.size() && cands[i].tq == tq; ++i) {
        if (cap != 0) {
          if (free == 0) continue;  // head stays put, retries next step
          --free;
        }
        slots_[q_base_[tq] + tail_[tq]++] = cands[i].hop + 1;
        sent_[cands[i].iq] = 1;
        ++ctx.moved;
      }
    }
  }
}

EngineStats SimEngine::run() {
  BFLY_CHECK(loaded_, "load() a packet set before run()");
  loaded_ = false;  // the run consumes the queue state

  EngineStats stats;
  stats.num_packets = num_packets_;
  stats.total_hops = total_hops_;
  stats.max_link_load = max_link_load_;
  stats.delivered = delivered_preloaded_;
  if (stats.delivered == num_packets_) return stats;

  const std::size_t num_queues = link_to_.size() * opts_.vcs_per_link;
  const NodeId num_nodes = g_->num_nodes();
  const unsigned threads = std::max(1u, std::min<unsigned>(
      resolve_threads(opts_.num_threads),
      static_cast<unsigned>(std::min<std::size_t>(num_queues, num_nodes))));

  std::uint64_t delivered_total = delivered_preloaded_;
  std::uint64_t moved_total = 0;
  std::uint32_t makespan = 0;
  std::uint64_t steps = 0;
  bool stalled = false;
  bool overran = false;

  const bool multi_vc = opts_.vcs_per_link > 1;

  if (threads <= 1) {
    WorkerCtx ctx;
    for (std::uint64_t step = 1;; ++step) {
      ctx.delivered = 0;
      ctx.moved = 0;
      phase_a(0, num_queues, ctx);
      if (multi_vc) phase_arb(0, link_to_.size());
      phase_b(0, num_nodes, ctx);
      delivered_total += ctx.delivered;
      moved_total += ctx.moved;
      if (ctx.delivered != 0) makespan = static_cast<std::uint32_t>(step);
      steps = step;
      if (delivered_total == num_packets_) break;
      if (ctx.moved == 0) {
        stalled = true;
        break;
      }
      if (opts_.max_steps != 0 && step >= opts_.max_steps) {
        overran = true;
        break;
      }
    }
    stats.max_queue = ctx.max_queue;
  } else {
    PhaseBarrier barrier(threads);
    std::vector<WorkerCtx> ctxs(threads);
    bool stop = false;  // leader-written between barriers (release via
                        // the barrier's sense publish, acquire on spin)

    auto worker = [&](unsigned w) {
      const auto [qb, qe] = split_range(num_queues, threads, w);
      const auto [lb, le] = split_range(link_to_.size(), threads, w);
      const auto [nb, ne] = split_range(num_nodes, threads, w);
      bool sense = false;
      for (std::uint64_t step = 1;; ++step) {
        phase_a(qb, qe, ctxs[w]);
        if (multi_vc) {
          barrier.arrive_and_wait(sense, [] {});
          phase_arb(lb, le);
        }
        barrier.arrive_and_wait(sense, [] {});
        phase_b(nb, ne, ctxs[w]);
        barrier.arrive_and_wait(sense, [&, step] {
          std::uint64_t delivered = 0;
          std::uint64_t moved = 0;
          for (auto& c : ctxs) {
            delivered += c.delivered;
            moved += c.moved;
            c.delivered = 0;
            c.moved = 0;
          }
          delivered_total += delivered;
          moved_total += moved;
          if (delivered != 0) makespan = static_cast<std::uint32_t>(step);
          steps = step;
          if (delivered_total == num_packets_) {
            stop = true;
          } else if (moved == 0) {
            stalled = true;
            stop = true;
          } else if (opts_.max_steps != 0 && step >= opts_.max_steps) {
            overran = true;
            stop = true;
          }
        });
        if (stop) return;
      }
    };

    std::vector<std::thread> pool;
    pool.reserve(threads - 1);
    for (unsigned w = 1; w < threads; ++w) pool.emplace_back(worker, w);
    worker(0);
    for (auto& t : pool) t.join();
    for (const auto& c : ctxs) {
      stats.max_queue = std::max(stats.max_queue, c.max_queue);
    }
  }

  BFLY_CHECK(!stalled,
             "simulation stalled: no packet moved in a step (bounded "
             "virtual-channel deadlock — use stage-weighted vcs)");
  BFLY_CHECK(!overran, "simulation exceeded max_steps");
  BFLY_ASSERT_MSG(moved_total == total_hops_,
                  "every compiled hop is traversed exactly once");
  stats.delivered = static_cast<std::size_t>(delivered_total);
  stats.makespan = makespan;
  stats.steps = steps;
  return stats;
}

}  // namespace bfly::routing
