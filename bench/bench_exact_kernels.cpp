// E19 — exact-kernel performance: the scalar reference kernels vs the
// word-level bitset branch-and-bound and the sharded exhaustive
// expansion sweep, old-vs-new on the same instances.
//
// Emits one machine-readable JSON file (BENCH_exact_kernels.json in the
// working directory, overridable with --out=<path>) with rows
//   {instance, kernel, threads, seconds, visited_nodes, capacity,
//    nodes_per_sec, ws_spawned, ws_steals, ws_idle_seconds}
// where `capacity` is the proved bisection width for bisection rows and
// EE(G, floor(N/2)) for expansion rows (the full tables are compared
// internally). The binary exits nonzero if any new kernel disagrees
// with its scalar reference — CI runs `bench_exact_kernels --smoke`
// (small instance set, < 60 s even in Debug) as a correctness gate and
// uploads the JSON as an artifact. Without --smoke the full instance
// set runs, sized for Release timing (W16/CCC16 bisection, exact B16
// closure, a 26-node exhaustive expansion).
//
// E23 — SIMD dispatch trajectory: node-budgeted bitset B&B rows named
// `bb-bitset@<level>` run the identical search at each pinned dispatch
// level (scalar, avx2 when detected). The node
// budget makes visited counts level-invariant — any divergence is a
// kernel bug and fails the run — so the wall-clock ratio IS the
// nodes/s ratio. The W32 rows define `bb_simd_speedup` in the JSON
// (avx2 over scalar), which compare_bench.py gates. `--dispatch=<level>`
// pins the whole run (clamped to what the CPU supports, loudly).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "core/simd.hpp"
#include "core/thread_pool.hpp"
#include "cut/branch_bound.hpp"
#include "cut/constructive.hpp"
#include "expansion/expansion.hpp"
#include "topology/butterfly.hpp"
#include "topology/ccc.hpp"
#include "topology/wrapped_butterfly.hpp"

namespace {

using namespace bfly;

struct Row {
  std::string instance;
  std::string kernel;
  unsigned threads = 1;
  double seconds = 0.0;
  std::uint64_t visited_nodes = 0;
  std::size_t capacity = 0;
  double nodes_per_sec = 0.0;
  std::uint64_t ws_spawned = 0;
  std::uint64_t ws_steals = 0;
  double ws_idle_seconds = 0.0;
};

std::vector<Row> g_rows;
int g_failures = 0;
// AVX2-over-scalar nodes/s ratio from the W32 budgeted rows; 0 until
// measured (or when the machine / --dispatch pin rules AVX2 out).
double g_bb_simd_speedup = 0.0;

void push_row(Row r) {
  r.nodes_per_sec = r.seconds > 0.0
                        ? static_cast<double>(r.visited_nodes) / r.seconds
                        : 0.0;
  std::printf(
      "%-10s %-18s threads=%u  %10.4fs  visited=%llu  capacity=%zu"
      "  (%.0f nodes/s, steals %llu/%llu)\n",
      r.instance.c_str(), r.kernel.c_str(), r.threads, r.seconds,
      static_cast<unsigned long long>(r.visited_nodes), r.capacity,
      r.nodes_per_sec, static_cast<unsigned long long>(r.ws_steals),
      static_cast<unsigned long long>(r.ws_spawned));
  g_rows.push_back(std::move(r));
}

Graph random_graph(NodeId n, double p, std::uint64_t seed) {
  Rng rng(seed);
  GraphBuilder gb(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      if (rng.bernoulli(p)) gb.add_edge(u, v);
    }
  }
  return std::move(gb).build();
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

cut::CutResult run_bisection(const std::string& instance, const Graph& g,
                             cut::BranchBoundKernel kernel, unsigned threads,
                             const char* kernel_name) {
  cut::BranchBoundOptions opts;
  opts.kernel = kernel;
  opts.num_threads = threads;
  const auto t0 = std::chrono::steady_clock::now();
  const auto res = cut::min_bisection_branch_bound(g, opts);
  const double secs = seconds_since(t0);
  push_row({instance, kernel_name, threads, secs, res.nodes_visited,
            res.capacity, 0.0, res.ws_spawned, res.ws_steals,
            res.ws_idle_seconds});
  return res;
}

// E23: the same node-budgeted bitset search at each pinned dispatch
// level. Budgeting decouples the measurement from closure — B16/W32 are
// exact-frontier instances — while keeping the visited count a
// deterministic level-invariant (the kernels are bit-identical by
// contract, so the search trace is too). Returns the avx2/scalar
// nodes-per-second ratio, or 0 when no AVX2 row ran.
double dispatch_case(const std::string& instance, const Graph& g,
                     std::uint64_t node_budget) {
  using simd::DispatchLevel;
  const DispatchLevel cap = simd::active_level();  // honors --dispatch pin
  const DispatchLevel restore = cap;
  double secs_by_level[2] = {0.0, 0.0};
  std::uint64_t ref_nodes = 0;
  std::size_t ref_capacity = 0;
  for (const DispatchLevel level :
       {DispatchLevel::kScalar, DispatchLevel::kAvx2}) {
    if (level > cap) continue;
    simd::set_active_level(level);
    cut::BranchBoundOptions opts;
    opts.kernel = cut::BranchBoundKernel::kBitset;
    opts.node_limit = node_budget;
    const auto t0 = std::chrono::steady_clock::now();
    const auto res = cut::min_bisection_branch_bound(g, opts);
    const double secs = seconds_since(t0);
    const std::string name = "bb-bitset@" + std::string(simd::to_string(level));
    push_row({instance, name, 1, secs, res.nodes_visited, res.capacity, 0.0,
              res.ws_spawned, res.ws_steals, res.ws_idle_seconds});
    secs_by_level[static_cast<int>(level)] = secs;
    if (level == DispatchLevel::kScalar) {
      ref_nodes = res.nodes_visited;
      ref_capacity = res.capacity;
    } else if (res.nodes_visited != ref_nodes ||
               res.capacity != ref_capacity) {
      std::fprintf(stderr,
                   "MISMATCH %s: %s visited %llu nodes / capacity %zu, "
                   "scalar dispatch visited %llu / capacity %zu\n",
                   instance.c_str(), name.c_str(),
                   static_cast<unsigned long long>(res.nodes_visited),
                   res.capacity, static_cast<unsigned long long>(ref_nodes),
                   ref_capacity);
      ++g_failures;
    }
  }
  simd::set_active_level(restore);
  const double scalar = secs_by_level[static_cast<int>(DispatchLevel::kScalar)];
  const double avx2 = secs_by_level[static_cast<int>(DispatchLevel::kAvx2)];
  return (scalar > 0.0 && avx2 > 0.0) ? scalar / avx2 : 0.0;
}

// Work-stealing telemetry row: the budgeted bitset search fanned out
// over more workers than this machine may have cores — steal counters
// land in the JSON either way, and threads>1 rows are exempt from the
// node-count gate (the shared incumbent races).
void steal_telemetry_case(const std::string& instance, const Graph& g,
                          std::uint64_t node_budget) {
  cut::BranchBoundOptions opts;
  opts.kernel = cut::BranchBoundKernel::kBitset;
  opts.node_limit = node_budget;
  opts.num_threads = 4;
  const auto t0 = std::chrono::steady_clock::now();
  const auto res = cut::min_bisection_branch_bound(g, opts);
  const double secs = seconds_since(t0);
  push_row({instance, "bb-bitset-ws", 4, secs, res.nodes_visited, res.capacity,
            0.0, res.ws_spawned, res.ws_steals, res.ws_idle_seconds});
}

void bisection_case(const std::string& instance, const Graph& g,
                    unsigned max_threads) {
  const auto scalar = run_bisection(instance, g, cut::BranchBoundKernel::kScalar,
                                    1, "bb-scalar");
  const auto bitset = run_bisection(instance, g, cut::BranchBoundKernel::kBitset,
                                    1, "bb-bitset");
  if (bitset.capacity != scalar.capacity) {
    std::fprintf(stderr,
                 "MISMATCH %s: bb-bitset capacity %zu != bb-scalar %zu\n",
                 instance.c_str(), bitset.capacity, scalar.capacity);
    ++g_failures;
  }
  if (max_threads > 1) {
    const auto par = run_bisection(instance, g, cut::BranchBoundKernel::kBitset,
                                   max_threads, "bb-bitset-par");
    if (par.capacity != scalar.capacity) {
      std::fprintf(
          stderr,
          "MISMATCH %s: bb-bitset-par capacity %zu != bb-scalar %zu\n",
          instance.c_str(), par.capacity, scalar.capacity);
      ++g_failures;
    }
  }
}

void expansion_case(const std::string& instance, const Graph& g,
                    unsigned max_threads,
                    const algo::PermutationGroup* sym = nullptr) {
  expansion::ExactExpansionOptions base;
  base.max_states = 1ull << 28;
  base.keep_witnesses = false;

  const std::size_t mid = g.num_nodes() / 2;

  auto run = [&](unsigned threads, unsigned shard_bits,
                 const char* kernel_name,
                 const algo::PermutationGroup* group = nullptr) {
    expansion::ExactExpansionOptions opts = base;
    opts.num_threads = threads;
    opts.shard_bits = shard_bits;
    opts.symmetry = group;
    const auto t0 = std::chrono::steady_clock::now();
    const auto res = expansion::exact_expansion_full(g, opts);
    const double secs = seconds_since(t0);
    // Symmetry-reduced rows record the states actually enumerated (the
    // real work); visited_states is the weighted coverage, 2^N always.
    push_row({instance, kernel_name, threads, secs, res.scanned_states,
              res.table[mid].ee, 0.0, res.ws_spawned, res.ws_steals,
              res.ws_idle_seconds});
    return res;
  };

  const auto serial = run(1, 0, "sweep-serial");
  // Sharded with a fixed shard count (deterministic regardless of the
  // worker count), first drained serially, then by the thread pool.
  const auto sharded = run(1, 4, "sweep-sharded");
  const auto par = max_threads > 1
                       ? run(max_threads, 0, "sweep-sharded-par")
                       : sharded;
  const auto symr =
      sym != nullptr ? run(1, 4, "sweep-sym", sym) : sharded;
  for (const auto* other : {&sharded, &par, &symr}) {
    for (std::size_t k = 1; k < serial.table.size(); ++k) {
      if (other->table[k].ee != serial.table[k].ee ||
          other->table[k].ne != serial.table[k].ne) {
        std::fprintf(stderr,
                     "MISMATCH %s: sharded sweep table differs from serial "
                     "at k=%zu (ee %zu vs %zu, ne %zu vs %zu)\n",
                     instance.c_str(), k, other->table[k].ee,
                     serial.table[k].ee, other->table[k].ne,
                     serial.table[k].ne);
        ++g_failures;
        break;
      }
    }
  }
}

void write_json(const std::string& path, bool smoke) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    ++g_failures;
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"exact_kernels\",\n");
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f, "  \"mismatches\": %d,\n", g_failures);
  std::fprintf(f, "  \"dispatch_detected\": \"%s\",\n",
               simd::to_string(simd::detected_level()));
  std::fprintf(f, "  \"dispatch_active\": \"%s\",\n",
               simd::to_string(simd::active_level()));
  std::fprintf(f, "  \"bb_simd_speedup\": %.3f,\n", g_bb_simd_speedup);
  // Per-level scalar-relative speedups from the W32 rows, for humans
  // reading the archived JSON (compare_bench.py derives them from rows).
  std::fprintf(f, "  \"bb_simd_speedup_by_level\": {\"avx2\": %.3f},\n",
               g_bb_simd_speedup);
  std::fprintf(f, "  \"rows\": [\n");
  for (std::size_t i = 0; i < g_rows.size(); ++i) {
    const Row& r = g_rows[i];
    std::fprintf(f,
                 "    {\"instance\": \"%s\", \"kernel\": \"%s\", "
                 "\"threads\": %u, \"seconds\": %.6f, "
                 "\"visited_nodes\": %llu, \"capacity\": %zu, "
                 "\"nodes_per_sec\": %.1f, \"ws_spawned\": %llu, "
                 "\"ws_steals\": %llu, \"ws_idle_seconds\": %.6f}%s\n",
                 r.instance.c_str(), r.kernel.c_str(), r.threads, r.seconds,
                 static_cast<unsigned long long>(r.visited_nodes), r.capacity,
                 r.nodes_per_sec,
                 static_cast<unsigned long long>(r.ws_spawned),
                 static_cast<unsigned long long>(r.ws_steals),
                 r.ws_idle_seconds, i + 1 < g_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s (%zu rows)\n", path.c_str(), g_rows.size());
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out = "BENCH_exact_kernels.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out = argv[i] + 6;
    } else if (std::strncmp(argv[i], "--dispatch=", 11) == 0) {
      simd::DispatchLevel level = simd::DispatchLevel::kScalar;
      if (!simd::parse_level(argv[i] + 11, level)) {
        std::fprintf(stderr,
                     "unknown dispatch level '%s' "
                     "(want scalar or avx2)\n",
                     argv[i] + 11);
        return 2;
      }
      if (!simd::set_active_level(level)) {
        std::fprintf(stderr,
                     "warning: --dispatch=%s exceeds this CPU's detected "
                     "level %s; keeping %s\n",
                     simd::to_string(level),
                     simd::to_string(simd::detected_level()),
                     simd::to_string(simd::active_level()));
      }
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--out=<path>] "
                   "[--dispatch=scalar|avx2]\n",
                   argv[0]);
      return 2;
    }
  }
  const unsigned hw = default_thread_count();
  const unsigned max_threads = hw > 1 ? hw : 1;
  std::printf(
      "exact-kernel bench (%s mode, %u hardware threads, "
      "simd detected=%s active=%s)\n",
      smoke ? "smoke" : "full", hw, simd::to_string(simd::detected_level()),
      simd::to_string(simd::active_level()));

  const topo::Butterfly b4(4), b8(8);
  const topo::WrappedButterfly w8(8), w16(16);
  const topo::CubeConnectedCycles c8(8), c16(16);
  // Automorphism groups for the orbit-sharded sweep-sym rows. Random
  // instances get none — their generic graphs have trivial groups.
  const algo::PermutationGroup gb4(b4.graph().num_nodes(),
                                   b4.automorphism_generators());
  const algo::PermutationGroup gw8(w8.graph().num_nodes(),
                                   w8.automorphism_generators());

  // --- branch-and-bound bisection, scalar vs bitset ---
  bisection_case("B4", b4.graph(), max_threads);
  bisection_case("B8", b8.graph(), max_threads);
  bisection_case("W8", w8.graph(), max_threads);
  bisection_case("CCC8", c8.graph(), max_threads);
  bisection_case("rand16", random_graph(16, 0.4, 7), max_threads);
  if (smoke) {
    // The scalar reference cannot close CCC16 inside the smoke budget;
    // the serial bitset kernel does (~257k nodes), and its node count
    // is gated like every other serial row.
    run_bisection("CCC16", c16.graph(), cut::BranchBoundKernel::kBitset, 1,
                  "bb-bitset");
  } else {
    bisection_case("rand24", random_graph(24, 0.3, 11), max_threads);
    bisection_case("W16", w16.graph(), max_threads);
    bisection_case("CCC16", c16.graph(), max_threads);
  }

  // --- E23: dispatch trajectory + work-stealing telemetry on the exact
  // frontier (B16: 80 nodes, W32: 160 nodes). Node-budgeted so the rows
  // measure kernel throughput, not closure. W32 is the speedup metric —
  // at 160 nodes (3 mask words) the vector sweeps dominate; B16 rides
  // along to show the trajectory on the paper's own family.
  const topo::Butterfly b16(16);
  const topo::WrappedButterfly w32(32);
  const std::uint64_t budget = smoke ? 1'500'000ull : 8'000'000ull;
  dispatch_case("B16", b16.graph(), budget);
  g_bb_simd_speedup = dispatch_case("W32", w32.graph(), budget);
  if (g_bb_simd_speedup > 0.0) {
    std::printf("bb_simd_speedup (W32, avx2/scalar nodes/s): %.2fx\n",
                g_bb_simd_speedup);
  }
  steal_telemetry_case("W32", w32.graph(), budget);
  if (!smoke) {
    // Exact B16 closure: seeded with the constructive column-split
    // incumbent (the paper's upper bound, capacity 16) the bitset
    // kernel proves B16's bisection width within the full-bench budget.
    cut::BranchBoundOptions exact_opts;
    exact_opts.kernel = cut::BranchBoundKernel::kBitset;
    exact_opts.initial_bound = cut::column_split_bisection(b16).capacity + 1;
    const auto t0 = std::chrono::steady_clock::now();
    const auto res = cut::min_bisection_branch_bound(b16.graph(), exact_opts);
    const double secs = seconds_since(t0);
    push_row({"B16", "bb-bitset-exact", 1, secs, res.nodes_visited,
              res.capacity, 0.0, res.ws_spawned, res.ws_steals,
              res.ws_idle_seconds});
    if (res.exactness != cut::Exactness::kExact) {
      std::fprintf(stderr, "MISMATCH B16: bb-bitset-exact did not close\n");
      ++g_failures;
    }
  }

  // --- exhaustive expansion sweep, serial vs sharded vs symmetry ---
  expansion_case("B4", b4.graph(), max_threads, &gb4);  // 12 nodes
  expansion_case("rand18", random_graph(18, 0.3, 5), max_threads);
  if (!smoke) {
    expansion_case("W8", w8.graph(), max_threads, &gw8);  // 24 nodes
    expansion_case("rand26", random_graph(26, 0.25, 3), max_threads);
  }

  write_json(out, smoke);
  if (g_failures != 0) {
    std::fprintf(stderr, "%d kernel mismatches\n", g_failures);
    return 1;
  }
  return 0;
}
