// E22 — flow-certified expansion: the certification subsystem scored
// against the exhaustive sweeps on paper topologies, superconcentration
// query families on concatenated butterfly pairs, B1024-scale witness
// certification on the CSR Dinic network, and the heuristic
// portfolio (FM / multilevel / spectral / vertex) on the random
// d-regular corpus, every witness checked against its flow bound.
//
// Emits BENCH_cert.json (--out=<path>) with rows
//   {instance, kernel, threads, seconds, visited_nodes, capacity}
// where `capacity` is the certified value of the row (flow, width or
// cut) and `visited_nodes` counts certificates or flow queries for
// deterministic rows, 0 for wall-clock-only rows. Exits nonzero when
// any certificate rejects a witness the solvers claim — CI runs
// `bench_cert --smoke` behind the compare_bench.py gate. The smoke
// corpus includes one 10^5-node random 4-regular instance, so heuristic
// cuts at that scale ship with certified (not sampled) values.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "cert/expansion_certificate.hpp"
#include "cert/superconcentration.hpp"
#include "cut/constructive.hpp"
#include "cut/fiduccia_mattheyses.hpp"
#include "cut/multilevel.hpp"
#include "cut/spectral_bisection.hpp"
#include "cut/vertex_bisection.hpp"
#include "expansion/expansion.hpp"
#include "topology/butterfly.hpp"
#include "topology/ccc.hpp"
#include "topology/random_regular.hpp"
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
};

std::vector<Row> g_rows;
int g_failures = 0;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

void push_row(const std::string& instance, const char* kernel, double secs,
              std::uint64_t visited, std::size_t capacity) {
  g_rows.push_back({instance, kernel, 1, secs, visited, capacity});
  std::printf("%-12s %-18s threads=1  %10.4fs  visited=%llu  capacity=%zu\n",
              instance.c_str(), kernel, secs,
              static_cast<unsigned long long>(visited), capacity);
}

// Certify every witness the exhaustive sweep emits; `visited_nodes`
// counts the certificates checked (deterministic), `capacity` the
// midpoint EE.
void differential_case(const std::string& instance, const Graph& g) {
  const auto table = expansion::exact_expansion(g);
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t checked = 0;
  for (std::size_t k = 1; k + 1 < table.size(); ++k) {
    const auto& entry = table[k];
    const auto ee = cert::certify_edge_boundary(
        g, entry.ee_witness, static_cast<std::int64_t>(entry.ee));
    const auto ne = cert::certify_node_boundary(
        g, entry.ne_witness, static_cast<std::int64_t>(entry.ne));
    checked += 2;
    if (!ee.certified || !ne.certified) {
      std::fprintf(stderr,
                   "MISMATCH %s: exact witness rejected at k=%zu "
                   "(ee flow %lld vs %zu, ne recount %lld vs %zu)\n",
                   instance.c_str(), k, static_cast<long long>(ee.flow),
                   entry.ee, static_cast<long long>(ne.recounted), entry.ne);
      ++g_failures;
    }
  }
  push_row(instance, "cert-differential", seconds_since(t0), checked,
           table[g.num_nodes() / 2].ee);
}

void superconc_case(std::uint32_t n, const cert::SuperconcOptions& opts,
                    bool expect_exhaustive) {
  const cert::ConcatenatedButterflyPair pair =
      cert::concatenated_butterfly_pair(n);
  const auto t0 = std::chrono::steady_clock::now();
  const auto c = cert::certify_superconcentration(pair.graph, pair.inputs,
                                                  pair.outputs, opts);
  const double secs = seconds_since(t0);
  const std::string instance = "Pair" + std::to_string(n);
  if (!c.certified || c.exhaustive != expect_exhaustive) {
    std::fprintf(stderr, "MISMATCH %s: %llu of %llu queries failed\n",
                 instance.c_str(),
                 static_cast<unsigned long long>(c.failures),
                 static_cast<unsigned long long>(c.queries));
    ++g_failures;
  }
  push_row(instance, c.exhaustive ? "superconc-exhaust" : "superconc-sampled",
           secs, c.queries, n);
}

// B1024-scale witness certification: the constructive column split has
// capacity exactly n; certify it. Wall-clock row (visited 0).
void butterfly_scale_case(std::uint32_t cols) {
  const topo::Butterfly bf(cols);
  const cut::CutResult split = cut::column_split_bisection(bf);
  std::vector<NodeId> side0;
  for (NodeId v = 0; v < bf.graph().num_nodes(); ++v) {
    if (split.sides[v] == 0) side0.push_back(v);
  }
  const std::string instance = "B" + std::to_string(cols);
  const auto t0 = std::chrono::steady_clock::now();
  const auto c = cert::certify_edge_boundary(
      bf.graph(), side0, static_cast<std::int64_t>(split.capacity));
  push_row(instance, "cert-ee-csr", seconds_since(t0), 0,
           static_cast<std::size_t>(c.flow));
  if (!c.certified) {
    std::fprintf(stderr,
                 "MISMATCH %s: column split capacity %zu, csr flow %lld\n",
                 instance.c_str(), split.capacity,
                 static_cast<long long>(c.flow));
    ++g_failures;
  }
}

// One heuristic witness on a corpus instance: report the heuristic cut,
// then its certified recount (flow == cut or the witness is rejected).
void scored_witness(const std::string& instance, const Graph& g,
                    const char* solver, const cut::CutResult& cut,
                    double solver_secs) {
  std::vector<NodeId> side0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (cut.sides[v] == 0) side0.push_back(v);
  }
  const auto t0 = std::chrono::steady_clock::now();
  const auto cert = cert::certify_edge_boundary(
      g, side0, static_cast<std::int64_t>(cut.capacity));
  const double secs = seconds_since(t0);
  if (!cert.certified) {
    std::fprintf(stderr, "MISMATCH %s/%s: claimed cut %zu, flow %lld\n",
                 instance.c_str(), solver, cut.capacity,
                 static_cast<long long>(cert.flow));
    ++g_failures;
  }
  push_row(instance, solver, solver_secs, 0, cut.capacity);
  push_row(instance, (std::string("cert-") + solver).c_str(), secs, 0,
           static_cast<std::size_t>(cert.flow));
}

// The full heuristic portfolio on a mid-sized corpus instance, plus
// class-wide certified bounds and the vertex-bisection objective.
void corpus_case(const std::string& instance, const Graph& g,
                 std::uint64_t seed) {
  {
    cut::FiducciaMattheysesOptions fm;
    fm.seed = seed;
    fm.restarts = 4;
    const auto t0 = std::chrono::steady_clock::now();
    const auto cut = cut::min_bisection_fiduccia_mattheyses(g, fm);
    scored_witness(instance, g, "fm", cut, seconds_since(t0));
  }
  {
    cut::MultilevelOptions ml;
    ml.seed = seed;
    const auto t0 = std::chrono::steady_clock::now();
    const auto cut = cut::min_bisection_multilevel(g, ml);
    scored_witness(instance, g, "multilevel", cut, seconds_since(t0));
  }
  {
    cut::SpectralBisectionOptions sp;
    sp.seed = seed;
    const auto t0 = std::chrono::steady_clock::now();
    const auto cut = cut::min_bisection_spectral(g, sp);
    scored_witness(instance, g, "spectral", cut, seconds_since(t0));
  }
  {
    const auto t0 = std::chrono::steady_clock::now();
    const cert::ExpansionClassBound bound = cert::expansion_class_bounds(g);
    push_row(instance, "cert-lambda", seconds_since(t0), 0,
             static_cast<std::size_t>(bound.lambda));
    if (bound.lambda < 0 || bound.kappa < 0 || bound.kappa > bound.lambda) {
      // kappa <= lambda <= min degree always (Whitney).
      std::fprintf(stderr, "MISMATCH %s: kappa %lld > lambda %lld\n",
                   instance.c_str(), static_cast<long long>(bound.kappa),
                   static_cast<long long>(bound.lambda));
      ++g_failures;
    }
  }
  {
    cut::PortfolioOptions po;
    po.master_seed = seed;
    po.num_threads = 1;
    po.run_branch_bound = false;
    // Trim the portfolio legs to corpus scale and keep the row's wall
    // clock small enough that the >25% bench gate measures regressions,
    // not CI hardware variance.
    po.sa.restarts = 1;
    po.sa.steps_per_temperature = 2000;
    po.fm.restarts = 4;
    const auto t0 = std::chrono::steady_clock::now();
    const auto vb = cut::vertex_bisection_portfolio(g, po);
    const double secs = seconds_since(t0);
    cut::validate_vertex_bisection(g, vb);
    push_row(instance, "vertex-portfolio", secs, 0, vb.width);
    push_row(instance, "cert-vertex", 0.0, 0,
             static_cast<std::size_t>(vb.certified_lower));
  }
}

// The >= 10^5-node acceptance row: one FM witness on a 100k-node random
// 4-regular instance, flow-certified within the smoke budget.
void corpus_scale_case(const std::string& instance, NodeId n,
                       std::uint32_t degree, std::uint64_t seed) {
  const Graph g = topo::random_regular(n, degree, seed);
  cut::FiducciaMattheysesOptions fm;
  fm.seed = seed;
  fm.restarts = 1;
  const auto t0 = std::chrono::steady_clock::now();
  const auto cut = cut::min_bisection_fiduccia_mattheyses(g, fm);
  scored_witness(instance, g, "fm", cut, seconds_since(t0));
}

void write_json(const std::string& path, bool smoke) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    ++g_failures;
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"cert\",\n");
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f, "  \"mismatches\": %d,\n", g_failures);
  std::fprintf(f, "  \"rows\": [\n");
  for (std::size_t i = 0; i < g_rows.size(); ++i) {
    const Row& r = g_rows[i];
    std::fprintf(f,
                 "    {\"instance\": \"%s\", \"kernel\": \"%s\", "
                 "\"threads\": %u, \"seconds\": %.6f, "
                 "\"visited_nodes\": %llu, \"capacity\": %zu}%s\n",
                 r.instance.c_str(), r.kernel.c_str(), r.threads, r.seconds,
                 static_cast<unsigned long long>(r.visited_nodes), r.capacity,
                 i + 1 < g_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s (%zu rows)\n", path.c_str(), g_rows.size());
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out = "BENCH_cert.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out = argv[i] + 6;
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out=<path>]\n", argv[0]);
      return 2;
    }
  }
  std::printf("flow-certification bench (%s mode)\n",
              smoke ? "smoke" : "full");

  // --- exhaustive-sweep differentials on paper topologies ---
  differential_case("B4", topo::Butterfly(4).graph());
  if (!smoke) {
    differential_case("W8", topo::WrappedButterfly(8).graph());
    differential_case("CCC8", topo::CubeConnectedCycles(8).graph());
  }

  // --- superconcentration query families ---
  {
    cert::SuperconcOptions sc;
    superconc_case(8, sc, /*expect_exhaustive=*/true);
    if (!smoke) {
      sc.samples = 256;
      sc.seed = 17;
      superconc_case(16, sc, /*expect_exhaustive=*/false);
    }
  }

  // --- B1024-scale witness certification ---
  butterfly_scale_case(smoke ? 256 : 1024);
  if (smoke) butterfly_scale_case(1024);

  // --- random d-regular corpus (arXiv 2211.03206 family) ---
  corpus_case("rr2k-d4", topo::random_regular(2000, 4, 1), 1);
  if (!smoke) corpus_case("rr10k-d4", topo::random_regular(10000, 4, 2), 2);
  corpus_scale_case("rr100k-d4", 100000, 4, 3);

  write_json(out, smoke);
  if (g_failures != 0) {
    std::fprintf(stderr, "%d certification failures\n", g_failures);
    return 1;
  }
  return 0;
}
