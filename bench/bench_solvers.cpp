// E11 — solver performance (google-benchmark): the exact engines,
// the heuristics, the analytic MOS optimum, and Beneš routing.
#include <benchmark/benchmark.h>

#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "cut/branch_bound.hpp"
#include "cut/brute_force.hpp"
#include "cut/constructive.hpp"
#include "cut/fiduccia_mattheyses.hpp"
#include "cut/mos_theory.hpp"
#include "cut/multilevel.hpp"
#include "cut/portfolio.hpp"
#include "cut/simulated_annealing.hpp"
#include "cut/spectral_bisection.hpp"
#include "expansion/expansion.hpp"
#include "robust/supervisor.hpp"
#include "routing/benes_route.hpp"
#include "topology/benes.hpp"
#include "topology/butterfly.hpp"
#include "topology/wrapped_butterfly.hpp"

namespace {

using namespace bfly;

void BM_ExhaustiveBisection_B4(benchmark::State& state) {
  const topo::Butterfly bf(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cut::min_bisection_exhaustive(bf.graph()));
  }
}
BENCHMARK(BM_ExhaustiveBisection_B4);

void BM_BranchBoundBisection_B8(benchmark::State& state) {
  const topo::Butterfly bf(8);
  for (auto _ : state) {
    cut::BranchBoundOptions opts;
    opts.initial_bound = 8;
    benchmark::DoNotOptimize(
        cut::min_bisection_branch_bound(bf.graph(), opts));
  }
}
BENCHMARK(BM_BranchBoundBisection_B8);

void BM_FiducciaMattheyses(benchmark::State& state) {
  const topo::Butterfly bf(static_cast<std::uint32_t>(state.range(0)));
  cut::FiducciaMattheysesOptions opts;
  opts.restarts = 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cut::min_bisection_fiduccia_mattheyses(bf.graph(), opts));
  }
}
BENCHMARK(BM_FiducciaMattheyses)->Arg(16)->Arg(64)->Arg(256);

void BM_SimulatedAnnealing_B16(benchmark::State& state) {
  const topo::Butterfly bf(16);
  cut::SimulatedAnnealingOptions opts;
  opts.restarts = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cut::min_bisection_simulated_annealing(bf.graph(), opts));
  }
}
BENCHMARK(BM_SimulatedAnnealing_B16);

void BM_Multilevel(benchmark::State& state) {
  const topo::Butterfly bf(static_cast<std::uint32_t>(state.range(0)));
  cut::MultilevelOptions opts;
  opts.cycles = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cut::min_bisection_multilevel(bf.graph(), opts));
  }
}
BENCHMARK(BM_Multilevel)->Arg(64)->Arg(256)->Arg(1024);

void BM_SpectralBisection(benchmark::State& state) {
  const topo::Butterfly bf(static_cast<std::uint32_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(cut::min_bisection_spectral(bf.graph()));
  }
}
BENCHMARK(BM_SpectralBisection)->Arg(64)->Arg(256);

// The old workflow: every heuristic solver run one after another on the
// same seeds the portfolio derives. Baseline for BM_Portfolio.
void BM_SerialSolverSweep(benchmark::State& state) {
  const topo::Butterfly bf(static_cast<std::uint32_t>(state.range(0)));
  const Graph& g = bf.graph();
  const auto seeds = cut::derive_portfolio_seeds(0xbe7cull);
  for (auto _ : state) {
    cut::SpectralBisectionOptions sp;
    sp.seed = seeds.spectral;
    benchmark::DoNotOptimize(cut::min_bisection_spectral(g, sp));
    cut::MultilevelOptions ml;
    ml.seed = seeds.multilevel;
    benchmark::DoNotOptimize(cut::min_bisection_multilevel(g, ml));
    cut::FiducciaMattheysesOptions fm;
    fm.seed = seeds.fm;
    benchmark::DoNotOptimize(cut::min_bisection_fiduccia_mattheyses(g, fm));
    cut::SimulatedAnnealingOptions sa;
    sa.seed = seeds.sa;
    benchmark::DoNotOptimize(cut::min_bisection_simulated_annealing(g, sa));
  }
}
BENCHMARK(BM_SerialSolverSweep)->Arg(16)->Arg(64);

// The same solvers raced by the portfolio at 4 threads with a shared
// incumbent (no exact engine, matching the sweep above).
void BM_Portfolio4Threads(benchmark::State& state) {
  const topo::Butterfly bf(static_cast<std::uint32_t>(state.range(0)));
  cut::PortfolioOptions opts;
  opts.master_seed = 0xbe7cull;
  opts.num_threads = 4;
  opts.run_branch_bound = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cut::min_bisection_portfolio(bf.graph(), opts));
  }
}
BENCHMARK(BM_Portfolio4Threads)->Arg(16)->Arg(64);

// Incumbent value for exact search: branch-and-bound from a cold start
// vs consuming a multilevel cut as its live upper bound (what the
// portfolio does). Same proof, smaller tree.
void BM_BranchBound_Cold_W16(benchmark::State& state) {
  const topo::WrappedButterfly wb(16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cut::min_bisection_branch_bound(wb.graph()));
  }
}
BENCHMARK(BM_BranchBound_Cold_W16);

void BM_BranchBound_HeuristicIncumbent_W16(benchmark::State& state) {
  const topo::WrappedButterfly wb(16);
  const auto ml = cut::min_bisection_multilevel(wb.graph());
  for (auto _ : state) {
    std::atomic<std::size_t> incumbent{ml.capacity};
    cut::BranchBoundOptions opts;
    opts.live_bound = &incumbent;
    benchmark::DoNotOptimize(
        cut::min_bisection_branch_bound(wb.graph(), opts));
  }
}
BENCHMARK(BM_BranchBound_HeuristicIncumbent_W16);

// Supervisor resilience telemetry lands in the JSON record: status (0 =
// exact-optimal, 1 = degraded-heuristic, 2 = failed), retries consumed,
// the ladder step that produced the answer, and the supervised solve's
// own wall clock — so a perf dashboard can tell a clean exact run from
// one that survived by degrading.
void report_supervision(benchmark::State& state,
                        robust::SolveStatus status, unsigned retries,
                        unsigned degradation_step, double wall_seconds) {
  state.counters["status"] = static_cast<double>(status);
  state.counters["retries"] = retries;
  state.counters["degradation_step"] = degradation_step;
  state.counters["wall_clock_s"] = wall_seconds;
  state.SetLabel(robust::to_string(status));
}

// The supervisor around the exact engine on an unconstrained solve: the
// delta against BM_BranchBoundBisection_B8 is the supervision overhead
// (one progress cell store per flush, a token poll, a report).
void BM_SupervisedBisection_B8(benchmark::State& state) {
  const topo::Butterfly bf(8);
  const robust::Supervisor sup;
  robust::SolveReport rep;
  for (auto _ : state) {
    rep = sup.solve_bisection(bf.graph());
    benchmark::DoNotOptimize(rep);
  }
  report_supervision(state, rep.status, rep.retries, rep.degradation_step,
                     rep.wall_seconds);
}
BENCHMARK(BM_SupervisedBisection_B8);

// A deliberately starved deadline: the ladder degrades instead of
// hanging, and the JSON row records how far down it went.
void BM_SupervisedBisection_TightDeadline_B16(benchmark::State& state) {
  const topo::Butterfly bf(16);
  robust::SupervisorOptions so;
  so.deadline_seconds = 0.02;
  const robust::Supervisor sup(so);
  robust::SolveReport rep;
  for (auto _ : state) {
    rep = sup.solve_bisection(bf.graph());
    benchmark::DoNotOptimize(rep);
  }
  report_supervision(state, rep.status, rep.retries, rep.degradation_step,
                     rep.wall_seconds);
}
BENCHMARK(BM_SupervisedBisection_TightDeadline_B16);

void BM_SupervisedExpansion_B4(benchmark::State& state) {
  const topo::Butterfly bf(4);
  const robust::Supervisor sup;
  robust::ExpansionReport rep;
  for (auto _ : state) {
    rep = sup.solve_expansion(bf.graph());
    benchmark::DoNotOptimize(rep);
  }
  report_supervision(state, rep.status, rep.retries, rep.degradation_step,
                     rep.wall_seconds);
}
BENCHMARK(BM_SupervisedExpansion_B4);

void BM_MosAnalyticOptimum(benchmark::State& state) {
  const auto j = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(cut::mos_m2_bisection_value(j));
  }
}
BENCHMARK(BM_MosAnalyticOptimum)->Arg(1024)->Arg(1 << 16)->Arg(1 << 20);

void BM_ExactExpansionSweep_B4(benchmark::State& state) {
  const topo::Butterfly bf(4);
  for (auto _ : state) {
    expansion::ExactExpansionOptions opts;
    opts.keep_witnesses = false;
    benchmark::DoNotOptimize(expansion::exact_expansion(bf.graph(), opts));
  }
}
BENCHMARK(BM_ExactExpansionSweep_B4);

void BM_BenesLooping(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const topo::Benes benes(n);
  Rng rng(9);
  std::vector<std::uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  shuffle(perm, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(routing::route_permutation(benes, perm));
  }
}
BENCHMARK(BM_BenesLooping)->Arg(16)->Arg(64)->Arg(256);

void BM_ButterflyConstruction(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(topo::Butterfly(n));
  }
}
BENCHMARK(BM_ButterflyConstruction)->Arg(256)->Arg(4096);

}  // namespace

// Like BENCHMARK_MAIN(), but defaults to writing BENCH_solvers.json next
// to the binary's working directory so every run leaves a machine-
// readable record (EXPERIMENTS.md documents the schema). Explicit
// --benchmark_out flags still win.
int main(int argc, char** argv) {
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out", 15) == 0) has_out = true;
  }
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=BENCH_solvers.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
