// bisection_explorer — compute bisections of any supported network with
// any solver in the library.
//
// Usage: bisection_explorer [family] [n] [solver]
//   family: bn | wn | ccc | hypercube | benes | mos   (default bn)
//   n:      power of two (default 16); for mos, the side j of MOS_{j,j}
//   solver: exact | bb | fm | sa | spectral | ml | portfolio |
//           folklore   (default fm; portfolio races everything at
//           hardware concurrency and prints per-solver telemetry)
#include <cstdlib>
#include <iostream>
#include <string>

#include "cut/branch_bound.hpp"
#include "cut/brute_force.hpp"
#include "cut/constructive.hpp"
#include "cut/fiduccia_mattheyses.hpp"
#include "cut/multilevel.hpp"
#include "cut/portfolio.hpp"
#include "cut/simulated_annealing.hpp"
#include "cut/spectral_bisection.hpp"
#include "topology/benes.hpp"
#include "topology/butterfly.hpp"
#include "topology/ccc.hpp"
#include "topology/hypercube.hpp"
#include "topology/mesh_of_stars.hpp"
#include "topology/wrapped_butterfly.hpp"

namespace {

using namespace bfly;

cut::CutResult solve(const Graph& g, const std::string& solver) {
  if (solver == "exact") return cut::min_bisection_exhaustive(g);
  if (solver == "bb") return cut::min_bisection_branch_bound(g);
  if (solver == "fm") return cut::min_bisection_fiduccia_mattheyses(g);
  if (solver == "sa") return cut::min_bisection_simulated_annealing(g);
  if (solver == "spectral") return cut::min_bisection_spectral(g);
  if (solver == "ml") return cut::min_bisection_multilevel(g);
  if (solver == "portfolio") {
    cut::PortfolioOptions opts;
    // Exact search only pays off on instances it can actually finish;
    // cap it so huge graphs degrade gracefully instead of spinning.
    opts.branch_bound_node_limit = 50'000'000;
    auto res = cut::min_bisection_portfolio(g, opts);
    cut::print_portfolio_telemetry(res, std::cout);
    return std::move(res.best);
  }
  throw PreconditionError("unknown solver: " + solver);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string family = argc > 1 ? argv[1] : "bn";
  const std::uint32_t n =
      argc > 2 ? static_cast<std::uint32_t>(std::atoi(argv[2])) : 16;
  const std::string solver = argc > 3 ? argv[3] : "fm";

  try {
    Graph g;
    std::string note;
    if (family == "bn") {
      const topo::Butterfly bf(n);
      if (solver == "folklore") {
        const auto r = cut::column_split_bisection(bf);
        std::cout << "B" << n << " folklore column split: capacity "
                  << r.capacity << "\n";
        return 0;
      }
      g = bf.graph();
      note = "folklore capacity would be " + std::to_string(n);
    } else if (family == "wn") {
      const topo::WrappedButterfly wb(n);
      g = wb.graph();
      note = "paper: BW = " + std::to_string(n);
    } else if (family == "ccc") {
      const topo::CubeConnectedCycles cc(n);
      g = cc.graph();
      note = "paper: BW = " + std::to_string(n / 2);
    } else if (family == "hypercube") {
      const topo::Hypercube q(n);
      g = q.graph();
      note = "known: BW = " + std::to_string(1u << (n - 1));
    } else if (family == "benes") {
      const topo::Benes b(n);
      g = b.graph();
    } else if (family == "mos") {
      const topo::MeshOfStars mos(n, n);
      g = mos.graph();
    } else {
      std::cerr << "unknown family: " << family << "\n";
      return 1;
    }

    const auto r = solve(g, solver);
    std::cout << family << " n=" << n << " (" << g.num_nodes()
              << " nodes, " << g.num_edges() << " edges)\n"
              << "solver " << r.method << ": capacity " << r.capacity
              << " [" << cut::to_string(r.exactness) << "]\n";
    if (!note.empty()) std::cout << note << "\n";
    std::size_t side0 = 0;
    for (const auto s : r.sides) side0 += s == 0;
    std::cout << "sides: " << side0 << " / " << (r.sides.size() - side0)
              << "\n";
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
