// EXP-N driver: sparse pivot kernel + word-sized exact scalar fast path.
//
// Workload: the round-1 support LP of SolvePsi (Ψ_S of the whole
// expansion with its support gadgets, as BuildIncrementalPsiBaseStructure
// builds it) on chain schemas, clustered schemas, and truncated prefixes
// of examples/schemas/dense_blowup.car, solved with
// SimplexSolver::Maximize once per tableau kernel:
//
//   dense-rational  dense rows of BigInt-backed Rationals (the
//                   pre-optimization kernel, the baseline),
//   sparse-scalar   compressed sparse rows of Scalars (production).
//
// Both kernels are exact and follow the identical Bland pivot sequence,
// so every cell asserts bit-identical LP results (outcome, objective,
// vertex, pivots, final nonzeros) across kernels, and bit-identical
// SolvePsi solutions (support, per-class verdicts, integer certificate,
// pivot counts) across a 1/2/8-thread sweep; the run fails if any
// differ. The SolvePsi statistics (LP solves, pivots, LP size, promotions,
// tableau fill), the kernel times and their ratio land as one JSON-lines
// record per cell in BENCH_pivot_kernel.json.
//
// This is a plain main (not google-benchmark): each cell is a handful of
// LP solves, the quantity of interest being the dense-vs-sparse
// wall-time ratio.
//
// Usage: bench_pivot_kernel [--threads=N] [--smoke] [--out=FILE]
//   --threads=N  restrict the SolvePsi thread sweep to just N
//   --smoke      tiny workload for CI

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "base/rng.h"
#include "bench_json.h"
#include "expansion/expansion.h"
#include "frontend/parser.h"
#include "solver/incremental_psi.h"
#include "solver/solve.h"
#include "workloads/generators.h"

namespace car {
namespace {

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Everything SolvePsi computes that the exactness contract promises is
/// thread-independent, pivot trajectory included.
bool SameSolution(const PsiSolution& a, const PsiSolution& b) {
  return a.cc_active == b.cc_active && a.ca_active == b.ca_active &&
         a.cr_active == b.cr_active &&
         a.class_satisfiable == b.class_satisfiable &&
         a.certificate.cc_count == b.certificate.cc_count &&
         a.certificate.ca_count == b.certificate.ca_count &&
         a.certificate.cr_count == b.certificate.cr_count &&
         a.fixpoint_rounds == b.fixpoint_rounds &&
         a.lp_solves == b.lp_solves && a.total_pivots == b.total_pivots;
}

/// Everything an LP solve returns that both kernels must agree on.
bool SameLp(const LpResult& a, const LpResult& b) {
  return a.outcome == b.outcome && a.objective == b.objective &&
         a.values == b.values && a.pivots == b.pivots &&
         a.tableau_nonzeros == b.tableau_nonzeros;
}

/// Solves the support LP with the given kernel `reps` times; returns the
/// last result and the best wall time (min over reps smooths scheduler
/// noise in the tiny smoke cells).
struct TimedLp {
  LpResult lp;
  double best_ms = 0;
  bool ok = false;
};
TimedLp RunKernel(const IncrementalPsiBase& support, SimplexKernel kernel,
                  int reps) {
  TimedLp timed;
  SimplexSolver::Options options;
  options.kernel = kernel;
  const SimplexSolver solver(options);
  for (int rep = 0; rep < reps; ++rep) {
    auto start = std::chrono::steady_clock::now();
    auto lp = solver.Maximize(support.psi.system, support.objective);
    double ms = MillisSince(start);
    if (!lp.ok()) {
      std::fprintf(stderr, "Maximize(%s): %s\n",
                   SimplexKernelToString(kernel),
                   lp.status().ToString().c_str());
      return timed;
    }
    if (rep == 0 || ms < timed.best_ms) timed.best_ms = ms;
    timed.lp = std::move(lp.value());
  }
  timed.ok = true;
  return timed;
}

/// The first `num_classes` class blocks of dense_blowup.car: a dense
/// one-cluster schema whose expansion (not its disequation system) is
/// the blowup, clipped to an expandable size. Returns an empty string if
/// the example file is unavailable.
std::string TruncatedDenseBlowup(int num_classes) {
#ifdef CAR_EXAMPLES_DIR
  std::ifstream file(std::string(CAR_EXAMPLES_DIR) + "/dense_blowup.car");
  if (!file) return "";
  std::stringstream buffer;
  buffer << file.rdbuf();
  std::string text = buffer.str();
  size_t position = 0;
  for (int i = 0; i < num_classes; ++i) {
    position = text.find("endclass", position);
    if (position == std::string::npos) return text;
    position += std::strlen("endclass");
  }
  return text.substr(0, position) + "\n";
#else
  (void)num_classes;
  return "";
#endif
}

int Main(int argc, char** argv) {
  int threads_override = 0;
  bool smoke = false;
  std::string out_path = "BENCH_pivot_kernel.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      threads_override = std::atoi(argv[i] + 10);
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    }
  }
  const std::vector<int> thread_sweep =
      threads_override > 0 ? std::vector<int>{threads_override}
                           : std::vector<int>{1, 2, 8};
  const int reps = smoke ? 3 : 2;

  // Chain schemas are the LP-heavy regime (Ψ_S rows grow with the chain
  // while each row touches a constant number of unknowns — high
  // sparsity); clustered schemas add block structure; the dense_blowup
  // prefix is the expansion-heavy extreme whose Ψ system is nearly
  // empty (fill and promotions should both be ~0 there).
  struct Cell {
    std::string name;
    enum { kChain, kClustered, kDenseBlowup } family;
    ChainParams chain;
    ClusteredParams clustered;
    int blowup_classes = 0;
  };
  std::vector<Cell> cells;
  if (smoke) {
    cells.push_back({"chain-10x3", Cell::kChain, {10, 3}, {}, 0});
    cells.push_back(
        {"clustered-2x3", Cell::kClustered, {}, {2, 3, 2, false}, 0});
    cells.push_back({"dense-blowup-8", Cell::kDenseBlowup, {}, {}, 8});
  } else {
    cells.push_back({"chain-16x3", Cell::kChain, {16, 3}, {}, 0});
    cells.push_back({"chain-24x3", Cell::kChain, {24, 3}, {}, 0});
    cells.push_back({"chain-32x4", Cell::kChain, {32, 4}, {}, 0});
    cells.push_back(
        {"clustered-4x4", Cell::kClustered, {}, {4, 4, 2, false}, 0});
    cells.push_back(
        {"clustered-6x4", Cell::kClustered, {}, {6, 4, 2, false}, 0});
    cells.push_back({"dense-blowup-12", Cell::kDenseBlowup, {}, {}, 12});
  }

  bench::JsonLinesFile out(out_path);
  if (!out.ok()) {
    std::fprintf(stderr, "cannot open '%s'\n", out_path.c_str());
    return 1;
  }

  std::printf("EXP-N: pivot kernels on the Psi support LP (%s)\n\n",
              smoke ? "smoke" : "full");
  std::printf("| schema | dense-rational (ms) | sparse-scalar (ms) | "
              "speedup | fill | promotions |\n");
  std::printf("|---|---|---|---|---|---|\n");

  bool all_identical = true;
  for (const Cell& cell : cells) {
    // The expansion borrows the schema, so the schema must outlive it.
    Schema schema;
    if (cell.family == Cell::kDenseBlowup) {
      std::string text = TruncatedDenseBlowup(cell.blowup_classes);
      if (text.empty()) {
        std::fprintf(stderr, "skipping %s: example file unavailable\n",
                     cell.name.c_str());
        continue;
      }
      auto parsed = ParseSchema(text);
      if (!parsed.ok()) {
        std::fprintf(stderr, "%s: %s\n", cell.name.c_str(),
                     parsed.status().ToString().c_str());
        return 1;
      }
      schema = std::move(parsed.value());
    } else if (cell.family == Cell::kChain) {
      schema = GenerateChainSchema(cell.chain);
    } else {
      Rng rng(11);
      schema = GenerateClusteredSchema(&rng, cell.clustered);
    }
    auto built = BuildExpansion(schema);
    if (!built.ok()) {
      std::fprintf(stderr, "%s: %s\n", cell.name.c_str(),
                   built.status().ToString().c_str());
      return 1;
    }
    Expansion expansion = std::move(built.value());

    auto support = BuildIncrementalPsiBaseStructure(expansion, {});
    if (!support.ok()) {
      std::fprintf(stderr, "%s: %s\n", cell.name.c_str(),
                   support.status().ToString().c_str());
      return 1;
    }
    TimedLp dense_rational =
        RunKernel(support.value(), SimplexKernel::kDenseRational, reps);
    TimedLp sparse =
        RunKernel(support.value(), SimplexKernel::kSparseScalar, reps);
    if (!dense_rational.ok || !sparse.ok) return 1;
    bool identical = SameLp(dense_rational.lp, sparse.lp);

    // SolvePsi on the production kernel, swept over thread counts:
    // certificate post-processing parallelizes, the answer must not
    // change. The recorded statistics come from the first sweep entry.
    PsiSolution stats;
    for (size_t t = 0; t < thread_sweep.size(); ++t) {
      PsiSolverOptions options;
      options.num_threads = thread_sweep[t];
      auto solution = SolvePsi(expansion, options);
      if (!solution.ok()) {
        std::fprintf(stderr, "SolvePsi(threads=%d): %s\n", thread_sweep[t],
                     solution.status().ToString().c_str());
        return 1;
      }
      if (t == 0) {
        stats = std::move(solution.value());
      } else {
        identical = identical && SameSolution(stats, solution.value());
      }
    }
    // A one-round SolvePsi solves exactly the timed LP.
    if (stats.lp_solves == 1) {
      identical = identical && sparse.lp.pivots == stats.total_pivots &&
                  sparse.lp.scalar_promotions == stats.scalar_promotions &&
                  sparse.lp.tableau_nonzeros == stats.peak_tableau_nonzeros &&
                  sparse.lp.tableau_cells == stats.peak_tableau_cells;
    }
    all_identical = all_identical && identical;

    double speedup =
        sparse.best_ms > 0 ? dense_rational.best_ms / sparse.best_ms : 0.0;
    double fill = stats.peak_tableau_cells > 0
                      ? static_cast<double>(stats.peak_tableau_nonzeros) /
                            static_cast<double>(stats.peak_tableau_cells)
                      : 0.0;
    std::printf("| %s | %.2f | %.2f | %.2fx | %.3f | %llu |%s\n",
                cell.name.c_str(), dense_rational.best_ms, sparse.best_ms,
                speedup, fill,
                static_cast<unsigned long long>(stats.scalar_promotions),
                identical ? "" : "  ANSWERS DIFFER (bug!)");
    std::fflush(stdout);

    bench::JsonRecord record;
    record.Add("bench", "pivot_kernel")
        .Add("schema", cell.name)
        .Add("threads_swept", static_cast<int>(thread_sweep.size()))
        .Add("smoke", smoke)
        .Add("dense_rational_ms", dense_rational.best_ms)
        .Add("sparse_ms", sparse.best_ms)
        .Add("speedup_total", speedup)
        .Add("answers_identical", identical)
        .Add("lp_solves", static_cast<uint64_t>(stats.lp_solves))
        .Add("pivots", static_cast<uint64_t>(stats.total_pivots))
        .Add("lp_variables", static_cast<uint64_t>(stats.largest_lp_variables))
        .Add("lp_constraints",
             static_cast<uint64_t>(stats.largest_lp_constraints))
        .Add("scalar_promotions", stats.scalar_promotions)
        .Add("peak_tableau_nonzeros", stats.peak_tableau_nonzeros)
        .Add("peak_tableau_cells", stats.peak_tableau_cells)
        .Add("fill", fill);
    out.Write(record);
  }
  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: kernels or thread counts returned different "
                 "solutions\n");
    return 1;
  }
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace car

int main(int argc, char** argv) { return car::Main(argc, argv); }
