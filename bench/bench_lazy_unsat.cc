// EXP-U driver: lazy UNSAT via infeasibility certificates vs eager
// expansion on dense unsatisfiable schemas.
//
// Workload: the dense-unsat family (GenerateDenseUnsatSchema) — the
// dense-blowup chaff cluster (2^chaff consistent subsets, no Ψ content)
// plus a pairwise-disjoint core chain whose terminal cardinality
// contradiction makes every core class unsatisfiable. The eager path
// must enumerate the chaff before it can say anything; the lazy engine
// probes the exhausted core targets, learns Farkas certificates as
// blocking constraints, and concludes UNSAT from their closure after
// materializing a sliver of the expansion. For each cell the eager
// CheckSchema runs when the cell is within the enumeration cap, and the
// lazy engine runs at 1/2/8 threads; all comparable verdicts must be
// identical classwise.
//
// The largest cell (unsat-22+4) is the headline regime: 2^22 subsets,
// beyond the eager cap — eager cannot answer at all while lazy returns
// a conclusive UNSAT with zero fallbacks (gated in CI).
//
// A session cell follows (scope "session"): one lazy IncrementalSession
// with the daemon's defaults answers a 48-query pool that stays inside
// one cluster per query (chaff or core) on unsat-9+4, checked against
// the from-scratch reasoner. Its probes resume the session's stored
// seed bases; the record reports how many seeds were solved and how
// many probes reused one (gated in CI: lazy_seed_reuses > 0).
//
// Usage: bench_lazy_unsat [--threads=N] [--smoke] [--out=FILE]
//   --smoke  tiny workload for CI: two small cells plus the beyond-cap
//            cell (cheap for the lazy engine by construction), and the
//            session cell
//
// Output: one JSON-lines record per cell in BENCH_lazy_unsat.json,
// gated by the CI bench-smoke job (answers_identical, a conclusive lazy
// UNSAT where eager tripped its cap, lazy_ms <= eager_ms where both
// completed, seed reuse in the session cell).

#include <chrono>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "base/rng.h"
#include "bench_json.h"
#include "reasoner/incremental.h"
#include "reasoner/reasoner.h"
#include "workloads/generators.h"

namespace car {
namespace {

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// `count` distinct queries that each stay inside one cluster of a
/// dense-unsat schema — the chaff D* or the core E* — cycling through
/// ISA, disjointness and min/max cardinality (core only). A query tying
/// the clusters together would make the from-scratch reference enumerate
/// their product.
std::vector<ImplicationQuery> InClusterPool(const Schema& schema, int count,
                                            Rng* rng) {
  std::vector<ClassId> chaff, core;
  for (ClassId c = 0; c < schema.num_classes(); ++c) {
    (schema.ClassName(c)[0] == 'D' ? chaff : core).push_back(c);
  }
  auto pick = [rng](const std::vector<ClassId>& side) {
    return side[rng->NextBelow(side.size())];
  };
  std::vector<ImplicationQuery> pool;
  std::set<std::string> seen;
  for (int attempt = 0;
       static_cast<int>(pool.size()) < count && attempt < count * 50;
       ++attempt) {
    const int kind = attempt % 6;
    const std::vector<ClassId>& side = kind % 2 == 0 ? chaff : core;
    ImplicationQuery query;
    if (kind < 2) {
      query.kind = ImplicationQuery::Kind::kIsa;
      query.class_id = pick(side);
      query.formula = ClassFormula::OfClass(pick(side));
    } else if (kind < 4) {
      query.kind = ImplicationQuery::Kind::kDisjoint;
      query.class_id = pick(side);
      query.other = pick(side);
    } else {
      query.kind = kind == 4 ? ImplicationQuery::Kind::kMinCardinality
                             : ImplicationQuery::Kind::kMaxCardinality;
      query.class_id = pick(core);
      query.term = AttributeTerm::Direct(static_cast<AttributeId>(
          rng->NextBelow(schema.num_attributes())));
      query.bound = 1 + rng->NextBelow(3);
    }
    if (seen.insert(IncrementalSession::CanonicalQueryKey(query)).second) {
      pool.push_back(std::move(query));
    }
  }
  return pool;
}

int Main(int argc, char** argv) {
  int num_threads = 1;
  bool smoke = false;
  std::string out_path = "BENCH_lazy_unsat.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      num_threads = std::atoi(argv[i] + 10);
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    }
  }

  struct Cell {
    std::string name;
    DenseUnsatParams params;
  };
  std::vector<Cell> cells;
  if (smoke) {
    cells.push_back({"unsat-8+3", {8, 3, 2}});
    cells.push_back({"unsat-10+3", {10, 3, 2}});
    // The beyond-cap cell stays in the smoke set: it is the property the
    // CI gate exists for, and the lazy engine makes it cheap.
    cells.push_back({"unsat-22+4", {22, 4, 2}});
  } else {
    cells.push_back({"unsat-10+3", {10, 3, 2}});
    cells.push_back({"unsat-12+4", {12, 4, 2}});
    cells.push_back({"unsat-14+4", {14, 4, 2}});
    cells.push_back({"unsat-16+4", {16, 4, 2}});
    // Past the eager enumeration cap: eager cannot answer at all.
    cells.push_back({"unsat-22+4", {22, 4, 2}});
  }
  const std::vector<int> lazy_threads = {1, 2, 8};

  bench::JsonLinesFile out(out_path);
  if (!out.ok()) {
    std::fprintf(stderr, "cannot open '%s'\n", out_path.c_str());
    return 1;
  }

  std::printf("EXP-U: lazy UNSAT (blocking constraints) vs eager expansion "
              "on dense unsat schemas (threads=%d%s)\n\n",
              num_threads, smoke ? ", smoke" : "");
  std::printf("| schema | eager (ms) | lazy (ms) | speedup | materialized "
              "| total | blocked | closures | fallbacks |\n");
  std::printf("|---|---|---|---|---|---|---|---|---|\n");

  bool all_identical = true;
  bool beyond_cap_concluded = false;
  for (const Cell& cell : cells) {
    Schema schema = GenerateDenseUnsatSchema(cell.params);

    // Eager reference (ungoverned: a cap trip arrives as an error
    // status, which just marks the cell eager-incomplete).
    ReasonerOptions eager_options;
    eager_options.num_threads = num_threads;
    Reasoner eager(&schema, eager_options);
    auto eager_start = std::chrono::steady_clock::now();
    auto eager_report = eager.CheckSchema();
    double eager_ms = MillisSince(eager_start);
    const bool eager_completed = eager_report.ok();
    // Analytic full-expansion size (test-verified exact), reported even
    // where the eager build tripped before counting.
    const uint64_t compounds_total = DenseUnsatCompoundCount(cell.params);

    // Lazy at each thread count; verdicts must agree with each other
    // (and with eager where eager completed).
    double lazy_ms = 0.0;
    uint64_t materialized = 0;
    uint64_t rounds = 0;
    uint64_t blocked = 0;
    uint64_t closures = 0;
    uint64_t fallbacks = 0;
    bool lazy_conclusive = false;
    bool verdict_unsat = false;
    bool identical = true;
    std::vector<bool> first_classwise;
    for (size_t i = 0; i < lazy_threads.size(); ++i) {
      ReasonerOptions lazy_options;
      lazy_options.num_threads = lazy_threads[i];
      lazy_options.lazy_expansion = true;
      Reasoner lazy(&schema, lazy_options);
      auto lazy_start = std::chrono::steady_clock::now();
      auto report = lazy.CheckSchema();
      double ms = MillisSince(lazy_start);
      if (!report.ok()) {
        std::fprintf(stderr, "lazy %s threads=%d: %s\n", cell.name.c_str(),
                     lazy_threads[i], report.status().ToString().c_str());
        return 1;
      }
      if (i == 0) {
        lazy_ms = ms;  // The reported time is the serial lazy run.
        materialized = report->compounds_materialized;
        rounds = report->refinement_rounds;
        blocked = report->blocking_constraints;
        closures = report->certificate_closures;
        lazy_conclusive = report->lazy;
        verdict_unsat = report->verdict == Verdict::kUnsat;
        first_classwise = report->class_satisfiable;
        if (!report->lazy) ++fallbacks;
        if (eager_completed) {
          identical = identical &&
                      eager_report->verdict == report->verdict &&
                      eager_report->class_satisfiable ==
                          report->class_satisfiable;
        }
      } else {
        identical =
            identical && report->class_satisfiable == first_classwise;
      }
    }
    all_identical = all_identical && identical;
    if (!eager_completed && lazy_conclusive && verdict_unsat &&
        fallbacks == 0) {
      beyond_cap_concluded = true;
    }

    double speedup = (eager_completed && lazy_ms > 0)
                         ? eager_ms / lazy_ms
                         : 0.0;
    std::printf(
        "| %s | %s | %.2f | %s | %llu | %llu | %llu | %llu | %llu |%s\n",
        cell.name.c_str(),
        eager_completed ? std::to_string(eager_ms).c_str() : "n/a (cap)",
        lazy_ms,
        eager_completed ? (std::to_string(speedup) + "x").c_str() : "-",
        static_cast<unsigned long long>(materialized),
        static_cast<unsigned long long>(compounds_total),
        static_cast<unsigned long long>(blocked),
        static_cast<unsigned long long>(closures),
        static_cast<unsigned long long>(fallbacks),
        identical ? "" : "  ANSWERS DIFFER (bug!)");
    std::fflush(stdout);

    bench::JsonRecord record;
    record.Add("bench", "lazy_unsat")
        .Add("scope", "check")
        .Add("schema", cell.name)
        .Add("num_classes", static_cast<int>(schema.num_classes()))
        .Add("threads", num_threads)
        .Add("smoke", smoke)
        .Add("eager_completed", eager_completed)
        .Add("eager_ms", eager_completed ? eager_ms : 0.0)
        .Add("lazy_ms", lazy_ms);
    // No speedup field on beyond-cap cells: "eager could not run" must
    // not aggregate as a zero ratio.
    if (eager_completed) record.Add("speedup", speedup);
    record.Add("answers_identical", identical)
        .Add("lazy_conclusive", lazy_conclusive)
        .Add("verdict_unsat", verdict_unsat)
        .Add("compounds_materialized", materialized)
        .Add("compounds_total", compounds_total)
        .Add("blocking_constraints", blocked)
        .Add("certificate_closures", closures)
        .Add("refinement_rounds", rounds)
        .Add("fallbacks", fallbacks);
    out.Write(record);
  }
  // Session cell: seed reuse across the probes of one lazy session.
  {
    const DenseUnsatParams params{9, 4, 2};
    Schema schema = GenerateDenseUnsatSchema(params);
    Rng rng(16);
    std::vector<ImplicationQuery> pool = InClusterPool(schema, 48, &rng);
    ReasonerOptions reference_options;
    reference_options.num_threads = num_threads;
    Reasoner reference(&schema, reference_options);
    auto reference_start = std::chrono::steady_clock::now();
    auto expected = reference.RunImplicationBatch(pool);
    const double reference_ms = MillisSince(reference_start);
    if (!expected.ok()) {
      std::fprintf(stderr, "from-scratch session pool: %s\n",
                   expected.status().ToString().c_str());
      return 1;
    }
    // The daemon's defaults: lazy expansion with the prefilter tiers.
    ReasonerOptions session_options;
    session_options.num_threads = num_threads;
    session_options.lazy_expansion = true;
    IncrementalSession session(&schema, session_options);
    auto session_start = std::chrono::steady_clock::now();
    auto answers = session.RunImplicationBatch(pool);
    const double session_ms = MillisSince(session_start);
    if (!answers.ok()) {
      std::fprintf(stderr, "session pool: %s\n",
                   answers.status().ToString().c_str());
      return 1;
    }
    const bool identical = answers.value() == expected.value();
    all_identical = all_identical && identical;
    const IncrementalStats stats = session.stats();
    std::printf("\nsession unsat-9+4, %zu queries: from-scratch %.2f ms, "
                "session %.2f ms, %llu probes, %llu lazy hits, seed solves "
                "%llu, seed reuses %llu%s\n",
                pool.size(), reference_ms, session_ms,
                static_cast<unsigned long long>(stats.probes),
                static_cast<unsigned long long>(stats.lazy_hits),
                static_cast<unsigned long long>(stats.lazy_seed_solves),
                static_cast<unsigned long long>(stats.lazy_seed_reuses),
                identical ? "" : "  ANSWERS DIFFER (bug!)");
    bench::JsonRecord record;
    record.Add("bench", "lazy_unsat")
        .Add("scope", "session")
        .Add("schema", "unsat-9+4")
        .Add("num_classes", static_cast<int>(schema.num_classes()))
        .Add("threads", num_threads)
        .Add("smoke", smoke)
        .Add("queries", static_cast<uint64_t>(pool.size()))
        .Add("from_scratch_ms", reference_ms)
        .Add("session_ms", session_ms)
        .Add("answers_identical", identical)
        .Add("probes", stats.probes)
        .Add("lazy_hits", stats.lazy_hits)
        .Add("lazy_seed_solves", stats.lazy_seed_solves)
        .Add("lazy_seed_reuses", stats.lazy_seed_reuses)
        .Add("fallbacks", stats.fallbacks);
    out.Write(record);
  }

  if (!all_identical) {
    std::fprintf(stderr, "FAIL: lazy answers differ from eager\n");
    return 1;
  }
  if (!beyond_cap_concluded) {
    std::fprintf(stderr,
                 "FAIL: no cell where eager tripped its cap but lazy "
                 "concluded UNSAT without fallback\n");
    return 1;
  }
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace car

int main(int argc, char** argv) { return car::Main(argc, argv); }
