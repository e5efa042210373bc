// EXP-Q driver: the static-analysis prefilter tiers of the incremental
// implication engine.
//
// Workload: chain, clustered and hierarchy schemas probed with a
// deterministic mix of implication queries. Each cell answers the same
// batch three ways — from-scratch Reasoner (the oracle), an untiered
// IncrementalSession (prefilter off), and a tiered one (prefilter on) —
// and requires all three answer vectors to be identical. Each session
// kind is timed kReps times, each time on a fresh session, with the order
// of the two kinds alternating between repetitions. The JSON record
// carries the median wall-clock of the two session kinds, the
// repetition count, and the per-tier short-circuit fractions (closure
// hits, cluster-local solves, memo hits and full probes over the batch),
// which is what the CI smoke gate checks: answers_identical, and tiered
// median latency no worse than untiered.
//
// Usage: bench_prefilter [--threads=N] [--smoke] [--out=FILE]
//   --smoke  reduced workload for CI: two cells, one batch size

#include <algorithm>
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

/// A deterministic batch of `count` distinct implication queries mixing
/// every query kind (the bench_implication_batch generator).
std::vector<ImplicationQuery> MakeBatch(const Schema& schema, Rng* rng,
                                        int count) {
  std::vector<ImplicationQuery> queries;
  std::set<std::string> seen;
  int attempts = 0;
  while (static_cast<int>(queries.size()) < count &&
         attempts < count * 64) {
    ++attempts;
    ImplicationQuery query;
    switch (rng->NextBelow(schema.num_relations() > 0 ? 6 : 4)) {
      case 0:
        query.kind = ImplicationQuery::Kind::kIsa;
        query.class_id = static_cast<ClassId>(
            rng->NextBelow(schema.num_classes()));
        query.formula = ClassFormula::OfClass(static_cast<ClassId>(
            rng->NextBelow(schema.num_classes())));
        break;
      case 1:
        query.kind = ImplicationQuery::Kind::kDisjoint;
        query.class_id = static_cast<ClassId>(
            rng->NextBelow(schema.num_classes()));
        query.other = static_cast<ClassId>(
            rng->NextBelow(schema.num_classes()));
        break;
      case 2:
      case 3: {
        if (schema.num_attributes() == 0) continue;
        bool min = rng->NextBelow(2) == 0;
        query.kind = min ? ImplicationQuery::Kind::kMinCardinality
                         : ImplicationQuery::Kind::kMaxCardinality;
        query.class_id = static_cast<ClassId>(
            rng->NextBelow(schema.num_classes()));
        AttributeId attribute = static_cast<AttributeId>(
            rng->NextBelow(schema.num_attributes()));
        query.term = rng->NextBelow(4) == 0
                         ? AttributeTerm::Inverse(attribute)
                         : AttributeTerm::Direct(attribute);
        query.bound = 1 + rng->NextBelow(3);
        break;
      }
      default: {
        RelationId relation = static_cast<RelationId>(
            rng->NextBelow(schema.num_relations()));
        const RelationDefinition* definition =
            schema.relation_definition(relation);
        query.kind = rng->NextBelow(2) == 0
                         ? ImplicationQuery::Kind::kMinParticipation
                         : ImplicationQuery::Kind::kMaxParticipation;
        query.class_id = static_cast<ClassId>(
            rng->NextBelow(schema.num_classes()));
        query.relation = relation;
        query.role = definition->roles[rng->NextBelow(
            definition->roles.size())];
        query.bound = 1 + rng->NextBelow(3);
        break;
      }
    }
    std::string key = IncrementalSession::CanonicalQueryKey(query);
    if (seen.insert(std::move(key)).second) {
      queries.push_back(std::move(query));
    }
  }
  return queries;
}

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Timed batches per session kind and cell: the median of a few fresh
/// sessions, not one sample that a scheduler hiccup can flip.
constexpr int kReps = 5;

/// One timed batch on a fresh session.
struct SessionRun {
  double ms = 0;
  std::vector<bool> answers;
  IncrementalStats stats;
};

Result<SessionRun> RunFreshSession(
    const Schema& schema, const ReasonerOptions& options,
    const std::vector<ImplicationQuery>& queries) {
  IncrementalSession session(&schema, options);
  auto start = std::chrono::steady_clock::now();
  CAR_ASSIGN_OR_RETURN(std::vector<bool> answers,
                       session.RunImplicationBatch(queries));
  SessionRun run;
  run.ms = MillisSince(start);
  run.answers = std::move(answers);
  run.stats = session.stats();
  return run;
}

double Median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid]
                                 : (samples[mid - 1] + samples[mid]) / 2;
}

int Main(int argc, char** argv) {
  int num_threads = 1;
  bool smoke = false;
  std::string out_path = "BENCH_prefilter.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      num_threads = std::atoi(argv[i] + 10);
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    }
  }

  // Hierarchies are the prefilter's demonstration regime: the isa trees
  // give the closure tables many certifiable inclusion/disjointness
  // facts, so tier-0 answers a large slice of the batch without any LP.
  // Clustered schemas are the tier-2 regime — a probe's dependency
  // closure is one cluster, a fraction of the schema — and chains keep
  // the engine honest on workloads where the tiers rarely engage.
  struct Cell {
    std::string name;
    enum { kChain, kClustered, kHierarchy } family;
    ChainParams chain_params;
    ClusteredParams clustered_params;
    HierarchyParams hierarchy_params;
  };
  std::vector<Cell> cells;
  if (smoke) {
    cells.push_back({"hierarchy-16", Cell::kHierarchy, {}, {}, {16, 2}});
    cells.push_back({"clustered-8x4", Cell::kClustered, {}, {8, 4, 2,
                                                             false}, {}});
  } else {
    cells.push_back({"hierarchy-16", Cell::kHierarchy, {}, {}, {16, 2}});
    cells.push_back({"hierarchy-24", Cell::kHierarchy, {}, {}, {24, 3}});
    cells.push_back({"clustered-6x3", Cell::kClustered, {}, {6, 3, 2,
                                                             false}, {}});
    cells.push_back({"clustered-8x4", Cell::kClustered, {}, {8, 4, 2,
                                                             false}, {}});
    cells.push_back({"chain-12x3", Cell::kChain, {12, 3}, {}, {}});
  }
  std::vector<int> batch_sizes =
      smoke ? std::vector<int>{32} : std::vector<int>{16, 64};

  bench::JsonLinesFile out(out_path);
  if (!out.ok()) {
    std::fprintf(stderr, "cannot open '%s'\n", out_path.c_str());
    return 1;
  }

  std::printf("EXP-Q: prefilter tiers, tiered vs untiered incremental "
              "sessions (threads=%d%s)\n\n",
              num_threads, smoke ? ", smoke" : "");
  std::printf("| schema | batch | untiered (ms, median) | tiered (ms, "
              "median) | speedup | "
              "closure | cluster-local | probes |\n");
  std::printf("|---|---|---|---|---|---|---|---|\n");

  bool all_identical = true;
  bool all_no_slower = true;
  for (const Cell& cell : cells) {
    Rng schema_rng(11);
    Schema schema;
    switch (cell.family) {
      case Cell::kChain:
        schema = GenerateChainSchema(cell.chain_params);
        break;
      case Cell::kClustered:
        schema = GenerateClusteredSchema(&schema_rng,
                                         cell.clustered_params);
        break;
      case Cell::kHierarchy:
        schema = GenerateHierarchy(&schema_rng, cell.hierarchy_params);
        break;
    }
    for (int batch_size : batch_sizes) {
      Rng query_rng(1000 + batch_size);
      std::vector<ImplicationQuery> queries =
          MakeBatch(schema, &query_rng, batch_size);

      ReasonerOptions oracle_options;
      oracle_options.num_threads = num_threads;
      Reasoner oracle(&schema, oracle_options);
      auto oracle_answers = oracle.RunImplicationBatch(queries);
      if (!oracle_answers.ok()) {
        std::fprintf(stderr, "oracle: %s\n",
                     oracle_answers.status().ToString().c_str());
        return 1;
      }

      ReasonerOptions untiered_options = oracle_options;
      untiered_options.prefilter = false;
      ReasonerOptions tiered_options = oracle_options;
      tiered_options.prefilter = true;
      std::vector<double> untiered_samples;
      std::vector<double> tiered_samples;
      IncrementalStats stats;
      bool identical = true;
      for (int rep = 0; rep < kReps; ++rep) {
        // Alternate which kind runs first, so neither always pays for
        // (or profits from) running first.
        for (bool tiered : {rep % 2 == 1, rep % 2 == 0}) {
          auto run = RunFreshSession(
              schema, tiered ? tiered_options : untiered_options, queries);
          if (!run.ok()) {
            std::fprintf(stderr, "%s: %s\n",
                         tiered ? "tiered" : "untiered",
                         run.status().ToString().c_str());
            return 1;
          }
          identical = identical && run->answers == oracle_answers.value();
          (tiered ? tiered_samples : untiered_samples).push_back(run->ms);
          if (tiered) stats = run->stats;
        }
      }
      const double untiered_ms = Median(untiered_samples);
      const double tiered_ms = Median(tiered_samples);
      all_identical = all_identical && identical;
      all_no_slower = all_no_slower && tiered_ms <= untiered_ms;

      double batch = static_cast<double>(queries.size());
      double closure_fraction = stats.closure_hits / batch;
      double cluster_fraction = stats.cluster_local / batch;
      double probe_fraction = stats.probes / batch;
      double speedup = tiered_ms > 0 ? untiered_ms / tiered_ms : 0.0;
      std::printf(
          "| %s | %zu | %.1f | %.1f | %.2fx | %.0f%% | %.0f%% | %.0f%% "
          "|%s\n",
          cell.name.c_str(), queries.size(), untiered_ms, tiered_ms,
          speedup, 100 * closure_fraction, 100 * cluster_fraction,
          100 * probe_fraction, identical ? "" : "  ANSWERS DIFFER (bug!)");
      std::fflush(stdout);

      bench::JsonRecord record;
      record.Add("bench", "prefilter")
          .Add("schema", cell.name)
          .Add("num_classes", static_cast<int>(schema.num_classes()))
          .Add("batch", static_cast<int>(queries.size()))
          .Add("threads", num_threads)
          .Add("smoke", smoke)
          .Add("reps", kReps)
          .Add("untiered_ms", untiered_ms)
          .Add("tiered_ms", tiered_ms)
          .Add("speedup", speedup)
          .Add("closure_hits", stats.closure_hits)
          .Add("cluster_local", stats.cluster_local)
          .Add("memo_hits", stats.memo_hits)
          .Add("probes", stats.probes)
          .Add("closure_fraction", closure_fraction)
          .Add("cluster_local_fraction", cluster_fraction)
          .Add("probe_fraction", probe_fraction)
          .Add("answers_identical", identical);
      out.Write(record);
    }
  }

  std::printf("\nanswers identical across all cells: %s\n",
              all_identical ? "yes" : "NO (bug!)");
  std::printf("tiered no slower than untiered in every cell: %s\n",
              all_no_slower ? "yes" : "no");
  return all_identical ? 0 : 1;
}

}  // namespace
}  // namespace car

int main(int argc, char** argv) { return car::Main(argc, argv); }
