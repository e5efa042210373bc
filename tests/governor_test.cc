// The resource governor: ExecContext budgets, deadlines, deterministic
// fault injection, the structured LimitReport, and graceful degradation
// of governed pipeline runs to Verdict::kUnknown.
//
// The load-bearing property is the determinism contract: for the
// deterministic limits (count caps, work budgets, fault injection) the
// (verdict, kind, phase, limit, count) of a tripped run — and hence the
// rendered report — must be bit-identical for every thread count. The
// fault-injection sweeps below abort the pipeline at *every* work-charge
// boundary and compare threads 1/2/8 pairwise.

#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "base/exec_context.h"
#include "base/rng.h"
#include "enumerate/bounded_search.h"
#include "expansion/expansion.h"
#include "math/simplex.h"
#include "reasoner/reasoner.h"
#include "solver/solve.h"
#include "workloads/generators.h"

namespace car {
namespace {

constexpr int kThreadCounts[] = {1, 2, 8};

// --- LimitReport / LimitKind units -----------------------------------------

TEST(LimitReportTest, ToStringIsStructured) {
  LimitReport report;
  report.kind = LimitKind::kMaxCompoundClasses;
  report.phase = "expansion";
  report.limit = 1u << 20;
  report.count = 1u << 20;
  EXPECT_EQ(report.ToString(),
            "limit=max_compound_classes phase=expansion count=1048576");
}

TEST(LimitReportTest, NotTrippedByDefault) {
  LimitReport report;
  EXPECT_FALSE(report.tripped());
}

TEST(LimitReportTest, ToStatusUsesCancelledForCancellation) {
  LimitReport report;
  report.kind = LimitKind::kCancelled;
  report.phase = "solver";
  EXPECT_EQ(report.ToStatus().code(), StatusCode::kCancelled);
}

TEST(LimitReportTest, ToStatusUsesResourceExhaustedForBudgets) {
  for (LimitKind kind :
       {LimitKind::kDeadline, LimitKind::kMemoryBudget, LimitKind::kWorkBudget,
        LimitKind::kFaultInjection, LimitKind::kMaxCompoundClasses,
        LimitKind::kMaxPivots, LimitKind::kMaxConfigurations,
        LimitKind::kMaxCandidates}) {
    LimitReport report;
    report.kind = kind;
    EXPECT_EQ(report.ToStatus().code(), StatusCode::kResourceExhausted)
        << LimitKindToString(kind);
  }
}

TEST(LimitReportTest, LimitTripStatusCarriesStructuredMessage) {
  Status status =
      LimitTripStatus(LimitKind::kMaxPivots, "simplex", 128, 129);
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(status.message().find("limit=max_pivots"), std::string::npos);
  EXPECT_NE(status.message().find("phase=simplex"), std::string::npos);
}

TEST(LimitKindTest, CanonicalSpellings) {
  EXPECT_STREQ(LimitKindToString(LimitKind::kDeadline), "deadline");
  EXPECT_STREQ(LimitKindToString(LimitKind::kCancelled), "cancelled");
  EXPECT_STREQ(LimitKindToString(LimitKind::kMemoryBudget), "memory_budget");
  EXPECT_STREQ(LimitKindToString(LimitKind::kWorkBudget), "work_budget");
  EXPECT_STREQ(LimitKindToString(LimitKind::kFaultInjection),
               "fault_injection");
  EXPECT_STREQ(LimitKindToString(LimitKind::kMaxCompoundClasses),
               "max_compound_classes");
  EXPECT_STREQ(LimitKindToString(LimitKind::kMaxPivots), "max_pivots");
}

// --- ExecContext units ------------------------------------------------------

TEST(ExecContextTest, UngovernedChargesSucceed) {
  ExecContext exec;
  EXPECT_TRUE(exec.ChargeWork(1000, "expansion").ok());
  EXPECT_TRUE(exec.ChargeBytes(1 << 30, "expansion").ok());
  EXPECT_TRUE(exec.Check("solver").ok());
  EXPECT_FALSE(exec.tripped());
  EXPECT_EQ(exec.work_charged(), 1000u);
  EXPECT_EQ(exec.bytes_charged(), uint64_t{1} << 30);
}

TEST(ExecContextTest, WorkBudgetTripsOnCrossingCharge) {
  ExecContext exec;
  exec.SetWorkBudget(10);
  EXPECT_TRUE(exec.ChargeWork(10, "solver").ok());  // Exactly at budget.
  Status trip = exec.ChargeWork(1, "solver");
  EXPECT_EQ(trip.code(), StatusCode::kResourceExhausted);
  ASSERT_TRUE(exec.tripped());
  LimitReport report = exec.report();
  EXPECT_EQ(report.kind, LimitKind::kWorkBudget);
  EXPECT_EQ(report.phase, "solver");
  EXPECT_EQ(report.limit, 10u);
  // The trip count is normalized to the budget, not the (scheduling
  // dependent) cumulative counter at trip time.
  EXPECT_EQ(report.count, 10u);
}

TEST(ExecContextTest, MemoryBudgetTrips) {
  ExecContext exec;
  exec.SetMemoryBudget(1024);
  EXPECT_TRUE(exec.ChargeBytes(1024, "simplex").ok());
  EXPECT_EQ(exec.ChargeBytes(1, "simplex").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(exec.report().kind, LimitKind::kMemoryBudget);
}

TEST(ExecContextTest, FaultInjectionTripsAtExactCharge) {
  ExecContext exec;
  exec.InjectTripAfter(5);
  EXPECT_TRUE(exec.ChargeWork(5, "expansion").ok());
  EXPECT_FALSE(exec.tripped());
  EXPECT_FALSE(exec.ChargeWork(1, "expansion").ok());
  LimitReport report = exec.report();
  EXPECT_EQ(report.kind, LimitKind::kFaultInjection);
  EXPECT_EQ(report.limit, 5u);
}

TEST(ExecContextTest, FaultInjectionZeroTripsFirstCharge) {
  ExecContext exec;
  exec.InjectTripAfter(0);
  EXPECT_FALSE(exec.ChargeWork(1, "expansion").ok());
  EXPECT_TRUE(exec.tripped());
}

TEST(ExecContextTest, FaultInjectionWinsOverWorkBudgetOnSameCharge) {
  ExecContext exec;
  exec.SetWorkBudget(5);
  exec.InjectTripAfter(5);
  EXPECT_FALSE(exec.ChargeWork(6, "expansion").ok());
  EXPECT_EQ(exec.report().kind, LimitKind::kFaultInjection);
}

TEST(ExecContextTest, FirstTripWins) {
  ExecContext exec;
  exec.RecordTrip(LimitKind::kMaxPivots, "simplex", 100, 100);
  Status second =
      exec.RecordTrip(LimitKind::kMaxCompoundClasses, "expansion", 7, 7);
  // The returned status and the report both describe the *first* trip.
  EXPECT_NE(second.message().find("limit=max_pivots"), std::string::npos);
  EXPECT_EQ(exec.report().kind, LimitKind::kMaxPivots);
}

TEST(ExecContextTest, TrippedContextFailsAllSubsequentOperations) {
  ExecContext exec;
  exec.RecordTrip(LimitKind::kWorkBudget, "solver", 1, 1);
  EXPECT_FALSE(exec.ChargeWork(1, "expansion").ok());
  EXPECT_FALSE(exec.ChargeBytes(1, "expansion").ok());
  EXPECT_FALSE(exec.Check("expansion").ok());
}

TEST(ExecContextTest, ExpiredDeadlineTripsCheck) {
  ExecContext exec;
  exec.SetDeadlineAfter(std::chrono::milliseconds(0));
  Status status = exec.Check("expansion");
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  LimitReport report = exec.report();
  EXPECT_EQ(report.kind, LimitKind::kDeadline);
  EXPECT_EQ(report.phase, "expansion");
}

// A negative budget counts as zero: the deadline has passed at once.
TEST(ExecContextTest, NegativeDeadlineTripsCheck) {
  for (std::chrono::milliseconds budget :
       {std::chrono::milliseconds(-5), std::chrono::milliseconds::min()}) {
    ExecContext exec;
    exec.SetDeadlineAfter(budget);
    EXPECT_EQ(exec.Check("expansion").code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(exec.report().kind, LimitKind::kDeadline);
    EXPECT_EQ(exec.report().count, 0u);
  }
}

// A budget past the clock's horizon sets no deadline, instead of
// overflowing now + budget into one that trips at once.
TEST(ExecContextTest, DeadlinePastClockHorizonIsNoDeadline) {
  ExecContext exec;
  exec.SetDeadlineAfter(std::chrono::milliseconds::max());
  EXPECT_TRUE(exec.Check("expansion").ok());
  // A charge this large consults the clock too.
  EXPECT_TRUE(exec.ChargeWork(1 << 20, "expansion").ok());
  EXPECT_FALSE(exec.tripped());
}

// The wire's uint64 deadlines saturate the same way, UINT64_MAX (which
// used to wrap to a negative budget) included. A long deadline inside
// the horizon is still a deadline that has not passed.
TEST(AdmissionLimitsTest, HugeDeadlinesConfigureNoTrip) {
  for (uint64_t deadline_ms :
       {std::numeric_limits<uint64_t>::max(), uint64_t{1} << 63,
        uint64_t{10000000000000}, uint64_t{100000000000}}) {
    ExecContext exec;
    AdmissionLimits limits;
    limits.deadline_ms = deadline_ms;
    limits.ConfigureContext(&exec);
    EXPECT_TRUE(exec.Check("expansion").ok()) << deadline_ms;
    EXPECT_FALSE(exec.tripped()) << deadline_ms;
  }
}

TEST(ExecContextTest, OverridePhaseNormalizesTrippedReport) {
  ExecContext exec;
  exec.RecordTrip(LimitKind::kFaultInjection, "simplex", 3, 3);
  exec.OverridePhaseOnTrip("implication");
  EXPECT_EQ(exec.report().phase, "implication");
}

TEST(ExecContextTest, ProgressCountersSnapshot) {
  ExecContext exec;
  exec.ChargeWork(7, "expansion");
  exec.CountCompounds(3);
  exec.CountPivots(11);
  exec.CountLpSolves(2);
  exec.CountConfigurations(5);
  exec.CountQueries(1);
  ProgressSnapshot progress = exec.progress();
  EXPECT_EQ(progress.work_charged, 7u);
  EXPECT_EQ(progress.compounds_enumerated, 3u);
  EXPECT_EQ(progress.pivots_executed, 11u);
  EXPECT_EQ(progress.lp_solves, 2u);
  EXPECT_EQ(progress.configurations_examined, 5u);
  EXPECT_EQ(progress.queries_completed, 1u);
}

TEST(ExecContextTest, NullableHelpersAreNoOpsOnNull) {
  EXPECT_FALSE(GovCancelled(nullptr));
  EXPECT_TRUE(GovChargeWork(nullptr, 1, "x").ok());
  EXPECT_TRUE(GovChargeBytes(nullptr, 1, "x").ok());
  EXPECT_TRUE(GovCheck(nullptr, "x").ok());
  Status status = GovRecordTrip(nullptr, LimitKind::kMaxCandidates,
                                "bounded-search", 16, 20);
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(status.message().find("limit=max_candidates"), std::string::npos);
}

// --- Pipeline cap routing ---------------------------------------------------

/// One dense cluster: all 2^cluster_size subsets consistent.
Schema DenseSchema(int cluster_size) {
  Rng rng(7);
  ClusteredParams params;
  params.num_clusters = 1;
  params.cluster_size = cluster_size;
  params.dense = true;
  return GenerateClusteredSchema(&rng, params);
}

TEST(GovernedExpansionTest, CompoundClassCapReportsStructuredLimit) {
  Schema schema = DenseSchema(8);
  ExpansionOptions options;
  options.max_compound_classes = 10;
  auto expansion = BuildExpansion(schema, options);
  ASSERT_FALSE(expansion.ok());
  EXPECT_EQ(expansion.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(expansion.status().message().find(
                "limit=max_compound_classes phase=expansion count=10"),
            std::string::npos)
      << expansion.status();
}

TEST(GovernedExpansionTest, GovernedCapRecordsTripOnContext) {
  Schema schema = DenseSchema(8);
  ExecContext exec;
  ExpansionOptions options;
  options.max_compound_classes = 10;
  options.exec = &exec;
  auto expansion = BuildExpansion(schema, options);
  ASSERT_FALSE(expansion.ok());
  ASSERT_TRUE(exec.tripped());
  EXPECT_EQ(exec.report().kind, LimitKind::kMaxCompoundClasses);
  EXPECT_EQ(exec.report().limit, 10u);
}

TEST(GovernedSimplexTest, PivotCapReportsStructuredLimit) {
  // The chain workload is LP-heavy: its support LP needs far more than
  // one pivot, so max_pivots = 1 must trip inside the simplex phase.
  Schema schema = GenerateChainSchema(ChainParams{.length = 8, .fanout = 3});
  auto expansion = BuildExpansion(schema, ExpansionOptions{});
  ASSERT_TRUE(expansion.ok()) << expansion.status();
  PsiSolverOptions options;
  options.max_pivots = 1;
  auto solution = SolvePsi(*expansion, options);
  ASSERT_FALSE(solution.ok());
  EXPECT_EQ(solution.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(
      solution.status().message().find("limit=max_pivots phase=simplex"),
      std::string::npos)
      << solution.status();
}

TEST(GovernedSimplexTest, GovernedPivotCapRecordsTrip) {
  Schema schema = GenerateChainSchema(ChainParams{.length = 8, .fanout = 3});
  auto expansion = BuildExpansion(schema, ExpansionOptions{});
  ASSERT_TRUE(expansion.ok()) << expansion.status();
  ExecContext exec;
  PsiSolverOptions options;
  options.max_pivots = 1;
  options.exec = &exec;
  auto solution = SolvePsi(*expansion, options);
  ASSERT_FALSE(solution.ok());
  ASSERT_TRUE(exec.tripped());
  EXPECT_EQ(exec.report().kind, LimitKind::kMaxPivots);
  EXPECT_EQ(exec.report().phase, "simplex");
  EXPECT_EQ(exec.report().limit, 1u);
  EXPECT_GT(exec.progress().pivots_executed, 0u);
}

TEST(GovernedBoundedSearchTest, ConfigurationCapReportsStructuredLimit) {
  Rng rng(11);
  TinySchemaParams params;
  params.max_classes = 3;
  Schema schema = RandomTinySchema(&rng, params);
  ExecContext exec;
  BoundedSearchOptions options;
  options.max_configurations = 4;
  options.exec = &exec;
  auto outcome = FindModelWithNonemptyClass(schema, 0, options);
  // With a 4-configuration budget any nontrivial search trips.
  if (!outcome.ok()) {
    EXPECT_EQ(outcome.status().code(), StatusCode::kResourceExhausted);
    ASSERT_TRUE(exec.tripped());
    EXPECT_EQ(exec.report().kind, LimitKind::kMaxConfigurations);
    EXPECT_EQ(exec.report().phase, "bounded-search");
    EXPECT_GT(exec.progress().configurations_examined, 0u);
  }
}

// --- Graceful degradation ---------------------------------------------------

TEST(GracefulDegradationTest, GovernedCheckSchemaReturnsUnknown) {
  Schema schema = DenseSchema(8);
  ExecContext exec;
  ReasonerOptions options;
  options.expansion.max_compound_classes = 10;
  options.exec = &exec;
  Reasoner reasoner(&schema, options);
  auto report = reasoner.CheckSchema();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->verdict, Verdict::kUnknown);
  EXPECT_TRUE(report->limit.tripped());
  EXPECT_EQ(report->limit.kind, LimitKind::kMaxCompoundClasses);
  EXPECT_EQ(report->limit.ToString(),
            "limit=max_compound_classes phase=expansion count=10");
  EXPECT_TRUE(report->class_satisfiable.empty());
}

TEST(GracefulDegradationTest, UngovernedCheckSchemaKeepsErrorStatus) {
  Schema schema = DenseSchema(8);
  ReasonerOptions options;
  options.expansion.max_compound_classes = 10;
  Reasoner reasoner(&schema, options);
  auto report = reasoner.CheckSchema();
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kResourceExhausted);
}

TEST(GracefulDegradationTest, UnknownCarriesPartialStatistics) {
  Schema schema = DenseSchema(8);
  ExecContext exec;
  ReasonerOptions options;
  options.expansion.max_compound_classes = 10;
  options.exec = &exec;
  Reasoner reasoner(&schema, options);
  auto report = reasoner.CheckSchema();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_GT(report->progress.work_charged, 0u);
}

TEST(GracefulDegradationTest, GovernedSatRunStillReportsVerdicts) {
  Schema schema = DenseSchema(4);
  ExecContext exec;
  ReasonerOptions options;
  options.exec = &exec;
  Reasoner reasoner(&schema, options);
  auto report = reasoner.CheckSchema();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_NE(report->verdict, Verdict::kUnknown);
  EXPECT_EQ(report->verdict, report->unsatisfiable_classes.empty()
                                 ? Verdict::kSat
                                 : Verdict::kUnsat);
  EXPECT_GT(report->progress.work_charged, 0u);
}

TEST(GracefulDegradationTest, ExpiredDeadlineYieldsUnknownDeadline) {
  Schema schema = DenseSchema(8);
  ExecContext exec;
  exec.SetDeadlineAfter(std::chrono::milliseconds(0));
  ReasonerOptions options;
  options.exec = &exec;
  Reasoner reasoner(&schema, options);
  auto report = reasoner.CheckSchema();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->verdict, Verdict::kUnknown);
  EXPECT_EQ(report->limit.kind, LimitKind::kDeadline);
}

TEST(VerdictTest, ToStringSpellings) {
  EXPECT_STREQ(VerdictToString(Verdict::kSat), "sat");
  EXPECT_STREQ(VerdictToString(Verdict::kUnsat), "unsat");
  EXPECT_STREQ(VerdictToString(Verdict::kUnknown), "unknown");
}

// --- Fault-injection determinism sweeps ------------------------------------

/// The deterministic fingerprint of a governed CheckSchema run with a
/// trip injected after `inject` work units.
std::string InjectionFingerprint(const Schema& schema, uint64_t inject,
                                 int num_threads) {
  ExecContext exec;
  exec.InjectTripAfter(inject);
  ReasonerOptions options;
  options.num_threads = num_threads;
  options.exec = &exec;
  Reasoner reasoner(&schema, options);
  auto report = reasoner.CheckSchema();
  if (!report.ok()) {
    return std::string("error: ") + report.status().ToString();
  }
  std::string fingerprint = VerdictToString(report->verdict);
  if (report->verdict == Verdict::kUnknown) {
    fingerprint += " ";
    fingerprint += report->limit.ToString();
  } else {
    // Completed runs must still produce the canonical report.
    fingerprint += " unsat=";
    for (ClassId c : report->unsatisfiable_classes) {
      fingerprint += std::to_string(c) + ",";
    }
  }
  return fingerprint;
}

/// Sweeps the injection point across every abort boundary of the
/// pipeline for `schema` and asserts the outcome is bit-identical for
/// threads 1/2/8. Returns the set of phases seen in tripped reports.
std::set<std::string> SweepInjections(const Schema& schema,
                                      uint64_t max_inject,
                                      const char* label) {
  std::set<std::string> phases;
  for (uint64_t inject = 0; inject <= max_inject; ++inject) {
    std::string serial = InjectionFingerprint(schema, inject, 1);
    for (int threads : {2, 8}) {
      std::string parallel = InjectionFingerprint(schema, inject, threads);
      EXPECT_EQ(serial, parallel)
          << label << ": inject=" << inject << " threads=" << threads;
    }
    size_t at = serial.find("phase=");
    if (at != std::string::npos) {
      phases.insert(serial.substr(at + 6, serial.find(' ', at) - at - 6));
    }
  }
  return phases;
}

TEST(FaultInjectionSweepTest, DenseClusterTripsAreThreadCountInvariant) {
  // Expansion-heavy: injections land in the enumeration and consistency
  // filtering stages.
  Schema schema = DenseSchema(5);
  std::set<std::string> phases = SweepInjections(schema, 60, "dense");
  EXPECT_TRUE(phases.count("expansion") || phases.count("expansion-filter"))
      << "sweep never tripped in an expansion stage";
}

TEST(FaultInjectionSweepTest, ChainTripsAreThreadCountInvariant) {
  // LP-heavy: late injections land inside the simplex pivot loop.
  Schema schema = GenerateChainSchema(ChainParams{.length = 5, .fanout = 2});
  std::set<std::string> phases = SweepInjections(schema, 80, "chain");
  EXPECT_TRUE(phases.count("simplex") || phases.count("solver"))
      << "sweep never tripped in the solver stages";
}

TEST(FaultInjectionSweepTest, GeneralSchemaTripsAreThreadCountInvariant) {
  Rng rng(23);
  GeneralSchemaParams params;
  params.num_classes = 6;
  params.num_relations = 2;
  Schema schema = RandomGeneralSchema(&rng, params);
  SweepInjections(schema, 60, "general");
}

TEST(FaultInjectionSweepTest, WorkBudgetMatchesInjectionDeterminism) {
  // A work budget of b and an injection after b trip at the same charge;
  // the budget variant must be equally schedule-invariant.
  Schema schema = DenseSchema(5);
  for (uint64_t budget : {1u, 7u, 23u, 41u}) {
    std::string reference;
    for (int threads : kThreadCounts) {
      ExecContext exec;
      exec.SetWorkBudget(budget);
      ReasonerOptions options;
      options.num_threads = threads;
      options.exec = &exec;
      Reasoner reasoner(&schema, options);
      auto report = reasoner.CheckSchema();
      ASSERT_TRUE(report.ok()) << report.status();
      ASSERT_EQ(report->verdict, Verdict::kUnknown);
      std::string rendered = report->limit.ToString();
      EXPECT_EQ(report->limit.kind, LimitKind::kWorkBudget);
      EXPECT_EQ(report->limit.count, budget);
      if (reference.empty()) {
        reference = rendered;
      } else {
        EXPECT_EQ(reference, rendered) << "budget=" << budget;
      }
    }
  }
}

TEST(FaultInjectionSweepTest, BoundedSearchInjectionTripsDeterministically) {
  Rng rng(5);
  TinySchemaParams params;
  params.max_classes = 2;
  Schema schema = RandomTinySchema(&rng, params);
  for (uint64_t inject : {0u, 3u, 9u}) {
    ExecContext exec;
    exec.InjectTripAfter(inject);
    BoundedSearchOptions options;
    options.exec = &exec;
    auto outcome = FindModelWithNonemptyClass(schema, 0, options);
    if (exec.tripped()) {
      ASSERT_FALSE(outcome.ok());
      EXPECT_EQ(exec.report().kind, LimitKind::kFaultInjection);
      EXPECT_EQ(exec.report().phase, "bounded-search");
      EXPECT_EQ(exec.report().limit, inject);
    }
  }
}

TEST(FaultInjectionSweepTest, ImplicationBatchPhaseIsNormalized) {
  // Implication batches interleave expansion/solver/simplex charges from
  // concurrent sub-pipelines; a trip inside the batch must always report
  // phase=implication so the rendered report is schedule-invariant.
  Schema schema = DenseSchema(4);
  std::vector<ImplicationQuery> queries;
  for (ClassId a = 0; a < schema.num_classes(); ++a) {
    for (ClassId b = 0; b < schema.num_classes(); ++b) {
      if (a == b) continue;
      ImplicationQuery query;
      query.kind = ImplicationQuery::Kind::kDisjoint;
      query.class_id = a;
      query.other = b;
      queries.push_back(query);
    }
  }
  for (uint64_t inject : {50u, 200u, 800u}) {
    std::string reference;
    for (int threads : kThreadCounts) {
      ExecContext exec;
      ReasonerOptions options;
      options.num_threads = threads;
      options.exec = &exec;
      Reasoner reasoner(&schema, options);
      // Prepare the cached expansion/solution *before* arming the
      // injection so only the batch itself is governed.
      ASSERT_TRUE(reasoner.CheckSchema().ok());
      exec.InjectTripAfter(inject);
      auto answers = reasoner.RunImplicationBatch(queries);
      if (!exec.tripped()) continue;
      ASSERT_FALSE(answers.ok());
      LimitReport report = exec.report();
      EXPECT_EQ(report.phase, "implication") << "threads=" << threads;
      std::string rendered = report.ToString();
      if (reference.empty()) {
        reference = rendered;
      } else {
        EXPECT_EQ(reference, rendered)
            << "inject=" << inject << " threads=" << threads;
      }
    }
  }
}

}  // namespace
}  // namespace car
