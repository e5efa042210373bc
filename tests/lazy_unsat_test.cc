// The UNSAT side of the lazy engine (infeasibility-learning CEGAR):
// infeasible probes yield Farkas certificates, validated exactly and
// checked for closure under the not-yet-materialized columns; a closed
// certificate is a sound lazy UNSAT verdict, anything else degrades to
// the bit-identical eager fallback. The dense_unsat family is the
// stress case: the eager enumeration drowns in 2^chaff tautological
// subsets while the whole contradiction lives in a handful of singleton
// core compounds.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "base/exec_context.h"
#include "base/rng.h"
#include "expansion/expansion.h"
#include "math/linear.h"
#include "math/simplex.h"
#include "model/schema.h"
#include "reasoner/implication.h"
#include "reasoner/incremental.h"
#include "reasoner/lazy_engine.h"
#include "reasoner/reasoner.h"
#include "solver/incremental_psi.h"
#include "solver/solve.h"
#include "test_schemas.h"
#include "workloads/generators.h"

namespace car {
namespace {

constexpr int kThreadCounts[] = {1, 2, 8};

ReasonerOptions LazyOptions(int threads = 1) {
  ReasonerOptions options;
  options.num_threads = threads;
  options.lazy_expansion = true;
  return options;
}

// --- Analytic expansion sizes --------------------------------------------

TEST(DenseUnsatTest, AnalyticCompoundCountsMatchEager) {
  // The bench suite reports the analytic counts on cells where the eager
  // build cannot even finish counting; pin them to the eager reasoner on
  // cells where it can.
  for (int chaff : {1, 2, 5, 8}) {
    for (int core : {1, 2, 4}) {
      DenseUnsatParams unsat;
      unsat.chaff_classes = chaff;
      unsat.core_classes = core;
      Schema schema = GenerateDenseUnsatSchema(unsat);
      Reasoner eager(&schema, ReasonerOptions{});
      auto report = eager.CheckSchema();
      ASSERT_TRUE(report.ok())
          << "chaff=" << chaff << " core=" << core << ": " << report.status();
      EXPECT_EQ(report->num_compound_classes, DenseUnsatCompoundCount(unsat))
          << "chaff=" << chaff << " core=" << core;

      DenseBlowupParams blowup;
      blowup.chaff_classes = chaff;
      blowup.core_classes = core;
      Schema sat_schema = GenerateDenseBlowupSchema(blowup);
      Reasoner sat_eager(&sat_schema, ReasonerOptions{});
      auto sat_report = sat_eager.CheckSchema();
      ASSERT_TRUE(sat_report.ok())
          << "chaff=" << chaff << " core=" << core << ": "
          << sat_report.status();
      EXPECT_EQ(sat_report->num_compound_classes,
                DenseBlowupCompoundCount(blowup))
          << "chaff=" << chaff << " core=" << core;
    }
  }
}

// --- Differential soundness sweep ----------------------------------------

TEST(DenseUnsatTest, DifferentialSweepMatchesEagerAcrossThreads) {
  // 36 parameter points of the dense_unsat family, kept small enough for
  // the eager reference to answer. The lazy engine must agree classwise
  // at every thread count; the verdicts here are genuinely mixed (chaff
  // satisfiable, core unsatisfiable), so this exercises the probe path,
  // the closure check, and the SAT side in one schema.
  int sweep_points = 0;
  for (int chaff : {2, 3, 4}) {
    for (int core : {1, 2, 3, 4}) {
      for (uint64_t m : {uint64_t{1}, uint64_t{2}, uint64_t{3}}) {
        ++sweep_points;
        DenseUnsatParams params;
        params.chaff_classes = chaff;
        params.core_classes = core;
        params.max_cardinality = m;
        Schema schema = GenerateDenseUnsatSchema(params);

        Reasoner reference(&schema, ReasonerOptions{});
        auto expected = reference.CheckSchema();
        ASSERT_TRUE(expected.ok())
            << "chaff=" << chaff << " core=" << core << " m=" << m << ": "
            << expected.status();
        // The family's contract: every chaff class satisfiable, every
        // core class unsatisfiable.
        ASSERT_EQ(expected->verdict, Verdict::kUnsat)
            << "chaff=" << chaff << " core=" << core << " m=" << m;
        for (ClassId c = 0; c < schema.num_classes(); ++c) {
          EXPECT_EQ(expected->class_satisfiable[c], c < chaff)
              << "chaff=" << chaff << " core=" << core << " m=" << m
              << " class " << c;
        }

        for (int threads : kThreadCounts) {
          Reasoner lazy(&schema, LazyOptions(threads));
          auto report = lazy.CheckSchema();
          ASSERT_TRUE(report.ok())
              << "chaff=" << chaff << " core=" << core << " m=" << m
              << " threads=" << threads << ": " << report.status();
          EXPECT_EQ(expected->verdict, report->verdict)
              << "chaff=" << chaff << " core=" << core << " m=" << m
              << " threads=" << threads;
          EXPECT_EQ(expected->class_satisfiable, report->class_satisfiable)
              << "chaff=" << chaff << " core=" << core << " m=" << m
              << " threads=" << threads;
          EXPECT_EQ(expected->unsatisfiable_classes,
                    report->unsatisfiable_classes)
              << "chaff=" << chaff << " core=" << core << " m=" << m
              << " threads=" << threads;
        }
      }
    }
  }
  EXPECT_GE(sweep_points, 36);
}

// --- The dense UNSAT regime ----------------------------------------------

TEST(DenseUnsatTest, ConcludesUnsatBeyondEagerCap) {
  // chaff=22 puts the eager pruned enumeration at 2^22 subsets — beyond
  // its compound cap, so eager cannot answer at all. The lazy engine must
  // conclude the mixed verdict (chaff SAT, core UNSAT) from certificate
  // closures over a tiny materialized subset.
  DenseUnsatParams params;
  params.chaff_classes = 22;
  params.core_classes = 4;
  Schema schema = GenerateDenseUnsatSchema(params);

  Reasoner eager(&schema, ReasonerOptions{});
  auto eager_report = eager.CheckSchema();
  ASSERT_FALSE(eager_report.ok())
      << "expected the eager path to trip its enumeration cap";
  EXPECT_EQ(eager_report.status().code(), StatusCode::kResourceExhausted);

  const uint64_t full_size = DenseUnsatCompoundCount(params);
  for (int threads : kThreadCounts) {
    Reasoner lazy(&schema, LazyOptions(threads));
    auto report = lazy.CheckSchema();
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_EQ(report->verdict, Verdict::kUnsat) << "threads=" << threads;
    EXPECT_TRUE(report->lazy) << "threads=" << threads;
    ASSERT_EQ(report->class_satisfiable.size(),
              static_cast<size_t>(schema.num_classes()));
    for (ClassId c = 0; c < schema.num_classes(); ++c) {
      EXPECT_EQ(report->class_satisfiable[c], c < params.chaff_classes)
          << "threads=" << threads << " class " << c;
    }
    // The UNSAT verdicts must come from certificate closures, not the
    // empty-stream shortcut, and the materialized subset must stay under
    // 1% of the full expansion.
    EXPECT_GT(report->blocking_constraints, 0u) << "threads=" << threads;
    EXPECT_EQ(report->certificate_closures,
              static_cast<size_t>(params.core_classes))
        << "threads=" << threads;
    EXPECT_GT(report->compounds_materialized, 0u) << "threads=" << threads;
    EXPECT_LT(report->compounds_materialized, full_size / 100)
        << "threads=" << threads;
  }
}

TEST(DenseUnsatTest, ProbesDisabledFallsBackToEagerVerdict) {
  // With unsat_probes off (the PR 9 behavior) the exhausted-and-
  // uncovered core targets stall the lazy engine into the eager
  // fallback; the composite answer must still be exact on a cell small
  // enough for eager to finish.
  DenseUnsatParams params;
  params.chaff_classes = 6;
  params.core_classes = 3;
  Schema schema = GenerateDenseUnsatSchema(params);

  Reasoner reference(&schema, ReasonerOptions{});
  auto expected = reference.CheckSchema();
  ASSERT_TRUE(expected.ok()) << expected.status();

  ReasonerOptions options = LazyOptions();
  options.lazy.unsat_probes = false;
  Reasoner lazy(&schema, options);
  auto report = lazy.CheckSchema();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(expected->verdict, report->verdict);
  EXPECT_EQ(expected->class_satisfiable, report->class_satisfiable);
  EXPECT_FALSE(report->lazy)
      << "without probes this schema must take the eager fallback";
}

TEST(DenseUnsatTest, IncrementalSessionCountsCertificateClosures) {
  // Satisfiability probes routed through a lazy incremental session must
  // agree with the reference and surface the new UNSAT-side counters.
  DenseUnsatParams params;
  params.chaff_classes = 6;
  params.core_classes = 3;
  Schema schema = GenerateDenseUnsatSchema(params);

  std::vector<ImplicationQuery> queries;
  for (ClassId c = 0; c < schema.num_classes(); ++c) {
    // `c isa !c` holds exactly when c is unsatisfiable, so the batch
    // exercises both verdicts through the aux-class probe path.
    ImplicationQuery query;
    query.kind = ImplicationQuery::Kind::kIsa;
    query.class_id = c;
    query.formula =
        ClassFormula({ClassClause::Of(ClassLiteral::Negative(c))});
    queries.push_back(query);
  }

  Reasoner reference(&schema, ReasonerOptions{});
  auto expected = reference.RunImplicationBatch(queries);
  ASSERT_TRUE(expected.ok()) << expected.status();

  for (int threads : kThreadCounts) {
    ReasonerOptions options = LazyOptions(threads);
    // The static-closure prefilter may certify some core queries by
    // table lookup before any probe runs; switch it off so the batch
    // exercises the lazy probe path this test is about.
    options.prefilter = false;
    IncrementalSession session(&schema, options);
    auto answers = session.RunImplicationBatch(queries);
    ASSERT_TRUE(answers.ok())
        << "threads=" << threads << ": " << answers.status();
    EXPECT_EQ(expected.value(), answers.value()) << "threads=" << threads;
    IncrementalStats stats = session.stats();
    EXPECT_GT(stats.lazy_blocking_constraints, 0u) << "threads=" << threads;
    EXPECT_GT(stats.lazy_certificate_closures, 0u) << "threads=" << threads;
  }
}

// --- Certificate extraction and validation (simplex level) ---------------

/// x0 >= 2 and x0 <= 1: minimally infeasible over nonnegative variables.
LinearSystem TinyInfeasibleSystem() {
  LinearSystem system;
  int x = system.AddVariable("x");
  LinearConstraint lower;
  lower.expr.Add(x, Rational(1));
  lower.relation = Relation::kGreaterEqual;
  lower.rhs = Rational(2);
  system.AddConstraint(lower);
  LinearConstraint upper;
  upper.expr.Add(x, Rational(1));
  upper.relation = Relation::kLessEqual;
  upper.rhs = Rational(1);
  system.AddConstraint(upper);
  return system;
}

TEST(InfeasibilityCertificateTest, ExtractedCertificateValidates) {
  LinearSystem system = TinyInfeasibleSystem();
  SimplexSolver::Options options;
  options.extract_certificate = true;
  SimplexSolver solver(options);
  auto result = solver.CheckFeasible(system);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->outcome, LpOutcome::kInfeasible);
  ASSERT_TRUE(result->infeasibility_certificate.has_value());
  EXPECT_TRUE(ValidateInfeasibilityCertificate(
      system, *result->infeasibility_certificate));
}

TEST(InfeasibilityCertificateTest, FeasibleSolveExtractsNothing) {
  LinearSystem system;
  int x = system.AddVariable("x");
  LinearConstraint lower;
  lower.expr.Add(x, Rational(1));
  lower.relation = Relation::kGreaterEqual;
  lower.rhs = Rational(1);
  system.AddConstraint(lower);
  SimplexSolver::Options options;
  options.extract_certificate = true;
  SimplexSolver solver(options);
  auto result = solver.CheckFeasible(system);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->outcome, LpOutcome::kOptimal);
  EXPECT_FALSE(result->infeasibility_certificate.has_value());
}

TEST(InfeasibilityCertificateTest, ExtractionOffByDefault) {
  LinearSystem system = TinyInfeasibleSystem();
  SimplexSolver solver;
  auto result = solver.CheckFeasible(system);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->outcome, LpOutcome::kInfeasible);
  EXPECT_FALSE(result->infeasibility_certificate.has_value());
}

TEST(InfeasibilityCertificateTest, RejectsCorruptedCertificates) {
  // Mirrors the witness-corruption suite: take a genuine certificate and
  // break each Farkas condition in turn; the trust-nothing validator
  // must reject every corruption.
  LinearSystem system = TinyInfeasibleSystem();
  SimplexSolver::Options options;
  options.extract_certificate = true;
  SimplexSolver solver(options);
  auto result = solver.CheckFeasible(system);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_TRUE(result->infeasibility_certificate.has_value());
  const InfeasibilityCertificate good = *result->infeasibility_certificate;
  ASSERT_TRUE(ValidateInfeasibilityCertificate(system, good));

  {  // Size mismatch (truncated).
    InfeasibilityCertificate certificate = good;
    certificate.row_multipliers.pop_back();
    EXPECT_FALSE(ValidateInfeasibilityCertificate(system, certificate));
  }
  {  // Size mismatch (padded).
    InfeasibilityCertificate certificate = good;
    certificate.row_multipliers.push_back(Rational(0));
    EXPECT_FALSE(ValidateInfeasibilityCertificate(system, certificate));
  }
  {  // Sign violation: a >=-row with a negative multiplier.
    InfeasibilityCertificate certificate = good;
    certificate.row_multipliers[0] = Rational(-1);
    EXPECT_FALSE(ValidateInfeasibilityCertificate(system, certificate));
  }
  {  // Sign violation: a <=-row with a positive multiplier.
    InfeasibilityCertificate certificate = good;
    certificate.row_multipliers[1] = Rational(1);
    EXPECT_FALSE(ValidateInfeasibilityCertificate(system, certificate));
  }
  {  // All-zero: the combined right-hand side loses its positive gap.
    InfeasibilityCertificate certificate = good;
    for (Rational& nu : certificate.row_multipliers) nu = Rational(0);
    EXPECT_FALSE(ValidateInfeasibilityCertificate(system, certificate));
  }
  {  // Positive combined column: drop the <=-row's cancelling multiplier.
    InfeasibilityCertificate certificate = good;
    certificate.row_multipliers[1] = Rational(0);
    EXPECT_FALSE(ValidateInfeasibilityCertificate(system, certificate));
  }
  {  // A certificate for a DIFFERENT (feasible) system must not carry
     // over: same shape, relaxed bound.
    LinearSystem feasible;
    int x = feasible.AddVariable("x");
    LinearConstraint lower;
    lower.expr.Add(x, Rational(1));
    lower.relation = Relation::kGreaterEqual;
    lower.rhs = Rational(1);
    feasible.AddConstraint(lower);
    LinearConstraint upper;
    upper.expr.Add(x, Rational(1));
    upper.relation = Relation::kLessEqual;
    upper.rhs = Rational(3);
    feasible.AddConstraint(upper);
    EXPECT_FALSE(ValidateInfeasibilityCertificate(feasible, good));
  }
}

TEST(InfeasibilityCertificateTest, EqualityRowsMayCarryEitherSign) {
  // x = 3 and x <= 1: the certificate needs a positive multiplier on the
  // equality (and the validator must allow it despite "either sign").
  LinearSystem system;
  int x = system.AddVariable("x");
  LinearConstraint eq;
  eq.expr.Add(x, Rational(1));
  eq.relation = Relation::kEqual;
  eq.rhs = Rational(3);
  system.AddConstraint(eq);
  LinearConstraint upper;
  upper.expr.Add(x, Rational(1));
  upper.relation = Relation::kLessEqual;
  upper.rhs = Rational(1);
  system.AddConstraint(upper);

  SimplexSolver::Options options;
  options.extract_certificate = true;
  SimplexSolver solver(options);
  auto result = solver.CheckFeasible(system);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->outcome, LpOutcome::kInfeasible);
  ASSERT_TRUE(result->infeasibility_certificate.has_value());
  EXPECT_TRUE(ValidateInfeasibilityCertificate(
      system, *result->infeasibility_certificate));

  // The mirrored contradiction (x = 3, x >= 5) needs a negative
  // multiplier on the equality.
  LinearSystem mirrored;
  int y = mirrored.AddVariable("y");
  LinearConstraint eq2;
  eq2.expr.Add(y, Rational(1));
  eq2.relation = Relation::kEqual;
  eq2.rhs = Rational(3);
  mirrored.AddConstraint(eq2);
  LinearConstraint lower;
  lower.expr.Add(y, Rational(1));
  lower.relation = Relation::kGreaterEqual;
  lower.rhs = Rational(5);
  mirrored.AddConstraint(lower);
  auto mirrored_result = solver.CheckFeasible(mirrored);
  ASSERT_TRUE(mirrored_result.ok()) << mirrored_result.status();
  ASSERT_EQ(mirrored_result->outcome, LpOutcome::kInfeasible);
  ASSERT_TRUE(mirrored_result->infeasibility_certificate.has_value());
  EXPECT_TRUE(ValidateInfeasibilityCertificate(
      mirrored, *mirrored_result->infeasibility_certificate));
}

TEST(InfeasibilityCertificateTest, RandomInfeasibleSystemsAllValidate) {
  // Sweep the randomized workload generators for naturally-arising
  // infeasible Ψ systems: every extracted certificate must validate.
  int extracted = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed * 31);
    GeneralSchemaParams params;
    params.num_classes = 3 + static_cast<int>(seed % 5);
    params.num_attributes = 2;
    params.negation_percent = 45;
    Schema schema = RandomGeneralSchema(&rng, params);
    // A "partial" expansion equal to the FULL expansion, so each probe is
    // exactly "is c satisfiable as a raw LP".
    auto expansion = BuildExpansion(schema);
    ASSERT_TRUE(expansion.ok()) << "seed " << seed << ": "
                                << expansion.status();
    for (ClassId c = 0; c < schema.num_classes(); ++c) {
      UnsatProbe probe = BuildUnsatProbe(*expansion, c);
      auto result = SolveUnsatProbe(probe, PsiSolverOptions{});
      ASSERT_TRUE(result.ok()) << "seed " << seed << ": " << result.status();
      if (result->outcome != LpOutcome::kInfeasible) continue;
      ASSERT_TRUE(result->infeasibility_certificate.has_value())
          << "seed " << seed << " class " << c;
      EXPECT_TRUE(ValidateInfeasibilityCertificate(
          probe.psi.system, *result->infeasibility_certificate))
          << "seed " << seed << " class " << c;
      ++extracted;
    }
  }
  // The sweep must actually exercise extraction.
  EXPECT_GE(extracted, 10);
}

// --- Fault injection over the new abort points ---------------------------

TEST(DenseUnsatTest, FaultInjectionSweepDegradesToUnknown) {
  // Chart the governed work of a complete lazy dense-unsat run (probes,
  // certificate learning and closure included), then re-run with the
  // deterministic fault injected at every threshold. Each injected run
  // must either finish with the reference verdict or report kUnknown
  // with a coherent kFaultInjection LimitReport — never a wrong verdict,
  // never an error status.
  DenseUnsatParams params;
  params.chaff_classes = 6;
  params.core_classes = 3;
  Schema schema = GenerateDenseUnsatSchema(params);

  std::vector<bool> reference;
  uint64_t total_work = 0;
  {
    ExecContext exec;
    ReasonerOptions options = LazyOptions();
    options.exec = &exec;
    Reasoner reasoner(&schema, options);
    auto report = reasoner.CheckSchema();
    ASSERT_TRUE(report.ok()) << report.status();
    ASSERT_EQ(report->verdict, Verdict::kUnsat);
    ASSERT_TRUE(report->lazy)
        << "the charted run must take the probe path, not the fallback";
    ASSERT_GT(report->certificate_closures, 0u);
    reference = report->class_satisfiable;
    total_work = report->progress.work_charged;
    ASSERT_GT(total_work, 0u);
  }

  for (uint64_t inject = 0; inject <= total_work; ++inject) {
    ExecContext exec;
    exec.InjectTripAfter(inject);
    ReasonerOptions options = LazyOptions();
    options.exec = &exec;
    Reasoner reasoner(&schema, options);
    auto report = reasoner.CheckSchema();
    ASSERT_TRUE(report.ok()) << "inject=" << inject << ": "
                             << report.status();
    if (report->verdict == Verdict::kUnknown) {
      EXPECT_TRUE(report->limit.tripped()) << "inject=" << inject;
      EXPECT_EQ(report->limit.kind, LimitKind::kFaultInjection)
          << "inject=" << inject;
      EXPECT_FALSE(report->limit.phase.empty()) << "inject=" << inject;
      EXPECT_TRUE(report->class_satisfiable.empty()) << "inject=" << inject;
    } else {
      EXPECT_EQ(report->verdict, Verdict::kUnsat) << "inject=" << inject;
      EXPECT_EQ(report->class_satisfiable, reference)
          << "inject=" << inject;
    }
  }
}

// --- Stored seed bases ------------------------------------------------------

/// Queries of every probe kind about `subject`: ISA with one clause, two
/// clauses and negated literals, disjointness, min/max cardinality on
/// every attribute both ways, and min/max participation on every role.
std::vector<ImplicationQuery> EveryProbeKind(const Schema& schema,
                                             ClassId subject) {
  const ClassId other = (subject + 1) % schema.num_classes();
  const ClassId third = (subject + 2) % schema.num_classes();
  std::vector<ImplicationQuery> queries;
  ImplicationQuery isa;
  isa.kind = ImplicationQuery::Kind::kIsa;
  isa.class_id = subject;
  isa.formula = ClassFormula::OfClass(other);
  queries.push_back(isa);
  isa.formula = ClassFormula({ClassClause::Of(ClassLiteral::Positive(other)),
                              ClassClause::Of(ClassLiteral::Positive(third))});
  queries.push_back(isa);
  ClassClause negated;
  negated.AddLiteral(ClassLiteral::Negative(other));
  negated.AddLiteral(ClassLiteral::Negative(third));
  isa.formula = ClassFormula({negated});
  queries.push_back(isa);
  ImplicationQuery disjoint;
  disjoint.kind = ImplicationQuery::Kind::kDisjoint;
  disjoint.class_id = subject;
  disjoint.other = other;
  queries.push_back(disjoint);
  for (AttributeId a = 0; a < schema.num_attributes(); ++a) {
    for (bool inverse : {false, true}) {
      for (auto kind : {ImplicationQuery::Kind::kMinCardinality,
                        ImplicationQuery::Kind::kMaxCardinality}) {
        ImplicationQuery query;
        query.kind = kind;
        query.class_id = subject;
        query.term = inverse ? AttributeTerm::Inverse(a)
                             : AttributeTerm::Direct(a);
        query.bound = 1;
        queries.push_back(query);
      }
    }
  }
  for (RelationId r = 0; r < schema.num_relations(); ++r) {
    for (RoleId role : schema.relation_definition(r)->roles) {
      for (auto kind : {ImplicationQuery::Kind::kMinParticipation,
                        ImplicationQuery::Kind::kMaxParticipation}) {
        ImplicationQuery query;
        query.kind = kind;
        query.class_id = subject;
        query.relation = r;
        query.role = role;
        query.bound = 1;
        queries.push_back(query);
      }
    }
  }
  return queries;
}

/// Expects a stored seed to be exactly what a from-scratch assembly of
/// its compounds over `extended` (the base schema plus the auxiliary
/// class `aux`) gives: compounds, compound attributes and relations,
/// Natt/Nrel, and the Ψ base's constrained mask and support variables.
void ExpectSeedMatchesAssembly(const LazySeedBase& entry,
                               const Schema& extended, ClassId aux,
                               const std::string& label) {
  std::vector<CompoundClass> compounds(
      entry.seed.compound_classes.begin() + 1,
      entry.seed.compound_classes.end());
  for (const CompoundClass& compound : compounds) {
    EXPECT_FALSE(compound.Contains(aux)) << label;
  }
  auto assembled = AssembleExpansion(extended, compounds);
  ASSERT_TRUE(assembled.ok()) << label << ": " << assembled.status();
  EXPECT_EQ(entry.seed.compound_classes, assembled->compound_classes)
      << label;
  EXPECT_TRUE(entry.seed.compound_attributes ==
              assembled->compound_attributes)
      << label;
  EXPECT_TRUE(entry.seed.compound_relations == assembled->compound_relations)
      << label;
  EXPECT_TRUE(entry.seed.natt == assembled->natt) << label;
  EXPECT_TRUE(entry.seed.nrel == assembled->nrel) << label;

  auto expected_psi =
      BuildIncrementalPsiBaseStructure(*assembled, PsiSolverOptions{});
  ASSERT_TRUE(expected_psi.ok()) << label << ": " << expected_psi.status();
  ASSERT_TRUE(entry.psi.has_value()) << label;
  EXPECT_EQ(entry.psi->cc_constrained, expected_psi->cc_constrained)
      << label;
  EXPECT_EQ(entry.psi->t_var, expected_psi->t_var) << label;
}

TEST(LazySeedStoreTest, StoredSeedsEqualAssemblyInEveryProbeSchema) {
  // An implication probe adds one fresh class, so a seed's base-only
  // compounds must assemble identically in every probe's schema: each
  // probe checks every entry stored so far against its own schema, and
  // refines exactly as a run that stores and reuses nothing.
  DenseBlowupParams blowup;
  blowup.chaff_classes = 4;
  blowup.core_classes = 3;
  DenseUnsatParams unsat;
  unsat.chaff_classes = 4;
  unsat.core_classes = 3;
  std::vector<std::pair<std::string, Schema>> schemas;
  schemas.emplace_back("dense-blowup", GenerateDenseBlowupSchema(blowup));
  schemas.emplace_back("dense-unsat", GenerateDenseUnsatSchema(unsat));
  schemas.emplace_back("figure2", testing_schemas::Figure2());
  for (const auto& [label, schema] : schemas) {
    Reasoner reference(&schema, ReasonerOptions{});
    LazySeedStore seeds(&schema);
    size_t solves = 0;
    size_t reuses = 0;
    AuxClassProber prober =
        [&, label = label](const AuxClassProbe& probe) -> Result<bool> {
      CAR_ASSIGN_OR_RETURN(AuxiliarySchema extended,
                           BuildAuxiliarySchema(schema, probe));
      CAR_ASSIGN_OR_RETURN(
          LazyOutcome lazy,
          RunLazyExpansion(extended.schema, {extended.aux}, nullptr,
                           ExpansionOptions{}, PsiSolverOptions{},
                           LazyExpansionOptions{}, &seeds));
      solves += lazy.seed_solves;
      reuses += lazy.seed_reuses;
      // The same run over a store of its own schema, where nothing is
      // auxiliary and nothing is stored yet, must refine identically.
      LazySeedStore cold_seeds(&extended.schema);
      CAR_ASSIGN_OR_RETURN(
          LazyOutcome cold,
          RunLazyExpansion(extended.schema, {extended.aux}, nullptr,
                           ExpansionOptions{}, PsiSolverOptions{},
                           LazyExpansionOptions{}, &cold_seeds));
      EXPECT_FALSE(lazy.spurious_witness) << label;
      EXPECT_EQ(lazy.conclusive, cold.conclusive) << label;
      EXPECT_EQ(lazy.class_satisfiable, cold.class_satisfiable) << label;
      EXPECT_EQ(lazy.refinement_rounds, cold.refinement_rounds) << label;
      EXPECT_EQ(lazy.compounds_materialized, cold.compounds_materialized)
          << label;
      EXPECT_EQ(lazy.blocking_constraints, cold.blocking_constraints)
          << label;
      EXPECT_EQ(lazy.certificate_closures, cold.certificate_closures)
          << label;
      for (const LazySeedBase* entry : seeds.Entries()) {
        ExpectSeedMatchesAssembly(*entry, extended.schema, extended.aux,
                                  label);
      }
      if (lazy.conclusive) {
        return static_cast<bool>(lazy.class_satisfiable[extended.aux]);
      }
      return EagerClassSatisfiable(extended.schema, extended.aux,
                                   ReasonerOptions{});
    };
    // Every other class as the subject keeps the from-scratch reference
    // cheap; the probe kinds are the same for each subject.
    std::vector<ImplicationQuery> queries;
    for (ClassId subject = 0; subject < schema.num_classes(); subject += 2) {
      for (ImplicationQuery& query : EveryProbeKind(schema, subject)) {
        queries.push_back(std::move(query));
      }
    }
    auto expected = reference.RunImplicationBatch(queries);
    ASSERT_TRUE(expected.ok()) << label << ": " << expected.status();
    for (size_t i = 0; i < queries.size(); ++i) {
      auto answer = DecideImplication(schema, queries[i], prober);
      ASSERT_TRUE(answer.ok()) << label << " #" << i << ": "
                               << answer.status();
      EXPECT_EQ(expected.value()[i], answer.value()) << label << " #" << i;
    }
    EXPECT_GT(seeds.Entries().size(), 0u) << label;
    EXPECT_GT(solves, 0u) << label;
    EXPECT_GT(reuses, 0u) << label;
  }
}

TEST(LazySeedStoreTest, FootprintCountsEntriesUntilCleared) {
  DenseUnsatParams params;
  params.chaff_classes = 5;
  params.core_classes = 3;
  Schema schema = GenerateDenseUnsatSchema(params);
  LazySeedStore seeds(&schema);
  EXPECT_EQ(seeds.footprint().compound_classes, 0u);
  const ClassId last = schema.num_classes() - 1;
  auto outcome =
      RunLazyExpansion(schema, {last}, nullptr, ExpansionOptions{},
                       PsiSolverOptions{}, LazyExpansionOptions{}, &seeds);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  ASSERT_EQ(outcome->seed_solves, 1u);
  LazySeedStore::Footprint footprint = seeds.footprint();
  EXPECT_GT(footprint.compound_classes, 0u);
  EXPECT_GT(footprint.tableau_nonzeros, 0u);
  seeds.Clear();
  EXPECT_TRUE(seeds.Entries().empty());
  EXPECT_EQ(seeds.footprint().compound_classes, 0u);
  EXPECT_EQ(seeds.footprint().tableau_nonzeros, 0u);
}

TEST(LazySeedStoreTest, SessionFaultInjectionSweepNeverStoresAPartialSeed) {
  // A governed lazy session tripped at every work threshold of a batch
  // whose probes share seeds: each run either answers exactly or trips
  // with a fault-injection report, and the same session answers an
  // ungoverned batch exactly afterwards — a trip inside a seed build
  // leaves nothing half-built behind.
  DenseUnsatParams params;
  params.chaff_classes = 4;
  params.core_classes = 3;
  Schema schema = GenerateDenseUnsatSchema(params);
  // Two queries per core class with the same auxiliary class, so the
  // second resumes the seed the first solved.
  std::vector<ImplicationQuery> queries;
  for (ClassId c = params.chaff_classes; c < schema.num_classes(); ++c) {
    ImplicationQuery query;
    query.kind = ImplicationQuery::Kind::kIsa;
    query.class_id = c;
    query.formula = ClassFormula::OfNegatedClass(c);
    queries.push_back(query);
    query.kind = ImplicationQuery::Kind::kDisjoint;
    query.other = c;
    queries.push_back(query);
  }
  Reasoner reference(&schema, ReasonerOptions{});
  auto expected = reference.RunImplicationBatch(queries);
  ASSERT_TRUE(expected.ok()) << expected.status();

  ReasonerOptions options = LazyOptions();
  options.prefilter = false;
  uint64_t total_work = 0;
  {
    ExecContext exec;
    IncrementalSession session(&schema, options);
    session.set_exec(&exec);
    auto answers = session.RunImplicationBatch(queries);
    ASSERT_TRUE(answers.ok()) << answers.status();
    ASSERT_EQ(expected.value(), answers.value());
    IncrementalStats stats = session.stats();
    ASSERT_GT(stats.lazy_seed_solves, 0u);
    ASSERT_GT(stats.lazy_seed_reuses, 0u);
    total_work = exec.progress().work_charged;
    ASSERT_GT(total_work, 0u);
  }

  size_t tripped = 0;
  for (uint64_t inject = 0; inject <= total_work; ++inject) {
    ExecContext exec;
    exec.InjectTripAfter(inject);
    IncrementalSession session(&schema, options);
    session.set_exec(&exec);
    auto answers = session.RunImplicationBatch(queries);
    if (answers.ok()) {
      EXPECT_EQ(expected.value(), answers.value()) << "inject=" << inject;
    } else {
      ++tripped;
      EXPECT_TRUE(exec.tripped()) << "inject=" << inject;
      EXPECT_EQ(exec.report().kind, LimitKind::kFaultInjection)
          << "inject=" << inject;
    }
    session.set_exec(nullptr);
    auto again = session.RunImplicationBatch(queries);
    ASSERT_TRUE(again.ok()) << "inject=" << inject << ": " << again.status();
    EXPECT_EQ(expected.value(), again.value()) << "inject=" << inject;
  }
  EXPECT_GT(tripped, 0u);
}

TEST(LazySeedStoreTest, SharedSeedChargesDoNotDependOnThreadCount) {
  // Probes that share a seed race to assemble and solve it; the store
  // builds each set once, so a batch charges the same work at every
  // thread count, and a work budget or injection threshold trips — with
  // the same report — or not alike at 1, 2 and 8 threads.
  DenseUnsatParams params;
  params.chaff_classes = 4;
  params.core_classes = 3;
  Schema schema = GenerateDenseUnsatSchema(params);
  std::vector<ImplicationQuery> queries;
  for (ClassId c = params.chaff_classes; c < schema.num_classes(); ++c) {
    ImplicationQuery query;
    query.kind = ImplicationQuery::Kind::kIsa;
    query.class_id = c;
    query.formula = ClassFormula::OfNegatedClass(c);
    queries.push_back(query);
    query.kind = ImplicationQuery::Kind::kDisjoint;
    query.other = c;
    queries.push_back(query);
  }

  // Returns "ok" or the trip's report, after checking the answers.
  auto run = [&](int threads, uint64_t inject,
                 uint64_t work_budget) -> std::string {
    ReasonerOptions options = LazyOptions(threads);
    options.prefilter = false;
    ExecContext exec;
    if (inject != AdmissionLimits::kNoInjection) exec.InjectTripAfter(inject);
    if (work_budget != 0) exec.SetWorkBudget(work_budget);
    IncrementalSession session(&schema, options);
    session.set_exec(&exec);
    auto answers = session.RunImplicationBatch(queries);
    if (!answers.ok()) return exec.report().ToString();
    EXPECT_GT(session.stats().lazy_seed_reuses, 0u) << "threads=" << threads;
    return "ok work=" + std::to_string(exec.progress().work_charged);
  };

  const std::string full = run(1, AdmissionLimits::kNoInjection, 0);
  ASSERT_EQ(full.rfind("ok work=", 0), 0u) << full;
  const uint64_t total_work = std::stoull(full.substr(8));
  for (int threads : kThreadCounts) {
    EXPECT_EQ(run(threads, AdmissionLimits::kNoInjection, 0), full)
        << "threads=" << threads;
  }
  size_t tripped = 0;
  for (uint64_t limit = 0; limit <= total_work; ++limit) {
    const std::string injected = run(1, limit, 0);
    const std::string budgeted = run(1, AdmissionLimits::kNoInjection,
                                     limit + 1);
    if (injected.rfind("ok", 0) != 0) ++tripped;
    for (int threads : {2, 8}) {
      EXPECT_EQ(run(threads, limit, 0), injected)
          << "inject=" << limit << " threads=" << threads;
      EXPECT_EQ(run(threads, AdmissionLimits::kNoInjection, limit + 1),
                budgeted)
          << "budget=" << limit + 1 << " threads=" << threads;
    }
  }
  EXPECT_GT(tripped, 0u);
}

}  // namespace
}  // namespace car
