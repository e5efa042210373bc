// The equivalence contract of the incremental implication engine
// (IncrementalSession): answers are bit-identical to the from-scratch
// Reasoner::RunImplicationBatch for every schema, batch, and thread
// count — the deltas, warm starts, and the memo are pure performance
// machinery. Governed sessions may trip at different points than the
// from-scratch engine (they do less work), but a governed run either
// completes with the exact reference answers or fails with the
// governor's LimitReport; it never returns a wrong answer. Schema
// mutation between batches must be detected by fingerprint and rebuild
// the base state and memo. Lazy sessions are routed by expansion size:
// hierarchy-shaped schemas build the solved base at once, blow-up schemas
// keep the lazy engine, and the routing build is governed like any other.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "base/exec_context.h"
#include "base/rng.h"
#include "base/strings.h"
#include "model/schema.h"
#include "reasoner/incremental.h"
#include "reasoner/reasoner.h"
#include "test_schemas.h"
#include "workloads/generators.h"

namespace car {
namespace {

constexpr int kThreadCounts[] = {1, 2, 8};

/// A deterministic batch of implication queries mixing every query kind,
/// drawn from the schema's classes/attributes/relations. Mirrors the
/// EXP-I benchmark driver's generator; duplicates are kept on purpose so
/// the batch exercises the memo and the canonical-key dedup.
std::vector<ImplicationQuery> MakeBatch(const Schema& schema, Rng* rng,
                                        int count) {
  std::vector<ImplicationQuery> queries;
  while (static_cast<int>(queries.size()) < count) {
    ImplicationQuery query;
    switch (rng->NextBelow(schema.num_relations() > 0 ? 6 : 4)) {
      case 0:
        query.kind = ImplicationQuery::Kind::kIsa;
        query.class_id =
            static_cast<ClassId>(rng->NextBelow(schema.num_classes()));
        query.formula = ClassFormula::OfClass(
            static_cast<ClassId>(rng->NextBelow(schema.num_classes())));
        break;
      case 1:
        query.kind = ImplicationQuery::Kind::kDisjoint;
        query.class_id =
            static_cast<ClassId>(rng->NextBelow(schema.num_classes()));
        query.other =
            static_cast<ClassId>(rng->NextBelow(schema.num_classes()));
        break;
      case 2:
      case 3: {
        if (schema.num_attributes() == 0) continue;
        bool min = rng->NextBelow(2) == 0;
        query.kind = min ? ImplicationQuery::Kind::kMinCardinality
                         : ImplicationQuery::Kind::kMaxCardinality;
        query.class_id =
            static_cast<ClassId>(rng->NextBelow(schema.num_classes()));
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
        query.class_id =
            static_cast<ClassId>(rng->NextBelow(schema.num_classes()));
        query.relation = relation;
        query.role =
            definition->roles[rng->NextBelow(definition->roles.size())];
        query.bound = 1 + rng->NextBelow(3);
        break;
      }
    }
    queries.push_back(std::move(query));
  }
  return queries;
}

/// The schemas the equivalence sweeps run over. Chain schemas are the
/// incremental engine's demonstration regime (small deltas on a deep
/// disequation system), clustered ones its adversarial regime (deltas
/// rival the base), hierarchies exercise disjointness-heavy bases.
std::vector<std::pair<std::string, Schema>> TestSchemas() {
  std::vector<std::pair<std::string, Schema>> schemas;
  schemas.emplace_back("chain-6x2", GenerateChainSchema(ChainParams{6, 2}));
  {
    Rng rng(11);
    schemas.emplace_back("clustered-3x3", GenerateClusteredSchema(
                                              &rng, ClusteredParams{3, 3, 2,
                                                                    false}));
  }
  {
    Rng rng(7);
    HierarchyParams params;
    params.num_classes = 9;
    params.num_trees = 2;
    schemas.emplace_back("hierarchy-9", GenerateHierarchy(&rng, params));
  }
  return schemas;
}

TEST(IncrementalEquivalenceTest, BatchAnswersMatchFromScratchAcrossThreads) {
  for (const auto& [label, schema] : TestSchemas()) {
    Rng query_rng(101);
    std::vector<ImplicationQuery> queries = MakeBatch(schema, &query_rng, 24);

    // Reference: serial from-scratch answers.
    Reasoner reference(&schema, ReasonerOptions{});
    auto expected = reference.RunImplicationBatch(queries);
    ASSERT_TRUE(expected.ok()) << label << ": " << expected.status();

    for (int threads : kThreadCounts) {
      ReasonerOptions options;
      options.num_threads = threads;
      IncrementalSession session(&schema, options);
      auto answers = session.RunImplicationBatch(queries);
      ASSERT_TRUE(answers.ok())
          << label << " threads=" << threads << ": " << answers.status();
      EXPECT_EQ(expected.value(), answers.value())
          << label << " threads=" << threads;
      IncrementalStats stats = session.stats();
      EXPECT_EQ(stats.queries, queries.size())
          << label << " threads=" << threads;
      EXPECT_EQ(stats.base_builds, 1u) << label << " threads=" << threads;
      EXPECT_EQ(stats.fallbacks, 0u) << label << " threads=" << threads;
    }
  }
}

TEST(IncrementalEquivalenceTest, RepeatedBatchIsServedFromMemo) {
  Schema schema = GenerateChainSchema(ChainParams{6, 2});
  Rng query_rng(202);
  std::vector<ImplicationQuery> queries = MakeBatch(schema, &query_rng, 16);

  IncrementalSession session(&schema, ReasonerOptions{});
  auto first = session.RunImplicationBatch(queries);
  ASSERT_TRUE(first.ok()) << first.status();
  IncrementalStats after_first = session.stats();

  auto second = session.RunImplicationBatch(queries);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(first.value(), second.value());

  IncrementalStats after_second = session.stats();
  // The repeat performs no new probes or base builds: every non-trivial
  // query hits the memo.
  EXPECT_EQ(after_second.probes, after_first.probes);
  EXPECT_EQ(after_second.base_builds, after_first.base_builds);
  uint64_t nontrivial =
      queries.size() - (after_second.trivial - after_first.trivial);
  EXPECT_EQ(after_second.memo_hits - after_first.memo_hits, nontrivial);
}

TEST(IncrementalEquivalenceTest, SchemaMutationInvalidatesBaseAndMemo) {
  Rng rng(11);
  Schema schema =
      GenerateClusteredSchema(&rng, ClusteredParams{3, 3, 2, false});
  Rng query_rng(303);
  std::vector<ImplicationQuery> queries = MakeBatch(schema, &query_rng, 12);

  IncrementalSession session(&schema, ReasonerOptions{});
  auto before = session.RunImplicationBatch(queries);
  ASSERT_TRUE(before.ok()) << before.status();
  ASSERT_EQ(session.stats().base_builds, 1u);

  // Mutate the borrowed schema: a fresh class subsumed by class 0 changes
  // the canonical printed form, hence the fingerprint.
  ClassId added = schema.InternClass("__mutation");
  schema.mutable_class_definition(added)->isa = ClassFormula::OfClass(0);
  ASSERT_TRUE(schema.Validate().ok());

  auto after = session.RunImplicationBatch(queries);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(session.stats().base_builds, 2u)
      << "fingerprint change must rebuild the base";

  // The rebuilt session must agree with a from-scratch engine on the
  // mutated schema (stale memo entries would surface here).
  Reasoner fresh(&schema, ReasonerOptions{});
  auto expected = fresh.RunImplicationBatch(queries);
  ASSERT_TRUE(expected.ok()) << expected.status();
  EXPECT_EQ(expected.value(), after.value());
}

TEST(IncrementalEquivalenceTest, ReasonerIncrementalRoutingTracksMutation) {
  // The Reasoner-level routing (ReasonerOptions::incremental) must also
  // observe schema mutation: its cached Prepare() state and the embedded
  // session are fingerprint-guarded.
  Schema schema = GenerateChainSchema(ChainParams{5, 2});
  Rng query_rng(404);
  std::vector<ImplicationQuery> queries = MakeBatch(schema, &query_rng, 10);

  ReasonerOptions options;
  options.incremental = true;
  Reasoner reasoner(&schema, options);
  auto before = reasoner.RunImplicationBatch(queries);
  ASSERT_TRUE(before.ok()) << before.status();

  ClassId added = schema.InternClass("__mutation");
  schema.mutable_class_definition(added)->isa = ClassFormula::OfClass(0);
  ASSERT_TRUE(schema.Validate().ok());

  auto after = reasoner.RunImplicationBatch(queries);
  ASSERT_TRUE(after.ok()) << after.status();

  Reasoner fresh(&schema, ReasonerOptions{});
  auto expected = fresh.RunImplicationBatch(queries);
  ASSERT_TRUE(expected.ok()) << expected.status();
  EXPECT_EQ(expected.value(), after.value());
}

TEST(IncrementalEquivalenceTest, GovernedRunsNeverReturnWrongAnswers) {
  // A governed incremental session trips at different work counts than
  // the from-scratch engine (that asymmetry is the whole point), so the
  // contract is: for every injection threshold and thread count, the run
  // either completes with the exact ungoverned answers or fails with the
  // fault-injection LimitReport. Silent wrong answers are the only
  // forbidden outcome.
  Schema schema = GenerateChainSchema(ChainParams{5, 2});
  Rng query_rng(505);
  std::vector<ImplicationQuery> queries = MakeBatch(schema, &query_rng, 12);

  Reasoner reference(&schema, ReasonerOptions{});
  auto expected = reference.RunImplicationBatch(queries);
  ASSERT_TRUE(expected.ok()) << expected.status();

  bool saw_trip = false;
  bool saw_completion = false;
  for (uint64_t inject :
       {0ull, 1ull, 10ull, 100ull, 1000ull, 10000ull, 100000ull}) {
    for (int threads : kThreadCounts) {
      ExecContext exec;
      exec.InjectTripAfter(inject);
      ReasonerOptions options;
      options.num_threads = threads;
      options.exec = &exec;
      IncrementalSession session(&schema, options);
      auto answers = session.RunImplicationBatch(queries);
      if (exec.tripped()) {
        saw_trip = true;
        ASSERT_FALSE(answers.ok())
            << "inject=" << inject << " threads=" << threads
            << ": tripped runs must fail";
        EXPECT_EQ(exec.report().kind, LimitKind::kFaultInjection)
            << "inject=" << inject << " threads=" << threads;
      } else {
        saw_completion = true;
        ASSERT_TRUE(answers.ok())
            << "inject=" << inject << " threads=" << threads << ": "
            << answers.status();
        EXPECT_EQ(expected.value(), answers.value())
            << "inject=" << inject << " threads=" << threads;
      }
    }
  }
  // The sweep must cover both outcomes or it proves nothing.
  EXPECT_TRUE(saw_trip);
  EXPECT_TRUE(saw_completion);
}

TEST(IncrementalEquivalenceTest, MalformedQueriesErrorLikeFromScratch) {
  Schema schema = GenerateChainSchema(ChainParams{4, 2});
  ImplicationQuery bad;
  bad.kind = ImplicationQuery::Kind::kDisjoint;
  bad.class_id = static_cast<ClassId>(schema.num_classes() + 3);
  bad.other = 0;

  Reasoner reference(&schema, ReasonerOptions{});
  auto expected = reference.RunImplicationBatch({bad});
  ASSERT_FALSE(expected.ok());

  IncrementalSession session(&schema, ReasonerOptions{});
  auto answers = session.RunImplicationBatch({bad});
  ASSERT_FALSE(answers.ok());
  EXPECT_EQ(expected.status().ToString(), answers.status().ToString());

  // The table: every query kind with each kind of bad id, the bound
  // shortcuts next to bad ids, and an ISA whose bad clause is reached
  // only after an implied first clause. Each case must answer (or fail
  // with the same status) as the from-scratch reasoner does, one by one
  // and as one batch, in eager and lazy sessions at 1 and 8 threads; the
  // bound shortcuts are counted as trivial in every configuration.
  Schema figure2 = testing_schemas::Figure2();
  const ClassId grad = figure2.LookupClass("Grad_Student");
  const ClassId student = figure2.LookupClass("Student");
  const ClassId person = figure2.LookupClass("Person");
  const ClassId course = figure2.LookupClass("Course");
  const ClassId bad_class = static_cast<ClassId>(figure2.num_classes() + 3);
  const AttributeTerm taught_by =
      AttributeTerm::Direct(figure2.LookupAttribute("taught_by"));
  const RelationId enrollment = figure2.LookupRelation("Enrollment");
  const RoleId enrolls = figure2.LookupRole("enrolls");

  auto valid = [&](ImplicationQuery::Kind kind) {
    ImplicationQuery query;
    query.kind = kind;
    query.class_id = student;
    query.other = figure2.LookupClass("Professor");
    query.formula = ClassFormula::OfClass(person);
    query.term = taught_by;
    if (kind == ImplicationQuery::Kind::kMinCardinality ||
        kind == ImplicationQuery::Kind::kMaxCardinality) {
      query.class_id = course;
    }
    query.relation = enrollment;
    query.role = enrolls;
    query.bound = 2;
    return query;
  };
  struct Case {
    std::string label;
    ImplicationQuery query;
    bool trivial = false;
  };
  std::vector<Case> cases;
  const std::pair<const char*, ImplicationQuery::Kind> kinds[] = {
      {"isa", ImplicationQuery::Kind::kIsa},
      {"disjoint", ImplicationQuery::Kind::kDisjoint},
      {"min-card", ImplicationQuery::Kind::kMinCardinality},
      {"max-card", ImplicationQuery::Kind::kMaxCardinality},
      {"min-part", ImplicationQuery::Kind::kMinParticipation},
      {"max-part", ImplicationQuery::Kind::kMaxParticipation},
  };
  for (const auto& [name, kind] : kinds) {
    const std::string label = name;
    Case bad_id{label + " bad-class", valid(kind)};
    bad_id.query.class_id = bad_class;
    cases.push_back(bad_id);
    Case bad_other{label + " bad-other", valid(kind)};
    bad_other.query.other = bad_class;
    cases.push_back(bad_other);
    Case bad_attribute{label + " bad-attribute", valid(kind)};
    bad_attribute.query.term =
        AttributeTerm::Inverse(figure2.num_attributes() + 2);
    cases.push_back(bad_attribute);
    Case bad_relation{label + " bad-relation", valid(kind)};
    bad_relation.query.relation = figure2.num_relations() + 2;
    cases.push_back(bad_relation);
    Case foreign_role{label + " role-of-other-relation", valid(kind)};
    foreign_role.query.role = figure2.LookupRole("of");
    cases.push_back(foreign_role);
    Case bad_role{label + " bad-role", valid(kind)};
    bad_role.query.role = figure2.num_roles() + 5;
    cases.push_back(bad_role);
  }
  // Bound 0 (minimum) and infinity (maximum) next to bad ids: minima of 0
  // and maximum participations of infinity are true before any
  // validation; a maximum cardinality of infinity is true only for a
  // valid attribute.
  for (const auto& [name, kind, bound, trivial] :
       std::vector<std::tuple<std::string, ImplicationQuery::Kind, uint64_t,
                              bool>>{
           {"min-card", ImplicationQuery::Kind::kMinCardinality, 0, true},
           {"max-card", ImplicationQuery::Kind::kMaxCardinality,
            Cardinality::kInfinity, true},
           {"min-part", ImplicationQuery::Kind::kMinParticipation, 0, true},
           {"max-part", ImplicationQuery::Kind::kMaxParticipation,
            Cardinality::kInfinity, true}}) {
    const std::string label = StrCat(name, " bound=", bound);
    Case bad_id{label + " bad-class", valid(kind), trivial};
    bad_id.query.class_id = bad_class;
    bad_id.query.bound = bound;
    cases.push_back(bad_id);
    const bool cardinality = kind == ImplicationQuery::Kind::kMinCardinality ||
                             kind == ImplicationQuery::Kind::kMaxCardinality;
    Case bad_target{label + (cardinality ? " bad-attribute" : " bad-relation"),
                    valid(kind),
                    kind != ImplicationQuery::Kind::kMaxCardinality};
    bad_target.query.bound = bound;
    if (cardinality) {
      bad_target.query.term =
          AttributeTerm::Direct(figure2.num_attributes() + 2);
    } else {
      bad_target.query.relation = figure2.num_relations() + 2;
    }
    cases.push_back(bad_target);
  }
  {
    // Grad_Student isa Person holds, so the second, bad clause is reached.
    Case reached{"isa implied-then-bad-clause",
                 valid(ImplicationQuery::Kind::kIsa)};
    reached.query.class_id = grad;
    reached.query.formula.AddClause(
        ClassClause::Of(ClassLiteral::Positive(bad_class)));
    cases.push_back(reached);
    // Person isa Student fails at the first clause, before the bad one.
    Case early{"isa refuted-before-bad-clause",
               valid(ImplicationQuery::Kind::kIsa)};
    early.query.class_id = person;
    early.query.formula = ClassFormula::OfClass(student);
    early.query.formula.AddClause(
        ClassClause::Of(ClassLiteral::Positive(bad_class)));
    cases.push_back(early);
  }

  auto render = [](const Result<std::vector<bool>>& outcome) {
    if (!outcome.ok()) return StrCat("error: ", outcome.status().ToString());
    std::string text;
    for (bool answer : *outcome) text += answer ? "1" : "0";
    return text;
  };
  Reasoner figure2_reference(&figure2, ReasonerOptions{});
  std::vector<ImplicationQuery> all;
  std::vector<std::string> expected_each;
  uint64_t expected_trivial = 0;
  for (const Case& c : cases) {
    all.push_back(c.query);
    expected_each.push_back(
        render(figure2_reference.RunImplicationBatch({c.query})));
    if (c.trivial) ++expected_trivial;
  }
  const std::string expected_all =
      render(figure2_reference.RunImplicationBatch(all));
  for (bool lazy : {false, true}) {
    for (int threads : {1, 8}) {
      ReasonerOptions options;
      options.num_threads = threads;
      options.lazy_expansion = lazy;
      const std::string config =
          StrCat(lazy ? "lazy" : "eager", " threads=", threads);
      for (size_t i = 0; i < cases.size(); ++i) {
        IncrementalSession one(&figure2, options);
        EXPECT_EQ(expected_each[i], render(one.RunImplicationBatch(
                                        {cases[i].query})))
            << cases[i].label << " " << config;
        EXPECT_EQ(cases[i].trivial ? 1u : 0u, one.stats().trivial)
            << cases[i].label << " " << config;
      }
      IncrementalSession batch(&figure2, options);
      EXPECT_EQ(expected_all, render(batch.RunImplicationBatch(all)))
          << config;
      EXPECT_EQ(expected_trivial, batch.stats().trivial) << config;
    }
  }
}

ReasonerOptions LazyOptions(int threads) {
  ReasonerOptions options;
  options.num_threads = threads;
  options.lazy_expansion = true;
  return options;
}

/// Adjacent-class disjointness queries: answerable by the from-scratch
/// reference on the dense-blowup family, whose chaff and core clusters
/// they fuse only pairwise.
std::vector<ImplicationQuery> AdjacentDisjointness(const Schema& schema) {
  std::vector<ImplicationQuery> queries;
  for (ClassId c = 0; c + 1 < schema.num_classes(); ++c) {
    ImplicationQuery query;
    query.kind = ImplicationQuery::Kind::kDisjoint;
    query.class_id = c;
    query.other = c + 1;
    queries.push_back(query);
  }
  return queries;
}

Schema DenseBlowup(int chaff, int core) {
  DenseBlowupParams params;
  params.chaff_classes = chaff;
  params.core_classes = core;
  return GenerateDenseBlowupSchema(params);
}

TEST(IncrementalEquivalenceTest, LazySessionsBuildTheBaseOfHierarchyShapes) {
  std::vector<std::pair<std::string, Schema>> schemas = TestSchemas();
  schemas.emplace_back("figure2", testing_schemas::Figure2());
  for (const auto& [label, schema] : schemas) {
    Rng query_rng(606);
    std::vector<ImplicationQuery> queries = MakeBatch(schema, &query_rng, 24);
    Reasoner reference(&schema, ReasonerOptions{});
    auto expected = reference.RunImplicationBatch(queries);
    ASSERT_TRUE(expected.ok()) << label << ": " << expected.status();

    for (int threads : kThreadCounts) {
      IncrementalSession session(&schema, LazyOptions(threads));
      auto answers = session.RunImplicationBatch(queries);
      ASSERT_TRUE(answers.ok())
          << label << " threads=" << threads << ": " << answers.status();
      EXPECT_EQ(expected.value(), answers.value())
          << label << " threads=" << threads;
      IncrementalStats stats = session.stats();
      EXPECT_EQ(stats.base_builds, 1u) << label << " threads=" << threads;
      EXPECT_EQ(stats.lazy_hits, 0u) << label << " threads=" << threads;
      EXPECT_EQ(stats.lazy_compounds_materialized, 0u)
          << label << " threads=" << threads;
      EXPECT_EQ(stats.fallbacks, 0u) << label << " threads=" << threads;
      EXPECT_TRUE(session.SnapshotEligible())
          << label << " threads=" << threads;
    }
  }
}

TEST(IncrementalEquivalenceTest, LazySessionsStayLazyWhereExpansionBlowsUp) {
  // 2^6 chaff compounds + 3 core + the empty one over 9 classes: far past
  // two compounds per class.
  Schema schema = DenseBlowup(6, 3);
  std::vector<ImplicationQuery> queries = AdjacentDisjointness(schema);
  Reasoner reference(&schema, ReasonerOptions{});
  auto expected = reference.RunImplicationBatch(queries);
  ASSERT_TRUE(expected.ok()) << expected.status();

  for (int threads : kThreadCounts) {
    IncrementalSession session(&schema, LazyOptions(threads));
    auto answers = session.RunImplicationBatch(queries);
    ASSERT_TRUE(answers.ok()) << "threads=" << threads << ": "
                              << answers.status();
    EXPECT_EQ(expected.value(), answers.value()) << "threads=" << threads;
    IncrementalStats stats = session.stats();
    EXPECT_EQ(stats.base_builds, 0u) << "threads=" << threads;
    EXPECT_GT(stats.lazy_hits, 0u) << "threads=" << threads;
  }
}

TEST(IncrementalEquivalenceTest, RestoredLazySessionKeepsItsRoute) {
  Rng rng(7);
  HierarchyParams params;
  params.num_classes = 9;
  params.num_trees = 2;
  const Schema schema = GenerateHierarchy(&rng, params);
  Rng query_rng(808);
  std::vector<ImplicationQuery> queries = MakeBatch(schema, &query_rng, 16);
  IncrementalSession built(&schema, LazyOptions(1));
  auto expected = built.RunImplicationBatch(queries);
  ASSERT_TRUE(expected.ok()) << expected.status();
  auto bytes = built.Serialize();
  ASSERT_TRUE(bytes.ok()) << bytes.status();

  IncrementalSession restored(&schema, LazyOptions(1));
  ASSERT_TRUE(restored.Deserialize(bytes.value()).ok());
  // Fresh queries, so the restored memo cannot answer them.
  Rng fresh_rng(909);
  std::vector<ImplicationQuery> fresh = MakeBatch(schema, &fresh_rng, 16);
  auto answers = restored.RunImplicationBatch(fresh);
  ASSERT_TRUE(answers.ok()) << answers.status();
  Reasoner reference(&schema, ReasonerOptions{});
  auto reference_answers = reference.RunImplicationBatch(fresh);
  ASSERT_TRUE(reference_answers.ok()) << reference_answers.status();
  EXPECT_EQ(reference_answers.value(), answers.value());
  IncrementalStats stats = restored.stats();
  EXPECT_EQ(stats.base_restores, 1u);
  EXPECT_EQ(stats.base_builds, 0u);
  EXPECT_EQ(stats.lazy_hits, 0u);
}

TEST(IncrementalEquivalenceTest, RestoredDenseSessionStaysLazy) {
  // A snapshot of a dense schema's full base (here written by an eager
  // session) restores into a lazy session that must still probe lazily,
  // as a cold open of the same schema would.
  Schema schema = DenseBlowup(6, 3);
  std::vector<ImplicationQuery> queries = AdjacentDisjointness(schema);
  ReasonerOptions eager = LazyOptions(1);
  eager.lazy_expansion = false;
  IncrementalSession built(&schema, eager);
  auto expected = built.RunImplicationBatch(queries);
  ASSERT_TRUE(expected.ok()) << expected.status();
  ASSERT_EQ(built.stats().base_builds, 1u);
  auto bytes = built.Serialize();
  ASSERT_TRUE(bytes.ok()) << bytes.status();

  IncrementalSession restored(&schema, LazyOptions(1));
  ASSERT_TRUE(restored.Deserialize(bytes.value()).ok());
  // Pairs two apart, so the restored memo cannot answer them.
  std::vector<ImplicationQuery> fresh;
  for (ImplicationQuery query : queries) {
    if (query.other + 1 >= schema.num_classes()) continue;
    ++query.other;
    fresh.push_back(query);
  }
  auto answers = restored.RunImplicationBatch(fresh);
  ASSERT_TRUE(answers.ok()) << answers.status();
  Reasoner reference(&schema, ReasonerOptions{});
  auto reference_answers = reference.RunImplicationBatch(fresh);
  ASSERT_TRUE(reference_answers.ok()) << reference_answers.status();
  EXPECT_EQ(reference_answers.value(), answers.value());
  IncrementalStats stats = restored.stats();
  EXPECT_EQ(stats.base_restores, 1u);
  EXPECT_EQ(stats.base_builds, 0u);
  EXPECT_GT(stats.lazy_hits, 0u);
}

TEST(IncrementalEquivalenceTest, RoutingIsChargedButOverflowIsNoTrip) {
  Schema schema = DenseBlowup(6, 3);
  ExecContext exec;
  ReasonerOptions options = LazyOptions(1);
  options.exec = &exec;
  IncrementalSession session(&schema, options);
  // An empty batch runs only the routing: the bounded enumeration stops
  // after two compounds per class, charged to the request's context.
  auto routed = session.RunImplicationBatch({});
  ASSERT_TRUE(routed.ok()) << routed.status();
  EXPECT_FALSE(exec.tripped());
  EXPECT_EQ(exec.report().kind, LimitKind::kNone);
  EXPECT_GT(exec.work_charged(), 0u);
  EXPECT_EQ(exec.progress().compounds_enumerated,
            2u * static_cast<uint64_t>(schema.num_classes()));
  EXPECT_EQ(session.stats().base_builds, 0u);

  auto answers = session.RunImplicationBatch(AdjacentDisjointness(schema));
  ASSERT_TRUE(answers.ok()) << answers.status();
  EXPECT_FALSE(exec.tripped());
  EXPECT_GT(session.stats().lazy_hits, 0u);
}

TEST(IncrementalEquivalenceTest, RoutedBaseBuildIsGovernedLikeEagerBuild) {
  // A lazy session routed to the solved base must be indistinguishable
  // from an eager session under the governor: same trips, same
  // LimitReport, same work charged, at every thread count. Threshold 0
  // trips inside the routing build itself.
  const Schema schema = testing_schemas::Figure2();
  Rng query_rng(707);
  std::vector<ImplicationQuery> queries = MakeBatch(schema, &query_rng, 12);
  bool saw_trip = false;
  bool saw_completion = false;
  for (uint64_t inject :
       {0ull, 1ull, 3ull, 10ull, 30ull, 100ull, 1000ull, 100000ull}) {
    for (int threads : kThreadCounts) {
      ExecContext eager_exec;
      ExecContext lazy_exec;
      eager_exec.InjectTripAfter(inject);
      lazy_exec.InjectTripAfter(inject);
      ReasonerOptions eager_options;
      eager_options.num_threads = threads;
      eager_options.exec = &eager_exec;
      ReasonerOptions lazy_options = LazyOptions(threads);
      lazy_options.exec = &lazy_exec;
      IncrementalSession eager(&schema, eager_options);
      IncrementalSession lazy(&schema, lazy_options);
      auto expected = eager.RunImplicationBatch(queries);
      auto answers = lazy.RunImplicationBatch(queries);
      const std::string where =
          StrCat("inject=", inject, " threads=", threads);
      ASSERT_EQ(expected.ok(), answers.ok()) << where;
      EXPECT_EQ(eager_exec.report().ToString(), lazy_exec.report().ToString())
          << where;
      if (expected.ok()) {
        saw_completion = true;
        EXPECT_EQ(expected.value(), answers.value()) << where;
        EXPECT_EQ(eager_exec.work_charged(), lazy_exec.work_charged())
            << where;
      } else {
        saw_trip = true;
        EXPECT_EQ(expected.status().ToString(), answers.status().ToString())
            << where;
        EXPECT_EQ(lazy_exec.report().kind, LimitKind::kFaultInjection)
            << where;
        EXPECT_EQ(lazy_exec.report().phase, "implication") << where;
      }
    }
  }
  EXPECT_TRUE(saw_trip);
  EXPECT_TRUE(saw_completion);
}

/// Dense schemas whose lazy probes share seeds, with a mixed query batch
/// of every kind.
std::vector<std::pair<std::string, Schema>> DenseSeedSchemas() {
  std::vector<std::pair<std::string, Schema>> schemas;
  schemas.emplace_back("dense-blowup", DenseBlowup(4, 3));
  DenseUnsatParams params;
  params.chaff_classes = 4;
  params.core_classes = 3;
  schemas.emplace_back("dense-unsat", GenerateDenseUnsatSchema(params));
  return schemas;
}

TEST(IncrementalEquivalenceTest, LazySeedSolvesAreSharedAcrossThreads) {
  // Lazy probes resume stored seed bases: answers stay those of the
  // from-scratch reasoner, and each distinct seed is solved once however
  // the probes are scheduled.
  for (const auto& [label, schema] : DenseSeedSchemas()) {
    Rng query_rng(808);
    std::vector<ImplicationQuery> queries = MakeBatch(schema, &query_rng, 32);
    Reasoner reference(&schema, ReasonerOptions{});
    auto expected = reference.RunImplicationBatch(queries);
    ASSERT_TRUE(expected.ok()) << label << ": " << expected.status();

    uint64_t solves_at_one_thread = 0;
    uint64_t reuses_at_one_thread = 0;
    for (int threads : kThreadCounts) {
      ReasonerOptions options = LazyOptions(threads);
      options.prefilter = false;
      IncrementalSession session(&schema, options);
      auto answers = session.RunImplicationBatch(queries);
      ASSERT_TRUE(answers.ok())
          << label << " threads=" << threads << ": " << answers.status();
      EXPECT_EQ(expected.value(), answers.value())
          << label << " threads=" << threads;
      IncrementalStats stats = session.stats();
      EXPECT_EQ(stats.spurious_witnesses, 0u)
          << label << " threads=" << threads;
      EXPECT_GT(stats.lazy_seed_solves, 0u)
          << label << " threads=" << threads;
      EXPECT_GT(stats.lazy_seed_reuses, 0u)
          << label << " threads=" << threads;
      if (threads == 1) {
        solves_at_one_thread = stats.lazy_seed_solves;
        reuses_at_one_thread = stats.lazy_seed_reuses;
      } else {
        EXPECT_EQ(stats.lazy_seed_solves, solves_at_one_thread)
            << label << " threads=" << threads;
        EXPECT_EQ(stats.lazy_seed_reuses, reuses_at_one_thread)
            << label << " threads=" << threads;
      }
    }
  }
}

TEST(IncrementalEquivalenceTest, SchemaMutationSolvesLazySeedsAgain) {
  DenseUnsatParams params;
  params.chaff_classes = 4;
  params.core_classes = 3;
  Schema schema = GenerateDenseUnsatSchema(params);
  Rng query_rng(909);
  std::vector<ImplicationQuery> queries = MakeBatch(schema, &query_rng, 32);
  ReasonerOptions options = LazyOptions(1);
  options.prefilter = false;
  IncrementalSession session(&schema, options);
  auto first = session.RunImplicationBatch(queries);
  ASSERT_TRUE(first.ok()) << first.status();
  const uint64_t solves_before = session.stats().lazy_seed_solves;
  ASSERT_GT(solves_before, 0u);

  // Loosen E0's forward bound: the same classes, another schema, so
  // every stored seed is stale.
  ClassDefinition* head =
      schema.mutable_class_definition(schema.LookupClass("E0"));
  ASSERT_FALSE(head->attributes.empty());
  head->attributes[0].cardinality = Cardinality(1, 3);
  auto second = session.RunImplicationBatch(queries);
  ASSERT_TRUE(second.ok()) << second.status();
  Reasoner reference(&schema, ReasonerOptions{});
  auto expected = reference.RunImplicationBatch(queries);
  ASSERT_TRUE(expected.ok()) << expected.status();
  EXPECT_EQ(expected.value(), second.value());
  EXPECT_GT(session.stats().lazy_seed_solves, solves_before);
}

TEST(IncrementalEquivalenceTest, MemoryEstimateCountsStoredLazySeeds) {
  DenseUnsatParams params;
  params.chaff_classes = 6;
  params.core_classes = 3;
  Schema schema = GenerateDenseUnsatSchema(params);
  const ClassId e1 = schema.LookupClass("E1");
  // Two queries with the same auxiliary class, E1 ∧ E1: the first solves
  // its seed, the second only resumes it.
  ImplicationQuery solves_seed;
  solves_seed.kind = ImplicationQuery::Kind::kIsa;
  solves_seed.class_id = e1;
  solves_seed.formula = ClassFormula::OfNegatedClass(e1);
  ImplicationQuery reuses_seed;
  reuses_seed.kind = ImplicationQuery::Kind::kDisjoint;
  reuses_seed.class_id = e1;
  reuses_seed.other = e1;

  ReasonerOptions options = LazyOptions(1);
  options.prefilter = false;
  IncrementalSession session(&schema, options);
  ASSERT_TRUE(session.RunImplicationBatch({}).ok());
  const uint64_t cold = session.EstimatedMemoryBytes();

  ASSERT_TRUE(session.RunImplicationBatch({solves_seed}).ok());
  ASSERT_EQ(session.stats().lazy_seed_solves, 1u);
  const uint64_t solved = session.EstimatedMemoryBytes();
  ASSERT_TRUE(session.RunImplicationBatch({reuses_seed}).ok());
  ASSERT_EQ(session.stats().lazy_seed_solves, 1u);
  ASSERT_EQ(session.stats().lazy_seed_reuses, 1u);
  const uint64_t reused = session.EstimatedMemoryBytes();
  // Each batch adds one memo entry; net of its key, only the first batch
  // adds more: the stored seed.
  const uint64_t first_key =
      IncrementalSession::CanonicalQueryKey(solves_seed).size();
  const uint64_t second_key =
      IncrementalSession::CanonicalQueryKey(reuses_seed).size();
  EXPECT_GT(solved - cold - first_key, reused - solved - second_key);

  // A mutation drops the memo and the stored seeds with the base.
  ClassDefinition* head =
      schema.mutable_class_definition(schema.LookupClass("E0"));
  head->attributes[0].cardinality = Cardinality(1, 3);
  ASSERT_TRUE(session.RunImplicationBatch({}).ok());
  EXPECT_EQ(session.EstimatedMemoryBytes(), cold);
}

}  // namespace
}  // namespace car
