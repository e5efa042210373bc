#include "expansion/expansion.h"

#include <gtest/gtest.h>

#include "analysis/clusters.h"
#include "analysis/pair_tables.h"
#include "base/exec_context.h"
#include "model/builder.h"
#include "workloads/generators.h"
#include "test_schemas.h"

namespace car {
namespace {

Schema TwoDisjointClasses() {
  SchemaBuilder builder;
  builder.BeginClass("A").Isa({{"!B"}}).EndClass();
  builder.DeclareClass("B");
  auto schema = std::move(builder).Build();
  CAR_CHECK(schema.ok());
  return std::move(schema).value();
}

TEST(CompoundClassTest, RealizesTruthAssignment) {
  CompoundClass compound({0, 2});
  EXPECT_TRUE(compound.Realizes(ClassLiteral::Positive(0)));
  EXPECT_FALSE(compound.Realizes(ClassLiteral::Positive(1)));
  EXPECT_TRUE(compound.Realizes(ClassLiteral::Negative(1)));
  EXPECT_FALSE(compound.Realizes(ClassLiteral::Negative(2)));

  ClassClause clause({ClassLiteral::Positive(1), ClassLiteral::Positive(2)});
  EXPECT_TRUE(compound.Realizes(clause));
  ClassClause false_clause({ClassLiteral::Positive(1)});
  EXPECT_FALSE(compound.Realizes(false_clause));

  ClassFormula formula({clause, false_clause});
  EXPECT_FALSE(compound.Realizes(formula));
  EXPECT_TRUE(CompoundClass().Realizes(ClassFormula::True()));
}

TEST(CompoundClassTest, DeduplicatesAndSortsMembers) {
  CompoundClass compound({3, 1, 3, 1});
  EXPECT_EQ(compound.members(), (std::vector<ClassId>{1, 3}));
}

TEST(CompoundClassTest, ConsistencyAgainstIsa) {
  Schema schema = TwoDisjointClasses();
  ClassId a = schema.LookupClass("A");
  ClassId b = schema.LookupClass("B");
  EXPECT_TRUE(CompoundClass({a}).IsConsistent(schema));
  EXPECT_TRUE(CompoundClass({b}).IsConsistent(schema));
  EXPECT_FALSE(CompoundClass({a, b}).IsConsistent(schema));
  EXPECT_TRUE(CompoundClass().IsConsistent(schema));
}

TEST(ExpansionTest, DisjointClassesYieldNoJointCompound) {
  Schema schema = TwoDisjointClasses();
  auto expansion = BuildExpansion(schema);
  ASSERT_TRUE(expansion.ok());
  // {}, {A}, {B} but not {A, B}.
  EXPECT_EQ(expansion->compound_classes.size(), 3u);
  EXPECT_EQ(expansion->IndexOfCompoundClass(CompoundClass({0, 1})), -1);
}

TEST(ExpansionTest, ExhaustiveAndPrunedAgreeOnFigure2) {
  Schema schema = testing_schemas::Figure2();
  ExpansionOptions exhaustive;
  exhaustive.strategy = ExpansionStrategy::kExhaustive;
  auto full = BuildExpansion(schema, exhaustive);
  ASSERT_TRUE(full.ok());

  ExpansionOptions pruned;
  pruned.strategy = ExpansionStrategy::kPruned;
  auto fast = BuildExpansion(schema, pruned);
  ASSERT_TRUE(fast.ok());

  // The pruned strategy drops compound classes that mix clusters (e.g.
  // {Person, Course}, which Figure 2 never forbids but never requires),
  // so its compound classes are a subset of the exhaustive ones.
  EXPECT_LE(fast->compound_classes.size(), full->compound_classes.size());
  for (const CompoundClass& compound : fast->compound_classes) {
    EXPECT_GE(full->IndexOfCompoundClass(compound), 0)
        << compound.ToString(schema);
  }
  // Every single-class compound survives pruning in both.
  for (ClassId c = 0; c < schema.num_classes(); ++c) {
    const ClassDefinition& definition = schema.class_definition(c);
    if (!definition.isa.IsTriviallyTrue()) continue;
    EXPECT_GE(fast->IndexOfCompoundClass(CompoundClass({c})), 0)
        << schema.ClassName(c);
  }
  // Pruning must visit strictly fewer subsets than 2^n.
  EXPECT_LT(fast->subsets_visited, full->subsets_visited);
}

TEST(ExpansionTest, NattMergesWithUmaxVmin) {
  // Student: Enrollment[enrolls] (1,6); Grad_Student refines to (2,3).
  Schema schema = testing_schemas::Figure2();
  auto expansion = BuildExpansion(schema);
  ASSERT_TRUE(expansion.ok());
  ClassId student = schema.LookupClass("Student");
  ClassId grad = schema.LookupClass("Grad_Student");
  ClassId person = schema.LookupClass("Person");
  int compound_index = expansion->IndexOfCompoundClass(
      CompoundClass({person, student, grad}));
  ASSERT_GE(compound_index, 0);

  RelationId enrollment = schema.LookupRelation("Enrollment");
  const RelationDefinition* definition =
      schema.relation_definition(enrollment);
  int enrolls_index =
      definition->RoleIndex(schema.LookupRole("enrolls"));
  auto it = expansion->nrel.find(
      {enrollment, enrolls_index, compound_index});
  ASSERT_NE(it, expansion->nrel.end());
  EXPECT_EQ(it->second.min(), 2u);
  EXPECT_EQ(it->second.max(), 3u);
}

TEST(ExpansionTest, EmptyCompoundClassAlwaysPresent) {
  Schema schema = testing_schemas::Figure1();
  auto expansion = BuildExpansion(schema);
  ASSERT_TRUE(expansion.ok());
  ASSERT_FALSE(expansion->compound_classes.empty());
  EXPECT_TRUE(expansion->compound_classes[0].empty());
}

TEST(ExpansionTest, CompoundAttributeConsistencyFiltersRanges) {
  // a: C -> D only; compound attribute into a non-D compound must be
  // dropped.
  SchemaBuilder builder;
  builder.BeginClass("C").Attribute("a", 1, 1, {{"D"}}).EndClass();
  builder.DeclareClass("D");
  builder.DeclareClass("E");
  auto schema_or = std::move(builder).Build();
  ASSERT_TRUE(schema_or.ok());
  Schema schema = std::move(schema_or).value();
  auto expansion = BuildExpansion(schema);
  ASSERT_TRUE(expansion.ok());
  ClassId c = schema.LookupClass("C");
  ClassId d = schema.LookupClass("D");
  AttributeId a = schema.LookupAttribute("a");
  int from = expansion->IndexOfCompoundClass(CompoundClass({c}));
  ASSERT_GE(from, 0);
  for (const CompoundAttribute& ca : expansion->compound_attributes) {
    if (ca.attribute != a || ca.from != from) continue;
    EXPECT_TRUE(expansion->compound_classes[ca.to].Contains(d))
        << expansion->compound_classes[ca.to].ToString(schema);
  }
}

TEST(ExpansionTest, UnconstrainedRelationProducesNoCompoundRelations) {
  // Exam has role clauses but no participation constraints anywhere, so
  // its tuples are never counted by any disequation.
  Schema schema = testing_schemas::Figure2();
  auto expansion = BuildExpansion(schema);
  ASSERT_TRUE(expansion.ok());
  RelationId exam = schema.LookupRelation("Exam");
  for (const CompoundRelation& cr : expansion->compound_relations) {
    EXPECT_NE(cr.relation, exam);
  }
}

TEST(ExpansionTest, ExhaustiveRefusesHugeSchemas) {
  SchemaBuilder builder;
  for (int i = 0; i < 35; ++i) {
    builder.DeclareClass(StrCat("C", i));
  }
  auto schema_or = std::move(builder).Build();
  ASSERT_TRUE(schema_or.ok());
  ExpansionOptions options;
  options.strategy = ExpansionStrategy::kExhaustive;
  auto expansion = BuildExpansion(*schema_or, options);
  ASSERT_FALSE(expansion.ok());
  EXPECT_EQ(expansion.status().code(), StatusCode::kResourceExhausted);
}

TEST(ExpansionTest, CompoundClassCapEnforced) {
  SchemaBuilder builder;
  // 12 mutually-unconstrained classes sharing one attribute range, so
  // they land in one cluster and the subsets explode.
  std::vector<std::string> all;
  for (int i = 0; i < 12; ++i) all.push_back(StrCat("C", i));
  builder.BeginClass("Hub").Attribute("a", 0, 1, {all}).EndClass();
  auto schema_or = std::move(builder).Build();
  ASSERT_TRUE(schema_or.ok());
  ExpansionOptions options;
  options.max_compound_classes = 64;
  auto expansion = BuildExpansion(*schema_or, options);
  ASSERT_FALSE(expansion.ok());
  EXPECT_EQ(expansion.status().code(), StatusCode::kResourceExhausted);
}

TEST(ExpansionTest, BoundedBuildMatchesFullBuildWithinTheBound) {
  Schema schema = testing_schemas::Figure2();
  for (int threads : {1, 8}) {
    ExecContext full_exec;
    ExecContext bounded_exec;
    ExpansionOptions options;
    options.num_threads = threads;
    options.exec = &full_exec;
    auto full = BuildExpansion(schema, options);
    ASSERT_TRUE(full.ok()) << full.status();
    const size_t compounds = full->compound_classes.size() - 1;
    options.exec = &bounded_exec;
    auto bounded = BuildExpansionWithinBound(schema, options, compounds);
    ASSERT_TRUE(bounded.ok()) << bounded.status();
    ASSERT_TRUE(bounded->has_value());
    const Expansion& within = **bounded;
    ASSERT_EQ(within.compound_classes.size(), full->compound_classes.size());
    for (size_t i = 0; i < within.compound_classes.size(); ++i) {
      EXPECT_EQ(within.compound_classes[i].members(),
                full->compound_classes[i].members());
    }
    EXPECT_EQ(within.compound_attributes.size(),
              full->compound_attributes.size());
    EXPECT_EQ(within.natt, full->natt);
    EXPECT_EQ(bounded_exec.work_charged(), full_exec.work_charged());

    auto over = BuildExpansionWithinBound(schema, options, compounds - 1);
    ASSERT_TRUE(over.ok()) << over.status();
    EXPECT_FALSE(over->has_value());
  }
}

TEST(ExpansionTest, ExceedingTheBoundIsNoTripButLimitsStillApply) {
  DenseBlowupParams params;
  params.chaff_classes = 6;
  params.core_classes = 3;
  Schema schema = GenerateDenseBlowupSchema(params);
  ExecContext exec;
  ExpansionOptions options;
  options.exec = &exec;
  auto bounded = BuildExpansionWithinBound(schema, options, 18);
  ASSERT_TRUE(bounded.ok()) << bounded.status();
  EXPECT_FALSE(bounded->has_value());
  EXPECT_FALSE(exec.tripped());
  EXPECT_GT(exec.work_charged(), 0u);
  EXPECT_EQ(exec.progress().compounds_enumerated, 18u);

  // A governor limit inside the bounded build is a real trip.
  ExecContext tight;
  tight.InjectTripAfter(3);
  options.exec = &tight;
  auto tripped = BuildExpansionWithinBound(schema, options, 18);
  ASSERT_FALSE(tripped.ok());
  EXPECT_EQ(tight.report().kind, LimitKind::kFaultInjection);
  EXPECT_EQ(tight.report().phase, "expansion");
}

TEST(PairTablesTest, ExplicitEntriesFromIsa) {
  Schema schema = testing_schemas::Figure2();
  PairTables tables = BuildPairTables(schema);
  ClassId student = schema.LookupClass("Student");
  ClassId professor = schema.LookupClass("Professor");
  ClassId person = schema.LookupClass("Person");
  EXPECT_TRUE(tables.AreDisjoint(student, professor));
  EXPECT_TRUE(tables.IsIncluded(student, person));
  EXPECT_TRUE(tables.IsIncluded(professor, person));
}

TEST(PairTablesTest, PropagationDerivesTransitiveFacts) {
  SchemaBuilder builder;
  builder.BeginClass("A").Isa({{"B"}}).EndClass();
  builder.BeginClass("B").Isa({{"C"}}).EndClass();
  builder.BeginClass("D").Isa({{"!C"}}).EndClass();
  auto schema_or = std::move(builder).Build();
  ASSERT_TRUE(schema_or.ok());
  const Schema& schema = *schema_or;
  PairTables tables = BuildPairTables(schema);
  ClassId a = schema.LookupClass("A");
  ClassId c = schema.LookupClass("C");
  ClassId d = schema.LookupClass("D");
  EXPECT_TRUE(tables.IsIncluded(a, c));   // A ⊆ B ⊆ C.
  EXPECT_TRUE(tables.AreDisjoint(a, d));  // A ⊆ C, D disjoint C.
}

TEST(PairTablesTest, SelfContradictionMarksSelfDisjoint) {
  SchemaBuilder builder;
  builder.BeginClass("A").Isa({{"B"}, {"!B"}}).EndClass();
  builder.DeclareClass("B");
  auto schema_or = std::move(builder).Build();
  ASSERT_TRUE(schema_or.ok());
  PairTables tables = BuildPairTables(*schema_or);
  ClassId a = schema_or->LookupClass("A");
  EXPECT_TRUE(tables.AreDisjoint(a, a));
}

TEST(ClustersTest, UnrelatedClassesSplitIntoClusters) {
  SchemaBuilder builder;
  builder.BeginClass("A1").Isa({{"A2"}}).EndClass();
  builder.DeclareClass("A2");
  builder.BeginClass("B1").Isa({{"B2"}}).EndClass();
  builder.DeclareClass("B2");
  auto schema_or = std::move(builder).Build();
  ASSERT_TRUE(schema_or.ok());
  PairTables tables = BuildPairTables(*schema_or);
  ClusterPartition partition = ComputeClusters(*schema_or, tables);
  EXPECT_EQ(partition.num_clusters(), 2);
  EXPECT_EQ(partition.cluster_of[schema_or->LookupClass("A1")],
            partition.cluster_of[schema_or->LookupClass("A2")]);
  EXPECT_NE(partition.cluster_of[schema_or->LookupClass("A1")],
            partition.cluster_of[schema_or->LookupClass("B1")]);
}

TEST(ClustersTest, AttributeRangesConnectTargetSide) {
  SchemaBuilder builder;
  builder.BeginClass("C").Attribute("a", 1, 1, {{"D"}, {"E"}}).EndClass();
  builder.DeclareClass("D");
  builder.DeclareClass("E");
  auto schema_or = std::move(builder).Build();
  ASSERT_TRUE(schema_or.ok());
  PairTables tables = BuildPairTables(*schema_or);
  ClusterPartition partition = ComputeClusters(*schema_or, tables);
  // D and E must be co-residable (the a-successor realizes D ∧ E).
  EXPECT_EQ(partition.cluster_of[schema_or->LookupClass("D")],
            partition.cluster_of[schema_or->LookupClass("E")]);
}

TEST(ClustersTest, ClusterDecompositionShrinksEnumeration) {
  // k independent 3-class towers: exhaustive visits 2^(3k) subsets, the
  // clustered strategy roughly k * 2^3.
  SchemaBuilder builder;
  const int towers = 4;
  for (int t = 0; t < towers; ++t) {
    builder.BeginClass(StrCat("Low", t)).Isa({{StrCat("Mid", t)}}).EndClass();
    builder.BeginClass(StrCat("Mid", t)).Isa({{StrCat("Top", t)}}).EndClass();
    builder.DeclareClass(StrCat("Top", t));
  }
  auto schema_or = std::move(builder).Build();
  ASSERT_TRUE(schema_or.ok());

  ExpansionOptions clustered;
  auto fast = BuildExpansion(*schema_or, clustered);
  ASSERT_TRUE(fast.ok());

  ExpansionOptions exhaustive;
  exhaustive.strategy = ExpansionStrategy::kExhaustive;
  auto slow = BuildExpansion(*schema_or, exhaustive);
  ASSERT_TRUE(slow.ok());

  EXPECT_EQ(slow->subsets_visited, (1u << (3 * towers)) - 1);
  EXPECT_LT(fast->subsets_visited, 100u);
  // Same satisfiable structure: per tower {T}, {M,T}, {L,M,T}; plus the
  // empty compound. The exhaustive expansion also contains cross-tower
  // unions, which the clustered one soundly omits (Theorem 4.6).
  EXPECT_EQ(fast->compound_classes.size(), 1u + 3u * towers);
  EXPECT_GT(slow->compound_classes.size(), fast->compound_classes.size());
}

}  // namespace
}  // namespace car
