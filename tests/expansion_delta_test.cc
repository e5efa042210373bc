#include "expansion/expansion_delta.h"

#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "base/strings.h"
#include "expansion/expansion.h"
#include "model/builder.h"
#include "model/schema.h"
#include "reasoner/implication.h"
#include "reasoner/incremental.h"
#include "test_schemas.h"
#include "workloads/generators.h"

namespace car {
namespace {

using testing_schemas::Figure1;
using testing_schemas::Figure2;

/// Builds the extended schema the reasoner's auxiliary-class queries use:
/// the base schema plus one fresh class with the given definition.
Schema ExtendSchema(const Schema& base, const ClassFormula& isa,
                    const std::vector<AttributeSpec>& attributes,
                    const std::vector<ParticipationSpec>& participations,
                    ClassId* aux) {
  Schema extended = base;
  *aux = extended.InternClass("__test_aux");
  ClassDefinition* definition = extended.mutable_class_definition(*aux);
  definition->isa = isa;
  definition->attributes = attributes;
  definition->participations = participations;
  CAR_CHECK(extended.Validate().ok());
  return extended;
}

// Content-based views: the from-scratch build of the extended schema
// interleaves new compounds into the canonical order, so indices differ
// from the base-prefix convention; compare by member lists instead.

using ClassKey = std::vector<ClassId>;
using AttrKey = std::tuple<AttributeId, ClassKey, ClassKey>;
using RelKey = std::tuple<RelationId, std::vector<ClassKey>>;

std::set<ClassKey> ClassSet(const std::vector<CompoundClass>& compounds) {
  std::set<ClassKey> keys;
  for (const CompoundClass& compound : compounds) {
    keys.insert(compound.members());
  }
  return keys;
}

struct DeltaView {
  std::set<ClassKey> classes;
  std::set<AttrKey> attributes;
  std::set<RelKey> relations;
  std::map<std::pair<AttributeTerm, ClassKey>, Cardinality> natt;
  std::map<std::tuple<RelationId, int, ClassKey>, Cardinality> nrel;
};

DeltaView ViewOfExpansion(const Expansion& expansion) {
  DeltaView view;
  view.classes = ClassSet(expansion.compound_classes);
  for (const CompoundAttribute& ca : expansion.compound_attributes) {
    view.attributes.emplace(ca.attribute,
                            expansion.compound_classes[ca.from].members(),
                            expansion.compound_classes[ca.to].members());
  }
  for (const CompoundRelation& cr : expansion.compound_relations) {
    std::vector<ClassKey> components;
    for (int index : cr.components) {
      components.push_back(expansion.compound_classes[index].members());
    }
    view.relations.emplace(cr.relation, std::move(components));
  }
  for (const auto& [key, cardinality] : expansion.natt) {
    view.natt.emplace(
        std::make_pair(key.first,
                       expansion.compound_classes[key.second].members()),
        cardinality);
  }
  for (const auto& [key, cardinality] : expansion.nrel) {
    view.nrel.emplace(
        std::make_tuple(std::get<0>(key), std::get<1>(key),
                        expansion.compound_classes[std::get<2>(key)]
                            .members()),
        cardinality);
  }
  return view;
}

DeltaView ViewOfBasePlusDelta(const Expansion& base,
                              const ExpansionDelta& delta) {
  const int num_base = static_cast<int>(base.compound_classes.size());
  auto members_of = [&](int global) -> const ClassKey& {
    return global < num_base
               ? base.compound_classes[global].members()
               : delta.new_compound_classes[global - num_base].members();
  };
  DeltaView view;
  view.classes = ClassSet(base.compound_classes);
  for (const CompoundClass& compound : delta.new_compound_classes) {
    auto [it, inserted] = view.classes.insert(compound.members());
    EXPECT_TRUE(inserted) << "delta re-created a base compound";
  }
  auto add_attr = [&](const CompoundAttribute& ca) {
    view.attributes.emplace(ca.attribute, members_of(ca.from),
                            members_of(ca.to));
  };
  for (const CompoundAttribute& ca : base.compound_attributes) add_attr(ca);
  for (const CompoundAttribute& ca : delta.new_compound_attributes) {
    add_attr(ca);
  }
  auto add_rel = [&](const CompoundRelation& cr) {
    std::vector<ClassKey> components;
    for (int index : cr.components) components.push_back(members_of(index));
    view.relations.emplace(cr.relation, std::move(components));
  };
  for (const CompoundRelation& cr : base.compound_relations) add_rel(cr);
  for (const CompoundRelation& cr : delta.new_compound_relations) {
    add_rel(cr);
  }
  auto add_natt = [&](const std::pair<AttributeTerm, int>& key,
                      const Cardinality& cardinality) {
    auto [it, inserted] = view.natt.emplace(
        std::make_pair(key.first, members_of(key.second)), cardinality);
    EXPECT_TRUE(inserted) << "duplicate Natt entry across base and delta";
  };
  for (const auto& [key, cardinality] : base.natt) add_natt(key, cardinality);
  for (const auto& [key, cardinality] : delta.new_natt) {
    add_natt(key, cardinality);
  }
  auto add_nrel = [&](const std::tuple<RelationId, int, int>& key,
                      const Cardinality& cardinality) {
    auto [it, inserted] = view.nrel.emplace(
        std::make_tuple(std::get<0>(key), std::get<1>(key),
                        members_of(std::get<2>(key))),
        cardinality);
    EXPECT_TRUE(inserted) << "duplicate Nrel entry across base and delta";
  };
  for (const auto& [key, cardinality] : base.nrel) add_nrel(key, cardinality);
  for (const auto& [key, cardinality] : delta.new_nrel) {
    add_nrel(key, cardinality);
  }
  return view;
}

/// Runs one equivalence check: delta-extend `base_schema` with the aux
/// class vs. from-scratch BuildExpansion of the extended schema. Returns
/// false when the delta path declined (kFailedPrecondition fallback) —
/// callers assert that enough cases take the fast path.
bool CheckDeltaMatchesFromScratch(
    const Schema& base_schema, const ClassFormula& isa,
    const std::vector<AttributeSpec>& attributes,
    const std::vector<ParticipationSpec>& participations) {
  ExpansionOptions options;
  Result<Expansion> base = BuildExpansion(base_schema, options);
  CAR_CHECK(base.ok()) << base.status();
  Result<ExpansionBaseAnalysis> analysis =
      AnalyzeBaseExpansion(base_schema, base.value(), options);
  CAR_CHECK(analysis.ok()) << analysis.status();

  ClassId aux = kInvalidId;
  Schema extended =
      ExtendSchema(base_schema, isa, attributes, participations, &aux);
  Result<ExpansionDelta> delta = ExtendExpansionWithAuxClass(
      extended, aux, base.value(), analysis.value(), options);
  if (!delta.ok()) {
    EXPECT_EQ(delta.status().code(), StatusCode::kFailedPrecondition)
        << delta.status();
    return false;
  }
  Result<Expansion> from_scratch = BuildExpansion(extended, options);
  CAR_CHECK(from_scratch.ok()) << from_scratch.status();

  DeltaView incremental = ViewOfBasePlusDelta(base.value(), delta.value());
  DeltaView reference = ViewOfExpansion(from_scratch.value());
  EXPECT_EQ(incremental.classes, reference.classes);
  EXPECT_EQ(incremental.natt, reference.natt);
  EXPECT_EQ(incremental.nrel, reference.nrel);
  EXPECT_EQ(incremental.attributes, reference.attributes);
  EXPECT_EQ(incremental.relations, reference.relations);
  return true;
}

TEST(ExpansionDeltaTest, Figure1SimpleClassProbe) {
  const Schema schema = Figure1();
  ClassId person = schema.LookupClass("Person");
  ClassId student = schema.LookupClass("Student");
  ClassFormula isa = ClassFormula::OfClass(person);
  isa.AndWith(ClassFormula::OfClass(student));
  CheckDeltaMatchesFromScratch(schema, isa, {}, {});
}

TEST(ExpansionDeltaTest, Figure1CardinalityProbe) {
  const Schema schema = Figure1();
  ClassId course = schema.LookupClass("Course");
  AttributeSpec spec;
  spec.term = AttributeTerm::Direct(schema.LookupAttribute("taught_by"));
  spec.cardinality = Cardinality(0, 0);
  spec.range = ClassFormula::True();
  CheckDeltaMatchesFromScratch(schema, ClassFormula::OfClass(course), {spec},
                               {});
}

TEST(ExpansionDeltaTest, Figure2ClassProbes) {
  const Schema schema = Figure2();
  int fast_path = 0;
  for (ClassId a = 0; a < schema.num_classes(); ++a) {
    for (ClassId b = 0; b < schema.num_classes(); ++b) {
      ClassFormula isa = ClassFormula::OfClass(a);
      isa.AndWith(ClassFormula::OfClass(b));
      if (CheckDeltaMatchesFromScratch(schema, isa, {}, {})) ++fast_path;
    }
  }
  // The delta path must actually engage on this workload, not always
  // fall back.
  EXPECT_GT(fast_path, 0);
}

TEST(ExpansionDeltaTest, Figure2CardinalityAndParticipationProbes) {
  const Schema schema = Figure2();
  ClassId student = schema.LookupClass("Student");
  ClassId course = schema.LookupClass("Course");
  RelationId enrollment = schema.LookupRelation("Enrollment");
  const RelationDefinition* definition =
      schema.relation_definition(enrollment);
  ASSERT_NE(definition, nullptr);

  AttributeSpec card;
  card.term = AttributeTerm::Direct(schema.LookupAttribute("taught_by"));
  card.cardinality = Cardinality::AtLeast(2);
  card.range = ClassFormula::True();
  CheckDeltaMatchesFromScratch(schema, ClassFormula::OfClass(course), {card},
                               {});

  ParticipationSpec part;
  part.relation = enrollment;
  part.role = definition->roles[0];
  part.cardinality = Cardinality(0, 0);
  CheckDeltaMatchesFromScratch(schema, ClassFormula::OfClass(student), {},
                               {part});
}

TEST(ExpansionDeltaTest, NegatedLiteralProbe) {
  const Schema schema = Figure2();
  ClassId person = schema.LookupClass("Person");
  ClassId professor = schema.LookupClass("Professor");
  ClassFormula isa = ClassFormula::OfClass(person);
  isa.AddClause(
      ClassClause::Of(ClassLiteral{professor, /*negated=*/true}));
  CheckDeltaMatchesFromScratch(schema, isa, {}, {});
}

TEST(ExpansionDeltaTest, RequiresPrunedStrategy) {
  const Schema schema = Figure1();
  ExpansionOptions options;
  Result<Expansion> base = BuildExpansion(schema, options);
  ASSERT_TRUE(base.ok()) << base.status();
  ExpansionOptions exhaustive = options;
  exhaustive.strategy = ExpansionStrategy::kExhaustive;
  Result<ExpansionBaseAnalysis> analysis =
      AnalyzeBaseExpansion(schema, base.value(), exhaustive);
  ASSERT_FALSE(analysis.ok());
  EXPECT_EQ(analysis.status().code(), StatusCode::kFailedPrecondition);
}

// --- Extended preselection vs. the from-scratch preamble ---------------

/// Every row of both tables, row by row, and the partition.
void ExpectSameTables(const PairTables& actual, const PairTables& expected,
                      const std::string& label) {
  ASSERT_EQ(actual.num_classes(), expected.num_classes()) << label;
  EXPECT_EQ(actual.num_disjoint_pairs(), expected.num_disjoint_pairs())
      << label;
  EXPECT_EQ(actual.num_inclusion_pairs(), expected.num_inclusion_pairs())
      << label;
  for (ClassId c = 0; c < expected.num_classes(); ++c) {
    EXPECT_EQ(actual.DisjointFrom(c), expected.DisjointFrom(c))
        << label << " disjointness row " << c;
    EXPECT_EQ(actual.SuperclassesOf(c), expected.SuperclassesOf(c))
        << label << " superclass row " << c;
    EXPECT_EQ(actual.SubclassesOf(c), expected.SubclassesOf(c))
        << label << " subclass row " << c;
  }
}

/// Extends the base preamble by the probe's auxiliary class and checks it
/// against BuildExpansionPreamble of the extended schema. Returns the
/// extended preamble for further assertions.
ExpansionPreamble ExpectExtensionMatches(const Schema& schema,
                                         const ExpansionPreamble& base,
                                         const AuxClassProbe& probe,
                                         const ExpansionOptions& options,
                                         const std::string& label) {
  Result<AuxiliarySchema> auxiliary = BuildAuxiliarySchema(schema, probe);
  CAR_CHECK(auxiliary.ok()) << auxiliary.status();
  const Schema& extended = auxiliary.value().schema;
  ExpansionPreamble incremental =
      ExtendExpansionPreamble(base, extended, options);
  const ExpansionPreamble reference =
      BuildExpansionPreamble(extended, options);
  ExpectSameTables(incremental.tables, reference.tables, label + " tables");
  ExpectSameTables(incremental.propagated, reference.propagated,
                   label + " propagated");
  EXPECT_EQ(incremental.partition.cluster_of, reference.partition.cluster_of)
      << label;
  EXPECT_EQ(incremental.partition.clusters, reference.partition.clusters)
      << label;
  EXPECT_EQ(incremental.completion.has_value(),
            reference.completion.has_value())
      << label;
  if (incremental.completion.has_value() &&
      reference.completion.has_value()) {
    EXPECT_EQ(incremental.completion->num_classes(),
              reference.completion->num_classes())
        << label;
  }
  return incremental;
}

/// Every probe the shared reduction sends for a spread of queries of
/// every kind over `schema`: ISA with one and with two clauses (the
/// second a two-literal clause), negated ISA literals, disjointness,
/// min/max cardinality over direct and inverse terms, min/max
/// participation. The recording prober answers "empty", so an ISA query
/// probes all of its clauses.
std::vector<AuxClassProbe> ProbesOfEveryKind(const Schema& schema) {
  std::vector<ImplicationQuery> queries;
  const int n = schema.num_classes();
  for (ClassId c = 0; c < n; ++c) {
    const ClassId d = (c + 1) % n;
    const ClassId e = (c + 2) % n;
    ImplicationQuery isa{.kind = ImplicationQuery::Kind::kIsa, .class_id = c};
    isa.formula = ClassFormula::OfClass(d);
    queries.push_back(isa);
    isa.formula.AddClause(ClassClause({ClassLiteral{d, false},
                                       ClassLiteral{e, true}}));
    queries.push_back(isa);
    isa.formula = ClassFormula::True();
    isa.formula.AddClause(ClassClause::Of(ClassLiteral{e, true}));
    queries.push_back(isa);
    queries.push_back(
        {.kind = ImplicationQuery::Kind::kDisjoint, .class_id = c,
         .other = d});
    for (AttributeId a = 0; a < schema.num_attributes(); ++a) {
      for (bool inverse : {false, true}) {
        const AttributeTerm term{a, inverse};
        queries.push_back({.kind = ImplicationQuery::Kind::kMinCardinality,
                           .class_id = c, .term = term, .bound = 1});
        queries.push_back({.kind = ImplicationQuery::Kind::kMaxCardinality,
                           .class_id = c, .term = term, .bound = 2});
      }
    }
    for (RelationId r = 0; r < schema.num_relations(); ++r) {
      for (RoleId role : schema.relation_definition(r)->roles) {
        queries.push_back({.kind = ImplicationQuery::Kind::kMinParticipation,
                           .class_id = c, .relation = r, .role = role,
                           .bound = 1});
        queries.push_back({.kind = ImplicationQuery::Kind::kMaxParticipation,
                           .class_id = c, .relation = r, .role = role,
                           .bound = 1});
      }
    }
  }
  std::vector<AuxClassProbe> probes;
  for (const ImplicationQuery& query : queries) {
    Result<bool> decided =
        DecideImplication(schema, query, [&probes](const AuxClassProbe& p) {
          probes.push_back(p);
          return Result<bool>(false);
        });
    CAR_CHECK(decided.ok()) << decided.status();
  }
  return probes;
}

/// The schema plus one class with a two-literal isa clause: the same
/// classes, no longer union-free.
Schema WithUnion(const Schema& schema) {
  Schema out = schema;
  const ClassId mixed = out.InternClass("__test_union");
  out.mutable_class_definition(mixed)->isa.AddClause(
      ClassClause({ClassLiteral{0, false}, ClassLiteral{1, false}}));
  CAR_CHECK(out.Validate().ok());
  return out;
}

std::vector<std::pair<std::string, Schema>> PreambleSchemas() {
  std::vector<std::pair<std::string, Schema>> schemas;
  schemas.emplace_back("figure1", Figure1());
  schemas.emplace_back("figure2", Figure2());
  schemas.emplace_back("chain-6x2", GenerateChainSchema({6, 2}));
  schemas.emplace_back("chain-12x3", GenerateChainSchema({12, 3}));
  Rng rng(17);
  schemas.emplace_back("hierarchy-15",
                       GenerateHierarchy(&rng, HierarchyParams{15, 1, 3}));
  schemas.emplace_back("hierarchy-18x2",
                       GenerateHierarchy(&rng, HierarchyParams{18, 2, 3}));
  schemas.emplace_back(
      "clustered-3x3",
      GenerateClusteredSchema(&rng, ClusteredParams{3, 3, 2, false}));
  const size_t plain = schemas.size();
  for (size_t i = 0; i < plain; ++i) {
    schemas.emplace_back(schemas[i].first + "+union",
                         WithUnion(schemas[i].second));
  }
  return schemas;
}

TEST(ExpansionDeltaTest, ExtendedPreambleMatchesFromScratchForEveryProbe) {
  const ExpansionOptions options;
  int union_free = 0;
  int not_union_free = 0;
  for (const auto& [label, schema] : PreambleSchemas()) {
    (schema.IsUnionFree() ? union_free : not_union_free) += 1;
    const ExpansionPreamble base = BuildExpansionPreamble(schema, options);
    EXPECT_EQ(base.completion.has_value(), schema.IsUnionFree()) << label;
    const std::vector<AuxClassProbe> probes = ProbesOfEveryKind(schema);
    ASSERT_FALSE(probes.empty()) << label;
    for (size_t i = 0; i < probes.size(); ++i) {
      ExpectExtensionMatches(schema, base, probes[i], options,
                             label + " probe " + std::to_string(i));
    }
  }
  EXPECT_GE(union_free, 4);
  EXPECT_GE(not_union_free, 7);
}

TEST(ExpansionDeltaTest, ExtendedPreambleMatchesUnderEveryTableOption) {
  const Schema schema = Figure2();
  for (bool propagate : {false, true}) {
    for (bool completion : {false, true}) {
      for (bool clusters : {false, true}) {
        ExpansionOptions options;
        options.propagate_tables = propagate;
        options.union_free_completion = completion;
        options.use_clusters = clusters;
        const ExpansionPreamble base = BuildExpansionPreamble(schema, options);
        for (const AuxClassProbe& probe : ProbesOfEveryKind(schema)) {
          ExpectExtensionMatches(
              schema, base, probe, options,
              StrCat("propagate=", propagate, " completion=", completion,
                     " clusters=", clusters));
        }
      }
    }
  }
}

/// Asserts the probe retracts a completion-made disjointness between two
/// base classes, so the extension cannot pass by copying the base row.
void ExpectRetracted(const Schema& schema, const AuxClassProbe& probe,
                     ClassId a, ClassId b, const std::string& label) {
  const ExpansionOptions options;
  const ExpansionPreamble base = BuildExpansionPreamble(schema, options);
  ASSERT_TRUE(base.completion.has_value()) << label;
  ASSERT_TRUE(base.tables.AreDisjoint(a, b)) << label;
  ASSERT_FALSE(base.propagated.AreDisjoint(a, b)) << label;
  const ExpansionPreamble extended =
      ExpectExtensionMatches(schema, base, probe, options, label);
  EXPECT_FALSE(extended.tables.AreDisjoint(a, b)) << label;
  EXPECT_NE(extended.tables.DisjointFrom(a), base.tables.DisjointFrom(a))
      << label;
}

TEST(ExpansionDeltaTest, DisjointProbeRetractsCompletionDisjointness) {
  // Every completion-only disjoint pair of a union-free schema: the
  // probe's witness holds both classes, so the assumption must go.
  int checked = 0;
  for (const auto& [label, schema] : PreambleSchemas()) {
    if (!schema.IsUnionFree()) continue;
    const ExpansionPreamble base =
        BuildExpansionPreamble(schema, ExpansionOptions{});
    for (ClassId a = 0; a < schema.num_classes(); ++a) {
      for (ClassId b = a + 1; b < schema.num_classes(); ++b) {
        if (!base.tables.AreDisjoint(a, b) ||
            base.propagated.AreDisjoint(a, b)) {
          continue;
        }
        AuxClassProbe probe;
        probe.isa = ClassFormula::OfClass(a);
        probe.isa.AndWith(ClassFormula::OfClass(b));
        ExpectRetracted(schema, probe, a, b,
                        StrCat(label, " disjoint ", a, " ", b));
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 0);
}

TEST(ExpansionDeltaTest, MaxCardinalityProbeGrowsABaseFillerContext) {
  // No base context makes `link` mandatory, so its filler context is
  // empty and Target1/Target2 are completion-disjoint. A max-cardinality
  // probe on Owner refutes with a mandatory `link` filler, which must
  // realize both Owner's and Parent's ranges: the shared filler context
  // grows to hold Target1 and Target2 together.
  SchemaBuilder builder;
  builder.DeclareClass("Target1").DeclareClass("Target2");
  builder.BeginClass("Parent")
      .Attribute("link", 0, SchemaBuilder::kUnbounded, {{"Target2"}})
      .EndClass();
  builder.BeginClass("Owner")
      .Isa({{"Parent"}})
      .Attribute("link", 0, SchemaBuilder::kUnbounded, {{"Target1"}})
      .EndClass();
  Result<Schema> built = std::move(builder).Build();
  ASSERT_TRUE(built.ok()) << built.status();
  const Schema& schema = built.value();
  ASSERT_TRUE(schema.IsUnionFree());

  AuxClassProbe probe;
  probe.isa = ClassFormula::OfClass(schema.LookupClass("Owner"));
  AttributeSpec spec;
  spec.term = AttributeTerm::Direct(schema.LookupAttribute("link"));
  spec.cardinality = Cardinality::AtLeast(3);
  spec.range = ClassFormula::True();
  probe.attributes.push_back(spec);
  ExpectRetracted(schema, probe, schema.LookupClass("Target1"),
                  schema.LookupClass("Target2"), "max-card link");

  // The same probe also delta-extends like a from-scratch build.
  EXPECT_TRUE(CheckDeltaMatchesFromScratch(schema, probe.isa,
                                           probe.attributes, {}));
}

TEST(ExpansionDeltaTest, ParallelBatchSharesTheBasePreselection) {
  // Probe workers extend one shared, read-only base preamble at once;
  // answers must not depend on the thread count.
  Rng rng(17);
  const Schema schema = GenerateHierarchy(&rng, HierarchyParams{18, 2, 3});
  ASSERT_TRUE(schema.IsUnionFree());
  std::vector<ImplicationQuery> queries;
  for (ClassId c = 0; c < schema.num_classes(); ++c) {
    const ClassId d = (c + 5) % schema.num_classes();
    queries.push_back(
        {.kind = ImplicationQuery::Kind::kDisjoint, .class_id = c,
         .other = d});
    ImplicationQuery isa{.kind = ImplicationQuery::Kind::kIsa,
                         .class_id = c};
    isa.formula = ClassFormula::OfClass(d);
    queries.push_back(isa);
    queries.push_back({.kind = ImplicationQuery::Kind::kMaxCardinality,
                       .class_id = c,
                       .term = AttributeTerm::Direct(0),
                       .bound = 1});
  }
  std::vector<std::vector<bool>> answers;
  for (int threads : {1, 8}) {
    ReasonerOptions options;
    options.num_threads = threads;
    options.prefilter = false;
    IncrementalSession session(&schema, options);
    Result<std::vector<bool>> batch = session.RunImplicationBatch(queries);
    ASSERT_TRUE(batch.ok()) << batch.status();
    answers.push_back(batch.value());
    EXPECT_EQ(session.stats().fallbacks, 0u) << threads;
    EXPECT_GT(session.stats().probes, 0u) << threads;
  }
  EXPECT_EQ(answers[0], answers[1]);
}

}  // namespace
}  // namespace car
