#include "reasoner/prefilter.h"

#include "model/cardinality.h"

namespace car {

namespace {

bool ClassInRange(const Schema& schema, ClassId id) {
  return id >= 0 && id < schema.num_classes();
}

bool FormulaIdsInRange(const Schema& schema, const ClassFormula& formula) {
  for (const ClassClause& clause : formula.clauses()) {
    for (const ClassLiteral& literal : clause.literals()) {
      if (!ClassInRange(schema, literal.class_id)) return false;
    }
  }
  return true;
}

bool StaticallyEmpty(const SchemaAnalysis& analysis, ClassId id) {
  return analysis.class_unsat[id] != 0;
}

/// Certificate that every instance of `c` satisfies `clause`: a
/// positive literal D with C ⊆* D (or D = C), or a negative literal ¬D
/// with C and D provably disjoint. An empty clause has no certificate
/// (it is satisfiable only vacuously, which the caller handles through
/// the statically-empty check).
bool ClauseCertified(const SchemaAnalysis& analysis, ClassId c,
                     const ClassClause& clause) {
  for (const ClassLiteral& literal : clause.literals()) {
    if (literal.negated) {
      if (analysis.tables.AreDisjoint(c, literal.class_id)) return true;
    } else {
      if (literal.class_id == c ||
          analysis.tables.IsIncluded(c, literal.class_id)) {
        return true;
      }
    }
  }
  return false;
}

/// The interval every instance of `c` must satisfy for `term`,
/// intersected over the specs of c and its propagated superclasses.
/// (0, infinity) when nothing constrains the term; possibly empty —
/// which is itself a sound emptiness certificate for c.
Cardinality InheritedAttributeBound(const Schema& schema,
                                    const PairTables& tables, ClassId c,
                                    const AttributeTerm& term) {
  Cardinality bound;
  auto fold = [&schema, &bound, &term](ClassId owner) {
    for (const AttributeSpec& spec :
         schema.class_definition(owner).attributes) {
      if (spec.term == term) {
        bound = Cardinality::IntersectUnchecked(bound, spec.cardinality);
      }
    }
  };
  fold(c);
  for (ClassId super : tables.SuperclassesOf(c)) fold(super);
  return bound;
}

Cardinality InheritedParticipationBound(const Schema& schema,
                                        const PairTables& tables, ClassId c,
                                        RelationId relation, RoleId role) {
  Cardinality bound;
  auto fold = [&schema, &bound, relation, role](ClassId owner) {
    for (const ParticipationSpec& spec :
         schema.class_definition(owner).participations) {
      if (spec.relation == relation && spec.role == role) {
        bound = Cardinality::IntersectUnchecked(bound, spec.cardinality);
      }
    }
  };
  fold(c);
  for (ClassId super : tables.SuperclassesOf(c)) fold(super);
  return bound;
}

/// Gate for the participation kinds, mirroring Schema::Validate on the
/// probe's auxiliary spec: relation id in range, relation defined, role
/// among its roles. Any failure means the full path errors — decline.
bool ParticipationGate(const Schema& schema, const ImplicationQuery& query) {
  if (!ClassInRange(schema, query.class_id)) return false;
  if (query.relation < 0 || query.relation >= schema.num_relations()) {
    return false;
  }
  const RelationDefinition* relation =
      schema.relation_definition(query.relation);
  return relation != nullptr && relation->RoleIndex(query.role) >= 0;
}

}  // namespace

std::optional<bool> ClosurePrefilterAnswer(const Schema& schema,
                                           const SchemaAnalysis& analysis,
                                           const ImplicationQuery& query) {
  switch (query.kind) {
    case ImplicationQuery::Kind::kIsa: {
      if (!ClassInRange(schema, query.class_id)) return std::nullopt;
      if (!FormulaIdsInRange(schema, query.formula)) return std::nullopt;
      if (StaticallyEmpty(analysis, query.class_id)) return true;
      for (const ClassClause& clause : query.formula.clauses()) {
        if (!ClauseCertified(analysis, query.class_id, clause)) {
          return std::nullopt;
        }
      }
      return true;
    }
    case ImplicationQuery::Kind::kDisjoint: {
      if (!ClassInRange(schema, query.class_id) ||
          !ClassInRange(schema, query.other)) {
        return std::nullopt;
      }
      if (analysis.tables.AreDisjoint(query.class_id, query.other) ||
          StaticallyEmpty(analysis, query.class_id) ||
          StaticallyEmpty(analysis, query.other)) {
        return true;
      }
      return std::nullopt;
    }
    case ImplicationQuery::Kind::kMinCardinality: {
      // bound == 0 is the ImplicationShortcut step; leave it to that step
      // so the decision structure (and its validation-skipping shape)
      // stays in one place.
      if (query.bound == 0) return std::nullopt;
      if (query.term.attribute < 0 ||
          query.term.attribute >= schema.num_attributes() ||
          !ClassInRange(schema, query.class_id)) {
        return std::nullopt;
      }
      if (StaticallyEmpty(analysis, query.class_id)) return true;
      Cardinality inherited = InheritedAttributeBound(
          schema, analysis.tables, query.class_id, query.term);
      if (inherited.min() >= query.bound) return true;
      return std::nullopt;
    }
    case ImplicationQuery::Kind::kMaxCardinality: {
      if (query.term.attribute < 0 ||
          query.term.attribute >= schema.num_attributes() ||
          !ClassInRange(schema, query.class_id)) {
        return std::nullopt;
      }
      if (query.bound == Cardinality::kInfinity) return true;
      if (StaticallyEmpty(analysis, query.class_id)) return true;
      Cardinality inherited = InheritedAttributeBound(
          schema, analysis.tables, query.class_id, query.term);
      if (inherited.max() <= query.bound) return true;
      return std::nullopt;
    }
    case ImplicationQuery::Kind::kMinParticipation: {
      if (query.bound == 0) return std::nullopt;
      if (!ParticipationGate(schema, query)) return std::nullopt;
      if (StaticallyEmpty(analysis, query.class_id)) return true;
      Cardinality inherited =
          InheritedParticipationBound(schema, analysis.tables,
                                      query.class_id, query.relation,
                                      query.role);
      if (inherited.min() >= query.bound) return true;
      return std::nullopt;
    }
    case ImplicationQuery::Kind::kMaxParticipation: {
      if (!ParticipationGate(schema, query)) return std::nullopt;
      if (query.bound == Cardinality::kInfinity) return true;
      if (StaticallyEmpty(analysis, query.class_id)) return true;
      Cardinality inherited =
          InheritedParticipationBound(schema, analysis.tables,
                                      query.class_id, query.relation,
                                      query.role);
      if (inherited.max() <= query.bound) return true;
      return std::nullopt;
    }
  }
  return std::nullopt;
}

}  // namespace car
