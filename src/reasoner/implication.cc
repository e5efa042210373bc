#include "reasoner/implication.h"

#include <string>
#include <utility>

#include "base/strings.h"
#include "base/thread_pool.h"
#include "expansion/expansion.h"
#include "solver/solve.h"

namespace car {

namespace {

bool ValidClass(const Schema& schema, ClassId class_id) {
  return class_id >= 0 && class_id < schema.num_classes();
}

bool ValidAttribute(const Schema& schema, const AttributeTerm& term) {
  return term.attribute >= 0 && term.attribute < schema.num_attributes();
}

/// The successor (or participation) counts that refute a bound query:
/// fewer than its minimum, or more than its maximum. Never called for a
/// minimum of 0 or a maximum of infinity (the shortcut step answers
/// those), so neither bound over- or underflows.
Cardinality RefutingCardinality(const ImplicationQuery& query) {
  const bool minimum =
      query.kind == ImplicationQuery::Kind::kMinCardinality ||
      query.kind == ImplicationQuery::Kind::kMinParticipation;
  return minimum ? Cardinality(0, query.bound - 1)
                 : Cardinality::AtLeast(query.bound + 1);
}

}  // namespace

std::optional<bool> ImplicationShortcut(const Schema& schema,
                                        const ImplicationQuery& query) {
  switch (query.kind) {
    case ImplicationQuery::Kind::kMinCardinality:
    case ImplicationQuery::Kind::kMinParticipation:
      if (query.bound == 0) return true;
      break;
    case ImplicationQuery::Kind::kMaxCardinality:
      if (query.bound == Cardinality::kInfinity &&
          ValidAttribute(schema, query.term)) {
        return true;
      }
      break;
    case ImplicationQuery::Kind::kMaxParticipation:
      if (query.bound == Cardinality::kInfinity) return true;
      break;
    case ImplicationQuery::Kind::kIsa:
    case ImplicationQuery::Kind::kDisjoint:
      break;
  }
  return std::nullopt;
}

Result<bool> DecideImplication(const Schema& schema,
                               const ImplicationQuery& query,
                               const AuxClassProber& prober) {
  if (std::optional<bool> shortcut = ImplicationShortcut(schema, query)) {
    return *shortcut;
  }
  // Every probe is the class minus what the query claims of it; the
  // claim is implied iff that auxiliary class is empty in every model.
  AuxClassProbe probe;
  probe.isa = ClassFormula::OfClass(query.class_id);
  auto implied = [&prober, &probe]() -> Result<bool> {
    CAR_ASSIGN_OR_RETURN(bool satisfiable, prober(probe));
    return !satisfiable;
  };
  switch (query.kind) {
    case ImplicationQuery::Kind::kIsa:
      if (!ValidClass(schema, query.class_id)) {
        return NotFound(StrCat("class id ", query.class_id, " out of range"));
      }
      // C ⊑ γ1 ∧ ... ∧ γn iff C ⊑ γj for every clause, and C ⊑ L1 ∨ ...
      // ∨ Lm iff C ∧ ¬L1 ∧ ... ∧ ¬Lm is unsatisfiable.
      for (const ClassClause& clause : query.formula.clauses()) {
        probe.isa = ClassFormula::OfClass(query.class_id);
        for (const ClassLiteral& literal : clause.literals()) {
          probe.isa.AddClause(ClassClause::Of(literal.Complement()));
        }
        CAR_ASSIGN_OR_RETURN(bool clause_implied, implied());
        if (!clause_implied) return false;
      }
      return true;
    case ImplicationQuery::Kind::kDisjoint:
      if (!ValidClass(schema, query.class_id) ||
          !ValidClass(schema, query.other)) {
        return NotFound("class id out of range");
      }
      probe.isa.AndWith(ClassFormula::OfClass(query.other));
      return implied();
    case ImplicationQuery::Kind::kMinCardinality:
    case ImplicationQuery::Kind::kMaxCardinality: {
      if (!ValidAttribute(schema, query.term)) {
        return NotFound(
            StrCat("attribute id ", query.term.attribute, " out of range"));
      }
      AttributeSpec spec;
      spec.term = query.term;
      spec.cardinality = RefutingCardinality(query);
      spec.range = ClassFormula::True();
      probe.attributes.push_back(std::move(spec));
      return implied();
    }
    case ImplicationQuery::Kind::kMinParticipation:
    case ImplicationQuery::Kind::kMaxParticipation: {
      ParticipationSpec spec;
      spec.relation = query.relation;
      spec.role = query.role;
      spec.cardinality = RefutingCardinality(query);
      probe.participations.push_back(std::move(spec));
      return implied();
    }
  }
  return Internal("unknown implication query kind");
}

Result<AuxiliarySchema> BuildAuxiliarySchema(const Schema& schema,
                                             const AuxClassProbe& probe) {
  AuxiliarySchema extended{schema};
  std::string name = "__car_query";
  int suffix = 0;
  while (extended.schema.LookupClass(name) != kInvalidId) {
    name = StrCat("__car_query_", ++suffix);
  }
  extended.aux = extended.schema.InternClass(name);
  ClassDefinition* definition =
      extended.schema.mutable_class_definition(extended.aux);
  definition->isa = probe.isa;
  definition->attributes = probe.attributes;
  definition->participations = probe.participations;
  CAR_RETURN_IF_ERROR(extended.schema.Validate());
  return extended;
}

Result<bool> EagerClassSatisfiable(const Schema& schema, ClassId class_id,
                                   const ReasonerOptions& options) {
  CAR_ASSIGN_OR_RETURN(Expansion expansion,
                       BuildExpansion(schema, options.expansion));
  CAR_ASSIGN_OR_RETURN(PsiSolution solution,
                       SolvePsi(expansion, options.solver));
  return solution.IsClassSatisfiable(class_id);
}

Result<std::vector<bool>> GovernedSweep(
    size_t n, int num_threads, ExecContext* exec, bool normalize_trip_phase,
    const std::function<Result<bool>(size_t)>& item) {
  std::vector<Result<bool>> outcomes(n, Result<bool>(false));
  ParallelForOptions parallel;
  parallel.num_threads = num_threads;
  parallel.cancel = exec;
  ParallelFor(n, parallel, [exec, &item, &outcomes](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      Status charge = GovChargeWork(exec, 1, "implication");
      if (!charge.ok()) {
        outcomes[i] = std::move(charge);
        return;
      }
      outcomes[i] = item(i);
    }
  });
  if (normalize_trip_phase && exec != nullptr && exec->tripped()) {
    exec->OverridePhaseOnTrip("implication");
  }
  // A trip skips chunks, leaving default-false slots; surface the trip
  // rather than fold them into answers.
  CAR_RETURN_IF_ERROR(GovCheck(exec, "implication"));
  std::vector<bool> answers;
  answers.reserve(n);
  for (const Result<bool>& outcome : outcomes) {
    CAR_RETURN_IF_ERROR(outcome.status());
    answers.push_back(outcome.value());
  }
  return answers;
}

void PropagateStageOptions(ReasonerOptions* options) {
  if (options->num_threads != 1) {
    options->expansion.num_threads = options->num_threads;
    options->solver.num_threads = options->num_threads;
  }
  options->expansion.exec = options->exec;
  options->solver.exec = options->exec;
}

}  // namespace car
