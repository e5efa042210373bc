#include "reasoner/reasoner.h"

#include <algorithm>
#include <map>

#include "base/hashing.h"
#include "base/strings.h"
#include "frontend/printer.h"
#include "math/simplex.h"
#include "reasoner/implication.h"
#include "reasoner/incremental.h"
#include "solver/psi.h"

namespace car {

namespace {

/// Feasibility of the restricted Ψ_S with the given unknowns forced
/// >= 1: "can this counted pair/tuple population be strictly positive in
/// a model?". The caller passes the counted unknown *and* the unknowns of
/// its endpoint compound classes: an acceptable solution needs those
/// positive as well, and conversely any feasible point here plus the
/// maximal-support solution is acceptable (solutions of the homogeneous
/// system add).
Result<bool> FeasibleWithUnitLowerBounds(const PsiSystem& psi,
                                         const std::vector<int>& variables,
                                         ExecContext* exec) {
  LinearSystem system = psi.system;
  for (int variable : variables) {
    LinearConstraint at_least_one;
    at_least_one.expr.Add(variable, Rational(1));
    at_least_one.relation = Relation::kGreaterEqual;
    at_least_one.rhs = Rational(1);
    system.AddConstraint(std::move(at_least_one));
  }
  SimplexSolver::Options simplex_options;
  simplex_options.exec = exec;
  CAR_ASSIGN_OR_RETURN(LpResult lp,
                       SimplexSolver(simplex_options).CheckFeasible(system));
  return lp.outcome == LpOutcome::kOptimal;
}

/// Runs the collected LP feasibility probes (each a set of unknowns
/// forced >= 1), possibly in parallel, and reports whether any probe is
/// feasible. The answer is a disjunction, hence independent of probe
/// order; errors are reported for the lowest-indexed failing probe.
Result<bool> AnyProbeFeasible(const PsiSystem& psi,
                              const std::vector<std::vector<int>>& probes,
                              int num_threads, ExecContext* exec) {
  CAR_ASSIGN_OR_RETURN(
      std::vector<bool> feasible,
      GovernedSweep(probes.size(), num_threads, exec,
                    /*normalize_trip_phase=*/false, [&](size_t i) {
                      return FeasibleWithUnitLowerBounds(psi, probes[i], exec);
                    }));
  return std::find(feasible.begin(), feasible.end(), true) != feasible.end();
}

}  // namespace

const char* VerdictToString(Verdict verdict) {
  switch (verdict) {
    case Verdict::kSat:
      return "sat";
    case Verdict::kUnsat:
      return "unsat";
    case Verdict::kUnknown:
      return "unknown";
  }
  return "invalid";
}

Reasoner::Reasoner(const Schema* schema, ReasonerOptions options)
    : schema_(schema), options_(std::move(options)) {
  CAR_CHECK(schema != nullptr);
  PropagateStageOptions(&options_);
}

Reasoner::~Reasoner() = default;

Status Reasoner::Prepare() {
  // The schema is borrowed and may be mutated between queries; the cached
  // expansion/solution are only valid for the fingerprint they were
  // computed under.
  uint64_t fingerprint = Fnv1a64(PrintSchema(*schema_));
  if (solution_.has_value() && fingerprint == schema_fingerprint_) {
    return Status::Ok();
  }
  expansion_.reset();
  solution_.reset();
  CAR_ASSIGN_OR_RETURN(Expansion expansion,
                       BuildExpansion(*schema_, options_.expansion));
  CAR_ASSIGN_OR_RETURN(PsiSolution solution,
                       SolvePsi(expansion, options_.solver));
  expansion_ = std::move(expansion);
  solution_ = std::move(solution);
  schema_fingerprint_ = fingerprint;
  return Status::Ok();
}

IncrementalSession* Reasoner::GetIncrementalSession() {
  if (incremental_ == nullptr) {
    incremental_ = std::make_unique<IncrementalSession>(schema_, options_);
  }
  return incremental_.get();
}

Result<const Expansion*> Reasoner::GetExpansion() {
  CAR_RETURN_IF_ERROR(Prepare());
  return &*expansion_;
}

Result<const PsiSolution*> Reasoner::GetSolution() {
  CAR_RETURN_IF_ERROR(Prepare());
  return &*solution_;
}

Result<bool> Reasoner::IsClassSatisfiable(ClassId class_id) {
  if (class_id < 0 || class_id >= schema_->num_classes()) {
    return NotFound(StrCat("class id ", class_id, " out of range"));
  }
  CAR_ASSIGN_OR_RETURN(std::optional<LazyOutcome> lazy,
                       LazyFirst(*schema_, {class_id}));
  if (lazy) return static_cast<bool>(lazy->class_satisfiable[class_id]);
  CAR_RETURN_IF_ERROR(Prepare());
  return solution_->IsClassSatisfiable(class_id);
}

Result<bool> Reasoner::IsClassSatisfiable(std::string_view class_name) {
  ClassId id = schema_->LookupClass(class_name);
  if (id == kInvalidId) {
    return NotFound(StrCat("unknown class '", class_name, "'"));
  }
  return IsClassSatisfiable(id);
}

Result<SatReport> Reasoner::CheckSchema() {
  // Graceful degradation: a governed run whose limit tripped yields a
  // kUnknown report with the structured LimitReport and the partial
  // statistics instead of an error. Ungoverned runs (and genuine
  // failures unrelated to the governor) keep the error status.
  auto degrade = [this](Status failure) -> Result<SatReport> {
    if (options_.exec == nullptr || !options_.exec->tripped()) return failure;
    SatReport report;
    report.verdict = Verdict::kUnknown;
    report.limit = options_.exec->report();
    report.progress = options_.exec->progress();
    return report;
  };
  auto decided = [this](const std::vector<bool>& class_satisfiable) {
    SatReport report;
    report.class_satisfiable = class_satisfiable;
    for (ClassId c = 0; c < schema_->num_classes(); ++c) {
      if (!report.class_satisfiable[c]) {
        report.unsatisfiable_classes.push_back(c);
      }
    }
    report.verdict = report.unsatisfiable_classes.empty() ? Verdict::kSat
                                                          : Verdict::kUnsat;
    if (options_.exec != nullptr) report.progress = options_.exec->progress();
    return report;
  };
  std::vector<ClassId> targets(schema_->num_classes());
  for (ClassId c = 0; c < schema_->num_classes(); ++c) targets[c] = c;
  Result<std::optional<LazyOutcome>> lazy = LazyFirst(*schema_, targets);
  if (!lazy.ok()) return degrade(lazy.status());
  if (lazy->has_value()) {
    const LazyOutcome& outcome = **lazy;
    SatReport report = decided(outcome.class_satisfiable);
    report.lazy = true;
    report.num_compound_classes = outcome.compounds_materialized;
    report.num_compound_attributes = outcome.compound_attributes;
    report.num_compound_relations = outcome.compound_relations;
    report.lp_solves = outcome.lp_solves;
    report.fixpoint_rounds = outcome.fixpoint_rounds;
    report.refinement_rounds = outcome.refinement_rounds;
    report.compounds_materialized = outcome.compounds_materialized;
    report.blocking_constraints = outcome.blocking_constraints;
    report.certificate_closures = outcome.certificate_closures;
    return report;
  }
  Status prepared = Prepare();
  if (!prepared.ok()) return degrade(prepared);
  SatReport report = decided(solution_->class_satisfiable);
  report.num_compound_classes = expansion_->compound_classes.size();
  report.num_compound_attributes = expansion_->compound_attributes.size();
  report.num_compound_relations = expansion_->compound_relations.size();
  report.lp_solves = solution_->lp_solves;
  report.fixpoint_rounds = solution_->fixpoint_rounds;
  return report;
}

Result<bool> Reasoner::AuxiliaryClassSatisfiable(const AuxClassProbe& probe) {
  CAR_ASSIGN_OR_RETURN(AuxiliarySchema extended,
                       BuildAuxiliarySchema(*schema_, probe));
  CAR_ASSIGN_OR_RETURN(std::optional<LazyOutcome> lazy,
                       LazyFirst(extended.schema, {extended.aux}));
  if (lazy) return static_cast<bool>(lazy->class_satisfiable[extended.aux]);
  return EagerClassSatisfiable(extended.schema, extended.aux, options_);
}

Result<std::optional<LazyOutcome>> Reasoner::LazyFirst(
    const Schema& schema, const std::vector<ClassId>& targets) {
  if (!options_.lazy_expansion) return std::optional<LazyOutcome>();
  LazySeedStore seeds(&schema);
  CAR_ASSIGN_OR_RETURN(
      LazyOutcome lazy,
      RunLazyExpansion(schema, targets, nullptr, options_.expansion,
                       options_.solver, options_.lazy, &seeds));
  if (!lazy.conclusive) return std::optional<LazyOutcome>();
  return std::optional<LazyOutcome>(std::move(lazy));
}

Result<bool> Reasoner::DecideFromScratch(const ImplicationQuery& query) {
  return DecideImplication(*schema_, query, [this](const AuxClassProbe& probe) {
    return AuxiliaryClassSatisfiable(probe);
  });
}

Result<bool> Reasoner::ImpliesIsa(ClassId subclass,
                                  const ClassFormula& formula) {
  return DecideFromScratch({.kind = ImplicationQuery::Kind::kIsa,
                            .class_id = subclass,
                            .formula = formula});
}

Result<bool> Reasoner::ImpliesDisjoint(ClassId a, ClassId b) {
  return DecideFromScratch(
      {.kind = ImplicationQuery::Kind::kDisjoint, .class_id = a, .other = b});
}

Result<bool> Reasoner::ImpliesMinCardinality(ClassId class_id,
                                             AttributeTerm term,
                                             uint64_t min) {
  return DecideFromScratch({.kind = ImplicationQuery::Kind::kMinCardinality,
                            .class_id = class_id,
                            .term = term,
                            .bound = min});
}

Result<bool> Reasoner::ImpliesMaxCardinality(ClassId class_id,
                                             AttributeTerm term,
                                             uint64_t max) {
  return DecideFromScratch({.kind = ImplicationQuery::Kind::kMaxCardinality,
                            .class_id = class_id,
                            .term = term,
                            .bound = max});
}

Result<bool> Reasoner::ImpliesMinParticipation(ClassId class_id,
                                               RelationId relation,
                                               RoleId role, uint64_t min) {
  return DecideFromScratch(
      {.kind = ImplicationQuery::Kind::kMinParticipation,
       .class_id = class_id,
       .relation = relation,
       .role = role,
       .bound = min});
}

Result<bool> Reasoner::ImpliesMaxParticipation(ClassId class_id,
                                               RelationId relation,
                                               RoleId role, uint64_t max) {
  return DecideFromScratch(
      {.kind = ImplicationQuery::Kind::kMaxParticipation,
       .class_id = class_id,
       .relation = relation,
       .role = role,
       .bound = max});
}

Result<bool> Reasoner::ImpliesRoleTyping(RelationId relation, RoleId role,
                                         const ClassFormula& formula) {
  if (relation < 0 || relation >= schema_->num_relations()) {
    return NotFound(StrCat("relation id ", relation, " out of range"));
  }
  const RelationDefinition* definition =
      schema_->relation_definition(relation);
  CAR_CHECK(definition != nullptr);
  if (role < 0 || role >= schema_->num_roles()) {
    return NotFound(StrCat("role id ", role, " out of range in relation ",
                           schema_->RelationName(relation)));
  }
  int role_index = definition->RoleIndex(role);
  if (role_index < 0) {
    return NotFound(StrCat("role '", schema_->RoleName(role),
                           "' is not a role of relation '",
                           schema_->RelationName(relation), "'"));
  }
  CAR_RETURN_IF_ERROR(Prepare());

  std::vector<int> active;
  for (size_t i = 0; i < solution_->cc_active.size(); ++i) {
    if (solution_->cc_active[i]) active.push_back(static_cast<int>(i));
  }
  const int arity = definition->arity();
  double combination_estimate = 1;
  for (int k = 0; k < arity; ++k) {
    combination_estimate *= static_cast<double>(active.size());
  }
  if (combination_estimate > 4e6) {
    return GovRecordTrip(options_.exec, LimitKind::kMaxCandidates,
                         "implication", 4'000'000,
                         static_cast<uint64_t>(combination_estimate));
  }

  // Index of the counted compound relations of this relation.
  std::map<std::vector<int>, int> counted;
  for (size_t i = 0; i < expansion_->compound_relations.size(); ++i) {
    const CompoundRelation& cr = expansion_->compound_relations[i];
    if (cr.relation == relation) {
      counted.emplace(cr.components, static_cast<int>(i));
    }
  }
  PsiSystem psi =
      BuildPsiSystem(*expansion_, solution_->cc_active, solution_->ca_active,
                     solution_->cr_active);

  // Enumerate candidate component vectors over the active support,
  // collecting the counted violating shapes; their LP feasibility probes
  // run as a parallel sweep afterwards.
  std::vector<std::vector<int>> probes;
  std::vector<int> components(arity);
  std::vector<size_t> odometer(arity, 0);
  while (true) {
    for (int k = 0; k < arity; ++k) components[k] = active[odometer[k]];
    std::vector<const CompoundClass*> views;
    views.reserve(arity);
    for (int index : components) {
      views.push_back(&expansion_->compound_classes[index]);
    }
    if (IsConsistentCompoundRelation(*schema_, *definition, views) &&
        !views[role_index]->Realizes(formula)) {
      // A tuple of this shape would violate the candidate typing; can it
      // occur? Free (uncounted) shapes always can; counted ones are
      // checked against Ψ_S.
      bool constrained = false;
      for (int k = 0; k < arity; ++k) {
        if (expansion_->nrel.count({relation, k, components[k]}) > 0) {
          constrained = true;
          break;
        }
      }
      if (!constrained) return false;
      auto it = counted.find(components);
      CAR_CHECK(it != counted.end())
          << "constrained compound relation missing from the expansion";
      std::vector<int> forced = {psi.cr_var[it->second]};
      for (int index : components) forced.push_back(psi.cc_var[index]);
      probes.push_back(std::move(forced));
    }
    // Advance the odometer.
    int k = 0;
    while (k < arity && ++odometer[k] == active.size()) {
      odometer[k] = 0;
      ++k;
    }
    if (k == arity) break;
  }
  CAR_ASSIGN_OR_RETURN(bool possible,
                       AnyProbeFeasible(psi, probes, options_.num_threads,
                                        options_.exec));
  return !possible;
}

Result<bool> Reasoner::ImpliesAttributeRange(AttributeTerm term,
                                             const ClassFormula& formula) {
  if (term.attribute < 0 || term.attribute >= schema_->num_attributes()) {
    return NotFound(StrCat("attribute id ", term.attribute, " out of range"));
  }
  CAR_RETURN_IF_ERROR(Prepare());

  std::vector<int> active;
  for (size_t i = 0; i < solution_->cc_active.size(); ++i) {
    if (solution_->cc_active[i]) active.push_back(static_cast<int>(i));
  }
  std::map<std::pair<int, int>, int> counted;
  for (size_t i = 0; i < expansion_->compound_attributes.size(); ++i) {
    const CompoundAttribute& ca = expansion_->compound_attributes[i];
    if (ca.attribute == term.attribute) {
      counted.emplace(std::make_pair(ca.from, ca.to), static_cast<int>(i));
    }
  }
  PsiSystem psi =
      BuildPsiSystem(*expansion_, solution_->cc_active, solution_->ca_active,
                     solution_->cr_active);

  // Collect the counted violating pairs; their LP feasibility probes run
  // as a parallel sweep afterwards.
  std::vector<std::vector<int>> probes;
  for (int from : active) {
    for (int to : active) {
      if (!IsConsistentCompoundAttribute(
              *schema_, term.attribute, expansion_->compound_classes[from],
              expansion_->compound_classes[to])) {
        continue;
      }
      // The "successor" side of a direct term is the pair's target; for
      // an inverse term it is the source.
      const CompoundClass& successor =
          expansion_->compound_classes[term.inverse ? from : to];
      if (successor.Realizes(formula)) continue;
      bool constrained =
          expansion_->natt.count({AttributeTerm::Direct(term.attribute),
                                  from}) > 0 ||
          expansion_->natt.count({AttributeTerm::Inverse(term.attribute),
                                  to}) > 0;
      if (!constrained) return false;
      auto it = counted.find({from, to});
      CAR_CHECK(it != counted.end())
          << "constrained compound attribute missing from the expansion";
      probes.push_back(
          {psi.ca_var[it->second], psi.cc_var[from], psi.cc_var[to]});
    }
  }
  CAR_ASSIGN_OR_RETURN(bool possible,
                       AnyProbeFeasible(psi, probes, options_.num_threads,
                                        options_.exec));
  return !possible;
}

Result<Cardinality> Reasoner::ImpliedCardinalityBounds(
    ClassId class_id, AttributeTerm term, uint64_t search_limit) {
  // Largest implied minimum in [0, search_limit] by binary search
  // (implication of a minimum is downward monotone in the bound).
  uint64_t lo = 0;
  uint64_t hi = search_limit;
  while (lo < hi) {
    uint64_t mid = lo + (hi - lo + 1) / 2;
    CAR_ASSIGN_OR_RETURN(bool implied,
                         ImpliesMinCardinality(class_id, term, mid));
    if (implied) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  uint64_t implied_min = lo;

  // Smallest implied maximum in [0, search_limit], or unbounded.
  CAR_ASSIGN_OR_RETURN(bool bounded,
                       ImpliesMaxCardinality(class_id, term, search_limit));
  uint64_t implied_max = Cardinality::kInfinity;
  if (bounded) {
    lo = 0;
    hi = search_limit;
    while (lo < hi) {
      uint64_t mid = lo + (hi - lo) / 2;
      CAR_ASSIGN_OR_RETURN(bool implied,
                           ImpliesMaxCardinality(class_id, term, mid));
      if (implied) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    implied_max = lo;
  }
  if (implied_max != Cardinality::kInfinity && implied_min > implied_max) {
    // Only possible when the class is unsatisfiable (every bound holds
    // vacuously); normalize.
    return Cardinality::Exactly(0);
  }
  return Cardinality(implied_min, implied_max);
}

Result<bool> Reasoner::RunImplicationQuery(const ImplicationQuery& query) {
  if (options_.incremental) {
    return GetIncrementalSession()->RunImplicationQuery(query);
  }
  return DecideFromScratch(query);
}

Result<std::vector<bool>> Reasoner::RunImplicationBatch(
    const std::vector<ImplicationQuery>& queries) {
  if (options_.incremental) {
    return GetIncrementalSession()->RunImplicationBatch(queries);
  }
  // Every query builds and solves a private auxiliary schema and touches
  // no cached reasoner state, so the batch can run concurrently.
  ExecContext* exec = options_.exec;
  return GovernedSweep(queries.size(), options_.num_threads, exec,
                       /*normalize_trip_phase=*/true, [&](size_t i) {
                         Result<bool> answer = DecideFromScratch(queries[i]);
                         if (exec != nullptr) exec->CountQueries(1);
                         return answer;
                       });
}

}  // namespace car
