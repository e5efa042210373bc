#include "reasoner/lazy_engine.h"

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <tuple>
#include <utility>

#include "expansion/expansion_delta.h"
#include "expansion/lazy_enum.h"
#include "semantics/certificate_check.h"
#include "semantics/witness_check.h"
#include "solver/incremental_psi.h"

namespace car {

namespace {

/// The dependency closure of the open targets under the analyzer's
/// depends_on adjacency — the classes whose streams the seed opens.
std::vector<ClassId> DependencyClosure(const SchemaAnalysis& analysis,
                                       const std::vector<ClassId>& roots) {
  std::vector<char> visited(analysis.depends_on.size(), 0);
  std::vector<ClassId> frontier = roots;
  for (ClassId c : roots) visited[c] = 1;
  while (!frontier.empty()) {
    ClassId c = frontier.back();
    frontier.pop_back();
    for (ClassId d : analysis.depends_on[c]) {
      if (visited[d]) continue;
      visited[d] = 1;
      frontier.push_back(d);
    }
  }
  std::vector<ClassId> closure;
  for (size_t c = 0; c < visited.size(); ++c) {
    if (visited[c]) closure.push_back(static_cast<ClassId>(c));
  }
  return closure;
}

/// Maps the solve's seed+delta indexing onto the canonically assembled
/// expansion and validates the result as a semantic witness. Any mapping
/// mismatch (a compound/attribute/relation of one side missing from the
/// other) is itself a spurious witness: the delta-grown artifacts must
/// agree exactly with a from-scratch assembly of the same compound set.
bool ValidateAsWitness(const Schema& schema, const Expansion& canonical,
                       const std::vector<const CompoundClass*>& global_cc,
                       const std::vector<const CompoundAttribute*>& global_ca,
                       const std::vector<const CompoundRelation*>& global_cr,
                       const PartialPsiResult& partial) {
  const size_t total_cc = global_cc.size();
  if (canonical.compound_classes.size() != total_cc ||
      canonical.compound_attributes.size() != global_ca.size() ||
      canonical.compound_relations.size() != global_cr.size()) {
    return false;
  }
  std::vector<int> cc_map(total_cc, -1);
  for (size_t g = 0; g < total_cc; ++g) {
    int canon = canonical.IndexOfCompoundClass(*global_cc[g]);
    if (canon < 0) return false;
    cc_map[g] = canon;
  }

  PsiWitness witness;
  witness.cc_active.assign(total_cc, false);
  witness.cc_value.assign(total_cc, Rational());
  for (size_t g = 0; g < total_cc; ++g) {
    witness.cc_active[cc_map[g]] = partial.cc_active[g];
    witness.cc_value[cc_map[g]] = partial.cc_value[g];
  }

  std::map<std::tuple<AttributeId, int, int>, int> ca_index;
  for (size_t j = 0; j < canonical.compound_attributes.size(); ++j) {
    const CompoundAttribute& ca = canonical.compound_attributes[j];
    ca_index[{ca.attribute, ca.from, ca.to}] = static_cast<int>(j);
  }
  witness.ca_active.assign(global_ca.size(), false);
  witness.ca_value.assign(global_ca.size(), Rational());
  for (size_t j = 0; j < global_ca.size(); ++j) {
    const CompoundAttribute& ca = *global_ca[j];
    auto it = ca_index.find(
        {ca.attribute, cc_map[ca.from], cc_map[ca.to]});
    if (it == ca_index.end()) return false;
    witness.ca_active[it->second] = partial.ca_active[j];
    witness.ca_value[it->second] = partial.ca_value[j];
  }

  std::map<std::pair<RelationId, std::vector<int>>, int> cr_index;
  for (size_t j = 0; j < canonical.compound_relations.size(); ++j) {
    const CompoundRelation& cr = canonical.compound_relations[j];
    cr_index[{cr.relation, cr.components}] = static_cast<int>(j);
  }
  witness.cr_active.assign(global_cr.size(), false);
  witness.cr_value.assign(global_cr.size(), Rational());
  for (size_t j = 0; j < global_cr.size(); ++j) {
    const CompoundRelation& cr = *global_cr[j];
    std::vector<int> mapped;
    mapped.reserve(cr.components.size());
    for (int component : cr.components) mapped.push_back(cc_map[component]);
    auto it = cr_index.find({cr.relation, std::move(mapped)});
    if (it == cr_index.end()) return false;
    witness.cr_active[it->second] = partial.cr_active[j];
    witness.cr_value[it->second] = partial.cr_value[j];
  }

  return ValidatePsiWitness(schema, canonical, witness).valid;
}

/// A validated infeasibility certificate stored by stable row identity
/// (semantics/certificate_check), so it can be re-seated onto a later
/// round's re-indexed, larger probe system — the learned "blocking
/// constraint". The probe row has no PsiRowKey; its multiplier is kept
/// separately.
struct LearnedCertificate {
  std::map<PsiRowKey, Rational> multipliers;
  Rational probe_multiplier;
};

LearnedCertificate LearnCertificate(const Expansion& partial,
                                    const InfeasibilityCertificate& nu) {
  LearnedCertificate learned;
  std::vector<PsiRowKey> keys = PsiRowKeys(partial);
  for (size_t i = 0; i < keys.size(); ++i) {
    if (!nu.row_multipliers[i].is_zero()) {
      learned.multipliers.emplace(std::move(keys[i]), nu.row_multipliers[i]);
    }
  }
  learned.probe_multiplier = nu.row_multipliers.back();
  return learned;
}

/// Re-seats a learned certificate onto a new probe system over a grown
/// partial expansion: stored multipliers land on their rows by key, rows
/// the growth added get zero. The result may no longer be valid (newly
/// materialized columns can break the combined-coefficient condition),
/// so the caller re-validates exactly before reusing it — an invalid
/// re-seat just means this round pays the probe LP again.
InfeasibilityCertificate ReseatCertificate(const Expansion& partial,
                                           const LearnedCertificate& learned) {
  std::vector<PsiRowKey> keys = PsiRowKeys(partial);
  InfeasibilityCertificate nu;
  nu.row_multipliers.assign(keys.size() + 1, Rational());
  for (size_t i = 0; i < keys.size(); ++i) {
    auto it = learned.multipliers.find(keys[i]);
    if (it != learned.multipliers.end()) nu.row_multipliers[i] = it->second;
  }
  nu.row_multipliers.back() = learned.probe_multiplier;
  return nu;
}

}  // namespace

Result<const LazySeedBase*> LazySeedStore::Acquire(
    const std::vector<CompoundClass>& compounds,
    const ExpansionOptions& expansion_options,
    const PsiSolverOptions& solver_options, LazySeedBase* local,
    bool* solved) {
  std::lock_guard<std::mutex> lock(mutex_);
  *solved = false;
  auto it = entries_.find(compounds);
  if (it != entries_.end()) return &it->second;
  LazySeedBase entry;
  CAR_ASSIGN_OR_RETURN(entry.seed, AssembleExpansion(*base_, compounds,
                                                     expansion_options));
  entry.endpoints = CollectConstrainedEndpoints(entry.seed.natt,
                                                entry.seed.nrel);
  if (entry.seed.natt.empty() && entry.seed.nrel.empty()) {
    *local = std::move(entry);
    return local;
  }
  CAR_ASSIGN_OR_RETURN(IncrementalPsiBase psi,
                       PrepareIncrementalPsi(entry.seed, solver_options));
  // Runs resume from the snapshot through the variable maps only.
  psi.psi.system = LinearSystem();
  entry.psi = std::move(psi);
  *solved = true;
  return &entries_.emplace(compounds, std::move(entry)).first->second;
}

void LazySeedStore::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
}

std::vector<const LazySeedBase*> LazySeedStore::Entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<const LazySeedBase*> entries;
  entries.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) entries.push_back(&entry);
  return entries;
}

LazySeedStore::Footprint LazySeedStore::footprint() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Footprint footprint;
  for (const auto& [key, entry] : entries_) {
    footprint.compound_classes += entry.seed.compound_classes.size();
    footprint.compound_edges += entry.seed.compound_attributes.size() +
                                entry.seed.compound_relations.size();
    footprint.tableau_nonzeros += entry.psi->base_tableau_nonzeros;
  }
  return footprint;
}

Result<LazyOutcome> RunLazyExpansion(
    const Schema& schema, const std::vector<ClassId>& targets,
    const SchemaAnalysis* analysis, const ExpansionOptions& expansion_options,
    const PsiSolverOptions& solver_options,
    const LazyExpansionOptions& lazy_options, LazySeedStore* seeds) {
  // Mirror the eager path's first failure mode (BuildExpansion validates
  // too) so routing through the lazy engine never changes error statuses.
  CAR_RETURN_IF_ERROR(schema.Validate());

  LazyOutcome out;
  const int num_classes = schema.num_classes();
  out.class_satisfiable.assign(num_classes, false);
  if (expansion_options.strategy != ExpansionStrategy::kPruned) {
    return out;  // Inconclusive: only the pruned decision tree streams.
  }
  ExecContext* exec = expansion_options.exec;
  CAR_RETURN_IF_ERROR(GovCheck(exec, "expansion"));

  std::optional<SchemaAnalysis> local_analysis;
  if (analysis == nullptr) {
    AnalyzerOptions analyzer_options;
    analyzer_options.lint = false;
    local_analysis = AnalyzeSchema(schema, analyzer_options);
    analysis = &*local_analysis;
  }

  // Static certificates answer their targets outright (sound: a
  // certified class is unsatisfiable in every model, and the eager
  // reasoner agrees by the analyzer's soundness contract).
  std::vector<ClassId> open;
  for (ClassId c : targets) {
    if (analysis->class_unsat[c]) {
      out.class_satisfiable[c] = false;
    } else if (std::find(open.begin(), open.end(), c) == open.end()) {
      open.push_back(c);
    }
  }
  std::sort(open.begin(), open.end());
  if (open.empty()) {
    out.conclusive = true;
    return out;
  }

  const ExpansionPreamble preamble =
      BuildExpansionPreamble(schema, expansion_options);

  // One stream per class in the dependency closure of the open targets.
  // Certificate-driven refinement may open further streams later, so the
  // closure list grows with them.
  std::vector<std::unique_ptr<LazyCompoundStream>> stream_of(num_classes);
  std::vector<ClassId> closure = DependencyClosure(*analysis, open);
  for (ClassId c : closure) {
    const int cluster = preamble.partition.cluster_of[c];
    stream_of[c] = std::make_unique<LazyCompoundStream>(
        schema, preamble.tables, preamble.partition.clusters[cluster], c);
  }

  RefinementLedger ledger;
  auto advance = [&](ClassId c, size_t batch) -> Status {
    return stream_of[c]->Advance(batch, exec,
                                 [&](const CompoundClass& compound) {
                                   if (ledger.Add(compound) &&
                                       exec != nullptr) {
                                     exec->CountCompoundsMaterialized(1);
                                   }
                                 });
  };

  // --- Seed.
  for (ClassId c : closure) {
    CAR_RETURN_IF_ERROR(advance(c, lazy_options.batch_per_class));
  }
  // A target whose exhausted stream delivered nothing is contained in NO
  // compound of the full expansion: unsatisfiable, exactly as eager
  // would report it.
  open.erase(std::remove_if(open.begin(), open.end(),
                            [&](ClassId c) {
                              return stream_of[c]->exhausted() &&
                                     stream_of[c]->delivered() == 0;
                            }),
             open.end());
  ledger.SealRound();
  if (open.empty()) {
    out.conclusive = true;
    out.compounds_materialized = ledger.size();
    return out;
  }

  // The frozen base is the seed's base-only part: compounds holding no
  // class past the store's base schema, shared by every probe that
  // seeds the same set (DESIGN.md §5i). The auxiliary compounds join
  // the delta, so the first round already resumes the stored snapshot.
  // A constrained set is assembled and solved once, by whichever run
  // asks first; an unconstrained one stays the run's own (LazySeedStore).
  const int num_base_classes = seeds->base_schema().num_classes();
  CAR_CHECK(num_base_classes <= num_classes);
  std::vector<CompoundClass> base_only;
  for (CompoundClass& compound : ledger.Compounds()) {
    if (compound.members().back() < num_base_classes) {
      base_only.push_back(std::move(compound));
    }
  }
  LazySeedBase own_seed;
  bool seed_solved = false;
  CAR_ASSIGN_OR_RETURN(const LazySeedBase* seed_base,
                       seeds->Acquire(base_only, expansion_options,
                                      solver_options, &own_seed,
                                      &seed_solved));
  const size_t num_seed_cc = seed_base->seed.compound_classes.size();
  if (seed_solved) {
    ++out.seed_solves;
    ++out.lp_solves;
  } else if (seed_base->psi.has_value()) {
    ++out.seed_reuses;
  }

  // UNSAT-side state: one learned blocking constraint per probed target,
  // and the predicate the closure checker (and probe gating) runs on —
  // "is every compound containing this class materialized?", i.e. the
  // class's pinned stream exists and is exhausted.
  std::map<ClassId, LearnedCertificate> learned_certificates;
  const std::function<bool(ClassId)> all_compounds_materialized =
      [&](ClassId c) {
        return c >= 0 && c < num_classes && stream_of[c] != nullptr &&
               stream_of[c]->exhausted();
      };

  for (size_t round = 0;; ++round) {
    CAR_RETURN_IF_ERROR(GovCheck(exec, "expansion"));
    if (round > 0) {
      out.refinement_rounds = round;
      if (exec != nullptr) exec->CountRefinementRounds(1);
    }

    // Cumulative refinement delta against the frozen seed.
    ExpansionDelta delta;
    for (const CompoundClass& compound : ledger.Compounds()) {
      if (!std::binary_search(base_only.begin(), base_only.end(), compound)) {
        delta.new_compound_classes.push_back(compound);
      }
    }
    if (delta.HasNewCompounds()) {
      CAR_RETURN_IF_ERROR(PopulateDeltaExtensions(schema, seed_base->seed,
                                                  seed_base->endpoints,
                                                  expansion_options, &delta));
    }

    std::vector<const CompoundClass*> global_cc;
    global_cc.reserve(num_seed_cc + delta.new_compound_classes.size());
    for (const CompoundClass& c : seed_base->seed.compound_classes) {
      global_cc.push_back(&c);
    }
    for (const CompoundClass& c : delta.new_compound_classes) {
      global_cc.push_back(&c);
    }
    std::vector<const CompoundAttribute*> global_ca;
    for (const CompoundAttribute& a : seed_base->seed.compound_attributes) {
      global_ca.push_back(&a);
    }
    for (const CompoundAttribute& a : delta.new_compound_attributes) {
      global_ca.push_back(&a);
    }
    std::vector<const CompoundRelation*> global_cr;
    for (const CompoundRelation& r : seed_base->seed.compound_relations) {
      global_cr.push_back(&r);
    }
    for (const CompoundRelation& r : delta.new_compound_relations) {
      global_cr.push_back(&r);
    }

    PartialPsiResult partial;
    const bool any_constrained = !seed_base->seed.natt.empty() ||
                                 !seed_base->seed.nrel.empty() ||
                                 !delta.new_natt.empty() ||
                                 !delta.new_nrel.empty();
    if (!any_constrained) {
      // Every unknown occurs in no disequation: all active, trivially.
      partial.cc_active.assign(global_cc.size(), true);
      partial.cc_value.assign(global_cc.size(), Rational());
      partial.ca_active.assign(global_ca.size(), true);
      partial.ca_value.assign(global_ca.size(), Rational());
      partial.cr_active.assign(global_cr.size(), true);
      partial.cr_value.assign(global_cr.size(), Rational());
    } else {
      if (!seed_base->psi.has_value()) {
        // An unconstrained seed, the run's own: its solve is not shared
        // (whether a run needs it depends on the run's delta).
        CAR_ASSIGN_OR_RETURN(own_seed.psi,
                             PrepareIncrementalPsi(own_seed.seed,
                                                   solver_options));
        ++out.seed_solves;
        ++out.lp_solves;
      }
      CAR_ASSIGN_OR_RETURN(partial,
                           SolvePsiOverDelta(seed_base->seed, *seed_base->psi,
                                             delta, solver_options));
      out.lp_solves += partial.lp_solves;
      out.fixpoint_rounds += partial.fixpoint_rounds;
    }

    // Coverage: a target contained in an active compound of the partial
    // expansion is satisfiable in the full schema (partial solutions
    // zero-extend to full ones). Re-checked from scratch every round —
    // coverage is monotone in theory, so a regression would mean a
    // solver defect, and the concluding witness validation still guards
    // the final answer.
    std::vector<ClassId> uncovered;
    for (ClassId c : open) {
      bool covered = false;
      for (size_t i = 0; i < global_cc.size() && !covered; ++i) {
        covered = partial.cc_active[i] && global_cc[i]->Contains(c);
      }
      if (!covered) uncovered.push_back(c);
    }

    // --- UNSAT-side probes (DESIGN.md §5j). An uncovered target whose
    // own stream is exhausted can never be covered by refinement alone,
    // so ask the opposite question: is the raw partial system plus
    // "Σ Var(C̄ ∋ target) >= 1" already infeasible? The Farkas
    // certificate of an infeasible probe — validated exactly, learned as
    // a blocking constraint, re-seated in later rounds before paying
    // another LP — concludes UNSAT when its dual zero-extension is
    // closed under the absent columns; otherwise its violating classes
    // become this round's materialization hints. Gating on exhaustion
    // keeps satisfiable dense runs at zero probe cost (their target
    // streams never exhaust) and is itself the first closure condition.
    std::vector<ClassId> certificate_hints;
    if (lazy_options.unsat_probes && !uncovered.empty()) {
      std::vector<ClassId> eligible;
      for (ClassId c : uncovered) {
        if (all_compounds_materialized(c)) eligible.push_back(c);
      }
      if (!eligible.empty()) {
        CAR_RETURN_IF_ERROR(GovCheck(exec, "expansion"));
        CAR_ASSIGN_OR_RETURN(
            Expansion partial_expansion,
            AssembleExpansion(schema, ledger.Compounds(), expansion_options));
        std::vector<ClassId> concluded;
        for (ClassId c : eligible) {
          CAR_RETURN_IF_ERROR(GovCheck(exec, "expansion"));
          UnsatProbe probe = BuildUnsatProbe(partial_expansion, c);
          const InfeasibilityCertificate* certificate = nullptr;
          InfeasibilityCertificate reseated;
          auto learned_it = learned_certificates.find(c);
          if (learned_it != learned_certificates.end()) {
            reseated = ReseatCertificate(partial_expansion,
                                         learned_it->second);
            if (ValidateInfeasibilityCertificate(probe.psi.system,
                                                 reseated)) {
              certificate = &reseated;
            }
          }
          std::optional<LpResult> lp;
          if (certificate == nullptr) {
            CAR_ASSIGN_OR_RETURN(lp,
                                 SolveUnsatProbe(probe, solver_options));
            ++out.lp_solves;
            if (lp->outcome != LpOutcome::kInfeasible) continue;
            if (!lp->infeasibility_certificate.has_value() ||
                !ValidateInfeasibilityCertificate(
                    probe.psi.system, *lp->infeasibility_certificate)) {
              // Extraction defect: never conclude from an unvalidated
              // certificate — this target degrades to the eager path.
              continue;
            }
            certificate = &*lp->infeasibility_certificate;
            learned_certificates[c] =
                LearnCertificate(partial_expansion, *certificate);
            ++out.blocking_constraints;
            if (exec != nullptr) exec->CountBlockingConstraints(1);
          }
          CertificateClosureResult closure_check = CheckCertificateClosure(
              schema, partial_expansion, c, *certificate,
              all_compounds_materialized);
          if (closure_check.closed) {
            // Sound lazy UNSAT: out.class_satisfiable[c] stays false.
            ++out.certificate_closures;
            if (exec != nullptr) exec->CountCertificateClosures(1);
            concluded.push_back(c);
          } else {
            certificate_hints.insert(certificate_hints.end(),
                                     closure_check.refinement_hints.begin(),
                                     closure_check.refinement_hints.end());
          }
        }
        auto is_concluded = [&](ClassId c) {
          return std::find(concluded.begin(), concluded.end(), c) !=
                 concluded.end();
        };
        open.erase(std::remove_if(open.begin(), open.end(), is_concluded),
                   open.end());
        uncovered.erase(
            std::remove_if(uncovered.begin(), uncovered.end(), is_concluded),
            uncovered.end());
        if (open.empty()) {
          out.conclusive = true;
          out.compounds_materialized = ledger.size();
          out.compound_attributes = global_ca.size();
          out.compound_relations = global_cr.size();
          return out;
        }
      }
    }

    if (uncovered.empty()) {
      if (lazy_options.validate_witness) {
        CAR_ASSIGN_OR_RETURN(
            Expansion canonical,
            AssembleExpansion(schema, ledger.Compounds(),
                              expansion_options));
        if (!ValidateAsWitness(schema, canonical, global_cc, global_ca,
                               global_cr, partial)) {
          out.spurious_witness = true;
          if (exec != nullptr) exec->CountSpuriousWitnesses(1);
          return out;  // Inconclusive: the eager fallback answers.
        }
      }
      for (ClassId c : open) out.class_satisfiable[c] = true;
      out.conclusive = true;
      out.compounds_materialized = ledger.size();
      out.compound_attributes = global_ca.size();
      out.compound_relations = global_cr.size();
      return out;
    }

    // Refine or give up.
    if (round + 1 >= lazy_options.max_rounds ||
        ledger.size() >= lazy_options.max_materialized) {
      out.compounds_materialized = ledger.size();
      return out;  // Inconclusive.
    }
    const size_t ledger_before = ledger.size();
    size_t delivered_before = 0;
    size_t delivered_after = 0;
    for (ClassId c : closure) delivered_before += stream_of[c]->delivered();
    for (ClassId c : uncovered) {
      CAR_RETURN_IF_ERROR(advance(c, lazy_options.batch_per_class));
      for (ClassId d : analysis->depends_on[c]) {
        if (stream_of[d] != nullptr) {
          CAR_RETURN_IF_ERROR(advance(d, lazy_options.batch_per_class));
        }
      }
    }
    // Adaptive refinement: the violating classes of non-closed
    // certificates drive materialization directly, opening streams the
    // dependency closure never reached when necessary — the next round's
    // probe system gains exactly the columns that broke the closure.
    std::sort(certificate_hints.begin(), certificate_hints.end());
    certificate_hints.erase(
        std::unique(certificate_hints.begin(), certificate_hints.end()),
        certificate_hints.end());
    for (ClassId h : certificate_hints) {
      if (h < 0 || h >= num_classes) continue;
      if (stream_of[h] == nullptr) {
        const int cluster = preamble.partition.cluster_of[h];
        stream_of[h] = std::make_unique<LazyCompoundStream>(
            schema, preamble.tables, preamble.partition.clusters[cluster], h);
        closure.push_back(h);
      }
      CAR_RETURN_IF_ERROR(advance(h, lazy_options.batch_per_class));
    }
    for (ClassId c : closure) delivered_after += stream_of[c]->delivered();
    if (ledger.size() == ledger_before &&
        delivered_after == delivered_before) {
      // Every relevant stream is exhausted: the partial expansion cannot
      // grow towards the uncovered targets. Inconclusive — an uncovered
      // target here is NOT provably unsatisfiable (compounds outside the
      // materialized set could still lend support in the full system).
      out.compounds_materialized = ledger.size();
      return out;
    }
    ledger.SealRound();
  }
}

}  // namespace car
