#ifndef CAR_REASONER_LAZY_ENGINE_H_
#define CAR_REASONER_LAZY_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <vector>

#include "analysis/analyzer.h"
#include "base/result.h"
#include "expansion/expansion.h"
#include "expansion/expansion_delta.h"
#include "model/schema.h"
#include "solver/incremental_psi.h"
#include "solver/solve.h"

namespace car {

/// Tuning of the lazy (counterexample-guided) expansion engine. The
/// defaults favor dense schemas: small batches cover quickly when the
/// include-first stream order front-loads maximal compounds, and the
/// caps bound the engine's own work well below one eager build before it
/// gives up and falls back.
struct LazyExpansionOptions {
  /// Compounds materialized per advanced stream per round.
  size_t batch_per_class = 8;
  /// Solve rounds (seed round included) before declaring inconclusive.
  size_t max_rounds = 8;
  /// Materialization cap; reaching it declares inconclusive.
  size_t max_materialized = 4096;
  /// Validate the concluding partial solution as a semantic model
  /// witness (semantics/witness_check) before answering; a spurious
  /// witness forces the eager fallback instead of an answer.
  bool validate_witness = true;
  /// UNSAT-side refinement: probe uncovered targets whose own stream is
  /// exhausted with a raw feasibility LP, learn the Farkas certificate of
  /// an infeasible probe as a blocking constraint, conclude UNSAT when
  /// the certificate is closed under the absent columns
  /// (semantics/certificate_check), and otherwise drive the next
  /// materialization round with the certificate's violating classes
  /// instead of the fixed batch. Off = PR 9 behavior (such targets stall
  /// into the eager fallback).
  bool unsat_probes = true;
};

/// What one lazy run reports. `conclusive` is the contract: when false,
/// NOTHING may be concluded and the caller must run the eager path —
/// answers, when present, are bit-identical to eager's by construction
/// (coverage implies full-expansion support by zero-extension;
/// unsatisfiability is only claimed on sound static certificates or on
/// exhausted empty streams).
struct LazyOutcome {
  bool conclusive = false;
  /// True when the final solution failed witness validation (the run is
  /// then inconclusive and the failure was counted on the governor).
  bool spurious_witness = false;
  /// Sized to the schema's class count; meaningful at the queried
  /// targets only.
  std::vector<bool> class_satisfiable;

  // Observability: what the run materialized and solved.
  size_t refinement_rounds = 0;
  size_t compounds_materialized = 0;
  size_t compound_attributes = 0;
  size_t compound_relations = 0;
  size_t lp_solves = 0;
  size_t fixpoint_rounds = 0;
  /// UNSAT-side counters: infeasibility certificates learned from
  /// infeasible probes (each one blocks its partial system for every
  /// later round), and certificates whose dual zero-extension closed —
  /// i.e. lazy UNSAT verdicts concluded without the eager expansion.
  size_t blocking_constraints = 0;
  size_t certificate_closures = 0;
  /// Seed reuse (LazySeedStore), each 0 or 1: the run solved its
  /// base-only seed's Ψ (and stored it, if constrained), or resumed one
  /// another run stored. Both are 0 when no round needed an LP.
  size_t seed_solves = 0;
  size_t seed_reuses = 0;
};

/// The base-only part of a lazy run's seed: the seeded compounds holding
/// no class past the store's base schema, with what the run's solves
/// resume from.
struct LazySeedBase {
  /// AssembleExpansion over the store's base schema.
  Expansion seed;
  /// CollectConstrainedEndpoints(seed.natt, seed.nrel).
  ConstrainedEndpoints endpoints;
  /// The seed's solved Ψ base with `psi.system` released; set on every
  /// stored entry, empty on a run's own seed until a round needs an LP.
  std::optional<IncrementalPsiBase> psi;
};

/// The solved lazy seed bases of one base schema, keyed exactly by their
/// compound set. An implication probe adds one fresh auxiliary class that
/// no base class mentions (Section 3), so a compound without it has the
/// same Natt/Nrel entries, compound attributes/relations and Ψ rows in
/// every probe's schema: the base-only part of a seed is shared by every
/// probe that materializes the same set, and the auxiliary compounds
/// enter as the first round's delta.
///
/// Only constrained seeds (a Natt or Nrel entry) are stored: every run
/// that seeds one solves over it in its first round, so storing it on
/// first lookup saves later runs exactly their assembly and solve, at
/// every thread count alike. Lookup, assembly and solve run under the
/// store's lock, so each constrained set is built once and what the
/// governor is charged does not depend on how probes are scheduled.
/// Thread-safe; the base schema is borrowed and must outlive the store's
/// entries.
class LazySeedStore {
 public:
  explicit LazySeedStore(const Schema* base) : base_(base) {}
  LazySeedStore(const LazySeedStore&) = delete;
  LazySeedStore& operator=(const LazySeedStore&) = delete;

  const Schema& base_schema() const { return *base_; }

  /// The seed base of `compounds` (base-only, canonically sorted): the
  /// stored entry, else a new assembly over the base schema. A
  /// constrained one is solved and stored (`*solved` = true); an
  /// unconstrained one is moved into `*local`, the run's own, and
  /// returned unsolved. A governor trip stores nothing.
  Result<const LazySeedBase*> Acquire(
      const std::vector<CompoundClass>& compounds,
      const ExpansionOptions& expansion_options,
      const PsiSolverOptions& solver_options, LazySeedBase* local,
      bool* solved);

  /// Drops every entry (the base schema changed).
  void Clear();

  /// The stored entries in key order.
  std::vector<const LazySeedBase*> Entries() const;

  /// What the entries hold, for memory estimates: compound classes,
  /// compound attributes plus relations, and solved-tableau nonzeros.
  struct Footprint {
    uint64_t compound_classes = 0;
    uint64_t compound_edges = 0;
    uint64_t tableau_nonzeros = 0;
  };
  Footprint footprint() const;

 private:
  const Schema* base_;
  mutable std::mutex mutex_;
  /// Node-based, so entries stay put while others are added.
  std::map<std::vector<CompoundClass>, LazySeedBase> entries_;
};

/// Decides satisfiability of the `targets` classes lazily:
///
///   seed: per-class compound streams over the pruned enumeration's
///     decision tree (expansion/lazy_enum), opened for the dependency
///     closure of the targets, each advanced by one batch; statically
///     certified-unsat targets (analysis) are answered immediately and a
///     target whose exhausted stream delivered nothing is unsatisfiable
///     outright (no compound of the full expansion contains it);
///   solve: the seed's base-only compounds are the frozen base — taken
///     from `seeds`, which assembles and solves each constrained set once — and
///     every other materialized compound, the seed's auxiliary ones
///     included, is the cumulative delta the warm-started acceptability
///     fixpoint (SolvePsiOverDelta) resumes the base's snapshot with;
///   refine: targets not covered by an active compound advance their
///     streams (and their direct dependencies') by another batch, the
///     delta grows via PopulateDeltaExtensions, and the solve repeats —
///     each round warm-starts from the same clean seed snapshot;
///   unsat probes: an uncovered target whose own stream is exhausted is
///     probed with a raw feasibility LP over the partial system plus
///     "Σ Var(C̄ ∋ target) >= 1"; an infeasible probe's Farkas
///     certificate (validated exactly, then learned as a blocking
///     constraint and re-seated in later rounds) concludes UNSAT when
///     its dual zero-extension is closed under the absent columns
///     (semantics/certificate_check), and otherwise contributes its
///     violating classes as the next round's materialization hints
///     (adaptive batching);
///   conclude: when every open target is covered, the final solution is
///     validated as a semantic witness; only then are the answers
///     reported. Coverage in a partial expansion implies coverage in the
///     full one (solutions zero-extend), so positive answers are exact.
///
/// Returns an error only for governor trips and internal failures —
/// mirroring the eager path's statuses so callers degrade identically.
/// `analysis` may be null (the engine then runs the static pass itself,
/// lint off). `seeds` is over `schema` itself (nothing is auxiliary, the
/// first delta is empty) or over the schema an implication probe
/// extended by appending classes. Requires ExpansionOptions::strategy ==
/// kPruned; any other configuration returns an inconclusive outcome.
Result<LazyOutcome> RunLazyExpansion(const Schema& schema,
                                     const std::vector<ClassId>& targets,
                                     const SchemaAnalysis* analysis,
                                     const ExpansionOptions& expansion_options,
                                     const PsiSolverOptions& solver_options,
                                     const LazyExpansionOptions& lazy_options,
                                     LazySeedStore* seeds);

}  // namespace car

#endif  // CAR_REASONER_LAZY_ENGINE_H_
