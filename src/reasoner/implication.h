#ifndef CAR_REASONER_IMPLICATION_H_
#define CAR_REASONER_IMPLICATION_H_

// The reduction of Section 3, written once: every ImplicationQuery is
// decided by satisfiability checks of a fresh auxiliary class in an
// extended schema. The from-scratch Reasoner and the IncrementalSession
// both call DecideImplication, each with its own prober for the
// auxiliary class, so their answers and error statuses agree by
// construction.

#include <cstddef>
#include <functional>
#include <optional>
#include <vector>

#include "base/exec_context.h"
#include "base/result.h"
#include "model/schema.h"
#include "reasoner/reasoner.h"

namespace car {

/// The definition of one fresh auxiliary class.
struct AuxClassProbe {
  ClassFormula isa;
  std::vector<AttributeSpec> attributes;
  std::vector<ParticipationSpec> participations;
};

/// Satisfiability of the auxiliary class a probe defines, added to the
/// schema the caller decides over.
using AuxClassProber = std::function<Result<bool>(const AuxClassProbe&)>;

/// The bound shortcuts, answered before anything is built: a minimum of
/// 0 and a maximum participation of infinity are implied even for bad
/// ids (they are decided before validation), while a maximum cardinality
/// of infinity is implied only for a valid attribute (validated first).
/// nullopt for every other query. Builds no formula or spec, so it is
/// cheap enough to run ahead of a memo lookup.
std::optional<bool> ImplicationShortcut(const Schema& schema,
                                        const ImplicationQuery& query);

/// Decides `query` over `schema`: the shortcut step, then the query's
/// validation errors, then its auxiliary-class probes in order — one per
/// ISA clause with an early exit at the first satisfiable one (C ⊑ γ iff
/// C ∧ ¬γ is empty), one for every other kind — and the implication
/// holds iff the probed class is unsatisfiable. Bad ids inside formulas
/// and specs surface from the auxiliary schema's validation.
Result<bool> DecideImplication(const Schema& schema,
                               const ImplicationQuery& query,
                               const AuxClassProber& prober);

/// A copy of a schema plus the fresh auxiliary class a probe defines.
struct AuxiliarySchema {
  Schema schema;
  ClassId aux = kInvalidId;
};

/// Builds and validates the auxiliary schema. The class is named
/// "__car_query" (suffixed until fresh), so validation messages name it
/// the same way on every path.
Result<AuxiliarySchema> BuildAuxiliarySchema(const Schema& schema,
                                             const AuxClassProbe& probe);

/// Eager satisfiability of one class: full expansion of `schema`, Ψ
/// solve, then the class's verdict.
Result<bool> EagerClassSatisfiable(const Schema& schema, ClassId class_id,
                                   const ReasonerOptions& options);

/// Runs item(i) for every i in [0, n) on up to `num_threads` workers
/// under the governor: each item first charges one unit of
/// "implication" work, a trip skips the items left, and the sweep then
/// surfaces the trip. With `normalize_trip_phase`, a trip is reported in
/// the "implication" phase whatever phase the item was in, for sweeps
/// whose items run several pipeline phases concurrently. Answers are
/// positional; on failure, the error of the lowest-indexed failing item
/// is returned.
Result<std::vector<bool>> GovernedSweep(
    size_t n, int num_threads, ExecContext* exec, bool normalize_trip_phase,
    const std::function<Result<bool>(size_t)>& item);

/// Copies options->num_threads (unless 1, which keeps the per-stage
/// settings) and options->exec into the expansion and solver stages.
void PropagateStageOptions(ReasonerOptions* options);

}  // namespace car

#endif  // CAR_REASONER_IMPLICATION_H_
