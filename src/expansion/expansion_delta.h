#ifndef CAR_EXPANSION_EXPANSION_DELTA_H_
#define CAR_EXPANSION_EXPANSION_DELTA_H_

#include <map>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "analysis/clusters.h"
#include "analysis/pair_tables.h"
#include "base/result.h"
#include "expansion/expansion.h"
#include "model/schema.h"

namespace car {

/// The constrained compound classes of an expansion (or delta): per
/// attribute, the compounds with a Natt entry on the attribute (`from`)
/// or on its inverse (`to`); per relation and role, the compounds with an
/// Nrel entry there. Lists are ascending and duplicate-free. Candidate
/// compound attributes and relations are anchored at these endpoints.
struct ConstrainedEndpoints {
  std::vector<std::vector<int>> attribute_from;  // By AttributeId.
  std::vector<std::vector<int>> attribute_to;
  std::vector<std::vector<std::vector<int>>> relation_role;  // [r][role]
};

/// Collects the endpoint lists of `natt`/`nrel` (an Expansion's maps or
/// an ExpansionDelta's new_natt/new_nrel).
ConstrainedEndpoints CollectConstrainedEndpoints(
    const std::map<std::pair<AttributeTerm, int>, Cardinality>& natt,
    const std::map<std::tuple<RelationId, int, int>, Cardinality>& nrel);

/// Precomputed analysis of a frozen base expansion that incremental
/// probes extend: the preselection preamble the base enumeration used
/// (tables, partition, and the propagation and completion state each
/// probe's preamble resumes from), plus each base compound class grouped
/// under its cluster. Built once per session; read-only afterwards
/// (shareable across probe threads).
struct ExpansionBaseAnalysis {
  ExpansionPreamble preamble;
  /// Per base cluster: indices of the base compound classes whose members
  /// lie in that cluster (the empty compound, index 0, belongs to none).
  std::vector<std::vector<int>> cluster_compounds;
  /// Base cluster index by (sorted) class list, for reuse lookups.
  std::map<std::vector<ClassId>, int> cluster_by_classes;
  /// The base's constrained endpoints, which every probe's
  /// PopulateDeltaExtensions pairs with the new compounds.
  ConstrainedEndpoints base_endpoints;
};

/// The incremental extension of a base expansion for one probe schema
/// (= base schema + one auxiliary class): everything the extended
/// expansion has beyond the base, with base indices frozen. A global
/// compound-class index i refers to base.compound_classes[i] when
/// i < base count and to new_compound_classes[i - base count] otherwise;
/// compound attribute/relation indices follow the same convention.
///
/// Guarantee (checked, not assumed): the extended compound-class set is
/// exactly base ∪ new — re-enumerating the changed clusters re-emitted
/// every base compound they cover. When the check fails (the auxiliary
/// class perturbed the preselection tables enough to prune a base
/// compound), ExtendExpansionWithAuxClass returns kFailedPrecondition and
/// the caller must fall back to a from-scratch build; answers are never
/// silently approximated.
struct ExpansionDelta {
  /// New compound classes, canonically sorted among themselves; global
  /// index = base count + position.
  std::vector<CompoundClass> new_compound_classes;
  /// New compound attributes/relations (endpoints are global indices).
  std::vector<CompoundAttribute> new_compound_attributes;
  std::vector<CompoundRelation> new_compound_relations;
  /// Natt/Nrel entries of the new compound classes (base entries are
  /// unchanged: they are intrinsic to a compound's members).
  std::map<std::pair<AttributeTerm, int>, Cardinality> new_natt;
  std::map<std::tuple<RelationId, int, int>, Cardinality> new_nrel;
  /// Lookup maps for the NEW compound attributes/relations only. Keys may
  /// name base compound indices: those lists extend the base summation
  /// sets S(att, C̄) of existing Ψ rows — the row extensions of the
  /// warm-started solve.
  std::map<std::pair<AttributeId, int>, std::vector<int>> new_ca_by_from;
  std::map<std::pair<AttributeId, int>, std::vector<int>> new_ca_by_to;
  std::map<std::tuple<RelationId, int, int>, std::vector<int>> new_cr_by_role;

  // --- Statistics ---------------------------------------------------------
  size_t clusters_reused = 0;
  size_t clusters_reenumerated = 0;
  size_t subsets_visited = 0;

  bool HasNewCompounds() const { return !new_compound_classes.empty(); }
};

/// Builds the reusable base analysis around the preselection preamble the
/// base expansion was enumerated with: `preamble` when the caller kept
/// the one BuildExpansion handed out, else BuildExpansionPreamble(schema,
/// options) (a restored snapshot). Requires options.strategy == kPruned
/// (the exhaustive strategy has no cluster structure to reuse).
Result<ExpansionBaseAnalysis> AnalyzeBaseExpansion(
    const Schema& schema, const Expansion& base,
    const ExpansionOptions& options,
    std::optional<ExpansionPreamble> preamble = std::nullopt);

/// Extends `base` to the expansion of `ext_schema` (= base schema plus
/// the auxiliary class `aux`, which must be its last class). The
/// extended preamble is ExtendExpansionPreamble of the analysis's one —
/// the auxiliary class is a leaf no base class mentions. Clusters
/// whose class list and within-cluster table rows are unchanged are
/// reused wholesale (their compounds are already in the base); changed
/// clusters are re-enumerated with the extended tables. Errors:
/// kFailedPrecondition when the base-prefix property cannot be
/// established (caller falls back to from-scratch); kResourceExhausted /
/// kCancelled on governor trips, exactly like BuildExpansion.
Result<ExpansionDelta> ExtendExpansionWithAuxClass(
    const Schema& ext_schema, ClassId aux, const Expansion& base,
    const ExpansionBaseAnalysis& analysis, const ExpansionOptions& options);

/// Fills the derived sections of a delta whose `new_compound_classes`
/// are already set (canonically sorted among themselves, disjoint from
/// the base compound set, consistent with `schema`): the Natt/Nrel
/// entries of the new compounds, and every new compound attribute/
/// relation with at least one new endpoint — base pairs/tuples keep
/// their base verdicts and are never re-filtered. Shared by the
/// auxiliary-class probe extension above and by the lazy
/// (counterexample-guided) expansion engine, whose refinement rounds
/// materialize compound classes first and derive the rest here.
/// Governor observation matches ExtendExpansionWithAuxClass: one
/// "expansion-filter" / "expansion-relations" work unit per candidate,
/// cap trips recorded with the same LimitKinds. `base_endpoints` must be
/// CollectConstrainedEndpoints(base.natt, base.nrel); callers that extend
/// one base many times collect it once.
Status PopulateDeltaExtensions(const Schema& schema, const Expansion& base,
                               const ConstrainedEndpoints& base_endpoints,
                               const ExpansionOptions& options,
                               ExpansionDelta* delta);

}  // namespace car

#endif  // CAR_EXPANSION_EXPANSION_DELTA_H_
