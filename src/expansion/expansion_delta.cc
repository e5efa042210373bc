#include "expansion/expansion_delta.h"

#include <algorithm>
#include <functional>
#include <set>
#include <utility>

#include "base/check.h"
#include "expansion/cluster_enum.h"

namespace car {

namespace {

/// True when the cluster's pruning inputs agree under both tables: every
/// within-cluster disjointness and inclusion entry (including the
/// self-disjointness diagonal) is identical. Together with an identical
/// class list this makes the pruned DFS decision tree — and hence the
/// emitted compound set — identical, because the DFS consults exactly
/// AreDisjoint(c, c), AreDisjoint(c, included), IsIncluded(included, c)
/// and the excluded-superclass test, whose out-of-cluster part is inert
/// (classes of other clusters are never marked excluded).
bool ClusterTablesUnchanged(const std::vector<ClassId>& cluster,
                            const PairTables& base_tables,
                            const PairTables& ext_tables) {
  for (ClassId c : cluster) {
    for (ClassId d : cluster) {
      if (base_tables.AreDisjoint(c, d) != ext_tables.AreDisjoint(c, d)) {
        return false;
      }
      if (base_tables.IsIncluded(c, d) != ext_tables.IsIncluded(c, d)) {
        return false;
      }
    }
  }
  return true;
}

/// The list at `index`, or an empty one past the end (a schema may have
/// attributes, relations or roles that no compound is constrained on).
template <typename List>
const List& ListAt(const std::vector<List>& lists, size_t index) {
  static const List kEmpty;
  return index < lists.size() ? lists[index] : kEmpty;
}

}  // namespace

ConstrainedEndpoints CollectConstrainedEndpoints(
    const std::map<std::pair<AttributeTerm, int>, Cardinality>& natt,
    const std::map<std::tuple<RelationId, int, int>, Cardinality>& nrel) {
  // Map order is (attribute term, compound) and (relation, role,
  // compound), so each list is appended in ascending compound order.
  ConstrainedEndpoints endpoints;
  for (const auto& [key, cardinality] : natt) {
    (void)cardinality;
    const auto& [term, compound_index] = key;
    std::vector<std::vector<int>>& lists =
        term.inverse ? endpoints.attribute_to : endpoints.attribute_from;
    const size_t attribute = static_cast<size_t>(term.attribute);
    if (lists.size() <= attribute) lists.resize(attribute + 1);
    lists[attribute].push_back(compound_index);
  }
  for (const auto& [key, cardinality] : nrel) {
    (void)cardinality;
    const auto& [relation, role, compound_index] = key;
    auto& roles = endpoints.relation_role;
    if (roles.size() <= static_cast<size_t>(relation)) {
      roles.resize(static_cast<size_t>(relation) + 1);
    }
    auto& lists = roles[static_cast<size_t>(relation)];
    if (lists.size() <= static_cast<size_t>(role)) {
      lists.resize(static_cast<size_t>(role) + 1);
    }
    lists[static_cast<size_t>(role)].push_back(compound_index);
  }
  return endpoints;
}

Result<ExpansionBaseAnalysis> AnalyzeBaseExpansion(
    const Schema& schema, const Expansion& base,
    const ExpansionOptions& options,
    std::optional<ExpansionPreamble> preamble) {
  if (options.strategy != ExpansionStrategy::kPruned) {
    return FailedPrecondition(
        "incremental expansion deltas require the pruned strategy");
  }
  ExpansionBaseAnalysis analysis{
      preamble.has_value() ? std::move(*preamble)
                           : BuildExpansionPreamble(schema, options),
      {},
      {},
      CollectConstrainedEndpoints(base.natt, base.nrel)};
  const ClusterPartition& partition = analysis.preamble.partition;
  analysis.cluster_compounds.assign(partition.num_clusters(), {});
  for (size_t i = 1; i < base.compound_classes.size(); ++i) {
    const CompoundClass& compound = base.compound_classes[i];
    CAR_CHECK(!compound.empty());
    const int cluster = partition.cluster_of[compound.members().front()];
    // The pruned enumeration never mixes clusters; verify rather than
    // assume (a mismatch would mean `base` was built with different
    // options than the ones replayed here).
    for (ClassId member : compound.members()) {
      if (partition.cluster_of[member] != cluster) {
        return FailedPrecondition(
            "base expansion has a cross-cluster compound class; it was "
            "not built with the replayed options");
      }
    }
    analysis.cluster_compounds[cluster].push_back(static_cast<int>(i));
  }
  for (int k = 0; k < partition.num_clusters(); ++k) {
    analysis.cluster_by_classes.emplace(partition.clusters[k], k);
  }
  return analysis;
}

Result<ExpansionDelta> ExtendExpansionWithAuxClass(
    const Schema& ext_schema, ClassId aux, const Expansion& base,
    const ExpansionBaseAnalysis& analysis, const ExpansionOptions& options) {
  CAR_CHECK_EQ(static_cast<int>(aux), ext_schema.num_classes() - 1);
  ExecContext* exec = options.exec;
  CAR_RETURN_IF_ERROR(GovCheck(exec, "expansion"));

  const int num_base_cc = static_cast<int>(base.compound_classes.size());
  ExpansionDelta delta;

  // --- Compound classes: extend the base preamble by the auxiliary
  // class; clusters whose class list and within-cluster table rows are
  // unchanged keep their base compounds wholesale, the rest are
  // re-enumerated with the extended tables.
  const ExpansionPreamble ext =
      ExtendExpansionPreamble(analysis.preamble, ext_schema, options);
  const PairTables& base_tables = analysis.preamble.tables;
  const ClusterPartition& base_partition = analysis.preamble.partition;

  // Base compounds the re-enumerated clusters must re-emit (all compounds
  // of every base cluster they cover) vs. those actually seen. Set
  // equality is the base-prefix guarantee: extended set = base ∪ new.
  std::set<int> expected_base;
  std::set<int> reemitted_base;
  std::vector<CompoundClass> new_compounds;

  for (const std::vector<ClassId>& cluster : ext.partition.clusters) {
    bool reusable = false;
    if (std::find(cluster.begin(), cluster.end(), aux) == cluster.end()) {
      auto it = analysis.cluster_by_classes.find(cluster);
      if (it != analysis.cluster_by_classes.end() &&
          ClusterTablesUnchanged(cluster, base_tables, ext.tables)) {
        reusable = true;
      }
    }
    if (reusable) {
      ++delta.clusters_reused;
      continue;
    }
    ++delta.clusters_reenumerated;
    for (ClassId c : cluster) {
      if (c == aux) continue;
      for (int index :
           analysis.cluster_compounds[base_partition.cluster_of[c]]) {
        expected_base.insert(index);
      }
    }
    CAR_RETURN_IF_ERROR(EnumerateClusterSubsets(
        ext_schema, ext.tables, cluster, exec, &delta.subsets_visited,
        [&](CompoundClass compound) -> Status {
          const int base_index = base.IndexOfCompoundClass(compound);
          if (base_index >= 0) {
            reemitted_base.insert(base_index);
            return Status::Ok();
          }
          if (static_cast<size_t>(num_base_cc) + new_compounds.size() >=
              options.max_compound_classes) {
            return GovRecordTrip(exec, LimitKind::kMaxCompoundClasses,
                                 "expansion", options.max_compound_classes,
                                 options.max_compound_classes);
          }
          CAR_RETURN_IF_ERROR(GovChargeBytes(
              exec,
              sizeof(CompoundClass) +
                  compound.members().size() * sizeof(ClassId),
              "expansion"));
          if (exec != nullptr) exec->CountCompounds(1);
          new_compounds.push_back(std::move(compound));
          return Status::Ok();
        }));
  }
  if (expected_base != reemitted_base) {
    // The auxiliary class changed the preselection outcome for base
    // classes (e.g. a union-free schema became non-union-free, losing
    // completed disjointness entries); the frozen base prefix would not
    // match a from-scratch build, so the caller must fall back. Answers
    // are never silently approximated.
    return FailedPrecondition(
        "expansion delta: re-enumerated clusters did not reproduce the "
        "base compound classes; from-scratch fallback required");
  }
  std::sort(new_compounds.begin(), new_compounds.end());
  delta.new_compound_classes = std::move(new_compounds);
  CAR_RETURN_IF_ERROR(PopulateDeltaExtensions(
      ext_schema, base, analysis.base_endpoints, options, &delta));
  CAR_RETURN_IF_ERROR(GovCheck(exec, "expansion"));
  return delta;
}

Status PopulateDeltaExtensions(const Schema& schema, const Expansion& base,
                               const ConstrainedEndpoints& base_endpoints,
                               const ExpansionOptions& options,
                               ExpansionDelta* deltap) {
  ExecContext* exec = options.exec;
  ExpansionDelta& delta = *deltap;
  const int num_base_cc = static_cast<int>(base.compound_classes.size());
  const int num_new_cc = static_cast<int>(delta.new_compound_classes.size());
  const int num_total_cc = num_base_cc + num_new_cc;
  auto compound_at = [&](int global) -> const CompoundClass& {
    return global < num_base_cc
               ? base.compound_classes[global]
               : delta.new_compound_classes[global - num_base_cc];
  };
  const Schema& ext_schema = schema;

  // --- Natt/Nrel entries of the new compounds. Entries are intrinsic to
  // a compound's members (intersection of their specs), so base entries
  // are unchanged and only the new compounds contribute.
  for (int j = 0; j < num_new_cc; ++j) {
    const int global = num_base_cc + j;
    for (ClassId member : delta.new_compound_classes[j].members()) {
      const ClassDefinition& definition = ext_schema.class_definition(member);
      for (const AttributeSpec& spec : definition.attributes) {
        auto key = std::make_pair(spec.term, global);
        auto [it, inserted] = delta.new_natt.emplace(key, spec.cardinality);
        if (!inserted) {
          it->second =
              Cardinality::IntersectUnchecked(it->second, spec.cardinality);
        }
      }
      for (const ParticipationSpec& spec : definition.participations) {
        const RelationDefinition* relation =
            ext_schema.relation_definition(spec.relation);
        CAR_CHECK(relation != nullptr);
        const int role_index = relation->RoleIndex(spec.role);
        CAR_CHECK_GE(role_index, 0);
        auto key = std::make_tuple(spec.relation, role_index, global);
        auto [it, inserted] = delta.new_nrel.emplace(key, spec.cardinality);
        if (!inserted) {
          it->second =
              Cardinality::IntersectUnchecked(it->second, spec.cardinality);
        }
      }
    }
  }

  // --- New compound attributes: the extended candidate set minus the
  // base candidate set is exactly the pairs with at least one NEW
  // element — base-constrained endpoints against new partners plus
  // new-constrained endpoints against everything. Consistency is
  // intrinsic to (attribute, from, to), so base pairs keep their base
  // verdicts and need no re-filtering.
  const ConstrainedEndpoints new_endpoints =
      CollectConstrainedEndpoints(delta.new_natt, delta.new_nrel);
  const size_t num_base_ca = base.compound_attributes.size();
  std::vector<std::pair<int, int>> candidates;
  for (AttributeId a = 0; a < ext_schema.num_attributes(); ++a) {
    const size_t attribute = static_cast<size_t>(a);
    // Filtered in sorted (from, to) order without duplicates, so the new
    // compound attributes get deterministic indices.
    candidates.clear();
    for (int from : ListAt(base_endpoints.attribute_from, attribute)) {
      for (int to = num_base_cc; to < num_total_cc; ++to) {
        candidates.emplace_back(from, to);
      }
    }
    for (int from : ListAt(new_endpoints.attribute_from, attribute)) {
      for (int to = 0; to < num_total_cc; ++to) {
        candidates.emplace_back(from, to);
      }
    }
    for (int to : ListAt(base_endpoints.attribute_to, attribute)) {
      for (int from = num_base_cc; from < num_total_cc; ++from) {
        candidates.emplace_back(from, to);
      }
    }
    for (int to : ListAt(new_endpoints.attribute_to, attribute)) {
      for (int from = 0; from < num_total_cc; ++from) {
        candidates.emplace_back(from, to);
      }
    }
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    for (const auto& [from, to] : candidates) {
      CAR_RETURN_IF_ERROR(GovChargeWork(exec, 1, "expansion-filter"));
      if (!IsConsistentCompoundAttribute(ext_schema, a, compound_at(from),
                                         compound_at(to))) {
        continue;
      }
      if (num_base_ca + delta.new_compound_attributes.size() >=
          options.max_compound_attributes) {
        return GovRecordTrip(exec, LimitKind::kMaxCompoundAttributes,
                             "expansion-filter",
                             options.max_compound_attributes,
                             options.max_compound_attributes);
      }
      const int index = static_cast<int>(num_base_ca +
                                         delta.new_compound_attributes.size());
      delta.new_compound_attributes.push_back({a, from, to});
      delta.new_ca_by_from[{a, from}].push_back(index);
      delta.new_ca_by_to[{a, to}].push_back(index);
    }
  }

  // --- New compound relations: constrained-anchored component vectors
  // with at least one NEW component. Decomposition: tuples anchored at a
  // new constrained compound are all new; tuples anchored at a base
  // constrained compound are enumerated by the first position holding a
  // new compound (positions before it base-only, that position new-only,
  // positions after it unrestricted). A shared per-relation seen-set
  // dedupes across anchors like the base build.
  const size_t num_base_cr = base.compound_relations.size();
  for (RelationId r = 0; r < ext_schema.num_relations(); ++r) {
    const RelationDefinition* definition = ext_schema.relation_definition(r);
    if (definition == nullptr) continue;
    const int arity = definition->arity();

    const std::vector<std::vector<int>>& constrained_base =
        ListAt(base_endpoints.relation_role, static_cast<size_t>(r));
    const std::vector<std::vector<int>>& constrained_new =
        ListAt(new_endpoints.relation_role, static_cast<size_t>(r));
    if (constrained_base.empty() && constrained_new.empty()) continue;

    // Single-literal role-clause prefilter, split base/new. Realizing a
    // formula is intrinsic to the compound, so the base half coincides
    // with the base enumeration's `allowed` sets.
    std::vector<std::vector<int>> allowed_base(arity);
    std::vector<std::vector<int>> allowed_new(arity);
    for (int k = 0; k < arity; ++k) {
      for (int i = 0; i < num_total_cc; ++i) {
        bool ok = true;
        for (const RoleClause& clause : definition->constraints) {
          if (clause.literals.size() != 1) continue;
          const RoleLiteral& literal = clause.literals[0];
          if (definition->RoleIndex(literal.role) != k) continue;
          if (!compound_at(i).Realizes(literal.formula)) {
            ok = false;
            break;
          }
        }
        if (ok) {
          (i < num_base_cc ? allowed_base : allowed_new)[k].push_back(i);
        }
      }
    }

    std::set<std::vector<int>> seen;
    Status status = Status::Ok();
    // Fillers advance left to right, skipping the pre-placed anchor.
    // `min_new` = -1: every position ranges over base then new compounds
    // (the anchor itself is new). `min_new` >= 0: positions before it are
    // base-only, it is new-only, later positions are unrestricted —
    // partitioning the ≥1-new tuples by their first new filler position.
    std::function<void(int, int, std::vector<int>*)> fill =
        [&](int position, int min_new, std::vector<int>* components) {
          if (!status.ok()) return;
          if (position == arity) {
            status = GovChargeWork(exec, 1, "expansion-relations");
            if (!status.ok()) return;
            if (!seen.insert(*components).second) return;
            std::vector<const CompoundClass*> views;
            views.reserve(arity);
            for (int index : *components) {
              views.push_back(&compound_at(index));
            }
            if (!IsConsistentCompoundRelation(ext_schema, *definition,
                                              views)) {
              return;
            }
            if (num_base_cr + delta.new_compound_relations.size() >=
                options.max_compound_relations) {
              status = GovRecordTrip(exec, LimitKind::kMaxCompoundRelations,
                                     "expansion-relations",
                                     options.max_compound_relations,
                                     options.max_compound_relations);
              return;
            }
            const int index = static_cast<int>(
                num_base_cr + delta.new_compound_relations.size());
            for (int k = 0; k < arity; ++k) {
              delta.new_cr_by_role[{r, k, (*components)[k]}].push_back(index);
            }
            delta.new_compound_relations.push_back({r, *components});
            return;
          }
          if ((*components)[position] >= 0) {  // The anchor; already placed.
            fill(position + 1, min_new, components);
            return;
          }
          const bool use_base = min_new < 0 || position != min_new;
          const bool use_new = min_new < 0 || position >= min_new;
          if (use_base) {
            for (int candidate : allowed_base[position]) {
              (*components)[position] = candidate;
              fill(position + 1, min_new, components);
              if (!status.ok()) break;
            }
          }
          if (use_new && status.ok()) {
            for (int candidate : allowed_new[position]) {
              (*components)[position] = candidate;
              fill(position + 1, min_new, components);
              if (!status.ok()) break;
            }
          }
          (*components)[position] = -1;
        };

    for (int anchor = 0; anchor < arity && status.ok(); ++anchor) {
      for (int anchored :
           ListAt(constrained_new, static_cast<size_t>(anchor))) {
        std::vector<int> components(arity, -1);
        components[anchor] = anchored;
        fill(0, -1, &components);
        if (!status.ok()) break;
      }
      for (int anchored :
           ListAt(constrained_base, static_cast<size_t>(anchor))) {
        for (int min_new = 0; min_new < arity && status.ok(); ++min_new) {
          if (min_new == anchor) continue;
          std::vector<int> components(arity, -1);
          components[anchor] = anchored;
          fill(0, min_new, &components);
        }
      }
    }
    CAR_RETURN_IF_ERROR(status);
  }

  return GovCheck(exec, "expansion");
}

}  // namespace car
