#include "expansion/expansion.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <set>

#include "analysis/clusters.h"
#include "analysis/pair_tables.h"
#include "analysis/union_free.h"
#include "base/strings.h"
#include "base/thread_pool.h"
#include "expansion/cluster_enum.h"

namespace car {

void Expansion::RebuildDerivedIndexes() {
  ca_by_from.clear();
  ca_by_to.clear();
  cr_by_role.clear();
  compound_class_index_.clear();
  for (size_t i = 0; i < compound_classes.size(); ++i) {
    compound_class_index_.emplace(compound_classes[i].members(),
                                  static_cast<int>(i));
  }
  for (size_t i = 0; i < compound_attributes.size(); ++i) {
    const CompoundAttribute& ca = compound_attributes[i];
    ca_by_from[{ca.attribute, ca.from}].push_back(static_cast<int>(i));
    ca_by_to[{ca.attribute, ca.to}].push_back(static_cast<int>(i));
  }
  for (size_t i = 0; i < compound_relations.size(); ++i) {
    const CompoundRelation& cr = compound_relations[i];
    const int arity = static_cast<int>(cr.components.size());
    for (int k = 0; k < arity; ++k) {
      cr_by_role[{cr.relation, k, cr.components[k]}].push_back(
          static_cast<int>(i));
    }
  }
}

int Expansion::IndexOfCompoundClass(const CompoundClass& compound) const {
  auto it = compound_class_index_.find(compound.members());
  return it == compound_class_index_.end() ? -1 : it->second;
}

std::vector<int> Expansion::CompoundClassesContaining(ClassId class_id) const {
  std::vector<int> indices;
  for (size_t i = 0; i < compound_classes.size(); ++i) {
    if (compound_classes[i].Contains(class_id)) {
      indices.push_back(static_cast<int>(i));
    }
  }
  return indices;
}

std::string Expansion::Summary() const {
  return StrCat("expansion: ", compound_classes.size(), " compound classes, ",
                compound_attributes.size(), " compound attributes, ",
                compound_relations.size(), " compound relations, |Natt|=",
                natt.size(), ", |Nrel|=", nrel.size(), ", subsets visited ",
                subsets_visited);
}

namespace {

/// Brings `preamble`, the preamble of the schema's first
/// preamble->propagated.num_classes() classes, up to every class of
/// `schema` (see ExtendExpansionPreamble).
void ExtendPreambleInPlace(const Schema& schema,
                           const ExpansionOptions& options,
                           ExpansionPreamble* preamble) {
  PairTableOptions table_options;
  table_options.propagate = options.propagate_tables;
  ExtendPairTables(schema, table_options, &preamble->propagated);
  if (options.union_free_completion && schema.IsUnionFree()) {
    if (!preamble->completion.has_value()) {
      // Nothing to resume (no classes yet, or the older classes were not
      // completed): run the completion from its empty state.
      preamble->completion.emplace();
      preamble->tables = preamble->propagated;
    }
    ExtendUnionFreeCompletion(schema, preamble->propagated,
                              &*preamble->completion, &preamble->tables);
  } else {
    preamble->completion.reset();
    preamble->tables = preamble->propagated;
  }
  preamble->partition = options.use_clusters
                            ? ComputeClusters(schema, preamble->tables)
                            : SingleCluster(schema);
}

/// Number of leading enumeration positions fixed per shard: enough for
/// roughly four shards per thread (stealing slack for uneven subtrees),
/// capped so small clusters are not oversplit.
int PrefixBits(size_t positions, int threads) {
  if (threads <= 1) return 0;
  int bits = 0;
  while ((1u << bits) < 4u * static_cast<unsigned>(threads) && bits < 10) {
    ++bits;
  }
  return std::min(bits, static_cast<int>(positions));
}

}  // namespace

ExpansionPreamble BuildExpansionPreamble(const Schema& schema,
                                         const ExpansionOptions& options) {
  ExpansionPreamble preamble;
  ExtendPreambleInPlace(schema, options, &preamble);
  return preamble;
}

ExpansionPreamble ExtendExpansionPreamble(const ExpansionPreamble& base,
                                          const Schema& schema,
                                          const ExpansionOptions& options) {
  // The partition is recomputed, so it is not copied.
  ExpansionPreamble preamble{base.tables, {}, base.propagated,
                             base.completion};
  ExtendPreambleInPlace(schema, options, &preamble);
  return preamble;
}

/// Assembles an Expansion: enumerates consistent compound classes (with
/// the selected strategy), then derives Natt/Nrel and the constrained
/// compound attributes and relations.
///
/// Enumeration is sharded: by connectivity cluster under the pruned
/// strategy, and additionally by literal-prefix (the include/exclude
/// decisions for the first few classes of a cluster, or the low bits of
/// the subset mask for the exhaustive strategy). Shards are independent,
/// run on the shared pool, and their outputs are merged in shard order
/// and canonically sorted — so the resulting Expansion is bit-identical
/// for every thread count, with num_threads = 1 as the serial reference.
class ExpansionBuilder {
 public:
  ExpansionBuilder(const Schema& schema, const ExpansionOptions& options,
                   size_t compound_bound = SIZE_MAX)
      : schema_(schema),
        options_(options),
        exec_(options.exec),
        compound_bound_(compound_bound) {
    parallel_.num_threads = options.num_threads;
    parallel_.cancel = options.exec;
  }

  /// True once the enumeration emitted more than `compound_bound`
  /// non-empty compound classes; Build() then failed without a trip.
  bool bound_exceeded() const { return bound_exceeded_; }

  /// The preamble the pruned enumeration ran with (moved out).
  ExpansionPreamble TakePreamble() { return std::move(preamble_); }

  Result<Expansion> Build() {
    expansion_.schema = &schema_;
    CAR_RETURN_IF_ERROR(GovCheck(exec_, "expansion"));
    // The empty compound class is always present (index 0): objects that
    // are instances of no class. It is trivially consistent and can serve
    // as an attribute target/source or a relation component.
    expansion_.compound_classes.push_back(CompoundClass());

    CAR_RETURN_IF_ERROR(EnumerateCompoundClasses());
    BuildNatt();
    BuildNrel();
    CAR_RETURN_IF_ERROR(BuildCompoundAttributes());
    CAR_RETURN_IF_ERROR(BuildCompoundRelations());
    CAR_RETURN_IF_ERROR(GovCheck(exec_, "expansion"));
    return std::move(expansion_);
  }

  /// Same post-enumeration assembly, but over a caller-provided compound
  /// set (already canonically sorted, non-empty compounds only). The
  /// derivation stages are shared with Build(), so the artifact is
  /// exactly what Build() would produce had its enumeration emitted this
  /// set.
  Result<Expansion> BuildFrom(std::vector<CompoundClass> compounds) {
    expansion_.schema = &schema_;
    CAR_RETURN_IF_ERROR(GovCheck(exec_, "expansion"));
    expansion_.compound_classes.push_back(CompoundClass());
    expansion_.compound_classes.reserve(compounds.size() + 1);
    for (CompoundClass& compound : compounds) {
      CAR_RETURN_IF_ERROR(GovChargeBytes(
          exec_,
          sizeof(CompoundClass) + compound.members().size() * sizeof(ClassId),
          "expansion"));
      expansion_.compound_classes.push_back(std::move(compound));
    }
    for (size_t i = 0; i < expansion_.compound_classes.size(); ++i) {
      expansion_.compound_class_index_.emplace(
          expansion_.compound_classes[i].members(), static_cast<int>(i));
    }
    BuildNatt();
    BuildNrel();
    CAR_RETURN_IF_ERROR(BuildCompoundAttributes());
    CAR_RETURN_IF_ERROR(BuildCompoundRelations());
    CAR_RETURN_IF_ERROR(GovCheck(exec_, "expansion"));
    return std::move(expansion_);
  }

 private:
  /// Output of one enumeration shard. Shards never touch the shared
  /// expansion; everything is merged afterwards.
  struct ShardOutput {
    std::vector<CompoundClass> compounds;
    size_t subsets_visited = 0;
    Status status;
  };

  /// One pruned-DFS shard: a cluster plus fixed include/exclude decisions
  /// for its first `prefix_bits` classes (bit j set = include position j).
  struct PrunedShard {
    const std::vector<ClassId>* cluster = nullptr;
    uint64_t prefix = 0;
    int prefix_bits = 0;
  };

  Status EnumerateCompoundClasses() {
    if (options_.strategy == ExpansionStrategy::kExhaustive) {
      return EnumerateExhaustive();
    }
    preamble_ = BuildExpansionPreamble(schema_, options_);
    const PairTables& tables = preamble_.tables;
    const ClusterPartition& partition = preamble_.partition;

    const int threads = EffectiveThreads(options_.num_threads);
    std::vector<PrunedShard> shards;
    for (const std::vector<ClassId>& cluster : partition.clusters) {
      const int bits = PrefixBits(cluster.size(), threads);
      for (uint64_t prefix = 0; prefix < (1ull << bits); ++prefix) {
        shards.push_back({&cluster, prefix, bits});
      }
    }

    std::vector<ShardOutput> outputs(shards.size());
    ParallelFor(shards.size(), parallel_,
                [this, &shards, &tables, &outputs](size_t begin, size_t end) {
                  for (size_t s = begin; s < end && !bound_exceeded_; ++s) {
                    RunPrunedShard(shards[s], tables, &outputs[s]);
                  }
                });
    return MergeShards(std::move(outputs));
  }

  Status EnumerateExhaustive() {
    const int n = schema_.num_classes();
    if (n > 30) {
      return GovRecordTrip(exec_, LimitKind::kMaxCandidates, "expansion",
                           30, static_cast<uint64_t>(n));
    }
    const int threads = EffectiveThreads(options_.num_threads);
    const int prefix_bits = PrefixBits(n, threads);
    const size_t num_shards = 1ull << prefix_bits;

    std::vector<ShardOutput> outputs(num_shards);
    ParallelFor(num_shards, parallel_,
                [this, prefix_bits, &outputs](size_t begin, size_t end) {
                  for (size_t s = begin; s < end && !bound_exceeded_; ++s) {
                    RunExhaustiveShard(s, prefix_bits, &outputs[s]);
                  }
                });
    return MergeShards(std::move(outputs));
  }

  /// Enumerates the subset masks whose low `prefix_bits` bits equal
  /// `prefix` (every mask belongs to exactly one shard).
  void RunExhaustiveShard(uint64_t prefix, int prefix_bits,
                          ShardOutput* out) {
    const int n = schema_.num_classes();
    for (uint64_t high = 0; high < (1ull << (n - prefix_bits)); ++high) {
      const uint64_t mask = (high << prefix_bits) | prefix;
      if (mask == 0) continue;  // The empty compound is preadded.
      out->status = GovChargeWork(exec_, 1, "expansion");
      if (!out->status.ok()) return;
      ++out->subsets_visited;
      std::vector<ClassId> members;
      for (int c = 0; c < n; ++c) {
        if (mask & (1ull << c)) members.push_back(c);
      }
      CompoundClass compound(std::move(members));
      if (compound.IsConsistent(schema_)) {
        if (!EmitCompound(std::move(compound), out)) return;
      }
    }
  }

  /// Replays the shard's fixed prefix decisions through the same pruning
  /// checks as the DFS (a prefix that the serial DFS would prune yields
  /// an empty shard), then enumerates the remaining positions.
  void RunPrunedShard(const PrunedShard& shard, const PairTables& tables,
                      ShardOutput* out) {
    std::vector<ClassId> included;
    std::vector<bool> excluded(schema_.num_classes(), false);
    for (int j = 0; j < shard.prefix_bits; ++j) {
      const ClassId c = (*shard.cluster)[j];
      if ((shard.prefix >> j) & 1) {
        if (!CanInclude(tables, included, excluded, c)) return;
        included.push_back(c);
      } else {
        if (!CanExclude(tables, included, c)) return;
        excluded[c] = true;
      }
    }
    DfsShard(*shard.cluster, shard.prefix_bits, tables, &included, &excluded,
             out);
  }

  /// Pruning predicates, shared with the incremental delta path (see
  /// expansion/cluster_enum.h) so both enumerations stay in lockstep.
  bool CanInclude(const PairTables& tables,
                  const std::vector<ClassId>& included,
                  const std::vector<bool>& excluded, ClassId c) const {
    return CanIncludeClass(tables, included, excluded, c);
  }

  bool CanExclude(const PairTables& tables,
                  const std::vector<ClassId>& included, ClassId c) const {
    return CanExcludeClass(tables, included, c);
  }

  /// Depth-first enumeration of the subsets of one cluster, pruned with
  /// the disjointness and inclusion tables. `included` holds the chosen
  /// classes; `excluded` marks classes decided out (classes of other
  /// clusters are implicitly out and never consulted, because inclusion
  /// and disjointness edges never cross clusters).
  void DfsShard(const std::vector<ClassId>& cluster, size_t pos,
                const PairTables& tables, std::vector<ClassId>* included,
                std::vector<bool>* excluded, ShardOutput* out) {
    if (!out->status.ok()) return;
    // Cooperative stop: another shard (or an external canceller) tripped
    // the context; this shard's partial output will be discarded.
    if (GovCancelled(exec_)) return;
    if (pos == cluster.size()) {
      out->status = GovChargeWork(exec_, 1, "expansion");
      if (!out->status.ok()) return;
      ++out->subsets_visited;
      if (included->empty()) return;  // The empty compound is preadded.
      CompoundClass compound(*included);
      if (compound.IsConsistent(schema_)) {
        EmitCompound(std::move(compound), out);
      }
      return;
    }
    const ClassId c = cluster[pos];
    if (CanInclude(tables, *included, *excluded, c)) {
      included->push_back(c);
      DfsShard(cluster, pos + 1, tables, included, excluded, out);
      included->pop_back();
    }
    if (CanExclude(tables, *included, c)) {
      (*excluded)[c] = true;
      DfsShard(cluster, pos + 1, tables, included, excluded, out);
      (*excluded)[c] = false;
    }
  }

  /// Appends to the shard, honoring the per-shard cap (a single shard at
  /// the cap already implies the merged total exceeds it). Returns false
  /// once the shard is dead.
  bool EmitCompound(CompoundClass compound, ShardOutput* out) {
    // The caller's bound is an answer, not a limit: stop without
    // recording a trip. Counted across shards, which is only meaningful
    // for the serial enumeration BuildExpansionWithinBound runs.
    if (compound_bound_ != SIZE_MAX && emitted_++ >= compound_bound_) {
      bound_exceeded_ = true;
      out->status = FailedPrecondition("compound bound exceeded");
      return false;
    }
    if (out->compounds.size() >= options_.max_compound_classes) {
      out->status = GovRecordTrip(exec_, LimitKind::kMaxCompoundClasses,
                                  "expansion", options_.max_compound_classes,
                                  options_.max_compound_classes);
      return false;
    }
    out->status = GovChargeBytes(
        exec_,
        sizeof(CompoundClass) + compound.members().size() * sizeof(ClassId),
        "expansion");
    if (!out->status.ok()) return false;
    if (exec_ != nullptr) exec_->CountCompounds(1);
    out->compounds.push_back(std::move(compound));
    return true;
  }

  /// Merges shard outputs in shard order, re-checks the global cap, and
  /// canonically sorts the compound classes (the empty compound stays at
  /// index 0 — it is lexicographically least). The sort makes compound
  /// ids independent of sharding, thread count and enumeration order.
  Status MergeShards(std::vector<ShardOutput> outputs) {
    size_t total = expansion_.compound_classes.size();
    for (ShardOutput& out : outputs) {
      CAR_RETURN_IF_ERROR(out.status);
      expansion_.subsets_visited += out.subsets_visited;
      total += out.compounds.size();
    }
    // A trip recorded by a shard that kept its own status ok (external
    // cancellation, deadline observed elsewhere) still fails the merge.
    CAR_RETURN_IF_ERROR(GovCheck(exec_, "expansion"));
    if (total > options_.max_compound_classes) {
      return GovRecordTrip(exec_, LimitKind::kMaxCompoundClasses,
                           "expansion", options_.max_compound_classes,
                           options_.max_compound_classes);
    }
    expansion_.compound_classes.reserve(total);
    for (ShardOutput& out : outputs) {
      for (CompoundClass& compound : out.compounds) {
        expansion_.compound_classes.push_back(std::move(compound));
      }
    }
    std::sort(expansion_.compound_classes.begin(),
              expansion_.compound_classes.end());
    for (size_t i = 0; i < expansion_.compound_classes.size(); ++i) {
      expansion_.compound_class_index_.emplace(
          expansion_.compound_classes[i].members(), static_cast<int>(i));
    }
    return Status::Ok();
  }

  void BuildNatt() {
    for (size_t i = 0; i < expansion_.compound_classes.size(); ++i) {
      const CompoundClass& compound = expansion_.compound_classes[i];
      for (ClassId member : compound.members()) {
        for (const AttributeSpec& spec :
             schema_.class_definition(member).attributes) {
          auto key = std::make_pair(spec.term, static_cast<int>(i));
          auto [it, inserted] =
              expansion_.natt.emplace(key, spec.cardinality);
          if (!inserted) {
            it->second = Cardinality::IntersectUnchecked(it->second,
                                                         spec.cardinality);
          }
        }
      }
    }
  }

  void BuildNrel() {
    for (size_t i = 0; i < expansion_.compound_classes.size(); ++i) {
      const CompoundClass& compound = expansion_.compound_classes[i];
      for (ClassId member : compound.members()) {
        for (const ParticipationSpec& spec :
             schema_.class_definition(member).participations) {
          const RelationDefinition* relation =
              schema_.relation_definition(spec.relation);
          CAR_CHECK(relation != nullptr);
          int role_index = relation->RoleIndex(spec.role);
          CAR_CHECK_GE(role_index, 0);
          auto key = std::make_tuple(spec.relation, role_index,
                                     static_cast<int>(i));
          auto [it, inserted] =
              expansion_.nrel.emplace(key, spec.cardinality);
          if (!inserted) {
            it->second = Cardinality::IntersectUnchecked(it->second,
                                                         spec.cardinality);
          }
        }
      }
    }
  }

  Status BuildCompoundAttributes() {
    CAR_RETURN_IF_ERROR(GovCheck(exec_, "expansion-filter"));
    // Candidate endpoints that carry a Natt entry, per attribute.
    std::vector<std::set<int>> constrained_from(schema_.num_attributes());
    std::vector<std::set<int>> constrained_to(schema_.num_attributes());
    for (const auto& [key, cardinality] : expansion_.natt) {
      (void)cardinality;
      const auto& [term, compound_index] = key;
      if (term.inverse) {
        constrained_to[term.attribute].insert(compound_index);
      } else {
        constrained_from[term.attribute].insert(compound_index);
      }
    }

    const int num_compound = static_cast<int>(
        expansion_.compound_classes.size());
    for (AttributeId a = 0; a < schema_.num_attributes(); ++a) {
      std::set<std::pair<int, int>> candidate_set;
      for (int from : constrained_from[a]) {
        for (int to = 0; to < num_compound; ++to) {
          candidate_set.emplace(from, to);
        }
      }
      for (int to : constrained_to[a]) {
        for (int from = 0; from < num_compound; ++from) {
          candidate_set.emplace(from, to);
        }
      }
      // Consistency filtering is independent per candidate: filter in
      // parallel, then append the survivors in candidate order (so index
      // assignment matches the serial sweep exactly).
      std::vector<std::pair<int, int>> candidates(candidate_set.begin(),
                                                  candidate_set.end());
      std::vector<char> keep(candidates.size(), 0);
      ParallelForOptions filter_options = parallel_;
      filter_options.min_chunk = 64;
      ParallelFor(candidates.size(), filter_options,
                  [this, a, &candidates, &keep](size_t begin, size_t end) {
                    for (size_t i = begin; i < end; ++i) {
                      // One work unit per filtered candidate; a tripped
                      // context aborts the chunk (its outputs are
                      // discarded with the whole build).
                      if (!GovChargeWork(exec_, 1, "expansion-filter")
                               .ok()) {
                        return;
                      }
                      keep[i] = IsConsistentCompoundAttribute(
                                    schema_, a,
                                    expansion_
                                        .compound_classes[candidates[i].first],
                                    expansion_
                                        .compound_classes[candidates[i].second])
                                    ? 1
                                    : 0;
                    }
                  });
      CAR_RETURN_IF_ERROR(GovCheck(exec_, "expansion-filter"));
      for (size_t i = 0; i < candidates.size(); ++i) {
        if (!keep[i]) continue;
        if (expansion_.compound_attributes.size() >=
            options_.max_compound_attributes) {
          return GovRecordTrip(exec_, LimitKind::kMaxCompoundAttributes,
                               "expansion-filter",
                               options_.max_compound_attributes,
                               options_.max_compound_attributes);
        }
        const auto& [from, to] = candidates[i];
        int index = static_cast<int>(expansion_.compound_attributes.size());
        expansion_.compound_attributes.push_back({a, from, to});
        expansion_.ca_by_from[{a, from}].push_back(index);
        expansion_.ca_by_to[{a, to}].push_back(index);
      }
    }
    return Status::Ok();
  }

  /// Per-relation output of the compound-relation enumeration; merged in
  /// relation-id order so indices match the serial sweep.
  struct RelationOutput {
    std::vector<CompoundRelation> relations;
    Status status;
  };

  Status BuildCompoundRelations() {
    CAR_RETURN_IF_ERROR(GovCheck(exec_, "expansion-relations"));
    const size_t num_relations =
        static_cast<size_t>(schema_.num_relations());
    std::vector<RelationOutput> outputs(num_relations);
    // Relations are independent of each other: enumerate them in
    // parallel, one task per relation.
    ParallelFor(num_relations, parallel_,
                [this, &outputs](size_t begin, size_t end) {
                  for (size_t r = begin; r < end; ++r) {
                    EnumerateRelation(static_cast<RelationId>(r),
                                      &outputs[r]);
                  }
                });
    for (size_t r = 0; r < num_relations; ++r) {
      CAR_RETURN_IF_ERROR(outputs[r].status);
      for (CompoundRelation& cr : outputs[r].relations) {
        if (expansion_.compound_relations.size() >=
            options_.max_compound_relations) {
          return GovRecordTrip(exec_, LimitKind::kMaxCompoundRelations,
                               "expansion-relations",
                               options_.max_compound_relations,
                               options_.max_compound_relations);
        }
        const int arity = static_cast<int>(cr.components.size());
        int index = static_cast<int>(expansion_.compound_relations.size());
        for (int k = 0; k < arity; ++k) {
          expansion_.cr_by_role[{cr.relation, k, cr.components[k]}]
              .push_back(index);
        }
        expansion_.compound_relations.push_back(std::move(cr));
      }
    }
    return Status::Ok();
  }

  void EnumerateRelation(RelationId r, RelationOutput* out) {
    const RelationDefinition* definition = schema_.relation_definition(r);
    if (definition == nullptr) return;
    const int arity = definition->arity();
    const int num_compound = static_cast<int>(
        expansion_.compound_classes.size());

    // Positions carrying Nrel entries; if none, tuples of R are never
    // constrained and no unknowns are needed.
    std::vector<std::set<int>> constrained(arity);
    bool any_constraint = false;
    for (const auto& [key, cardinality] : expansion_.nrel) {
      (void)cardinality;
      if (std::get<0>(key) != r) continue;
      constrained[std::get<1>(key)].insert(std::get<2>(key));
      any_constraint = true;
    }
    if (!any_constraint) return;

    // Per-position prefilter: single-literal role-clauses restrict the
    // compound class at their role unconditionally.
    std::vector<std::vector<int>> allowed(arity);
    for (int k = 0; k < arity; ++k) {
      for (int i = 0; i < num_compound; ++i) {
        bool ok = true;
        for (const RoleClause& clause : definition->constraints) {
          if (clause.literals.size() != 1) continue;
          const RoleLiteral& literal = clause.literals[0];
          if (definition->RoleIndex(literal.role) != k) continue;
          if (!expansion_.compound_classes[i].Realizes(literal.formula)) {
            ok = false;
            break;
          }
        }
        if (ok) allowed[k].push_back(i);
      }
    }

    // Enumerate component vectors where at least one position holds a
    // constrained compound class; other positions range over their
    // allowed sets. Duplicates across anchor positions are deduped.
    std::set<std::vector<int>> seen;
    for (int anchor = 0; anchor < arity; ++anchor) {
      for (int anchored : constrained[anchor]) {
        std::vector<int> components(arity, -1);
        components[anchor] = anchored;
        EnumerateRelationComponents(*definition, r, allowed, anchor, 0,
                                    &components, &seen, out);
        if (!out->status.ok()) return;
      }
    }
  }

  void EnumerateRelationComponents(const RelationDefinition& definition,
                                   RelationId r,
                                   const std::vector<std::vector<int>>&
                                       allowed,
                                   int anchor, int position,
                                   std::vector<int>* components,
                                   std::set<std::vector<int>>* seen,
                                   RelationOutput* out) {
    if (!out->status.ok()) return;
    const int arity = definition.arity();
    if (position == arity) {
      out->status = GovChargeWork(exec_, 1, "expansion-relations");
      if (!out->status.ok()) return;
      if (!seen->insert(*components).second) return;
      std::vector<const CompoundClass*> views;
      views.reserve(arity);
      for (int index : *components) {
        views.push_back(&expansion_.compound_classes[index]);
      }
      if (!IsConsistentCompoundRelation(schema_, definition, views)) {
        return;
      }
      if (out->relations.size() >= options_.max_compound_relations) {
        out->status = GovRecordTrip(exec_, LimitKind::kMaxCompoundRelations,
                                    "expansion-relations",
                                    options_.max_compound_relations,
                                    options_.max_compound_relations);
        return;
      }
      out->relations.push_back({r, *components});
      return;
    }
    if (position == anchor) {
      EnumerateRelationComponents(definition, r, allowed, anchor,
                                  position + 1, components, seen, out);
      return;
    }
    for (int candidate : allowed[position]) {
      (*components)[position] = candidate;
      EnumerateRelationComponents(definition, r, allowed, anchor,
                                  position + 1, components, seen, out);
      if (!out->status.ok()) return;
    }
    (*components)[position] = -1;
  }

  const Schema& schema_;
  const ExpansionOptions& options_;
  ExecContext* exec_;
  ParallelForOptions parallel_;
  Expansion expansion_;
  ExpansionPreamble preamble_;
  const size_t compound_bound_;
  size_t emitted_ = 0;
  bool bound_exceeded_ = false;
};

Result<Expansion> BuildExpansion(const Schema& schema,
                                 const ExpansionOptions& options,
                                 ExpansionPreamble* preamble) {
  CAR_RETURN_IF_ERROR(schema.Validate());
  ExpansionBuilder builder(schema, options);
  CAR_ASSIGN_OR_RETURN(Expansion expansion, builder.Build());
  if (preamble != nullptr && options.strategy == ExpansionStrategy::kPruned) {
    *preamble = builder.TakePreamble();
  }
  return expansion;
}

Result<std::optional<Expansion>> BuildExpansionWithinBound(
    const Schema& schema, const ExpansionOptions& options,
    size_t max_compounds, ExpansionPreamble* preamble) {
  CAR_RETURN_IF_ERROR(schema.Validate());
  ExpansionOptions serial = options;
  serial.num_threads = 1;
  ExpansionBuilder builder(schema, serial, max_compounds);
  Result<Expansion> expansion = builder.Build();
  if (builder.bound_exceeded()) return std::optional<Expansion>();
  CAR_RETURN_IF_ERROR(expansion.status());
  if (preamble != nullptr && options.strategy == ExpansionStrategy::kPruned) {
    *preamble = builder.TakePreamble();
  }
  return std::optional<Expansion>(std::move(expansion).value());
}

Result<Expansion> AssembleExpansion(const Schema& schema,
                                    std::vector<CompoundClass> compounds,
                                    const ExpansionOptions& options) {
  CAR_RETURN_IF_ERROR(schema.Validate());
  return ExpansionBuilder(schema, options).BuildFrom(std::move(compounds));
}

}  // namespace car
