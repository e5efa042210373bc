#ifndef CAR_ANALYSIS_PAIR_TABLES_H_
#define CAR_ANALYSIS_PAIR_TABLES_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "model/schema.h"

namespace car {

/// The two preselection data structures of Section 4.3: a disjointness
/// table (pairs of classes with no common instance in any model) and an
/// inclusion table (pairs where the first class is included in the second
/// in every model).
///
/// Entries are *sound* consequences of the schema (criterion (a) of the
/// paper). The tables are deliberately incomplete — computing all such
/// pairs is NP-complete for unrestricted isa formulae — and are used to
/// prune the enumeration of compound classes; the per-leaf consistency
/// check remains the source of truth.
class PairTables {
 public:
  explicit PairTables(int num_classes) : num_classes_(num_classes) {}

  void MarkDisjoint(ClassId a, ClassId b);
  void MarkIncluded(ClassId subclass, ClassId superclass);
  /// Removes a disjointness entry (no-op when absent). Only the
  /// union-free completion retracts entries: an assumption it made for a
  /// pair that a newly appended class now forces together.
  void UnmarkDisjoint(ClassId a, ClassId b);

  /// Widens the tables to `num_classes` classes (at least the current
  /// count); the appended ids start with empty rows.
  void Grow(int num_classes);

  bool AreDisjoint(ClassId a, ClassId b) const;
  bool IsIncluded(ClassId subclass, ClassId superclass) const;

  /// All superclasses recorded for `subclass` (not reflexive), ascending.
  const std::vector<ClassId>& SuperclassesOf(ClassId subclass) const;
  /// All classes recorded disjoint from `class_id`, ascending.
  const std::vector<ClassId>& DisjointFrom(ClassId class_id) const;
  /// All subclasses recorded for `superclass` (the inverse of
  /// SuperclassesOf), ascending.
  const std::vector<ClassId>& SubclassesOf(ClassId superclass) const;

  size_t num_disjoint_pairs() const { return num_disjoint_pairs_; }
  size_t num_inclusion_pairs() const { return num_inclusion_pairs_; }
  int num_classes() const { return num_classes_; }

 private:
  void EnsureSize();

  int num_classes_;
  size_t num_disjoint_pairs_ = 0;
  size_t num_inclusion_pairs_ = 0;
  // Sorted adjacency rows: one allocation per class rather than one per
  // entry, which union-free completion makes quadratic.
  std::vector<std::vector<ClassId>> disjoint_;    // Symmetric adjacency.
  std::vector<std::vector<ClassId>> superclasses_;  // subclass -> supers.
  std::vector<std::vector<ClassId>> subclasses_;    // super -> subclasses.
};

struct PairTableOptions {
  /// Apply the sound propagation rules (inclusion transitivity;
  /// disjointness inherited through inclusion) to a fixpoint. This is the
  /// "more sophisticated method" of criterion (a); it stays polynomial.
  bool propagate = true;
};

/// Criterion (a): fills the tables from the isa parts of class
/// definitions. A clause consisting of the single literal C2 in the isa
/// of C1 yields inclusion C1 ⊆ C2; a single-literal clause ¬C2 yields
/// disjointness {C1, C2}. With propagation enabled, the tables are closed
/// under:
///   C1 ⊆ C2, C2 ⊆ C3            =>  C1 ⊆ C3
///   C1 ⊆ C2, disjoint(C2, C3)   =>  disjoint(C1, C3)
///
/// The closure is computed by ExtendPairTables from the empty tables.
PairTables BuildPairTables(const Schema& schema,
                           const PairTableOptions& options = {});

/// Extends `tables`, the tables of the schema's first
/// tables->num_classes() classes, to every class of `schema`: adds the
/// explicit entries of the appended classes and resumes the propagation
/// from them. The rules only ever add entries, so the result is exactly
/// BuildPairTables(schema, options) provided no class below the old count
/// mentions a later one and the older definitions are unchanged (the
/// auxiliary class of an implication probe is such an appended leaf).
/// Propagation is semi-naive: only the new entries are joined with the
/// tables, so extending by a leaf costs what the leaf adds; with no old
/// classes it is a from-scratch build.
void ExtendPairTables(const Schema& schema, const PairTableOptions& options,
                      PairTables* tables);

}  // namespace car

#endif  // CAR_ANALYSIS_PAIR_TABLES_H_
