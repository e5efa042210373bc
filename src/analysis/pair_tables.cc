#include "analysis/pair_tables.h"

#include <algorithm>

#include "base/check.h"

namespace car {

namespace {

/// Inserts `value` into the sorted row; false if it was already there.
bool InsertSorted(std::vector<ClassId>* row, ClassId value) {
  auto it = std::lower_bound(row->begin(), row->end(), value);
  if (it != row->end() && *it == value) return false;
  row->insert(it, value);
  return true;
}

bool ContainsSorted(const std::vector<ClassId>& row, ClassId value) {
  return std::binary_search(row.begin(), row.end(), value);
}

/// Calls `f` on each entry of a table row, walking by index: `f` may
/// insert into the row itself (the enemies of a self-disjoint class gain
/// its subclasses), and an insertion only shifts entries, so none is
/// skipped. Once the tables hold an entry their rows are allocated, so
/// the row object outlives the walk.
template <typename F>
void ForEachLive(const std::vector<ClassId>& row, F&& f) {
  for (size_t i = 0; i < row.size(); ++i) f(row[i]);
}

/// Removes `value` from the sorted row; false if it was not there.
bool EraseSorted(std::vector<ClassId>* row, ClassId value) {
  auto it = std::lower_bound(row->begin(), row->end(), value);
  if (it == row->end() || *it != value) return false;
  row->erase(it);
  return true;
}

}  // namespace

void PairTables::EnsureSize() {
  if (static_cast<int>(disjoint_.size()) < num_classes_) {
    disjoint_.resize(num_classes_);
    superclasses_.resize(num_classes_);
    subclasses_.resize(num_classes_);
  }
}

void PairTables::Grow(int num_classes) {
  CAR_CHECK_GE(num_classes, num_classes_);
  num_classes_ = num_classes;
  if (!disjoint_.empty()) EnsureSize();
}

void PairTables::MarkDisjoint(ClassId a, ClassId b) {
  CAR_CHECK_GE(a, 0);
  CAR_CHECK_LT(a, num_classes_);
  CAR_CHECK_GE(b, 0);
  CAR_CHECK_LT(b, num_classes_);
  EnsureSize();
  if (InsertSorted(&disjoint_[a], b)) ++num_disjoint_pairs_;
  InsertSorted(&disjoint_[b], a);
}

void PairTables::MarkIncluded(ClassId subclass, ClassId superclass) {
  CAR_CHECK_GE(subclass, 0);
  CAR_CHECK_LT(subclass, num_classes_);
  CAR_CHECK_GE(superclass, 0);
  CAR_CHECK_LT(superclass, num_classes_);
  if (subclass == superclass) return;  // Reflexive inclusions are trivial.
  EnsureSize();
  if (InsertSorted(&superclasses_[subclass], superclass)) {
    ++num_inclusion_pairs_;
    InsertSorted(&subclasses_[superclass], subclass);
  }
}

void PairTables::UnmarkDisjoint(ClassId a, ClassId b) {
  if (disjoint_.empty()) return;
  if (EraseSorted(&disjoint_[a], b)) --num_disjoint_pairs_;
  EraseSorted(&disjoint_[b], a);
}

bool PairTables::AreDisjoint(ClassId a, ClassId b) const {
  if (disjoint_.empty()) return false;
  return ContainsSorted(disjoint_[a], b);
}

bool PairTables::IsIncluded(ClassId subclass, ClassId superclass) const {
  if (superclasses_.empty()) return false;
  return ContainsSorted(superclasses_[subclass], superclass);
}

const std::vector<ClassId>& PairTables::SuperclassesOf(
    ClassId subclass) const {
  static const std::vector<ClassId>* empty = new std::vector<ClassId>();
  if (superclasses_.empty()) return *empty;
  CAR_CHECK_GE(subclass, 0);
  CAR_CHECK_LT(subclass, num_classes_);
  return superclasses_[subclass];
}

const std::vector<ClassId>& PairTables::DisjointFrom(
    ClassId class_id) const {
  static const std::vector<ClassId>* empty = new std::vector<ClassId>();
  if (disjoint_.empty()) return *empty;
  CAR_CHECK_GE(class_id, 0);
  CAR_CHECK_LT(class_id, num_classes_);
  return disjoint_[class_id];
}

const std::vector<ClassId>& PairTables::SubclassesOf(
    ClassId superclass) const {
  static const std::vector<ClassId>* empty = new std::vector<ClassId>();
  if (subclasses_.empty()) return *empty;
  CAR_CHECK_GE(superclass, 0);
  CAR_CHECK_LT(superclass, num_classes_);
  return subclasses_[superclass];
}

PairTables BuildPairTables(const Schema& schema,
                           const PairTableOptions& options) {
  PairTables tables(0);
  ExtendPairTables(schema, options, &tables);
  return tables;
}

void ExtendPairTables(const Schema& schema, const PairTableOptions& options,
                      PairTables* tables) {
  const ClassId first_new = tables->num_classes();
  const int n = schema.num_classes();
  tables->Grow(n);

  // Entries not yet joined with the rest of the tables (semi-naive
  // evaluation): each one is joined once, in every premise position, with
  // everything recorded by then, and later entries are joined with it in
  // turn, so every derivation is found exactly when its last premise is.
  struct Entry {
    bool disjoint;
    ClassId a;
    ClassId b;
  };
  std::vector<Entry> pending;
  auto include = [tables, &pending](ClassId subclass, ClassId superclass) {
    // Reflexive inclusions are trivial.
    if (subclass == superclass || tables->IsIncluded(subclass, superclass)) {
      return;
    }
    tables->MarkIncluded(subclass, superclass);
    pending.push_back({false, subclass, superclass});
  };
  auto disjoin = [tables, &pending](ClassId a, ClassId b) {
    if (tables->AreDisjoint(a, b)) return;
    tables->MarkDisjoint(a, b);
    pending.push_back({true, a, b});
  };

  // Explicit entries from single-literal isa clauses.
  for (ClassId c = first_new; c < n; ++c) {
    const ClassDefinition& definition = schema.class_definition(c);
    for (const ClassClause& clause : definition.isa.clauses()) {
      if (clause.literals().size() != 1) continue;
      const ClassLiteral& literal = clause.literals()[0];
      if (literal.negated) {
        // C isa ¬D records {C, D}. C isa ¬C: C is empty in every model;
        // record C disjoint from itself so enumeration drops every
        // compound class containing C.
        disjoin(c, literal.class_id);
      } else {
        include(c, literal.class_id);
      }
    }
  }

  if (!options.propagate) return;

  // Sound propagation to a fixpoint. The rules only ever add entries, and
  // the number of pairs is bounded by num_classes^2, so this terminates.
  while (!pending.empty()) {
    const Entry entry = pending.back();
    pending.pop_back();
    const ClassId a = entry.a;
    const ClassId b = entry.b;
    if (entry.disjoint) {
      // Disjointness inherited through inclusion, from either side.
      ForEachLive(tables->SubclassesOf(a),
                  [&](ClassId sub) { disjoin(sub, b); });
      ForEachLive(tables->SubclassesOf(b),
                  [&](ClassId sub) { disjoin(sub, a); });
    } else {
      // a ⊆ b: transitivity on both sides, and b's enemies become a's.
      ForEachLive(tables->SuperclassesOf(b),
                  [&](ClassId super) { include(a, super); });
      ForEachLive(tables->SubclassesOf(a),
                  [&](ClassId sub) { include(sub, b); });
      ForEachLive(tables->DisjointFrom(b),
                  [&](ClassId enemy) { disjoin(a, enemy); });
    }
  }
}

}  // namespace car
