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

}  // namespace

void PairTables::EnsureSize() {
  if (static_cast<int>(disjoint_.size()) < num_classes_) {
    disjoint_.resize(num_classes_);
    superclasses_.resize(num_classes_);
  }
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
  }
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

PairTables BuildPairTables(const Schema& schema,
                           const PairTableOptions& options) {
  PairTables tables(schema.num_classes());

  // Explicit entries from single-literal isa clauses.
  for (ClassId c = 0; c < schema.num_classes(); ++c) {
    const ClassDefinition& definition = schema.class_definition(c);
    for (const ClassClause& clause : definition.isa.clauses()) {
      if (clause.literals().size() != 1) continue;
      const ClassLiteral& literal = clause.literals()[0];
      if (literal.negated) {
        if (literal.class_id == c) {
          // C isa ¬C: C is empty in every model; record C disjoint from
          // itself so enumeration drops every compound class containing C.
          tables.MarkDisjoint(c, c);
        } else {
          tables.MarkDisjoint(c, literal.class_id);
        }
      } else if (literal.class_id != c) {
        tables.MarkIncluded(c, literal.class_id);
      }
    }
  }

  if (!options.propagate) return tables;

  // Sound propagation to a fixpoint. The rules only ever add entries, and
  // the number of pairs is bounded by num_classes^2, so this terminates.
  bool changed = true;
  while (changed) {
    changed = false;
    for (ClassId c = 0; c < schema.num_classes(); ++c) {
      // Snapshots of the rows the loops below may grow: c's own
      // superclasses, and the enemies of a self-disjoint superclass,
      // which gain c. Later passes see the additions, and the closure is
      // the same in any order.
      std::vector<ClassId> supers(tables.SuperclassesOf(c).begin(),
                                  tables.SuperclassesOf(c).end());
      for (ClassId super : supers) {
        // Transitivity of inclusion.
        for (ClassId grand : tables.SuperclassesOf(super)) {
          if (grand != c && !tables.IsIncluded(c, grand)) {
            tables.MarkIncluded(c, grand);
            changed = true;
          }
        }
        // Disjointness inherited through inclusion.
        std::vector<ClassId> enemies(tables.DisjointFrom(super).begin(),
                                     tables.DisjointFrom(super).end());
        for (ClassId enemy : enemies) {
          if (!tables.AreDisjoint(c, enemy)) {
            tables.MarkDisjoint(c, enemy);
            changed = true;
          }
        }
      }
    }
  }
  return tables;
}

}  // namespace car
