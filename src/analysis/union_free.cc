#include "analysis/union_free.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "base/check.h"

namespace car {

namespace {

int FillerSlot(const AttributeTerm& term) {
  return 2 * term.attribute + (term.inverse ? 1 : 0);
}

/// Inserts `value` into the sorted list; false if it was already there.
bool InsertSorted(std::vector<int>* list, int value) {
  auto it = std::lower_bound(list->begin(), list->end(), value);
  if (it != list->end() && *it == value) return false;
  list->insert(it, value);
  return true;
}

/// One run of the completion's fixpoint over `contexts`: a worklist of
/// the contexts whose members grew (rules 1-3 read only a context's own
/// members) and of the filler slots whose filler or trigger set grew
/// (rule 4 reads exactly those).
class Fixpoint {
 public:
  Fixpoint(const Schema& schema, UnionFreeContexts* contexts)
      : schema_(schema), contexts_(*contexts) {}

  /// Appends the contexts of the schema's classes (and attributes and
  /// relations) the state has not absorbed yet, then runs the fixpoint
  /// to completion.
  void AbsorbNewClasses() {
    UnionFreeContexts& contexts = contexts_;
    const int num_slots = 2 * schema_.num_attributes();
    while (static_cast<int>(contexts.filler.size()) < num_slots) {
      contexts.filler.push_back(NewContext());
    }
    contexts.triggers.resize(static_cast<size_t>(num_slots));
    for (RelationId r = static_cast<RelationId>(contexts.role.size());
         r < schema_.num_relations(); ++r) {
      contexts.role.emplace_back();
      const RelationDefinition* definition = schema_.relation_definition(r);
      if (definition == nullptr) continue;
      for (int k = 0; k < definition->arity(); ++k) {
        contexts.role.back().push_back(NewContext());
      }
    }
    const int first_new = contexts.num_classes();
    for (ClassId c = first_new; c < schema_.num_classes(); ++c) {
      contexts.witness.push_back(NewContext());
    }
    slot_of_.assign(contexts.members.size(), -1);
    for (int slot = 0; slot < num_slots; ++slot) {
      slot_of_[contexts.filler[slot]] = slot;
    }
    added_.assign(contexts.members.size(), {});
    queued_.assign(contexts.members.size(), 0);
    slot_dirty_.assign(static_cast<size_t>(num_slots), 0);
    for (ClassId c = first_new; c < schema_.num_classes(); ++c) {
      Insert(c, contexts.witness[c]);
    }

    while (!queue_.empty() || !dirty_slots_.empty()) {
      while (!queue_.empty()) {
        const int context = queue_.back();
        queue_.pop_back();
        queued_[context] = 0;
        ApplyMemberRules(context);
      }
      std::vector<int> slots;
      slots.swap(dirty_slots_);
      for (int slot : slots) {
        slot_dirty_[slot] = 0;
        ApplyFeedback(slot);
      }
    }
  }

  /// Members each context gained during this run, in insertion order.
  const std::vector<std::vector<ClassId>>& added() const { return added_; }

 private:
  int NewContext() {
    contexts_.members.emplace_back();
    return static_cast<int>(contexts_.members.size()) - 1;
  }

  void MarkSlot(int slot) {
    if (slot_dirty_[slot] != 0) return;
    slot_dirty_[slot] = 1;
    dirty_slots_.push_back(slot);
  }

  void Insert(ClassId c, int context) {
    std::vector<ClassId>& members = contexts_.members[context];
    auto it = std::lower_bound(members.begin(), members.end(), c);
    if (it != members.end() && *it == c) return;
    members.insert(it, c);
    added_[context].push_back(c);
    if (queued_[context] == 0) {
      queued_[context] = 1;
      queue_.push_back(context);
    }
    if (slot_of_[context] >= 0) MarkSlot(slot_of_[context]);
  }

  /// Inserts the single positive literals of a union-free formula.
  void InsertPositives(const ClassFormula& formula, int context) {
    for (const ClassClause& clause : formula.clauses()) {
      if (clause.literals().size() != 1) continue;
      const ClassLiteral& literal = clause.literals()[0];
      if (!literal.negated) Insert(literal.class_id, context);
    }
  }

  /// Rules 1-3 over the members of one context.
  void ApplyMemberRules(int context) {
    // Snapshot: rules below mutate the context.
    const std::vector<ClassId> members(contexts_.members[context].begin(),
                                       contexts_.members[context].end());

    // Which attribute terms have a mandatory filler in this context?
    // (some member demands min >= 1 for the term).
    std::vector<int> mandatory;
    for (ClassId member : members) {
      for (const AttributeSpec& spec :
           schema_.class_definition(member).attributes) {
        if (spec.cardinality.min() >= 1) {
          InsertSorted(&mandatory, FillerSlot(spec.term));
        }
      }
    }

    for (ClassId member : members) {
      const ClassDefinition& definition = schema_.class_definition(member);
      // Rule 1: isa up-closure.
      InsertPositives(definition.isa, context);

      // Rule 2: mandatory attribute fillers. The filler must realize the
      // ranges of *every* same-term spec owned anywhere in the context
      // (including min-0 ones — they type all links), so all of them
      // feed the filler context once the term is mandatory.
      for (const AttributeSpec& spec : definition.attributes) {
        const int slot = FillerSlot(spec.term);
        if (!std::binary_search(mandatory.begin(), mandatory.end(), slot)) {
          continue;
        }
        InsertPositives(spec.range, contexts_.filler[slot]);
        if (InsertSorted(&contexts_.triggers[slot], context)) MarkSlot(slot);
      }

      // Rule 3: mandatory relation participation.
      for (const ParticipationSpec& spec : definition.participations) {
        if (spec.cardinality.min() == 0) continue;
        const RelationDefinition* relation =
            schema_.relation_definition(spec.relation);
        if (relation == nullptr) continue;
        const int own_index = relation->RoleIndex(spec.role);
        for (const RoleClause& clause : relation->constraints) {
          if (clause.literals.size() != 1) continue;
          const RoleLiteral& literal = clause.literals[0];
          const int index = relation->RoleIndex(literal.role);
          if (index < 0) continue;
          // At its own role the witness itself is the component.
          InsertPositives(literal.formula,
                          index == own_index
                              ? context
                              : contexts_.role[spec.relation][index]);
        }
      }
    }
  }

  /// Rule 4 (feedback): classes in a filler context carry opposite-side
  /// specs of the same attribute that constrain the *triggering*
  /// contexts.
  void ApplyFeedback(int slot) {
    const AttributeId attribute = slot / 2;
    const bool inverse_side = (slot % 2) != 0;
    // Snapshot: a filler may receive its own feedback.
    const std::vector<ClassId>& live =
        contexts_.members[contexts_.filler[slot]];
    const std::vector<ClassId> filler(live.begin(), live.end());
    for (ClassId member : filler) {
      for (const AttributeSpec& spec :
           schema_.class_definition(member).attributes) {
        if (spec.term.attribute != attribute) continue;
        // A filler on the target side owns (inv A) specs constraining
        // the source (the triggering witness), and vice versa.
        if (spec.term.inverse == inverse_side) continue;
        for (int receiver : contexts_.triggers[slot]) {
          InsertPositives(spec.range, receiver);
        }
      }
    }
  }

  const Schema& schema_;
  UnionFreeContexts& contexts_;
  std::vector<int> slot_of_;  // Context -> its filler slot, or -1.
  std::vector<std::vector<ClassId>> added_;
  std::vector<int> queue_;
  std::vector<char> queued_;
  std::vector<int> dirty_slots_;
  std::vector<char> slot_dirty_;
};

}  // namespace

void CompleteDisjointnessUnionFree(const Schema& schema,
                                   PairTables* tables) {
  if (!schema.IsUnionFree()) return;
  const PairTables propagated = *tables;
  UnionFreeContexts contexts;
  ExtendUnionFreeCompletion(schema, propagated, &contexts, tables);
}

void ExtendUnionFreeCompletion(const Schema& schema,
                               const PairTables& propagated,
                               UnionFreeContexts* contexts,
                               PairTables* tables) {
  if (!schema.IsUnionFree()) return;
  const int n = schema.num_classes();
  const ClassId first_new = contexts->num_classes();
  CAR_CHECK_LE(first_new, n);
  CAR_CHECK_EQ(propagated.num_classes(), n);

  // The propagated entries of the classes `tables` does not cover yet
  // (their rows and columns); the older pairs' are already in it.
  const ClassId covered = tables->num_classes();
  tables->Grow(n);
  for (ClassId c = covered; c < n; ++c) {
    for (ClassId super : propagated.SuperclassesOf(c)) {
      tables->MarkIncluded(c, super);
    }
    for (ClassId enemy : propagated.DisjointFrom(c)) {
      tables->MarkDisjoint(c, enemy);
    }
  }

  Fixpoint fixpoint(schema, contexts);
  fixpoint.AbsorbNewClasses();

  // A pair with an appended class is disjoint unless some context holds
  // both classes.
  const int num_new = n - first_new;
  std::vector<std::vector<char>> required(
      static_cast<size_t>(num_new), std::vector<char>(static_cast<size_t>(n)));
  for (const std::vector<ClassId>& members : contexts->members) {
    if (members.empty() || members.back() < first_new) continue;
    for (auto it = std::lower_bound(members.begin(), members.end(),
                                    first_new);
         it != members.end(); ++it) {
      for (ClassId b : members) required[*it - first_new][b] = 1;
    }
  }
  for (ClassId a = first_new; a < n; ++a) {
    for (ClassId b = 0; b < a; ++b) {
      if (required[a - first_new][b] == 0 && !tables->AreDisjoint(a, b)) {
        tables->MarkDisjoint(a, b);
      }
    }
  }

  // An older pair that a grown context now holds together loses the
  // disjointness the completion assumed for it.
  const std::vector<std::vector<ClassId>>& added = fixpoint.added();
  for (size_t context = 0; context < added.size(); ++context) {
    for (ClassId a : added[context]) {
      if (a >= first_new) continue;
      for (ClassId b : contexts->members[context]) {
        if (b >= first_new) break;
        if (b != a && tables->AreDisjoint(a, b) &&
            !propagated.AreDisjoint(a, b)) {
          tables->UnmarkDisjoint(a, b);
        }
      }
    }
  }
}

}  // namespace car
