#ifndef CAR_ANALYSIS_UNION_FREE_H_
#define CAR_ANALYSIS_UNION_FREE_H_

#include <vector>

#include "analysis/pair_tables.h"
#include "model/schema.h"

namespace car {

/// The fixpoint state of the union-free completion: the "required
/// co-membership" contexts (see CompleteDisjointnessUnionFree) of the
/// classes absorbed so far. A context is a set of classes some single
/// object may be forced to inhabit together: one per class (its
/// canonical witness), one per attribute side (merged mandatory
/// fillers), one per relation role (merged mandatory co-components).
struct UnionFreeContexts {
  /// Members of each context, ascending; a context's id is its index.
  std::vector<std::vector<ClassId>> members;
  /// The witness context of each absorbed class.
  std::vector<int> witness;
  /// The filler context of each attribute side, by filler slot
  /// 2 * attribute + (inverse ? 1 : 0).
  std::vector<int> filler;
  /// The co-component context of each relation role: role[relation][k].
  std::vector<std::vector<int>> role;
  /// Per filler slot, the contexts whose mandatory term fed the filler,
  /// ascending: they receive its feedback (rule 4).
  std::vector<std::vector<int>> triggers;

  int num_classes() const { return static_cast<int>(witness.size()); }
};

/// The "optimal strategy" for union-free schemas (Section 4.4): complete
/// the disjointness table so that the number of disjointness assumptions
/// is maximized without influencing class satisfiability.
///
/// In a union-free schema, an object's memberships are forced only
/// through (a) upward isa closure of single positive literals and
/// (b) conjunctive range/role formulae (each a set of positive literals
/// whose up-closures the filler must inhabit together). Therefore two
/// classes may be *required* to share an instance only if they appear
/// together in one of the following "required co-membership" cliques:
///
///   * Up(D) for some class D — the up-closure {D} ∪ transitive positive
///     isa parents (every D-object inhabits all of Up(D));
///   * the union of Up(E) over positive literals E of one attribute-range
///     formula with minimum >= 1 (the mandatory filler inhabits all);
///   * for each relation role: Up(C) of every class participating with
///     minimum >= 1 at that role, together with the up-closures of the
///     positive literals of that role's single-literal clauses (the
///     component object inhabits all of them at once).
///
/// Every pair NOT covered by some clique is marked disjoint in `tables`.
/// For a generalization hierarchy this yields exactly the sibling- and
/// cross-group disjointness the paper assumes, and the expansion's
/// compound classes become the root-to-node paths (classes + 1 compounds
/// including the empty one).
///
/// Only call on union-free schemas (checked; returns without changes
/// otherwise). Mixed negation is fine — explicit disjointness in `tables`
/// is kept and only ever grows. Runs ExtendUnionFreeCompletion from the
/// empty state.
void CompleteDisjointnessUnionFree(const Schema& schema, PairTables* tables);

/// Resumes the completion for classes appended to a schema. On entry
/// `contexts` is the fixpoint of the schema's first
/// contexts->num_classes() classes (none of which mentions a later class,
/// with their definitions unchanged) and `tables` holds their completed
/// table; `propagated` is BuildPairTables(schema) over every class, and
/// supplies the rows of the classes `tables` does not cover yet (a
/// from-scratch run may pass a copy of `propagated` itself). On return
/// `contexts` is the fixpoint over every class and `tables` equals the
/// tables CompleteDisjointnessUnionFree derives from `propagated`.
///
/// Exact because the rules are monotone: every context only ever grows,
/// so the least fixpoint over the extended schema is the least fixpoint
/// reached from the old one plus the appended witness contexts. The
/// appended classes' pairs are disjoint unless co-resident; an old pair
/// loses its completion-made disjointness when a context that grew now
/// holds both (entries in `propagated` always stay). With no old classes
/// this is the from-scratch completion. Returns without changes on
/// schemas that are not union-free.
void ExtendUnionFreeCompletion(const Schema& schema,
                               const PairTables& propagated,
                               UnionFreeContexts* contexts,
                               PairTables* tables);

}  // namespace car

#endif  // CAR_ANALYSIS_UNION_FREE_H_
