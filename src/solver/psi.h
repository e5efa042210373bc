#ifndef CAR_SOLVER_PSI_H_
#define CAR_SOLVER_PSI_H_

#include <array>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "expansion/expansion.h"
#include "math/linear.h"

namespace car {

/// The system Ψ_S of linear disequations derived from the expansion of a
/// CAR schema (Section 3.2), restricted to an "active" subset of the
/// unknowns (used by the acceptability fixpoint of the solver; pass
/// all-true masks for the full system).
///
/// Unknowns: one per active compound class, compound attribute and
/// compound relation. Constraints (nonnegativity is implicit in the
/// simplex solver):
///
///   for C̄ ⇒ att : (u, v) in Natt:
///       u * Var(C̄) <= S(att, C̄) <= v * Var(C̄)
///   for C̄ ⇒ R[U_k] : (x, y) in Nrel:
///       x * Var(C̄) <= sum of Var(R̄) with R̄[U_k] = C̄ <= y * Var(C̄)
///
/// where S(A, C̄) sums Var(⟨C̄, C̄2⟩_A) and S((inv A), C̄) sums
/// Var(⟨C̄1, C̄⟩_A). Constraints whose compound class is inactive are
/// dropped (their attribute/relation unknowns are inactive too, by the
/// caller's deactivation rule). Infinite upper bounds yield no <=
/// constraint; zero lower bounds yield no >= constraint.
struct PsiSystem {
  LinearSystem system;
  /// Variable index per compound class / attribute / relation, or -1 when
  /// inactive (not part of the system).
  std::vector<int> cc_var;
  std::vector<int> ca_var;
  std::vector<int> cr_var;
  /// Total number of disequations emitted (both directions counted).
  size_t num_disequations = 0;
};

PsiSystem BuildPsiSystem(const Expansion& expansion,
                         const std::vector<bool>& cc_active,
                         const std::vector<bool>& ca_active,
                         const std::vector<bool>& cr_active);

/// Convenience: the full system with every unknown active.
PsiSystem BuildFullPsiSystem(const Expansion& expansion);

/// The rows of every builder of Ψ and of its support LP — BuildPsiSystem,
/// the support LP of SolvePsi and the incremental solver's base and delta
/// systems — come from the three emitters below, so each row kind has one
/// spelling and every builder emits the same LP.

/// Appends the bound rows of one Natt/Nrel entry to `rows`:
/// sum - u * Var(C̄) >= 0 iff u > 0, then sum - v * Var(C̄) <= 0 iff v is
/// finite.
void AppendBoundPair(int cc_variable, const LinearExpr& sum,
                     const Cardinality& cardinality,
                     std::vector<LinearConstraint>* rows);

/// The support gadget of one constrained compound class with support
/// variable t: t - Var(C̄) <= 0, then t <= 1.
std::array<LinearConstraint, 2> SupportGadget(int t, int cc_variable);

/// Which compound classes in [first, first + count) carry a Natt or Nrel
/// entry of `natt`/`nrel` (an Expansion's maps, or an ExpansionDelta's
/// new_natt/new_nrel, whose keys are global indices), indexed from
/// `first`. Only these get a support gadget: the unknown of an
/// unconstrained compound occurs in no disequation, so it is always
/// supportable. The mask is intrinsic to each compound's members.
std::vector<bool> ConstrainedCompounds(
    const std::map<std::pair<AttributeTerm, int>, Cardinality>& natt,
    const std::map<std::tuple<RelationId, int, int>, Cardinality>& nrel,
    int first, int count);

/// Appends to `psi` the support gadget of every active constrained
/// compound class, in index order, each on a fresh unknown t, and returns
/// the support objective Σ t. `t_var` receives each compound class's t,
/// or -1 where it has no gadget.
LinearExpr AddSupportGadgets(const std::vector<bool>& cc_constrained,
                             PsiSystem* psi, std::vector<int>* t_var);

}  // namespace car

#endif  // CAR_SOLVER_PSI_H_
