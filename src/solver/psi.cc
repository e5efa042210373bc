#include "solver/psi.h"

#include "base/check.h"

namespace car {

void AppendBoundPair(int cc_variable, const LinearExpr& sum,
                     const Cardinality& cardinality,
                     std::vector<LinearConstraint>* rows) {
  if (cardinality.min() > 0) {
    LinearConstraint lower;
    lower.expr = sum;
    lower.expr.Add(cc_variable,
                   Rational(-static_cast<int64_t>(cardinality.min())));
    lower.relation = Relation::kGreaterEqual;
    lower.rhs = Rational(0);
    rows->push_back(std::move(lower));
  }
  if (cardinality.has_finite_max()) {
    LinearConstraint upper;
    upper.expr = sum;
    upper.expr.Add(cc_variable,
                   Rational(-static_cast<int64_t>(cardinality.max())));
    upper.relation = Relation::kLessEqual;
    upper.rhs = Rational(0);
    rows->push_back(std::move(upper));
  }
}

std::array<LinearConstraint, 2> SupportGadget(int t, int cc_variable) {
  std::array<LinearConstraint, 2> gadget;
  gadget[0].expr.Add(t, Rational(1));
  gadget[0].expr.Add(cc_variable, Rational(-1));
  gadget[0].relation = Relation::kLessEqual;
  gadget[0].rhs = Rational(0);
  gadget[1].expr.Add(t, Rational(1));
  gadget[1].relation = Relation::kLessEqual;
  gadget[1].rhs = Rational(1);
  return gadget;
}

std::vector<bool> ConstrainedCompounds(
    const std::map<std::pair<AttributeTerm, int>, Cardinality>& natt,
    const std::map<std::tuple<RelationId, int, int>, Cardinality>& nrel,
    int first, int count) {
  std::vector<bool> constrained(static_cast<size_t>(count), false);
  for (const auto& [key, cardinality] : natt) {
    (void)cardinality;
    constrained[static_cast<size_t>(key.second - first)] = true;
  }
  for (const auto& [key, cardinality] : nrel) {
    (void)cardinality;
    constrained[static_cast<size_t>(std::get<2>(key) - first)] = true;
  }
  return constrained;
}

LinearExpr AddSupportGadgets(const std::vector<bool>& cc_constrained,
                             PsiSystem* psi, std::vector<int>* t_var) {
  LinearExpr objective;
  t_var->assign(psi->cc_var.size(), -1);
  for (size_t i = 0; i < psi->cc_var.size(); ++i) {
    if (psi->cc_var[i] < 0 || !cc_constrained[i]) continue;
    const int t = psi->system.AddVariable(std::string());
    (*t_var)[i] = t;
    for (LinearConstraint& row : SupportGadget(t, psi->cc_var[i])) {
      psi->system.AddConstraint(std::move(row));
    }
    objective.Add(t, Rational(1));
  }
  return objective;
}

PsiSystem BuildPsiSystem(const Expansion& expansion,
                         const std::vector<bool>& cc_active,
                         const std::vector<bool>& ca_active,
                         const std::vector<bool>& cr_active) {
  CAR_CHECK_EQ(cc_active.size(), expansion.compound_classes.size());
  CAR_CHECK_EQ(ca_active.size(), expansion.compound_attributes.size());
  CAR_CHECK_EQ(cr_active.size(), expansion.compound_relations.size());

  PsiSystem psi;
  psi.cc_var.assign(cc_active.size(), -1);
  psi.ca_var.assign(ca_active.size(), -1);
  psi.cr_var.assign(cr_active.size(), -1);

  // Unknowns and rows stay unnamed: nothing reads Ψ names, and spelling
  // out every compound was most of the cost of building the system.
  for (size_t i = 0; i < cc_active.size(); ++i) {
    if (cc_active[i]) psi.cc_var[i] = psi.system.AddVariable(std::string());
  }
  for (size_t i = 0; i < ca_active.size(); ++i) {
    if (ca_active[i]) psi.ca_var[i] = psi.system.AddVariable(std::string());
  }
  for (size_t i = 0; i < cr_active.size(); ++i) {
    if (cr_active[i]) psi.cr_var[i] = psi.system.AddVariable(std::string());
  }

  std::vector<LinearConstraint> rows;
  rows.reserve(2 * (expansion.natt.size() + expansion.nrel.size()));
  // Natt constraints.
  for (const auto& [key, cardinality] : expansion.natt) {
    const auto& [term, compound_index] = key;
    if (!cc_active[compound_index]) continue;
    LinearExpr sum;
    const auto& index_map =
        term.inverse ? expansion.ca_by_to : expansion.ca_by_from;
    auto it = index_map.find({term.attribute, compound_index});
    if (it != index_map.end()) {
      for (int ca_index : it->second) {
        if (ca_active[ca_index]) {
          sum.Add(psi.ca_var[ca_index], Rational(1));
        }
      }
    }
    AppendBoundPair(psi.cc_var[compound_index], sum, cardinality, &rows);
  }

  // Nrel constraints.
  for (const auto& [key, cardinality] : expansion.nrel) {
    const auto& [relation, role_index, compound_index] = key;
    if (!cc_active[compound_index]) continue;
    LinearExpr sum;
    auto it = expansion.cr_by_role.find({relation, role_index,
                                         compound_index});
    if (it != expansion.cr_by_role.end()) {
      for (int cr_index : it->second) {
        if (cr_active[cr_index]) {
          sum.Add(psi.cr_var[cr_index], Rational(1));
        }
      }
    }
    AppendBoundPair(psi.cc_var[compound_index], sum, cardinality, &rows);
  }

  psi.num_disequations = rows.size();
  for (LinearConstraint& row : rows) psi.system.AddConstraint(std::move(row));
  return psi;
}

PsiSystem BuildFullPsiSystem(const Expansion& expansion) {
  return BuildPsiSystem(
      expansion,
      std::vector<bool>(expansion.compound_classes.size(), true),
      std::vector<bool>(expansion.compound_attributes.size(), true),
      std::vector<bool>(expansion.compound_relations.size(), true));
}

}  // namespace car
