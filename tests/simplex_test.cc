#include "math/simplex.h"

#include <gtest/gtest.h>

#include "base/rng.h"

namespace car {
namespace {

LinearConstraint Make(const std::vector<std::pair<int, int64_t>>& terms,
                      Relation relation, int64_t rhs) {
  LinearConstraint constraint;
  for (const auto& [variable, coefficient] : terms) {
    constraint.expr.Add(variable, Rational(coefficient));
  }
  constraint.relation = relation;
  constraint.rhs = Rational(rhs);
  return constraint;
}

TEST(SimplexTest, TextbookMaximization) {
  // max 3x + 5y  s.t.  x <= 4, 2y <= 12, 3x + 2y <= 18  =>  opt 36 at (2,6).
  LinearSystem system;
  int x = system.AddVariable("x");
  int y = system.AddVariable("y");
  system.AddConstraint(Make({{x, 1}}, Relation::kLessEqual, 4));
  system.AddConstraint(Make({{y, 2}}, Relation::kLessEqual, 12));
  system.AddConstraint(Make({{x, 3}, {y, 2}}, Relation::kLessEqual, 18));
  LinearExpr objective;
  objective.Add(x, Rational(3));
  objective.Add(y, Rational(5));

  auto result = SimplexSolver().Maximize(system, objective);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcome, LpOutcome::kOptimal);
  EXPECT_EQ(result->objective, Rational(36));
  EXPECT_EQ(result->values[x], Rational(2));
  EXPECT_EQ(result->values[y], Rational(6));
}

TEST(SimplexTest, DetectsInfeasibility) {
  LinearSystem system;
  int x = system.AddVariable("x");
  system.AddConstraint(Make({{x, 1}}, Relation::kGreaterEqual, 3));
  system.AddConstraint(Make({{x, 1}}, Relation::kLessEqual, 2));
  auto result = SimplexSolver().CheckFeasible(system);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcome, LpOutcome::kInfeasible);
}

TEST(SimplexTest, DetectsUnboundedness) {
  LinearSystem system;
  int x = system.AddVariable("x");
  int y = system.AddVariable("y");
  system.AddConstraint(Make({{x, 1}, {y, -1}}, Relation::kLessEqual, 1));
  LinearExpr objective;
  objective.Add(x, Rational(1));
  auto result = SimplexSolver().Maximize(system, objective);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcome, LpOutcome::kUnbounded);
}

TEST(SimplexTest, EqualityConstraints) {
  // max x + y  s.t.  x + y = 5, x - y = 1  =>  opt 5 at (3,2).
  LinearSystem system;
  int x = system.AddVariable("x");
  int y = system.AddVariable("y");
  system.AddConstraint(Make({{x, 1}, {y, 1}}, Relation::kEqual, 5));
  system.AddConstraint(Make({{x, 1}, {y, -1}}, Relation::kEqual, 1));
  LinearExpr objective;
  objective.Add(x, Rational(1));
  objective.Add(y, Rational(1));
  auto result = SimplexSolver().Maximize(system, objective);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcome, LpOutcome::kOptimal);
  EXPECT_EQ(result->objective, Rational(5));
  EXPECT_EQ(result->values[x], Rational(3));
  EXPECT_EQ(result->values[y], Rational(2));
}

TEST(SimplexTest, NegativeRightHandSides) {
  // -x <= -3 is x >= 3; feasibility requires the flip logic.
  LinearSystem system;
  int x = system.AddVariable("x");
  system.AddConstraint(Make({{x, -1}}, Relation::kLessEqual, -3));
  system.AddConstraint(Make({{x, 1}}, Relation::kLessEqual, 10));
  LinearExpr objective;
  objective.Add(x, Rational(-1));
  auto result = SimplexSolver().Maximize(system, objective);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcome, LpOutcome::kOptimal);
  EXPECT_EQ(result->values[x], Rational(3));
}

TEST(SimplexTest, ExactRationalAnswer) {
  // max y  s.t.  3y <= 1  =>  y = 1/3 exactly; floats would dither.
  LinearSystem system;
  int y = system.AddVariable("y");
  system.AddConstraint(Make({{y, 3}}, Relation::kLessEqual, 1));
  LinearExpr objective;
  objective.Add(y, Rational(1));
  auto result = SimplexSolver().Maximize(system, objective);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->objective, Rational(BigInt(1), BigInt(3)));
}

TEST(SimplexTest, EmptySystemFeasibleAtOrigin) {
  LinearSystem system;
  system.AddVariable("x");
  auto result = SimplexSolver().CheckFeasible(system);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcome, LpOutcome::kOptimal);
  EXPECT_EQ(result->values[0], Rational(0));
}

TEST(SimplexTest, DegenerateCyclePronePivotsTerminate) {
  // The classic Beale cycling example; Bland's rule must terminate.
  // max 0.75a - 150b + 0.02c - 6d
  // s.t. 0.25a - 60b - 0.04c + 9d <= 0
  //      0.5a - 90b - 0.02c + 3d <= 0
  //      c <= 1
  LinearSystem system;
  int a = system.AddVariable("a");
  int b = system.AddVariable("b");
  int c = system.AddVariable("c");
  int d = system.AddVariable("d");
  LinearConstraint c1;
  c1.expr.Add(a, Rational(BigInt(1), BigInt(4)));
  c1.expr.Add(b, Rational(-60));
  c1.expr.Add(c, Rational(BigInt(-1), BigInt(25)));
  c1.expr.Add(d, Rational(9));
  c1.relation = Relation::kLessEqual;
  c1.rhs = Rational(0);
  system.AddConstraint(c1);
  LinearConstraint c2;
  c2.expr.Add(a, Rational(BigInt(1), BigInt(2)));
  c2.expr.Add(b, Rational(-90));
  c2.expr.Add(c, Rational(BigInt(-1), BigInt(50)));
  c2.expr.Add(d, Rational(3));
  c2.relation = Relation::kLessEqual;
  c2.rhs = Rational(0);
  system.AddConstraint(c2);
  system.AddConstraint(Make({{c, 1}}, Relation::kLessEqual, 1));
  LinearExpr objective;
  objective.Add(a, Rational(BigInt(3), BigInt(4)));
  objective.Add(b, Rational(-150));
  objective.Add(c, Rational(BigInt(1), BigInt(50)));
  objective.Add(d, Rational(-6));
  auto result = SimplexSolver().Maximize(system, objective);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcome, LpOutcome::kOptimal);
  EXPECT_EQ(result->objective, Rational(BigInt(1), BigInt(20)));
}

TEST(SimplexTest, PivotLimitReported) {
  SimplexSolver::Options options;
  options.max_pivots = 1;
  LinearSystem system;
  int x = system.AddVariable("x");
  int y = system.AddVariable("y");
  system.AddConstraint(Make({{x, 1}, {y, 1}}, Relation::kLessEqual, 4));
  system.AddConstraint(Make({{x, 1}, {y, 2}}, Relation::kLessEqual, 6));
  LinearExpr objective;
  objective.Add(x, Rational(1));
  objective.Add(y, Rational(2));
  auto result = SimplexSolver(options).Maximize(system, objective);
  // Either it solved within the limit or reports resource exhaustion;
  // with one pivot allowed this instance cannot finish.
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  // The message carries the structured limit description.
  EXPECT_NE(result.status().message().find("limit=max_pivots phase=simplex"),
            std::string::npos)
      << result.status();
}

TEST(SimplexTest, GovernedPivotLimitRecordsTripOnContext) {
  ExecContext exec;
  SimplexSolver::Options options;
  options.max_pivots = 1;
  options.exec = &exec;
  LinearSystem system;
  int x = system.AddVariable("x");
  int y = system.AddVariable("y");
  system.AddConstraint(Make({{x, 1}, {y, 1}}, Relation::kLessEqual, 4));
  system.AddConstraint(Make({{x, 1}, {y, 2}}, Relation::kLessEqual, 6));
  LinearExpr objective;
  objective.Add(x, Rational(1));
  objective.Add(y, Rational(2));
  auto result = SimplexSolver(options).Maximize(system, objective);
  ASSERT_FALSE(result.ok());
  ASSERT_TRUE(exec.tripped());
  EXPECT_EQ(exec.report().kind, LimitKind::kMaxPivots);
  EXPECT_EQ(exec.report().phase, "simplex");
  EXPECT_EQ(exec.report().limit, 1u);
  EXPECT_GT(exec.progress().pivots_executed, 0u);
  EXPECT_GT(exec.progress().work_charged, 0u);
  EXPECT_GT(exec.progress().bytes_charged, 0u);
}

TEST(SimplexTest, GovernedSolveChargesWorkAndBytes) {
  ExecContext exec;
  SimplexSolver::Options options;
  options.exec = &exec;
  LinearSystem system;
  int x = system.AddVariable("x");
  system.AddConstraint(Make({{x, 1}}, Relation::kLessEqual, 4));
  LinearExpr objective;
  objective.Add(x, Rational(1));
  auto result = SimplexSolver(options).Maximize(system, objective);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcome, LpOutcome::kOptimal);
  EXPECT_FALSE(exec.tripped());
  EXPECT_GT(exec.progress().bytes_charged, 0u);
  EXPECT_EQ(exec.progress().pivots_executed, result->pivots);
}

TEST(SimplexWarmStartTest, ResumeMatchesColdOnTextbookExtension) {
  // Base: max 3x + 5y  s.t.  x <= 4, 2y <= 12, 3x + 2y <= 18.
  LinearSystem system;
  int x = system.AddVariable("x");
  int y = system.AddVariable("y");
  system.AddConstraint(Make({{x, 1}}, Relation::kLessEqual, 4));
  system.AddConstraint(Make({{y, 2}}, Relation::kLessEqual, 12));
  system.AddConstraint(Make({{x, 3}, {y, 2}}, Relation::kLessEqual, 18));
  LinearExpr objective;
  objective.Add(x, Rational(3));
  objective.Add(y, Rational(5));

  SimplexSnapshot snapshot;
  auto base = SimplexSolver().SolveForSnapshot(system, objective, &snapshot);
  ASSERT_TRUE(base.ok());
  EXPECT_EQ(base->outcome, LpOutcome::kOptimal);
  EXPECT_EQ(base->objective, Rational(36));

  // Extension: new variable z joins the first constraint (x + 2z <= 4)
  // and two new constraints appear: z >= 1 and x + y + z <= 8.
  SimplexDelta delta;
  delta.num_new_variables = 1;
  const int z = snapshot.num_variables();
  delta.row_extensions.push_back({0, z, Rational(2)});
  delta.new_constraints.push_back(Make({{z, 1}}, Relation::kGreaterEqual, 1));
  delta.new_constraints.push_back(
      Make({{x, 1}, {y, 1}, {z, 1}}, Relation::kLessEqual, 8));
  LinearExpr extended_objective = objective;
  extended_objective.Add(z, Rational(1));

  auto warm =
      SimplexSolver().ResumeMaximize(&snapshot, delta, extended_objective);
  ASSERT_TRUE(warm.ok());

  LinearSystem cold_system;
  cold_system.AddVariable("x");
  cold_system.AddVariable("y");
  cold_system.AddVariable("z");
  cold_system.AddConstraint(
      Make({{x, 1}, {z, 2}}, Relation::kLessEqual, 4));
  cold_system.AddConstraint(Make({{y, 2}}, Relation::kLessEqual, 12));
  cold_system.AddConstraint(
      Make({{x, 3}, {y, 2}}, Relation::kLessEqual, 18));
  cold_system.AddConstraint(Make({{z, 1}}, Relation::kGreaterEqual, 1));
  cold_system.AddConstraint(
      Make({{x, 1}, {y, 1}, {z, 1}}, Relation::kLessEqual, 8));
  auto cold = SimplexSolver().Maximize(cold_system, extended_objective);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(warm->outcome, cold->outcome);
  EXPECT_EQ(warm->objective, cold->objective);
  EXPECT_TRUE(cold_system.IsSatisfiedBy(warm->values));
}

TEST(SimplexWarmStartTest, ResumeDetectsInfeasibleExtension) {
  LinearSystem system;
  int x = system.AddVariable("x");
  system.AddConstraint(Make({{x, 1}}, Relation::kLessEqual, 4));
  LinearExpr objective;
  objective.Add(x, Rational(1));
  SimplexSnapshot snapshot;
  auto base = SimplexSolver().SolveForSnapshot(system, objective, &snapshot);
  ASSERT_TRUE(base.ok());
  ASSERT_EQ(base->outcome, LpOutcome::kOptimal);

  SimplexDelta delta;
  delta.new_constraints.push_back(Make({{x, 1}}, Relation::kGreaterEqual, 9));
  auto warm = SimplexSolver().ResumeMaximize(&snapshot, delta, objective);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->outcome, LpOutcome::kInfeasible);
}

TEST(SimplexWarmStartTest, GovernedResumeCountsWarmStarts) {
  ExecContext exec;
  SimplexSolver::Options options;
  options.exec = &exec;
  LinearSystem system;
  int x = system.AddVariable("x");
  system.AddConstraint(Make({{x, 1}}, Relation::kLessEqual, 4));
  LinearExpr objective;
  objective.Add(x, Rational(1));
  SimplexSnapshot snapshot;
  auto base =
      SimplexSolver(options).SolveForSnapshot(system, objective, &snapshot);
  ASSERT_TRUE(base.ok());
  EXPECT_EQ(exec.progress().warm_starts, 0u);

  SimplexDelta delta;
  delta.new_constraints.push_back(Make({{x, 1}}, Relation::kLessEqual, 2));
  auto warm = SimplexSolver(options).ResumeMaximize(&snapshot, delta,
                                                    objective);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->outcome, LpOutcome::kOptimal);
  EXPECT_EQ(warm->objective, Rational(2));
  EXPECT_EQ(exec.progress().warm_starts, 1u);
}

/// Property: chained ResumeMaximize calls agree with a from-scratch
/// Maximize of the accumulated system on outcome and optimal value, and
/// any warm optimum satisfies the accumulated system. Bases are feasible
/// by construction; deltas are arbitrary (extensions on new variables,
/// new constraints over all variables), so infeasible and unbounded
/// extensions are exercised too.
TEST(SimplexWarmStartProperty, ChainedResumesMatchCold) {
  Rng rng(20260806);
  for (int iteration = 0; iteration < 120; ++iteration) {
    const int n = rng.NextInt(1, 4);
    const int m = rng.NextInt(1, 5);
    LinearSystem accumulated;
    std::vector<Rational> witness;
    for (int j = 0; j < n; ++j) {
      accumulated.AddVariable("x");
      witness.push_back(Rational(rng.NextInt(0, 4)));
    }
    for (int i = 0; i < m; ++i) {
      LinearConstraint constraint;
      Rational value;
      for (int j = 0; j < n; ++j) {
        int64_t coefficient = rng.NextInt(-3, 3);
        if (coefficient != 0) {
          constraint.expr.Add(j, Rational(coefficient));
          value += Rational(coefficient) * witness[j];
        }
      }
      int kind = rng.NextInt(0, 2);
      if (kind == 0) {
        constraint.relation = Relation::kLessEqual;
        constraint.rhs = value + Rational(rng.NextInt(0, 4));
      } else if (kind == 1) {
        constraint.relation = Relation::kGreaterEqual;
        constraint.rhs = value - Rational(rng.NextInt(0, 4));
      } else {
        constraint.relation = Relation::kEqual;
        constraint.rhs = value;
      }
      accumulated.AddConstraint(constraint);
    }
    LinearExpr objective;
    for (int j = 0; j < n; ++j) {
      objective.Add(j, Rational(rng.NextInt(-2, 2)));
    }

    SimplexSnapshot snapshot;
    auto base = SimplexSolver().SolveForSnapshot(accumulated, objective,
                                                 &snapshot);
    ASSERT_TRUE(base.ok());
    if (base->outcome != LpOutcome::kOptimal) continue;

    const int num_resumes = rng.NextInt(1, 3);
    bool snapshot_dead = false;
    for (int resume = 0; resume < num_resumes && !snapshot_dead; ++resume) {
      SimplexDelta delta;
      delta.num_new_variables = rng.NextInt(0, 2);
      const int old_vars = snapshot.num_variables();
      const int total_vars = old_vars + delta.num_new_variables;
      for (int v = old_vars; v < total_vars; ++v) {
        const int extensions = rng.NextInt(0, 2);
        for (int e = 0; e < extensions; ++e) {
          int64_t coefficient = rng.NextInt(-3, 3);
          if (coefficient == 0) continue;
          delta.row_extensions.push_back(
              {static_cast<size_t>(
                   rng.NextInt(0, static_cast<int>(
                                      accumulated.constraints().size()) -
                                      1)),
               v, Rational(coefficient)});
        }
      }
      const int new_constraints = rng.NextInt(delta.empty() ? 1 : 0, 2);
      for (int i = 0; i < new_constraints; ++i) {
        LinearConstraint constraint;
        for (int j = 0; j < total_vars; ++j) {
          int64_t coefficient = rng.NextInt(-3, 3);
          if (coefficient != 0) constraint.expr.Add(j, Rational(coefficient));
        }
        constraint.relation = static_cast<Relation>(rng.NextInt(0, 2));
        constraint.rhs = Rational(rng.NextInt(-5, 5));
        delta.new_constraints.push_back(constraint);
      }

      // Mirror the delta into the from-scratch system.
      LinearSystem next;
      for (int j = 0; j < total_vars; ++j) next.AddVariable("x");
      for (size_t c = 0; c < accumulated.constraints().size(); ++c) {
        LinearConstraint constraint = accumulated.constraints()[c];
        for (const auto& extension : delta.row_extensions) {
          if (extension.constraint == c) {
            constraint.expr.Add(extension.variable, extension.coefficient);
          }
        }
        next.AddConstraint(constraint);
      }
      for (const LinearConstraint& constraint : delta.new_constraints) {
        next.AddConstraint(constraint);
      }
      accumulated = next;
      LinearExpr extended_objective = objective;
      for (int v = old_vars; v < total_vars; ++v) {
        extended_objective.Add(v, Rational(rng.NextInt(-2, 2)));
      }
      objective = extended_objective;

      auto warm =
          SimplexSolver().ResumeMaximize(&snapshot, delta, objective);
      ASSERT_TRUE(warm.ok());
      auto cold = SimplexSolver().Maximize(accumulated, objective);
      ASSERT_TRUE(cold.ok());
      ASSERT_EQ(warm->outcome, cold->outcome)
          << "iteration " << iteration << " resume " << resume << "\n"
          << accumulated.ToString();
      if (warm->outcome == LpOutcome::kOptimal) {
        EXPECT_EQ(warm->objective, cold->objective)
            << "iteration " << iteration << " resume " << resume << "\n"
            << accumulated.ToString();
        EXPECT_TRUE(accumulated.IsSatisfiedBy(warm->values))
            << accumulated.ToString();
      } else {
        // The snapshot only stays resumable while extensions keep it
        // feasible with a finite optimum.
        snapshot_dead = true;
      }
    }
  }
}

/// Property: on random systems constructed to contain a known feasible
/// point, the solver must report feasibility, return a point satisfying
/// the system, and (when maximizing) weakly beat the known point.
TEST(SimplexProperty, FeasibleByConstruction) {
  Rng rng(20260401);
  for (int iteration = 0; iteration < 200; ++iteration) {
    const int n = rng.NextInt(1, 5);
    const int m = rng.NextInt(1, 6);
    LinearSystem system;
    std::vector<Rational> witness;
    for (int j = 0; j < n; ++j) {
      system.AddVariable("x");
      witness.push_back(Rational(rng.NextInt(0, 5)));
    }
    for (int i = 0; i < m; ++i) {
      LinearConstraint constraint;
      Rational value;
      for (int j = 0; j < n; ++j) {
        int64_t coefficient = rng.NextInt(-4, 4);
        if (coefficient != 0) {
          constraint.expr.Add(j, Rational(coefficient));
          value += Rational(coefficient) * witness[j];
        }
      }
      int kind = rng.NextInt(0, 2);
      if (kind == 0) {
        constraint.relation = Relation::kLessEqual;
        constraint.rhs = value + Rational(rng.NextInt(0, 5));
      } else if (kind == 1) {
        constraint.relation = Relation::kGreaterEqual;
        constraint.rhs = value - Rational(rng.NextInt(0, 5));
      } else {
        constraint.relation = Relation::kEqual;
        constraint.rhs = value;
      }
      system.AddConstraint(constraint);
    }
    ASSERT_TRUE(system.IsSatisfiedBy(witness));

    LinearExpr objective;
    Rational witness_objective;
    for (int j = 0; j < n; ++j) {
      int64_t coefficient = rng.NextInt(-3, 3);
      objective.Add(j, Rational(coefficient));
      witness_objective += Rational(coefficient) * witness[j];
    }
    auto result = SimplexSolver().Maximize(system, objective);
    ASSERT_TRUE(result.ok());
    ASSERT_NE(result->outcome, LpOutcome::kInfeasible);
    if (result->outcome == LpOutcome::kOptimal) {
      EXPECT_TRUE(system.IsSatisfiedBy(result->values))
          << system.ToString();
      EXPECT_GE(result->objective, witness_objective);
    }
  }
}

/// Property: feasibility verdicts on random (possibly infeasible) systems
/// are self-consistent — a "feasible" answer always carries a point that
/// checks out against the constraints.
TEST(SimplexProperty, FeasibilityWitnessAlwaysValid) {
  Rng rng(555);
  int feasible_count = 0;
  int infeasible_count = 0;
  for (int iteration = 0; iteration < 300; ++iteration) {
    const int n = rng.NextInt(1, 4);
    const int m = rng.NextInt(1, 6);
    LinearSystem system;
    for (int j = 0; j < n; ++j) system.AddVariable("x");
    for (int i = 0; i < m; ++i) {
      LinearConstraint constraint;
      for (int j = 0; j < n; ++j) {
        int64_t coefficient = rng.NextInt(-3, 3);
        if (coefficient != 0) constraint.expr.Add(j, Rational(coefficient));
      }
      constraint.relation = static_cast<Relation>(rng.NextInt(0, 2));
      constraint.rhs = Rational(rng.NextInt(-6, 6));
      system.AddConstraint(constraint);
    }
    auto result = SimplexSolver().CheckFeasible(system);
    ASSERT_TRUE(result.ok());
    if (result->outcome == LpOutcome::kOptimal) {
      ++feasible_count;
      EXPECT_TRUE(system.IsSatisfiedBy(result->values)) << system.ToString();
    } else {
      ++infeasible_count;
    }
  }
  // The generator should produce a healthy mix of both verdicts.
  EXPECT_GT(feasible_count, 20);
  EXPECT_GT(infeasible_count, 20);
}

/// Solves `system` on the sparse production kernel — Maximize(`*objective`),
/// or CheckFeasible when `objective` is null — and expects
///   - the dense-rational reference kernel to match it bit for bit:
///     outcome, objective, vertex, pivot count and final nonzero pattern;
///   - SolveForSnapshot, the same two-phase driver parking redundant rows
///     instead of dropping them, to match it on outcome, objective,
///     vertex, pivot count and scalar promotions (its final tableau keeps
///     the parked rows, so the tableau sizes differ by design).
/// Returns the sparse result.
LpResult ExpectKernelsAgree(const LinearSystem& system,
                            const LinearExpr* objective) {
  auto solve = [&](SimplexKernel kernel) {
    SimplexSolver::Options options;
    options.kernel = kernel;
    SimplexSolver solver(options);
    return objective == nullptr ? solver.CheckFeasible(system)
                                : solver.Maximize(system, *objective);
  };
  Result<LpResult> sparse = solve(SimplexKernel::kSparseScalar);
  EXPECT_TRUE(sparse.ok());
  if (!sparse.ok()) return LpResult();
  Result<LpResult> dense = solve(SimplexKernel::kDenseRational);
  EXPECT_TRUE(dense.ok());
  if (dense.ok()) {
    EXPECT_EQ(dense->outcome, sparse->outcome) << system.ToString();
    EXPECT_EQ(dense->objective, sparse->objective) << system.ToString();
    EXPECT_EQ(dense->values, sparse->values) << system.ToString();
    EXPECT_EQ(dense->pivots, sparse->pivots) << system.ToString();
    // Zero-skipping is representation-level only: the final tableaus
    // hold the same nonzero pattern.
    EXPECT_EQ(dense->tableau_nonzeros, sparse->tableau_nonzeros)
        << system.ToString();
  }
  SimplexSnapshot snapshot;
  Result<LpResult> snapshotted = SimplexSolver().SolveForSnapshot(
      system, objective == nullptr ? LinearExpr() : *objective, &snapshot);
  EXPECT_TRUE(snapshotted.ok());
  if (snapshotted.ok()) {
    EXPECT_EQ(snapshotted->outcome, sparse->outcome) << system.ToString();
    EXPECT_EQ(snapshotted->objective, sparse->objective) << system.ToString();
    EXPECT_EQ(snapshotted->values, sparse->values) << system.ToString();
    EXPECT_EQ(snapshotted->pivots, sparse->pivots) << system.ToString();
    EXPECT_EQ(snapshotted->scalar_promotions, sparse->scalar_promotions)
        << system.ToString();
  }
  return *sparse;
}

/// Property: the two tableau kernels (sparse-scalar production,
/// dense-rational reference) and the snapshot solve are bit-identical on
/// random maximization problems — same outcome, same objective, same
/// vertex, same pivot count. This is the exactness contract that lets the
/// sparse/scalar optimization claim "answers unchanged by construction".
TEST(SimplexProperty, KernelsAreBitIdentical) {
  Rng rng(4242);
  for (int iteration = 0; iteration < 200; ++iteration) {
    const int n = rng.NextInt(1, 5);
    const int m = rng.NextInt(1, 7);
    LinearSystem system;
    for (int j = 0; j < n; ++j) system.AddVariable("x");
    for (int i = 0; i < m; ++i) {
      LinearConstraint constraint;
      for (int j = 0; j < n; ++j) {
        int64_t coefficient = rng.NextInt(-5, 5);
        if (coefficient != 0) constraint.expr.Add(j, Rational(coefficient));
      }
      constraint.relation = static_cast<Relation>(rng.NextInt(0, 2));
      constraint.rhs = Rational(rng.NextInt(-8, 8));
      system.AddConstraint(constraint);
    }
    LinearExpr objective;
    for (int j = 0; j < n; ++j) {
      int64_t coefficient = rng.NextInt(-4, 4);
      if (coefficient != 0) objective.Add(j, Rational(coefficient));
    }

    ASSERT_NO_FATAL_FAILURE(ExpectKernelsAgree(system, &objective));
    // The dense-rational kernel never touches Scalar cells.
    SimplexSolver::Options rational_options;
    rational_options.kernel = SimplexKernel::kDenseRational;
    auto rational =
        SimplexSolver(rational_options).Maximize(system, objective);
    ASSERT_TRUE(rational.ok());
    EXPECT_EQ(rational->scalar_promotions, 0u);
  }
}

/// A Ψ-shaped system (paper §3.2): two compound classes c1, c2 linked by
/// a compound attribute a with Natt bounds 1..2 at c1 and 1..3 at c2, and
/// the support gadgets t_i <= c_i, t_i <= 1. Every row but `t_i <= 1` is
/// homogeneous. Objective: Σ t_i.
struct PsiShaped {
  LinearSystem system;
  LinearExpr objective;
  int c1 = 0, c2 = 0, a = 0;
};

PsiShaped MakePsiShaped() {
  PsiShaped psi;
  psi.c1 = psi.system.AddVariable("c1");
  psi.c2 = psi.system.AddVariable("c2");
  psi.a = psi.system.AddVariable("a");
  const int t1 = psi.system.AddVariable("t1");
  const int t2 = psi.system.AddVariable("t2");
  psi.system.AddConstraint(
      Make({{psi.c1, -1}, {psi.a, 1}}, Relation::kGreaterEqual, 0));
  psi.system.AddConstraint(
      Make({{psi.c1, -2}, {psi.a, 1}}, Relation::kLessEqual, 0));
  psi.system.AddConstraint(
      Make({{psi.c2, -1}, {psi.a, 1}}, Relation::kGreaterEqual, 0));
  psi.system.AddConstraint(
      Make({{psi.c2, -3}, {psi.a, 1}}, Relation::kLessEqual, 0));
  psi.system.AddConstraint(
      Make({{psi.c1, -1}, {t1, 1}}, Relation::kLessEqual, 0));
  psi.system.AddConstraint(Make({{t1, 1}}, Relation::kLessEqual, 1));
  psi.system.AddConstraint(
      Make({{psi.c2, -1}, {t2, 1}}, Relation::kLessEqual, 0));
  psi.system.AddConstraint(Make({{t2, 1}}, Relation::kLessEqual, 1));
  psi.objective.Add(t1, Rational(1));
  psi.objective.Add(t2, Rational(1));
  return psi;
}

size_t CountArtificial(const SimplexSnapshot& snapshot) {
  size_t count = 0;
  for (bool artificial : snapshot.is_artificial) count += artificial;
  return count;
}

TEST(SimplexFeasibleStartTest, HomogeneousPsiSystemSkipsPhaseOne) {
  const PsiShaped psi = MakePsiShaped();
  // The origin is feasible and the all-slack basis starts there: a
  // feasibility check needs no pivot at all, so phase 1 took none.
  auto feasible = SimplexSolver().CheckFeasible(psi.system);
  ASSERT_TRUE(feasible.ok());
  EXPECT_EQ(feasible->outcome, LpOutcome::kOptimal);
  EXPECT_EQ(feasible->pivots, 0u);
  EXPECT_TRUE(psi.system.IsSatisfiedBy(feasible->values));

  SimplexSnapshot snapshot;
  auto solved =
      SimplexSolver().SolveForSnapshot(psi.system, psi.objective, &snapshot);
  ASSERT_TRUE(solved.ok());
  EXPECT_EQ(solved->outcome, LpOutcome::kOptimal);
  EXPECT_EQ(solved->objective, Rational(2));
  EXPECT_EQ(CountArtificial(snapshot), 0u);
  // The zero-rhs >= rows (0 and 2) entered negated on their slack.
  ASSERT_EQ(snapshot.row_flipped.size(), psi.system.constraints().size());
  for (size_t row = 0; row < snapshot.row_flipped.size(); ++row) {
    EXPECT_EQ(snapshot.row_flipped[row], row == 0 || row == 2) << row;
  }
  // Maximize runs the same (phase-2-only) pivot sequence.
  auto maximized = SimplexSolver().Maximize(psi.system, psi.objective);
  ASSERT_TRUE(maximized.ok());
  EXPECT_EQ(maximized->objective, solved->objective);
  EXPECT_EQ(maximized->pivots, solved->pivots);
}

TEST(SimplexFeasibleStartTest, ResumeAppendsZeroRhsRowWithoutArtificial) {
  PsiShaped psi = MakePsiShaped();
  SimplexSnapshot snapshot;
  auto base =
      SimplexSolver().SolveForSnapshot(psi.system, psi.objective, &snapshot);
  ASSERT_TRUE(base.ok());
  ASSERT_EQ(base->outcome, LpOutcome::kOptimal);
  const size_t artificial_before = CountArtificial(snapshot);

  // A warm delta in the shape SolvePsiOverDelta emits: a new compound
  // class c3 with a new compound attribute b (c1 -> c3) that joins c1's
  // Natt rows, plus c3's own bound rows 1 <= b <= 1 over new unknowns
  // only, so their right-hand sides eliminate to zero.
  SimplexDelta delta;
  delta.num_new_variables = 2;
  const int c3 = snapshot.num_variables();
  const int b = c3 + 1;
  delta.row_extensions.push_back({0, b, Rational(1)});
  delta.row_extensions.push_back({1, b, Rational(1)});
  delta.new_constraints.push_back(
      Make({{c3, -1}, {b, 1}}, Relation::kGreaterEqual, 0));
  delta.new_constraints.push_back(
      Make({{c3, -1}, {b, 1}}, Relation::kLessEqual, 0));
  const LinearExpr& objective = psi.objective;
  auto warm = SimplexSolver().ResumeMaximize(&snapshot, delta, objective);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(CountArtificial(snapshot), artificial_before);
  EXPECT_TRUE(snapshot.row_flipped[psi.system.constraints().size()]);
  EXPECT_FALSE(snapshot.row_flipped[psi.system.constraints().size() + 1]);

  LinearSystem cold;
  for (int v = 0; v <= b; ++v) cold.AddVariable("x");
  for (size_t row = 0; row < psi.system.constraints().size(); ++row) {
    LinearConstraint constraint = psi.system.constraints()[row];
    if (row <= 1) constraint.expr.Add(b, Rational(1));
    cold.AddConstraint(constraint);
  }
  for (const LinearConstraint& constraint : delta.new_constraints) {
    cold.AddConstraint(constraint);
  }
  auto from_scratch = SimplexSolver().Maximize(cold, objective);
  ASSERT_TRUE(from_scratch.ok());
  ASSERT_EQ(warm->outcome, LpOutcome::kOptimal);
  EXPECT_EQ(from_scratch->outcome, LpOutcome::kOptimal);
  EXPECT_EQ(warm->objective, from_scratch->objective);
  EXPECT_TRUE(cold.IsSatisfiedBy(warm->values));
}

/// Random systems in the Ψ mix: homogeneous >= and <= rows, with a few
/// rows of positive right-hand side (`<= b` support caps and `>= b`
/// probe rows) and the odd equality.
LinearSystem RandomHomogeneousMix(Rng* rng, int n, int m) {
  LinearSystem system;
  for (int j = 0; j < n; ++j) system.AddVariable("x");
  for (int i = 0; i < m; ++i) {
    LinearConstraint constraint;
    for (int j = 0; j < n; ++j) {
      int64_t coefficient = rng->NextInt(-3, 3);
      if (coefficient != 0) constraint.expr.Add(j, Rational(coefficient));
    }
    switch (rng->NextInt(0, 5)) {
      case 0:
      case 1:
        constraint.relation = Relation::kGreaterEqual;
        break;
      case 2:
      case 3:
        constraint.relation = Relation::kLessEqual;
        break;
      case 4:
        constraint.relation = Relation::kLessEqual;
        constraint.rhs = Rational(rng->NextInt(1, 4));
        break;
      case 5:
        constraint.relation = rng->NextChance(1, 3) ? Relation::kEqual
                                                    : Relation::kGreaterEqual;
        constraint.rhs = Rational(rng->NextInt(1, 4));
        break;
    }
    system.AddConstraint(constraint);
  }
  return system;
}

TEST(SimplexFeasibleStartProperty, KernelsBitIdenticalOnHomogeneousMix) {
  Rng rng(20261018);
  int skipped_phase_one = 0;
  for (int iteration = 0; iteration < 300; ++iteration) {
    const LinearSystem system =
        RandomHomogeneousMix(&rng, rng.NextInt(1, 5), rng.NextInt(1, 7));
    LinearExpr objective;
    for (int j = 0; j < system.num_variables(); ++j) {
      int64_t coefficient = rng.NextInt(-3, 3);
      if (coefficient != 0) objective.Add(j, Rational(coefficient));
    }
    bool homogeneous = true;
    for (const LinearConstraint& constraint : system.constraints()) {
      homogeneous &= constraint.rhs.is_zero() ||
                     constraint.relation == Relation::kLessEqual;
    }
    ASSERT_NO_FATAL_FAILURE(ExpectKernelsAgree(system, &objective));
    LpResult feasible;
    ASSERT_NO_FATAL_FAILURE(feasible = ExpectKernelsAgree(system, nullptr));
    if (homogeneous) {
      // Feasible at the all-slack basis: not a single pivot.
      EXPECT_EQ(feasible.outcome, LpOutcome::kOptimal);
      EXPECT_EQ(feasible.pivots, 0u) << system.ToString();
      ++skipped_phase_one;
    }
  }
  EXPECT_GT(skipped_phase_one, 20);
}

TEST(SimplexFeasibleStartTest, InfeasibleHomogeneousMixCertificate) {
  // y >= x and x >= 2y force x = y = 0, so x + y >= 1 is infeasible. The
  // two homogeneous rows enter negated; their multipliers must still come
  // out >= 0 on the original >= rows (here forced strictly positive:
  // ν0 >= 3, ν1 >= 2 for ν2 = 1).
  LinearSystem system;
  const int x = system.AddVariable("x");
  const int y = system.AddVariable("y");
  system.AddConstraint(Make({{x, -1}, {y, 1}}, Relation::kGreaterEqual, 0));
  system.AddConstraint(Make({{x, 1}, {y, -2}}, Relation::kGreaterEqual, 0));
  system.AddConstraint(Make({{x, 1}, {y, 1}}, Relation::kGreaterEqual, 1));
  SimplexSolver::Options options;
  options.extract_certificate = true;
  auto result = SimplexSolver(options).CheckFeasible(system);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->outcome, LpOutcome::kInfeasible);
  ASSERT_TRUE(result->infeasibility_certificate.has_value());
  const InfeasibilityCertificate& certificate =
      *result->infeasibility_certificate;
  EXPECT_TRUE(ValidateInfeasibilityCertificate(system, certificate));
  ASSERT_EQ(certificate.row_multipliers.size(), 3u);
  EXPECT_TRUE(certificate.row_multipliers[0].is_positive());
  EXPECT_TRUE(certificate.row_multipliers[1].is_positive());
  EXPECT_TRUE(certificate.row_multipliers[2].is_positive());
}

TEST(SimplexFeasibleStartProperty, HomogeneousProbeCertificatesValidate) {
  // Homogeneous rows plus one Σ x >= 1 probe row, the lazy UNSAT probe's
  // shape: every infeasible verdict carries a certificate that validates.
  Rng rng(1105);
  int infeasible = 0;
  for (int iteration = 0; iteration < 400; ++iteration) {
    const int n = rng.NextInt(1, 4);
    LinearSystem system;
    for (int j = 0; j < n; ++j) system.AddVariable("x");
    const int m = rng.NextInt(1, 5);
    for (int i = 0; i < m; ++i) {
      LinearConstraint constraint;
      for (int j = 0; j < n; ++j) {
        int64_t coefficient = rng.NextInt(-3, 3);
        if (coefficient != 0) constraint.expr.Add(j, Rational(coefficient));
      }
      constraint.relation = rng.NextChance(2, 3) ? Relation::kGreaterEqual
                                                 : Relation::kLessEqual;
      system.AddConstraint(constraint);
    }
    LinearConstraint probe;
    for (int j = 0; j < n; ++j) {
      if (rng.NextChance(2, 3)) probe.expr.Add(j, Rational(1));
    }
    probe.relation = Relation::kGreaterEqual;
    probe.rhs = Rational(1);
    system.AddConstraint(probe);

    SimplexSolver::Options options;
    options.extract_certificate = true;
    auto result = SimplexSolver(options).CheckFeasible(system);
    ASSERT_TRUE(result.ok());
    if (result->outcome == LpOutcome::kOptimal) {
      EXPECT_TRUE(system.IsSatisfiedBy(result->values)) << system.ToString();
      continue;
    }
    ++infeasible;
    ASSERT_TRUE(result->infeasibility_certificate.has_value());
    EXPECT_TRUE(ValidateInfeasibilityCertificate(
        system, *result->infeasibility_certificate))
        << system.ToString();
  }
  EXPECT_GT(infeasible, 40);
}

/// Artificial-removal pivots are pivots. On the homogeneous equalities
/// -x - y = 0 and -y - z = 0 no column has a positive phase-1 reduced
/// cost, so phase 1 stops at the origin with both artificials basic, and
/// both pivots come from moving them out of the basis (RemoveArtificials*
/// in Maximize, ParkOrEvictArtificials in SolveForSnapshot). They count
/// in LpResult::pivots and the governor's pivot counter for every kernel,
/// and are charged as work, so a budget of one trips inside the solve.
TEST(SimplexTest, ArtificialRemovalPivotsAreCountedAndCharged) {
  LinearSystem system;
  int x = system.AddVariable("x");
  int y = system.AddVariable("y");
  int z = system.AddVariable("z");
  system.AddConstraint(Make({{x, -1}, {y, -1}}, Relation::kEqual, 0));
  system.AddConstraint(Make({{y, -1}, {z, -1}}, Relation::kEqual, 0));

  for (SimplexKernel kernel :
       {SimplexKernel::kSparseScalar, SimplexKernel::kDenseRational}) {
    ExecContext exec;
    SimplexSolver::Options options;
    options.kernel = kernel;
    options.exec = &exec;
    auto feasible = SimplexSolver(options).CheckFeasible(system);
    ASSERT_TRUE(feasible.ok()) << SimplexKernelToString(kernel);
    EXPECT_EQ(feasible->outcome, LpOutcome::kOptimal);
    EXPECT_EQ(feasible->pivots, 2u) << SimplexKernelToString(kernel);
    EXPECT_EQ(exec.progress().pivots_executed, 2u)
        << SimplexKernelToString(kernel);
  }

  ExecContext exec;
  SimplexSolver::Options options;
  options.exec = &exec;
  SimplexSnapshot snapshot;
  auto solved =
      SimplexSolver(options).SolveForSnapshot(system, LinearExpr(), &snapshot);
  ASSERT_TRUE(solved.ok());
  EXPECT_EQ(solved->outcome, LpOutcome::kOptimal);
  EXPECT_EQ(solved->pivots, 2u);
  EXPECT_EQ(exec.progress().pivots_executed, 2u);

  for (bool snapshot_solve : {false, true}) {
    ExecContext budgeted;
    budgeted.SetWorkBudget(1);
    SimplexSolver::Options governed;
    governed.exec = &budgeted;
    SimplexSnapshot scratch;
    Result<LpResult> outcome =
        snapshot_solve ? SimplexSolver(governed).SolveForSnapshot(
                             system, LinearExpr(), &scratch)
                       : SimplexSolver(governed).CheckFeasible(system);
    EXPECT_FALSE(outcome.ok()) << snapshot_solve;
    ASSERT_TRUE(budgeted.tripped()) << snapshot_solve;
    EXPECT_EQ(budgeted.report().kind, LimitKind::kWorkBudget);
    EXPECT_EQ(budgeted.report().phase, "simplex");
  }
}

}  // namespace
}  // namespace car
