#include "math/scalar.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#include "base/rng.h"
#include "math/rational.h"

namespace car {
namespace {

/// Whether `value` is representable on the Scalar small path.
bool FitsSmall(const Rational& value) {
  return value.numerator().FitsInt64() && value.denominator().FitsInt64();
}

/// Asserts the Scalar/Rational pair invariant: same value, and the
/// Scalar representation is canonical (small iff the reduced value fits
/// in words).
void ExpectMatches(const Scalar& scalar, const Rational& oracle) {
  ASSERT_EQ(scalar.ToRational(), oracle);
  ASSERT_EQ(scalar.is_small(), FitsSmall(oracle));
  ASSERT_EQ(scalar.is_zero(), oracle.is_zero());
  ASSERT_EQ(scalar.is_negative(), oracle.is_negative());
  ASSERT_EQ(scalar.is_positive(), oracle.is_positive());
  ASSERT_EQ(scalar.sign(), oracle.sign());
  ASSERT_EQ(scalar.ToString(), oracle.ToString());
}

TEST(ScalarTest, DefaultIsZero) {
  Scalar zero;
  EXPECT_TRUE(zero.is_zero());
  EXPECT_TRUE(zero.is_small());
  EXPECT_EQ(zero.ToString(), "0");
  EXPECT_EQ(zero.ToRational(), Rational(0));
}

TEST(ScalarTest, SmallArithmeticMatchesRational) {
  Scalar half = Scalar(1) / Scalar(2);
  Scalar third = Scalar(1) / Scalar(3);
  EXPECT_EQ((half + third).ToString(), "5/6");
  EXPECT_EQ((half - third).ToString(), "1/6");
  EXPECT_EQ((half * third).ToString(), "1/6");
  EXPECT_EQ((half / third).ToString(), "3/2");
  EXPECT_EQ((-half).ToString(), "-1/2");
  EXPECT_TRUE((half - half).is_zero());
  // Exact cancellation restores the canonical zero 0/1, not 0/4.
  EXPECT_EQ((half - half).ToString(), "0");
}

TEST(ScalarTest, DivisionNormalizesSigns) {
  EXPECT_EQ((Scalar(6) / Scalar(-4)).ToString(), "-3/2");
  EXPECT_EQ((Scalar(-6) / Scalar(-4)).ToString(), "3/2");
  EXPECT_EQ((Scalar(-6) / Scalar(4)).ToString(), "-3/2");
}

TEST(ScalarTest, EqualityIsValueBased) {
  // Same value through different construction routes.
  EXPECT_EQ(Scalar(1) / Scalar(3), Scalar(Rational(BigInt(2), BigInt(6))));
  // A big value and any small value are never equal (canonical form).
  Scalar big = Scalar(INT64_MAX) * Scalar(INT64_MAX);
  EXPECT_FALSE(big.is_small());
  EXPECT_NE(big, Scalar(1));
  EXPECT_EQ(big, Scalar(INT64_MAX) * Scalar(INT64_MAX));
}

TEST(ScalarTest, PromotionOnOverflowAndDemotionBack) {
  const uint64_t before = Scalar::promotions_this_thread();
  Scalar value(INT64_MAX);
  value *= Scalar(2);  // 2 * (2^63 - 1) overflows int64.
  EXPECT_FALSE(value.is_small());
  EXPECT_EQ(Scalar::promotions_this_thread(), before + 1);
  ExpectMatches(value, Rational(INT64_MAX) * Rational(2));
  value /= Scalar(2);  // Fits again: the big path must demote.
  EXPECT_TRUE(value.is_small());
  ExpectMatches(value, Rational(INT64_MAX));
}

TEST(ScalarTest, AdditionOverflowBoundary) {
  ExpectMatches(Scalar(INT64_MAX) + Scalar(1),
                Rational(INT64_MAX) + Rational(1));
  ExpectMatches(Scalar(INT64_MAX) + Scalar(INT64_MAX),
                Rational(INT64_MAX) + Rational(INT64_MAX));
  ExpectMatches(Scalar(INT64_MIN) - Scalar(1),
                Rational(INT64_MIN) - Rational(1));
  // One below the boundary stays small.
  Scalar below = Scalar(INT64_MAX) + Scalar(-1) + Scalar(1);
  EXPECT_TRUE(below.is_small());
  ExpectMatches(below, Rational(INT64_MAX));
}

TEST(ScalarTest, DenominatorOverflowBoundary) {
  // 1/(2^32) + 1/(2^32 - 1): coprime denominators whose product
  // overflows a positive int64.
  const int64_t d1 = int64_t{1} << 32;
  const int64_t d2 = d1 - 1;
  ExpectMatches(Scalar(1) / Scalar(d1) + Scalar(1) / Scalar(d2),
                Rational(1) / Rational(d1) + Rational(1) / Rational(d2));
  // With a common factor the Knuth reduction keeps the sum small:
  // 1/2^62 + 1/2^61 = 3/2^62.
  const int64_t p62 = int64_t{1} << 62;
  Scalar sum = Scalar(1) / Scalar(p62) + Scalar(1) / Scalar(p62 / 2);
  EXPECT_TRUE(sum.is_small());
  ExpectMatches(sum, Rational(3) / Rational(p62));
}

TEST(ScalarTest, Int64MinEdges) {
  const Rational min_oracle(INT64_MIN);
  Scalar min_scalar(INT64_MIN);
  ExpectMatches(min_scalar, min_oracle);
  // -INT64_MIN = 2^63 does not fit: negation must promote, exactly.
  ExpectMatches(-min_scalar, -min_oracle);
  // x - INT64_MIN routes through the slow path (negating the subtrahend
  // would overflow first).
  ExpectMatches(Scalar(0) - min_scalar, Rational(0) - min_oracle);
  ExpectMatches(Scalar(INT64_MIN) / Scalar(INT64_MIN), Rational(1));
  // Dividing by INT64_MIN cannot build the reciprocal in words.
  ExpectMatches(Scalar(1) / min_scalar, Rational(1) / min_oracle);
  ExpectMatches(min_scalar * Scalar(-1), min_oracle * Rational(-1));
}

TEST(ScalarTest, GcdEdgeCases) {
  // gcd with zero numerator: 0 +/- x and 0 * x keep the canonical zero.
  ExpectMatches(Scalar(0) + Scalar(7) / Scalar(3),
                Rational(0) + Rational(7) / Rational(3));
  ExpectMatches(Scalar(0) * Scalar(7) / Scalar(3), Rational(0));
  // Negative numerators reduce by magnitude: -6/4 -> -3/2.
  ExpectMatches(Scalar(-6) / Scalar(4), Rational(-6) / Rational(4));
  // Cross-reduction in multiplication: (2^62/3) * (3/2^62) = 1 without
  // ever overflowing.
  const int64_t p62 = int64_t{1} << 62;
  Scalar a = Scalar(p62) / Scalar(3);
  Scalar b = Scalar(3) / Scalar(p62);
  Scalar product = a * b;
  EXPECT_TRUE(product.is_small());
  ExpectMatches(product, Rational(1));
}

TEST(ScalarTest, IntegerFastPathBoundaries) {
  const Rational max_oracle(INT64_MAX);
  const Rational min_oracle(INT64_MIN);
  // In place: an overflowing integer op must leave the operand intact for
  // the slow path, so the result is exact (INT64_MAX+1, INT64_MIN-1,
  // INT64_MIN*-1 = 2^63).
  Scalar value(INT64_MAX);
  value += Scalar(1);
  ExpectMatches(value, max_oracle + Rational(1));
  value = Scalar(INT64_MIN);
  value -= Scalar(1);
  ExpectMatches(value, min_oracle - Rational(1));
  value = Scalar(INT64_MIN);
  value *= Scalar(-1);
  ExpectMatches(value, min_oracle * Rational(-1));
  value = Scalar(INT64_MAX);
  value += value;  // Self-aliasing overflow.
  ExpectMatches(value, max_oracle + max_oracle);
  // Results exactly at the boundary stay small.
  ExpectMatches(Scalar(INT64_MIN) - Scalar(INT64_MIN), Rational(0));
  ExpectMatches(Scalar(-1) - Scalar(INT64_MIN), max_oracle);
  ExpectMatches(Scalar(INT64_MAX - 1) + Scalar(1), max_oracle);
  ExpectMatches(Scalar(INT64_MIN + 1) - Scalar(1), min_oracle);
  ExpectMatches(Scalar(-(int64_t{1} << 32)) * Scalar(int64_t{1} << 31),
                min_oracle);
  ExpectMatches(Scalar(int64_t{1} << 32) * Scalar(int64_t{1} << 31),
                Rational(int64_t{1} << 32) * Rational(int64_t{1} << 31));
  ExpectMatches(Scalar(INT64_MAX) * Scalar(0), Rational(0));
  // An integer mixed with a fraction takes the general path, in either
  // operand order, and products that cancel the denominator come back as
  // integers.
  const Scalar three_quarters = Scalar(3) / Scalar(4);
  const Rational three_quarters_oracle = Rational(3) / Rational(4);
  ExpectMatches(Scalar(5) + three_quarters,
                Rational(5) + three_quarters_oracle);
  ExpectMatches(three_quarters - Scalar(5),
                three_quarters_oracle - Rational(5));
  ExpectMatches(Scalar(4) * three_quarters, Rational(3));
  ExpectMatches(three_quarters * Scalar(-8), Rational(-6));
  ExpectMatches(Scalar(INT64_MAX) + three_quarters,
                max_oracle + three_quarters_oracle);
  ExpectMatches(Scalar(INT64_MIN) - three_quarters,
                min_oracle - three_quarters_oracle);
}

TEST(ScalarTest, IntegerHeavyDifferentialVsRationalOracle) {
  // Mostly integer operands of every width up to 63 bits, with one in
  // four a fraction: exercises the integer fast paths at the overflow
  // boundary and their hand-off to the fraction and big paths.
  Rng rng(0x1e6e'2026'10'18ull);
  for (int iteration = 0; iteration < 20000; ++iteration) {
    Rational operands[2];
    for (Rational& operand : operands) {
      const int bits = rng.NextInt(0, 63);
      int64_t num = static_cast<int64_t>(
          rng.Next() & (bits == 63 ? ~uint64_t{0} >> 1
                                   : (uint64_t{1} << bits) - 1));
      if (rng.NextChance(1, 2)) num = -num - (bits == 63 ? 1 : 0);
      const int64_t den = rng.NextChance(1, 4) ? rng.NextInt(2, 9) : 1;
      operand = Rational(BigInt(num), BigInt(den));
    }
    Scalar lhs(operands[0]);
    const Scalar rhs(operands[1]);
    switch (rng.NextInt(0, 2)) {
      case 0:
        lhs += rhs;
        ASSERT_NO_FATAL_FAILURE(ExpectMatches(lhs, operands[0] + operands[1]))
            << "iteration " << iteration;
        break;
      case 1:
        lhs -= rhs;
        ASSERT_NO_FATAL_FAILURE(ExpectMatches(lhs, operands[0] - operands[1]))
            << "iteration " << iteration;
        break;
      case 2:
        lhs *= rhs;
        ASSERT_NO_FATAL_FAILURE(ExpectMatches(lhs, operands[0] * operands[1]))
            << "iteration " << iteration;
        break;
    }
  }
}

/// One random operand as a matched (Scalar, Rational) pair. Numerator
/// and denominator bit widths are sampled uniformly, so products and
/// cross-multiplications straddle the int64 overflow boundary; about one
/// operand in eight is made big outright to exercise mixed-form paths.
std::pair<Scalar, Rational> RandomOperand(Rng* rng) {
  const int num_bits = rng->NextInt(0, 62);
  const int den_bits = rng->NextInt(0, 62);
  int64_t num =
      static_cast<int64_t>(rng->Next() & ((uint64_t{1} << num_bits) - 1));
  if (rng->NextChance(1, 2)) num = -num;
  const int64_t den = static_cast<int64_t>(
      (rng->Next() & ((uint64_t{1} << den_bits) - 1)) | 1);
  Rational oracle{BigInt(num), BigInt(den)};
  if (rng->NextChance(1, 8)) {
    // Square it and shift past 2^63: guaranteed big unless zero.
    oracle = oracle * oracle * Rational(INT64_MAX) * Rational(4);
  }
  Scalar scalar(oracle);
  return {std::move(scalar), std::move(oracle)};
}

TEST(ScalarTest, RandomizedDifferentialVsRationalOracle) {
  Rng rng(0x5ca1a9'2026'08'06ull);
  const uint64_t promotions_before = Scalar::promotions_this_thread();
  Scalar accumulator;
  Rational oracle;
  int big_iterations = 0;
  for (int iteration = 0; iteration < 100000; ++iteration) {
    auto [operand_scalar, operand_oracle] = RandomOperand(&rng);
    ASSERT_NO_FATAL_FAILURE(ExpectMatches(operand_scalar, operand_oracle))
        << "iteration " << iteration;
    switch (rng.NextInt(0, 5)) {
      case 0:
        accumulator += operand_scalar;
        oracle += operand_oracle;
        break;
      case 1:
        accumulator -= operand_scalar;
        oracle -= operand_oracle;
        break;
      case 2:
        accumulator *= operand_scalar;
        oracle *= operand_oracle;
        break;
      case 3:
        if (operand_oracle.is_zero()) break;
        accumulator /= operand_scalar;
        oracle /= operand_oracle;
        break;
      case 4:
        accumulator = -accumulator;
        oracle = -oracle;
        break;
      case 5:  // Self-aliasing compound ops.
        accumulator += accumulator;
        oracle += oracle;
        break;
    }
    ASSERT_NO_FATAL_FAILURE(ExpectMatches(accumulator, oracle))
        << "iteration " << iteration;
    // Comparisons must agree with the oracle in either representation.
    ASSERT_EQ(accumulator < operand_scalar, oracle < operand_oracle)
        << "iteration " << iteration;
    ASSERT_EQ(accumulator == operand_scalar, oracle == operand_oracle)
        << "iteration " << iteration;
    ASSERT_EQ(accumulator >= operand_scalar, oracle >= operand_oracle)
        << "iteration " << iteration;
    // Keep magnitudes bounded so BigInt growth cannot dominate the run:
    // restart the accumulator after a stretch of big-form iterations.
    if (!accumulator.is_small() && ++big_iterations > 8) {
      big_iterations = 0;
      accumulator = std::move(operand_scalar);
      oracle = std::move(operand_oracle);
    }
  }
  // The widths sampled above must have forced both promotion (small ->
  // big on overflow) and demotion (big results that fit return to
  // words); promotions are observable through the thread counter,
  // demotions through the canonical-form assertions in ExpectMatches.
  EXPECT_GT(Scalar::promotions_this_thread(), promotions_before);
}

TEST(ScalarTest, CopyAndMoveSemantics) {
  Scalar big = Scalar(INT64_MAX) * Scalar(INT64_MAX);
  Scalar copy = big;
  EXPECT_EQ(copy, big);
  Scalar moved = std::move(big);
  EXPECT_EQ(moved, copy);
  Scalar small(42);
  copy = small;  // Big -> small assignment must drop the heap value.
  EXPECT_TRUE(copy.is_small());
  EXPECT_EQ(copy, Scalar(42));
  copy = copy;  // Self-assignment.
  EXPECT_EQ(copy, Scalar(42));
}

}  // namespace
}  // namespace car
