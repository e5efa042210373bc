#ifndef CAR_MATH_SCALAR_H_
#define CAR_MATH_SCALAR_H_

#include <cstdint>
#include <numeric>
#include <ostream>
#include <string>

#include "math/rational.h"

namespace car {

/// The scalar type of the simplex kernel: an exact rational with a
/// word-sized fast path.
///
/// Representation: an int64 numerator over a positive int64 denominator,
/// always in lowest terms, for as long as the value fits in machine
/// words; the first operation whose intermediate or result overflows an
/// int64 promotes the value to a heap-allocated BigInt-backed Rational.
/// Overflow is detected with __builtin_*_overflow — never silently
/// wrapped — so a Scalar computation produces exactly the value the same
/// Rational computation would, only (usually) without touching the heap.
///
/// The representation is canonical: a Scalar is stored in big form if and
/// only if its reduced numerator or denominator does not fit in int64
/// (every big-path result that fits demotes back to words). Equality and
/// ordering are therefore pure functions of the value, which is what
/// keeps simplex pivot sequences — and hence verdicts and certificates —
/// bit-identical to the all-Rational kernel.
///
/// Scalar is not a drop-in replacement for Rational everywhere: it is
/// the tableau cell type. Results cross back into Rational at the solver
/// boundary via ToRational().
class Scalar {
 public:
  /// Constructs zero.
  Scalar() : num_(0), den_(1) {}

  /// Constructs an integer value.
  Scalar(int64_t value)  // NOLINT(runtime/explicit): numeric promotion.
      : num_(value), den_(1) {}
  Scalar(int value)  // NOLINT(runtime/explicit): numeric promotion.
      : num_(value), den_(1) {}

  /// Converts from Rational: small iff the reduced value fits in words.
  explicit Scalar(const Rational& value);

  /// The small value num/den of a fraction already in lowest terms with
  /// den > 0: what Scalar(Rational(num, den)) holds, without the BigInt
  /// round trip. For codecs that have validated both conditions.
  static Scalar FromReduced(int64_t num, int64_t den) {
    Scalar value;
    value.num_ = num;
    value.den_ = den;
    return value;
  }

  Scalar(const Scalar& other) : num_(other.num_), den_(other.den_) {
    if (other.big_ != nullptr) big_ = new Rational(*other.big_);
  }
  Scalar(Scalar&& other) noexcept
      : num_(other.num_), den_(other.den_), big_(other.big_) {
    other.big_ = nullptr;
    other.num_ = 0;
    other.den_ = 1;
  }
  Scalar& operator=(const Scalar& other) {
    if (this == &other) return *this;
    Rational* copy =
        other.big_ != nullptr ? new Rational(*other.big_) : nullptr;
    delete big_;
    big_ = copy;
    num_ = other.num_;
    den_ = other.den_;
    return *this;
  }
  Scalar& operator=(Scalar&& other) noexcept {
    if (this == &other) return *this;
    delete big_;
    big_ = other.big_;
    num_ = other.num_;
    den_ = other.den_;
    other.big_ = nullptr;
    other.num_ = 0;
    other.den_ = 1;
    return *this;
  }
  ~Scalar() { delete big_; }

  /// True while the value is held in the int64 fast path.
  bool is_small() const { return big_ == nullptr; }
  /// Numerator and denominator of a small value (is_small()).
  int64_t small_numerator() const { return num_; }
  int64_t small_denominator() const { return den_; }

  bool is_zero() const { return big_ == nullptr && num_ == 0; }
  bool is_negative() const {
    return big_ == nullptr ? num_ < 0 : big_->is_negative();
  }
  bool is_positive() const {
    return big_ == nullptr ? num_ > 0 : big_->is_positive();
  }
  int sign() const {
    if (big_ != nullptr) return big_->sign();
    return num_ == 0 ? 0 : (num_ < 0 ? -1 : 1);
  }

  /// The value as a Rational (exact in either representation).
  Rational ToRational() const;

  /// Renders "a" for integers, "a/b" otherwise.
  std::string ToString() const;

  Scalar operator-() const;

  // Integer operands (den == 1 on both sides; Ψ's coefficients are all
  // integers) take one checked int64 operation and no gcd; the result is
  // an integer, so it is already in lowest terms. On overflow *this is
  // left untouched for the slow path.
  Scalar& operator+=(const Scalar& other) {
    if (big_ == nullptr && other.big_ == nullptr) {
      if (den_ == 1 && other.den_ == 1) {
        int64_t sum;
        if (!__builtin_add_overflow(num_, other.num_, &sum)) {
          num_ = sum;
          return *this;
        }
      } else if (AddSmall(other.num_, other.den_)) {
        return *this;
      }
    }
    AddSlow(other);
    return *this;
  }
  Scalar& operator-=(const Scalar& other) {
    if (big_ == nullptr && other.big_ == nullptr) {
      if (den_ == 1 && other.den_ == 1) {
        int64_t difference;
        if (!__builtin_sub_overflow(num_, other.num_, &difference)) {
          num_ = difference;
          return *this;
        }
      } else if (other.num_ != INT64_MIN &&  // -INT64_MIN overflows.
                 AddSmall(-other.num_, other.den_)) {
        return *this;
      }
    }
    SubSlow(other);
    return *this;
  }
  Scalar& operator*=(const Scalar& other) {
    if (big_ == nullptr && other.big_ == nullptr) {
      if (den_ == 1 && other.den_ == 1) {
        int64_t product;
        if (!__builtin_mul_overflow(num_, other.num_, &product)) {
          num_ = product;
          return *this;
        }
      } else if (MulSmall(other)) {
        return *this;
      }
    }
    MulSlow(other);
    return *this;
  }
  /// CHECK-fails on division by zero.
  Scalar& operator/=(const Scalar& other);

  Scalar operator+(const Scalar& other) const {
    Scalar result = *this;
    result += other;
    return result;
  }
  Scalar operator-(const Scalar& other) const {
    Scalar result = *this;
    result -= other;
    return result;
  }
  Scalar operator*(const Scalar& other) const {
    Scalar result = *this;
    result *= other;
    return result;
  }
  Scalar operator/(const Scalar& other) const {
    Scalar result = *this;
    result /= other;
    return result;
  }

  bool operator==(const Scalar& other) const {
    // Canonical representation: small and big forms never hold the same
    // value, so mixed-form operands are always unequal.
    if (big_ == nullptr && other.big_ == nullptr) {
      return num_ == other.num_ && den_ == other.den_;
    }
    if (big_ != nullptr && other.big_ != nullptr) {
      return *big_ == *other.big_;
    }
    return false;
  }
  bool operator!=(const Scalar& other) const { return !(*this == other); }
  bool operator<(const Scalar& other) const;
  bool operator<=(const Scalar& other) const { return !(other < *this); }
  bool operator>(const Scalar& other) const { return other < *this; }
  bool operator>=(const Scalar& other) const { return !(*this < other); }

  /// Number of lazy promotions (small-path overflows that forced a value
  /// into BigInt form) performed by THIS thread since it started. The
  /// simplex kernel snapshots this around a solve to report the solve's
  /// promotion count; counts are deterministic because each solve runs on
  /// one thread and promotion depends only on the value sequence.
  static uint64_t promotions_this_thread();

 private:
  /// In-place a/b += c/d on the small path. Returns false (leaving *this
  /// untouched) if any intermediate overflows int64.
  bool AddSmall(int64_t c, int64_t d);
  bool MulSmall(const Scalar& other);

  // Slow paths: compute via Rational, then demote if the result fits.
  void AddSlow(const Scalar& other);
  void SubSlow(const Scalar& other);
  void MulSlow(const Scalar& other);
  void DivSlow(const Scalar& other);

  /// Installs `value`, demoting to the small path when it fits. `value`
  /// is already reduced (Rational maintains lowest terms).
  void SetFromRational(const Rational& value);

  int64_t num_ = 0;  // Valid iff big_ == nullptr; reduced, den_ > 0.
  int64_t den_ = 1;
  Rational* big_ = nullptr;  // Owned. Non-null iff the value exceeds words.
};

inline std::ostream& operator<<(std::ostream& os, const Scalar& value) {
  return os << value.ToString();
}

}  // namespace car

#endif  // CAR_MATH_SCALAR_H_
