#include "math/scalar.h"

#include <numeric>

#include "base/check.h"
#include "base/strings.h"

namespace car {

namespace {

/// Promotions performed by this thread (see promotions_this_thread()).
thread_local uint64_t tls_promotions = 0;

/// |value| as uint64, correct for INT64_MIN.
inline uint64_t Magnitude(int64_t value) {
  return value < 0 ? ~static_cast<uint64_t>(value) + 1
                   : static_cast<uint64_t>(value);
}

inline uint64_t Gcd64(uint64_t a, uint64_t b) { return std::gcd(a, b); }

}  // namespace

uint64_t Scalar::promotions_this_thread() { return tls_promotions; }

Scalar::Scalar(const Rational& value) { SetFromRational(value); }

void Scalar::SetFromRational(const Rational& value) {
  if (value.numerator().FitsInt64() && value.denominator().FitsInt64()) {
    num_ = value.numerator().ToInt64();
    den_ = value.denominator().ToInt64();
    delete big_;
    big_ = nullptr;
    return;
  }
  if (big_ == nullptr) ++tls_promotions;
  if (big_ != nullptr) {
    *big_ = value;
  } else {
    big_ = new Rational(value);
  }
}

Rational Scalar::ToRational() const {
  if (big_ != nullptr) return *big_;
  return Rational(BigInt(num_), BigInt(den_));
}

std::string Scalar::ToString() const {
  if (big_ != nullptr) return big_->ToString();
  if (den_ == 1) return std::to_string(num_);
  return StrCat(num_, "/", den_);
}

Scalar Scalar::operator-() const {
  Scalar result = *this;
  if (result.big_ == nullptr && result.num_ != INT64_MIN) {
    result.num_ = -result.num_;
    return result;
  }
  // -INT64_MIN overflows (promotes); big values stay big.
  result.SetFromRational(-ToRational());
  return result;
}

bool Scalar::AddSmall(int64_t c, int64_t d) {
  // a/b + c/d with a/b, c/d reduced and b, d > 0 (Knuth 4.5.1): with
  // g1 = gcd(b, d), the parts b/g1 and d/g1 are coprime to the sum
  // t = a*(d/g1) + c*(b/g1), so the final reduction only needs
  // gcd(t, g1).
  // A gcd of 1 (coprime denominators, or an already reduced sum) skips
  // its divisions.
  const int64_t g1 = static_cast<int64_t>(
      Gcd64(static_cast<uint64_t>(den_), static_cast<uint64_t>(d)));
  const int64_t d1 = g1 == 1 ? d : d / g1;
  const int64_t b1 = g1 == 1 ? den_ : den_ / g1;
  int64_t lhs, rhs, t, new_den;
  if (__builtin_mul_overflow(num_, d1, &lhs)) return false;
  if (__builtin_mul_overflow(c, b1, &rhs)) return false;
  if (__builtin_add_overflow(lhs, rhs, &t)) return false;
  if (t == 0) {
    num_ = 0;
    den_ = 1;
    return true;
  }
  if (__builtin_mul_overflow(den_, d1, &new_den)) return false;
  const int64_t g2 =
      g1 == 1 ? 1
              : static_cast<int64_t>(
                    Gcd64(Magnitude(t), static_cast<uint64_t>(g1)));
  num_ = g2 == 1 ? t : t / g2;
  den_ = g2 == 1 ? new_den : new_den / g2;
  return true;
}

bool Scalar::MulSmall(const Scalar& other) {
  // (a/b) * (c/d) with cross-reduction: dividing a by gcd(|a|, d) and c
  // by gcd(|c|, b) first keeps the products as small as possible and
  // leaves the result already in lowest terms.
  const uint64_t g1 =
      Gcd64(Magnitude(num_), static_cast<uint64_t>(other.den_));
  const uint64_t g2 =
      Gcd64(Magnitude(other.num_), static_cast<uint64_t>(den_));
  // Denominators are strictly positive, so g1 and g2 are nonzero and
  // (dividing an int64) fit in int64 themselves. A gcd of 1 skips its
  // divisions.
  const int64_t a = g1 == 1 ? num_ : num_ / static_cast<int64_t>(g1);
  const int64_t c =
      g2 == 1 ? other.num_ : other.num_ / static_cast<int64_t>(g2);
  const int64_t b = g2 == 1 ? den_ : den_ / static_cast<int64_t>(g2);
  const int64_t d =
      g1 == 1 ? other.den_ : other.den_ / static_cast<int64_t>(g1);
  int64_t new_num, new_den;
  if (__builtin_mul_overflow(a, c, &new_num)) return false;
  if (__builtin_mul_overflow(b, d, &new_den)) return false;
  num_ = new_num;
  den_ = new_den;
  if (num_ == 0) den_ = 1;
  return true;
}

Scalar& Scalar::operator/=(const Scalar& other) {
  CAR_CHECK(!other.is_zero()) << "scalar division by zero";
  if (big_ == nullptr && other.big_ == nullptr &&
      other.num_ != INT64_MIN) {
    // Multiply by the reciprocal, keeping the denominator positive.
    Scalar reciprocal;
    reciprocal.num_ = other.num_ < 0 ? -other.den_ : other.den_;
    reciprocal.den_ = other.num_ < 0 ? -other.num_ : other.num_;
    if (MulSmall(reciprocal)) return *this;
  }
  DivSlow(other);
  return *this;
}

void Scalar::AddSlow(const Scalar& other) {
  SetFromRational(ToRational() + other.ToRational());
}

void Scalar::SubSlow(const Scalar& other) {
  SetFromRational(ToRational() - other.ToRational());
}

void Scalar::MulSlow(const Scalar& other) {
  SetFromRational(ToRational() * other.ToRational());
}

void Scalar::DivSlow(const Scalar& other) {
  SetFromRational(ToRational() / other.ToRational());
}

bool Scalar::operator<(const Scalar& other) const {
#ifdef __SIZEOF_INT128__
  if (big_ == nullptr && other.big_ == nullptr) {
    // Denominators are positive, so cross-multiplication preserves
    // order; the products fit in 128 bits by construction.
    return static_cast<__int128>(num_) * other.den_ <
           static_cast<__int128>(other.num_) * den_;
  }
#endif
  return ToRational() < other.ToRational();
}

}  // namespace car
