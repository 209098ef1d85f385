#pragma once
// Exact rational arithmetic for probability computation.
//
// The exact cone-measure enumerator (sched/cone_measure.hpp) computes
// execution probabilities as products/sums of transition weights. Using
// rationals there means total-variation distances of small systems are
// *exact*: a claim like "the dummy-adversary insertion has epsilon = 0"
// (Lemma D.1) is checked as equality, not approximate closeness.
//
// Numerator/denominator are int64 and every result is normalized. The
// common path stays in 64 bits and never divides 128-bit numbers:
//   - products cross-cancel first: with g1 = gcd(|p|, s) and
//     g2 = gcd(|r|, q), (p/g1)(r/g2) / ((q/g2)(s/g1)) is already in
//     lowest terms, so a 64-bit multiply that overflows means the
//     canonical result cannot fit;
//   - sums use Henrici's form: with g = gcd(q, s),
//     t = p(s/g) + r(q/g) and g2 = gcd(t, g), the result is
//     (t/g2) / ((q/g)(s/g2));
//   - gcds are binary (Stein) gcds on uint64 magnitudes.
// Only a sum whose 64-bit intermediate overflows (the result may still
// fit) takes the rare fallback: __int128 cross-products reduced by a
// 128-bit Euclid gcd. Canonical forms are unique, so either route gives
// the same value. A result that does not fit in int64 after reduction
// throws std::overflow_error rather than silently wrapping.

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>

namespace cdse {

class Rational {
 public:
  constexpr Rational() : num_(0), den_(1) {}
  constexpr Rational(std::int64_t n) : num_(n), den_(1) {}  // NOLINT implicit
  Rational(std::int64_t num, std::int64_t den);

  std::int64_t num() const { return num_; }
  std::int64_t den() const { return den_; }

  double to_double() const { return static_cast<double>(num_) / den_; }
  std::string to_string() const;

  bool is_zero() const { return num_ == 0; }

  Rational operator-() const;
  Rational& operator+=(const Rational& o);
  Rational& operator-=(const Rational& o);
  Rational& operator*=(const Rational& o);
  Rational& operator/=(const Rational& o);

  friend Rational operator+(Rational a, const Rational& b) { return a += b; }
  friend Rational operator-(Rational a, const Rational& b) { return a -= b; }
  friend Rational operator*(Rational a, const Rational& b) { return a *= b; }
  friend Rational operator/(Rational a, const Rational& b) { return a /= b; }

  friend bool operator==(const Rational& a, const Rational& b) {
    return a.num_ == b.num_ && a.den_ == b.den_;
  }
  friend bool operator!=(const Rational& a, const Rational& b) {
    return !(a == b);
  }
  friend bool operator<(const Rational& a, const Rational& b);
  friend bool operator<=(const Rational& a, const Rational& b) {
    return a < b || a == b;
  }
  friend bool operator>(const Rational& a, const Rational& b) { return b < a; }
  friend bool operator>=(const Rational& a, const Rational& b) {
    return b <= a;
  }

  static Rational abs(const Rational& a) { return a.num_ < 0 ? -a : a; }

 private:
  /// The sum fallback's normaliser: num/den (den > 0) reduced by a
  /// 128-bit Euclid gcd, or std::overflow_error when it does not fit.
  static Rational from_i128(__int128 num, __int128 den);
  /// The canonical rational +-num/den of coprime magnitudes (den > 0),
  /// or std::overflow_error when it does not fit in int64.
  static Rational from_magnitudes(bool negative, std::uint64_t num,
                                  std::uint64_t den);
  /// +-(a/b)(c/d) for coprime magnitude pairs (a, b) and (c, d), each
  /// cross-cancelled against the other before one 64-bit multiply.
  static Rational from_product(bool negative, std::uint64_t a,
                               std::uint64_t b, std::uint64_t c,
                               std::uint64_t d);
  std::int64_t num_;
  std::int64_t den_;  // invariant: den_ > 0, gcd(|num_|, den_) == 1
};

std::ostream& operator<<(std::ostream& os, const Rational& r);

}  // namespace cdse
