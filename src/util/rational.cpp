#include "util/rational.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <ostream>

namespace cdse {
namespace {

constexpr std::uint64_t kInt64Max = std::numeric_limits<std::int64_t>::max();

[[noreturn]] void throw_overflow() {
  throw std::overflow_error("Rational: 64-bit overflow after reduction");
}

/// |v| as an unsigned value; exact for INT64_MIN (2^63).
std::uint64_t magnitude(std::int64_t v) {
  return v < 0 ? 0 - static_cast<std::uint64_t>(v)
               : static_cast<std::uint64_t>(v);
}

/// Binary (Stein) gcd: shifts and subtractions only, no division. The
/// loop computes the next shift from the difference before it takes the
/// minimum, which keeps the dependency chain short.
std::uint64_t gcd64(std::uint64_t a, std::uint64_t b) {
  if (a == 0) return b;
  if (b == 0) return a;
  if (a == 1 || b == 1) return 1;
  int az = std::countr_zero(a);
  const int bz = std::countr_zero(b);
  const int shift = std::min(az, bz);
  b >>= bz;
  while (a != 0) {
    a >>= az;
    const std::uint64_t diff = a > b ? a - b : b - a;
    az = std::countr_zero(diff);
    b = std::min(a, b);
    a = diff;
  }
  return b << shift;
}

/// a / g for a divisor g of a; a power of two (every gcd of dyadic
/// weights) is a shift, exact for negative a too.
template <typename Int>
Int div_exact(Int a, std::uint64_t g) {
  return (g & (g - 1)) == 0 ? a >> std::countr_zero(g)
                            : a / static_cast<Int>(g);
}

/// 128-bit Euclid gcd: only the sum-overflow fallback needs it.
__int128 gcd128(__int128 a, __int128 b) {
  if (a < 0) a = -a;
  if (b < 0) b = -b;
  while (b != 0) {
    __int128 t = a % b;
    a = b;
    b = t;
  }
  return a;
}

std::int64_t narrow(__int128 v) {
  if (v > std::numeric_limits<std::int64_t>::max() ||
      v < std::numeric_limits<std::int64_t>::min()) {
    throw_overflow();
  }
  return static_cast<std::int64_t>(v);
}

}  // namespace

Rational Rational::from_i128(__int128 num, __int128 den) {
  __int128 g = gcd128(num, den);
  if (g > 1) {
    num /= g;
    den /= g;
  }
  Rational r;
  r.num_ = narrow(num);
  r.den_ = narrow(den);
  return r;
}

Rational Rational::from_magnitudes(bool negative, std::uint64_t num,
                                   std::uint64_t den) {
  // INT64_MIN is the one value whose magnitude exceeds INT64_MAX.
  if (den > kInt64Max || num > kInt64Max + (negative ? 1 : 0)) {
    throw_overflow();
  }
  Rational r;
  r.num_ = static_cast<std::int64_t>(negative ? 0 - num : num);
  r.den_ = static_cast<std::int64_t>(den);
  return r;
}

Rational Rational::from_product(bool negative, std::uint64_t a,
                                 std::uint64_t b, std::uint64_t c,
                                 std::uint64_t d) {
  // (a/g1)(c/g2) / ((b/g2)(d/g1)) is in lowest terms, so a product that
  // overflows 64 bits means the canonical result cannot fit either.
  const std::uint64_t g1 = gcd64(a, d);
  const std::uint64_t g2 = gcd64(c, b);
  std::uint64_t num = 0;
  std::uint64_t den = 0;
  if (__builtin_mul_overflow(div_exact(a, g1), div_exact(c, g2), &num) ||
      __builtin_mul_overflow(div_exact(b, g2), div_exact(d, g1), &den)) {
    throw_overflow();
  }
  return from_magnitudes(negative, num, den);
}

Rational::Rational(std::int64_t num, std::int64_t den) {
  if (den == 0) throw std::domain_error("Rational: zero denominator");
  const std::uint64_t n = magnitude(num);
  const std::uint64_t d = magnitude(den);
  const std::uint64_t g = gcd64(n, d);
  *this = from_magnitudes(n != 0 && (num < 0) != (den < 0), div_exact(n, g),
                          div_exact(d, g));
}

std::string Rational::to_string() const {
  if (den_ == 1) return std::to_string(num_);
  return std::to_string(num_) + "/" + std::to_string(den_);
}

Rational Rational::operator-() const {
  Rational r;
  r.num_ = -num_;
  r.den_ = den_;
  return r;
}

Rational& Rational::operator+=(const Rational& o) {
  // Identity fast paths: both operands are normalized, so adding zero
  // (or into zero) needs neither the cross-multiplication nor the gcd.
  if (o.num_ == 0) return *this;
  if (num_ == 0) {
    *this = o;
    return *this;
  }
  // Henrici: with g = gcd(q, s), every factor that t = p(s/g) + r(q/g)
  // shares with the lcm (q/g)s divides g, so one small gcd reduces t.
  const std::uint64_t g = gcd64(static_cast<std::uint64_t>(den_),
                                static_cast<std::uint64_t>(o.den_));
  const std::int64_t q_g = div_exact(den_, g);
  const std::int64_t s_g = div_exact(o.den_, g);
  std::int64_t ps = 0;
  std::int64_t rq = 0;
  std::int64_t t = 0;
  if (__builtin_mul_overflow(num_, s_g, &ps) ||
      __builtin_mul_overflow(o.num_, q_g, &rq) ||
      __builtin_add_overflow(ps, rq, &t)) {
    // An intermediate overflowed, but the reduced sum may still fit.
    *this = from_i128(static_cast<__int128>(num_) * o.den_ +
                          static_cast<__int128>(o.num_) * den_,
                      static_cast<__int128>(den_) * o.den_);
    return *this;
  }
  const std::uint64_t g2 = gcd64(magnitude(t), g);
  // (t/g2) / ((q/g)(s/g2)) is in lowest terms: a denominator that
  // overflows is the canonical one.
  std::int64_t den = 0;
  if (__builtin_mul_overflow(q_g, div_exact(o.den_, g2), &den)) {
    throw_overflow();
  }
  num_ = div_exact(t, g2);
  den_ = den;
  return *this;
}

Rational& Rational::operator-=(const Rational& o) { return *this += -o; }

Rational& Rational::operator*=(const Rational& o) {
  // The enumerator's prob * w * tw chains hit these constantly: absorb
  // zero (restoring the canonical 0/1), and skip the gcds and the
  // product entirely when either factor is exactly 1. Operands are already
  // normalized, so the result of each fast path is normalized too -- and
  // none of them can overflow, preserving the throw contract for the
  // general path.
  if (num_ == 0) return *this;
  if (o.num_ == 0) {
    *this = Rational();
    return *this;
  }
  if (o.num_ == 1 && o.den_ == 1) return *this;
  if (num_ == 1 && den_ == 1) {
    *this = o;
    return *this;
  }
  *this = from_product((num_ < 0) != (o.num_ < 0), magnitude(num_),
                       static_cast<std::uint64_t>(den_), magnitude(o.num_),
                       static_cast<std::uint64_t>(o.den_));
  return *this;
}

Rational& Rational::operator/=(const Rational& o) {
  if (o.num_ == 0) throw std::domain_error("Rational: division by zero");
  if (num_ == 0) return *this;
  if (o.num_ == 1 && o.den_ == 1) return *this;
  // (p/q) / (r/s) = (p/q)(s/r).
  *this = from_product((num_ < 0) != (o.num_ < 0), magnitude(num_),
                       static_cast<std::uint64_t>(den_),
                       static_cast<std::uint64_t>(o.den_), magnitude(o.num_));
  return *this;
}

bool operator<(const Rational& a, const Rational& b) {
  return static_cast<__int128>(a.num_) * b.den_ <
         static_cast<__int128>(b.num_) * a.den_;
}

std::ostream& operator<<(std::ostream& os, const Rational& r) {
  return os << r.to_string();
}

}  // namespace cdse
