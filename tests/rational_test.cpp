// Exact rational arithmetic (util/rational.hpp).

#include "util/rational.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

namespace cdse {
namespace {

TEST(Rational, DefaultIsZero) {
  Rational r;
  EXPECT_TRUE(r.is_zero());
  EXPECT_EQ(r.num(), 0);
  EXPECT_EQ(r.den(), 1);
}

TEST(Rational, NormalizesSign) {
  Rational r(3, -6);
  EXPECT_EQ(r.num(), -1);
  EXPECT_EQ(r.den(), 2);
}

TEST(Rational, NormalizesGcd) {
  Rational r(12, 18);
  EXPECT_EQ(r.num(), 2);
  EXPECT_EQ(r.den(), 3);
}

TEST(Rational, ZeroDenominatorThrows) {
  EXPECT_THROW(Rational(1, 0), std::domain_error);
}

TEST(Rational, DivisionByZeroThrows) {
  EXPECT_THROW(Rational(1, 2) / Rational(0), std::domain_error);
}

TEST(Rational, Addition) {
  EXPECT_EQ(Rational(1, 2) + Rational(1, 3), Rational(5, 6));
  EXPECT_EQ(Rational(1, 2) + Rational(-1, 2), Rational(0));
}

TEST(Rational, Subtraction) {
  EXPECT_EQ(Rational(1, 2) - Rational(1, 3), Rational(1, 6));
}

TEST(Rational, Multiplication) {
  EXPECT_EQ(Rational(2, 3) * Rational(3, 4), Rational(1, 2));
}

TEST(Rational, Division) {
  EXPECT_EQ(Rational(1, 2) / Rational(1, 4), Rational(2));
}

TEST(Rational, Comparisons) {
  EXPECT_LT(Rational(1, 3), Rational(1, 2));
  EXPECT_LE(Rational(1, 2), Rational(1, 2));
  EXPECT_GT(Rational(2, 3), Rational(1, 2));
  EXPECT_GE(Rational(-1, 2), Rational(-1, 2));
  EXPECT_LT(Rational(-1, 2), Rational(0));
}

TEST(Rational, Abs) {
  EXPECT_EQ(Rational::abs(Rational(-3, 4)), Rational(3, 4));
  EXPECT_EQ(Rational::abs(Rational(3, 4)), Rational(3, 4));
}

TEST(Rational, ToDouble) {
  EXPECT_DOUBLE_EQ(Rational(1, 4).to_double(), 0.25);
  EXPECT_DOUBLE_EQ(Rational(-1, 8).to_double(), -0.125);
}

TEST(Rational, ToString) {
  EXPECT_EQ(Rational(3, 4).to_string(), "3/4");
  EXPECT_EQ(Rational(5).to_string(), "5");
  EXPECT_EQ(Rational(-2, 4).to_string(), "-1/2");
}

TEST(Rational, LargeIntermediateProductsReduce) {
  // (1/2^30) * (2^30) = 1: the factors cancel before the multiply.
  const Rational tiny(1, 1LL << 30);
  const Rational big(1LL << 30);
  EXPECT_EQ(tiny * big, Rational(1));
}

TEST(Rational, DyadicLadderExact) {
  // 1/2 + 1/4 + ... + 1/2^40 == 1 - 1/2^40 exactly.
  Rational sum;
  for (int i = 1; i <= 40; ++i) sum += Rational(1, 1LL << i);
  EXPECT_EQ(sum, Rational(1) - Rational(1, 1LL << 40));
}

TEST(Rational, OverflowAfterReductionThrows) {
  const std::int64_t big = (1LL << 62);
  Rational a(big, 1);
  EXPECT_THROW(a * a, std::overflow_error);
}

// The 0/1 fast paths skip the gcds and the product; they must leave
// results in canonical normalized form and preserve every contract of
// the general path.

TEST(Rational, MultiplyByZeroShortCircuitsToCanonicalZero) {
  Rational a(3, 7);
  a *= Rational(0);
  EXPECT_TRUE(a.is_zero());
  EXPECT_EQ(a.num(), 0);
  EXPECT_EQ(a.den(), 1);  // canonical 0/1, not 0/7
  Rational z;
  z *= Rational(5, 9);
  EXPECT_EQ(z, Rational(0));
  EXPECT_EQ(z.den(), 1);
}

TEST(Rational, MultiplyByOneIsIdentityBothSides) {
  Rational a(-5, 6);
  a *= Rational(1);
  EXPECT_EQ(a, Rational(-5, 6));
  Rational one(1);
  one *= Rational(-5, 6);
  EXPECT_EQ(one, Rational(-5, 6));
  // Negative one must NOT take the unit fast path.
  Rational b(2, 3);
  b *= Rational(-1);
  EXPECT_EQ(b, Rational(-2, 3));
}

TEST(Rational, AddZeroFastPathsKeepNormalization) {
  Rational a(4, 6);  // normalized to 2/3
  a += Rational(0);
  EXPECT_EQ(a.num(), 2);
  EXPECT_EQ(a.den(), 3);
  Rational z;
  z += Rational(4, 6);
  EXPECT_EQ(z.num(), 2);
  EXPECT_EQ(z.den(), 3);
}

TEST(Rational, DivideByOneAndZeroNumeratorFastPaths) {
  Rational a(7, 9);
  a /= Rational(1);
  EXPECT_EQ(a, Rational(7, 9));
  Rational z;
  z /= Rational(3, 5);
  EXPECT_EQ(z, Rational(0));
  // The divisor-zero check still precedes every fast path.
  EXPECT_THROW(Rational(0) / Rational(0), std::domain_error);
}

TEST(Rational, FastPathsCannotMaskOverflow) {
  // A value at the 64-bit edge survives *1 and *0 (no product formed),
  // while the general path still throws.
  const std::int64_t big = (1LL << 62);
  Rational a(big, 1);
  Rational keep = a;
  keep *= Rational(1);
  EXPECT_EQ(keep, a);
  Rational gone = a;
  gone *= Rational(0);
  EXPECT_TRUE(gone.is_zero());
  EXPECT_THROW(a * a, std::overflow_error);
  EXPECT_THROW(a + a, std::overflow_error);
}

TEST(Rational, EnumeratorChainProductMatchesGeneralPath) {
  // prob * w * tw chains as the cone enumerator emits them: unit
  // scheduler mass times a dyadic transition weight, repeatedly.
  Rational chained(1);
  for (int i = 0; i < 20; ++i) {
    chained *= Rational(1);
    chained *= Rational(1, 2);
  }
  EXPECT_EQ(chained, Rational(1, 1LL << 20));
}

// Field-axiom spot checks over a grid of small rationals.
class RationalAxioms : public ::testing::TestWithParam<int> {};

TEST_P(RationalAxioms, RingLaws) {
  const int i = GetParam();
  const Rational a(i % 7 - 3, (i % 5) + 1);
  const Rational b((i * 3) % 11 - 5, (i % 3) + 1);
  const Rational c((i * 7) % 13 - 6, (i % 4) + 1);
  EXPECT_EQ(a + b, b + a);
  EXPECT_EQ(a * b, b * a);
  EXPECT_EQ((a + b) + c, a + (b + c));
  EXPECT_EQ((a * b) * c, a * (b * c));
  EXPECT_EQ(a * (b + c), a * b + a * c);
  EXPECT_EQ(a + Rational(0), a);
  EXPECT_EQ(a * Rational(1), a);
  EXPECT_EQ(a - a, Rational(0));
  if (!b.is_zero()) {
    EXPECT_EQ((a / b) * b, a);
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, RationalAxioms, ::testing::Range(0, 40));

// Differential reference: the __int128 + Euclid normaliser Rational used
// before its 64-bit cross-cancelling paths. Every operation forms the
// full 128-bit cross-products, reduces them with a 128-bit Euclid gcd
// and narrows, keeping the operators' 0/1 fast paths. Canonical forms
// are unique, so the library must reproduce its num()/den() bit for bit
// -- and must throw std::overflow_error exactly where it throws.
namespace ref {

using Pair = std::pair<std::int64_t, std::int64_t>;
using Outcome = std::optional<Pair>;  // nullopt: std::overflow_error

constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();

__int128 gcd(__int128 a, __int128 b) {
  if (a < 0) a = -a;
  if (b < 0) b = -b;
  while (b != 0) {
    const __int128 t = a % b;
    a = b;
    b = t;
  }
  return a;
}

Outcome normalise(__int128 num, __int128 den) {
  if (den < 0) {
    num = -num;
    den = -den;
  }
  const __int128 g = gcd(num, den);
  if (g > 1) {
    num /= g;
    den /= g;
  }
  if (num > kMax || num < kMin || den > kMax) return std::nullopt;
  return Pair{static_cast<std::int64_t>(num), static_cast<std::int64_t>(den)};
}

Outcome add(Pair a, Pair b) {
  if (b.first == 0) return a;
  if (a.first == 0) return b;
  return normalise(static_cast<__int128>(a.first) * b.second +
                       static_cast<__int128>(b.first) * a.second,
                   static_cast<__int128>(a.second) * b.second);
}

Outcome mul(Pair a, Pair b) {
  if (a.first == 0) return a;
  if (b.first == 0) return Pair{0, 1};
  if (b == Pair{1, 1}) return a;
  if (a == Pair{1, 1}) return b;
  return normalise(static_cast<__int128>(a.first) * b.first,
                   static_cast<__int128>(a.second) * b.second);
}

Outcome div(Pair a, Pair b) {  // b != 0
  if (a.first == 0) return a;
  if (b == Pair{1, 1}) return a;
  return normalise(static_cast<__int128>(a.first) * b.second,
                   static_cast<__int128>(a.second) * b.first);
}

bool less(Pair a, Pair b) {
  return static_cast<__int128>(a.first) * b.second <
         static_cast<__int128>(b.first) * a.second;
}

}  // namespace ref

template <typename Op>
ref::Outcome observe(const Op& op) {
  try {
    const Rational r = op();
    return ref::Pair{r.num(), r.den()};
  } catch (const std::overflow_error&) {
    return std::nullopt;
  }
}

std::string show(const ref::Outcome& o) {
  if (!o) return "overflow_error";
  return std::to_string(o->first) + "/" + std::to_string(o->second);
}

ref::Pair pair_of(const Rational& r) { return {r.num(), r.den()}; }

#define EXPECT_SAME_OUTCOME(expected, op) \
  EXPECT_EQ(show(expected), show(observe([&] { return op; }))) << #op

TEST(RationalDifferential, HenriciIntermediateOverflowStillFits) {
  // t = (2^62 + 1) + (2^62 - 1) = 2^63 overflows int64 before the gcd
  // with g = 2 brings it back to 2^62.
  const Rational a((1LL << 62) + 1, 2);
  const Rational b((1LL << 62) - 1, 2);
  EXPECT_NO_THROW(a + b);
  EXPECT_EQ(a + b, Rational(1LL << 62));
  EXPECT_SAME_OUTCOME(ref::add(pair_of(a), pair_of(b)), a + b);
  EXPECT_EQ(-a - b, Rational(-(1LL << 62)));
}

TEST(RationalDifferential, ProductsLandingOnInt64Edges) {
  // INT64_MAX = 7^2 * 73 * 127 * 337 * 92737 * 649657.
  const Rational seventh(ref::kMax / 7, 2);
  EXPECT_EQ(seventh * Rational(14), Rational(ref::kMax));
  EXPECT_EQ(seventh * Rational(-14), Rational(-ref::kMax));
  EXPECT_EQ(Rational(1, ref::kMax / 7) * Rational(1, 7),
            Rational(1, ref::kMax));
  EXPECT_EQ(Rational(1, ref::kMax / 7) / Rational(7), Rational(1, ref::kMax));
  // 2^63 fits only as a negative numerator.
  const Rational half_range(1LL << 62);
  EXPECT_EQ((half_range * Rational(-2)).num(), ref::kMin);
  EXPECT_THROW(half_range * Rational(2), std::overflow_error);
  EXPECT_THROW(Rational(1, 1LL << 62) * Rational(1, 2), std::overflow_error);
  for (const auto& [a, b] : std::vector<std::pair<Rational, Rational>>{
           {seventh, Rational(14)},
           {seventh, Rational(-14)},
           {half_range, Rational(-2)},
           {half_range, Rational(2)},
           {Rational(1, 1LL << 62), Rational(1, 2)},
           {Rational(ref::kMax, 3), Rational(3, ref::kMax)}}) {
    EXPECT_SAME_OUTCOME(ref::mul(pair_of(a), pair_of(b)), a * b);
    EXPECT_SAME_OUTCOME(ref::div(pair_of(a), pair_of(b)), a / b);
  }
}

TEST(RationalDifferential, Int64MinNumerators) {
  const Rational min(ref::kMin);
  EXPECT_EQ(min.num(), ref::kMin);
  EXPECT_EQ(Rational(ref::kMin, 2), Rational(-(1LL << 62)));
  EXPECT_EQ(Rational(ref::kMin, -2), Rational(1LL << 62));
  EXPECT_EQ(Rational(ref::kMin, ref::kMin), Rational(1));
  EXPECT_THROW(Rational(ref::kMin, -1), std::overflow_error);
  EXPECT_THROW(Rational(1, ref::kMin), std::overflow_error);  // den 2^63
  EXPECT_EQ(Rational(3, ref::kMin / 3 * 3).den(), -(ref::kMin / 3));
  EXPECT_THROW(min * Rational(-1), std::overflow_error);
  EXPECT_THROW(min / Rational(-1), std::overflow_error);
  EXPECT_THROW(min + Rational(-1), std::overflow_error);
  EXPECT_EQ(min + Rational(1), Rational(ref::kMin + 1));
  EXPECT_EQ(min * Rational(1, 2), Rational(-(1LL << 62)));
  EXPECT_EQ(min / Rational(2), Rational(-(1LL << 62)));
  EXPECT_LT(min, Rational(ref::kMin + 1));
  EXPECT_LT(min, Rational(ref::kMin, 3));
  const std::vector<ref::Pair> raw = {
      {ref::kMin, 1}, {ref::kMin, -1}, {ref::kMin, 2},  {ref::kMin, -3},
      {ref::kMin, 6}, {1, ref::kMin},  {-1, ref::kMin}, {ref::kMin, ref::kMin}};
  for (const auto& [n, d] : raw) {
    EXPECT_SAME_OUTCOME(ref::normalise(n, d), Rational(n, d));
  }
  const std::vector<Rational> others = {
      Rational(1),  Rational(-1),       Rational(1, 2),         Rational(-3),
      Rational(5, 7), Rational(ref::kMax), Rational(1, ref::kMax), min};
  for (const Rational& b : others) {
    EXPECT_SAME_OUTCOME(ref::add(pair_of(min), pair_of(b)), min + b);
    EXPECT_SAME_OUTCOME(ref::add(pair_of(b), pair_of(min)), b + min);
    EXPECT_SAME_OUTCOME(ref::mul(pair_of(min), pair_of(b)), min * b);
    EXPECT_SAME_OUTCOME(ref::mul(pair_of(b), pair_of(min)), b * min);
    EXPECT_SAME_OUTCOME(ref::div(pair_of(min), pair_of(b)), min / b);
    EXPECT_SAME_OUTCOME(ref::div(pair_of(b), pair_of(min)), b / min);
  }
}

/// A raw (num, den) draw of one magnitude class, den != 0.
ref::Pair draw_raw(std::mt19937_64& rng) {
  auto pick = [&](std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
  };
  const std::int64_t sign = pick(0, 3) == 0 ? -1 : 1;
  switch (pick(0, 9)) {
    case 0:
    case 1:
    case 2:  // small
      return {pick(-40, 40), sign * pick(1, 40)};
    case 3:
    case 4: {  // dyadic, as the random stacks' transition weights
      const int k = static_cast<int>(pick(0, 62));
      const std::int64_t den = std::int64_t{1} << k;
      return {sign * pick(0, k == 62 ? ref::kMax : 2 * den - 1), den};
    }
    case 5:
    case 6: {  // non-dyadic: products of small odd primes
      static constexpr std::int64_t kPrimes[] = {3, 5, 7, 11, 13, 17, 19};
      const int factors = static_cast<int>(pick(1, 30));
      std::int64_t den = 1;
      for (int i = 0; i < factors; ++i) {
        const std::int64_t p = kPrimes[pick(0, 6)];
        if (den > ref::kMax / p) break;
        den *= p;
      }
      return {sign * pick(0, den), den};
    }
    case 7: {  // near 2^62
      const std::int64_t base = std::int64_t{1} << 62;
      return {sign * (base + pick(-4096, 4096)),
              pick(0, 1) == 0 ? pick(1, 16) : base + pick(-4096, 4096)};
    }
    case 8: {  // near the int64 edges
      const std::int64_t n = pick(0, 1) == 0 ? ref::kMax - pick(0, 64)
                                             : ref::kMin + pick(0, 64);
      return {n, sign * pick(1, 64)};
    }
    default: {  // full-width
      std::int64_t den = 0;
      while (den == 0) den = pick(ref::kMin, ref::kMax);
      return {pick(ref::kMin, ref::kMax), den};
    }
  }
}

TEST(RationalDifferential, SeededCorpusMatchesInt128Reference) {
  std::mt19937_64 rng(20221021);
  constexpr int kPairs = 100000;
  int pairs = 0;
  int compared = 0;
  int overflows = 0;
  int mismatches = 0;
  std::string first_mismatch;
  auto check = [&](const ref::Outcome& want, const ref::Outcome& got,
                   const char* op, ref::Pair a, ref::Pair b) {
    ++compared;
    if (!want) ++overflows;
    if (want == got) return;
    if (mismatches++ == 0) {
      first_mismatch = std::string(op) + " on " + show(a) + ", " + show(b) +
                       ": want " + show(want) + ", got " + show(got);
    }
  };
  auto truth = [](bool v) { return ref::Outcome(ref::Pair{v ? 1 : 0, 1}); };
  // One raw draw through Rational(n, d), checked; nullopt when it throws.
  auto operand = [&]() {
    const ref::Pair raw = draw_raw(rng);
    const ref::Outcome want = ref::normalise(raw.first, raw.second);
    const ref::Outcome got =
        observe([&] { return Rational(raw.first, raw.second); });
    check(want, got, "Rational(n, d)", raw, {0, 1});
    return want == got ? want : std::nullopt;
  };
  while (pairs < kPairs) {
    const ref::Outcome pa = operand();
    const ref::Outcome pb = operand();
    if (!pa || !pb) continue;
    ++pairs;
    const Rational a(pa->first, pa->second);
    const Rational b(pb->first, pb->second);
    check(ref::add(*pa, *pb), observe([&] { return a + b; }), "+", *pa, *pb);
    // Unary minus of an INT64_MIN numerator is not representable.
    if (pb->first != ref::kMin) {
      check(ref::add(*pa, {-pb->first, pb->second}),
            observe([&] { return a - b; }), "-", *pa, *pb);
    }
    check(ref::mul(*pa, *pb), observe([&] { return a * b; }), "*", *pa, *pb);
    if (!b.is_zero()) {
      check(ref::div(*pa, *pb), observe([&] { return a / b; }), "/", *pa,
            *pb);
    }
    check(truth(ref::less(*pa, *pb)), truth(a < b), "<", *pa, *pb);
  }
  EXPECT_EQ(mismatches, 0) << first_mismatch;
  // The corpus must exercise both outcomes of the contract.
  EXPECT_GT(overflows, compared / 20);
  EXPECT_GT(compared - overflows, compared / 2);
}

}  // namespace
}  // namespace cdse
