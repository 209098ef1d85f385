// Discrete measures, products and the balance/TV distance
// (measure/disc.hpp; paper Section 2.1 and Def 3.6).

#include "measure/disc.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace cdse {
namespace {

TEST(Disc, DiracHasUnitMassOnPoint) {
  const auto d = Disc<int>::dirac(7);
  EXPECT_EQ(d.support_size(), 1u);
  EXPECT_DOUBLE_EQ(d.mass(7), 1.0);
  EXPECT_DOUBLE_EQ(d.mass(8), 0.0);
  EXPECT_TRUE(d.is_probability());
}

TEST(Disc, AddMergesMassAndDropsZeros) {
  Disc<int> d;
  d.add(1, 0.25);
  d.add(1, 0.25);
  d.add(2, 0.0);
  EXPECT_EQ(d.support_size(), 1u);
  EXPECT_DOUBLE_EQ(d.mass(1), 0.5);
}

TEST(Disc, ExactCancellationRemovesPoint) {
  ExactDisc<int> d;
  d.add(1, Rational(1, 3));
  d.add(1, Rational(-1, 3));
  EXPECT_TRUE(d.empty());
}

TEST(Disc, AddSortedEqualsPerEntryAdd) {
  // The batch merge must give the same canonical measure as one add()
  // per pair: repeated keys, keys already present, and exact
  // cancellation to zero (which must drop the point).
  ExactDisc<int> batched;
  ExactDisc<int> looped;
  for (const int k : {2, 5, 9}) {
    batched.add(k, Rational(k, 10));
    looped.add(k, Rational(k, 10));
  }
  const std::vector<std::pair<int, Rational>> batch = {
      {1, Rational(1, 3)},  {1, Rational(1, 6)}, {5, Rational(-1, 2)},
      {7, Rational(1, 7)},  {9, Rational(1, 9)}, {12, Rational(1, 2)},
      {12, Rational(-1, 2)}};
  for (const auto& [k, w] : batch) looped.add(k, w);
  batched.add_sorted(batch);
  EXPECT_EQ(batched, looped);
  EXPECT_EQ(batched.mass(1), Rational(1, 2));
  EXPECT_EQ(batched.mass(5), Rational(0));
  EXPECT_EQ(batched.support(), (std::vector<int>{1, 2, 7, 9}));
  batched.add_sorted({});
  EXPECT_EQ(batched, looped);
}

TEST(Disc, SupportIsSorted) {
  Disc<int> d;
  d.add(5, 0.2);
  d.add(1, 0.3);
  d.add(3, 0.5);
  EXPECT_EQ(d.support(), (std::vector<int>{1, 3, 5}));
}

TEST(Disc, TotalAndIsProbability) {
  ExactDisc<int> d;
  d.add(1, Rational(1, 3));
  d.add(2, Rational(2, 3));
  EXPECT_EQ(d.total(), Rational(1));
  EXPECT_TRUE(d.is_probability());
  d.add(3, Rational(1, 10));
  EXPECT_FALSE(d.is_probability());
}

TEST(Disc, MapPushesForwardAndMergesFibers) {
  ExactDisc<int> d;
  d.add(1, Rational(1, 4));
  d.add(2, Rational(1, 4));
  d.add(3, Rational(1, 2));
  const auto even = d.map<bool>([](int x) { return x % 2 == 0; });
  EXPECT_EQ(even.mass(false), Rational(3, 4));
  EXPECT_EQ(even.mass(true), Rational(1, 4));
}

TEST(Disc, ProductIsProductMeasure) {
  ExactDisc<int> a;
  a.add(0, Rational(1, 2));
  a.add(1, Rational(1, 2));
  ExactDisc<int> b;
  b.add(0, Rational(1, 3));
  b.add(1, Rational(2, 3));
  const auto prod = ExactDisc<std::pair<int, int>>::product(
      a, b, [](int x, int y) { return std::make_pair(x, y); });
  EXPECT_EQ(prod.mass({0, 0}), Rational(1, 6));
  EXPECT_EQ(prod.mass({1, 1}), Rational(1, 3));
  EXPECT_EQ(prod.total(), Rational(1));
}

TEST(Disc, ScaledAndNormalized) {
  ExactDisc<int> d;
  d.add(1, Rational(1, 2));
  d.add(2, Rational(1, 4));
  const auto s = d.scaled(Rational(2));
  EXPECT_EQ(s.mass(1), Rational(1));
  const auto n = d.normalized();
  EXPECT_EQ(n.mass(1), Rational(2, 3));
  EXPECT_TRUE(n.is_probability());
  ExactDisc<int> empty;
  EXPECT_THROW(empty.normalized(), std::domain_error);
}

TEST(Disc, SampleHitsSupportProportionally) {
  Disc<int> d;
  d.add(1, 0.25);
  d.add(2, 0.75);
  Xoshiro256 rng(11);
  int twos = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (d.sample(rng.uniform()) == 2) ++twos;
  }
  EXPECT_NEAR(static_cast<double>(twos) / n, 0.75, 0.02);
}

TEST(BalanceDistance, ZeroOnEqualMeasures) {
  ExactDisc<int> d;
  d.add(1, Rational(1, 2));
  d.add(2, Rational(1, 2));
  EXPECT_EQ(balance_distance(d, d), Rational(0));
}

TEST(BalanceDistance, KnownValue) {
  ExactDisc<int> mu;
  mu.add(1, Rational(1, 2));
  mu.add(2, Rational(1, 2));
  ExactDisc<int> nu;
  nu.add(1, Rational(1, 4));
  nu.add(2, Rational(1, 4));
  nu.add(3, Rational(1, 2));
  // Positive part: 1/4 + 1/4; negative part: 1/2 -> distance 1/2.
  EXPECT_EQ(balance_distance(mu, nu), Rational(1, 2));
}

TEST(BalanceDistance, DisjointSupportsIsOne) {
  ExactDisc<int> mu = ExactDisc<int>::dirac(1);
  ExactDisc<int> nu = ExactDisc<int>::dirac(2);
  EXPECT_EQ(balance_distance(mu, nu), Rational(1));
}

TEST(BalanceDistance, SubProbabilityAsymmetricMass) {
  // Halting mass shows up as a one-sided difference.
  ExactDisc<int> mu;
  mu.add(1, Rational(1, 2));  // halts with prob 1/2
  ExactDisc<int> nu = ExactDisc<int>::dirac(1);
  EXPECT_EQ(balance_distance(mu, nu), Rational(1, 2));
}

TEST(ToDouble, ConvertsExactMeasure) {
  ExactDisc<int> d;
  d.add(1, Rational(1, 4));
  d.add(2, Rational(3, 4));
  const auto dd = to_double(d);
  EXPECT_DOUBLE_EQ(dd.mass(1), 0.25);
  EXPECT_DOUBLE_EQ(dd.mass(2), 0.75);
}

// Metric-style properties of balance distance on random exact measures.
class BalanceLaws : public ::testing::TestWithParam<int> {
 protected:
  ExactDisc<int> random_prob(Xoshiro256& rng) {
    // Random dyadic probability over {0..5}: split 16 atoms of mass 1/16.
    ExactDisc<int> d;
    for (int atom = 0; atom < 16; ++atom) {
      d.add(static_cast<int>(rng.below(6)), Rational(1, 16));
    }
    return d;
  }
};

TEST_P(BalanceLaws, MetricAxiomsAndDataProcessing) {
  Xoshiro256 rng(GetParam() * 313 + 1);
  const auto a = random_prob(rng);
  const auto b = random_prob(rng);
  const auto c = random_prob(rng);
  // Symmetry, identity, triangle.
  EXPECT_EQ(balance_distance(a, b), balance_distance(b, a));
  EXPECT_EQ(balance_distance(a, a), Rational(0));
  EXPECT_LE(balance_distance(a, c),
            balance_distance(a, b) + balance_distance(b, c));
  // Bounded by 1 for probability measures.
  EXPECT_LE(balance_distance(a, b), Rational(1));
  // Data processing: any push-forward cannot increase the distance
  // (the insight-function stability property relies on this).
  auto coarse = [](int x) { return x / 2; };
  EXPECT_LE(balance_distance(a.map<int>(coarse), b.map<int>(coarse)),
            balance_distance(a, b));
}

INSTANTIATE_TEST_SUITE_P(Random, BalanceLaws, ::testing::Range(0, 30));

}  // namespace
}  // namespace cdse
