// xoshiro256** scalar and block generators (util/rng.hpp): stream
// derivation, the debiased bounded draw (Lemire multiply-shift with
// rejection), and the XoshiroBlock derivation contract -- lane j IS
// scalar stream j, round-robin interleave, stream splitting -- plus the
// exact binomial sampler behind the batched sampler's class splitting
// (goodness of fit against the exact pmf, edge cases, pinned schedule).

#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "stat_util.hpp"

namespace cdse {
namespace {

using cdse::testing::chi_square_gof_counts;
using cdse::testing::kStatAlpha;

TEST(Xoshiro, StreamsAreDeterministicAndDistinct) {
  Xoshiro256 a = Xoshiro256::for_stream(42, 0);
  Xoshiro256 a2 = Xoshiro256::for_stream(42, 0);
  Xoshiro256 b = Xoshiro256::for_stream(42, 1);
  bool any_diff = false;
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t va = a();
    EXPECT_EQ(va, a2());
    any_diff = any_diff || (va != b());
  }
  EXPECT_TRUE(any_diff);
}

TEST(XoshiroBelow, StaysInRange) {
  Xoshiro256 rng(7);
  for (const std::uint64_t n : {1ULL, 2ULL, 3ULL, 48ULL, 1000003ULL}) {
    for (int i = 0; i < 256; ++i) EXPECT_LT(rng.below(n), n);
  }
}

TEST(XoshiroBelow, SmallBoundIsUniformChiSquare) {
  // 48 slots is the widest scheduler row the stack zoo produces; 20000
  // draws give every cell expectation ~416.
  constexpr std::uint64_t kBound = 48;
  constexpr std::size_t kTrials = 20000;
  Xoshiro256 rng(0xfeedULL);
  std::vector<double> counts(kBound, 0.0);
  for (std::size_t i = 0; i < kTrials; ++i) ++counts[rng.below(kBound)];
  std::vector<std::pair<double, double>> cells;
  for (double c : counts) cells.emplace_back(1.0 / kBound, c);
  const auto r = chi_square_gof_counts(cells, kTrials, 0.0);
  EXPECT_GT(r.pvalue, kStatAlpha) << "stat=" << r.stat;
}

TEST(XoshiroBelow, WorstCaseBoundIsUniformChiSquare) {
  // n = 2^63 + 1 maximizes the rejection window (2^64 mod n = n - 2, so
  // ~half of all raw words are rejected) -- the adversarial case the
  // Lemire rejection step exists for. Without the rejection step the
  // multiply-shift maps two raw words onto every even output and one
  // onto every odd output, a bias this bucketed chi-square detects with
  // overwhelming power... at the bucket level: bucket draws by their
  // top 5 bits, 32 cells of probability 2^58 / (2^63 + 1) each.
  constexpr std::uint64_t kBound = (1ULL << 63) + 1;
  constexpr std::size_t kTrials = 20000;
  Xoshiro256 rng(0xabcdULL);
  std::vector<double> counts(32, 0.0);
  for (std::size_t i = 0; i < kTrials; ++i) {
    const std::uint64_t v = rng.below(kBound);
    ASSERT_LT(v, kBound);
    counts[std::min<std::uint64_t>(v >> 58, 31)] += 1.0;
  }
  const double p = static_cast<double>(1ULL << 58) / 9.223372036854775809e18;
  std::vector<std::pair<double, double>> cells;
  for (double c : counts) cells.emplace_back(p, c);
  const auto r = chi_square_gof_counts(cells, kTrials, 0.0);
  EXPECT_GT(r.pvalue, kStatAlpha) << "stat=" << r.stat;
}

TEST(XoshiroBelow, MatchesReferenceRejectionSchedule) {
  // Pins the algorithm, not just the distribution: multiply-shift on
  // each raw word, re-draw while the product's low half lands under
  // 2^64 mod n.
  constexpr std::uint64_t kBound = (1ULL << 62) + 12345;  // ~25% rejection
  Xoshiro256 rng(99);
  Xoshiro256 raw(99);
  const std::uint64_t thresh = (0 - kBound) % kBound;
  for (int i = 0; i < 512; ++i) {
    unsigned __int128 m;
    std::uint64_t lo;
    do {
      m = static_cast<unsigned __int128>(raw()) * kBound;
      lo = static_cast<std::uint64_t>(m);
    } while (lo < thresh);
    EXPECT_EQ(rng.below(kBound), static_cast<std::uint64_t>(m >> 64));
  }
}

TEST(XoshiroBlock, LaneJIsScalarStreamJ) {
  // The pinned derivation contract: the interleaved block sequence is
  // the round-robin merge of the kLanes scalar streams of the same seed.
  constexpr std::uint64_t kSeed = 0x5eedULL;
  XoshiroBlock blk(kSeed);
  std::vector<Xoshiro256> lanes;
  for (std::uint64_t j = 0; j < XoshiroBlock::kLanes; ++j) {
    lanes.push_back(Xoshiro256::for_stream(kSeed, j));
  }
  for (std::size_t i = 0; i < 256; ++i) {
    EXPECT_EQ(blk.next_raw(), lanes[i % XoshiroBlock::kLanes]())
        << "position " << i;
  }
}

TEST(XoshiroBlock, ForStreamSplitsLikeTheScalarGenerator) {
  XoshiroBlock a = XoshiroBlock::for_stream(42, 3);
  XoshiroBlock a2 = XoshiroBlock::for_stream(42, 3);
  XoshiroBlock b = XoshiroBlock::for_stream(42, 4);
  bool any_diff = false;
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t va = a.next_raw();
    EXPECT_EQ(va, a2.next_raw());
    any_diff = any_diff || (va != b.next_raw());
  }
  EXPECT_TRUE(any_diff);
}

// ---------------------------------------------------------------- binomial

/// Exact Binomial(n, p) pmf at k, through lgamma (ample precision for
/// expected cell counts).
double binomial_pmf(std::uint64_t n, double p, std::uint64_t k) {
  const double nd = static_cast<double>(n);
  const double kd = static_cast<double>(k);
  return std::exp(std::lgamma(nd + 1.0) - std::lgamma(kd + 1.0) -
                  std::lgamma(nd - kd + 1.0) + kd * std::log(p) +
                  (nd - kd) * std::log1p(-p));
}

/// Chi-square fit of `draws` Binomial(n, p) variates from `gen` against
/// the exact pmf. Values are binned left to right into cells of mass at
/// least 1/64, a value of that mass or more always opening its own cell
/// (the first cell also takes everything below the +-12 sd window, the
/// last everything above it), so every (n, p) gets a test of comparable
/// power.
::testing::AssertionResult binomial_fits(XoshiroBlock& gen, std::uint64_t n,
                                         double p, std::size_t draws) {
  const double mean = static_cast<double>(n) * p;
  const double sd = std::sqrt(mean * (1.0 - p));
  const double lo_d = std::max(0.0, std::floor(mean - 12.0 * sd - 2.0));
  const double hi_d =
      std::min(static_cast<double>(n), std::ceil(mean + 12.0 * sd + 2.0));
  const auto lo = static_cast<std::uint64_t>(lo_d);
  const auto hi = static_cast<std::uint64_t>(hi_d);
  std::vector<std::uint64_t> upper;  // cell c covers k <= upper[c]
  std::vector<double> mass;
  double acc = 0.0;
  for (std::uint64_t k = lo; k <= hi; ++k) {
    const double pk = binomial_pmf(n, p, k);
    if (acc > 0.0 && pk >= 1.0 / 64.0) {
      // A heavy value gets its own cell, not the light run before it.
      upper.push_back(k - 1);
      mass.push_back(acc);
      acc = 0.0;
    }
    acc += pk;
    if (acc >= 1.0 / 64.0 || k == hi) {
      upper.push_back(k);
      mass.push_back(acc);
      acc = 0.0;
    }
  }
  upper.back() = n;  // the last cell takes the upper tail
  std::vector<double> counts(upper.size(), 0.0);
  for (std::size_t i = 0; i < draws; ++i) {
    const std::uint64_t k = gen.binomial(n, p);
    if (k > n) {
      return ::testing::AssertionFailure() << "draw " << k << " > n = " << n;
    }
    const auto it = std::lower_bound(upper.begin(), upper.end(), k);
    ++counts[static_cast<std::size_t>(it - upper.begin())];
  }
  std::vector<std::pair<double, double>> cells;
  for (std::size_t c = 0; c < counts.size(); ++c) {
    cells.emplace_back(mass[c], counts[c]);
  }
  const auto r = chi_square_gof_counts(cells, static_cast<double>(draws), 0.0);
  if (r.pvalue >= kStatAlpha && r.cells > 1) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "Binomial(" << n << ", " << p << "): stat=" << r.stat
         << " dof=" << r.dof << " p=" << r.pvalue << " cells=" << r.cells;
}

TEST(XoshiroBinomial, FitsExactPmfChiSquare) {
  // Small n and means below 10 take the inversion path; n = 1000 at 1/3
  // and 1/2 and n = 2^22 take BTRD; 1 - 2^-10 goes through the symmetry.
  constexpr std::size_t kDraws = 20000;
  const std::uint64_t ns[] = {1, 7, 1000, std::uint64_t{1} << 22};
  const double ps[] = {0x1.0p-10, 1.0 / 3.0, 0.5, 1.0 - 0x1.0p-10};
  std::uint64_t seed = 101;
  for (const std::uint64_t n : ns) {
    for (const double p : ps) {
      XoshiroBlock block(seed++);
      EXPECT_TRUE(binomial_fits(block, n, p, kDraws));
    }
  }
}

TEST(XoshiroBinomial, EdgeCasesAreExactAndSpendNoUniforms) {
  XoshiroBlock b(9);
  std::size_t words = 0;
  for (const std::uint64_t n : {0ULL, 1ULL, 1000ULL, 1ULL << 40}) {
    EXPECT_EQ(b.binomial(n, 0.0, &words), 0u);
    EXPECT_EQ(b.binomial(n, 1.0, &words), n);
  }
  EXPECT_EQ(b.binomial(0, 0.5, &words), 0u);
  // None of the calls above touched the stream.
  EXPECT_EQ(words, 0u);
  XoshiroBlock b0(9);
  EXPECT_EQ(b.next_raw(), b0.next_raw());
}

TEST(XoshiroBinomial, MatchesPinnedReferenceSequence) {
  // The draw schedule is part of the batched sampler's determinism
  // contract: these values may only change together with a documented
  // change of the algorithm. Cases cover inversion (small mean), BTRD,
  // and the p > 1/2 symmetry.
  struct Case {
    std::uint64_t n;
    double p;
  };
  const Case cases[] = {{7, 1.0 / 3.0},
                        {1000, 0x1.0p-10},
                        {1000, 1.0 / 3.0},
                        {std::uint64_t{1} << 22, 0.5},
                        {std::uint64_t{1} << 22, 1.0 - 0x1.0p-10},
                        {1000000, 0.2},
                        {50, 0.9},
                        {12, 0.5}};
  const std::uint64_t want[] = {0,       0,      334, 2097251,
                                4190205, 199688, 45,  9};
  XoshiroBlock b(2022);
  std::size_t words = 0;
  for (std::size_t i = 0; i < std::size(cases); ++i) {
    EXPECT_EQ(b.binomial(cases[i].n, cases[i].p, &words), want[i]) << i;
  }
  EXPECT_EQ(words, 8u);  // every variate here settles on its first uniform
  EXPECT_EQ(b.next_raw(), 9752194654960886847ULL);
}

}  // namespace
}  // namespace cdse
