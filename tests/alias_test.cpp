// Walker/Vose alias tables (util/alias.hpp): construction edge cases,
// the slot-probability invariant, deterministic (bit-identical) rebuild
// across freeze() calls, and the CDF fall-through clamp regressions for
// CompiledRow / ChoiceRow (adversarial weights whose double CDF rounds
// short of 1.0).

#include "util/alias.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "protocols/coinflip.hpp"
#include "psioa/memo.hpp"
#include "sched/sampler.hpp"
#include "sched/schedulers.hpp"
#include "stat_util.hpp"
#include "util/rng.hpp"

namespace cdse {
namespace {

/// Induced probability of picking slot i: the slot's own acceptance mass
/// plus every redirect pointing at it, all over n uniform slot choices.
std::vector<double> slot_probabilities(const AliasTable& t) {
  const std::size_t n = t.size();
  std::vector<double> p(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    p[i] += t.accept[i];
    if (t.accept[i] < 1.0) p[t.alias[i]] += 1.0 - t.accept[i];
  }
  for (double& x : p) x /= static_cast<double>(n);
  return p;
}

TEST(AliasBuild, EmptyTableHasNoSlots) {
  const AliasTable t = AliasTable::build({});
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.size(), 0u);
}

TEST(AliasBuild, InvalidWeightsThrow) {
  EXPECT_THROW(AliasTable::build({1.0, -0.5}), std::invalid_argument);
  EXPECT_THROW(AliasTable::build({std::nan("")}), std::invalid_argument);
  EXPECT_THROW(
      AliasTable::build({std::numeric_limits<double>::infinity()}),
      std::invalid_argument);
  // A nonempty row must carry mass: all-zero weights are a caller bug.
  EXPECT_THROW(AliasTable::build({0.0, 0.0}), std::invalid_argument);
}

TEST(AliasBuild, SingleSupportAlwaysPicksTheOneSlot) {
  const AliasTable t = AliasTable::build({7.25});
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t.accept[0], 1.0);
  for (double u : {0.0, 0.3, 0.999999}) {
    EXPECT_EQ(t.pick(0, u), 0u);
  }
}

TEST(AliasBuild, ZeroWeightSlotsAreNeverPicked) {
  const AliasTable t = AliasTable::build({0.0, 3.0, 0.0, 1.0});
  const std::vector<double> p = slot_probabilities(t);
  EXPECT_EQ(p[0], 0.0);
  EXPECT_EQ(p[2], 0.0);
  EXPECT_NEAR(p[1], 0.75, 1e-12);
  EXPECT_NEAR(p[3], 0.25, 1e-12);
  // Near-zero (denormal-scale) weights survive the build and claim
  // essentially no mass.
  const AliasTable tiny = AliasTable::build({1e-300, 1.0});
  const std::vector<double> q = slot_probabilities(tiny);
  EXPECT_LT(q[0], 1e-12);
  EXPECT_NEAR(q[1], 1.0, 1e-12);
}

TEST(AliasBuild, SlotProbabilityInvariantHoldsForVariedWeights) {
  const std::vector<std::vector<double>> cases = {
      {1.0, 1.0, 1.0},
      {1.0, 2.0, 3.0, 4.0},
      {0.5, 0.25, 0.125, 0.0625, 0.0625},
      {1e-9, 1.0, 1e9},
      {3.0, 0.0, 1.0, 0.0, 2.0, 5.0, 0.25},
  };
  for (const auto& w : cases) {
    const AliasTable t = AliasTable::build(w);
    double total = 0.0;
    for (double x : w) total += x;
    const std::vector<double> p = slot_probabilities(t);
    for (std::size_t i = 0; i < w.size(); ++i) {
      EXPECT_NEAR(p[i], w[i] / total, 1e-12)
          << "slot " << i << " of case with " << w.size() << " weights";
    }
  }
}

TEST(AliasBuild, RepresentableRationalWeightsAreExact) {
  // Dyadic rationals (1/4, 1/2, 1/4) are exactly representable: the
  // scaled weights hit 1.0 boundaries with no rounding at all, so the
  // invariant holds with *equality*, not just within epsilon.
  const std::vector<Rational> w = {Rational(1, 4), Rational(1, 2),
                                   Rational(1, 4)};
  std::vector<double> wd;
  for (const Rational& r : w) wd.push_back(r.to_double());
  const std::vector<double> p = slot_probabilities(AliasTable::build(wd));
  EXPECT_EQ(p[0], 0.25);
  EXPECT_EQ(p[1], 0.5);
  EXPECT_EQ(p[2], 0.25);
}

TEST(AliasBuild, NonRepresentableRationalWeightsRoundWithinUlps) {
  // 1/3 is not a double; the build sees three copies of the nearest
  // double and the invariant holds to rounding, not exactly.
  const double third = Rational(1, 3).to_double();
  const std::vector<double> p =
      slot_probabilities(AliasTable::build({third, third, third}));
  for (double x : p) {
    EXPECT_NEAR(x, 1.0 / 3.0, 1e-15);
  }
}

TEST(AliasBuild, RebuildIsBitIdentical) {
  const std::vector<double> w = {0.1, 0.7, 0.05, 0.15, 1e-9};
  const AliasTable a = AliasTable::build(w);
  const AliasTable b = AliasTable::build(w);
  EXPECT_TRUE(a == b);
}

TEST(AliasDraws, ChiSquareMatchesWeights) {
  const std::vector<double> w = {1.0, 2.0, 3.0, 4.0};
  const AliasTable t = AliasTable::build(w);
  constexpr std::size_t kTrials = 100000;
  Xoshiro256 rng(0xa11a5);
  std::vector<double> count(w.size(), 0.0);
  for (std::size_t k = 0; k < kTrials; ++k) {
    count[t.pick(rng.below(t.size()), rng.uniform())] += 1.0;
  }
  std::vector<std::pair<double, double>> cells;
  for (std::size_t i = 0; i < w.size(); ++i) {
    cells.emplace_back(w[i] / 10.0, count[i]);
  }
  const auto r = testing::chi_square_gof_counts(
      cells, static_cast<double>(kTrials), 0.0);
  EXPECT_GE(r.pvalue, testing::kStatAlpha)
      << "stat=" << r.stat << " dof=" << r.dof;
}

TEST(AliasDraws, PickBlockMatchesPick) {
  // The SoA gather kernel is definitionally pick() applied elementwise;
  // exercise ragged sizes and a block-generated input stream.
  const AliasTable t = AliasTable::build({0.5, 2.5, 1.0, 3.0, 0.25, 0.75});
  XoshiroBlock blk(0xa11a5);
  for (const std::size_t n : {std::size_t{1}, std::size_t{7},
                              std::size_t{64}, std::size_t{1000}}) {
    std::vector<std::uint32_t> idx(n);
    std::vector<double> u(n);
    std::vector<std::uint32_t> out(n);
    blk.fill_below(idx.data(), n, static_cast<std::uint32_t>(t.size()));
    blk.fill_uniform(u.data(), n);
    t.pick_block(idx.data(), u.data(), out.data(), n);
    for (std::size_t k = 0; k < n; ++k) {
      EXPECT_EQ(out[k], t.pick(idx[k], u[k])) << "position " << k;
    }
  }
}

TEST(AliasDraws, PickBlockIsaPathsAreBitIdentical) {
  set_block_isa(BlockIsa::kAvx2);
  const bool have_avx2 = resolved_block_isa() == BlockIsa::kAvx2;
  set_block_isa(BlockIsa::kAuto);
  if (!have_avx2) GTEST_SKIP() << "CPU lacks AVX2; single-path build";

  const AliasTable t = AliasTable::build({1.0, 2.0, 3.0, 4.0, 0.5});
  constexpr std::size_t kN = 2048;
  std::vector<std::uint32_t> idx(kN);
  std::vector<double> u(kN);
  XoshiroBlock blk(99);
  blk.fill_below(idx.data(), kN, static_cast<std::uint32_t>(t.size()));
  blk.fill_uniform(u.data(), kN);

  std::vector<std::uint32_t> out_s(kN);
  std::vector<std::uint32_t> out_v(kN);
  set_block_isa(BlockIsa::kScalar);
  t.pick_block(idx.data(), u.data(), out_s.data(), kN);
  set_block_isa(BlockIsa::kAvx2);
  t.pick_block(idx.data(), u.data(), out_v.data(), kN);
  set_block_isa(BlockIsa::kAuto);
  EXPECT_EQ(out_s, out_v);
}

// ----------------------------------------------------- frozen-row identity

TEST(AliasFrozen, RebuildAcrossFreezesIsBitIdentical) {
  // Two ParallelSamplers prepared from identical factories warm their
  // instances through the same deterministic plan, so every frozen row's
  // alias table must come out bit-identical -- the property that makes
  // batched draws reproducible across prepare() calls and re-freezes.
  auto make_aut = []() -> PsioaPtr {
    return make_coin("alias_fz", Rational(1, 3));
  };
  auto make_sched = []() -> SchedulerPtr {
    return std::make_shared<UniformScheduler>(6, true);
  };
  WarmupPlan plan;
  plan.horizon = 6;
  ParallelSampler s1(make_aut, make_sched);
  ParallelSampler s2(make_aut, make_sched);
  s1.prepare(plan, 6);
  s2.prepare(plan, 6);
  const auto snap1 = s1.snapshot();
  const auto snap2 = s2.snapshot();
  ASSERT_EQ(snap1->state_count(), snap2->state_count());
  ASSERT_EQ(snap1->row_count(), snap2->row_count());
  ASSERT_GT(snap1->row_count(), 0u);
  for (const auto& [q, fs] : snap1->frozen_states()) {
    for (const auto& [a, row] : fs.rows) {
      const CompiledRow* other = snap2->find_row(q, a);
      ASSERT_NE(other, nullptr);
      EXPECT_TRUE(row.alias == other->alias);
      EXPECT_EQ(row.split, other->split);
      EXPECT_EQ(row.targets, other->targets);
    }
  }
}

TEST(AliasFrozen, TablesSurviveSamplingAtAnyWorkerCount) {
  // The snapshot is immutable: sampling through pools of different sizes
  // must leave every frozen alias table untouched (workers share the
  // tables read-only rather than copying or rebuilding them).
  auto make_aut = []() -> PsioaPtr {
    return make_coin("alias_wk", Rational(1, 4));
  };
  auto make_sched = []() -> SchedulerPtr {
    return std::make_shared<UniformScheduler>(6, true);
  };
  WarmupPlan plan;
  plan.horizon = 6;
  ParallelSampler sampler(make_aut, make_sched);
  sampler.prepare(plan, 6);
  const auto snap = sampler.snapshot();
  std::vector<AliasTable> before;
  for (const auto& [q, fs] : snap->frozen_states()) {
    (void)q;
    for (const auto& [a, row] : fs.rows) {
      (void)a;
      before.push_back(row.alias);
    }
  }
  TraceInsight f;
  for (std::size_t workers : {1u, 4u}) {
    ThreadPool pool(workers);
    (void)sampler.sample_fdist(f, 2000, 11, 6, pool, SamplingMode::kBatched);
  }
  std::size_t i = 0;
  for (const auto& [q, fs] : snap->frozen_states()) {
    (void)q;
    for (const auto& [a, row] : fs.rows) {
      (void)a;
      EXPECT_TRUE(row.alias == before[i]);
      ++i;
    }
  }
}

// ------------------------------------------------- CDF fall-through clamps

TEST(CdfClamp, EqualWeightRowsRoundShortAndClampToLastTarget) {
  // k equal weights 1/k accumulate to a double CDF whose last entry can
  // round *below* 1.0 (ten 0.1s famously sum to 0.9999999999999999). A
  // uniform draw landing in that rounding gap must clamp to the last
  // target, never fall off the row.
  bool found_short_cdf = false;
  const double u_top = std::nextafter(1.0, 0.0);
  for (std::uint64_t k = 3; k <= 32; ++k) {
    StateDist d;
    for (std::uint64_t i = 0; i < k; ++i) {
      d.add(State{100 + i}, Rational(1, static_cast<std::int64_t>(k)));
    }
    const CompiledRow row = CompiledRow::compile(std::move(d));
    ASSERT_EQ(row.targets.size(), k);
    if (row.cdf.back() < 1.0) {
      found_short_cdf = true;
      EXPECT_EQ(row.sample(row.cdf.back()), row.targets.back())
          << "k=" << k << ": u inside the rounding gap fell off the row";
    }
    EXPECT_EQ(row.sample(u_top), row.targets.back()) << "k=" << k;
  }
  EXPECT_TRUE(found_short_cdf)
      << "no k in [3,32] produced a short CDF; the regression test lost "
         "its adversarial case";
}

TEST(CdfClamp, ExhaustiveChoiceRowClampsInsteadOfHalting) {
  // Ten exact 1/10 action weights: total mass is exactly 1, so halting
  // has probability zero -- but the double CDF rounds short. Before the
  // clamp, a draw in the gap returned kInvalidAction (a phantom halt).
  ActionChoice c;
  for (int i = 0; i < 10; ++i) {
    c.add(act("cdf_cl_" + std::to_string(i)), Rational(1, 10));
  }
  const ChoiceRow row = ChoiceRow::compile(c);
  ASSERT_EQ(row.actions.size(), 10u);
  EXPECT_TRUE(row.exhaustive);
  ASSERT_LT(row.cdf.back(), 1.0);  // the adversarial premise
  EXPECT_EQ(row.sample(std::nextafter(1.0, 0.0)), row.actions.back());
  EXPECT_EQ(row.sample(row.cdf.back()), row.actions.back());
  // The alias view has no halt slot on an exhaustive row, nor has the
  // split view: ten equal weights split as 1/10, 1/9, ..., 1/2, 1.
  EXPECT_EQ(row.alias.size(), row.actions.size());
  ASSERT_EQ(row.split.size(), row.actions.size());
  for (std::size_t i = 0; i < row.split.size(); ++i) {
    EXPECT_EQ(row.split[i], 1.0 / static_cast<double>(10 - i));
  }
}

TEST(CdfClamp, SubProbabilityChoiceRowStillHalts) {
  // Genuine halting mass must keep halting: the clamp only covers rows
  // whose *exact* total is 1.
  ActionChoice c;
  c.add(act("cdf_hl_a"), Rational(1, 4));
  c.add(act("cdf_hl_b"), Rational(1, 4));
  const ChoiceRow row = ChoiceRow::compile(c);
  EXPECT_FALSE(row.exhaustive);
  EXPECT_EQ(row.sample(0.75), kInvalidAction);
  EXPECT_EQ(row.sample(std::nextafter(1.0, 0.0)), kInvalidAction);
  // The alias view carries the residual as one extra halt slot with the
  // same mass; check via the induced slot probabilities.
  ASSERT_EQ(row.alias.size(), row.actions.size() + 1);
  const std::vector<double> p = slot_probabilities(row.alias);
  EXPECT_NEAR(p[0], 0.25, 1e-12);
  EXPECT_NEAR(p[1], 0.25, 1e-12);
  EXPECT_NEAR(p[2], 0.5, 1e-12);  // halt slot
  // So does the split view: 1/4 of all, 1/3 of the rest, then the halt.
  EXPECT_EQ(row.split, (std::vector<double>{0.25, 1.0 / 3.0, 1.0}));
}

TEST(ConditionalSplits, AreExactSuffixQuotients) {
  // q[i] = w[i] / (w[i] + ... + w[last]), each the exact rational
  // quotient rounded once: 1/3, 1/5, 7/15 split as 1/3, (1/5)/(2/3) =
  // 3/10, then 1.
  const std::vector<double> q = conditional_splits(
      {Rational(1, 3), Rational(1, 5), Rational(7, 15)});
  EXPECT_EQ(q, (std::vector<double>{1.0 / 3.0, 0.3, 1.0}));
  EXPECT_TRUE(conditional_splits({}).empty());
  EXPECT_EQ(conditional_splits({Rational(2, 7)}), std::vector<double>{1.0});
}

TEST(ConditionalSplits, SuffixOverflowFallsBackToDoubles) {
  // Three weights over distinct primes near 2^31: the suffix sum's
  // denominator exceeds int64, so the exact quotients are out of reach
  // and the splits come from double suffix sums instead of throwing.
  const std::int64_t p1 = 2147483647, p2 = 2147483629, p3 = 2147483587;
  const std::vector<Rational> w = {Rational(1, p1), Rational(1, p2),
                                   Rational(1, p3)};
  std::vector<double> q;
  ASSERT_NO_THROW(q = conditional_splits(w));
  ASSERT_EQ(q.size(), 3u);
  const double d1 = 1.0 / p1, d2 = 1.0 / p2, d3 = 1.0 / p3;
  EXPECT_NEAR(q[0], d1 / (d1 + d2 + d3), 1e-15);
  EXPECT_NEAR(q[1], d2 / (d2 + d3), 1e-15);
  EXPECT_EQ(q[2], 1.0);
}

TEST(CdfClamp, OverweightChoiceDegradesToExhaustive) {
  // A hostile scheduler emitting total mass > 1 (the exact enumerator
  // rejects it elsewhere) must not feed a negative halt weight into the
  // alias builder.
  ActionChoice c;
  c.add(act("cdf_ow_a"), Rational(3, 4));
  c.add(act("cdf_ow_b"), Rational(1, 2));
  const ChoiceRow row = ChoiceRow::compile(c);
  EXPECT_TRUE(row.exhaustive);
  EXPECT_EQ(row.alias.size(), row.actions.size());
}

}  // namespace
}  // namespace cdse
