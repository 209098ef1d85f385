// Compiled sampling rows (CompiledRow, ChoiceRow) and their conditional
// splits (util/splits.hpp): the exact suffix quotients, the row-compile
// weight check, deterministic (bit-identical) rebuild across freeze()
// calls, and the CDF fall-through clamp regressions (adversarial weights
// whose double CDF rounds short of 1.0).

#include "util/splits.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "protocols/coinflip.hpp"
#include "psioa/memo.hpp"
#include "sched/sampler.hpp"
#include "sched/schedulers.hpp"

namespace cdse {
namespace {

TEST(RowCompile, InvalidWeightsThrow) {
  // ExactDisc::add keeps any nonzero weight, negative ones included; the
  // row compiler must refuse them rather than emit a negative split.
  StateDist d;
  d.add(State{1}, Rational(1));
  d.add(State{2}, Rational(-1, 2));
  EXPECT_THROW(CompiledRow::compile(d), std::invalid_argument);
  ActionChoice c;
  c.add(act("row_neg_a"), Rational(1, 2));
  c.add(act("row_neg_b"), Rational(-1, 4));
  EXPECT_THROW(ChoiceRow::compile(c), std::invalid_argument);
  // A nonempty row must carry mass: all-zero weights are a caller bug.
  EXPECT_THROW(conditional_splits({Rational(0), Rational(0)}),
               std::invalid_argument);
  // The empty row is valid and compiles to nothing.
  EXPECT_TRUE(CompiledRow::compile(StateDist{}).split.empty());
  EXPECT_TRUE(ChoiceRow::compile(ActionChoice{}).split.empty());
}

// ----------------------------------------------------- frozen-row identity

TEST(FrozenRows, RebuildAcrossFreezesIsBitIdentical) {
  // Two ParallelSamplers prepared from identical factories warm their
  // instances through the same deterministic plan, so every frozen row's
  // draw views must come out bit-identical -- the property that makes
  // batched draws reproducible across prepare() calls and re-freezes.
  auto make_aut = []() -> PsioaPtr {
    return make_coin("rows_fz", Rational(1, 3));
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
      EXPECT_EQ(row.split, other->split);
      EXPECT_EQ(row.cdf, other->cdf);
      EXPECT_EQ(row.targets, other->targets);
    }
  }
}

TEST(FrozenRows, TablesSurviveSamplingAtAnyWorkerCount) {
  // The snapshot is immutable: sampling through pools of different sizes
  // must leave every frozen row untouched (workers share the rows
  // read-only rather than copying or rebuilding them).
  auto make_aut = []() -> PsioaPtr {
    return make_coin("rows_wk", Rational(1, 4));
  };
  auto make_sched = []() -> SchedulerPtr {
    return std::make_shared<UniformScheduler>(6, true);
  };
  WarmupPlan plan;
  plan.horizon = 6;
  ParallelSampler sampler(make_aut, make_sched);
  sampler.prepare(plan, 6);
  const auto snap = sampler.snapshot();
  std::vector<CompiledRow> before;
  for (const auto& [q, fs] : snap->frozen_states()) {
    (void)q;
    for (const auto& [a, row] : fs.rows) {
      (void)a;
      before.push_back(row);
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
      EXPECT_EQ(row.split, before[i].split);
      EXPECT_EQ(row.cdf, before[i].cdf);
      EXPECT_EQ(row.targets, before[i].targets);
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
  // The split view has no halt slot on an exhaustive row: ten equal
  // weights split as 1/10, 1/9, ..., 1/2, 1.
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
  // The split view carries the residual as one extra halt slot: 1/4 of
  // all, 1/3 of the rest, then the halt, which takes the remainder (1/2
  // of all trials).
  ASSERT_EQ(row.split.size(), row.actions.size() + 1);
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
  // rejects it elsewhere) must not get a halt slot with negative
  // residual mass (which the split check would reject): the row has no
  // halt slot, and its splits stay probabilities.
  ActionChoice c;
  c.add(act("cdf_ow_a"), Rational(3, 4));
  c.add(act("cdf_ow_b"), Rational(1, 2));
  const ChoiceRow row = ChoiceRow::compile(c);
  EXPECT_TRUE(row.exhaustive);
  ASSERT_EQ(row.split.size(), row.actions.size());
  EXPECT_EQ(row.split, (std::vector<double>{0.6, 1.0}));
}

}  // namespace
}  // namespace cdse
