#pragma once
// Walker/Vose alias tables: O(1) draws from a fixed finite distribution.
//
// The compiled sampling rows (CompiledRow transition CDFs, ChoiceRow
// scheduler CDFs) historically drew by scanning a running double-CDF --
// O(support) per draw, which was the cost the batched sampler
// (sched/batch_sampler.hpp) wanted off its per-draw path. (It has since
// replaced per-trial draws by class splitting, which reads the rows'
// conditional_splits below, not their alias tables.) An alias table
// trades a second uniform draw for constant-time picks: slot i is chosen
// uniformly, then accepted with probability accept[i] or redirected to
// alias[i]. The induced slot probabilities equal the normalized input
// weights up to double rounding, so alias draws are equivalent to CDF
// draws *in distribution* (not draw-for-draw -- they consume the RNG
// differently), which is the contract the batched sampling mode and its
// statistical differential tests (tests/stat_util.hpp) are built on.
//
// Determinism: build() is a pure function of the weight vector -- the
// small/large worklists are index-ordered vectors, not hash containers --
// so recompiling the same row (across freeze() calls, worker counts, or
// processes) yields bit-identical tables. tests/alias_test.cpp pins this
// together with the slot-probability invariant
//   sum over slots of P[pick = i] == weights[i] / total.
//
// Layout is structure-of-arrays on purpose: accept[] and alias[] are
// separate contiguous rows, so a block kernel resolves a whole buffer
// of draws with pick_block -- gather accept
// thresholds by slot index, compare against the uniform buffer, select
// slot or alias -- instead of per-draw pointer-chasing. pick_block
// shares the portable/AVX2 runtime dispatch of util/rng.hpp's block
// fills, and both paths are bit-identical (pure gather + exact double
// compare + select).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rational.hpp"

namespace cdse {

struct AliasTable {
  /// Acceptance threshold of each slot, in [0, 1]; slots with threshold
  /// 1 never redirect (every leftover of the Vose pairing ends up here).
  std::vector<double> accept;
  /// Redirect target of each slot; alias[i] == i where unused.
  std::vector<std::uint32_t> alias;

  bool empty() const { return accept.empty(); }
  std::size_t size() const { return accept.size(); }

  /// Builds the table for (unnormalized) non-negative weights.
  /// Zero-weight slots are representable and are never picked. Throws
  /// std::invalid_argument when a weight is negative or not finite, or
  /// when the total is not positive (a nonempty row must carry mass).
  static AliasTable build(const std::vector<double>& weights);

  /// Picks a slot from i ~ Uniform{0..size-1} and u ~ Uniform[0,1).
  std::size_t pick(std::size_t i, double u) const {
    return u < accept[i] ? i : static_cast<std::size_t>(alias[i]);
  }

  /// Block pick: out[k] = pick(idx[k], u[k]) for k in [0, n). The SoA
  /// gather kernel of the batched sampler's former per-trial path;
  /// dispatches to an AVX2 body where resolved_block_isa() allows, with
  /// bitwise identical results on every path. idx values must be
  /// < size().
  void pick_block(const std::uint32_t* idx, const double* u,
                  std::uint32_t* out, std::size_t n) const;

  friend bool operator==(const AliasTable& a, const AliasTable& b) {
    return a.accept == b.accept && a.alias == b.alias;
  }
};

/// Conditional split probabilities of a row with exact weights w (the
/// same slots, in the same order, as its alias table): q[i] = w[i] /
/// (w[i] + ... + w[last]), so q.back() == 1. Drawing slot i's share of
/// a class of `count` trials as Binomial(remaining, q[i]) in slot order
/// is one multinomial draw of the whole class -- the batched sampler's
/// class-splitting path. Each q[i] is the exact rational quotient
/// rounded once (Rational::to_double); a row whose suffix sums overflow
/// int64 falls back to double suffix sums.
std::vector<double> conditional_splits(const std::vector<Rational>& w);

}  // namespace cdse
