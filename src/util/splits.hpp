#pragma once
// Conditional split probabilities: the per-row form of the batched
// sampler's class-splitting draw (sched/batch_sampler.hpp).
//
// Every compiled sampling row (CompiledRow transition rows, ChoiceRow
// scheduler rows) stores, next to its exact weights, the conditional
// splits of those weights in row order. A class of `count` trials on the
// row then takes slot i's share as Binomial(remaining, q[i]), the last
// slot the remainder: one multinomial draw of the whole class from
// O(slots) variates, whatever `count` is.
//
// conditional_splits is also the one check every compiled row passes
// through: a nonempty row must carry non-negative weights with positive
// total mass, so a malformed distribution is rejected when its row is
// compiled rather than drawn from.

#include <vector>

#include "util/rational.hpp"

namespace cdse {

/// Conditional split probabilities of a row with exact weights w:
/// q[i] = w[i] / (w[i] + ... + w[last]), so q.back() == 1. Each q[i] is
/// the exact rational quotient rounded once (Rational::to_double); a row
/// whose suffix sums overflow int64 falls back to double suffix sums.
/// Throws std::invalid_argument when a weight is negative, or when w is
/// nonempty and every weight is zero.
std::vector<double> conditional_splits(const std::vector<Rational>& w);

}  // namespace cdse
