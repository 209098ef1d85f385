#include "util/splits.hpp"

#include <stdexcept>

namespace cdse {

std::vector<double> conditional_splits(const std::vector<Rational>& w) {
  bool has_mass = false;
  for (const Rational& x : w) {
    if (x < Rational(0)) {
      throw std::invalid_argument(
          "conditional_splits: weights must be non-negative");
    }
    if (!x.is_zero()) has_mass = true;
  }
  if (!w.empty() && !has_mass) {
    throw std::invalid_argument(
        "conditional_splits: total weight must be positive");
  }
  std::vector<double> q(w.size());
  try {
    Rational suffix;
    for (std::size_t i = w.size(); i-- > 0;) {
      suffix += w[i];
      q[i] = suffix.is_zero() ? 0.0 : (w[i] / suffix).to_double();
    }
  } catch (const std::overflow_error&) {
    double suffix = 0.0;
    for (std::size_t i = w.size(); i-- > 0;) {
      suffix += w[i].to_double();
      q[i] = suffix > 0.0 ? w[i].to_double() / suffix : 0.0;
    }
  }
  if (!q.empty()) q.back() = 1.0;
  return q;
}

}  // namespace cdse
