#include "util/alias.hpp"

#include <cmath>
#include <stdexcept>

#include "util/rng.hpp"

namespace cdse {

namespace {

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define CDSE_X86_DISPATCH 1
#else
#define CDSE_X86_DISPATCH 0
#endif

#if defined(__GNUC__) && !defined(__clang__)
#define CDSE_FORCE_INLINE inline __attribute__((always_inline))
#else
#define CDSE_FORCE_INLINE inline
#endif

// Shared loop body: gather accept/alias rows by slot index, compare
// against the uniform, select. Exact double compare + integer select,
// so the portable and AVX2 instantiations agree bitwise.
CDSE_FORCE_INLINE void pick_block_body(const double* accept,
                                       const std::uint32_t* alias,
                                       const std::uint32_t* idx,
                                       const double* u, std::uint32_t* out,
                                       std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint32_t i = idx[k];
    out[k] = u[k] < accept[i] ? i : alias[i];
  }
}

void pick_block_portable(const double* accept, const std::uint32_t* alias,
                         const std::uint32_t* idx, const double* u,
                         std::uint32_t* out, std::size_t n) {
  pick_block_body(accept, alias, idx, u, out, n);
}

#if CDSE_X86_DISPATCH
__attribute__((target("avx2"))) void pick_block_avx2(
    const double* accept, const std::uint32_t* alias, const std::uint32_t* idx,
    const double* u, std::uint32_t* out, std::size_t n) {
  pick_block_body(accept, alias, idx, u, out, n);
}
#endif

}  // namespace

void AliasTable::pick_block(const std::uint32_t* idx, const double* u,
                            std::uint32_t* out, std::size_t n) const {
#if CDSE_X86_DISPATCH
  if (resolved_block_isa() == BlockIsa::kAvx2) {
    pick_block_avx2(accept.data(), alias.data(), idx, u, out, n);
    return;
  }
#endif
  pick_block_portable(accept.data(), alias.data(), idx, u, out, n);
}

AliasTable AliasTable::build(const std::vector<double>& weights) {
  AliasTable t;
  const std::size_t n = weights.size();
  t.accept.assign(n, 1.0);
  t.alias.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    t.alias[i] = static_cast<std::uint32_t>(i);
  }
  if (n == 0) return t;

  double total = 0.0;
  for (double w : weights) {
    if (!(w >= 0.0) || !std::isfinite(w)) {
      throw std::invalid_argument(
          "AliasTable::build: weights must be finite and non-negative");
    }
    total += w;
  }
  if (!(total > 0.0)) {
    throw std::invalid_argument(
        "AliasTable::build: total weight must be positive");
  }

  // Vose's pairing over weights scaled to mean 1. The worklists are
  // plain index-ordered stacks, so the construction -- and with it every
  // recompiled copy of the same row -- is deterministic.
  std::vector<double> scaled(n);
  const double scale = static_cast<double>(n) / total;
  std::vector<std::uint32_t> small;
  std::vector<std::uint32_t> large;
  for (std::size_t i = 0; i < n; ++i) {
    scaled[i] = weights[i] * scale;
    if (scaled[i] < 1.0) {
      small.push_back(static_cast<std::uint32_t>(i));
    } else {
      large.push_back(static_cast<std::uint32_t>(i));
    }
  }
  while (!small.empty() && !large.empty()) {
    const std::uint32_t s = small.back();
    small.pop_back();
    const std::uint32_t l = large.back();
    t.accept[s] = scaled[s] < 0.0 ? 0.0 : scaled[s];
    t.alias[s] = l;
    // The donor keeps whatever mass the short slot did not need.
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    if (scaled[l] < 1.0) {
      large.pop_back();
      small.push_back(l);
    }
  }
  // Leftovers on either list are pure rounding residue at scaled ~ 1;
  // their threshold stays 1.0 (never redirect), which is exact for them.
  return t;
}

std::vector<double> conditional_splits(const std::vector<Rational>& w) {
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
