#include "util/rng.hpp"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

namespace cdse {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Xoshiro256::Xoshiro256(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

Xoshiro256 Xoshiro256::for_stream(std::uint64_t seed, std::uint64_t stream) {
  // Mix the stream index through splitmix before seeding so adjacent
  // streams share no low-entropy structure.
  std::uint64_t sm = seed ^ (0x6a09e667f3bcc909ULL * (stream + 1));
  return Xoshiro256(splitmix64(sm));
}

Xoshiro256::result_type Xoshiro256::operator()() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Xoshiro256::uniform() {
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

std::uint64_t Xoshiro256::below(std::uint64_t n) {
  // Lemire multiply-shift with rejection: the multiply-shift alone maps
  // 2^64 raw words onto n outputs unevenly whenever n does not divide
  // 2^64; re-drawing the (2^64 mod n)-sized residue window makes every
  // output hit by exactly floor(2^64 / n) raw words.
  unsigned __int128 m = static_cast<unsigned __int128>((*this)()) * n;
  std::uint64_t lo = static_cast<std::uint64_t>(m);
  if (lo < n) {  // cheap pre-filter: threshold only computed when it can matter
    const std::uint64_t t = (0 - n) % n;  // 2^64 mod n
    while (lo < t) {
      m = static_cast<unsigned __int128>((*this)()) * n;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

// -- binomial variates --------------------------------------------------------

namespace {

inline double unit_of(std::uint64_t v) {
  return static_cast<double>(v >> 11) * 0x1.0p-53;
}

/// Stirling tail fc(k) = log k! - [(k + 1/2) log(k + 1) - (k + 1) +
/// log(2 pi) / 2]: tabulated below 16 (evaluated at 50-digit precision,
/// rounded to double), a four-term series 1/12n - 1/360n^3 + 1/1260n^5 - 1/1680n^7 (n = k + 1)
/// from there on.
double stirling_tail(double k) {
  static constexpr double kTable[16] = {
      0.081061466795327261, 0.041340695955409297, 0.027677925684998338,
      0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
      0.01189670994589177,  0.010411265261972096, 0.0092554621827127329,
      0.0083305634333628708, 0.0075736754879518406, 0.0069428401072095299,
      0.0064089941880042071, 0.0059513701127588475, 0.0055547335519628011,
      0.0052076559196096404};
  if (k < 16.0) return kTable[static_cast<int>(k)];
  const double n = k + 1.0;
  const double n2 = n * n;
  return (1.0 / 12.0 -
          (1.0 / 360.0 - (1.0 / 1260.0 - 1.0 / (1680.0 * n2)) / n2) / n2) /
         n;
}

/// Mean below which inversion beats BTRD (BTRD's validity floor).
constexpr double kInversionMean = 10.0;

/// Sequential inversion for p <= 1/2, n p < kInversionMean.
template <typename Next>
std::uint64_t binomial_inversion(Next& next, std::uint64_t n, double p) {
  const double s = p / (1.0 - p);
  const double a = (static_cast<double>(n) + 1.0) * s;
  const double f0 = std::exp(static_cast<double>(n) * std::log1p(-p));
  for (;;) {
    double u = unit_of(next());
    double f = f0;
    for (std::uint64_t k = 0;;) {
      if (u < f) return k;
      u -= f;
      // u fell into the gap between the rounded pmf sum and 1: redraw.
      if (k == n || f == 0.0) break;
      ++k;
      f *= a / static_cast<double>(k) - s;
    }
  }
}

/// Hoermann's BTRD for p <= 1/2, n p >= kInversionMean (steps numbered as
/// in Hoermann's 1993 article).
template <typename Next>
std::uint64_t binomial_btrd(Next& next, std::uint64_t n_int, double p) {
  const double n = static_cast<double>(n_int);
  const double q = 1.0 - p;
  const double m = std::floor((n + 1.0) * p);
  const double r = p / q;
  const double nr = (n + 1.0) * r;
  const double npq = n * p * q;
  const double spq = std::sqrt(npq);
  const double b = 1.15 + 2.53 * spq;
  const double a = -0.0873 + 0.0248 * b + 0.01 * p;
  const double c = n * p + 0.5;
  const double alpha = (2.83 + 5.1 / b) * spq;
  const double vr = 0.92 - 4.2 / b;
  const double urvr = 0.86 * vr;
  for (;;) {
    // 1: the hat's central box, accepted without a test.
    double v = unit_of(next());
    if (v <= urvr) {
      const double u = v / vr - 0.43;
      return static_cast<std::uint64_t>(
          std::floor((2.0 * a / (0.5 - std::fabs(u)) + b) * u + c));
    }
    // 2: the rest of the hat.
    double u;
    if (v >= vr) {
      u = unit_of(next()) - 0.5;
    } else {
      u = v / vr - 0.93;
      u = std::copysign(0.5, u) - u;
      v = unit_of(next()) * vr;
    }
    // 3.0
    const double us = 0.5 - std::fabs(u);
    const double k = std::floor((2.0 * a / us + b) * u + c);
    if (k < 0.0 || k > n) continue;
    v = v * alpha / (a / (us * us) + b);
    const double km = std::fabs(k - m);
    if (km <= 15.0) {
      // 3.1: f(k) / f(m) by the ratio recurrence.
      double f = 1.0;
      if (m < k) {
        for (double i = m + 1.0; i <= k; i += 1.0) f *= nr / i - r;
      } else if (m > k) {
        for (double i = k + 1.0; i <= m; i += 1.0) v *= nr / i - r;
      }
      if (v <= f) return static_cast<std::uint64_t>(k);
      continue;
    }
    // 3.2: squeeze on log f(k) / f(m).
    v = std::log(v);
    const double rho =
        (km / npq) * (((km / 3.0 + 0.625) * km + 1.0 / 6.0) / npq + 0.5);
    const double t = -km * km / (2.0 * npq);
    if (v < t - rho) return static_cast<std::uint64_t>(k);
    if (v > t + rho) continue;
    // 3.3 / 3.4: the exact test.
    const double nm = n - m + 1.0;
    const double h = (m + 0.5) * std::log((m + 1.0) / (r * nm)) +
                     stirling_tail(m) + stirling_tail(n - m);
    const double nk = n - k + 1.0;
    if (v <= h + (n + 1.0) * std::log(nm / nk) +
                 (k + 0.5) * std::log(nk * r / (k + 1.0)) -
                 stirling_tail(k) - stirling_tail(n - k)) {
      return static_cast<std::uint64_t>(k);
    }
  }
}

template <typename Next>
std::uint64_t binomial_from(Next& next, std::uint64_t n, double p) {
  if (n == 0 || !(p > 0.0)) return 0;
  if (p >= 1.0) return n;
  if (p > 0.5) return n - binomial_from(next, n, 1.0 - p);
  if (static_cast<double>(n) * p < kInversionMean) {
    return binomial_inversion(next, n, p);
  }
  return binomial_btrd(next, n, p);
}

}  // namespace

// -- block fills -------------------------------------------------------------

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

namespace {

// One loop body per fill, shared verbatim by the portable and AVX2
// instantiations: every operation is exact integer or power-of-two
// double arithmetic, so the two instantiations are bit-identical by
// construction and differ only in codegen width.

CDSE_FORCE_INLINE void advance_rounds_body(std::uint64_t* s0,
                                           std::uint64_t* s1,
                                           std::uint64_t* s2,
                                           std::uint64_t* s3,
                                           std::uint64_t* out,
                                           std::size_t rounds) {
  for (std::size_t r = 0; r < rounds; ++r) {
    std::uint64_t* o = out + r * XoshiroBlock::kLanes;
    for (std::size_t j = 0; j < XoshiroBlock::kLanes; ++j) {
      const std::uint64_t x1 = s1[j];
      o[j] = rotl(x1 * 5, 7) * 9;
      const std::uint64_t t = x1 << 17;
      s2[j] ^= s0[j];
      s3[j] ^= x1;
      s1[j] ^= s2[j];
      s0[j] ^= s3[j];
      s2[j] ^= t;
      s3[j] = rotl(s3[j], 45);
    }
  }
}

CDSE_FORCE_INLINE void to_uniform_body(const std::uint64_t* raw, double* out,
                                       std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<double>(raw[i] >> 11) * 0x1.0p-53;
  }
}

CDSE_FORCE_INLINE void below_candidates_body(const std::uint64_t* raw,
                                             std::uint32_t* out,
                                             std::uint32_t* lo, std::size_t n,
                                             std::uint32_t bound) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t p = (raw[i] >> 32) * static_cast<std::uint64_t>(bound);
    out[i] = static_cast<std::uint32_t>(p >> 32);
    lo[i] = static_cast<std::uint32_t>(p);
  }
}

void advance_rounds_portable(std::uint64_t* s0, std::uint64_t* s1,
                             std::uint64_t* s2, std::uint64_t* s3,
                             std::uint64_t* out, std::size_t rounds) {
  advance_rounds_body(s0, s1, s2, s3, out, rounds);
}

void to_uniform_portable(const std::uint64_t* raw, double* out,
                         std::size_t n) {
  to_uniform_body(raw, out, n);
}

void below_candidates_portable(const std::uint64_t* raw, std::uint32_t* out,
                               std::uint32_t* lo, std::size_t n,
                               std::uint32_t bound) {
  below_candidates_body(raw, out, lo, n, bound);
}

#if CDSE_X86_DISPATCH
__attribute__((target("avx2"))) void advance_rounds_avx2(
    std::uint64_t* s0, std::uint64_t* s1, std::uint64_t* s2, std::uint64_t* s3,
    std::uint64_t* out, std::size_t rounds) {
  advance_rounds_body(s0, s1, s2, s3, out, rounds);
}

__attribute__((target("avx2"))) void to_uniform_avx2(const std::uint64_t* raw,
                                                     double* out,
                                                     std::size_t n) {
  to_uniform_body(raw, out, n);
}

__attribute__((target("avx2"))) void below_candidates_avx2(
    const std::uint64_t* raw, std::uint32_t* out, std::uint32_t* lo,
    std::size_t n, std::uint32_t bound) {
  below_candidates_body(raw, out, lo, n, bound);
}
#endif

bool cpu_has_avx2() {
#if CDSE_X86_DISPATCH
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

// Dispatch cache: -1 = unresolved, else the resolved BlockIsa value.
// Forcing stores the request and invalidates the cache; resolution
// happens once, on the next fill.
std::atomic<int> g_isa_forced{static_cast<int>(BlockIsa::kAuto)};
std::atomic<int> g_isa_cache{-1};

BlockIsa resolve_isa() {
  BlockIsa want = static_cast<BlockIsa>(g_isa_forced.load());
  if (want == BlockIsa::kAuto) {
    if (const char* env = std::getenv("CDSE_BLOCK_ISA")) {
      if (std::strcmp(env, "scalar") == 0) want = BlockIsa::kScalar;
      if (std::strcmp(env, "avx2") == 0) want = BlockIsa::kAvx2;
    }
  }
  if (want == BlockIsa::kAuto) {
    want = cpu_has_avx2() ? BlockIsa::kAvx2 : BlockIsa::kScalar;
  }
  // A forced/env AVX2 request on hardware without it degrades to scalar
  // rather than faulting; the two paths are bit-identical anyway.
  if (want == BlockIsa::kAvx2 && !cpu_has_avx2()) want = BlockIsa::kScalar;
  g_isa_cache.store(static_cast<int>(want));
  return want;
}

inline bool use_avx2() {
  int cached = g_isa_cache.load(std::memory_order_relaxed);
  if (cached < 0) cached = static_cast<int>(resolve_isa());
  return static_cast<BlockIsa>(cached) == BlockIsa::kAvx2;
}

}  // namespace

void set_block_isa(BlockIsa isa) {
  g_isa_forced.store(static_cast<int>(isa));
  g_isa_cache.store(-1);
}

BlockIsa resolved_block_isa() {
  const int cached = g_isa_cache.load();
  if (cached >= 0) return static_cast<BlockIsa>(cached);
  return resolve_isa();
}

XoshiroBlock::XoshiroBlock(std::uint64_t seed) {
  // Lane j IS scalar stream j: the block is the SoA transpose of
  // Xoshiro256::for_stream(seed, 0..kLanes-1).
  for (std::size_t j = 0; j < kLanes; ++j) {
    const Xoshiro256 lane = Xoshiro256::for_stream(seed, j);
    for (std::size_t w = 0; w < 4; ++w) s_[w][j] = lane.s_[w];
  }
}

XoshiroBlock XoshiroBlock::for_stream(std::uint64_t seed,
                                      std::uint64_t stream) {
  std::uint64_t sm = seed ^ (0x6a09e667f3bcc909ULL * (stream + 1));
  return XoshiroBlock(splitmix64(sm));
}

void XoshiroBlock::refill() {
#if CDSE_X86_DISPATCH
  if (use_avx2()) {
    advance_rounds_avx2(s_[0], s_[1], s_[2], s_[3], buf_, 1);
    buf_pos_ = 0;
    return;
  }
#endif
  advance_rounds_portable(s_[0], s_[1], s_[2], s_[3], buf_, 1);
  buf_pos_ = 0;
}

std::uint64_t XoshiroBlock::next_raw() {
  if (buf_pos_ == kLanes) refill();
  return buf_[buf_pos_++];
}

std::uint64_t XoshiroBlock::binomial(std::uint64_t n, double p,
                                     std::size_t* words) {
  std::size_t used = 0;
  auto next = [this, &used] {
    ++used;
    return next_raw();
  };
  const std::uint64_t k = binomial_from(next, n, p);
  if (words != nullptr) *words += used;
  return k;
}

void XoshiroBlock::fill_raw(std::uint64_t* out, std::size_t n) {
  std::size_t i = 0;
  // Drain the carry buffer first so the interleaved sequence is
  // independent of fill-call granularity.
  while (buf_pos_ < kLanes && i < n) out[i++] = buf_[buf_pos_++];
  const std::size_t rounds = (n - i) / kLanes;
  if (rounds > 0) {
#if CDSE_X86_DISPATCH
    if (use_avx2()) {
      advance_rounds_avx2(s_[0], s_[1], s_[2], s_[3], out + i, rounds);
    } else {
      advance_rounds_portable(s_[0], s_[1], s_[2], s_[3], out + i, rounds);
    }
#else
    advance_rounds_portable(s_[0], s_[1], s_[2], s_[3], out + i, rounds);
#endif
    i += rounds * kLanes;
  }
  while (i < n) out[i++] = next_raw();
}

namespace {
constexpr std::size_t kFillChunk = 512;  // stack scratch per bulk pass
}  // namespace

void XoshiroBlock::fill_uniform(double* out, std::size_t n) {
  std::uint64_t raw[kFillChunk];
  std::size_t done = 0;
  while (done < n) {
    const std::size_t m = n - done < kFillChunk ? n - done : kFillChunk;
    fill_raw(raw, m);
#if CDSE_X86_DISPATCH
    if (use_avx2()) {
      to_uniform_avx2(raw, out + done, m);
    } else {
      to_uniform_portable(raw, out + done, m);
    }
#else
    to_uniform_portable(raw, out + done, m);
#endif
    done += m;
  }
}

std::size_t XoshiroBlock::fill_below(std::uint32_t* out, std::size_t n,
                                     std::uint32_t bound) {
  if (bound == 0) {
    throw std::invalid_argument("XoshiroBlock::fill_below: bound must be > 0");
  }
  const std::uint32_t thresh =
      static_cast<std::uint32_t>((std::uint64_t{1} << 32) % bound);
  std::uint64_t raw[kFillChunk];
  std::uint32_t lo[kFillChunk];
  std::size_t rejects = 0;
  std::size_t done = 0;
  while (done < n) {
    const std::size_t m = n - done < kFillChunk ? n - done : kFillChunk;
    fill_raw(raw, m);
#if CDSE_X86_DISPATCH
    if (use_avx2()) {
      below_candidates_avx2(raw, out + done, lo, m, bound);
    } else {
      below_candidates_portable(raw, out + done, lo, m, bound);
    }
#else
    below_candidates_portable(raw, out + done, lo, m, bound);
#endif
    if (thresh != 0) {
      // Rejection fixup, ascending position order, re-drawing from the
      // words after the chunk -- a deterministic schedule shared by
      // every ISA (the candidate pass is pure arithmetic).
      for (std::size_t i = 0; i < m; ++i) {
        if (lo[i] >= thresh) continue;
        std::uint64_t p;
        do {
          ++rejects;
          p = (next_raw() >> 32) * static_cast<std::uint64_t>(bound);
        } while (static_cast<std::uint32_t>(p) < thresh);
        out[done + i] = static_cast<std::uint32_t>(p >> 32);
      }
    }
    done += m;
  }
  return rejects;
}

}  // namespace cdse
