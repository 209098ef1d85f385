#include "util/rng.hpp"

#include <cmath>

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

// -- lane block ---------------------------------------------------------------

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
  // One xoshiro256** step of every lane, in SoA lockstep.
  for (std::size_t j = 0; j < kLanes; ++j) {
    const std::uint64_t x1 = s_[1][j];
    buf_[j] = rotl(x1 * 5, 7) * 9;
    const std::uint64_t t = x1 << 17;
    s_[2][j] ^= s_[0][j];
    s_[3][j] ^= x1;
    s_[1][j] ^= s_[2][j];
    s_[0][j] ^= s_[3][j];
    s_[2][j] ^= t;
    s_[3][j] = rotl(s_[3][j], 45);
  }
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

}  // namespace cdse
