#pragma once
// xoshiro256** PRNG with splitmix64 seeding, cheap stream splitting, a
// lane-block generator, and an exact binomial sampler for the batched
// sampler's class splitting.
//
// Execution sampling (sched/sampler.hpp) fans Monte-Carlo trials over a
// thread pool; each worker needs an independent, reproducible stream. A
// master seed plus a stream index deterministically derives a generator,
// so every experiment in bench/ is bit-reproducible regardless of thread
// count or interleaving.
//
// XoshiroBlock is the batched sampler's stream (sched/batch_sampler.hpp;
// its class splitting draws binomial variates from it): kLanes scalar
// streams advanced in structure-of-arrays lockstep, one round of kLanes
// words per refill of a small carry buffer. The lane derivation is
// pinned -- lane j of XoshiroBlock(seed) IS the scalar stream
// Xoshiro256::for_stream(seed, j), and outputs interleave round-robin
// (output i comes from lane i % kLanes) -- so block output is a pure
// function of the seed. The refill is one portable loop (a wider
// instantiation measured no faster, since a refill is a single round).

#include <cstddef>
#include <cstdint>

// Binomial contract (XoshiroBlock::binomial): Binomial(n, p) for n <
// 2^53, by an in-tree sampler rather than std::binomial_distribution,
// whose algorithm (and so its draw schedule) differs between standard
// libraries. With p' = min(p, 1 - p) (a draw at p > 1/2 is n minus a
// draw at 1 - p):
//   - n p' < 10: sequential inversion -- one uniform, walking the pmf up
//     from (1 - p')^n by the ratio recurrence; a uniform landing in the
//     rounding gap past the summed pmf is discarded and redrawn.
//   - otherwise: Hoermann's BTRD (transformed rejection with decomposition,
//     1993) with its exact acceptance test (the Stirling tail log k! -
//     Stirling(k) is tabulated for k < 16 and a four-term series beyond,
//     truncation error < 1e-14); it spends 2.2 uniforms per variate at
//     mean 12, falling to 1.4 at mean 37000.
// p <= 0 returns 0 and p >= 1 returns n, spending no uniforms; n = 0
// returns 0. Each variate consumes a whole number of 53-bit uniforms
// ((v >> 11) * 2^-53) from the generator, so the schedule is a pure
// function of the generator state and (n, p) -- the only arithmetic
// outside exact IEEE operations is libm's exp/log/log1p, which a given
// platform evaluates deterministically. tests/rng_test.cpp pins a
// reference sequence and chi-square fits against the exact pmf.

namespace cdse {

/// splitmix64: seeds xoshiro and derives per-stream seeds.
std::uint64_t splitmix64(std::uint64_t& state);

class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Deterministically derives the generator for stream `stream` of the
  /// experiment seeded with `seed` (thread-count independent).
  static Xoshiro256 for_stream(std::uint64_t seed, std::uint64_t stream);

  result_type operator()();

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform integer in [0, n), exactly unbiased. Requires n > 0.
  /// Lemire multiply-shift with the rejection step: a draw landing in
  /// the 2^64 mod n residue window is retried, which costs < 1 extra
  /// draw amortized even at adversarial n (worst case n = 2^63 + 1
  /// rejects ~half the draws; the small n used by schedulers reject
  /// with probability < n / 2^64, i.e. never in practice).
  std::uint64_t below(std::uint64_t n);

  /// Bernoulli(p) draw.
  bool bernoulli(double p) { return uniform() < p; }

 private:
  friend class XoshiroBlock;
  std::uint64_t s_[4];
};

/// Block-kernel ISA names. The lane refill has one portable body, so
/// resolved_block_isa() is always kScalar; the benchmark's host probe
/// still prints it.
enum class BlockIsa { kAuto, kScalar, kAvx2 };

inline BlockIsa resolved_block_isa() { return BlockIsa::kScalar; }

/// kLanes interleaved xoshiro256** streams advanced in SoA lockstep.
///
/// Derivation contract (pinned by tests/rng_test.cpp): lane j of
/// XoshiroBlock(seed) is exactly Xoshiro256::for_stream(seed, j), and
/// the block's output sequence interleaves lanes round-robin.
class XoshiroBlock {
 public:
  static constexpr std::size_t kLanes = 8;

  explicit XoshiroBlock(std::uint64_t seed);

  /// Stream-split twin of Xoshiro256::for_stream: the block whose lanes
  /// derive from stream `stream` of `seed`.
  static XoshiroBlock for_stream(std::uint64_t seed, std::uint64_t stream);

  /// Next raw word of the interleaved sequence.
  std::uint64_t next_raw();

  /// Exact Binomial(n, p) variate drawn from the interleaved sequence
  /// (next_raw words v mapped to (v >> 11) * 2^-53); see the binomial
  /// contract above. When `words` is given, the number of raw words the
  /// variate consumed is added to it. The batched sampler's
  /// class-splitting draw.
  std::uint64_t binomial(std::uint64_t n, double p,
                         std::size_t* words = nullptr);

 private:
  void refill();

  alignas(64) std::uint64_t s_[4][kLanes];
  std::uint64_t buf_[kLanes];
  std::size_t buf_pos_ = kLanes;  // == kLanes: carry buffer empty
};

}  // namespace cdse
