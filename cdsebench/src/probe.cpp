// Provenance and host calibration, printed with every run.
//
// The probe runs the same work on 1, 2 and 4 threads at once: an ALU
// loop (scales with cores) and a random read-modify-write loop over a
// private 4 MiB buffer per thread (memory-bound). When the second one
// does not scale, neither will memory-bound library work, and a flat
// worker-scaling row is the host, not the library.

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "util/rng.hpp"

extern char** environ;

namespace cdse::bench {
namespace {

std::uint64_t alu_loop(std::uint64_t seed) {
  std::uint64_t x = seed | 1;
  for (int i = 0; i < 40'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x *= 0x9e3779b97f4a7c15ULL;
  }
  return x;
}

std::uint64_t rmw_loop(std::uint64_t seed) {
  std::vector<std::uint64_t> buf((4u << 20) / sizeof(std::uint64_t), seed);
  std::uint64_t x = seed | 1;
  const std::size_t mask = buf.size() - 1;
  for (int i = 0; i < 8'000'000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    buf[(x >> 20) & mask] += x;
  }
  std::uint64_t sum = 0;
  for (std::uint64_t v : buf) sum += v;
  return sum;
}

/// Wall seconds for `threads` threads each running `body` once.
double timed_parallel(std::size_t threads, std::uint64_t (*body)(std::uint64_t)) {
  std::vector<std::uint64_t> sink(threads);
  std::vector<std::thread> pool;
  const std::int64_t t0 = now_ns();
  for (std::size_t i = 0; i < threads; ++i) {
    pool.emplace_back([&sink, i, body] { sink[i] = body(i + 1); });
  }
  for (std::thread& t : pool) t.join();
  const double s = static_cast<double>(now_ns() - t0) / 1e9;
  std::uint64_t all = 0;
  for (std::uint64_t v : sink) all ^= v;
  if (all == 42) std::printf(" ");  // keeps the loops observable
  return s;
}

const char* isa_name(BlockIsa isa) {
  switch (isa) {
    case BlockIsa::kScalar:
      return "scalar";
    case BlockIsa::kAvx2:
      return "avx2";
    default:
      return "auto";
  }
}

}  // namespace

int run_probe() {
  std::printf("build: %s, flags '%s', %s\n", CDSE_BENCH_BUILD_TYPE,
              CDSE_BENCH_CXX_FLAGS, CDSE_BENCH_COMPILER);
  std::printf("nproc: %ld (hardware_concurrency %u)\n",
              sysconf(_SC_NPROCESSORS_ONLN),
              std::thread::hardware_concurrency());
  std::printf("block kernel ISA: %s\n", isa_name(resolved_block_isa()));
  std::string overrides;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "CDSE_", 5) == 0) {
      if (!overrides.empty()) overrides += ' ';
      overrides += *e;
    }
  }
  std::printf("CDSE_* overrides: %s\n",
              overrides.empty() ? "none" : overrides.c_str());
  std::printf("host probe (same work per thread, wall s):\n");
  std::printf("  %-28s %10s %10s %10s\n", "loop", "1 thread", "2 threads",
              "4 threads");
  const std::pair<const char*, std::uint64_t (*)(std::uint64_t)> loops[] = {
      {"alu 40M xorshift-mul", alu_loop},
      {"rmw 8M random over 4 MiB", rmw_loop}};
  for (const auto& [name, body] : loops) {
    std::printf("  %-28s", name);
    for (std::size_t t : {1u, 2u, 4u}) {
      std::printf(" %10.4f", timed_parallel(t, body));
    }
    std::printf("\n");
  }
  return 0;
}

}  // namespace cdse::bench
