#include "common.hpp"

#include <time.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>

namespace cdse::bench {

void count_alloc(std::size_t n);

std::atomic<bool> alloc_meter_on{false};

namespace {

struct alignas(64) AllocSlot {
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> bytes{0};
};
constexpr unsigned kAllocSlots = 64;
AllocSlot g_alloc_slots[kAllocSlots];
std::atomic<unsigned> g_next_alloc_slot{0};
thread_local unsigned t_alloc_slot = kAllocSlots;


std::int64_t clock_ns(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

}  // namespace

void count_alloc(std::size_t n) {
  if (t_alloc_slot == kAllocSlots) {
    t_alloc_slot = g_next_alloc_slot.fetch_add(1) % kAllocSlots;
  }
  AllocSlot& s = g_alloc_slots[t_alloc_slot];
  s.calls.fetch_add(1, std::memory_order_relaxed);
  s.bytes.fetch_add(n, std::memory_order_relaxed);
}

void reset_alloc_meter() {
  for (AllocSlot& s : g_alloc_slots) {
    s.calls = 0;
    s.bytes = 0;
  }
}

std::uint64_t alloc_calls() {
  std::uint64_t n = 0;
  for (const AllocSlot& s : g_alloc_slots) n += s.calls.load();
  return n;
}

std::uint64_t alloc_bytes() {
  std::uint64_t n = 0;
  for (const AllocSlot& s : g_alloc_slots) n += s.bytes.load();
  return n;
}

std::int64_t now_ns() { return clock_ns(CLOCK_MONOTONIC); }
std::int64_t process_cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      status >> kb;
      return kb / 1024.0;
    }
    status.ignore(1 << 10, '\n');
  }
  return 0.0;
}

double quantile(std::vector<double>& xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = p * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

PassMark pass_mark(std::uint64_t attempted, std::uint64_t failed) {
  return {now_ns(), process_cpu_ns(), attempted, failed};
}

void summarise_loop(const std::vector<PassMark>& marks,
                    const std::vector<double>& lat_us, std::uint64_t min_ops,
                    LoopStats& st) {
  const PassMark& first = marks.front();
  const PassMark& last = marks.back();
  st.attempted = last.attempted - first.attempted;
  st.failed = last.failed - first.failed;
  st.wall_s = static_cast<double>(last.t_ns - first.t_ns) / 1e9;
  st.cpu_s = static_cast<double>(last.cpu_ns - first.cpu_ns) / 1e9;
  st.latency_samples = lat_us.empty() ? st.attempted : lat_us.size();
  // Window boundaries: whole passes, >= min_ops each; a short tail joins
  // the last window.
  std::vector<std::size_t> cuts{0};
  for (std::size_t i = 1; i < marks.size(); ++i) {
    if (marks[i].attempted - marks[cuts.back()].attempted >= min_ops) {
      cuts.push_back(i);
    }
  }
  if (cuts.size() == 1) {
    cuts.push_back(marks.size() - 1);
  } else if (cuts.back() != marks.size() - 1) {
    cuts.back() = marks.size() - 1;
  }
  std::vector<double> rate, cpu, p50, p95;
  for (std::size_t w = 0; w + 1 < cuts.size(); ++w) {
    const PassMark& a = marks[cuts[w]];
    const PassMark& b = marks[cuts[w + 1]];
    const double done = static_cast<double>((b.attempted - b.failed) -
                                            (a.attempted - a.failed));
    if (done <= 0.0 || b.t_ns <= a.t_ns) continue;
    const std::uint64_t ops = b.attempted - a.attempted;
    if (st.window_ops_min == 0 || ops < st.window_ops_min) {
      st.window_ops_min = ops;
    }
    rate.push_back(done / (static_cast<double>(b.t_ns - a.t_ns) / 1e9));
    cpu.push_back(static_cast<double>(b.cpu_ns - a.cpu_ns) / 1e3 / done);
    if (!lat_us.empty()) {
      std::vector<double> slice(
          lat_us.begin() + static_cast<std::ptrdiff_t>(a.attempted - first.attempted),
          lat_us.begin() + static_cast<std::ptrdiff_t>(b.attempted - first.attempted));
      p50.push_back(quantile(slice, 0.50));
      p95.push_back(quantile(slice, 0.95));
    }
  }
  st.windows = rate.size();
  st.ops_per_s = quantile(rate, 0.5);
  st.cpu_us_per_op = quantile(cpu, 0.5);
  if (!lat_us.empty()) {
    st.p50_us = quantile(p50, 0.5);
    st.p95_us = quantile(p95, 0.5);
    st.latency_windowed = true;
  }
}

NsHistogram::NsHistogram() : buckets_(kBuckets, 0) {}

namespace {

/// Bucket of `v` and its [lower, lower + width) range.
std::size_t bucket_of(std::uint64_t v) {
  if (v < 64) return static_cast<std::size_t>(v);
  const int e = std::bit_width(v) - 7;  // v >> e in [64, 128)
  return 64 + 64 * static_cast<std::size_t>(e) +
         static_cast<std::size_t>((v >> e) - 64);
}

double bucket_lower(std::size_t b, double* width) {
  if (b < 64) {
    *width = 1.0;
    return static_cast<double>(b);
  }
  const std::size_t e = (b - 64) / 64;
  *width = std::ldexp(1.0, static_cast<int>(e));
  return static_cast<double>(64 + (b - 64) % 64) * *width;
}

}  // namespace

void NsHistogram::record(std::int64_t ns) {
  ++buckets_[bucket_of(static_cast<std::uint64_t>(std::max<std::int64_t>(0, ns)))];
  ++count_;
}

void NsHistogram::merge(const NsHistogram& o) {
  for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += o.buckets_[i];
  count_ += o.count_;
}

double NsHistogram::quantile_ns(double p) const {
  if (count_ == 0) return 0.0;
  // A bucket holding c samples spreads them evenly over its width.
  const double rank = p * static_cast<double>(count_);
  double seen = 0.0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    const double c = static_cast<double>(buckets_[b]);
    if (c > 0.0 && seen + c > rank) {
      double width = 0.0;
      const double lower = bucket_lower(b, &width);
      return lower + width * (rank - seen) / c;
    }
    seen += c;
  }
  return 0.0;
}

std::string instance_tag(const char* prefix, std::uint64_t seed,
                         std::size_t n) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s%llu_%zu", prefix,
                static_cast<unsigned long long>(seed % 100000), n);
  return buf;
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace cdse::bench

// -- counting global operator new ---------------------------------------------
// Counts heap allocations (calls and bytes) for the alloc.* per-layer
// metrics while the traced loop runs; the untraced loop pays one relaxed
// load per allocation.

namespace {

void* counted_alloc(std::size_t n) noexcept {
  if (cdse::bench::alloc_meter_on.load(std::memory_order_relaxed)) {
    cdse::bench::count_alloc(n);
  }
  return std::malloc(n != 0 ? n : 1);
}

void* counted_alloc_or_throw(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc_or_throw(n); }
void* operator new[](std::size_t n) { return counted_alloc_or_throw(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
