#pragma once
// Shared pieces of the cdse benchmark binary: clocks, latency summaries,
// the allocation meter, and the interface every workload implements.
//
// A workload is set up several times (setup_s is the median), then runs
// a closed loop of operations for a fixed wall time, once untraced (the
// end-to-end numbers) and, with --trace 1, once more traced (the
// per-layer numbers). Answers are recorded during the loops and checked
// afterwards, outside every timed region.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace cdse::bench {

class Tracer;

std::int64_t now_ns();         ///< steady clock
std::int64_t process_cpu_ns(); ///< CPU time of every thread of the process
double peak_rss_mb();          ///< VmHWM of this process

/// Allocation meter: the counting global operator new (common.cpp)
/// counts calls and bytes only while `alloc_meter_on` is set, i.e. in the
/// traced loop; otherwise each allocation pays one relaxed load.
/// Threads count into separate cache lines, summed on read.
extern std::atomic<bool> alloc_meter_on;
void reset_alloc_meter();  ///< call while no other thread allocates
std::uint64_t alloc_calls();
std::uint64_t alloc_bytes();

/// Exact quantile (linear interpolation between order statistics) of an
/// unsorted sample; p in [0, 1]. Sorts `xs`.
double quantile(std::vector<double>& xs, double p);

/// Log-linear latency histogram for sub-microsecond requests: exact
/// below 64 ns, then 64 buckets per power of two (1.6% wide), so it stays
/// small (30 KiB) next to the service it measures. Quantiles interpolate
/// inside the answering bucket and keep their fractional digits.
class NsHistogram {
 public:
  NsHistogram();
  void record(std::int64_t ns);
  void merge(const NsHistogram& o);
  std::uint64_t count() const { return count_; }
  double quantile_ns(double p) const;

 private:
  static constexpr int kSub = 64;
  static constexpr std::size_t kBuckets = kSub + kSub * 58;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
};

/// What one timed loop produced. Rates and latencies are medians over
/// windows of whole passes, so a host stall that hits part of a run
/// moves them less than it moves the pooled figures.
struct LoopStats {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double wall_s = 0.0;  ///< whole loop
  double cpu_s = 0.0;   ///< whole loop, every thread of the process
  std::size_t windows = 0;
  std::uint64_t window_ops_min = 0;  ///< ops in the smallest window
  double ops_per_s = 0.0;      ///< completed ops / wall second
  double cpu_us_per_op = 0.0;  ///< process CPU / completed op
  double p50_us = 0.0;
  double p95_us = 0.0;
  std::uint64_t latency_samples = 0;
  /// p50/p95 are medians over the windows (false: pooled over the run).
  bool latency_windowed = false;
  /// Mean confidence half-width of sampled answers; < 0 when the
  /// workload gives no sampled answers.
  double eps_halfwidth = -1.0;
  /// Failure reasons by message, for the report.
  std::map<std::string, std::uint64_t> failures;
};

/// State of a timed loop at the start of a pass (and once at its end).
struct PassMark {
  std::int64_t t_ns = 0;
  std::int64_t cpu_ns = 0;     ///< process CPU time
  std::uint64_t attempted = 0; ///< ops attempted before the mark
  std::uint64_t failed = 0;    ///< ops failed before the mark
};

PassMark pass_mark(std::uint64_t attempted, std::uint64_t failed);

/// Fills st's totals, rates and latencies from the loop's pass marks:
/// consecutive passes are grouped into windows of at least `min_ops`
/// ops, and each figure is the median over windows. `lat_us` holds every
/// op's latency in loop order; when empty, p50/p95 are left to the
/// caller.
void summarise_loop(const std::vector<PassMark>& marks,
                    const std::vector<double>& lat_us, std::uint64_t min_ops,
                    LoopStats& st);

/// Per-layer counters of the traced loop, by the names BENCHMARK.json
/// uses for the raw quantities they are built from (see summarise.py).
using Counters = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds everything the timed loop needs. Called several times; the
  /// last call's state is what the loop runs on.
  virtual void setup() = 0;
  /// Runs operations until `seconds` of wall time have passed. With a
  /// tracer, records spans and adds layer counters to `counters`.
  virtual LoopStats run(double seconds, Tracer* tracer,
                        Counters* counters) = 0;
  /// Checks every answer the loops recorded. Returns the wrong ones, one
  /// line each (empty = all correct).
  virtual std::vector<std::string> verify() = 0;
  /// Clients and workers the workload drives, for the report.
  virtual std::string shape() const = 0;
};

std::unique_ptr<Workload> make_exact_workload(std::uint64_t seed);
std::unique_ptr<Workload> make_sampled_workload(std::uint64_t seed);
std::unique_ptr<Workload> make_soak_workload(std::uint64_t seed);

/// Prints the provenance lines and runs the host calibration probe
/// (its own process, so its buffers stay out of the workloads' RSS).
int run_probe();

/// Action-name tag of catalogue instance `n` under `seed`, unique per
/// (prefix, seed, n) so instances of different workloads never share
/// actions.
std::string instance_tag(const char* prefix, std::uint64_t seed,
                         std::size_t n);

/// Renders a double for JSON with all its digits.
std::string json_num(double v);
std::string json_str(const std::string& s);

}  // namespace cdse::bench
