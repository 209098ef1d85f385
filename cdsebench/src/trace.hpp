#pragma once
// In-memory span recorder for the traced run, plus the two wrappers that
// time calls the library makes back into the workload (insight
// functions and automaton factories).
//
// Spans are recorded only on the thread that owns the tracer (the
// benchmark's main thread) around the calls it makes into each
// layer's public functions. Calls that arrive on pool workers, per-leaf
// insight calls and per-request service calls are aggregated into
// counters instead of becoming one span each. The dump is written once,
// after the loop, and summarise.py turns it into the per-layer table.

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "psioa/psioa.hpp"
#include "sched/insight.hpp"

namespace cdse::bench {

class Tracer {
 public:
  struct Span {
    std::uint32_t id;
    std::uint32_t parent;  ///< 0 = root
    std::uint32_t op;      ///< op this span belongs to
    const char* name;      ///< static string
    std::int64_t t0;
    std::int64_t t1;
  };

  Tracer();

  /// Starts a root span for a new op and returns its id.
  std::uint32_t begin_op(const char* name);
  std::uint32_t begin(const char* name);  ///< child of the open span
  void end(std::uint32_t id);

  bool on_owner_thread() const {
    return std::this_thread::get_id() == owner_;
  }

  /// Writes {"counters": ..., "spans": [[id, parent, op, name, t0, t1]]}.
  bool dump(const std::string& path, const Counters& counters) const;

 private:
  std::thread::id owner_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;  // stack of open span indices
  std::uint32_t op_ = 0;
};

/// RAII span; a no-op when `tracer` is null or called off-thread.
class SpanGuard {
 public:
  SpanGuard(Tracer* tracer, const char* name);
  ~SpanGuard();
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  Tracer* tracer_;
  std::uint32_t id_ = 0;
};

/// Root span of one op.
class OpGuard {
 public:
  OpGuard(Tracer* tracer, const char* name);
  ~OpGuard();
  OpGuard(const OpGuard&) = delete;
  OpGuard& operator=(const OpGuard&) = delete;

 private:
  Tracer* tracer_;
  std::uint32_t id_ = 0;
};

/// Counting and timing wrapper around an insight function: every leaf
/// (exact) or distinct execution (sampled) calls it once. Thread-safe.
class CountingInsight final : public InsightFunction {
 public:
  explicit CountingInsight(const InsightFunction& inner) : inner_(inner) {}
  Perception apply(Psioa& automaton, const ExecFragment& alpha) const override;
  std::string name() const override { return inner_.name(); }

  std::uint64_t calls() const { return calls_.load(); }
  std::uint64_t ns() const { return ns_.load(); }
  std::uint64_t bytes() const { return bytes_.load(); }

 private:
  const InsightFunction& inner_;
  mutable std::atomic<std::uint64_t> calls_{0};
  mutable std::atomic<std::uint64_t> ns_{0};
  mutable std::atomic<std::uint64_t> bytes_{0};
};

/// Aggregate time in the workload's PsioaFactory calls, wherever the
/// library invokes them.
struct BuildMeter {
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> ns{0};
};

/// Wraps `make` so each call is timed into `meter` and, on the tracer's
/// thread, recorded as a "psioa.build" span. With a null tracer the
/// factory is returned unchanged.
PsioaFactory timed_factory(PsioaFactory make, Tracer* tracer,
                           BuildMeter* meter);

}  // namespace cdse::bench
