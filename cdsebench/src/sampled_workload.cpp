// sampled_eps: epsilon verdicts for systems too large to enumerate, one
// client on a ThreadPool of one worker.
//
// Ops:
//   grid  -- check_implementation_sampled on the one-time MAC at
//            k = 4..10 with a threshold above and one below the true
//            2^-k, plain and with split_depth importance splitting: a
//            sequential <= verdict per grid cell.
//   fixed -- fixed-budget sampled epsilon on the 2-session dynamic
//            ledger PCA (against its static specification) and on the
//            MAC: both sides warmed and frozen (ParallelSampler::prepare)
//            and sampled by the batched block kernel, then the balance
//            distance with its Hoeffding radius. This is
//            sampled_balance_epsilon's computation on the snapshot path,
//            the one whose batch counters are public.
//
// Warm-up and freeze, the batched alias sampler, the block RNG kernel and
// the sequential estimator do the work; on the MAC the draw kernel bounds
// it, on the ledger (thousands of distinct executions) class
// bookkeeping does. Exact arithmetic is nearly absent.
//
// Every pass runs the same ops, so seeds differ in sampling streams and
// op order, not in the op mix.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>

#include "common.hpp"
#include "crypto/pairs.hpp"
#include "impl/balance.hpp"
#include "impl/implementation.hpp"
#include "protocols/environment.hpp"
#include "protocols/ledger.hpp"
#include "psioa/compose.hpp"
#include "sched/schedulers.hpp"
#include "secure/adversary.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace cdse::bench {
namespace {

/// One worker, so the pool runs every chunk inline. On a shared 4-vCPU
/// host four workers were no faster than one and ran bimodally (per-op
/// latency 1.4 ms or 2.6 ms, depending on whether other tenants left all
/// four vCPUs free); two workers still moved ops_per_s by 25% across ten
/// runs, because each sequential stage hands work to the pool and back.
constexpr std::size_t kWorkers = 1;
/// Error probability of each verdict and radius. Small enough that a
/// false verdict across every run the benchmark will ever make is not
/// expected, so a wrong answer means a wrong program.
constexpr double kDelta = 1e-9;
/// Per-side trial budgets. The split estimator's conditional
/// continuations on the MAC are deterministic, so its batches collapse
/// to one trajectory class and a large budget costs almost nothing; its
/// Hoeffding envelope needs ~1e7 trials to separate 2^-10 from half or
/// twice itself.
constexpr std::size_t kPlainBudget = std::size_t{1} << 22;
constexpr std::size_t kSplitBudget = std::size_t{1} << 30;
constexpr std::size_t kFixedTrials = 20000;
constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;
/// Ops per summary window (about five passes): enough that a window's
/// p95 has more than ten samples beyond it.
constexpr std::uint64_t kWindowOps = 220;

struct SampledCase {
  std::string label;
  bool grid = false;
  // grid ops: environment + real/ideal protocol factories
  PsioaFactory env, real, ideal;
  std::vector<LabeledSchedulerFactory> scheds;
  SequentialPolicy policy;
  // fixed ops: the two closed systems
  PsioaFactory lhs, rhs;
  SchedulerFactory sigma;
  std::size_t depth = 0;
  /// Exact epsilon per grid cell (one entry for fixed ops).
  std::vector<Rational> truth;

  /// Wrong answers the loops saw (the first few).
  std::vector<std::string> wrong;
};

PsioaFactory mac_env(const std::string& t) {
  return [t]() -> PsioaPtr {
    auto env = make_probe_env_matching("env_" + t, {act("auth_" + t)},
                                       acts({"rejected_" + t}),
                                       act("forged_" + t), act("acc_" + t));
    auto adv = make_sink_adversary("adv_" + t, {}, acts({"forge_" + t}));
    return compose(env, adv);
  };
}

PsioaFactory mac_side(std::uint32_t k, const std::string& t, bool real) {
  return [k, t, real]() -> PsioaPtr {
    const RealIdealPair mac = make_otmac_pair(k, t);
    return real ? mac.real.ptr() : mac.ideal.ptr();
  };
}

SchedulerFactory mac_word(const std::string& t) {
  return [t]() -> SchedulerPtr {
    return std::make_shared<SequenceScheduler>(
        std::vector<ActionId>{act("auth_" + t), act("forge_" + t),
                              act("forged_" + t), act("acc_" + t)},
        true);
  };
}

SampledCase grid_case(const std::string& t, std::uint32_t k, bool above,
                      std::size_t split) {
  SampledCase c;
  const Rational eps(1, static_cast<std::int64_t>(1) << k);
  const double thr = above ? 2.0 * eps.to_double() : 0.5 * eps.to_double();
  c.label = "grid mac k=" + std::to_string(k) + " thr=" +
            (above ? "2x" : "x/2") + " split=" + std::to_string(split);
  c.grid = true;
  c.env = mac_env(t);
  c.real = mac_side(k, t, true);
  c.ideal = mac_side(k, t, false);
  c.scheds = {{"forge-word", mac_word(t)}};
  c.policy = SequentialPolicy::deciding(
      thr, split > 0 ? kSplitBudget : kPlainBudget, kDelta);
  c.policy.split_depth = split;
  c.depth = 12;
  c.truth = {eps};
  return c;
}

SampledCase fixed_mac_case(const std::string& t, std::uint32_t k) {
  SampledCase c;
  c.label = "fixed mac k=" + std::to_string(k);
  const PsioaFactory env = mac_env(t);
  const PsioaFactory real = mac_side(k, t, true);
  const PsioaFactory ideal = mac_side(k, t, false);
  c.lhs = [env, real] { return compose(env(), real()); };
  c.rhs = [env, ideal] { return compose(env(), ideal()); };
  c.sigma = [] { return std::make_shared<UniformScheduler>(12, true); };
  c.depth = 12;
  return c;
}

SampledCase fixed_ledger_case(const std::string& t) {
  SampledCase c;
  c.label = "fixed ledger n=2";
  c.lhs = [t]() -> PsioaPtr { return make_ledger_system(2, t).dynamic; };
  c.rhs = [t]() -> PsioaPtr { return make_ledger_system(2, t).static_spec; };
  c.sigma = [] { return std::make_shared<UniformScheduler>(8, false); };
  c.depth = 8;
  return c;
}

const char* verdict_name(SeqVerdict v) {
  switch (v) {
    case SeqVerdict::kAboveThreshold:
      return "above";
    case SeqVerdict::kBelowThreshold:
      return "below";
    default:
      return "undecided";
  }
}

class SampledWorkload final : public Workload {
 public:
  explicit SampledWorkload(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    pool_ = std::make_unique<ThreadPool>(kWorkers);
    cases_.clear();
    std::size_t n = 0;
    const auto tag = [&] { return instance_tag("s", seed_, n++); };
    // Split checks run twice per pass: their cost is mostly warm-up and
    // freeze, and with two thirds of the ops they hold the median.
    for (std::uint32_t k = 4; k <= 10; ++k) {
      for (const bool above : {true, false}) {
        for (const std::size_t split : {0u, 2u, 2u}) {
          cases_.push_back(grid_case(tag(), k, above, split));
        }
      }
    }
    for (const std::uint32_t k : {4u, 8u}) {
      cases_.push_back(fixed_mac_case(tag(), k));
    }
    for (int i = 0; i < 3; ++i) cases_.push_back(fixed_ledger_case(tag()));
    for (SampledCase& c : cases_) {
      if (c.grid) {
        (void)c.env();
        (void)c.real();
        (void)c.ideal();
      } else {
        (void)c.lhs();
        (void)c.rhs();
      }
    }
    rng_ = Xoshiro256::for_stream(seed_, 0x5a);
  }

  LoopStats run(double seconds, Tracer* tracer, Counters* counters) override {
    LoopStats st;
    std::vector<double> lat_us;
    std::vector<PassMark> marks{pass_mark(0, 0)};
    std::vector<std::size_t> order;
    std::uint64_t attempted = 0, failed = 0;
    double halfwidth_sum = 0.0;
    std::uint64_t halfwidths = 0;
    const std::int64_t deadline =
        now_ns() + static_cast<std::int64_t>(seconds * 1e9);
    // Whole passes only, so every run measures the same mix of ops.
    for (;;) {
      if (order.empty()) {
        if (attempted > 0) marks.push_back(pass_mark(attempted, failed));
        if (now_ns() >= deadline) break;
        order = shuffled();
      }
      SampledCase& c = cases_[order.back()];
      order.pop_back();
      const std::uint64_t op_seed = rng_();
      const std::int64_t t0 = now_ns();
      const std::int64_t c0 = tracer != nullptr ? process_cpu_ns() : 0;
      ++attempted;
      try {
        const std::vector<Answer> got =
            c.grid ? grid_op(c, op_seed, tracer, counters)
                   : fixed_op(c, op_seed, tracer, counters);
        bool decided = true;
        for (const Answer& a : got) {
          decided = decided && (!c.grid || a.verdict != SeqVerdict::kUndecided);
          halfwidth_sum += a.radius;
          ++halfwidths;
        }
        record(c, got);
        if (!decided) {
          ++failed;
          ++st.failures[c.label + ": undecided verdict"];
        }
      } catch (const std::exception& e) {
        ++failed;
        ++st.failures[c.label + ": " + e.what()];
      } catch (...) {
        ++failed;
        ++st.failures[c.label + ": non-standard exception"];
      }
      const std::int64_t t1 = now_ns();
      lat_us.push_back(static_cast<double>(t1 - t0) / 1e3);
      if (counters != nullptr) {
        (*counters)["pool.op_cpu_ns"] +=
            static_cast<double>(process_cpu_ns() - c0);
        (*counters)["pool.op_wall_ns"] += static_cast<double>(t1 - t0);
      }
    }
    summarise_loop(marks, lat_us, kWindowOps, st);
    st.eps_halfwidth =
        halfwidths > 0 ? halfwidth_sum / static_cast<double>(halfwidths) : 0.0;
    if (counters != nullptr) (*counters)["pool.workers"] = kWorkers;
    return st;
  }

  std::vector<std::string> verify() override {
    std::vector<std::string> wrong;
    for (const Pending& p : pending_fixed_) {
      const Rational& eps = truth(*p.c).front();
      if (std::abs(p.a.estimate - eps.to_double()) > p.a.radius &&
          p.c->wrong.size() < 8) {
        p.c->wrong.push_back("estimate " + std::to_string(p.a.estimate) +
                             " +- " + std::to_string(p.a.radius) +
                             " misses eps = " + eps.to_string());
      }
    }
    for (SampledCase& c : cases_) {
      for (const std::string& w : c.wrong) wrong.push_back(c.label + ": " + w);
    }
    return wrong;
  }

  std::string shape() const override {
    return "1 client, ThreadPool of " + std::to_string(kWorkers) +
           " workers, " + std::to_string(cases_.size()) + " op kinds";
  }

 private:
  struct Answer {
    double estimate = 0.0;
    double radius = 1.0;
    SeqVerdict verdict = SeqVerdict::kUndecided;
  };

  std::vector<std::size_t> shuffled() {
    std::vector<std::size_t> idx(cases_.size());
    for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    for (std::size_t i = idx.size(); i > 1; --i) {
      std::swap(idx[i - 1], idx[rng_.below(i)]);
    }
    return idx;
  }

  /// Fixed-budget answers wait for verify(), which enumerates the exact
  /// epsilon of their pair once per case, after the loops.
  struct Pending {
    SampledCase* c;
    Answer a;
  };

  /// The exact epsilon of a fixed-budget case (enumerated on first use).
  const std::vector<Rational>& truth(SampledCase& c) {
    if (!c.truth.empty()) return c.truth;
    TraceInsight f;
    PsioaPtr l = c.lhs(), r = c.rhs();
    SchedulerPtr sl = c.sigma(), sr = c.sigma();
    c.truth = {exact_balance_epsilon(*l, *sl, *r, *sr, f, c.depth)};
    return c.truth;
  }

  void record(SampledCase& c, const std::vector<Answer>& got) {
    if (c.wrong.size() >= 8) return;
    if (c.grid) {
      for (std::size_t i = 0; i < got.size(); ++i) {
        const double eps = c.truth[i].to_double();
        const Answer& a = got[i];
        const SeqVerdict want = eps > c.policy.threshold
                                    ? SeqVerdict::kAboveThreshold
                                    : SeqVerdict::kBelowThreshold;
        if (a.verdict != SeqVerdict::kUndecided && a.verdict != want) {
          c.wrong.push_back(std::string("verdict ") + verdict_name(a.verdict) +
                            " but eps = " + c.truth[i].to_string());
        }
        if (a.verdict != SeqVerdict::kUndecided &&
            std::abs(a.estimate - eps) > a.radius) {
          c.wrong.push_back("estimate " + std::to_string(a.estimate) +
                            " +- " + std::to_string(a.radius) +
                            " misses eps = " + c.truth[i].to_string());
        }
      }
    } else {
      pending_fixed_.push_back({&c, got.front()});
    }
  }

  std::vector<Answer> grid_op(const SampledCase& c, std::uint64_t seed,
                              Tracer* tr, Counters* k) {
    std::vector<Answer> out;
    const TraceInsight base;
    if (tr == nullptr) {
      const SampledImplementationReport rep = check_implementation_sampled(
          c.real, c.ideal, {{"probe", c.env}}, c.scheds, same_scheduler(),
          base, c.depth, *pool_, c.policy, seed);
      for (const auto& row : rep.rows) {
        out.push_back({row.eps, row.radius, row.verdict});
      }
      return out;
    }
    // Traced: the cell loop check_implementation_sampled runs (delta
    // split over the cells, per-cell seed rotation), one span per
    // sequential_balance_epsilon call.
    OpGuard op(tr, "op");
    SpanGuard check(tr, "impl.check");
    const std::int64_t t0 = now_ns();
    CountingInsight f(base);
    const PsioaFactory env = timed_factory(c.env, tr, &build_);
    const PsioaFactory real = timed_factory(c.real, tr, &build_);
    const PsioaFactory ideal = timed_factory(c.ideal, tr, &build_);
    SequentialPolicy cell_policy = c.policy;
    cell_policy.delta = c.policy.delta / static_cast<double>(c.scheds.size());
    for (std::size_t idx = 0; idx < c.scheds.size(); ++idx) {
      const PsioaFactory make_lhs = [&] { return compose(env(), real()); };
      const PsioaFactory make_rhs = [&] { return compose(env(), ideal()); };
      SequentialEpsilon cell;
      {
        SpanGuard s(tr, "seq.estimate");
        cell = sequential_balance_epsilon(
            make_lhs, c.scheds[idx].make, make_rhs, c.scheds[idx].make, f,
            cell_policy, seed + static_cast<std::uint64_t>(idx) * kGolden,
            c.depth, *pool_);
      }
      out.push_back({cell.estimate, cell.radius, cell.verdict});
      (*k)["seq.verdicts"] += 1;
      (*k)["seq.draws"] += static_cast<double>(cell.draws);
      (*k)["seq.trials"] += static_cast<double>(cell.trials);
      (*k)["seq.looks"] += static_cast<double>(cell.looks);
      (*k)["seq.stages"] += static_cast<double>(cell.stages);
      (*k)["seq.strata"] += static_cast<double>(cell.strata);
      if (cell.verdict == SeqVerdict::kUndecided) (*k)["seq.undecided"] += 1;
    }
    (*k)["impl.checks"] += 1;
    (*k)["impl.cells"] += static_cast<double>(c.scheds.size());
    (*k)["impl.check_ns"] += static_cast<double>(now_ns() - t0);
    add_common(f, k);
    return out;
  }

  std::vector<Answer> fixed_op(const SampledCase& c, std::uint64_t seed,
                               Tracer* tr, Counters* k) {
    const TraceInsight base;
    std::optional<CountingInsight> counting;
    if (tr != nullptr) counting.emplace(base);
    const InsightFunction& f =
        counting.has_value() ? static_cast<const InsightFunction&>(*counting)
                             : base;
    OpGuard op(tr, "op");
    ParallelSampler left(timed_factory(c.lhs, tr, &build_), c.sigma);
    ParallelSampler right(timed_factory(c.rhs, tr, &build_), c.sigma);
    WarmupPlan plan;
    plan.horizon = c.depth;
    for (ParallelSampler* s : {&left, &right}) {
      SpanGuard span(tr, "snapshot.prepare");
      const std::int64_t t0 = now_ns();
      s->prepare(plan, c.depth);
      if (k != nullptr) {
        (*k)["snapshot.prepares"] += 1;
        (*k)["snapshot.prepare_ns"] += static_cast<double>(now_ns() - t0);
        (*k)["snapshot.states"] +=
            static_cast<double>(s->snapshot()->state_count());
        (*k)["snapshot.rows"] += static_cast<double>(s->snapshot()->row_count());
      }
    }
    Disc<Perception, double> dl, dr;
    {
      SpanGuard span(tr, "batch.sample");
      dl = left.sample_fdist(f, kFixedTrials, seed, c.depth, *pool_,
                             SamplingMode::kBatched);
    }
    {
      SpanGuard span(tr, "batch.sample");
      dr = right.sample_fdist(f, kFixedTrials, seed + 1, c.depth, *pool_,
                              SamplingMode::kBatched);
    }
    Answer a;
    {
      SpanGuard span(tr, "measure.balance");
      a.estimate = balance_distance(dl, dr);
    }
    a.radius = 2.0 * hoeffding_radius(kFixedTrials, kDelta);
    if (k != nullptr) {
      for (const ParallelSampler* s : {&left, &right}) {
        const BatchStats& b = s->last_batch_stats();
        (*k)["batch.samples"] += 1;
        (*k)["batch.action_draws"] += static_cast<double>(b.action_draws);
        (*k)["batch.target_draws"] += static_cast<double>(b.target_draws);
        (*k)["batch.choice_lookups"] += static_cast<double>(b.choice_lookups);
        (*k)["batch.row_lookups"] += static_cast<double>(b.row_lookups);
        (*k)["batch.class_steps"] += static_cast<double>(b.class_steps);
        (*k)["batch.distinct_execs"] +=
            static_cast<double>(b.distinct_executions);
        (*k)["batch.singleton_skips"] += static_cast<double>(b.singleton_skips);
        (*k)["batch.block_draws"] += static_cast<double>(b.block_draws);
        (*k)["batch.rejection_redraws"] +=
            static_cast<double>(b.rejection_redraws);
        (*k)["snapshot.row_overflows"] +=
            static_cast<double>(s->last_stats().row_overflows);
        const InternStats is = s->residue_intern_stats();
        (*k)["intern.lookups"] += static_cast<double>(is.lookups);
        (*k)["intern.probes"] += static_cast<double>(is.probes);
        (*k)["intern.rehashes"] += static_cast<double>(is.rehashes);
      }
      (*k)["measure.support"] +=
          static_cast<double>(dl.support_size() + dr.support_size());
      add_common(*counting, k);
    }
    return {a};
  }

  void add_common(const CountingInsight& f, Counters* k) {
    (*k)["insight.calls"] += static_cast<double>(f.calls());
    (*k)["insight.ns"] += static_cast<double>(f.ns());
    (*k)["insight.bytes"] += static_cast<double>(f.bytes());
    (*k)["psioa.build_ns"] = static_cast<double>(build_.ns.load());
  }

  std::uint64_t seed_;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<SampledCase> cases_;
  Xoshiro256 rng_{0};
  BuildMeter build_;
  std::vector<Pending> pending_fixed_;
};

}  // namespace

std::unique_ptr<Workload> make_sampled_workload(std::uint64_t seed) {
  return std::make_unique<SampledWorkload>(seed);
}

}  // namespace cdse::bench
