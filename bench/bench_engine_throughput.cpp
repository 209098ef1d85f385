// E10 -- engineering baseline: throughput of the execution engines that
// every other experiment stands on. google-benchmark microbenchmarks:
//   - single-thread execution sampling (coin; composed real/ideal pair,
//     with the memoized compiled fast-path cached vs uncached),
//   - parallel Monte-Carlo f-dist estimation across thread counts,
//   - exact cone enumeration,
//   - Rational *= / += chains over dyadic and non-dyadic weights,
//   - composite transition evaluation.
//
// Unless the caller passes its own --benchmark_out, results are also
// written machine-readably to BENCH_engine.json in the working
// directory, so the cached/uncached speedup is scriptably comparable
// across revisions.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "crypto/pairs.hpp"
#include "impl/balance.hpp"
#include "impl/implementation.hpp"
#include "pca/check.hpp"
#include "protocols/coinflip.hpp"
#include "protocols/environment.hpp"
#include "protocols/ledger.hpp"
#include "psioa/memo.hpp"
#include "psioa/random.hpp"
#include "sched/cone_measure.hpp"
#include "sched/sampler.hpp"
#include "sched/schedulers.hpp"
#include "secure/adversary.hpp"
#include "util/rational.hpp"
#include "util/rng.hpp"
#include "util/state_interner.hpp"

// -- allocator traffic meter -------------------------------------------------
// Counting global operator new/delete for this binary only: the E10
// warm-up rows report how many heap allocations (count and bytes) one
// cold warm_automaton + freeze performs on the arena interner. The
// counters are atomic (warm-up itself is single-threaded, but the
// parallel sampling rows run concurrently with nothing -- keep it safe).

namespace {
std::atomic<std::uint64_t> g_alloc_bytes{0};
std::atomic<std::uint64_t> g_alloc_calls{0};

void* counted_alloc(std::size_t n) {
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
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

namespace cdse {
namespace {

void BM_SampleCoinExecution(benchmark::State& state) {
  auto coin = make_coin("e10_a", Rational(1, 2));
  UniformScheduler sched(16);
  Xoshiro256 rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sample_execution(*coin, sched, rng, 16));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SampleCoinExecution);

/// Fills the memo/scheduler caches before the timed region so cached
/// rows measure steady-state throughput, not (throughput + first-touch
/// compilation). The warm-up draws from a dedicated stream; the timed
/// loop's stream is untouched, so timed draws are unchanged by warming.
void warm_caches(Psioa& sys, Scheduler& sched, std::size_t max_depth) {
  Xoshiro256 warm_rng(0xbe9cULL);
  for (int i = 0; i < 200; ++i) {
    (void)sample_execution(sys, sched, warm_rng, max_depth);
  }
}

void BM_SampleCoinExecutionMemoView(benchmark::State& state) {
  // Leaf automata are not migrated onto the memo base; memoize() wraps
  // them in a caching view instead. This row prices that wrapper.
  auto coin = memoize(make_coin("e10_a2", Rational(1, 2)));
  UniformScheduler sched(16);
  warm_caches(*coin, sched, 16);
  Xoshiro256 rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sample_execution(*coin, sched, rng, 16));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SampleCoinExecutionMemoView);

/// The closed one-time-MAC system of E7: probe environment, sink
/// adversary, and the real or ideal structured protocol stack.
PsioaPtr make_mac_system(const std::string& tag, bool real) {
  const RealIdealPair mac = make_otmac_pair(8, tag);
  auto env = make_probe_env_matching(
      "env_" + tag, {act("auth_" + tag)}, acts({"rejected_" + tag}),
      act("forged_" + tag), act("acc_" + tag));
  auto adv = make_sink_adversary("adv_" + tag, {}, acts({"forge_" + tag}));
  return compose(env,
                 compose(real ? mac.real.ptr() : mac.ideal.ptr(), adv));
}

/// The pre-memoization baseline scheduler: choose() is re-evaluated and
/// recompiled on every step (the Scheduler default), with no per-state
/// row memo -- pair it with set_memoization(false) for the "uncached"
/// rows so both caching layers are off, as before this revision.
class UncachedUniform : public Scheduler {
 public:
  explicit UncachedUniform(std::size_t depth_bound, bool local_only)
      : inner_(depth_bound, local_only) {}
  ActionChoice choose(Psioa& automaton, const ExecFragment& alpha) override {
    return inner_.choose(automaton, alpha);
  }
  std::string name() const override { return "uniform-uncached"; }

 private:
  UniformScheduler inner_;
};

void BM_SampleComposedExecution(benchmark::State& state, bool real,
                                bool cached, const std::string& tag) {
  auto sys = make_mac_system(tag, real);
  sys->set_memoization(cached);
  UniformScheduler cached_sched(12, true);
  UncachedUniform uncached_sched(12, true);
  Scheduler& sched =
      cached ? static_cast<Scheduler&>(cached_sched)
             : static_cast<Scheduler&>(uncached_sched);
  // Both variants warm outside the timed region. Previously the cached
  // rows paid first-touch signature resolution and row compilation
  // *inside* the loop, understating the steady-state cached speedup.
  warm_caches(*sys, sched, 12);
  Xoshiro256 rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sample_execution(*sys, sched, rng, 12));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_SampleComposedRealCached(benchmark::State& state) {
  BM_SampleComposedExecution(state, true, true, "e10_b");
}
BENCHMARK(BM_SampleComposedRealCached);

void BM_SampleComposedRealUncached(benchmark::State& state) {
  BM_SampleComposedExecution(state, true, false, "e10_b");
}
BENCHMARK(BM_SampleComposedRealUncached);

void BM_SampleComposedIdealCached(benchmark::State& state) {
  BM_SampleComposedExecution(state, false, true, "e10_g");
}
BENCHMARK(BM_SampleComposedIdealCached);

void BM_SampleComposedIdealUncached(benchmark::State& state) {
  BM_SampleComposedExecution(state, false, false, "e10_g");
}
BENCHMARK(BM_SampleComposedIdealUncached);

void BM_ParallelFdist(benchmark::State& state) {
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  const std::size_t trials = 20000;
  ThreadPool pool(threads);
  TraceInsight f;
  ParallelSampler sampler(
      [] { return make_coin("e10_c", Rational(1, 3)); },
      [] { return std::make_shared<UniformScheduler>(8); });
  WarmupPlan plan;
  plan.horizon = 8;
  sampler.prepare(plan, 8);
  std::uint64_t seed = 3;
  for (auto _ : state) {
    auto dist = sampler.sample_fdist(f, trials, seed++, 8, pool);
    benchmark::DoNotOptimize(dist);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * trials));
}
BENCHMARK(BM_ParallelFdist)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

/// Resident set size in kB from /proc/self/status, 0 where unavailable;
/// reported as a counter on the snapshot rows to make the one-copy-of-
/// the-tables claim visible next to the throughput numbers.
double rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmRSS:") {
      double kb = 0.0;
      status >> kb;
      return kb;
    }
    status.ignore(1 << 10, '\n');
  }
  return 0.0;
}

/// The MAC system over one shared frozen snapshot: prepare() (warm-up +
/// freeze) runs once outside the timed region, workers are thin views.
void BM_SnapshotParallelFdist(benchmark::State& state) {
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  const std::size_t trials = 2000;
  ThreadPool pool(threads);
  TraceInsight f;
  ParallelSampler sampler(
      [] { return make_mac_system("e10_i", true); },
      [] { return std::make_shared<UniformScheduler>(12, true); });
  WarmupPlan plan;
  plan.horizon = 12;
  sampler.prepare(plan, 12);
  std::uint64_t seed = 4;
  for (auto _ : state) {
    auto dist = sampler.sample_fdist(f, trials, seed++, 12, pool);
    benchmark::DoNotOptimize(dist);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * trials));
  state.counters["snapshot_states"] =
      static_cast<double>(sampler.snapshot()->state_count());
  state.counters["snapshot_rows"] =
      static_cast<double>(sampler.snapshot()->row_count());
  state.counters["row_overflows"] =
      static_cast<double>(sampler.last_stats().row_overflows);
  state.counters["rss_kb"] = rss_kb();
}
BENCHMARK(BM_SnapshotParallelFdist)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

/// Shared body of the batched-engine rows (E20/E21): the chosen stack
/// over one frozen snapshot, stepped by the batched lockstep engine in
/// the chosen mode. Emits the full BatchStats counter set into the JSON
/// rows -- the amortization pair (action_draws vs row_lookups) plus the
/// class-splitting RNG accounting (binomial_draws / block_draws /
/// singleton_skips / rejection_redraws). In kSerial mode the batch
/// counters are all zero.
void BM_BatchedFdistStack(benchmark::State& state, const PsioaFactory& make,
                          std::size_t depth, SamplingMode mode,
                          bool local_only) {
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  // 10x the snapshot row's trial count: the batched rows measure the
  // draw-kernel regime (the paper's emulation checks want millions of
  // executions), and at 2000 trials the fixed per-round class
  // bookkeeping hides the kernel's cost.
  const std::size_t trials = 20000;
  ThreadPool pool(threads);
  TraceInsight f;
  ParallelSampler sampler(make, [depth, local_only] {
    return std::make_shared<UniformScheduler>(depth, local_only);
  });
  WarmupPlan plan;
  plan.horizon = depth;
  sampler.prepare(plan, depth);
  constexpr std::uint64_t kSeed = 4;
  std::uint64_t seed = kSeed;
  for (auto _ : state) {
    auto dist = sampler.sample_fdist(f, trials, seed++, depth, pool, mode);
    benchmark::DoNotOptimize(dist);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * trials));
  // The counters come from one untimed run at the first seed, so they do
  // not depend on how many iterations the timer happened to run.
  (void)sampler.sample_fdist(f, trials, kSeed, depth, pool, mode);
  const BatchStats& bs = sampler.last_batch_stats();
  state.counters["action_draws"] = static_cast<double>(bs.action_draws);
  state.counters["target_draws"] = static_cast<double>(bs.target_draws);
  state.counters["row_lookups"] = static_cast<double>(bs.row_lookups);
  state.counters["choice_lookups"] = static_cast<double>(bs.choice_lookups);
  state.counters["distinct_execs"] =
      static_cast<double>(bs.distinct_executions);
  state.counters["block_draws"] = static_cast<double>(bs.block_draws);
  state.counters["singleton_skips"] =
      static_cast<double>(bs.singleton_skips);
  state.counters["rejection_redraws"] =
      static_cast<double>(bs.rejection_redraws);
  state.counters["binomial_draws"] = static_cast<double>(bs.binomial_draws);
  state.counters["rss_kb"] = rss_kb();
}

/// The serial walk over the same snapshot, trials and depth as the
/// batched row below: the in-process reference the E21 speedup floor
/// divides by.
void BM_SerialMacFdist(benchmark::State& state) {
  BM_BatchedFdistStack(state, [] { return make_mac_system("e10_l", true); },
                       12, SamplingMode::kSerial, /*local_only=*/true);
}
BENCHMARK(BM_SerialMacFdist)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

/// E21: the same MAC workload stepped by the batched sampler -- class
/// splitting by binomial draws, singleton elision. (The row keeps its
/// name from the per-trial block kernel it measured before.)
void BM_BlockBatchedFdist(benchmark::State& state) {
  BM_BatchedFdistStack(state, [] { return make_mac_system("e10_m", true); },
                       12, SamplingMode::kBatched, /*local_only=*/true);
}
BENCHMARK(BM_BlockBatchedFdist)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

/// E21, ledger stack: the dynamic-creation PCA ledger ensemble -- wider
/// choice rows and genuinely probabilistic transitions, so the batched
/// sampler leans on binomial splits rather than singleton elision here.
void BM_SerialLedgerFdist(benchmark::State& state) {
  // The non-local uniform scheduler keeps a residual halt slot in every
  // choice row, so the ledger batched row below exercises genuine
  // multi-slot splits (the MAC rows above lean on singleton elision).
  BM_BatchedFdistStack(state,
                       [] { return make_ledger_system(2, "e10_n").dynamic; },
                       8, SamplingMode::kSerial, /*local_only=*/false);
}
BENCHMARK(BM_SerialLedgerFdist)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

void BM_BlockBatchedLedgerFdist(benchmark::State& state) {
  BM_BatchedFdistStack(state,
                       [] { return make_ledger_system(2, "e10_o").dynamic; },
                       8, SamplingMode::kBatched, /*local_only=*/false);
}
BENCHMARK(BM_BlockBatchedLedgerFdist)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

/// A state-rich two-component ensemble for the cold warm-up rows. The
/// MAC stack of E7 tops out around twenty composite states, which would
/// price only the interner's fixed costs (first arena chunk, reserved
/// tables); this pair of wide random automata, cross-wired through each
/// other's outputs, gives the BFS warm-up hundreds of composite states
/// to intern -- the per-key regime the arena interner targets.
PsioaPtr make_wide_ensemble(const std::string& tag) {
  Xoshiro256 rng(0x51deULL);
  RandomPsioaConfig ca;
  ca.n_states = 24;
  ca.n_outputs = 3;
  ca.n_internals = 1;
  RandomPsioaConfig cb = ca;
  ca.input_candidates = acts(
      {"rout0_" + tag + "b", "rout1_" + tag + "b", "rout2_" + tag + "b"});
  cb.input_candidates = acts(
      {"rout0_" + tag + "a", "rout1_" + tag + "a", "rout2_" + tag + "a"});
  auto a = make_random_psioa(tag + "_A", tag + "a", ca, rng);
  auto b = make_random_psioa(tag + "_B", tag + "b", cb, rng);
  return compose(PsioaPtr(a), PsioaPtr(b));
}

/// Cold warm-up + freeze: every iteration builds a fresh ParallelSampler
/// over the wide ensemble, runs the full BFS warm-up (prepare) and a
/// short parallel sample over the frozen snapshot, reporting allocator
/// traffic, probe counts and interner-attributed bytes.
void BM_ColdWarmupFreeze(benchmark::State& state, const std::string& tag) {
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  ThreadPool pool(threads);
  TraceInsight f;
  std::uint64_t seed = 6;
  InternStats last{};
  std::uint64_t alloc_bytes = 0;
  std::uint64_t alloc_calls = 0;
  for (auto _ : state) {
    const std::uint64_t b0 =
        g_alloc_bytes.load(std::memory_order_relaxed);
    const std::uint64_t c0 =
        g_alloc_calls.load(std::memory_order_relaxed);
    ParallelSampler sampler(
        [&tag] { return make_wide_ensemble(tag); },
        [] { return std::make_shared<UniformScheduler>(12, true); });
    WarmupPlan plan;
    plan.horizon = 12;
    plan.reserve_states = 600;  // ensemble tops out at 24*24 tuples
    sampler.prepare(plan, 12);
    auto dist = sampler.sample_fdist(f, 500, seed++, 12, pool);
    benchmark::DoNotOptimize(dist);
    alloc_bytes = g_alloc_bytes.load(std::memory_order_relaxed) - b0;
    alloc_calls = g_alloc_calls.load(std::memory_order_relaxed) - c0;
    last = sampler.residue_intern_stats();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["alloc_bytes"] = static_cast<double>(alloc_bytes);
  state.counters["alloc_calls"] = static_cast<double>(alloc_calls);
  state.counters["intern_keys"] = static_cast<double>(last.keys);
  state.counters["intern_bytes"] = static_cast<double>(last.arena_bytes);
  state.counters["intern_chunks"] = static_cast<double>(last.arena_chunks);
  state.counters["intern_probes"] = static_cast<double>(last.probes);
  state.counters["intern_rehashes"] = static_cast<double>(last.rehashes);
  state.counters["rss_kb"] = rss_kb();
}

void BM_ColdWarmupFreezeArena(benchmark::State& state) {
  BM_ColdWarmupFreeze(state, "e10_k");
}
BENCHMARK(BM_ColdWarmupFreezeArena)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

void BM_ExactConeEnumeration(benchmark::State& state) {
  // The iterative pending-edge default; the Legacy row below is the
  // recursive reference it replaced (one ExecFragment copy per edge).
  const std::size_t depth = static_cast<std::size_t>(state.range(0));
  auto coin = make_coin("e10_d", Rational(1, 2));
  UniformScheduler sched(depth);
  TraceInsight f;
  ConeStats stats;
  for (auto _ : state) {
    stats = ConeStats{};
    benchmark::DoNotOptimize(exact_fdist(*coin, sched, f, depth, &stats));
  }
  state.counters["frames_peak"] = static_cast<double>(stats.frames_peak);
  state.counters["frames_pushed"] = static_cast<double>(stats.frames_pushed);
  state.counters["leaves"] = static_cast<double>(stats.leaves);
}
BENCHMARK(BM_ExactConeEnumeration)->Arg(6)->Arg(9)->Arg(12);

void BM_ExactConeEnumerationLegacy(benchmark::State& state) {
  const std::size_t depth = static_cast<std::size_t>(state.range(0));
  auto coin = make_coin("e10_d2", Rational(1, 2));
  UniformScheduler sched(depth);
  TraceInsight f;
  for (auto _ : state) {
    benchmark::DoNotOptimize(exact_fdist_recursive(*coin, sched, f, depth));
  }
}
BENCHMARK(BM_ExactConeEnumerationLegacy)->Arg(6)->Arg(9)->Arg(12);

// -- Rational layer: the cone's prob * w chains and leaf sums ---------------
// Fixed-seed chains of *= and += as walk_cone and the f-dist accumulator
// issue them: each chain multiplies kChainDepth weights into a path
// probability and adds every prefix into a running sum. Arg 0 draws
// dyadic weights (the random stacks' transition weights), arg 1
// non-dyadic ones (the banded stacks' uniform choice weights). Depth 16
// keeps every denominator below 8^16, far from the int64 edge.
void BM_RationalChain(benchmark::State& state) {
  constexpr std::size_t kChains = 256;
  constexpr std::size_t kChainDepth = 16;
  const bool dyadic = state.range(0) == 0;
  const std::vector<Rational> weights =
      dyadic ? std::vector<Rational>{Rational(1, 2), Rational(1, 4),
                                     Rational(3, 4), Rational(1, 8),
                                     Rational(5, 8), Rational(7, 8)}
             : std::vector<Rational>{Rational(1, 3), Rational(2, 3),
                                     Rational(1, 5), Rational(2, 5),
                                     Rational(4, 5), Rational(1, 7),
                                     Rational(3, 7), Rational(6, 7)};
  Xoshiro256 rng(7);
  std::vector<std::uint8_t> picks(kChains * kChainDepth);
  for (std::uint8_t& pick : picks) {
    pick = static_cast<std::uint8_t>(rng.below(weights.size()));
  }
  for (auto _ : state) {
    for (std::size_t c = 0; c < kChains; ++c) {
      Rational prob(1);
      Rational sum;
      for (std::size_t d = 0; d < kChainDepth; ++d) {
        prob *= weights[picks[c * kChainDepth + d]];
        sum += prob;
      }
      benchmark::DoNotOptimize(sum);
    }
  }
  // One *= and one += per step.
  state.SetItemsProcessed(static_cast<std::int64_t>(
      state.iterations() * kChains * kChainDepth * 2));
}
BENCHMARK(BM_RationalChain)->Arg(0)->Arg(1);

void BM_CompositeTransition(benchmark::State& state) {
  const LedgerSystem sys = make_ledger_system(3, "e10_e");
  const State q0 = sys.dynamic->start_state();
  const ActionId open1 = act("open1_e10_e");
  for (auto _ : state) {
    benchmark::DoNotOptimize(sys.dynamic->transition(q0, open1));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CompositeTransition);

void BM_PcaConstraintCheck(benchmark::State& state) {
  for (auto _ : state) {
    const LedgerSystem sys = make_ledger_system(2, "e10_f");
    benchmark::DoNotOptimize(check_pca_constraints(*sys.dynamic, 5));
  }
}
BENCHMARK(BM_PcaConstraintCheck);

// -- E22: sequential vs fixed-trial draw accounting --------------------------
// Not a timed microbenchmark: the deliverable is the logical draw count
// of the anytime-valid sequential estimator against the fixed-trial
// reference at equal verdict, on the one-time-MAC implementation check
// (k = 4, exact eps = 1/16 under the forgery word). The rows land as a
// top-level "e22_rows" array in the benchmark JSON so check.sh
// --bench-smoke can gate on the draw-reduction floor.

struct E22Row {
  std::string name;
  double threshold = 0.0;
  std::uint64_t fixed_draws = 0;
  std::uint64_t seq_draws = 0;
  double reduction = 0.0;
  bool verdict_agree = false;
  double estimate = 0.0;
};

std::vector<E22Row> run_e22() {
  const std::string tag = "e22m";
  TraceInsight f;
  ThreadPool pool(8);
  const std::size_t depth = 12;
  const std::size_t budget = std::size_t{1} << 16;
  const RealIdealPair mac = make_otmac_pair(4, tag);
  const PsioaFactory a = [mac] { return mac.real.ptr(); };
  const PsioaFactory b = [mac] { return mac.ideal.ptr(); };
  const std::vector<LabeledPsioaFactory> envs = {
      {"probe", [tag]() -> PsioaPtr {
         auto env = make_probe_env_matching(
             "env_" + tag, {act("auth_" + tag)}, acts({"rejected_" + tag}),
             act("forged_" + tag), act("acc_" + tag));
         auto adv =
             make_sink_adversary("adv_" + tag, {}, acts({"forge_" + tag}));
         return compose(env, adv);
       }}};
  const std::vector<LabeledSchedulerFactory> schedulers = {
      {"word", [tag]() -> SchedulerPtr {
         return std::make_shared<SequenceScheduler>(
             std::vector<ActionId>{act("auth_" + tag), act("forge_" + tag),
                                   act("forged_" + tag), act("acc_" + tag)},
             /*local_only=*/true);
       }}};

  std::vector<E22Row> rows;
  const std::pair<const char*, double> grid_cases[] = {
      {"mac_impl_above", 0.03}, {"mac_impl_below", 0.2}};
  for (const auto& [name, thr] : grid_cases) {
    const SampledImplementationReport seq = check_implementation_sampled(
        a, b, envs, schedulers, same_scheduler(), f, depth, pool,
        SequentialPolicy::deciding(thr, budget, 1e-3), 97);
    SequentialPolicy fp = SequentialPolicy::fixed(budget);
    fp.threshold = thr;
    const SampledImplementationReport fixed = check_implementation_sampled(
        a, b, envs, schedulers, same_scheduler(), f, depth, pool, fp, 97);
    E22Row row;
    row.name = name;
    row.threshold = thr;
    row.fixed_draws = fixed.total_draws;
    row.seq_draws = seq.total_draws;
    row.reduction = seq.total_draws > 0
                        ? static_cast<double>(fixed.total_draws) /
                              static_cast<double>(seq.total_draws)
                        : 0.0;
    row.verdict_agree = seq.rows[0].verdict != SeqVerdict::kUndecided &&
                        seq.rows[0].verdict == fixed.rows[0].verdict;
    row.estimate = seq.rows[0].eps;
    rows.push_back(row);
  }

  // Importance splitting: exact prefix strata at depth 2 + conditioned
  // cursors, against the same fixed-trial plain reference.
  const PsioaFactory side_real = [tag] {
    const RealIdealPair pair = make_otmac_pair(4, tag + "s");
    auto env = make_probe_env_matching(
        "env_" + tag + "s", {act("auth_" + tag + "s")},
        acts({"rejected_" + tag + "s"}), act("forged_" + tag + "s"),
        act("acc_" + tag + "s"));
    auto adv = make_sink_adversary("adv_" + tag + "s", {},
                                   acts({"forge_" + tag + "s"}));
    return compose(env, compose(pair.real.ptr(), adv));
  };
  const PsioaFactory side_ideal = [tag] {
    const RealIdealPair pair = make_otmac_pair(4, tag + "s");
    auto env = make_probe_env_matching(
        "env_" + tag + "s", {act("auth_" + tag + "s")},
        acts({"rejected_" + tag + "s"}), act("forged_" + tag + "s"),
        act("acc_" + tag + "s"));
    auto adv = make_sink_adversary("adv_" + tag + "s", {},
                                   acts({"forge_" + tag + "s"}));
    return compose(env, compose(pair.ideal.ptr(), adv));
  };
  const SchedulerFactory word = [tag]() -> SchedulerPtr {
    return std::make_shared<SequenceScheduler>(
        std::vector<ActionId>{
            act("auth_" + tag + "s"), act("forge_" + tag + "s"),
            act("forged_" + tag + "s"), act("acc_" + tag + "s")},
        /*local_only=*/true);
  };
  {
    SequentialPolicy sp = SequentialPolicy::deciding(0.03, budget, 1e-3);
    sp.split_depth = 2;
    const SequentialEpsilon split = sequential_balance_epsilon(
        side_real, word, side_ideal, word, f, sp, 101, depth, pool);
    SequentialPolicy fp = SequentialPolicy::fixed(budget);
    fp.threshold = 0.03;
    const SequentialEpsilon fixed = sequential_balance_epsilon(
        side_real, word, side_ideal, word, f, fp, 101, depth, pool);
    E22Row row;
    row.name = "mac_split_above";
    row.threshold = 0.03;
    row.fixed_draws = fixed.draws;
    row.seq_draws = split.draws;
    row.reduction = split.draws > 0 ? static_cast<double>(fixed.draws) /
                                          static_cast<double>(split.draws)
                                    : 0.0;
    row.verdict_agree = split.verdict != SeqVerdict::kUndecided &&
                        split.verdict == fixed.verdict;
    row.estimate = split.estimate;
    rows.push_back(row);
  }
  return rows;
}

}  // namespace

/// Runs the E22 comparison and renders the rows as a JSON array, for
/// injection into the benchmark output file (see main).
std::string e22_rows_json() {
  std::ostringstream os;
  os << "[";
  bool first = true;
  for (const E22Row& row : run_e22()) {
    if (!first) os << ",";
    first = false;
    os << "\n    {\"name\": \"" << row.name << "\", \"threshold\": "
       << row.threshold << ", \"fixed_draws\": " << row.fixed_draws
       << ", \"seq_draws\": " << row.seq_draws
       << ", \"reduction\": " << row.reduction << ", \"verdict_agree\": "
       << (row.verdict_agree ? "true" : "false")
       << ", \"estimate\": " << row.estimate << "}";
  }
  os << "\n  ]";
  return os.str();
}

}  // namespace cdse

int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  // Default machine-readable output unless the caller chose their own.
  std::string out_flag = "--benchmark_out=BENCH_engine.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  std::string out_path = "BENCH_engine.json";
  bool caller_out = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg(argv[i]);
    if (arg.rfind("--benchmark_out", 0) == 0) {
      caller_out = true;
      const auto eq = arg.find('=');
      if (arg.rfind("--benchmark_out=", 0) == 0 && eq != std::string::npos) {
        out_path = arg.substr(eq + 1);
      }
    }
  }
  if (!caller_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // E22 post-pass: run the sequential-vs-fixed comparison and splice the
  // rows into the JSON report as a top-level "e22_rows" key.
  {
    const std::string rows = cdse::e22_rows_json();
    std::ifstream in(out_path);
    if (in) {
      std::ostringstream buf;
      buf << in.rdbuf();
      std::string text = buf.str();
      in.close();
      const auto pos = text.rfind('}');
      if (pos != std::string::npos) {
        text.insert(pos, ",\n  \"e22_rows\": " + rows + "\n");
        std::ofstream out(out_path, std::ios::trunc);
        out << text;
      }
    }
  }
  return 0;
}
