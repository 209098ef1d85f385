#include "impl/implementation.hpp"

#include <algorithm>

namespace cdse {

ImplementationReport check_implementation(
    const PsioaPtr& a, const PsioaPtr& b,
    const std::vector<LabeledPsioa>& envs,
    const std::vector<LabeledScheduler>& schedulers,
    const SchedulerCorrespondence& correspond, const InsightFunction& f,
    std::size_t max_depth) {
  ImplementationReport report;
  for (const auto& env : envs) {
    auto lhs = compose(env.automaton, a);
    auto rhs = compose(env.automaton, b);
    for (const auto& sched : schedulers) {
      const SchedulerPtr matched = correspond(sched.scheduler);
      const Rational eps = exact_balance_epsilon(
          *lhs, *sched.scheduler, *rhs, *matched, f, max_depth);
      report.rows.push_back({env.label, sched.label, eps});
      if (eps > report.max_eps) report.max_eps = eps;
    }
  }
  return report;
}

ImplementationReport check_implementation_parallel(
    const PsioaFactory& a, const PsioaFactory& b,
    const std::vector<LabeledPsioaFactory>& envs,
    const std::vector<LabeledSchedulerFactory>& schedulers,
    const SchedulerCorrespondence& correspond, const InsightFunction& f,
    std::size_t max_depth, ThreadPool& pool, const ReductionPolicy& policy) {
  ImplementationReport report;
  const std::size_t cells = envs.size() * schedulers.size();
  report.rows.resize(cells);
  // Env-major cell order, matching the serial checker's row order. Each
  // cell builds its own E||A / E||B pair and scheduler instances, so no
  // memo table is shared across workers. Quotient reduction (when the
  // policy enables it) is likewise per cell: each worker minimizes its
  // own composed instances, preserving the one-thread-per-instance rule.
  parallel_for_chunks(
      pool, cells,
      [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        (void)chunk;
        for (std::size_t idx = begin; idx < end; ++idx) {
          const auto& env = envs[idx / schedulers.size()];
          const auto& sched = schedulers[idx % schedulers.size()];
          auto lhs = compose(env.make(), a());
          auto rhs = compose(env.make(), b());
          const SchedulerPtr sigma = sched.make();
          const SchedulerPtr matched = correspond(sigma);
          const Rational eps = exact_balance_epsilon(
              *lhs, *sigma, *rhs, *matched, f, max_depth, policy);
          report.rows[idx] = {env.label, sched.label, eps};
        }
      });
  // Exact epsilons reduce over the fixed row order; max over rationals is
  // order-insensitive anyway, so the report is worker-count independent.
  for (const auto& row : report.rows) {
    if (row.eps > report.max_eps) report.max_eps = row.eps;
  }
  return report;
}

SampledImplementationReport check_implementation_sampled(
    const PsioaFactory& a, const PsioaFactory& b,
    const std::vector<LabeledPsioaFactory>& envs,
    const std::vector<LabeledSchedulerFactory>& schedulers,
    const SchedulerCorrespondence& correspond, const InsightFunction& f,
    std::size_t max_depth, ThreadPool& pool, const SequentialPolicy& policy,
    std::uint64_t seed) {
  SampledImplementationReport report;
  const std::size_t cells = envs.size() * schedulers.size();
  report.all_below = cells > 0;
  if (cells == 0) return report;
  // Union bound: the whole grid's error budget is policy.delta, split
  // evenly so each cell's anytime-valid verdict spends delta / cells.
  SequentialPolicy cell_policy = policy;
  if (policy.sequential()) {
    cell_policy.delta = policy.delta / static_cast<double>(cells);
  }
  for (std::size_t idx = 0; idx < cells; ++idx) {
    const auto& env = envs[idx / schedulers.size()];
    const auto& sched = schedulers[idx % schedulers.size()];
    const PsioaFactory make_lhs = [&] { return compose(env.make(), a()); };
    const PsioaFactory make_rhs = [&] { return compose(env.make(), b()); };
    const SchedulerFactory make_sigma = sched.make;
    const SchedulerFactory make_matched = [&] {
      return correspond(sched.make());
    };
    const SequentialEpsilon cell = sequential_balance_epsilon(
        make_lhs, make_sigma, make_rhs, make_matched, f, cell_policy,
        seed + static_cast<std::uint64_t>(idx) * 0x9e3779b97f4a7c15ULL,
        max_depth, pool);
    report.rows.push_back({env.label, sched.label, cell.estimate, cell.radius,
                           cell.verdict, cell.trials, cell.draws});
    report.max_eps = std::max(report.max_eps, cell.estimate);
    report.total_draws += cell.draws;
    if (cell.verdict != SeqVerdict::kBelowThreshold) report.all_below = false;
  }
  return report;
}

TransitivityRow check_transitivity_case(Psioa& e_a1, Psioa& e_a2,
                                        Psioa& e_a3, Scheduler& sigma,
                                        const InsightFunction& f,
                                        std::size_t max_depth) {
  TransitivityRow row;
  row.eps12 =
      exact_balance_epsilon(e_a1, sigma, e_a2, sigma, f, max_depth);
  row.eps23 =
      exact_balance_epsilon(e_a2, sigma, e_a3, sigma, f, max_depth);
  row.eps13 =
      exact_balance_epsilon(e_a1, sigma, e_a3, sigma, f, max_depth);
  row.triangle_holds = row.eps13 <= row.eps12 + row.eps23;
  return row;
}

}  // namespace cdse
