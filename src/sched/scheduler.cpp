#include "sched/scheduler.hpp"

#include <stdexcept>

#include "util/splits.hpp"

namespace cdse {

ChoiceRow ChoiceRow::compile(const ActionChoice& c) {
  ChoiceRow row;
  row.actions.reserve(c.entries().size());
  row.cdf.reserve(c.entries().size());
  std::vector<Rational> exact;
  exact.reserve(c.entries().size() + 1);
  double acc = 0.0;
  for (const auto& [a, w] : c.entries()) {
    acc += w.to_double();
    row.actions.push_back(a);
    row.cdf.push_back(acc);
    exact.push_back(w);
  }
  if (row.actions.empty()) return row;  // pure halt: nothing to split
  const Rational residual = Rational(1) - c.total();
  row.exhaustive = residual <= Rational(0);
  if (!row.exhaustive) exact.push_back(residual);
  row.split = conditional_splits(exact);
  return row;
}

const ChoiceRow* Scheduler::choice_row(Psioa& automaton,
                                       const ExecFragment& alpha) {
  scratch_ = ChoiceRow::compile(choose(automaton, alpha));
  return &scratch_;
}

Rational scheduled_halt_mass(const ActionChoice& choice,
                             const Scheduler& sched) {
  static const Rational kOne(1);
  const Rational total = choice.total();
  if (total > kOne) {
    throw std::logic_error("cone measure: scheduler '" + sched.name() +
                           "' returned total mass > 1");
  }
  return kOne - total;
}

}  // namespace cdse
