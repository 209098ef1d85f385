#include "sched/cone_measure.hpp"

#include <stdexcept>

#include "sched/exact_engine.hpp"

namespace cdse {

namespace {

void enumerate(Psioa& automaton, Scheduler& sched, std::size_t max_depth,
               const ExecFragment& alpha, const Rational& prob,
               const std::function<void(const ExecFragment&,
                                        const Rational&)>& visit) {
  if (prob.is_zero()) return;
  if (alpha.length() >= max_depth) {
    visit(alpha, prob);
    return;
  }
  const ActionChoice choice = sched.choose(automaton, alpha);
  const Rational halt = scheduled_halt_mass(choice, sched);
  if (!halt.is_zero()) visit(alpha, prob * halt);
  const Signature sig = automaton.signature(alpha.lstate());
  for (const auto& [a, w] : choice.entries()) {
    if (!sig.contains(a)) {
      throw std::logic_error("cone measure: scheduler '" + sched.name() +
                             "' chose action '" +
                             ActionTable::instance().name(a) +
                             "' outside sig(lstate)");
    }
    const StateDist eta = automaton.transition(alpha.lstate(), a);
    for (const auto& [q2, tw] : eta.entries()) {
      ExecFragment next = alpha;
      next.append(a, q2);
      enumerate(automaton, sched, max_depth, next, prob * w * tw, visit);
    }
  }
}

}  // namespace

void for_each_halted_execution(
    Psioa& automaton, Scheduler& sched, std::size_t max_depth,
    const std::function<void(const ExecFragment&, const Rational&)>& visit,
    ConeStats* stats) {
  ExecFragment path = ExecFragment::starting_at(automaton.start_state());
  enumerate_cone(automaton, sched, max_depth, path, Rational(1), visit,
                 stats);
}

void for_each_halted_execution_recursive(
    Psioa& automaton, Scheduler& sched, std::size_t max_depth,
    const std::function<void(const ExecFragment&, const Rational&)>& visit) {
  enumerate(automaton, sched, max_depth,
            ExecFragment::starting_at(automaton.start_state()), Rational(1),
            visit);
}

ExactDisc<Perception> exact_fdist_recursive(Psioa& automaton, Scheduler& sched,
                                            const InsightFunction& f,
                                            std::size_t max_depth) {
  ExactDisc<Perception> dist;
  for_each_halted_execution_recursive(
      automaton, sched, max_depth,
      [&](const ExecFragment& alpha, const Rational& p) {
        dist.add(f.apply(automaton, alpha), p);
      });
  return dist;
}

Rational exact_action_probability(Psioa& automaton, Scheduler& sched,
                                  ActionId a, std::size_t max_depth) {
  Rational total;
  for_each_halted_execution(
      automaton, sched, max_depth,
      [&](const ExecFragment& alpha, const Rational& p) {
        for (ActionId fired : alpha.actions()) {
          if (fired == a) {
            total += p;
            return;
          }
        }
      });
  return total;
}

}  // namespace cdse
