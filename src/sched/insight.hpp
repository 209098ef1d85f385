#pragma once
// Insight functions and external perception (Def 3.4, Def 3.5).
//
// An insight function maps a (finite, halted) execution of E||A to a
// value in a perception space that depends on E only -- the device the
// paper uses to compare systems through an environment's eyes. We use
// strings as the perception space G_E; f-dist is then an (exact or
// sampled) discrete measure over strings.
//
// Implementations:
//   TraceInsight  -- the full external trace (the classic trace function).
//   AcceptInsight -- "1" iff a designated accept action occurs ([3]/[4]).
//   PrintInsight  -- the trace restricted to a designated action set
//                    (the print function of [7]; the set plays the role
//                    of the environment's dedicated print actions).
//
// All three are stable by composition (Def 3.7) *when their designated
// actions belong to the environment*: composing a context B onto A never
// changes what they report about E's actions. Tests verify this.
//
// All three are also *trace-functional*: their value depends on the
// external trace (Def 2.2) alone. They say so through
// trace_functional(), and the exact engine (exact_fdist) then pushes
// the execution measure forward to traces first and applies them once
// per distinct external trace. Any
// other insight -- one that reads states, internal actions or the
// execution's length, or a wrapper that does not forward the property
// -- keeps the default `false` and is applied once per execution.

#include <string>

#include "psioa/execution.hpp"

namespace cdse {

using Perception = std::string;

class InsightFunction {
 public:
  virtual ~InsightFunction() = default;
  virtual Perception apply(Psioa& automaton,
                           const ExecFragment& alpha) const = 0;
  virtual std::string name() const = 0;
  /// True iff apply() depends only on trace_of(automaton, alpha): two
  /// executions with the same external trace always get the same
  /// perception. Lets the exact engines apply the insight once per
  /// distinct trace instead of once per execution.
  virtual bool trace_functional() const { return false; }
};

class TraceInsight : public InsightFunction {
 public:
  Perception apply(Psioa& automaton, const ExecFragment& alpha) const override;
  std::string name() const override { return "trace"; }
  bool trace_functional() const override { return true; }
};

class AcceptInsight : public InsightFunction {
 public:
  explicit AcceptInsight(ActionId accept_action) : acc_(accept_action) {}
  Perception apply(Psioa& automaton, const ExecFragment& alpha) const override;
  std::string name() const override { return "accept"; }
  bool trace_functional() const override { return true; }

 private:
  ActionId acc_;
};

class PrintInsight : public InsightFunction {
 public:
  explicit PrintInsight(ActionSet print_actions)
      : print_(std::move(print_actions)) {}
  Perception apply(Psioa& automaton, const ExecFragment& alpha) const override;
  std::string name() const override { return "print"; }
  bool trace_functional() const override { return true; }

 private:
  ActionSet print_;
};

}  // namespace cdse
