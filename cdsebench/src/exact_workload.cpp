// exact_eps: exact epsilon queries, one at a time, by one client.
//
// Each op builds a real/ideal pair from the seeded catalogue and asks
// exact_balance_epsilon (serial) for the exact balance distance.
// Enumeration, the per-leaf insight path and exact Rational arithmetic
// do nearly all the work; no RNG runs and nothing is interned after the
// stacks are built.
//
// The catalogue mixes the paper's pairs, whose epsilon has a closed form
// (one-time MAC, commitment, Blum coin toss, the dynamic MAC session
// service, the backbone ledger), with pairs checked against the
// recursive reference enumerator instead (fault-wrapped channel, random
// two-component stacks with non-dyadic uniform choice weights,
// fork-product stacks queried through the bisimulation quotient).

#include <algorithm>
#include <cstdio>
#include <optional>
#include <stdexcept>

#include "common.hpp"
#include "crypto/pairs.hpp"
#include "crypto/service.hpp"
#include "fault/faulty.hpp"
#include "impl/balance.hpp"
#include "protocols/backbone.hpp"
#include "protocols/channel.hpp"
#include "protocols/cointoss.hpp"
#include "protocols/environment.hpp"
#include "psioa/compose.hpp"
#include "psioa/random.hpp"
#include "sched/schedulers.hpp"
#include "secure/adversary.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace cdse::bench {
namespace {

constexpr std::size_t kPaperRepeats = 3;
/// Ops per summary window (two passes): enough that a window's p95 has
/// more than ten samples beyond it.
constexpr std::uint64_t kWindowOps = 300;
constexpr std::size_t kRandomStacks = 48;
constexpr std::size_t kRandomDepth = 4;
constexpr std::size_t kRandomCandidates = 288;
constexpr std::size_t kTargetFrames = 2000;

/// One catalogue entry: a real/ideal pair with its schedulers, insight
/// and depth, plus the closed-form epsilon when the paper gives one.
struct ExactCase {
  std::string label;
  PsioaFactory lhs, rhs;
  SchedulerFactory sigma_lhs, sigma_rhs;
  std::shared_ptr<const InsightFunction> f;
  std::size_t depth = 0;
  bool reduce = false;
  std::optional<Rational> closed_form;

  // Answers recorded by the loops; checked by verify().
  std::optional<Rational> answer;  ///< the first answer
  std::uint64_t mismatches = 0;    ///< later answers that differ from it
};

SchedulerFactory word(std::vector<std::string> names) {
  return [names]() -> SchedulerPtr {
    std::vector<ActionId> w;
    for (const std::string& n : names) w.push_back(act(n));
    return std::make_shared<SequenceScheduler>(std::move(w), true);
  };
}

SchedulerFactory uniform(std::size_t depth, bool local_only) {
  return [depth, local_only]() -> SchedulerPtr {
    return std::make_shared<UniformScheduler>(depth, local_only);
  };
}

Rational pow2_inv(std::uint32_t k) {
  return Rational(1, static_cast<std::int64_t>(1) << k);
}

ExactCase mac_case(const std::string& t, std::uint32_t k) {
  ExactCase c;
  c.label = "mac k=" + std::to_string(k);
  const auto side = [t, k](bool real) {
    return [t, k, real]() -> PsioaPtr {
      const RealIdealPair mac = make_otmac_pair(k, t);
      auto env = make_probe_env_matching("env_" + t, {act("auth_" + t)},
                                         acts({"rejected_" + t}),
                                         act("forged_" + t), act("acc_" + t));
      auto adv = make_sink_adversary("adv_" + t, {}, acts({"forge_" + t}));
      return compose(env, compose(real ? mac.real.ptr() : mac.ideal.ptr(),
                                  adv));
    };
  };
  c.lhs = side(true);
  c.rhs = side(false);
  c.sigma_lhs = c.sigma_rhs =
      word({"auth_" + t, "forge_" + t, "forged_" + t, "acc_" + t});
  c.f = std::make_shared<TraceInsight>();
  c.depth = 12;
  c.closed_form = pow2_inv(k);
  return c;
}

ExactCase commitment_case(const std::string& t, std::uint32_t k) {
  ExactCase c;
  c.label = "commitment k=" + std::to_string(k);
  const auto side = [t, k](bool real) {
    return [t, k, real]() -> PsioaPtr {
      const RealIdealPair com = make_commitment_pair(k, t);
      auto env = make_probe_env_matching(
          "env_" + t, {act("commit0_" + t), act("reveal_" + t)},
          acts({"open0_" + t}), act("open1_" + t), act("acc_" + t));
      auto adv = make_sink_adversary("adv_" + t, {}, acts({"flipcmd_" + t}));
      return compose(env, compose(real ? com.real.ptr() : com.ideal.ptr(),
                                  adv));
    };
  };
  c.lhs = side(true);
  c.rhs = side(false);
  c.sigma_lhs = c.sigma_rhs = word({"commit0_" + t, "flipcmd_" + t,
                                    "reveal_" + t, "open1_" + t, "acc_" + t});
  c.f = std::make_shared<TraceInsight>();
  c.depth = 12;
  c.closed_form = pow2_inv(k);
  return c;
}

ExactCase cointoss_case(const std::string& t, std::uint32_t k) {
  ExactCase c;
  c.label = "cointoss k=" + std::to_string(k);
  const auto side = [t, k](bool real) {
    return [t, k, real]() -> PsioaPtr {
      const CoinTossPair ct = make_cointoss_pair(k, t);
      auto env = make_probe_env_matching(
          "env_" + t, {act("toss_" + t)}, acts({"result0_" + t}),
          act("result1_" + t), act("acc_" + t));
      return compose(env, compose(real ? ct.real.ptr() : ct.ideal.ptr(),
                                  make_biaser_adversary(t)));
    };
  };
  c.lhs = side(true);
  c.rhs = side(false);
  c.sigma_lhs = c.sigma_rhs = [t]() -> SchedulerPtr {
    std::vector<ActionId> prio;
    for (const char* a : {"toss_", "commit0_", "pickb_", "announceB0_",
                          "announceB1_", "flipcmd_", "reveal_", "open0_",
                          "open1_", "result0_", "result1_", "acc_"}) {
      prio.push_back(act(a + t));
    }
    return std::make_shared<PriorityScheduler>(std::move(prio), 14, true);
  };
  c.f = std::make_shared<AcceptInsight>(act("acc_" + t));
  c.depth = 24;
  c.closed_form = Rational(1, static_cast<std::int64_t>(1) << (k + 1));
  return c;
}

/// The E12 dynamic MAC session service: n potential sessions created on
/// open and destroyed when done; the attack forges session `attacked`.
ExactCase service_case(const std::string& t, std::size_t n,
                       std::size_t attacked) {
  ExactCase c;
  c.label = "service n=" + std::to_string(n) + " attack=" +
            std::to_string(attacked);
  std::vector<std::uint32_t> ks;
  for (std::size_t i = 0; i < n; ++i) {
    ks.push_back(static_cast<std::uint32_t>(i + 2));
  }
  const auto side = [t, ks](bool real) {
    return [t, ks, real]() -> PsioaPtr {
      const MacServicePair svc = make_mac_service_pair(ks, t);
      ActionSet commands, watch;
      std::vector<ActionId> script;
      for (std::size_t i = 0; i < ks.size(); ++i) {
        const std::string st = t + "_" + std::to_string(i);
        set::insert(commands, act("forge_" + st));
        set::insert(watch, act("forged_" + st));
        set::insert(watch, act("rejected_" + st));
        script.push_back(act(service_action("open", t, i)));
        script.push_back(act("auth_" + st));
      }
      auto env = make_probe_env("env_" + t, script, watch, act("acc_" + t));
      auto adv = make_sink_adversary(t + "_adv", {}, commands);
      return compose(env,
                     compose(real ? svc.real.ptr() : svc.ideal.ptr(), adv));
    };
  };
  c.lhs = side(true);
  c.rhs = side(false);
  std::vector<std::string> w;
  for (std::size_t i = 0; i <= attacked; ++i) {
    w.push_back(service_action("open", t, i));
    w.push_back("auth_" + t + "_" + std::to_string(i));
  }
  const std::string st = t + "_" + std::to_string(attacked);
  w.push_back("forge_" + st);
  w.push_back("forged_" + st);
  w.push_back("acc_" + t);
  c.sigma_lhs = c.sigma_rhs = word(w);
  c.f = std::make_shared<AcceptInsight>(act("acc_" + t));
  c.depth = 6 * n + 8;
  c.closed_form = pow2_inv(ks[attacked]);
  return c;
}

ExactCase fault_case(const std::string& t, std::size_t depth,
                     const FaultPlan& plan) {
  ExactCase c;
  c.label = "fault channel depth=" + std::to_string(depth) +
            " drop/dup/delay=" + plan.drop.to_string() + "/" +
            plan.duplicate.to_string() + "/" + plan.delay.to_string();
  c.lhs = [t, plan]() -> PsioaPtr { return make_faulty_channel(t, plan); };
  c.rhs = [t]() -> PsioaPtr { return make_channel(t); };
  c.sigma_lhs = c.sigma_rhs = uniform(depth, false);
  c.f = std::make_shared<TraceInsight>();
  c.depth = depth;
  return c;
}

/// E16: the confirmation race against a beta-power adversary vs the
/// ideal ledger; epsilon is the closed-form fork probability.
ExactCase backbone_case(const std::string& t, std::uint32_t d,
                        const Rational& beta) {
  ExactCase c;
  c.label = "backbone d=" + std::to_string(d) + " beta=" + beta.to_string();
  c.lhs = [t, d, beta]() -> PsioaPtr {
    return make_confirmation_race(t, d, beta);
  };
  c.rhs = [t]() -> PsioaPtr { return make_ideal_ledger(t); };
  const auto priority = [t](std::size_t bound) {
    return [t, bound]() -> SchedulerPtr {
      return std::make_shared<PriorityScheduler>(
          std::vector<ActionId>{act("submit_" + t), act("mine_" + t),
                                act("confirmed_" + t), act("forked_" + t)},
          bound, false);
    };
  };
  c.sigma_lhs = priority(3 * d + 4);
  c.sigma_rhs = priority(4);
  c.f = std::make_shared<AcceptInsight>(act("confirmed_" + t));
  c.depth = 3 * d + 6;
  c.closed_form = exact_fork_probability(d, beta);
  return c;
}

/// Two cross-wired random 4-state components; the ideal side swaps the
/// first component for another draw over the same vocabulary. The local
/// uniform scheduler's 1/3, 1/5, ... weights keep denominators
/// non-dyadic.
ExactCase random_case(const std::string& t, std::uint64_t stream,
                      std::size_t depth) {
  ExactCase c;
  c.label = "random depth=" + std::to_string(depth);
  const auto side = [t, stream](bool real) {
    return [t, stream, real]() -> PsioaPtr {
      RandomPsioaConfig ca;
      ca.n_states = 4;
      ca.n_outputs = 2;
      ca.n_internals = 1;
      RandomPsioaConfig cb = ca;
      ca.input_candidates = acts({"rout0_" + t + "b", "rout1_" + t + "b"});
      cb.input_candidates = acts({"rout0_" + t + "a", "rout1_" + t + "a"});
      Xoshiro256 rng_a = Xoshiro256::for_stream(stream, real ? 0 : 1);
      Xoshiro256 rng_b = Xoshiro256::for_stream(stream, 2);
      auto a = make_random_psioa(t + "_A", t + "a", ca, rng_a);
      auto b = make_random_psioa(t + "_B", t + "b", cb, rng_b);
      return compose(PsioaPtr(a), PsioaPtr(b));
    };
  };
  c.lhs = side(true);
  c.rhs = side(false);
  c.sigma_lhs = c.sigma_rhs = uniform(depth, true);
  c.f = std::make_shared<TraceInsight>();
  c.depth = depth;
  return c;
}

/// One fork: an internal branch into `width` bisimilar mid states that
/// tick back -- the quotient collapses each fork to two blocks.
PsioaPtr make_fork(const std::string& t, std::size_t width) {
  auto fork = std::make_shared<ExplicitPsioa>("fork_" + t);
  const ActionId a_branch = act("branch_" + t);
  const ActionId a_tick = act("tick_" + t);
  const State s0 = fork->add_state("idle");
  Signature sig0;
  sig0.internal = {a_branch};
  fork->set_signature(s0, sig0);
  fork->set_start(s0);
  Signature sigm;
  sigm.out = {a_tick};
  StateDist spread;
  for (std::size_t i = 0; i < width; ++i) {
    const State mid = fork->add_state("mid" + std::to_string(i));
    fork->set_signature(mid, sigm);
    fork->add_step(mid, a_tick, s0);
    spread.add(mid, Rational(1, static_cast<std::int64_t>(width)));
  }
  fork->add_transition(s0, a_branch, spread);
  fork->validate();
  return fork;
}

/// Fork products of different widths are trace-equivalent (every mid
/// state has the same signature), so epsilon is exactly 0.
ExactCase fork_case(const std::string& t, std::size_t w_lhs,
                    std::size_t w_rhs, std::size_t depth) {
  ExactCase c;
  c.label = "fork-product w=" + std::to_string(w_lhs) + "/" +
            std::to_string(w_rhs) + " depth=" + std::to_string(depth);
  const auto side = [t](std::size_t w) {
    return [t, w]() -> PsioaPtr {
      return compose(make_fork(t + "a", w), make_fork(t + "b", w));
    };
  };
  c.lhs = side(w_lhs);
  c.rhs = side(w_rhs);
  c.sigma_lhs = c.sigma_rhs = uniform(depth, false);
  c.f = std::make_shared<TraceInsight>();
  c.depth = depth;
  c.reduce = true;
  c.closed_form = Rational(0);
  return c;
}

std::uint32_t draw(Xoshiro256& rng, std::uint32_t lo, std::uint32_t hi) {
  return lo + static_cast<std::uint32_t>(rng.below(hi - lo + 1));
}

class ExactWorkload final : public Workload {
 public:
  explicit ExactWorkload(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    Xoshiro256 rng = Xoshiro256::for_stream(seed_, 0xe0);
    cases_.clear();
    std::size_t n = 0;
    const auto tag = [&] { return instance_tag("x", seed_, n++); };
    // Parameters that set an op's cost (depths, sessions, widths) cover
    // their range once per catalogue; the seed draws the rest (security
    // parameters, adversary power, fault rates, the random stacks, the op
    // order). Every seed therefore runs the same mix of work.
    for (std::uint32_t k = 1; k <= 8; ++k) cases_.push_back(mac_case(tag(), k));
    for (int i = 0; i < 4; ++i) {
      cases_.push_back(commitment_case(tag(), draw(rng, 1, 8)));
    }
    for (int i = 0; i < 3; ++i) {
      cases_.push_back(cointoss_case(tag(), draw(rng, 1, 6)));
    }
    for (std::size_t sessions = 1; sessions <= 3; ++sessions) {
      for (std::size_t attacked = 0; attacked < sessions; ++attacked) {
        cases_.push_back(service_case(tag(), sessions, attacked));
      }
    }
    const Rational rates[] = {Rational(1, 8), Rational(1, 6), Rational(1, 5),
                              Rational(1, 4)};
    for (std::size_t depth = 5; depth <= 7; ++depth) {
      FaultPlan plan;
      plan.drop = rates[draw(rng, 0, 3)];
      plan.duplicate = rates[draw(rng, 0, 3)];
      plan.delay = rates[draw(rng, 0, 3)];
      cases_.push_back(fault_case(tag(), depth, plan));
    }
    const Rational betas[] = {Rational(1, 8), Rational(1, 4), Rational(3, 8),
                              Rational(1, 2)};
    for (std::uint32_t d = 1; d <= 6; ++d) {
      cases_.push_back(backbone_case(tag(), d, betas[draw(rng, 0, 3)]));
    }
    for (std::size_t w = 2; w <= 5; ++w) {
      cases_.push_back(fork_case(tag(), w, 7 - w, 4 + w % 3));
    }
    paper_cases_ = cases_.size();
    // Random stacks: of kRandomCandidates drawn from the seed, the
    // kRandomStacks whose depth-3 cone (both sides) is nearest
    // kTargetFrames join the catalogue. Cone size varies by orders of
    // magnitude between draws; taking a fixed number of draws and the
    // ones nearest a fixed size keeps every seed's random class, and this
    // set-up, at the same cost, so run-to-run spread comes from the
    // program, not from the draw.
    Xoshiro256 stacks = Xoshiro256::for_stream(seed_, 0xe2);
    std::vector<std::pair<std::size_t, ExactCase>> drawn;
    for (std::size_t i = 0; i < kRandomCandidates; ++i) {
      ExactCase c = random_case(tag(), stacks(), kRandomDepth);
      const std::size_t frames = cone_frames(c, 3);
      const std::size_t off = frames > kTargetFrames ? frames - kTargetFrames
                                                     : kTargetFrames - frames;
      drawn.emplace_back(off, std::move(c));
    }
    std::stable_sort(drawn.begin(), drawn.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    for (std::size_t i = 0; i < kRandomStacks; ++i) {
      cases_.push_back(std::move(drawn[i].second));
    }
    // Building every pair once validates the catalogue and interns its
    // action vocabulary before the first timed op.
    for (ExactCase& c : cases_) {
      (void)c.lhs();
      (void)c.rhs();
      (void)c.sigma_lhs();
      (void)c.sigma_rhs();
    }
    order_rng_ = Xoshiro256::for_stream(seed_, 0xe1);
  }

  LoopStats run(double seconds, Tracer* tracer, Counters* counters) override {
    LoopStats st;
    std::vector<double> lat_us;
    std::vector<PassMark> marks{pass_mark(0, 0)};
    std::vector<std::size_t> order;
    std::uint64_t attempted = 0, failed = 0;
    const std::int64_t deadline =
        now_ns() + static_cast<std::int64_t>(seconds * 1e9);
    // Whole passes only, so every run measures the same mix of ops.
    for (;;) {
      if (order.empty()) {
        if (attempted > 0) marks.push_back(pass_mark(attempted, failed));
        if (now_ns() >= deadline) break;
        order = shuffled();
      }
      ExactCase& c = cases_[order.back()];
      order.pop_back();
      const std::int64_t t0 = now_ns();
      ++attempted;
      try {
        const Rational eps = tracer != nullptr
                                 ? traced_op(c, tracer, *counters)
                                 : plain_op(c);
        record(c, eps);
      } catch (const std::exception& e) {
        ++failed;
        ++st.failures[c.label + ": " + e.what()];
        if (counters != nullptr &&
            std::string(e.what()).find("overflow") != std::string::npos) {
          (*counters)["rational.overflows"] += 1;
        }
      } catch (...) {
        ++failed;
        ++st.failures[c.label + ": non-standard exception"];
      }
      lat_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    }
    summarise_loop(marks, lat_us, kWindowOps, st);
    return st;
  }

  std::vector<std::string> verify() override {
    std::vector<std::string> wrong;
    for (ExactCase& c : cases_) {
      if (c.mismatches > 0) {
        wrong.push_back(c.label + ": " + std::to_string(c.mismatches) +
                        " answers differ from the first");
      }
      if (!c.answer.has_value()) continue;
      Rational want;
      if (c.closed_form.has_value()) {
        want = *c.closed_form;
      } else {
        PsioaPtr l = c.lhs(), r = c.rhs();
        SchedulerPtr sl = c.sigma_lhs(), sr = c.sigma_rhs();
        want = balance_distance(
            exact_fdist_recursive(*l, *sl, *c.f, c.depth),
            exact_fdist_recursive(*r, *sr, *c.f, c.depth));
      }
      if (*c.answer != want) {
        wrong.push_back(c.label + ": eps " + c.answer->to_string() +
                        " != expected " + want.to_string());
      }
    }
    return wrong;
  }

  std::string shape() const override {
    return "1 client, serial exact engine, " + std::to_string(cases_.size()) +
           " catalogue instances";
  }

 private:
  /// One pass: every paper pair kPaperRepeats times, every random stack
  /// once, in seeded order.
  std::vector<std::size_t> shuffled() {
    std::vector<std::size_t> idx;
    for (std::size_t r = 0; r < kPaperRepeats; ++r) {
      for (std::size_t i = 0; i < paper_cases_; ++i) idx.push_back(i);
    }
    for (std::size_t i = paper_cases_; i < cases_.size(); ++i) idx.push_back(i);
    for (std::size_t i = idx.size(); i > 1; --i) {
      std::swap(idx[i - 1], idx[order_rng_.below(i)]);
    }
    return idx;
  }

  static void record(ExactCase& c, const Rational& eps) {
    if (!c.answer.has_value()) {
      c.answer = eps;
    } else if (*c.answer != eps) {
      ++c.mismatches;
    }
  }

  /// The untraced op: build the pair, one exact_balance_epsilon call.
  static Rational plain_op(const ExactCase& c) {
    PsioaPtr l = c.lhs(), r = c.rhs();
    SchedulerPtr sl = c.sigma_lhs(), sr = c.sigma_rhs();
    if (c.reduce) {
      return exact_balance_epsilon(*l, *sl, *r, *sr, *c.f, c.depth,
                                   ReductionPolicy::bisimulation());
    }
    return exact_balance_epsilon(*l, *sl, *r, *sr, *c.f, c.depth);
  }

  /// The traced op: the same calls exact_balance_epsilon makes (reduce
  /// each side when asked, exact_fdist per side, balance_distance), each
  /// under its own span.
  static Rational traced_op(const ExactCase& c, Tracer* tr, Counters& k) {
    OpGuard op(tr, "op");
    PsioaPtr l, r;
    {
      SpanGuard s(tr, "psioa.build");
      const std::int64_t t0 = now_ns();
      l = c.lhs();
      r = c.rhs();
      k["psioa.build_ns"] += static_cast<double>(now_ns() - t0);
    }
    SchedulerPtr sl = c.sigma_lhs(), sr = c.sigma_rhs();
    Psioa* el = l.get();
    Psioa* er = r.get();
    std::optional<ReducedSystem> rl, rr;
    if (c.reduce) {
      SpanGuard s(tr, "bisim.reduce");
      const ReductionPolicy policy = ReductionPolicy::bisimulation();
      rl = reduce_for_enumeration(*l, c.depth, policy);
      rr = reduce_for_enumeration(*r, c.depth, policy);
      for (const auto* red : {&rl, &rr}) {
        if (!red->has_value()) continue;
        k["bisim.quotient_states"] += static_cast<double>((*red)->states);
        k["bisim.quotient_blocks"] += static_cast<double>((*red)->blocks);
        k["bisim.reduced_systems"] += 1;
      }
      if (rl.has_value()) el = rl->view.get();
      if (rr.has_value()) er = rr->view.get();
    }
    CountingInsight f(*c.f);
    ConeStats cs;
    ExactDisc<Perception> dl, dr;
    {
      SpanGuard s(tr, "exact.fdist");
      dl = exact_fdist(*el, *sl, f, c.depth, &cs);
    }
    {
      SpanGuard s(tr, "exact.fdist");
      dr = exact_fdist(*er, *sr, f, c.depth, &cs);
    }
    Rational eps;
    {
      SpanGuard s(tr, "measure.balance");
      eps = balance_distance(dl, dr);
    }
    k["exact.frames_pushed"] += static_cast<double>(cs.frames_pushed);
    k["exact.frames_peak"] =
        std::max(k["exact.frames_peak"], static_cast<double>(cs.frames_peak));
    k["exact.leaves"] += static_cast<double>(cs.leaves);
    k["insight.calls"] += static_cast<double>(f.calls());
    k["insight.ns"] += static_cast<double>(f.ns());
    k["insight.bytes"] += static_cast<double>(f.bytes());
    k["measure.support"] +=
        static_cast<double>(dl.support_size() + dr.support_size());
    for (const Psioa* p : {l.get(), r.get()}) {
      const InternStats is = p->intern_stats();
      k["intern.lookups"] += static_cast<double>(is.lookups);
      k["intern.probes"] += static_cast<double>(is.probes);
      k["intern.rehashes"] += static_cast<double>(is.rehashes);
    }
    return eps;
  }

  /// Frames pushed enumerating both sides to `depth`.
  static std::size_t cone_frames(const ExactCase& c, std::size_t depth) {
    ConeStats cs;
    for (const auto& [make, sigma] : {std::pair{c.lhs, c.sigma_lhs},
                                      std::pair{c.rhs, c.sigma_rhs}}) {
      PsioaPtr p = make();
      SchedulerPtr s = sigma();
      (void)exact_fdist(*p, *s, *c.f, depth, &cs);
    }
    return cs.frames_pushed;
  }

  std::uint64_t seed_;
  std::vector<ExactCase> cases_;
  std::size_t paper_cases_ = 0;
  Xoshiro256 order_rng_{0};
};

}  // namespace

std::unique_ptr<Workload> make_exact_workload(std::uint64_t seed) {
  return std::make_unique<ExactWorkload>(seed);
}

}  // namespace cdse::bench
