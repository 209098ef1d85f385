#include "sched/exact_engine.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "impl/bisim.hpp"
#include "psioa/memo.hpp"
#include "sched/schedulers.hpp"

namespace cdse {

namespace {

[[noreturn]] void throw_outside_sig(const Scheduler& sched, ActionId a) {
  throw std::logic_error("cone measure: scheduler '" + sched.name() +
                         "' chose action '" + ActionTable::instance().name(a) +
                         "' outside sig(lstate)");
}

/// Memoized instances serve exact rows by reference (no StateDist copy
/// per edge); everything else falls back to the virtual transition().
MemoPsioa* memo_engine_of(Psioa& automaton) {
  auto* memo = dynamic_cast<MemoPsioa*>(&automaton);
  if (memo != nullptr && !memo->memoization_enabled()) memo = nullptr;
  return memo;
}

/// The external traces (Def 2.2) one exact f-dist call has reached, as
/// a trie in one flat vector: node 0 is the empty trace, and each node
/// keeps its children as a singly linked sibling list. A node also
/// holds the perception slot of its trace once the insight has been
/// applied there (FdistAccumulator). Lives for one call.
class TraceTrie {
 public:
  using Node = std::uint32_t;
  static constexpr Node kRoot = 0;
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  TraceTrie() {
    nodes_.push_back({kInvalidAction, kNone, kNone, kNone});
  }

  /// The node of trace(n) . a, created on first use.
  Node child(Node n, ActionId a) {
    for (Node c = nodes_[n].first_child; c != kNone;
         c = nodes_[c].next_sibling) {
      if (nodes_[c].action == a) return c;
    }
    const Node c = static_cast<Node>(nodes_.size());
    const Node sibling = nodes_[n].first_child;
    nodes_.push_back({a, kNone, sibling, kNone});
    nodes_[n].first_child = c;
    return c;
  }

  std::uint32_t& slot(Node n) { return nodes_[n].slot; }

 private:
  struct Entry {
    ActionId action;
    Node first_child;
    Node next_sibling;
    std::uint32_t slot;
  };
  std::vector<Entry> nodes_;
};

/// The trace node of the child that `a` leads to from a state with
/// signature `sig` and trace node `node`: external actions extend the
/// trace (Def 2.2), others keep it. Without a trie nothing is tracked.
TraceTrie::Node child_trace(TraceTrie* trie, TraceTrie::Node node,
                            const Signature& sig, ActionId a) {
  return trie != nullptr && sig.is_external(a) ? trie->child(node, a) : node;
}

/// The one cone walker behind enumerate_cone and every exact f-dist:
/// an explicit pending-edge stack that push/pops ONE in-place path,
/// visiting halt/leaf events in the recursive enumerator's pre-order as
/// visit(path, prob, trace_node). With a trie, every edge also carries
/// the trie node of its child's external trace, derived from the
/// signature expand() already holds; `path` itself sits at the root, so
/// a trie needs `path` to be a start fragment. Without one, trace nodes
/// are not tracked and read kRoot.
template <typename Visit>
void walk_cone(Psioa& automaton, Scheduler& sched, std::size_t max_depth,
               ExecFragment& path, const Rational& prefix_prob,
               TraceTrie* trie, const Visit& visit, ConeStats& cs) {
  if (prefix_prob.is_zero()) return;
  MemoPsioa* memo = memo_engine_of(automaton);
  const std::size_t base_len = path.length();

  // A pending edge, not a call frame: (absolute) probability of the child
  // it leads to, the step that reaches it, the child's trace node, and
  // the parent's depth so the shared path can be truncated back before
  // appending. The live stack holds at most depth x branching edges --
  // it scales with the longest path, never with the number of cones
  // enumerated.
  struct PendingEdge {
    Rational prob;
    ActionId a;
    State q2;
    TraceTrie::Node node;
    std::size_t depth;
  };
  std::vector<PendingEdge> stack;

  auto expand = [&](const Rational& prob, TraceTrie::Node node) {
    if (path.length() >= max_depth) {
      visit(path, prob, node);
      ++cs.leaves;
      return;
    }
    const ActionChoice choice = sched.choose(automaton, path);
    const Rational halt = scheduled_halt_mass(choice, sched);
    if (!halt.is_zero()) {
      visit(path, prob * halt, node);
      ++cs.halts;
    }
    const State q = path.lstate();
    const std::size_t depth = path.length();
    const std::size_t first_child = stack.size();
    if (memo != nullptr) {
      const Signature& sig = memo->signature_ref(q);
      for (const auto& [a, w] : choice.entries()) {
        if (!sig.contains(a)) throw_outside_sig(sched, a);
        const TraceTrie::Node next = child_trace(trie, node, sig, a);
        const StateDist& eta = memo->transition_dist(q, a);
        const Rational action_prob = prob * w;
        for (const auto& [q2, tw] : eta.entries()) {
          stack.push_back({action_prob * tw, a, q2, next, depth});
        }
      }
    } else {
      const Signature sig = automaton.signature(q);
      for (const auto& [a, w] : choice.entries()) {
        if (!sig.contains(a)) throw_outside_sig(sched, a);
        const TraceTrie::Node next = child_trace(trie, node, sig, a);
        const StateDist eta = automaton.transition(q, a);
        const Rational action_prob = prob * w;
        for (const auto& [q2, tw] : eta.entries()) {
          stack.push_back({action_prob * tw, a, q2, next, depth});
        }
      }
    }
    // The recursive enumerator descends into the first edge first;
    // reversing the freshly pushed run makes the LIFO pops replay that
    // exact pre-order.
    std::reverse(stack.begin() + first_child, stack.end());
    cs.frames_pushed += stack.size() - first_child;
    cs.frames_peak = std::max(cs.frames_peak, stack.size());
  };

  expand(prefix_prob, TraceTrie::kRoot);
  while (!stack.empty()) {
    PendingEdge e = std::move(stack.back());
    stack.pop_back();
    if (e.prob.is_zero()) continue;
    path.truncate(e.depth);
    path.append(e.a, e.q2);
    expand(e.prob, e.node);
  }
  path.truncate(base_len);
}

/// Exact f-dist accumulator of one call. A trace-functional insight is
/// applied once per trace node -- at the first event that reaches it --
/// and the node remembers the resulting perception slot; every event
/// then adds its mass to that slot. Each perception's mass is thus
/// summed event by event in visit order, the same additions
/// ExactDisc::add would make, so results (and any Rational overflow) are
/// identical to applying the insight per event -- which is what happens,
/// straight into an ExactDisc, for any other insight.
class FdistAccumulator {
 public:
  explicit FdistAccumulator(const InsightFunction& f)
      : f_(f), by_trace_(f.trace_functional()) {}

  /// The trie walk_cone should extend, or null for per-event insights.
  TraceTrie* trie() { return by_trace_ ? &trie_ : nullptr; }

  void add(Psioa& automaton, const ExecFragment& alpha, TraceTrie::Node node,
           const Rational& p) {
    if (!by_trace_) {
      per_event_.add(f_.apply(automaton, alpha), p);
      return;
    }
    std::uint32_t& slot = trie_.slot(node);
    if (slot == TraceTrie::kNone) slot = slot_of(f_.apply(automaton, alpha));
    mass_[slot] += p;
  }

  /// The accumulated f-dist (built once, in canonical sorted order).
  ExactDisc<Perception> finish() {
    if (!by_trace_) return std::move(per_event_);
    ExactDisc<Perception> out;
    for (std::uint32_t s : sorted_) out.add(perc_[s], mass_[s]);
    return out;
  }

 private:
  /// The slot of perception `perc`, opened (with zero mass) on first use.
  std::uint32_t slot_of(Perception perc) {
    auto it = std::lower_bound(
        sorted_.begin(), sorted_.end(), perc,
        [&](std::uint32_t s, const Perception& key) { return perc_[s] < key; });
    if (it != sorted_.end() && perc_[*it] == perc) return *it;
    const auto s = static_cast<std::uint32_t>(perc_.size());
    perc_.push_back(std::move(perc));
    mass_.emplace_back();
    sorted_.insert(it, s);
    return s;
  }

  const InsightFunction& f_;
  const bool by_trace_;
  TraceTrie trie_;
  std::vector<Perception> perc_;      // slot -> perception
  std::vector<Rational> mass_;        // slot -> mass summed so far
  std::vector<std::uint32_t> sorted_; // slots ordered by perception
  ExactDisc<Perception> per_event_;   // per-event path
};

}  // namespace

std::optional<ReducedSystem> reduce_for_enumeration(
    Psioa& automaton, std::size_t max_depth, const ReductionPolicy& policy) {
  if (!policy.enabled() || max_depth == 0) return std::nullopt;
  // Warm through the automaton's own memo when it has one; otherwise a
  // non-owning MemoView (the caller keeps ownership of `automaton` and
  // outlives this call, which is all the view needs).
  auto* memo = dynamic_cast<MemoPsioa*>(&automaton);
  std::shared_ptr<MemoView> wrapper;
  MemoPsioa* warm = memo;
  if (memo == nullptr || !memo->memoization_enabled()) {
    wrapper = memoize(PsioaPtr(PsioaPtr{}, &automaton));
    warm = wrapper.get();
  }
  // Covering walk: horizon = max_depth freezes full rows at every state
  // the cone can expand (depth < max_depth) and signatures at the
  // leaves, so the quotient's frontier singletons are never entered.
  WarmupPlan plan;
  plan.episodes = 0;
  plan.horizon = max_depth;
  plan.max_states = policy.max_states;
  UniformScheduler uniform(max_depth);
  const std::size_t visited = warm_automaton(*warm, uniform, plan, max_depth);
  if (visited >= plan.max_states) return std::nullopt;  // truncated: fall back

  auto snap = warm->freeze();
  PartitionStats pstats;
  const SnapshotPartition partition = bisimulation_partition(*snap, &pstats);
  QuotientSnapshot quotient = snap->quotient(partition);

  ReducedSystem out;
  out.snapshot = quotient.reduced;
  out.view = std::make_shared<QuotientPsioa>(quotient.reduced);
  out.states = snap->state_count();
  out.blocks = quotient.blocks;
  return out;
}

void enumerate_cone(
    Psioa& automaton, Scheduler& sched, std::size_t max_depth,
    ExecFragment& path, const Rational& prefix_prob,
    const std::function<void(const ExecFragment&, const Rational&)>& visit,
    ConeStats* stats) {
  ConeStats scratch;
  walk_cone(automaton, sched, max_depth, path, prefix_prob, nullptr,
            [&](const ExecFragment& alpha, const Rational& p,
                TraceTrie::Node) { visit(alpha, p); },
            stats != nullptr ? *stats : scratch);
}

ExactDisc<Perception> exact_fdist(Psioa& automaton, Scheduler& sched,
                                  const InsightFunction& f,
                                  std::size_t max_depth, ConeStats* stats) {
  ConeStats scratch;
  FdistAccumulator acc(f);
  ExecFragment path = ExecFragment::starting_at(automaton.start_state());
  walk_cone(automaton, sched, max_depth, path, Rational(1), acc.trie(),
            [&](const ExecFragment& alpha, const Rational& p,
                TraceTrie::Node node) { acc.add(automaton, alpha, node, p); },
            stats != nullptr ? *stats : scratch);
  return acc.finish();
}

// -- exact prefix strata (importance splitting) -----------------------------

PrefixStrata expand_prefix_strata(Psioa& automaton, Scheduler& sched,
                                  const InsightFunction& f,
                                  std::size_t split_depth, ConeStats* stats) {
  PrefixStrata out;
  ExecFragment root = ExecFragment::starting_at(automaton.start_state());
  if (split_depth == 0) {
    out.live.push_back({std::move(root), Rational(1)});
    out.live_mass = Rational(1);
    return out;
  }
  // enumerate_cone capped at split_depth visits each event exactly once:
  // interior halts (length < cap) with their halt mass -- genuinely
  // terminal, hence settled -- and depth-capped fragments (length ==
  // cap) with their FULL remaining cone mass, which is exactly the
  // stratum weight conditioning needs.
  enumerate_cone(
      automaton, sched, split_depth, root, Rational(1),
      [&](const ExecFragment& alpha, const Rational& p) {
        if (alpha.length() >= split_depth) {
          out.live.push_back({alpha, p});  // copy: alpha aliases the path
          out.live_mass = out.live_mass + p;
        } else {
          out.settled.add(f.apply(automaton, alpha), p);
        }
      },
      stats);
  return out;
}

// -- prefix-sharing frontiers ----------------------------------------------

ConeFrontierCache::ConeFrontierCache(Psioa& automaton,
                                     const InsightFunction& f,
                                     std::size_t max_depth)
    : automaton_(automaton),
      f_(f),
      max_depth_(max_depth),
      memo_(memo_engine_of(automaton)) {}

const ConeFrontier& ConeFrontierCache::insert(
    const std::vector<ActionId>& word, ConeFrontier fr) {
  return cache_.insert_or_assign(word, std::move(fr)).first->second;
}

ConeFrontier ConeFrontierCache::root_frontier() {
  // The empty word's cone is a single node: the start fragment either
  // hits the depth cap immediately or halts with full mass -- in which
  // case it is live, because an extension re-expands it.
  ConeFrontier fr;
  ExecFragment root = ExecFragment::starting_at(automaton_.start_state());
  const Perception perc = f_.apply(automaton_, root);
  if (root.length() >= max_depth_) {
    fr.settled.add(perc, Rational(1));
    ++stats_.leaves;
  } else {
    fr.live.push_back({std::move(root), Rational(1), perc});
  }
  fr.fdist = fr.settled;
  for (const auto& e : fr.live) fr.fdist.add(e.perc, e.prob);
  return fr;
}

ConeFrontier ConeFrontierCache::extend(const ConeFrontier& parent,
                                       ActionId a) {
  // One letter of SequenceScheduler semantics (local_only = false),
  // applied only to the parent's live fragments: a disabled letter
  // settles the fragment for every further extension; an enabled letter
  // carries unit scheduler mass, so each transition target either
  // settles at the depth cap or joins the child's live frontier.
  ConeFrontier fr;
  fr.settled = parent.settled;
  fr.settled_max_len = parent.settled_max_len;
  ++stats_.prefix_misses;
  for (const auto& e : parent.live) {
    const State q = e.frag.lstate();
    const std::size_t child_len = e.frag.length() + 1;
    bool enabled;
    if (memo_ != nullptr) {
      enabled = memo_->signature_ref(q).contains(a);
    } else {
      enabled = automaton_.signature(q).contains(a);
    }
    if (!enabled) {
      fr.settled.add(e.perc, e.prob);
      fr.settled_max_len = std::max(fr.settled_max_len, e.frag.length());
      ++stats_.halts;
      continue;
    }
    auto step = [&](State q2, const Rational& tw) {
      ExecFragment child = e.frag;
      child.append(a, q2);
      Rational p = e.prob * tw;
      Perception perc = f_.apply(automaton_, child);
      if (child_len >= max_depth_) {
        fr.settled.add(perc, p);
        fr.settled_max_len = std::max(fr.settled_max_len, child_len);
        ++stats_.leaves;
      } else {
        fr.live.push_back({std::move(child), std::move(p), std::move(perc)});
      }
    };
    if (memo_ != nullptr) {
      // The row reference is only stable until the next compiled_row
      // call, and f_.apply may fault signatures on snapshot views --
      // neither touches the row tables, so reading entries across the
      // step calls is safe; a fresh live fragment never aliases it.
      const StateDist& eta = memo_->transition_dist(q, a);
      for (const auto& [q2, tw] : eta.entries()) step(q2, tw);
    } else {
      const StateDist eta = automaton_.transition(q, a);
      for (const auto& [q2, tw] : eta.entries()) step(q2, tw);
    }
  }
  fr.max_reached = fr.settled_max_len;
  if (!fr.live.empty()) {
    fr.max_reached = std::max(fr.max_reached, fr.live.front().frag.length());
  }
  fr.fdist = fr.settled;
  for (const auto& e : fr.live) fr.fdist.add(e.perc, e.prob);
  return fr;
}

const ConeFrontier& ConeFrontierCache::frontier(
    const std::vector<ActionId>& word) {
  auto it = cache_.find(word);
  if (it != cache_.end()) {
    ++stats_.prefix_hits;
    return it->second;
  }
  if (word.empty()) return insert(word, root_frontier());
  // Longest cached prefix, then one extension level per missing letter.
  // Every intermediate level is cached too: the searches query words in
  // prefix order, so in steady state this loop runs exactly once.
  std::vector<ActionId> prefix = word;
  prefix.pop_back();
  const ConeFrontier& parent = frontier(prefix);
  return insert(word, extend(parent, word.back()));
}

void ConeFrontierCache::evict(const std::vector<ActionId>& word) {
  cache_.erase(word);
}

}  // namespace cdse
