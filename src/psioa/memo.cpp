#include "psioa/memo.hpp"

#include "util/splits.hpp"

namespace cdse {

CompiledRow CompiledRow::compile(StateDist d,
                                 std::span<const std::size_t> order) {
  const auto& entries = d.entries();
  CompiledRow row;
  row.targets.reserve(entries.size());
  row.cdf.reserve(entries.size());
  std::vector<Rational> exact;
  exact.reserve(entries.size());
  double acc = 0.0;
  for (std::size_t k = 0; k < entries.size(); ++k) {
    const auto& [q, w] = entries[order.empty() ? k : order[k]];
    acc += w.to_double();
    row.targets.push_back(q);
    row.cdf.push_back(acc);
    exact.push_back(w);
  }
  row.split = conditional_splits(exact);
  row.dist = std::move(d);
  return row;
}

Signature MemoPsioa::signature(State q) { return signature_ref(q); }

const Signature& MemoPsioa::signature_ref(State q) {
  if (!memo_on_) {
    ++stats_.sig_computes;
    scratch_sig_ = compute_signature(q);
    return scratch_sig_;
  }
  StateMemo& m = memo_[q];
  if (!m.sig.has_value()) {
    ++stats_.sig_computes;
    // Compute before assigning so a throwing compute (e.g. an
    // incompatible composite state) caches nothing.
    m.sig = compute_signature(q);
  } else {
    ++stats_.sig_hits;
  }
  return *m.sig;
}

StateDist MemoPsioa::transition(State q, ActionId a) {
  if (!memo_on_) {
    ++stats_.row_computes;
    return compute_transition(q, a);
  }
  return compiled_row(q, a).dist;
}

const CompiledRow& MemoPsioa::compiled_row(State q, ActionId a) {
  if (!memo_on_) {
    ++stats_.row_computes;
    scratch_ = CompiledRow::compile(compute_transition(q, a));
    return scratch_;
  }
  StateMemo& m = memo_[q];
  auto it = m.rows.find(a);
  if (it != m.rows.end()) {
    ++stats_.row_hits;
    return it->second;
  }
  ++stats_.row_computes;
  CompiledRow row = CompiledRow::compile(compute_transition(q, a));
  return m.rows.emplace(a, std::move(row)).first->second;
}

void MemoPsioa::set_memoization(bool on) {
  memo_on_ = on;
  if (!on) clear_memo();
}

void MemoPsioa::clear_memo() { memo_.clear(); }

std::size_t MemoPsioa::invalidate_states(
    const std::function<bool(State)>& dead) {
  std::size_t dropped = 0;
  for (auto it = memo_.begin(); it != memo_.end();) {
    if (dead(it->first)) {
      dropped += it->second.rows.size();
      it = memo_.erase(it);
      continue;
    }
    auto& rows = it->second.rows;
    for (auto rit = rows.begin(); rit != rows.end();) {
      bool stale = false;
      for (State target : rit->second.targets) {
        if (dead(target)) {
          stale = true;
          break;
        }
      }
      if (stale) {
        rit = rows.erase(rit);
        ++dropped;
      } else {
        ++rit;
      }
    }
    ++it;
  }
  return dropped;
}

}  // namespace cdse
