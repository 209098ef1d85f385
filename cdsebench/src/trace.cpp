#include "trace.hpp"

#include <cstdio>

namespace cdse::bench {

Tracer::Tracer() : owner_(std::this_thread::get_id()) {
  spans_.reserve(1 << 16);
}

std::uint32_t Tracer::begin_op(const char* name) {
  ++op_;
  open_.clear();
  return begin(name);
}

std::uint32_t Tracer::begin(const char* name) {
  const auto id = static_cast<std::uint32_t>(spans_.size() + 1);
  const std::uint32_t parent = open_.empty() ? 0 : spans_[open_.back()].id;
  spans_.push_back({id, parent, op_, name, now_ns(), 0});
  open_.push_back(id - 1);
  return id;
}

void Tracer::end(std::uint32_t id) {
  spans_[id - 1].t1 = now_ns();
  while (!open_.empty() && open_.back() >= id - 1) open_.pop_back();
}

bool Tracer::dump(const std::string& path, const Counters& counters) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"counters\": {");
  bool first = true;
  for (const auto& [k, v] : counters) {
    std::fprintf(out, "%s%s: %s", first ? "" : ", ", json_str(k).c_str(),
                 json_num(v).c_str());
    first = false;
  }
  std::fprintf(out, "},\n\"spans\": [");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out, "%s\n[%u, %u, %u, \"%s\", %lld, %lld]", i ? "," : "",
                 s.id, s.parent, s.op, s.name,
                 static_cast<long long>(s.t0), static_cast<long long>(s.t1));
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

SpanGuard::SpanGuard(Tracer* tracer, const char* name)
    : tracer_(tracer != nullptr && tracer->on_owner_thread() ? tracer
                                                               : nullptr) {
  if (tracer_ != nullptr) id_ = tracer_->begin(name);
}

SpanGuard::~SpanGuard() {
  if (tracer_ != nullptr) tracer_->end(id_);
}

OpGuard::OpGuard(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (tracer_ != nullptr) id_ = tracer_->begin_op(name);
}

OpGuard::~OpGuard() {
  if (tracer_ != nullptr) tracer_->end(id_);
}

Perception CountingInsight::apply(Psioa& automaton,
                                  const ExecFragment& alpha) const {
  const std::int64_t t0 = now_ns();
  Perception p = inner_.apply(automaton, alpha);
  ns_.fetch_add(static_cast<std::uint64_t>(now_ns() - t0),
                std::memory_order_relaxed);
  calls_.fetch_add(1, std::memory_order_relaxed);
  bytes_.fetch_add(p.size(), std::memory_order_relaxed);
  return p;
}

PsioaFactory timed_factory(PsioaFactory make, Tracer* tracer,
                           BuildMeter* meter) {
  if (tracer == nullptr) return make;
  return [make = std::move(make), tracer, meter]() -> PsioaPtr {
    SpanGuard span(tracer, "psioa.build");
    const std::int64_t t0 = now_ns();
    PsioaPtr p = make();
    meter->ns.fetch_add(static_cast<std::uint64_t>(now_ns() - t0),
                        std::memory_order_relaxed);
    meter->calls.fetch_add(1, std::memory_order_relaxed);
    return p;
  };
}

}  // namespace cdse::bench
