// cdse_bench: one workload of the cdse benchmark, run once.
//
//   cdse_bench --workload exact_eps|sampled_eps|session_soak --seed N
//              --seconds S --trace 0|1 --out DIR
//   cdse_bench --probe
//
// Sets the workload up several times (setup_s is the median), runs its
// closed loop untraced for S seconds, and with --trace 1 runs it again
// traced (spans + layer counters + allocation meter). Every answer is
// then checked outside the timed regions. Writes DIR/result.json (and
// DIR/trace.json when traced) for run.py, prints a human-readable
// report, and exits 1 when any answer is wrong.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common.hpp"
#include "trace.hpp"

namespace cdse::bench {
namespace {

constexpr int kSetupRepeats = 5;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out = ".";
  bool probe = false;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--probe") {
      a.probe = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      a.trace = std::strcmp(v, "0") != 0;
    } else if (k == "--out") {
      a.out = v;
    } else {
      return false;
    }
  }
  return a.probe || (!a.workload.empty() && a.seconds > 0.0);
}

std::string loop_json(const LoopStats& s) {
  std::string o =
      "{\"attempted\": " + std::to_string(s.attempted) +
      ", \"failed\": " + std::to_string(s.failed) +
      ", \"wall_s\": " + json_num(s.wall_s) +
      ", \"cpu_s\": " + json_num(s.cpu_s) +
      ", \"windows\": " + std::to_string(s.windows) +
      ", \"window_ops_min\": " + std::to_string(s.window_ops_min) +
      ", \"latency_windowed\": " + (s.latency_windowed ? "true" : "false") +
      ", \"ops_per_s\": " + json_num(s.ops_per_s) +
      ", \"op_us_p50\": " + json_num(s.p50_us) +
      ", \"op_us_p95\": " + json_num(s.p95_us) +
      ", \"latency_samples\": " + std::to_string(s.latency_samples) +
      ", \"cpu_us_per_op\": " + json_num(s.cpu_us_per_op) +
      ", \"failed_frac\": " +
      json_num(static_cast<double>(s.failed) /
               static_cast<double>(std::max<std::uint64_t>(1, s.attempted))) +
      ", \"eps_halfwidth\": " +
      (s.eps_halfwidth < 0 ? std::string("null") : json_num(s.eps_halfwidth)) +
      ", \"failures\": {";
  bool first = true;
  for (const auto& [what, n] : s.failures) {
    if (!first) o += ", ";
    o += json_str(what) + ": " + std::to_string(n);
    first = false;
  }
  return o + "}}";
}

int run(const Args& a) {
  const std::string path = a.out + "/result.json";
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 2;
  }
  std::unique_ptr<Workload> w;
  if (a.workload == "exact_eps") w = make_exact_workload(a.seed);
  if (a.workload == "sampled_eps") w = make_sampled_workload(a.seed);
  if (a.workload == "session_soak") w = make_soak_workload(a.seed);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", a.workload.c_str());
    std::fclose(out);
    return 2;
  }

  std::vector<double> setups;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const std::int64_t t0 = now_ns();
    w->setup();
    setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  std::vector<double> sorted = setups;
  const double setup_s = quantile(sorted, 0.5);

  const LoopStats plain = w->run(a.seconds, nullptr, nullptr);
  const double rss_mb = peak_rss_mb();

  LoopStats traced;
  if (a.trace) {
    Tracer tracer;
    Counters k;
    reset_alloc_meter();
    alloc_meter_on = true;
    traced = w->run(a.seconds, &tracer, &k);
    alloc_meter_on = false;
    k["alloc.calls"] = static_cast<double>(alloc_calls());
    k["alloc.bytes"] = static_cast<double>(alloc_bytes());
    k["loop.ops"] = static_cast<double>(traced.attempted - traced.failed);
    if (!tracer.dump(a.out + "/trace.json", k)) {
      std::fprintf(stderr, "cannot write %s/trace.json\n", a.out.c_str());
      std::fclose(out);
      return 2;
    }
  }

  const std::vector<std::string> wrong = w->verify();
  for (const std::string& line : wrong) {
    std::printf("WRONG ANSWER %s\n", line.c_str());
  }

  std::string setup_list;
  for (double s : setups) {
    if (!setup_list.empty()) setup_list += ", ";
    setup_list += json_num(s);
  }
  std::fprintf(out,
               "{\"workload\": %s, \"seed\": %llu, \"shape\": %s,\n"
               " \"correct\": %s, \"wrong\": %zu,\n"
               " \"setup_s\": %s, \"setup_samples\": [%s],\n"
               " \"peak_rss_mb\": %s,\n \"untraced\": %s",
               json_str(a.workload).c_str(),
               static_cast<unsigned long long>(a.seed),
               json_str(w->shape()).c_str(), wrong.empty() ? "true" : "false",
               wrong.size(), json_num(setup_s).c_str(), setup_list.c_str(),
               json_num(rss_mb).c_str(), loop_json(plain).c_str());
  if (a.trace) std::fprintf(out, ",\n \"traced\": %s", loop_json(traced).c_str());
  std::fprintf(out, "}\n");
  if (std::fclose(out) != 0) return 2;
  return wrong.empty() ? 0 : 1;
}

}  // namespace
}  // namespace cdse::bench

int main(int argc, char** argv) {
  cdse::bench::Args a;
  if (!cdse::bench::parse(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: cdse_bench --workload W --seed N --seconds S "
                 "--trace 0|1 --out DIR | --probe\n");
    return 2;
  }
  if (a.probe) return cdse::bench::run_probe();
  return cdse::bench::run(a);
}
