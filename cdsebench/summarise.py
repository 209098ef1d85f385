"""Trace summariser: turns the span dump of a traced run into the
per-layer metrics, under the names BENCHMARK.json uses.

The dump (trace.json, written by cdse_bench) holds the layer counters of
the traced loop and one span per call the benchmark made into a layer:
[id, parent, op, name, t0_ns, t1_ns]. A span's self time is its duration
minus the part of it its child spans cover.

    python3 cdsebench/summarise.py DIR      # DIR holds trace.json, result.json
"""

import json
import sys
from collections import defaultdict

# name -> (unit, what the value is, with its base)
LAYER_METRICS = {
    "psioa.build_us_per_op": ("us", "time in PsioaFactory calls / ops"),
    "snapshot.prepare_ms": ("ms", "ParallelSampler::prepare span / prepares"),
    "snapshot.states": ("count", "frozen snapshot states / prepares"),
    "snapshot.rows": ("count", "compiled rows / prepares"),
    "snapshot.row_overflows": ("count", "row overflows / sampler runs"),
    "exact.fdist_self_ms": ("ms", "(exact_fdist spans - insight time) / ops"),
    "exact.frames_pushed": ("count", "ConeStats frames pushed / ops"),
    "exact.frames_peak": ("count", "ConeStats frames peak, max over ops"),
    "exact.leaves": ("count", "ConeStats leaves / ops"),
    "exact.ns_per_frame": ("ns", "exact_fdist self time / frames pushed"),
    "bisim.quotient_states": ("count", "snapshot states / reduced systems"),
    "bisim.quotient_blocks": ("count", "quotient blocks / reduced systems"),
    "bisim.blocks_per_state": ("ratio", "quotient blocks / snapshot states"),
    "insight.calls": ("count", "insight calls / ops"),
    "insight.ns_per_call": ("ns", "insight time / insight calls"),
    "insight.perception_bytes": ("bytes", "perception bytes / insight calls"),
    "insight.share_of_fdist": ("ratio",
                               "insight time (all threads) / f-dist span time"),
    "measure.balance_us": ("us", "balance_distance span / calls"),
    "measure.support": ("count", "f-dist support, both sides / ops"),
    "rational.overflows": ("count", "ops that threw Rational overflow"),
    "batch.action_draws": ("count", "BatchStats action draws / sampler runs"),
    "batch.target_draws": ("count", "BatchStats target draws / sampler runs"),
    "batch.choice_lookups": ("count", "BatchStats choice lookups / sampler runs"),
    "batch.row_lookups": ("count", "BatchStats row lookups / sampler runs"),
    "batch.class_steps": ("count", "BatchStats class steps / sampler runs"),
    "batch.distinct_execs": ("count", "BatchStats distinct executions / sampler runs"),
    "batch.singleton_skip_frac": ("ratio", "singleton skips / logical draws"),
    "batch.block_draws": ("count", "BatchStats block draws / sampler runs"),
    "batch.rejection_redraws": ("count", "BatchStats rejection redraws / sampler runs"),
    "batch.draws_per_s": ("1/s", "logical draws / sample_fdist span time"),
    "seq.draws_per_verdict": ("count", "SequentialEpsilon draws / verdicts"),
    "seq.trials_per_verdict": ("count", "SequentialEpsilon trials / verdicts"),
    "seq.looks": ("count", "estimator looks / verdicts"),
    "seq.stages": ("count", "trial stages / verdicts"),
    "seq.strata": ("count", "live strata / verdicts"),
    "seq.undecided_frac": ("ratio", "undecided verdicts / verdicts"),
    "impl.cells_per_check": ("count", "grid cells / implementation checks"),
    "impl.check_ms": ("ms", "implementation check span / checks"),
    "pool.workers": ("count", "ThreadPool workers"),
    "pool.cpu_wall_ratio": ("ratio", "process CPU time / wall time, per op"),
    "svc.open_ns_p50": ("ns", "median open request latency"),
    "svc.auth_ns_p50": ("ns", "median auth request latency"),
    "svc.forge_ns_p50": ("ns", "median forge request latency"),
    "svc.close_ns_p50": ("ns", "median close request latency"),
    "svc.epoch_ms": ("ms", "advance_epoch span / epochs"),
    "svc.rejected": ("count", "requests rejected by admission, whole loop"),
    "svc.forgeries": ("count", "forge requests that won, whole loop"),
    "intern.lookups": ("count", "InternStats lookups / ops"),
    "intern.probes_per_lookup": ("ratio", "InternStats probes / lookups"),
    "intern.rehashes": ("count", "InternStats rehashes / ops"),
    "intern.keys_retired": ("count", "InternStats keys retired / ops"),
    "intern.bytes_reclaimed": ("bytes", "InternStats bytes reclaimed / ops"),
    "intern.bytes_live_end": ("bytes", "InternStats live key bytes at the end"),
    "intern.live_keys_end": ("count", "live interned keys at the end"),
    "alloc.calls_per_op": ("count", "operator new calls / ops"),
    "alloc.bytes_per_op": ("bytes", "operator new bytes / ops"),
    "alloc.calls_per_leaf": ("count", "operator new calls / exact leaves"),
    "trace.overhead_frac": ("ratio", "1 - traced / untraced ops_per_s"),
}


def span_times(spans):
    """Total inclusive and self nanoseconds, and call counts, per name."""
    children = defaultdict(list)
    for s in spans:
        if s[1]:
            children[s[1]].append((s[4], s[5]))
    total = defaultdict(float)
    self_ns = defaultdict(float)
    calls = defaultdict(int)
    for sid, _, _, name, t0, t1 in spans:
        covered = 0
        end = t0
        for c0, c1 in sorted(children.get(sid, [])):
            c0 = max(c0, end)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        total[name] += t1 - t0
        self_ns[name] += t1 - t0 - covered
        calls[name] += 1
    return total, self_ns, calls


def ratio(num, den):
    return num / den if den else None


def layer_metrics(trace, result):
    """Per-layer metric values; None where the workload has no such
    layer work (printed as n/a)."""
    k = defaultdict(float, trace["counters"])
    total, self_ns, calls = span_times(trace["spans"])
    ops = k["loop.ops"]
    fdist_ns = total["exact.fdist"] - k["insight.ns"] if calls["exact.fdist"] else 0
    draws = k["batch.action_draws"] + k["batch.target_draws"]
    untraced = result["untraced"]["ops_per_s"]
    traced = result["traced"]["ops_per_s"]
    exact = calls["exact.fdist"] > 0
    soak = k["svc.epochs"] > 0
    m = {
        "psioa.build_us_per_op": ratio(k["psioa.build_ns"] / 1e3, ops)
        if k["psioa.build_ns"] else None,
        "snapshot.prepare_ms": ratio(total["snapshot.prepare"] / 1e6,
                                     calls["snapshot.prepare"]),
        "snapshot.states": ratio(k["snapshot.states"], k["snapshot.prepares"]),
        "snapshot.rows": ratio(k["snapshot.rows"], k["snapshot.prepares"]),
        "snapshot.row_overflows": ratio(k["snapshot.row_overflows"],
                                        k["batch.samples"]),
        "exact.fdist_self_ms": ratio(fdist_ns / 1e6, ops) if exact else None,
        "exact.frames_pushed": ratio(k["exact.frames_pushed"], ops) if exact else None,
        "exact.frames_peak": k["exact.frames_peak"] if exact else None,
        "exact.leaves": ratio(k["exact.leaves"], ops) if exact else None,
        "exact.ns_per_frame": ratio(fdist_ns, k["exact.frames_pushed"]),
        "bisim.quotient_states": ratio(k["bisim.quotient_states"],
                                       k["bisim.reduced_systems"]),
        "bisim.quotient_blocks": ratio(k["bisim.quotient_blocks"],
                                       k["bisim.reduced_systems"]),
        "bisim.blocks_per_state": ratio(k["bisim.quotient_blocks"],
                                        k["bisim.quotient_states"]),
        "insight.calls": ratio(k["insight.calls"], ops) if k["insight.calls"] else None,
        "insight.ns_per_call": ratio(k["insight.ns"], k["insight.calls"]),
        "insight.perception_bytes": ratio(k["insight.bytes"], k["insight.calls"]),
        "insight.share_of_fdist": ratio(
            k["insight.ns"],
            total["exact.fdist"] + total["batch.sample"] + total["seq.estimate"])
        if k["insight.calls"] else None,
        "measure.balance_us": ratio(total["measure.balance"] / 1e3,
                                    calls["measure.balance"]),
        "measure.support": ratio(k["measure.support"], calls["measure.balance"]),
        "rational.overflows": k["rational.overflows"] if exact else None,
        "batch.singleton_skip_frac": ratio(k["batch.singleton_skips"], draws),
        "batch.draws_per_s": ratio(draws, total["batch.sample"] / 1e9),
        "seq.undecided_frac": ratio(k["seq.undecided"], k["seq.verdicts"]),
        "impl.cells_per_check": ratio(k["impl.cells"], k["impl.checks"]),
        "impl.check_ms": ratio(k["impl.check_ns"] / 1e6, k["impl.checks"]),
        "pool.workers": k["pool.workers"] or None,
        "pool.cpu_wall_ratio": ratio(k["pool.op_cpu_ns"], k["pool.op_wall_ns"]),
        "svc.epoch_ms": ratio(k["svc.epoch_ns"] / 1e6, k["svc.epochs"]),
        "intern.lookups": ratio(k["intern.lookups"], ops) if k["intern.lookups"] else None,
        "intern.probes_per_lookup": ratio(k["intern.probes"], k["intern.lookups"]),
        "alloc.calls_per_op": ratio(k["alloc.calls"], ops),
        "alloc.bytes_per_op": ratio(k["alloc.bytes"], ops),
        "alloc.calls_per_leaf": ratio(k["alloc.calls"], k["exact.leaves"]),
        "trace.overhead_frac": 1.0 - traced / untraced if untraced else None,
    }
    for name in ("action_draws", "target_draws", "choice_lookups",
                 "row_lookups", "class_steps", "distinct_execs", "block_draws",
                 "rejection_redraws"):
        m["batch." + name] = ratio(k["batch." + name], k["batch.samples"])
    for name, key in (("draws_per_verdict", "draws"),
                      ("trials_per_verdict", "trials"), ("looks", "looks"),
                      ("stages", "stages"), ("strata", "strata")):
        m["seq." + name] = ratio(k["seq." + key], k["seq.verdicts"])
    for cls in ("open", "auth", "forge", "close"):
        m["svc.%s_ns_p50" % cls] = k["svc.%s_ns_p50" % cls] if soak else None
    for name in ("svc.rejected", "svc.forgeries", "intern.bytes_live_end",
                 "intern.live_keys_end"):
        m[name] = k[name] if soak else None
    for name in ("intern.keys_retired", "intern.bytes_reclaimed"):
        m[name] = ratio(k[name], ops) if soak else None
    m["intern.rehashes"] = ratio(k["intern.rehashes"], ops) \
        if k["intern.lookups"] else None
    return m


def print_table(workload, trace, metrics):
    ops = trace["counters"].get("loop.ops", 0) or 1
    total, self_ns, calls = span_times(trace["spans"])
    print("span times, traced run of %s (%d ops; self = span minus its "
          "child spans)" % (workload, ops))
    print("  %-18s %10s %14s %14s %14s" % ("span", "calls", "total ms",
                                           "self ms", "self us/op"))
    for name in sorted(total, key=lambda n: -self_ns[n]):
        print("  %-18s %10d %14.3f %14.3f %14.3f" % (
            name, calls[name], total[name] / 1e6, self_ns[name] / 1e6,
            self_ns[name] / 1e3 / ops))
    print("per-layer metrics, traced run of %s (n/a: the workload does not "
          "call that layer)" % workload)
    print("  %-28s %16s %-6s %s" % ("metric", "value", "unit", "base"))
    for name, (unit, base) in LAYER_METRICS.items():
        v = metrics.get(name)
        shown = "n/a" if v is None else "%.6g" % v
        print("  %-28s %16s %-6s %s" % (name, shown, unit, base))


def main(out_dir):
    with open(out_dir + "/trace.json") as f:
        trace = json.load(f)
    with open(out_dir + "/result.json") as f:
        result = json.load(f)
    print_table(result["workload"], trace, layer_metrics(trace, result))


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else ".")
