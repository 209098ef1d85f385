#!/usr/bin/env python3
"""The cdse benchmark: one seeded command per workload.

    python3 cdsebench/run.py --workload exact_eps|sampled_eps|session_soak \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the library from src/ and the
benchmark binary (cdsebench/src) into .bench_build/cdsebench with CMake, prints
provenance and the host calibration probe, runs the workload, and prints
its end-to-end metrics with their units (--trace 0) or the per-layer
table of a separate traced run (--trace 1). The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Exits non-zero, without that line, when the build fails or any answer is
wrong. Run artifacts (result.json, trace.json) go to .bench_out/.

In the JSON, a per-layer metric the workload does not exercise reads 0;
the printed table says n/a for it.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import summarise  # noqa: E402

WORKLOADS = ("exact_eps", "sampled_eps", "session_soak")

# name -> unit, in the order printed; the first six are BENCHMARK.json's
# end_to_end metrics.
END_TO_END = [
    ("ops_per_s", "1/s"),
    ("op_us_p50", "us"),
    ("op_us_p95", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("cpu_us_per_op", "us"),
    ("failed_frac", "ratio"),
    ("eps_halfwidth", "eps"),
]
GATED = 6


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds cdse_bench; returns its path or None."""
    build_dir = os.path.join(ROOT, ".bench_build", "cdsebench")
    binary = os.path.join(build_dir, "cdse_bench")
    configured = any(os.path.exists(os.path.join(build_dir, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        gen = ["-G", "Ninja"] if _has("ninja") else []
        cfg = subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"] + gen,
            stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    made = subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                          stdout=sys.stderr, stderr=sys.stderr)
    if made.returncode != 0 or not os.path.exists(binary):
        return None
    return binary


def _has(program):
    return any(os.access(os.path.join(p, program), os.X_OK)
               for p in os.environ.get("PATH", "").split(os.pathsep))


def provenance():
    sha = "n/a (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            sha = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "cdsebench"):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(files):
                if name.endswith((".cpp", ".hpp", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    print("git sha: %s" % sha)
    print("source digest (src/, cdsebench/): sha256 %s" % digest.hexdigest())


def print_end_to_end(result):
    u = result["untraced"]
    values = {
        "ops_per_s": u["ops_per_s"],
        "op_us_p50": u["op_us_p50"],
        "op_us_p95": u["op_us_p95"],
        "setup_s": result["setup_s"],
        "peak_rss_mb": result["peak_rss_mb"],
        "cpu_us_per_op": u["cpu_us_per_op"],
        "failed_frac": u["failed_frac"],
        "eps_halfwidth": u["eps_halfwidth"],
    }
    n = u["latency_samples"]
    w = u["windows"]
    if u["latency_windowed"]:
        # Median of per-window percentiles: each window's p95 rests on
        # the samples of that window alone.
        per = u["window_ops_min"]
        p50_note = "%d samples; median over %d windows of >= %d" % (n, w, per)
        beyond = per // 20
    else:
        p50_note = "%d samples, pooled over the run" % n
        beyond = n // 20
    notes = {
        "ops_per_s": "median over %d windows of whole passes" % w,
        "op_us_p50": p50_note,
        "op_us_p95": ">= %d samples beyond it%s" % (
            beyond, "" if beyond >= 10 else " (fewer than 10: too few ops)"),
        "cpu_us_per_op": "process CPU, all threads; median over windows",
        "setup_s": "median of %d set-ups" % len(result["setup_samples"]),
        "failed_frac": "%d of %d ops" % (u["failed"], u["attempted"]),
        "eps_halfwidth": "mean over sampled answers"
        if u["eps_halfwidth"] is not None
        else "n/a: this workload gives no sampled answers",
    }
    print("end-to-end metrics, %s, seed %d (%s)" % (
        result["workload"], result["seed"], result["shape"]))
    for name, unit in END_TO_END:
        v = values[name]
        shown = "n/a" if v is None else "%.6g" % v
        print("  %-16s %16s %-6s %s" % (name, shown, unit, notes.get(name, "")))
    for what, count in sorted(u["failures"].items()):
        print("  failed op: %s (x%d)" % (what, count))
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END[:GATED]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build()
    if binary is None:
        log("build failed")
        return 1
    provenance()
    sys.stdout.flush()
    if subprocess.run([binary, "--probe"]).returncode != 0:
        return 1

    out_dir = os.path.join(ROOT, ".bench_out", "%s-s%d-t%d" % (
        args.workload, args.seed, args.trace))
    os.makedirs(out_dir, exist_ok=True)
    for stale in ("result.json", "trace.json"):
        if os.path.exists(os.path.join(out_dir, stale)):
            os.remove(os.path.join(out_dir, stale))
    sys.stdout.flush()
    rc = subprocess.run([binary, "--workload", args.workload,
                         "--seed", str(args.seed),
                         "--seconds", str(args.seconds),
                         "--trace", str(args.trace),
                         "--out", out_dir]).returncode
    if rc != 0:
        log("cdse_bench exited with %d" % rc)
        return rc
    with open(os.path.join(out_dir, "result.json")) as f:
        result = json.load(f)
    if not result["correct"]:
        return 1

    metrics = print_end_to_end(result)
    attempted = result["untraced"]["attempted"]
    failed = result["untraced"]["failed"]
    if args.trace:
        with open(os.path.join(out_dir, "trace.json")) as f:
            trace = json.load(f)
        layers = summarise.layer_metrics(trace, result)
        summarise.print_table(args.workload, trace, layers)
        metrics = {name: {"value": layers[name] if layers[name] is not None
                          else 0.0, "unit": unit}
                   for name, (unit, _) in summarise.LAYER_METRICS.items()}
        attempted += result["traced"]["attempted"]
        failed += result["traced"]["failed"]
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
